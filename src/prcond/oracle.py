"""Certified planar optima and numerical verification of every identity.

Planar oracle.  At d=2 the Lipschitz optimization collapses to a small
number of real parameters: in the coordinates of `planar`, a feasible pair
is a point (r, y) of [0, 1] x S^2, and all three constants are slices of
the one objective sum kappa_i^p |r + <m_i, y>|^p.  Its infimum with r free
is L^p, its infimum at r = 0 is M^p, and its supremum at r = 1 is U^p,
because |<a_i, u>|^2 = kappa_i (1 + <m_i, y>) for the unit vector u with
coordinates y.  Searching these boxes IS the planar optimum, not a
relaxation of it.  A branch-and-bound over them yields an interval
certified to contain the true optimum, plus a witness vector or pair
rebuilt from the optimal parameters.  Its cell floors are centred forms
(value, partials and a curvature bound): of the quadratic at p=2, and at
p=1 of the linear sum of the terms that keep their sign over the cell,
which is every term of U; a p=1 term that can cross zero in the cell
gives up its centre value.  Every band closes on its gap.  Each level
splits a cell on all its axes of about its widest effective width.

Identity suite.  The remaining functions check, numerically and over wide
sweeps, the trigonometric partial-sum identities, the closed form of the
absolute angle sums G_k, the t=1 minimization property of tight 4-frames,
the weighted-sine tangent bound, and the Gaussian expectation curves.
`verify_all` bundles them into one report the CLI can print.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import closedform
from .closedform import _check_p
from .core import (
    Constraint,
    Field,
    RngSpec,
    SensingMatrix,
    UnitPair,
    _as_generator,
    _gaussian_array,
    _metric_routes,
    harmonic_frame,
)
from .lipschitz import (
    BandRecord,
    EstimateKind,
    LipschitzEstimate,
    Method,
    _rescaled,
    _unit_scale,
    is_tight_4_frame,
    pair_objective,
    upper_objective,
)
from .planar import _bloch_rows, _bloch_vector, _check_witness, _on_sphere, _pair_from_point

__all__ = [
    "SubTanCheck",
    "McEstimate",
    "SuiteResult",
    "VerificationReport",
    "grid_lower_l",
    "grid_upper_u",
    "check_lagrange_identities",
    "check_gk_closed_form",
    "check_g_min_at_one",
    "check_sub_tan",
    "mc_expectation",
    "verify_all",
    "k_hat",
]


@dataclass(frozen=True)
class SubTanCheck:
    min_value: float
    bound: float
    holds: bool


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    stderr: float


# ---------------------------------------------------------------------------
# certified branch and bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _BandResult:
    floor: float
    best: float
    arg: np.ndarray
    record: BandRecord


# Cells per evaluator call.  Each call's work arrays, (m, cells) for the
# p=1 terms and (<= 4, cells) for the centred form, stay near a megabyte
# whatever the frontier.
_CHUNK = 8192

_EPS = float(np.finfo(np.float64).eps)

# The search budget.  _MAX_CELLS caps the cells one level may evaluate, so
# degenerate flat valleys end with an honestly wider band instead of running
# forever.  Otherwise a search ends on the gap test, or at the float
# resolution, once a cell's half-width nears the float spacing of the box.
# Each level halves every cell's widest effective axis, and the r and theta
# axes' effective widths are their half-widths, so a planar search reaches
# that resolution within 47 levels (half-widths of at most pi, halved down
# to 16 pads).  Each band's `BandRecord` says which of these ended its
# search.  On the 400 bands of acceptance criterion 7, all 400 searches end
# on the gap test, in at most 46 levels and 7,968 cells a level.
_MAX_CELLS = 200_000


def _evaluate(evaluate, cent, half):
    """Least centre value and its column, then the floors and split axes.

    `evaluate` runs on `_CHUNK` columns at a time, and a one-column tail
    joins the chunk before it.  Of its output only the floors and each
    cell's split axes are kept, as bits: every axis whose effective width
    is at least half the cell's widest.  So a level costs 57 bytes a cell
    with its centres and half-widths.
    """
    k, n = cent.shape
    floors = np.empty(n)
    # axis a is bit a, set unless the axis is below half the widest; a
    # one-axis box splits every cell on it
    axes = np.ones(n, dtype=np.uint8)
    best, at, start = math.inf, 0, 0
    while start < n:
        # numpy sums the terms of a lone column in another order than those
        # of a wider block, so a one-column tail would round differently
        end = n if n - start <= _CHUNK + 1 else start + _CHUNK
        cols = slice(start, end)
        vals, floors[cols], eff = evaluate(cent[:, cols], half[:, cols])
        if k > 1:
            # "not below" rather than ">=" also splits a NaN width, so that
            # every cell splits on at least one axis
            cut = eff.max(axis=0)
            cut *= 0.5
            axes[cols] = np.packbits(~(eff < cut), axis=0, bitorder="little")[0]
        i = int(np.argmin(vals))
        if vals[i] < best:
            best, at = float(vals[i]), start + i
        start = end
    return best, at, floors, axes


def _split(cent, half, axes, counts, sides, pad):
    """The children of the cells (columns), each split on its `axes` bits.

    `counts` holds how many cells have each split mask, and `sides` each
    mask's axes and child sides (`_mask_sides`).  The cells of one mask,
    with split axes a_0 < ... < a_(s-1), give 2^s blocks of children, one
    child of each cell a block: block b is on the plus side of a_j,
    c_a + h_a/2, where bit j of b is set, and on the minus side, c_a - h_a/2,
    where it is not, with half-width h_a/2 + pad on every split axis.  A
    one-axis box thus has all minus children first, then all plus children.
    Almost every level has one mask; the masks come in increasing order.
    """
    k = cent.shape[0]
    kids = []
    for mask in counts.nonzero()[0]:
        c, h = cent, half
        if counts[mask] < cent.shape[1]:
            idx = (axes == mask).nonzero()[0]
            c, h = c.take(idx, axis=1), h.take(idx, axis=1)
        ax, signs = sides[mask]
        blocks = signs.shape[1]
        n = c.shape[1]
        c = np.concatenate([c] * blocks, axis=1)
        h = np.concatenate([h] * blocks, axis=1)
        cv = c.reshape(k, blocks, n)
        hv = h.reshape(k, blocks, n)
        for a, sign in zip(ax, signs):
            step = hv[a, 0] * 0.5
            width = hv[a, 0] - step
            width += pad
            # c + (-1) step rounds as c - step does
            cv[a] += sign[:, None] * step
            hv[a] = width
        kids.append((c, h))
    if len(kids) == 1:
        return kids[0]
    return tuple(np.concatenate(part, axis=1) for part in zip(*kids))


@functools.lru_cache(maxsize=None)
def _mask_sides(mask: int):
    """The axes of a split mask, and the side of each child block on each.

    signs[j, b] is +1 where bit j of b is set and -1 where it is not, so a
    mask of s axes has 2^s child blocks.  Cached, since every band asks for
    the same few masks; the cached array is read-only.
    """
    ax = tuple(a for a in range(mask.bit_length()) if mask >> a & 1)
    bits = np.arange(1 << len(ax)) >> np.arange(len(ax))[:, None]
    signs = np.where(bits & 1, 1.0, -1.0)
    signs.flags.writeable = False
    return ax, signs


def _branch_bound(evaluate, lo, hi) -> _BandResult:
    """Certified minimum band for a box-constrained objective.

    Cells are stored as columns: `evaluate(cent, half)` maps n cells
    (centers and half-widths, both (k, n) for k box axes) to
    `(vals, floors, eff)`: center values, certified per-cell lower bounds,
    and effective per-axis widths (k, n) that steer the split choice.
    Returns floor <= min F <= best, where best is attained at `arg`, and a
    `BandRecord` of how the search ended.  The search starts from one
    cell, the box itself (Land & Doig, Econometrica 1960; Horst & Tuy,
    Global Optimization, Springer 1996).  A cell is dropped once its floor
    cannot beat the incumbent; dropped cells stay above the final
    incumbent, so the reported floor bounds the global minimum over the
    whole box.  Each level compacts the frontier to the cells whose floor
    is below the incumbent and splits each along every axis whose effective
    width is at least half its widest, into 2^s children for s such axes
    (`_split`): near-cubic cells halve all their axes at once, so a search
    takes fewer levels, while a one-axis box splits as a bisection does.
    The children cover their parent in exact arithmetic, whatever the
    rounding of their centres.  Every level splits each live cell on at
    least one axis, so the search ends, at the latest, once a cell nears
    the float resolution of the box.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    k = lo.size
    cent = ((lo + hi) / 2.0)[:, None]
    half = ((hi - lo) / 2.0)[:, None]
    # a rounded child centre c -/+ h/2 is off by at most half its float
    # spacing, at most eps B / 2 in a box whose edges are at most B in size;
    # pad = 2 eps B on the child's half-width keeps the two children
    # covering their parent.  A cell within 16 pads of a point barely
    # shrinks when split, so that ends the search as well
    pad = 2.0 * _EPS * float(np.abs(np.concatenate([lo, hi])).max())
    # each split mask's axes and child sides, and its number of children
    sides = [_mask_sides(mask) for mask in range(1 << k)]
    brood = np.array([signs.shape[1] for _, signs in sides])
    best, arg, evals, largest, levels = math.inf, cent[:, 0], 0, 0, 0
    while True:
        least, i, floors, axes = _evaluate(evaluate, cent, half)
        evals += cent.shape[1]
        largest = max(largest, cent.shape[1])
        if least < best:
            best = least
            arg = cent[:, i].copy()
        floor = float(min(floors.min(), best))
        if best - floor <= max(1e-13 * (1.0 + abs(best)), 1e-9 * abs(best)):
            stop = "gap"
            break
        # past the gap test floor < best, so some cell's floor is below best
        idx = (floors < best).nonzero()[0]
        del floors
        axes = axes.take(idx)
        cent = cent.take(idx, axis=1)
        half = half.take(idx, axis=1)
        if half.min() < 16.0 * pad:
            stop = "resolution"
            break
        counts = np.bincount(axes, minlength=1 << k)
        if counts.dot(brood) > _MAX_CELLS:
            stop = "max_cells"
            break
        # the parent level's arrays go as soon as they are split, so that a
        # band's peak memory is one level's cells
        cent, half = _split(cent, half, axes, counts, sides, pad)
        levels += 1

    return _BandResult(floor, best, arg, BandRecord(stop, evals, levels, largest))


def _planar_problem(A: SensingMatrix, p: int, r: float | None):
    """Per-cell evaluator, parameter map, and box for one slice of the problem.

    The objective is sum kappa_i^p |r + <m_i, y>|^p over y on S^2 (on its
    equator over the reals): r=None leaves r free in [0, 1] (L), r=0 is M,
    and r=1 is U, whose objective kappa_i (1 + <m_i, y>) is |<a_i, u>|^2 at
    the unit vector u with coordinates y.  U is a supremum, so it is posed
    as -f for the branch and bound to minimize.  The sphere
    parameterization bounds ||Delta y|| in a cell by h_theta plus
    sin(theta) times h_gamma: the effective widths reported back for the
    split heuristic.

    Every slice gets the centred form of `_centred_evaluator`: of the
    quadratic at p=2, and at p=1 of the linear sum of the terms whose sign
    the cell fixes, since inside a cell each r + <m_i, y> moves by at most
    the cell slack h_r + ||Delta y||.

    Cells are columns, as in `_branch_bound`.  `param(Z)` maps cells Z
    (k, n) to r (a scalar or a row), the sphere points Y as columns (two
    rows over the reals, where the third coordinate is zero, three over
    the complex field) and the rows sin(theta), cos(gamma) and sin(gamma)
    that the centred form uses again (None over the reals).
    """
    kap, M = _bloch_rows(A)
    real = A.field is Field.REAL
    if real:
        M = M[:, :2].copy()
    lo, hi = ([0.0], [2.0 * np.pi]) if real else ([0.0, 0.0], [np.pi, 2.0 * np.pi])
    if r is None:
        lo, hi = [0.0] + lo, [1.0] + hi

    def param(Z):
        rs = Z[0] if r is None else r
        Y = np.empty((M.shape[1], Z.shape[1]))
        if real:
            np.cos(Z[-1], out=Y[0])
            np.sin(Z[-1], out=Y[1])
            return rs, Y, None
        trig = st, cg, sg = np.sin(Z[-2]), np.cos(Z[-1]), np.sin(Z[-1])
        np.cos(Z[-2], out=Y[0])
        np.multiply(cg, st, out=Y[1])
        np.multiply(sg, st, out=Y[2])
        return rs, Y, trig

    def cells(Z, H):
        # param, and the effective widths: h_gamma times the cell's largest
        # |sin(theta)|, at most |sin(theta_c)| + h_theta
        rs, Y, trig = param(Z)
        if real:
            return rs, Y, trig, H
        eff = H.copy()
        s = np.abs(trig[0])
        s += H[-2]
        np.minimum(s, 1.0, out=s)
        eff[-1] *= s
        return rs, Y, trig, eff

    return _centred_evaluator(cells, kap, M, p, r), param, lo, hi


def _centred_evaluator(cells, kap: np.ndarray, M: np.ndarray, p: int, r: float | None):
    """Centred-form evaluator of one slice of the planar problem.

    With w = (r, y), or w = y at r=0, the p=2 objective is w^T G w for the
    moment matrix G = sum kappa_i^2 (1, m_i)(1, m_i)^T, evaluated as
    |R w|^2 with R^T R = G so that it stays >= 0.  At p=1 every term of U
    is >= 0, so U is the linear g . w with g = sum kappa_i (1, m_i).  The
    p=1 L and M terms t_i = r + <m_i, y> have kinks, but inside a cell each
    moves by at most the slack e below, so a term with |t_i(c)| > e keeps
    the sign it has at the centre c.  Those terms sum to the linear g_c . w,
    g_c = sum kappa_i sign(t_i(c)) (1, m_i) over them, which gets the same
    floor as U; a term that can cross zero is bounded below by 0, so it
    gives up its centre value kappa_i |t_i(c)| <= kappa_i e.  U is the case
    where every sign is + and no term crosses.  The partials are
    d_a F = 2 (G w) . d_a w, or g . d_a w.  On a cell with
    half-widths h and sin(theta) at most s, the partials of the sphere map
    have norms 1 (theta) and s (gamma), so |w - w_c| <= e, the sum of the
    effective widths h_r + h_theta + s h_gamma.  The second partials have
    norms 1 (theta theta), |cos(theta)| <= 1 (theta gamma) and s (gamma
    gamma), and w is linear in r, so the curvature of the sphere map
    moves w by at most c = h_theta^2 + 2 h_theta h_gamma + s h_gamma^2
    (h_theta^2 over the reals).  J^T G J is positive semidefinite, so
    Taylor's theorem about the cell centre gives the floor

        F(z_c) - sum_a |d_a F(z_c)| h_a - (|q_c| + lam_max e) c,

    where q = (G w)_y, the part of G w that meets the sphere's curvature,
    moves by at most lam_max e over the cell.  The U ceiling adds the
    dropped J^T G J term, at most lam_max e^2.  At p=1 the curvature term
    is |g_y| c / 2, and on L and M the floor starts from g_c . w_c, the
    centre value less the share of the terms that can cross zero.  This is
    the centred (mean-value) form of interval analysis (Moore, Kearfott &
    Cloud, Introduction to Interval Analysis, SIAM 2009): near a smooth
    optimum the partials vanish, so the gap falls like h^2 where a
    zero-order floor falls like h.  A p=1 L or M optimum sits on a kink,
    where only the 2-3 terms that cross zero there keep an O(h) loss.
    Apart from the p=1 terms, (m, cells), every array it forms is
    (<= 4, cells).
    """
    B = M if r == 0 else np.hstack([np.ones((M.shape[0], 1)), M])
    if p == 2:
        B = B * kap[:, None]
        lam, V = np.linalg.eigh(B.T @ B)
        R = np.sqrt(np.maximum(lam, 0.0))[:, None] * V.T
        Ry = R if r == 0 else R[:, 1:]
        lam_max = float(lam[-1])
    elif r == 1:
        g = kap @ B
        lam_max = 0.0
        bend = 0.5 * float(np.linalg.norm(g[1:]))
    else:
        # the rows kappa_i (1, m_i)_a, one per coordinate a of w
        KB = (B * kap[:, None]).T.copy()

    def evaluate(Z, H):
        rs, Y, trig, eff = cells(Z, H)
        # |w - w_c| <= span over the cell
        span = eff.sum(axis=0)
        if p == 2:
            v = Ry @ Y
            if r != 0:
                v += R[:, :1] * rs
            F = base = np.einsum("kn,kn->n", v, v)
            q = Ry.T @ v
        elif r == 1:
            F = base = g[1:] @ Y + g[0]
            q = g[1:]
            curve = bend
        else:
            # the terms at the centre, and the signs of those that keep one
            # (+-0 for the others); base = g_c . w_c is the centre value of
            # the kept terms.  einsum sums each cell's terms in one order
            # whatever the number of cells, where a BLAS product need not
            T = np.einsum("ia,an->in", M, Y)
            if r is None:
                T += rs
            S = np.abs(T)
            F = np.einsum("i,in->n", kap, S)
            np.copysign(S > span, T, out=S)
            gc = np.einsum("ai,in->an", KB, S)
            q = gc if r == 0 else gc[1:]
            base = np.einsum("an,an->n", q, Y)
            if r is None:
                base += gc[0] * rs
            curve = np.hypot(q[0], q[1]) if trig is None else np.sqrt(np.einsum("an,an->n", q, q))
            curve *= 0.5
        # (d_a F / 2 at p=2, h_a) per box axis: q . d_a y, and (G w)_r for r
        if trig is None:
            parts = [(q[1] * Y[0] - q[0] * Y[1], H[-1])]
        else:
            st, cg, sg = trig
            parts = [(Y[0] * (q[1] * cg + q[2] * sg) - q[0] * st, H[-2]),
                     (q[2] * Y[1] - q[1] * Y[2], H[-1])]
        if r is None:
            parts.append((R[:, 0] @ v if p == 2 else gc[0], H[0]))
        # in place from here on
        for d, h in parts:
            np.abs(d, out=d)
            d *= h
        loss = parts[0][0]
        for d, _ in parts[1:]:
            loss += d
        # |sum_ab d_a d_b y h_a h_b| <= reach over the cell
        if trig is None:
            reach = np.square(H[-1])
        else:
            reach = H[-2] + 2.0 * H[-1]
            reach *= H[-2]
            reach += eff[-1] * H[-1]
        if p == 2:
            loss *= 2.0
            curve = np.sqrt(np.einsum("kn,kn->n", q, q))
            curve += lam_max * span
        reach *= curve
        loss += reach
        if r == 1:
            # the ceiling of F is the floor of -F
            span *= span
            span *= lam_max
            loss += span
            loss += F
            return -F, np.negative(loss, out=loss), eff
        return F, np.subtract(base, loss, out=loss), eff

    return evaluate


def _planar_band(A: SensingMatrix, p: int, r: float | None):
    """Branch and bound over one slice of a planar matrix's problem.

    Returns the band result and the optimal point (r, y), y on S^2.
    """
    if A.d != 2:
        raise ValueError(f"the certified oracle needs d=2 input, got d={A.d}")
    evaluate, param, lo, hi = _planar_problem(A, p, r)
    res = _branch_bound(evaluate, lo, hi)
    rs, Y, _ = param(res.arg[:, None])
    return res, float(np.ravel(rs)[0]), _on_sphere(Y[:, 0])


def grid_lower_l(
    A: SensingMatrix, p: int, constraint: Constraint = Constraint.REAL_INNER
) -> LipschitzEstimate:
    """Certified planar infimum of the lower Lipschitz objective.

    `constraint` picks the feasible set: REAL_INNER for the full L problem,
    ORTHOGONAL for the restricted constant M.  The returned estimate's
    `certified_band` contains the true infimum; `value` is its attained
    upper edge, and the witness pair rebuilt from the optimal parameters is
    cross-checked against a direct objective evaluation before returning.
    """
    if constraint not in (Constraint.REAL_INNER, Constraint.ORTHOGONAL):
        raise ValueError("constraint must be REAL_INNER or ORTHOGONAL")
    p = _check_p(p)
    A, k = _unit_scale(A)
    orthogonal = constraint is Constraint.ORTHOGONAL
    res, r, y = _planar_band(A, p, 0.0 if orthogonal else None)

    u, v = _pair_from_point(r, y, A.field)
    # compared in the p-th power, where rounding near L = 0 stays at eps
    # instead of growing to its square root
    _check_witness(res.best, pair_objective(A, u, v, p) ** p, "planar lower")
    value = res.best ** (1.0 / p)
    witness = UnitPair(A.field, u, v, constraint)
    witness.validate()
    band = (max(res.floor, 0.0) ** (1.0 / p), value)
    kind = EstimateKind.ORTHOGONAL_M if orthogonal else EstimateKind.LOWER_L
    est = LipschitzEstimate(value, kind, p, witness, Method.GRID_ORACLE, band, res.record)
    return _rescaled(est, k)


def grid_upper_u(A: SensingMatrix, p: int) -> LipschitzEstimate:
    """Certified planar supremum of the upper Lipschitz objective.

    Mirrors `grid_lower_l`: the band contains the true supremum, the value
    is the attained lower edge, and the witness is the unit vector rebuilt
    from the optimal sphere parameters.
    """
    p = _check_p(p)
    A, k = _unit_scale(A)
    res, _, w = _planar_band(A, p, 1.0)

    u = _bloch_vector(w, A.field)
    _check_witness(-res.best, upper_objective(A, u, p) ** p, "planar upper")
    value = (-res.best) ** (1.0 / p)
    band = (value, max(-res.floor, 0.0) ** (1.0 / p))
    est = LipschitzEstimate(value, EstimateKind.UPPER_U, p, u, Method.GRID_ORACLE, band, res.record)
    return _rescaled(est, k)


# ---------------------------------------------------------------------------
# trigonometric identity checks
# ---------------------------------------------------------------------------

def check_lagrange_identities(m: int, theta: float) -> float:
    """Largest residual of the partial cosine/sine sums at (m, theta).

    Checks the two closed forms for sum_{j<=m} cos(j theta) and sin(j theta)
    and, where defined, the equispaced zero sums of cos(2j pi/m - 2 theta)
    (m >= 2) and cos(4j pi/m - 4 theta) (m >= 3; at m = 2 that sum is
    identically 2 cos 4theta, not zero).  theta at a multiple of 2 pi sits
    on the pole of the closed forms and is rejected.
    """
    m = int(m)
    if m < 1:
        raise ValueError("m must be positive")
    theta = float(theta)
    if abs(math.remainder(theta, 2.0 * math.pi)) < 1e-9:
        raise ValueError("theta at a multiple of 2*pi is a pole of the identities")
    j = np.arange(1, m + 1)
    half = theta / 2.0
    res = abs(
        float(np.cos(j * theta).sum())
        - (math.sin((2 * m + 1) * half) / (2.0 * math.sin(half)) - 0.5)
    )
    res = max(
        res,
        abs(
            float(np.sin(j * theta).sum())
            - math.sin((m + 1) * half) * math.sin(m * half) / math.sin(half)
        ),
    )
    if m >= 2:
        res = max(res, abs(float(np.cos(2.0 * j * np.pi / m - 2.0 * theta).sum())))
    if m >= 3:
        res = max(res, abs(float(np.cos(4.0 * j * np.pi / m - 4.0 * theta).sum())))
    return res


def k_hat(m: int, phi: float) -> int:
    """Largest shift index admissible in the G_k closed form at (m, phi)."""
    m = int(m)
    if m < 3:
        raise ValueError("m must be at least 3")
    if m % 2 == 0:
        return (m - 2) // 2
    return (m - 1) // 2 if phi <= math.pi / (2 * m) else (m - 3) // 2


def check_gk_closed_form(m: int, k: int, theta: float, phi: float) -> float:
    """Residual between the absolute angle sum G_k and its closed form.

    G_k(theta, phi) = sum_{j<=m} |cos(j pi/m - theta) sin(j pi/m - phi - k pi/m)|
    admits exact piecewise-trigonometric expressions on the regime
    theta, phi in [0, pi/m], 0 <= k <= k_hat(m, phi); even m has one branch
    and odd m splits at theta = pi/2m.  Out-of-regime input is rejected
    because the expressions genuinely stop holding there.
    """
    m, k = int(m), int(k)
    theta, phi = float(theta), float(phi)
    if m < 3:
        raise ValueError("m must be at least 3")
    eps = 1e-12
    if not (-eps <= theta <= math.pi / m + eps and -eps <= phi <= math.pi / m + eps):
        raise ValueError("theta and phi must lie in [0, pi/m]")
    if not (0 <= k <= k_hat(m, phi)):
        raise ValueError(f"k={k} outside the admissible range at this (m, phi)")

    return float(_gk_residuals(m, np.array([theta]), np.array([phi]), np.array([k]))[0])


def _gk_residuals(m: int, theta: np.ndarray, phi: np.ndarray, k: np.ndarray) -> np.ndarray:
    """|G_k - closed form| at each admissible (theta, phi, k) triple for one m."""
    jp = np.arange(1, m + 1) * np.pi / m
    kp = k * math.pi / m
    direct = np.abs(
        np.cos(jp[None, :] - theta[:, None]) * np.sin(jp[None, :] - phi[:, None] - kp[:, None])
    ).sum(axis=1)
    s = math.sin(math.pi / m)
    sine = np.sin(phi - theta + kp)
    if m % 2 == 0:
        closed = np.cos(kp) * np.cos(math.pi / m - theta - phi) / s + k * sine
    else:
        h = math.pi / (2 * m)
        closed = np.where(
            theta <= h,
            np.cos(h + kp) * np.cos(h - theta - phi) / s + (2 * k + 1) / 2.0 * sine,
            np.cos(h - kp) * np.cos(3.0 * math.pi / (2 * m) - theta - phi) / s
            + (2 * k - 1) / 2.0 * sine,
        )
    return np.abs(direct - closed)


def check_g_min_at_one(A: SensingMatrix, x: np.ndarray, y: np.ndarray, t_grid) -> bool:
    """Whether g(t) = sum_j (alpha_j t - gamma_j)^2 / (t+1)^2 dips below g(1).

    alpha and gamma are the intensities of A at the orthonormal pair (x, y).
    The hypothesis that A is a tight 4-frame is enforced up front (violating
    it is a precondition error, not a False): for such frames the minimum
    over t >= 0 sits exactly at t = 1.
    """
    return _g_min_at_one(A, x, y, t_grid)[0]


def _g_min_at_one(A: SensingMatrix, x: np.ndarray, y: np.ndarray, t_grid):
    """The verdict of `check_g_min_at_one`, and g itself."""
    check = is_tight_4_frame(A)
    if not check.is_tight:
        raise ValueError(f"matrix is not a tight 4-frame (residual {check.residual:.3g})")
    x = np.asarray(x)
    y = np.asarray(y)
    if abs(np.linalg.norm(x) - 1) > 1e-10 or abs(np.linalg.norm(y) - 1) > 1e-10:
        raise ValueError("x and y must be unit vectors")
    if abs(np.vdot(x, y)) > 1e-10:
        raise ValueError("x and y must be orthogonal")

    alpha = np.abs(A.array @ x) ** 2
    gamma = np.abs(A.array @ y) ** 2

    def g(t: float) -> float:
        return float(((alpha * t - gamma) ** 2).sum() / (t + 1.0) ** 2)

    g1 = g(1.0)
    ts = [float(t) for t in t_grid]
    return all(g1 <= g(t) + 1e-12 for t in ts if t >= 0), g


def check_sub_tan(phis, t_squares) -> SubTanCheck:
    """Minimize sum t_i^2 |sin(theta - phi_i)| and compare to the tan bound.

    Between consecutive kink angles the objective is a single nonnegative
    sinusoid arc, hence concave there, so the global minimum is always
    attained at one of the kinks theta = phi_i.  Evaluating the kink set is
    therefore exact.
    """
    phis = np.asarray(list(phis), dtype=np.float64)
    ts = np.asarray(list(t_squares), dtype=np.float64)
    if phis.size != ts.size:
        raise ValueError("phis and t_squares must have the same length")
    if phis.size == 0:
        raise ValueError("need at least one angle")
    if np.any(ts < 0):
        raise ValueError("squared weights must be nonnegative")

    best = float(_weighted_sine(phis[None], phis[None], ts[None]).min())
    bound = closedform.sub_tan_bound(ts)
    return SubTanCheck(best, bound, bool(best <= bound + 1e-10))


def _weighted_sine(theta: np.ndarray, phis: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """sum_i t_i^2 |sin(theta - phi_i)| row by row: (n, c) from (n, c), (n, m), (n, m)."""
    return (ts[:, None, :] * np.abs(np.sin(theta[:, :, None] - phis[:, None, :]))).sum(axis=2)


def mc_expectation(
    field: Field, theta: float, samples: int, rng: RngSpec | np.random.Generator
) -> McEstimate:
    """Monte-Carlo estimate of E |Re(conj(<a,u>) <a,v>)| at angle theta.

    Uses the canonical planar pair u = e1, v = (cos theta, sin theta) and the
    rows of `sample_gaussian(field, samples, 2, rng)` as the Gaussian vectors
    a, one per sample; reports the sample mean and its standard error for
    comparison with the closed expectation curves.
    """
    return _mc_estimates(field, (theta,), samples, rng)[0]


# Rows per product conj(a_0) a_1 of the complex draw, so that no complex
# column of it is copied whole.
_MC_ROWS = 1 << 16


def _mc_estimates(
    field: Field, thetas, samples: int, rng: RngSpec | np.random.Generator
) -> list[McEstimate]:
    """`mc_expectation` at each angle in thetas, all from one Gaussian draw.

    Reusing one sample at every angle is the method of common random
    numbers (Glasserman, Monte Carlo Methods in Financial Engineering, 2003,
    sec. 4.2).  The draw reads rng exactly as `sample_gaussian` does.  The
    angle-free terms are formed once (a_0 and a_1 over the reals, |a_0|^2
    and Re(a_0 conj(a_1)) over the complex field, the latter _MC_ROWS rows
    at a time), and the complex draw is freed before the angle loop, so
    the complex field holds at most the draw and two real columns.  Each
    angle repeats the one-angle arithmetic operation for operation, so
    every estimate is bit-identical to a draw of its own from the same
    generator state.
    """
    samples = int(samples)
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    thetas = [float(t) for t in thetas]
    if not all(math.isfinite(t) for t in thetas):
        raise ValueError("theta must be finite")
    # the stored rows are conj(a_j)
    z = _gaussian_array(field, samples, 2, _as_generator(rng))
    if field is Field.REAL:
        first, second = z[:, 0], z[:, 1]
    else:
        first = np.abs(z[:, 0])
        first **= 2
        second = np.empty(samples)
        for start in range(0, samples, _MC_ROWS):
            rows = slice(start, start + _MC_ROWS)
            a0 = np.conj(z[rows, 0])
            a0 *= z[rows, 1]
            second[rows] = a0.real
        del z
    vals = np.empty(samples)
    term = np.empty(samples)
    out = []
    for theta in thetas:
        ct, st = math.cos(theta), math.sin(theta)
        np.multiply(first, ct, out=vals)
        np.multiply(second, st, out=term)
        vals += term
        if field is Field.REAL:
            vals *= first
        np.abs(vals, out=vals)
        out.append(McEstimate(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))))
    return out


# ---------------------------------------------------------------------------
# bundled verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_residual: float
    threshold: float
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    suites: tuple[SuiteResult, ...]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)


def _metric_suite(rng: np.random.Generator, pairs: int) -> SuiteResult:
    worst = 0.0
    per_d = max(1, pairs // (2 * 5))
    for field in (Field.REAL, Field.COMPLEX):
        for d in range(2, 7):
            # one draw per block reads the stream in the pair-by-pair order:
            # x then y, each as real part then imaginary part
            if field is Field.REAL:
                z = rng.standard_normal((per_d, 2, d))
                X, Y = z[:, 0], z[:, 1]
            else:
                z = rng.standard_normal((per_d, 4, d))
                X, Y = z[:, 0] + 1j * z[:, 1], z[:, 2] + 1j * z[:, 3]
            s, product, eigen = _metric_routes(X, Y)
            worst = max(worst, float((np.abs(product - eigen) / s).max()))
    return SuiteResult(
        "metric-identity", worst, 1e-10, worst <= 1e-10,
        f"product vs eigen route, {2 * 5 * per_d} pairs, d 2..6, both fields",
    )


def _lagrange_suite(rng: np.random.Generator, draws: int) -> SuiteResult:
    worst = 0.0
    for _ in range(draws):
        m = int(rng.integers(1, 65))
        theta = float(rng.uniform(0.02, 2.0 * math.pi - 0.02))
        worst = max(worst, check_lagrange_identities(m, theta))
    return SuiteResult(
        "lagrange-sums", worst, 1e-10, worst <= 1e-10,
        f"partial and equispaced sums, {draws} random (m <= 64, theta)",
    )


def _gk_suite(grid_points: int) -> SuiteResult:
    worst = 0.0
    count = 0
    for m in range(3, 17):
        axis = np.linspace(0.0, math.pi / m, grid_points)
        k_top = np.array([k_hat(m, phi) for phi in axis])
        theta, phi, k = np.meshgrid(axis, axis, np.arange((m - 1) // 2 + 1), indexing="ij")
        keep = k <= k_top[None, :, None]
        res = _gk_residuals(m, theta[keep], phi[keep], k[keep])
        worst = max(worst, float(np.max(res, initial=0.0)))
        count += res.size
    return SuiteResult(
        "gk-closed-form", worst, 1e-10, worst <= 1e-10,
        f"full admissible sweep m 3..16, {count} evaluations",
    )


def _gmin_suite(rng: np.random.Generator, instances: int) -> SuiteResult:
    worst_fd = 0.0
    all_min = True
    t_grid = np.concatenate([np.linspace(0.0, 5.0, 51), [0.25, 0.5, 2.0, 4.0]])
    h = 1e-4
    for _ in range(instances):
        m = int(rng.integers(3, 13))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        Q = np.array(
            [[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]]
        )
        A = SensingMatrix(Field.REAL, harmonic_frame(m).array @ Q)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        x = np.array([math.cos(phase), math.sin(phase)])
        y = np.array([-math.sin(phase), math.cos(phase)])
        at_one, g = _g_min_at_one(A, x, y, t_grid)
        all_min = all_min and at_one
        worst_fd = max(worst_fd, abs(g(1.0 + h) - g(1.0 - h)) / (2.0 * h))
    return SuiteResult(
        "g-min-at-one", worst_fd, 1e-8, all_min and worst_fd <= 1e-8,
        f"{instances} rotated tight-frame instances, grid and derivative checks",
    )


def _subtan_suite(rng: np.random.Generator, instances: int) -> SuiteResult:
    by_m: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for _ in range(instances):
        m = int(rng.integers(1, 33))
        phis = np.sort(rng.uniform(0.0, math.pi, m))
        ts = rng.uniform(0.0, 1.0, m)
        by_m.setdefault(m, []).append((phis, ts))
    worst_excess = -math.inf
    all_hold = True
    for draws in by_m.values():
        phis, ts = (np.array(a) for a in zip(*draws))
        best = _weighted_sine(phis, phis, ts).min(axis=1)
        bound = closedform._sub_tan_bounds(ts)
        all_hold = all_hold and bool(np.all(best <= bound + 1e-10))
        worst_excess = max(worst_excess, float((best - bound).max()))
    return SuiteResult(
        "sub-tan", max(worst_excess, 0.0), 1e-10, all_hold,
        f"{instances} random weighted instances, m <= 32",
    )


_MC_ANGLES = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)


def _mc_suite(rng: np.random.Generator, samples: int) -> SuiteResult:
    worst_z = 0.0
    for field in (Field.REAL, Field.COMPLEX):
        for theta, got in zip(_MC_ANGLES, _mc_estimates(field, _MC_ANGLES, samples, rng)):
            want = closedform.gaussian_abs_expectation(field, theta)
            worst_z = max(worst_z, abs(got.estimate - want) / got.stderr)
    return SuiteResult(
        "expectation-curves", worst_z, 4.0, worst_z <= 4.0,
        f"Monte-Carlo z-scores vs closed curves, {samples} samples per field,"
        f" one draw serves all {len(_MC_ANGLES)} angles",
    )


def verify_all() -> VerificationReport:
    """Run every identity and consistency suite and collect one report.

    The budgets are the documented acceptance scale, and a fixed seed keeps
    the outcome reproducible run to run.  The expectation curves are
    checked at five angles per field, and one draw of a million Gaussian
    vectors per field serves all five.
    """
    g = RngSpec(20240817, 0).generator()
    suites = (
        _metric_suite(g, 10_000),
        _lagrange_suite(g, 1_000),
        _gk_suite(32),
        _gmin_suite(g, 100),
        _subtan_suite(g, 10_000),
        _mc_suite(g, 1_000_000),
    )
    return VerificationReport(suites)
