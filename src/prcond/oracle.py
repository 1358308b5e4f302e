"""Certified planar optima and numerical verification of every identity.

Planar oracle.  At d=2 the Lipschitz optimization collapses to a small
number of real parameters: in the coordinates of `planar`, a feasible pair
is a point (r, y) of [0, 1] x S^2, and all three constants are slices of
the one objective sum kappa_i^p |r + <m_i, y>|^p.  Its infimum with r free
is L^p, its infimum at r = 0 is M^p, and its supremum at r = 1 is U^p,
because |<a_i, u>|^2 = kappa_i (1 + <m_i, y>) for the unit vector u with
coordinates y.  Searching these boxes IS the planar optimum, not a
relaxation of it.  A branch-and-bound over them with per-axis Lipschitz
constants yields an interval certified to contain the true optimum, plus
a witness vector or pair rebuilt from the optimal parameters.

Identity suite.  The remaining functions check, numerically and over wide
sweeps, the trigonometric partial-sum identities, the closed form of the
absolute angle sums G_k, the t=1 minimization property of tight 4-frames,
the weighted-sine tangent bound, and the Gaussian expectation curves.
`verify_all` bundles them into one report the CLI can print.
"""

from __future__ import annotations

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
    _metric_routes,
    sample_gaussian,
)
from .lipschitz import (
    EstimateKind,
    LipschitzEstimate,
    Method,
    _rescaled,
    _unit_scale,
    is_tight_4_frame,
    pair_objective,
    upper_objective,
)
from .planar import _bloch_rows, _bloch_vector, _check_witness, _pair_from_point

__all__ = [
    "GridSpec",
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
class GridSpec:
    """Search-effort contract for the certified planar oracle.

    `resolution` is the point budget per angle axis of the initial sweep
    (split across axes in higher-dimensional parameterizations);
    `refine_rounds` and `refine_zoom` set how far subdivision is allowed to
    shrink cells, as rounds of zooming by the given factor; `max_cells`
    caps the live frontier so degenerate flat valleys terminate with an
    honestly wider band instead of running forever.
    """

    resolution: int = 2048
    refine_rounds: int = 3
    refine_zoom: float = 0.05
    max_cells: int = 200_000

    def __post_init__(self) -> None:
        if self.resolution < 16:
            raise ValueError("resolution must be at least 16")
        if not (0.0 < self.refine_zoom < 1.0):
            raise ValueError("refine_zoom must lie in (0, 1)")
        if self.refine_rounds < 1 or self.max_cells < 64:
            raise ValueError("refine_rounds and max_cells must be positive")

    def axis_points(self, ndim: int) -> int:
        if ndim <= 1:
            return self.resolution
        return max(16, 2 * math.ceil(self.resolution ** (1.0 / ndim)))

    def max_levels(self, ndim: int) -> int:
        return math.ceil(ndim * self.refine_rounds * math.log2(1.0 / self.refine_zoom))


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
    evaluations: int


def _branch_bound(evaluate, lo, hi, spec: GridSpec) -> _BandResult:
    """Certified minimum band for a box-constrained objective.

    `evaluate(cent, half)` maps n cells (centers and half-widths, both
    (n, k)) to `(vals, floors, eff)`: center values, certified per-cell
    lower bounds, and effective per-axis widths that steer the split
    choice.  Returns floor <= min F <= best, where best is attained at
    `arg`.  A cell is dropped once its floor cannot beat the incumbent;
    dropped cells stay above the final incumbent, so the reported floor
    bounds the global minimum over the whole box.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    k = lo.size

    npts = spec.axis_points(k)
    axes = [lo[j] + (hi[j] - lo[j]) * (np.arange(npts) + 0.5) / npts for j in range(k)]
    mesh = np.meshgrid(*axes, indexing="ij")
    cent = np.stack([g.ravel() for g in mesh], axis=1)
    half = np.broadcast_to((hi - lo) / (2.0 * npts), cent.shape).copy()

    vals, floors, eff = evaluate(cent, half)
    evals = cent.shape[0]
    i = int(np.argmin(vals))
    best = float(vals[i])
    arg = cent[i].copy()
    floor = float(min(floors.min(), best))

    for _level in range(spec.max_levels(k)):
        if best - floor <= max(1e-13 * (1.0 + abs(best)), 1e-9 * abs(best)):
            break
        keep = floors < best
        if not keep.any():
            floor = best
            break
        if int(keep.sum()) * 2 > spec.max_cells:
            break
        cent, half, eff = cent[keep], half[keep], eff[keep]
        widest = np.argmax(eff, axis=1)
        offset = np.zeros_like(half)
        rows = np.arange(cent.shape[0])
        offset[rows, widest] = half[rows, widest] / 2.0
        half[rows, widest] /= 2.0
        cent = np.concatenate([cent - offset, cent + offset], axis=0)
        half = np.concatenate([half, half], axis=0)
        vals, floors, eff = evaluate(cent, half)
        evals += cent.shape[0]
        i = int(np.argmin(vals))
        if float(vals[i]) < best:
            best = float(vals[i])
            arg = cent[i].copy()
        floor = float(min(floors.min(), best))

    return _BandResult(floor, best, arg, evals)


def _planar_problem(A: SensingMatrix, p: int, r: float | None):
    """Per-cell evaluator, parameter map, and box for one slice of the problem.

    The objective is sum kappa_i^p |r + <m_i, y>|^p over y on S^2 (on its
    equator over the reals): r=None leaves r free in [0, 1] (L), r=0 is M,
    and r=1 is U, whose objective kappa_i (1 + <m_i, y>) is |<a_i, u>|^2 at
    the unit vector u with coordinates y.  U is a supremum, so it is posed
    as -f for the branch and bound to minimize.  The floor uses interval
    arithmetic per measurement: inside a cell, each |r + <m_i, y>| moves by
    at most the cell slack h_r + ||Delta y||, and the sphere
    parameterization bounds ||Delta y|| by h_theta plus sin(theta) times
    h_gamma (the effective widths reported back for the split heuristic).
    For U the per-cell ceiling, capped at 2, gives the floor of -f.
    """
    kap, M = _bloch_rows(A)
    kp = kap ** p
    real = A.field is Field.REAL
    lo, hi = ([0.0], [2.0 * np.pi]) if real else ([0.0, 0.0], [np.pi, 2.0 * np.pi])
    if r is None:
        lo, hi = [0.0] + lo, [1.0] + hi

    def param(Z):
        rs = Z[:, 0] if r is None else np.full(Z.shape[0], float(r))
        if real:
            xi = Z[:, -1]
            Y = np.stack([np.cos(xi), np.sin(xi), np.zeros_like(xi)], axis=1)
        else:
            th, ga = Z[:, -2], Z[:, -1]
            st = np.sin(th)
            Y = np.stack([np.cos(th), st * np.cos(ga), st * np.sin(ga)], axis=1)
        return rs, Y

    def evaluate(Z, H):
        rs, Y = param(Z)
        eff = H.copy()
        if not real:
            st = np.abs(np.sin(Z[:, -2]))
            eff[:, -1] = H[:, -1] * np.minimum(1.0, st + H[:, -2])
        slack = eff.sum(axis=1)[:, None]
        # each term |r + <m_i, y>|, then its bound over the cell, in place: at
        # the largest frontiers every (cells, m) array is tens of MB
        t = Y @ M.T
        t += rs[:, None]
        np.abs(t, out=t)
        vals = (kp * t ** p).sum(axis=1)
        if r == 1:
            t += slack
            np.minimum(t, 2.0, out=t)
            return -vals, -(kp * t ** p).sum(axis=1), eff
        t -= slack
        np.maximum(t, 0.0, out=t)
        return vals, (kp * t ** p).sum(axis=1), eff

    return evaluate, param, lo, hi


def _planar_band(A: SensingMatrix, p: int, r: float | None, grid: GridSpec | None):
    """Branch and bound over one slice of a planar matrix's problem.

    Returns the band result and the optimal point (r, y).
    """
    if A.d != 2:
        raise ValueError(f"the grid oracle parameterization needs d=2, got d={A.d}")
    evaluate, param, lo, hi = _planar_problem(A, p, r)
    res = _branch_bound(evaluate, lo, hi, grid or GridSpec())
    rs, Y = param(res.arg[None, :])
    return res, float(rs[0]), Y[0]


def grid_lower_l(
    A: SensingMatrix,
    p: int,
    constraint: Constraint = Constraint.REAL_INNER,
    grid: GridSpec | None = None,
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
    res, r, y = _planar_band(A, p, 0.0 if orthogonal else None, grid)

    u, v = _pair_from_point(r, y, A.field)
    value = res.best ** (1.0 / p)
    _check_witness(value, pair_objective(A, u, v, p), "planar lower")
    witness = UnitPair(A.field, u, v, constraint)
    witness.validate()
    band = (max(res.floor, 0.0) ** (1.0 / p), value)
    kind = EstimateKind.ORTHOGONAL_M if orthogonal else EstimateKind.LOWER_L
    return _rescaled(LipschitzEstimate(value, kind, p, witness, Method.GRID_ORACLE, band), k)


def grid_upper_u(A: SensingMatrix, p: int, grid: GridSpec | None = None) -> LipschitzEstimate:
    """Certified planar supremum of the upper Lipschitz objective.

    Mirrors `grid_lower_l`: the band contains the true supremum, the value
    is the attained lower edge, and the witness is the unit vector rebuilt
    from the optimal sphere parameters.
    """
    p = _check_p(p)
    A, k = _unit_scale(A)
    res, _, w = _planar_band(A, p, 1.0, grid)

    u = _bloch_vector(w, A.field)
    value = (-res.best) ** (1.0 / p)
    _check_witness(value, upper_objective(A, u, p), "planar upper")
    band = (value, max(-res.floor, 0.0) ** (1.0 / p))
    return _rescaled(LipschitzEstimate(value, EstimateKind.UPPER_U, p, u, Method.GRID_ORACLE, band), k)


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
    _require_tight_4_frame(A)
    return _g_min_at_one(A, x, y, t_grid)[0]


def _require_tight_4_frame(A: SensingMatrix) -> None:
    check = is_tight_4_frame(A, samples=400, tol=1e-6)
    if not check.is_tight:
        raise ValueError(
            f"matrix is not a tight 4-frame (fourth moment spread "
            f"[{check.low:.6g}, {check.high:.6g}])"
        )


def _g_min_at_one(A: SensingMatrix, x: np.ndarray, y: np.ndarray, t_grid):
    """The verdict of `check_g_min_at_one` without the frame probe, and g itself."""
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


def check_sub_tan(phis, t_squares, grid: GridSpec | None = None) -> SubTanCheck:
    """Minimize sum t_i^2 |sin(theta - phi_i)| and compare to the tan bound.

    Between consecutive kink angles the objective is a single nonnegative
    sinusoid arc, hence concave there, so the global minimum is always
    attained at one of the kinks theta = phi_i.  Evaluating the kink set is
    therefore exact; a `grid` only adds redundant candidate points.
    """
    phis = np.asarray(list(phis), dtype=np.float64)
    ts = np.asarray(list(t_squares), dtype=np.float64)
    if phis.size != ts.size:
        raise ValueError("phis and t_squares must have the same length")
    if phis.size == 0:
        raise ValueError("need at least one angle")
    if np.any(ts < 0):
        raise ValueError("squared weights must be nonnegative")

    cand = phis
    if grid is not None:
        cand = np.concatenate(
            [cand, np.linspace(0.0, np.pi, grid.resolution, endpoint=False)]
        )
    best = float(_weighted_sine(cand[None], phis[None], ts[None]).min())
    bound = closedform.sub_tan_bound(ts)
    return SubTanCheck(best, bound, bool(best <= bound + 1e-10))


def _weighted_sine(theta: np.ndarray, phis: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """sum_i t_i^2 |sin(theta - phi_i)| row by row: (n, c) from (n, c), (n, m), (n, m)."""
    return (ts[:, None, :] * np.abs(np.sin(theta[:, :, None] - phis[:, None, :]))).sum(axis=2)


def mc_expectation(
    field: Field, theta: float, samples: int, rng: RngSpec | np.random.Generator
) -> McEstimate:
    """Monte-Carlo estimate of E |Re(conj(<a,u>) <a,v>)| at angle theta.

    Uses the canonical planar pair u = e1, v = (cos theta, sin theta) and a
    single Gaussian vector a per sample; reports the sample mean and its
    standard error for comparison with the closed expectation curves.
    """
    samples = int(samples)
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    A = sample_gaussian(field, samples, 2, rng)
    a = A.vectors
    ct, st = math.cos(float(theta)), math.sin(float(theta))
    if field is Field.REAL:
        vals = np.abs(a[:, 0] * (a[:, 0] * ct + a[:, 1] * st))
    else:
        vals = np.abs((np.abs(a[:, 0]) ** 2) * ct + (a[:, 0] * np.conj(a[:, 1])).real * st)
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples))
    return McEstimate(est, stderr)


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
    from .core import harmonic_frame

    worst_fd = 0.0
    all_min = True
    t_grid = np.concatenate([np.linspace(0.0, 5.0, 51), [0.25, 0.5, 2.0, 4.0]])
    h = 1e-4
    tight: set[int] = set()
    for _ in range(instances):
        m = int(rng.integers(3, 13))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        Q = np.array(
            [[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]]
        )
        A = SensingMatrix(Field.REAL, harmonic_frame(m).array @ Q)
        # a rotation keeps a tight frame tight, so one probe per m covers
        # every instance of that m
        if m not in tight:
            _require_tight_4_frame(A)
            tight.add(m)
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


def _mc_suite(rng: np.random.Generator, samples: int) -> SuiteResult:
    worst_z = 0.0
    for field in (Field.REAL, Field.COMPLEX):
        for theta in (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2):
            got = mc_expectation(field, theta, samples, rng)
            want = closedform.gaussian_abs_expectation(field, theta)
            worst_z = max(worst_z, abs(got.estimate - want) / got.stderr)
    return SuiteResult(
        "expectation-curves", worst_z, 4.0, worst_z <= 4.0,
        f"Monte-Carlo z-scores vs closed curves, {samples} samples per point",
    )


def verify_all(
    rng: RngSpec | None = None,
    metric_pairs: int = 10_000,
    lagrange_draws: int = 1_000,
    gk_grid_points: int = 32,
    gmin_instances: int = 100,
    subtan_instances: int = 10_000,
    mc_samples: int = 1_000_000,
) -> VerificationReport:
    """Run every identity and consistency suite and collect one report.

    The default budgets match the documented acceptance scale; they can be
    shrunk for a quick smoke pass.  A fixed default seed keeps the outcome
    reproducible run to run.
    """
    g = (rng or RngSpec(20240817, 0)).generator()
    suites = (
        _metric_suite(g, metric_pairs),
        _lagrange_suite(g, lagrange_draws),
        _gk_suite(gk_grid_points),
        _gmin_suite(g, gmin_instances),
        _subtan_suite(g, subtan_instances),
        _mc_suite(g, mc_samples),
    )
    return VerificationReport(suites)
