"""Optimal Lipschitz constants of the intensity map.

The three quantities of interest for a sensing matrix A and p in {1, 2} are

    U = sup  ( sum_j |<a_j, u>|^(2p) )^(1/p)        over unit u,
    L = inf  ( sum_j |Re(conj(<a_j,u>) <a_j,v>)|^p )^(1/p)
                                    over unit u, v with <u, v> real,
    M = the same infimum restricted to <u, v> = 0,

and the condition number beta = U / L.  Two cases are solved exactly
(method ClosedForm): U at p=1 is the largest eigenvalue of A*A, and on
planar matrices (d=2) every constant comes from the planar coordinates of
`planar`, by small eigenvalue problems at p=2 and by enumerating the
vertices of a piecewise-linear objective for L and M at p=1.  Everything
else is nonconvex and runs batched multi-start searches: the power
iteration of the fourth moment for U at p=2, and one pair search on the
constraint manifold for L and M at both p.  Neither depends on an
iteration budget.  A pair is a row of packed real coordinates, the
constraints besides |u| = |v| = 1 are written once
(`_bilinear_constraints`), and one retraction and one set of random starts
serve both p.  The search is Riemannian Newton with the exact Hessian from
three points per start (the start, its image under alternating exact
eigen-steps, and the start after a few Armijo descent steps), on
sum_j c_j^2 at p=2 and at p=1 on the smoothed sum_j sqrt(c_j^2 + delta^2),
whose width delta each run drives down by continuation.  The descent steps
and the Newton steps take one line search (`_line_search`), which halves a
step until it decreases f, measured from the images of the start and of
the step.  Its runs stop on tests of convergence under fixed safety caps,
and each estimate carries a `ConvergenceRecord`.

Multi-start cannot certify global optimality for d > 2; estimates say so
through their `method` tag.  On planar matrices the grid oracle in `oracle`
gives an independent check, a certified band.  Every solve runs on the
matrix rescaled by a power of two into unit size (`_unit_scale`), so the
results do not depend on the matrix's scale.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import planar
from .closedform import _check_p, universal_lower_bound
from .core import (
    GENERATOR_NAME,
    Constraint,
    Field,
    RngSpec,
    SensingMatrix,
    UnitPair,
    _interleaved,
    sample_unit,
)

__all__ = [
    "EstimateKind",
    "Method",
    "LipschitzEstimate",
    "ConvergenceRecord",
    "PowerRecord",
    "BandRecord",
    "OptimizerConfig",
    "ConditionReport",
    "TightFrameCheck",
    "pair_objective",
    "upper_objective",
    "upper_lipschitz",
    "lower_lipschitz",
    "orthogonal_lower_bound",
    "condition_number",
    "is_tight_4_frame",
    "estimate_to_json_dict",
    "NO_PHASE_RETRIEVAL_FLAG",
]

NO_PHASE_RETRIEVAL_FLAG = "NoPhaseRetrievalSuspected"

ZERO_CLAMP = 1e-12
BETA_THRESHOLD = 1e-8


class EstimateKind(enum.Enum):
    LOWER_L = "LowerL"
    UPPER_U = "UpperU"
    ORTHOGONAL_M = "OrthogonalM"


class Method(enum.Enum):
    MULTI_START_LOCAL = "MultiStartLocal"
    GRID_ORACLE = "GridOracle"
    CLOSED_FORM = "ClosedForm"


@dataclass(frozen=True)
class ConvergenceRecord:
    """How the pair search for L or M at d >= 3 ended, for its best run.

    The search runs Newton from three points per start (see
    `lower_lipschitz`).  At p=2 a run is one Newton pass on f = sum_j c_j^2
    (L^2 or M^2).  At p=1 it is a sequence of passes on the smoothed
    sum_j sqrt(c_j^2 + delta^2) with a shrinking width delta, and the fields
    below describe the best run's last pass, at its final width.  `stop` is
    "gradient" when that pass ended on its gradient test and "cap" when a
    safety cap ended it: the pass's step cap or, at p=1, the cap on
    passes.  `iterations` counts the Newton steps of the pass.
    `gradient_norm` is its final tangent gradient norm and
    `min_hessian_eigenvalue` the least eigenvalue of the Riemannian Hessian
    there, without the directions along which the objective is constant
    over the complex field (see `_normal_frame`): at a local minimum of a
    smooth objective the norm is near zero and the eigenvalue is not
    negative.  Both are of the pass's objective on the matrix rescaled into
    unit size (see `_unit_scale`).  `runs_at_best` counts the runs whose
    objective f (sum_j c_j^2 at p=2, sum_j |c_j| at p=1) ended at most
    1e-9 (1 + f_best) above the best, so runs that all reach f = 0 up to
    rounding are all counted.
    """

    stop: str
    iterations: int
    gradient_norm: float
    min_hessian_eigenvalue: float
    runs_at_best: int


@dataclass(frozen=True)
class PowerRecord:
    """How the power iteration for U at p=2 and d >= 3 ended, for its best start.

    `stop` is "no rise" when the best start stopped at the first step that
    did not raise f = sum_j |<a_j, u>|^4 and "cap" when the safety cap on
    steps ended it.  `iterations` counts the steps that start kept, the
    ones that raised f.  `starts_at_best` counts the starts whose f ended at
    most 1e-9 (1 + f_best) below the best, the random and the row starts
    together (see `_ascend_fourth_moment`).
    """

    stop: str
    iterations: int
    starts_at_best: int


@dataclass(frozen=True)
class BandRecord:
    """How the certified planar branch and bound of `oracle` ended.

    `stop` is "gap" when the band closed to its relative gap (a frontier
    with no floor below the incumbent has a gap of 0), "level cap" when
    the search used all `oracle._MAX_LEVELS` levels or reached the float
    resolution of a cell's centre, and "max_cells" when splitting the
    frontier would have passed `oracle._MAX_CELLS`; the last two mean the
    search budget, not the gap, set the band's width.
    `evaluations` counts the cells evaluated, the whole box, where the
    search starts, included; `levels` counts the subdivision levels after
    it, and `largest_frontier` the most cells evaluated at once.
    """

    stop: str
    evaluations: int
    levels: int
    largest_frontier: int


@dataclass(frozen=True)
class LipschitzEstimate:
    """One computed constant with its witness and provenance.

    `witness` is a UnitPair for the two infima and a single unit vector for
    the supremum.  `certified_band`, set only by the grid oracle in `oracle`,
    is an interval guaranteed to contain the true optimum.  `convergence`
    says how the number was reached: a `ConvergenceRecord` on the searched
    L and M (d >= 3), a `PowerRecord` on the searched U (p=2, d >= 3), a
    `BandRecord` on the grid oracle's estimates, None elsewhere.  It is
    left out of `estimate_to_json_dict`.
    """

    value: float
    kind: EstimateKind
    p: int
    witness: "UnitPair | np.ndarray"
    method: Method
    certified_band: tuple[float, float] | None = None
    convergence: ConvergenceRecord | PowerRecord | BandRecord | None = None


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of the multi-start searches: five fields, three of them inert.

    `starts` is the number of random starts and `rng` pins them.  Both
    searches stop on their own tests, under fixed safety caps: the power
    iteration for U at p=2 when a step no longer raises its objective, and
    the pair search for L and M on gradient tests.  `max_iters`,
    `subgradient_iters` and `polish` have no effect: the Armijo ascent, the
    p=1 subgradient descent and the simplex polish they set are gone.  The
    fields stay only because the benchmark's workloads build configs with
    `max_iters` and `subgradient_iters` and its tracer reads and replaces
    `polish`; no JSON reports them.  The search settings are module
    constants.  At d=2 every constant is solved exactly and no search
    setting applies.
    """

    starts: int = 64
    max_iters: int = 500
    subgradient_iters: int = 5000
    polish: bool = True
    rng: RngSpec = RngSpec(20240817, 0)

    def __post_init__(self) -> None:
        if self.starts < 1:
            raise ValueError("starts must be at least 1")
        if self.max_iters < 1 or self.subgradient_iters < 1:
            raise ValueError("iteration budgets must be positive")


@dataclass(frozen=True)
class TightFrameCheck:
    """Outcome of the exact test whether sum_j |<a_j, x>|^4 is constant on the sphere.

    `mean` is the exact average of the quartic over the unit sphere, and
    `residual` the relative Frobenius distance between the frame's
    fourth-moment matrix and `mean` times that of |x|^4 (see
    `is_tight_4_frame`).  The frame is tight when the residual is below
    the test's tolerance.
    """

    is_tight: bool
    mean: float
    residual: float


@dataclass(frozen=True)
class ConditionReport:
    """L, U, beta for one (A, p), with the matching universal floor."""

    p: int
    field: Field
    m: int
    d: int
    L: float
    U: float
    beta: float
    theoretical_lower_bound: float
    flags: tuple[str, ...]
    lower: LipschitzEstimate
    upper: LipschitzEstimate
    config: OptimizerConfig

    def to_json_dict(self) -> dict:
        """Deterministic JSON-ready mapping (no wall-clock, stable order)."""
        return {
            "p": self.p,
            "field": self.field.value,
            "m": self.m,
            "d": self.d,
            "L": float(self.L),
            "U": float(self.U),
            "beta": None if math.isinf(self.beta) else float(self.beta),
            "beta_is_finite": not math.isinf(self.beta),
            "theoretical_lower_bound": float(self.theoretical_lower_bound),
            "flags": list(self.flags),
            "lower": estimate_to_json_dict(self.lower, self.field),
            "upper": estimate_to_json_dict(self.upper, self.field),
            "solver": {
                "starts": self.config.starts,
                "seed": self.config.rng.seed,
                "stream": self.config.rng.stream,
                "generator": GENERATOR_NAME,
            },
        }


def estimate_to_json_dict(e: LipschitzEstimate, field: Field) -> dict:
    """JSON-ready mapping of one estimate, witness flattened per field."""
    if isinstance(e.witness, UnitPair):
        witness = {
            "u": _interleaved(e.witness.u, field),
            "v": _interleaved(e.witness.v, field),
            "constraint": e.witness.constraint.value,
        }
    else:
        witness = {"u": _interleaved(e.witness, field)}
    band = None
    if e.certified_band is not None:
        band = [float(e.certified_band[0]), float(e.certified_band[1])]
    return {
        "value": float(e.value),
        "kind": e.kind.value,
        "method": e.method.value,
        "certified_band": band,
        "witness": witness,
    }


# ---------------------------------------------------------------------------
# objective evaluation
# ---------------------------------------------------------------------------

def pair_objective(A: SensingMatrix, u: np.ndarray, v: np.ndarray, p: int) -> float:
    """( sum_j |Re(conj(<a_j,u>) <a_j,v>)|^p )^(1/p) at one pair."""
    yu = A.array @ u
    yv = A.array @ v
    c = (np.conj(yu) * yv).real
    return float((np.abs(c) ** p).sum() ** (1.0 / p))


def upper_objective(A: SensingMatrix, u: np.ndarray, p: int) -> float:
    """( sum_j |<a_j, u>|^(2p) )^(1/p) at one unit vector."""
    y = np.abs(A.array @ u)
    return float((y ** (2 * p)).sum() ** (1.0 / p))


def _nonzero_matrix(A: SensingMatrix) -> None:
    if not np.any(A.array):
        raise ValueError("all-zero sensing matrix has no condition number")


# L, M and U scale by c^2 under A -> cA, but the searches and the oracle stop
# on absolute tolerances that hold only near unit scale.  So a matrix whose
# largest |entry| lies outside [1/16, 16) is solved as A * 2^-k, with k the
# nearest integer to log2 of that entry, and its constants are multiplied by
# 4^k.  Powers of two scale exactly, so the witnesses do not change.
def _unit_scale(A: SensingMatrix) -> tuple[SensingMatrix, int]:
    """A moved into the unit window, and the k that moves its constants back."""
    top = float(np.abs(A.array).max())
    if top == 0.0 or 1.0 / 16.0 <= top < 16.0:
        return A, 0
    k = round(math.log2(top))
    return SensingMatrix(A.field, np.ldexp(A.array.view(np.float64), -k).view(A.array.dtype)), k


def _rescaled(e: LipschitzEstimate, k: int) -> LipschitzEstimate:
    """An estimate of A * 2^-k turned into one of A: value and band times 4^k."""
    if k == 0:
        return e
    band = e.certified_band and tuple(float(np.ldexp(b, 2 * k)) for b in e.certified_band)
    return replace(e, value=float(np.ldexp(e.value, 2 * k)), certified_band=band)


# ---------------------------------------------------------------------------
# U at p=2: the power iteration of the fourth moment
# ---------------------------------------------------------------------------

# The power iteration raises f at every step until rounding stops it, after
# at most a few thousand steps on the tests' draws; the cap only bounds the
# loop.
_POWER_CAP = 100000


def _ascend_fourth_moment(A: SensingMatrix, cfg: OptimizerConfig) -> tuple[float, np.ndarray, PowerRecord]:
    """The largest f(u) = sum_j |<a_j, u>|^4 reached by the power iteration.

    f is convex in the real coordinates of u, so with g its gradient at a
    unit u, f(g / |g|) >= f(u) + g . (g / |g| - u) >= f(u): the zero-shift
    power iteration u <- g / |g| never lowers f, and needs no step size
    (Kofidis & Regalia, SIAM J. Matrix Anal. Appl. 2002; Kolda & Mayo,
    SS-HOPM, SIAM J. Matrix Anal. Appl. 2011).  It runs from `cfg.starts`
    random unit vectors and from the unit vectors conj(a_j) / |a_j| of the
    up to `cfg.starts` longest nonzero rows, where f >= |a_j|^4; those
    reach the best basin on draws that every random start misses.  A start
    stops at the first step that does not raise f and keeps its last point.
    Returns the best value, its unit vector and the `PowerRecord` of the
    best start.
    """
    arr = A.array
    norms = np.linalg.norm(arr, axis=1)
    longest = np.argsort(norms)[::-1][: cfg.starts]
    longest = longest[norms[longest] > 0.0]
    U = np.concatenate([sample_unit(A.field, A.d, cfg.rng.generator(), n=cfg.starts),
                        arr[longest].conj() / norms[longest, None]])
    Y = U @ arr.T
    Y2 = np.abs(Y) ** 2
    f = np.add.reduce(Y2 * Y2, 1)
    live = np.arange(U.shape[0])
    steps = np.zeros(U.shape[0], dtype=np.int64)
    for _ in range(_POWER_CAP):
        # g is the gradient of f up to a positive factor
        G = (Y2 * Y) @ arr.conj()
        G /= np.linalg.norm(G, axis=1, keepdims=True)
        Y = G @ arr.T
        Y2 = np.abs(Y) ** 2
        fg = np.add.reduce(Y2 * Y2, 1)
        up = fg > f[live]
        live, Y, Y2 = live[up], Y[up], Y2[up]
        U[live], f[live] = G[up], fg[up]
        steps[live] += 1
        if live.size == 0:
            break
    i = int(np.argmax(f))
    record = PowerRecord(
        stop="cap" if i in live else "no rise",
        iterations=int(steps[i]),
        starts_at_best=int(np.sum(f[i] - f <= 1e-9 * (1.0 + f[i]))),
    )
    return float(f[i]), U[i].copy(), record


# ---------------------------------------------------------------------------
# pairs: packed real coordinates and the feasible set
# ---------------------------------------------------------------------------
#
# Both pair searches run in packed real coordinates: a pair is one row
# x = (x_u, x_v) (see `_pack`), and c_j = sum_B (B x_u)_j (B x_v)_j over the
# real blocks B of `_real_blocks`.  The feasible set is |x_u| = |x_v| = 1 and
# the bilinear constraints of `_bilinear_constraints`: Im<u, v> = 0 over the
# complex field, and <u, v> = 0 for M.  Their gradients are orthogonal at
# every feasible point, and their Hessians are constant.

def _pack(w: np.ndarray, field: Field) -> np.ndarray:
    """Real coordinates of vectors (last axis): (Re w, Im w) over the complex field."""
    if field is Field.COMPLEX:
        return np.concatenate([w.real, w.imag], axis=-1)
    return np.asarray(w, dtype=np.float64)


def _unpack(x: np.ndarray, field: Field) -> tuple[np.ndarray, np.ndarray]:
    """The pair (u, v) of one packed row x = (x_u, x_v)."""
    n = x.shape[0] // 2
    if field is Field.COMPLEX:
        d = n // 2
        return x[:d] + 1j * x[d:n], x[n : n + d] + 1j * x[n + d :]
    return x[:n], x[n:]


def _real_blocks(A: SensingMatrix) -> np.ndarray:
    """The (k, m, n) real blocks B with c_j = sum_B (B x_u)_j (B x_v)_j.

    k is 1 over the reals (B = A) and 2 over the complex field, where B x
    is Re(A w) and Im(A w) for the vector w packed in x.
    """
    if A.field is Field.REAL:
        return A.array[None]
    re, im = A.array.real, A.array.imag
    return np.stack([np.hstack([re, -im]), np.hstack([im, re])])


def _times_i(X: np.ndarray) -> np.ndarray:
    """Multiplication by i in packed complex coordinates (last axis)."""
    d = X.shape[-1] // 2
    return np.concatenate([-X[..., d:], X[..., :d]], axis=-1)


def _identity(X: np.ndarray) -> np.ndarray:
    return X


def _bilinear_constraints(field: Field, orthogonal: bool):
    """The constraints h = (T x_u) . x_v = 0 of a feasible pair besides |u| = |v| = 1.

    Each is returned as (T, s), with T a linear map on the last axis and
    T^T = s T: over the complex field Im<u, v> = (i u) . v, and for M also
    Re<u, v> = u . v.  Their gradients are (s T x_v, T x_u), and their
    Hessians are constant.
    """
    return ([(_times_i, -1.0)] if field is Field.COMPLEX else []) + ([(_identity, 1.0)] if orthogonal else [])


def _constraint_normals(Xu, Xv, field: Field, orthogonal: bool) -> list[np.ndarray]:
    """(runs, 2n) constraint gradients at rows (x_u, x_v), first those of |x_u|^2 and |x_v|^2.

    At feasible pairs they are orthogonal to each other, with squared norms
    1, 1 and then 2 for each bilinear constraint, since |T x| = |x|.
    """
    zero = np.zeros_like(Xu)
    cols = [np.concatenate([Xu, zero], axis=1), np.concatenate([zero, Xv], axis=1)]
    cols += [np.concatenate([s * T(Xv), T(Xu)], axis=1) for T, s in _bilinear_constraints(field, orthogonal)]
    return cols


def _row_dots(X, Y) -> np.ndarray:
    """The (runs, 1) column of dot products of the rows of X and Y."""
    return np.add.reduce(X * Y, 1, keepdims=True)


# A Gram-Schmidt pass that cancels all but 1/_GS_REPEAT of x_v leaves its
# inner products with the T x_u of up to about _GS_REPEAT * eps once x_v is
# normalized, so past that ratio the pass is repeated (Kahan's "twice is
# enough", in Parlett, The Symmetric Eigenvalue Problem, 1980).
_GS_REPEAT = 1e3


def _retract_packed(X, field: Field, orthogonal: bool) -> np.ndarray:
    """Rows (x_u, x_v) mapped onto feasible pairs.

    x_v loses its components along the T x_u of `_bilinear_constraints`,
    which are orthogonal to each other and as long as x_u, and then both
    halves are normalized.  The Gram-Schmidt pass is repeated on the rows
    where it cancelled all but 1/_GS_REPEAT of x_v.
    """
    n = X.shape[1] // 2
    Xu, Xv = X[:, :n], X[:, n:]
    normals = [T(Xu) for T, _s in _bilinear_constraints(field, orthogonal)]
    if normals:
        square_u = _row_dots(Xu, Xu)

        def sweep(Xv):
            removed = 0.0
            for N in normals:
                a = _row_dots(N, Xv) / square_u
                Xv = Xv - a * N
                removed = removed + a * a
            return Xv, removed * square_u

        Yv, removed = sweep(Xv)
        X = np.concatenate([Xu, Yv], axis=1)
    Y = X.reshape(-1, 2, n)
    square = np.add.reduce(Y * Y, 2, keepdims=True)
    if normals:
        again = removed > _GS_REPEAT ** 2 * square[:, 1]
        if np.count_nonzero(again):
            Y = np.concatenate([Xu, np.where(again, sweep(Yv)[0], Yv)], axis=1).reshape(-1, 2, n)
            square = np.add.reduce(Y * Y, 2, keepdims=True)
    return (Y / np.sqrt(square)).reshape(-1, 2 * n)


def _images(blocks, X) -> np.ndarray:
    """The (runs, 2, k, m) images B x_u and B x_v of the packed rows of X, from one product."""
    k, m, n = blocks.shape
    return (X.reshape(-1, n) @ blocks.reshape(k * m, n).T).reshape(-1, 2, k, m)


def _terms(Y) -> np.ndarray:
    """The (runs, m) terms c_j = sum_B (B x_u)_j (B x_v)_j from the images Y of `_images`."""
    return np.add.reduce(Y[:, 0] * Y[:, 1], 1)


def _pair_terms(blocks, X) -> np.ndarray:
    """The (runs, m) terms c_j at each packed row of X."""
    return _terms(_images(blocks, X))


def _image_gradient(blocks, Y, slope) -> np.ndarray:
    """The (runs, 2n) gradients of sum_j psi(c_j) from the images Y and the (runs, m) slopes psi'(c_j).

    Row (x_u, x_v) is (sum_B B^T (psi' B x_v), sum_B B^T (psi' B x_u)), one
    product with the stacked blocks.
    """
    k, m, n = blocks.shape
    W = slope[:, None, None, :] * Y[:, ::-1]
    return (W.reshape(-1, k * m) @ blocks.reshape(k * m, n)).reshape(-1, 2 * n)


def _pair_gradient(blocks, Y, X, field: Field, orthogonal: bool) -> np.ndarray:
    """The (runs, 2n) tangent gradients of sum_j c_j^2 at the rows of X, from their images Y.

    The gradient is projected off the `_constraint_normals` with their
    squared norms at feasible pairs.
    """
    n = X.shape[1] // 2
    G = _image_gradient(blocks, Y, 2.0 * _terms(Y))
    for N, size in zip(_constraint_normals(X[:, :n], X[:, n:], field, orthogonal), (1.0, 1.0, 2.0, 2.0)):
        G -= (_row_dots(N, G) / size) * N
    return G


def _pair_starts(A: SensingMatrix, orthogonal: bool, cfg: OptimizerConfig) -> np.ndarray:
    """The `cfg.starts` random feasible pairs that start a pair search, as packed rows."""
    g = cfg.rng.generator()
    U = sample_unit(A.field, A.d, g, n=cfg.starts)
    V = sample_unit(A.field, A.d, g, n=cfg.starts)
    return _retract_packed(np.concatenate([_pack(U, A.field), _pack(V, A.field)], axis=1), A.field, orthogonal)


# ---------------------------------------------------------------------------
# pair search: alternating eigen-steps, then Riemannian Newton
# ---------------------------------------------------------------------------
#
# In packed coordinates c_j = x_u^T Q_j x_v with Q_j = sum_B B_j^T B_j, and
# the objective is f = sum_j psi(c_j): psi(c) = c^2 at p=2, and at p=1 the
# smoothed psi(c) = sqrt(c^2 + delta^2) - delta, which tends to |c| as the
# width delta goes to 0 (X. Chen, Smoothing methods for nonsmooth, nonconvex
# minimization, Math. Program. 2012).

# Newton settings: the stopping test on the tangent gradient norm (relative
# to 1 + f), the safety cap on Newton iterations per run, the longest step,
# the number of alternating eigen-step rounds that make one start set and of
# Armijo descent steps that make another, with its sufficient-decrease
# constant, the floor on |Hessian eigenvalue| (relative to 1 + the largest)
# that bounds the step along flat directions, and the halvings a step of
# `_line_search` may take before it decreases f.
_NEWTON_TOL = 1e-11
_NEWTON_CAP = 100
_NEWTON_RADIUS = 0.3
_ALTERNATIONS = 20
_DESCENT_STEPS = 5
_ARMIJO = 1e-4
_CURVATURE_FLOOR = 1e-10
_HALVINGS = 40

# p=1 continuation settings: a pass is Newton at one width until the tangent
# gradient norm is at most _PASS_TOL (1 + f) or for _PASS_STEPS steps; a run
# ends when its smoothing gap sum_j (sqrt(c_j^2 + delta^2) - |c_j|) is at most
# _GAP_TOL (1 + sum_j |c_j|), and otherwise the width shrinks by
# _WIDTH_SHRINK, for at most _PASSES passes.  _WIDTH_FLOOR keeps the first
# width positive where the median |c_j| of a start is 0.  A step's first
# trial is min(1, _STEP_GROWTH x the run's last accepted fraction); at p=2 it
# is always 1.
_PASS_TOL = 1e-8
_PASS_STEPS = 6
_GAP_TOL = 1e-11
_WIDTH_SHRINK = 0.1
_PASSES = 20
_WIDTH_FLOOR = 1e-100
_STEP_GROWTH = 2.0

# `_search_pairs` takes the starts in groups of _GROUP_ELEMENTS / (3 m 2n),
# so its memory does not grow with the number of starts.  What the group
# bounds is the (3, runs, k, k, m) Hessian weights of `_second_order`, with
# 3 runs per start: at most 3 k^2 / (2n) x _GROUP_ELEMENTS elements, so at
# most _GROUP_ELEMENTS at d >= 3 (equal at complex d = 3), though a group
# of one start can exceed it at large m n.  The same budget bounds the
# triangle products of `_khatri_rao`, whatever m and n, down to one row.
_GROUP_ELEMENTS = 1 << 21


def _khatri_rao(blocks) -> np.ndarray:
    """The row-wise Khatri-Rao products b_a b_c (a <= c) of the leading rows b of the first block.

    Row j is the upper triangle of the outer product b_j b_j^T; over the
    complex field these carry the products of the second block too
    (`_gram_sums`).  It takes the first rows whose products hold at most
    _GROUP_ELEMENTS values, and at least one, so its size does not grow
    with m.
    """
    a, c = np.triu_indices(blocks.shape[2])
    part = blocks[0, : max(1, _GROUP_ELEMENTS // a.size)]
    return part[:, a] * part[:, c]


def _gram_sums(blocks, products, weights) -> np.ndarray:
    """The (r, n, n) sums sum_{B, B', j} w_{B B' j} B_j B'_j^T for the (r, k, k, m) weights w.

    Every Gram matrix and Hessian block of the pair search is such a sum.
    Over the complex field the second block's rows are T b = _times_i(b) of
    the first block's rows b, so B_j B'_j^T is S_j, S_j T^T, T S_j or
    T S_j T^T with S_j = b_j b_j^T.  The sums of the symmetric S_j under
    every weight are one product of the weights with the upper triangles
    `products` (`_khatri_rao(blocks)`, formed once per search); the rows
    beyond it, if any, are taken in slices of the same size whose products
    are formed here.  T and T^T then act as `_times_i` on the columns and
    rows, which is exact.
    """
    k, m, n = blocks.shape
    rows = products.shape[0]
    W = weights.reshape(-1, m)
    tri = W[:, :rows] @ products
    for j in range(rows, m, rows):
        tri += W[:, j : j + rows] @ _khatri_rao(blocks[:, j:])
    S = tri[:, _triangle_index(n)].reshape(-1, k, k, n, n)
    if k == 1:
        return S[:, 0, 0]
    # (S00 + S01 T^T) + T (S10 + S11 T^T)
    left, right = S[:, 0, 0] + _times_i(S[:, 0, 1]), S[:, 1, 0] + _times_i(S[:, 1, 1])
    return left + _times_i(right.transpose(0, 2, 1)).transpose(0, 2, 1)


@functools.lru_cache(maxsize=None)
def _triangle_index(n: int) -> np.ndarray:
    """The (n, n) positions of the entries (a, c) and (c, a) in the upper triangle of `np.triu_indices(n)`."""
    a, c = np.triu_indices(n)
    at = np.empty((n, n), dtype=np.intp)
    at[a, c] = at[c, a] = np.arange(a.size)
    return at


def _partner_gram(blocks, products, X) -> np.ndarray:
    """The (runs, n, n) forms sum_j (Q_j x)(Q_j x)^T of the partner y in sum_j (x^T Q_j y)^2.

    Q_j x = sum_B (B x)_j B_j, so the weights of `_gram_sums` are
    (B x)_j (B' x)_j.
    """
    k, m, n = blocks.shape
    Y = (X @ blocks.reshape(k * m, n).T).reshape(-1, k, m)
    return _gram_sums(blocks, products, Y[:, :, None] * Y[:, None])


def _best_partner(blocks, products, X, field: Field, orthogonal: bool) -> np.ndarray:
    """Per row of X, the unit feasible partner y that minimizes sum_j (x^T Q_j y)^2.

    The constraints are linear in the partner: it must be orthogonal to
    T x for each bilinear constraint.
    """
    cons = _bilinear_constraints(field, orthogonal)
    excluded = np.stack([T(X) for T, _s in cons], axis=-1) if cons else None
    return _bottom_vectors(_partner_gram(blocks, products, X), excluded)


def _bottom_vectors(G, excluded) -> np.ndarray:
    """Per run, the unit x orthogonal to `excluded` that minimizes x^T G x."""
    if excluded is not None:
        R = np.matmul(excluded, excluded.transpose(0, 2, 1))
        P = np.eye(G.shape[-1]) - R
        # the excluded directions get eigenvalues above the whole spectrum
        lift = np.trace(G, axis1=1, axis2=2) + 1.0
        G = np.matmul(np.matmul(P, G), P) + lift[:, None, None] * R
    return np.linalg.eigh(G)[1][..., 0]


def _normal_frame(Xu, Xv, field: Field, orthogonal: bool) -> np.ndarray:
    """(runs, 2n, k) unit columns spanning the directions a Newton step must not take.

    They are the constraint normals and, over the complex field, the
    directions (i u, i v) and (i v, i u), along which f and the constraints
    are constant: c_j = (|<a_j, u + v>|^2 - |<a_j, u - v>|^2) / 4 keeps its
    value when u + v and u - v change phase independently.
    """
    cols = _constraint_normals(Xu, Xv, field, orthogonal)
    if field is Field.COMPLEX:
        iu, iv = _times_i(Xu), _times_i(Xv)
        cols += [np.concatenate([iu, iv], axis=1), np.concatenate([iv, iu], axis=1)]
    frame = np.stack(cols, axis=-1)
    return frame / np.linalg.norm(frame, axis=1, keepdims=True)


def _second_order(blocks, products, X, field: Field, orthogonal: bool, width=None):
    """Value, tangent gradient and Riemannian Hessian of f at each row of X.

    f is sum_j psi(c_j): c_j^2 with `width` None (p=2), and otherwise
    sqrt(c_j^2 + delta^2) - delta at the (runs,) widths delta, written
    c_j^2 / (s_j + delta) with s_j = sqrt(c_j^2 + delta^2), free of
    cancellation.  Everything comes from the images B x_u and B x_v
    (`_images`).  The rows of the Jacobian J of the c_j are
    (Q_j x_v, Q_j x_u) with Q_j x = sum_B (B x)_j B_j, so the uu, vv and uv
    blocks of J^T diag(psi'') J (psi'' = 2 at p=2 and delta^2 / s^3 at p=1)
    and the second-derivative term sum_B B^T diag(psi') B of the uv block
    are weighted sums of the outer products B_j B'_j^T, which `_gram_sums`
    forms in one product from the `products` of `_khatri_rao`.  The
    gradient and Hessian are given in an orthonormal basis of the tangent
    space less the flat directions of `_normal_frame`, which is returned
    too, with the multipliers and the images, from which `_decrease`
    measures the line search's trials.  The Riemannian Hessian is that of
    the Lagrangian, P (H - sum_i lam_i Hess h_i) P, with the least-squares
    multipliers lam_i of the gradient (Absil, Baker & Gallivan, Found.
    Comput. Math. 2007).
    """
    k, m, n = blocks.shape
    runs = X.shape[0]
    Xu, Xv = X[:, :n], X[:, n:]
    Y = _images(blocks, X)
    c = _terms(Y)
    if width is None:
        psi, slope, curve = c * c, 2.0 * c, np.full_like(c, 2.0)
    else:
        delta = width[:, None]
        s = np.sqrt(c * c + delta * delta)
        psi, slope, curve = c * c / (s + delta), c / s, (delta / s) ** 2 / s
    grad = _image_gradient(blocks, Y, slope)
    # weights of the uu, vv and uv blocks on the outer products B_j B'_j^T:
    # psi'' (B x_v)_j (B' x_v)_j, psi'' (B x_u)_j (B' x_u)_j and
    # psi'' (B x_v)_j (B' x_u)_j, plus psi'_j where B = B'
    curved = curve[:, None, None] * Y
    weights = np.empty((3, runs, k, k, m))
    for block, (left, right) in enumerate(((1, 1), (0, 0), (1, 0))):
        np.multiply(curved[:, left, :, None], Y[:, right, None], out=weights[block])
    for B in range(k):
        weights[2, :, B, B] += slope
    H = _gram_sums(blocks, products, weights).reshape(3, runs, n, n)
    gu, gv = grad[:, :n], grad[:, n:]
    eye = np.eye(n)
    lam = [np.sum(Xu * gu, axis=1), np.sum(Xv * gv, axis=1)]
    uv = H[2]
    for T, s in _bilinear_constraints(field, orthogonal):
        # h = x_u^T T^T x_v, and the rows of T(eye) are the T e_k, so it is T^T
        lam.append((s * np.sum(T(Xv) * gu, axis=1) + np.sum(T(Xu) * gv, axis=1)) / 2.0)
        uv -= lam[-1][:, None, None] * T(eye)
    hess = np.empty((runs, 2 * n, 2 * n))
    hess[:, :n, :n] = H[0] - lam[0][:, None, None] * eye
    hess[:, n:, n:] = H[1] - lam[1][:, None, None] * eye
    hess[:, :n, n:] = uv
    hess[:, n:, :n] = uv.transpose(0, 2, 1)

    normals = _normal_frame(Xu, Xv, field, orthogonal)
    basis = np.linalg.qr(normals, mode="complete")[0][:, :, normals.shape[2]:]
    g_t = np.matmul(grad[:, None, :], basis)[:, 0]
    h_t = np.matmul(np.matmul(basis.transpose(0, 2, 1), hess), basis)
    return np.sum(psi, axis=1), g_t, h_t, basis, np.stack(lam, axis=1), Y


def _newton_step(g_t, h_t, basis):
    """Least Hessian eigenvalue and Newton step in packed coordinates, per row.

    Each eigenvalue is replaced by its modulus, at least _CURVATURE_FLOOR
    (1 + the largest modulus), so the step descends at saddles too; it is
    then cut to length _NEWTON_RADIUS.
    """
    w, E = np.linalg.eigh(h_t)
    size = np.abs(w)
    size = np.maximum(size, _CURVATURE_FLOOR * (1.0 + size.max(axis=1, keepdims=True)))
    coef = -np.matmul(g_t[:, None, :], E)[:, 0] / size
    step = np.matmul(basis, np.matmul(E, coef[..., None]))[..., 0]
    length = np.linalg.norm(step, axis=1)
    step *= np.minimum(1.0, _NEWTON_RADIUS / np.maximum(length, 1e-300))[:, None]
    return w[:, 0], step


def _decrease(blocks, Y, c, X, Xn, lam, field: Field, orthogonal: bool, width=None) -> np.ndarray:
    """Change of the Lagrangian f - sum_i lam_i h_i from X to Xn, per row, given X's images Y and terms c.

    On feasible points it is the change of f; with `lam` None it is the
    change of f itself.  Computed from the small differences of the points,
    and free of the first-order effect of the rounding left in the
    constraints, it keeps its sign near a minimum, where the two values of
    f agree to more digits than they carry.  With Z the images of
    D = Xn - X (one `_images` product), c_j changes by
    dc_j = sum_B Z_u (Y_v + Z_v) + Y_u Z_v and c_j^2 by dc_j (2 c_j + dc_j).
    At p=1 the change of sqrt(c^2 + delta^2) is that of c^2 over the sum of
    the two roots.
    """
    D = Xn - X
    Z = _images(blocks, D)
    Yu, Yv, Zu, Zv = Y[:, 0], Y[:, 1], Z[:, 0], Z[:, 1]
    dc = np.add.reduce(Zu * (Yv + Zv) + Yu * Zv, 1)
    change = dc * (2.0 * c + dc)
    if width is not None:
        square = (width * width)[:, None]
        c_next = c + dc
        change /= np.sqrt(c_next * c_next + square) + np.sqrt(c * c + square)
    change = np.add.reduce(change, 1)
    if lam is None:
        return change
    n = X.shape[1] // 2
    Xu, Xv, Xvn, Du, Dv = X[:, :n], X[:, n:], Xn[:, n:], D[:, :n], D[:, n:]
    dh = [np.sum(Du * (Xu + Du / 2.0), axis=1), np.sum(Dv * (Xv + Dv / 2.0), axis=1)]
    for T, _s in _bilinear_constraints(field, orthogonal):
        dh.append(np.sum(T(Du) * Xvn, axis=1) + np.sum(T(Xu) * Dv, axis=1))
    return change - np.sum(lam * np.stack(dh, axis=1), axis=1)


def _line_search(blocks, X, rows, Y, direction, scale, margin, lam, field: Field, orthogonal: bool, width=None):
    """Armijo backtracking of the rows `rows` of X along `direction`, in place.

    Row i moves to the retraction of X[rows[i]] + scale[i] direction[i]
    once `_decrease` to there, with the multipliers lam[i] (None: the
    change of f), is below -margin[i] scale[i]; until then its scale is
    halved, at most _HALVINGS times, and a row that never passes stays
    where it is (Absil, Mahony & Sepulchre, Optimization Algorithms on
    Matrix Manifolds, 2008, sec. 4.2).  Y[i] holds the images of the row,
    from which its terms c_j are formed once, so each trial takes one
    image product.  `scale` is updated in place, so a moved row's entry is
    the scale it moved by.  Returns the mask of the moved rows.
    """
    pending = np.arange(rows.size)
    c = _terms(Y)
    for _ in range(_HALVINGS):
        at = rows[pending]
        cand = _retract_packed(X[at] + scale[pending, None] * direction[pending], field, orthogonal)
        ok = _decrease(blocks, Y, c, X[at], cand, None if lam is None else lam[pending], field, orthogonal,
                       None if width is None else width[pending]) < -margin[pending] * scale[pending]
        X[at[ok]] = cand[ok]
        if ok.any():
            pending, Y, c = pending[~ok], Y[~ok], c[~ok]
        if pending.size == 0:
            break
        scale[pending] *= 0.5
    moved = np.ones(rows.size, dtype=bool)
    moved[pending] = False
    return moved


def _descent_starts(blocks, X, field: Field, orthogonal: bool) -> np.ndarray:
    """The rows of X after _DESCENT_STEPS Armijo steps of Riemannian gradient descent of sum_j c_j^2.

    The first steps of gradient descent decide the basin it ends in; Newton
    from a random start can jump to another basin, so these points start
    Newton runs of their own, at both p.  Each step doubles the run's last
    step length and takes it through `_line_search` along the negative
    tangent gradient G, with the sufficient decrease _ARMIJO |G|^2 per unit
    of step (the Armijo test); a row the search never moves stays where it
    is.  The images of the gradient's evaluation serve the line search.
    """
    X = X.copy()
    rows = np.arange(X.shape[0])
    step = np.ones(X.shape[0])
    for _ in range(_DESCENT_STEPS):
        Y = _images(blocks, X)
        G = _pair_gradient(blocks, Y, X, field, orthogonal)
        step *= 2.0
        _line_search(blocks, X, rows, Y, -G, step, _ARMIJO * np.sum(G * G, axis=1), None, field, orthogonal)
    return X


def _newton_runs(blocks, products, X, field: Field, orthogonal: bool, width=None):
    """Riemannian Newton from each row of X, which it updates in place.

    Each step goes through `_line_search` with no margin: it is first tried
    at min(1, growth x the run's last accepted fraction) of its length and
    halved until it decreases f, measured by `_decrease` from the images
    that `_second_order` formed.  With `width` None the runs minimize
    sum_j c_j^2 (p=2) in one pass, which stops when the tangent gradient
    norm is at most _NEWTON_TOL (1 + f), or at _NEWTON_CAP steps; growth
    is infinite, so the first trial is the whole step.  Otherwise `width` holds the first
    smoothing widths, which it updates in place too, and the runs minimize
    sum_j |c_j| (p=1) by continuation: passes of Newton on the smoothed f
    at the run's width, each stopped by _PASS_TOL or _PASS_STEPS, after
    which the run ends if its smoothing gap passes _GAP_TOL and otherwise
    goes on at _WIDTH_SHRINK times the width, for at most _PASSES passes;
    growth is _STEP_GROWTH.  Returns per row the final objective
    (sum_j c_j^2 or sum_j |c_j|), and the final tangent gradient norm,
    least Hessian eigenvalue, stop (1 gradient test, 2 a cap) and Newton
    steps of its last pass.
    """
    runs = X.shape[0]
    smooth = width is not None
    tol, cap, growth = (_PASS_TOL, _PASS_STEPS, _STEP_GROWTH) if smooth else (_NEWTON_TOL, _NEWTON_CAP, math.inf)
    value, gnorm, least, fraction = np.empty(runs), np.empty(runs), np.empty(runs), np.ones(runs)
    stop = np.zeros(runs, dtype=np.int8)  # 0 running, 1 gradient test, 2 cap
    steps, passes = np.zeros(runs, dtype=np.int64), np.zeros(runs, dtype=np.int64)
    while True:
        live = np.flatnonzero(stop == 0)
        if live.size == 0:
            break
        value[live], g_t, h_t, basis, lam, Y = _second_order(
            blocks, products, X[live], field, orthogonal, width[live] if smooth else None)
        gnorm[live] = np.linalg.norm(g_t, axis=1)
        least[live], step = _newton_step(g_t, h_t, basis)
        passed = gnorm[live] <= tol * (1.0 + value[live])
        ended = passed | (steps[live] == cap)
        done = live[ended]
        stop[done] = np.where(passed[ended], 1, 2)
        if smooth:
            # the pass is over: sum_j |c_j|, from the images, and the smoothing gap it leaves
            c, square = np.abs(_terms(Y[ended])), (width[done] ** 2)[:, None]
            value[done] = np.sum(c, axis=1)
            passes[done] += 1
            narrow = np.sum(square / (np.sqrt(c * c + square) + c), axis=1) > _GAP_TOL * (1.0 + value[done])
            again = done[narrow & (passes[done] < _PASSES)]
            stop[done[narrow]] = 2
            stop[again], steps[again] = 0, 0
            width[again] *= _WIDTH_SHRINK
        move, step, lam, Y = live[~ended], step[~ended], lam[~ended], Y[~ended]
        steps[move] += 1
        scale = np.minimum(1.0, growth * fraction[move])
        moved = _line_search(blocks, X, move, Y, step, scale, np.zeros(move.size), lam, field, orthogonal,
                             width[move] if smooth else None)
        fraction[move[moved]] = scale[moved]
    return value, gnorm, least, stop, steps


def _search_pairs(A: SensingMatrix, orthogonal: bool, p: int, cfg: OptimizerConfig):
    """Multi-start second-order search for the least sum_j |c_j|^p over feasible pairs.

    Riemannian Newton (`_newton_runs`) runs from three points per random
    start: the start itself; its image under `_ALTERNATIONS` rounds of
    exact block minimization of sum_j c_j^2 (`_best_partner`: for fixed u,
    it is a quadratic form in v and the constraints are linear, so the best
    v is a bottom eigenvector, and then the same for u); and the start after
    `_DESCENT_STEPS` Armijo descent steps (`_descent_starts`).  The descent
    and the Newton steps share one backtracking line search
    (`_line_search`).  At p=1 each
    run's first smoothing width is the median |c_j| at its start.  The
    products of the block rows (`_khatri_rao`) are formed once here for
    every Gram matrix and Hessian of the search.  The starts are taken in
    groups of at most _GROUP_ELEMENTS / (3 m 2n), which bounds the Hessian
    weights of `_second_order`; the products hold at most _GROUP_ELEMENTS
    values.  Returns the least value, its packed pair and the best run's
    `ConvergenceRecord`.
    """
    field = A.field
    blocks = _real_blocks(A)
    products = _khatri_rao(blocks)
    starts = _pair_starts(A, orthogonal, cfg)
    n = starts.shape[1] // 2
    group = max(1, _GROUP_ELEMENTS // (3 * A.m * 2 * n))
    points, results = [], []
    for raw in (starts[i : i + group] for i in range(0, cfg.starts, group)):
        Xu, Xv = raw[:, :n], raw[:, n:]
        for _ in range(_ALTERNATIONS):
            Xv = _best_partner(blocks, products, Xu, field, orthogonal)
            Xu = _best_partner(blocks, products, Xv, field, orthogonal)
        alternated = _retract_packed(np.concatenate([Xu, Xv], axis=1), field, orthogonal)
        X = np.concatenate([alternated, raw, _descent_starts(blocks, raw, field, orthogonal)])
        width = np.maximum(np.median(np.abs(_pair_terms(blocks, X)), axis=1), _WIDTH_FLOOR) if p == 1 else None
        results.append(_newton_runs(blocks, products, X, field, orthogonal, width))
        points.append(X)
    X = np.concatenate(points)
    f, gnorm, least, stop, steps = (np.concatenate(parts) for parts in zip(*results))

    i = int(np.argmin(f))
    record = ConvergenceRecord(
        stop="gradient" if stop[i] == 1 else "cap",
        iterations=int(steps[i]),
        gradient_norm=float(gnorm[i]),
        min_hessian_eigenvalue=float(least[i]),
        runs_at_best=int(np.sum(f - f[i] <= 1e-9 * (1.0 + f[i]))),
    )
    return float(f[i]), X[i], record


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def upper_lipschitz(A: SensingMatrix, p: int, cfg: OptimizerConfig | None = None) -> LipschitzEstimate:
    """The optimal upper constant U, the squared 2 -> 2p operator norm.

    p=1 reduces to the top eigenvalue of A*A, and at d=2 p=2 is a
    trust-region subproblem in the planar coordinates; both are solved
    exactly (method ClosedForm).  Otherwise p=2 runs the power iteration
    u <- g / |g|, with g the gradient of sum_j |<a_j, u>|^4, from
    `cfg.starts` random unit vectors and from the directions of the up to
    `cfg.starts` longest rows.  The sum is convex, so no step lowers it; a
    start stops at the first step that does not raise it, so the result
    does not depend on an iteration budget, and the value is that of the
    best start (method MultiStartLocal), which carries a `PowerRecord`.
    `max_iters`, `subgradient_iters` and `polish` do not apply.
    """
    p = _check_p(p)
    cfg = cfg or OptimizerConfig()
    _nonzero_matrix(A)
    A, k = _unit_scale(A)

    record = None
    if p == 1:
        gram = A.array.conj().T @ A.array
        evals, evecs = np.linalg.eigh(gram)
        value = float(evals[-1])
        witness = np.ascontiguousarray(evecs[:, -1])
        method = Method.CLOSED_FORM
    elif A.d == 2:
        square, witness = planar.exact_upper_p2(A)
        value = upper_objective(A, witness, p)
        planar._check_witness(square, value ** 2, "exact planar upper")
        method = Method.CLOSED_FORM
    else:
        fbest, witness, record = _ascend_fourth_moment(A, cfg)
        value = fbest ** (1.0 / p)
        method = Method.MULTI_START_LOCAL
    return _rescaled(LipschitzEstimate(value, EstimateKind.UPPER_U, p, witness, method, convergence=record), k)


def _lower_estimate(A: SensingMatrix, p: int, cfg: OptimizerConfig, orthogonal: bool) -> LipschitzEstimate:
    p = _check_p(p)
    _nonzero_matrix(A)
    if A.d < 2:
        raise ValueError(f"L and M need dimension d >= 2, and this matrix has d = {A.d}")
    A, k = _unit_scale(A)

    record = None
    if A.d == 2:
        solve = planar.exact_lower_p1 if p == 1 else planar.exact_lower_p2
        power, u, v = solve(A, orthogonal)
        value = pair_objective(A, u, v, p)
        planar._check_witness(power, value ** p, "exact planar lower")
        method = Method.CLOSED_FORM
    else:
        fbest, x, record = _search_pairs(A, orthogonal, p, cfg)
        u, v = _unpack(x, A.field)
        value = fbest ** (1.0 / p)
        method = Method.MULTI_START_LOCAL

    if value < ZERO_CLAMP:
        value = 0.0
    constraint = Constraint.ORTHOGONAL if orthogonal else Constraint.REAL_INNER
    witness = UnitPair(A.field, u, v, constraint)
    witness.validate()
    kind = EstimateKind.ORTHOGONAL_M if orthogonal else EstimateKind.LOWER_L
    return _rescaled(LipschitzEstimate(value, kind, p, witness, method, convergence=record), k)


def lower_lipschitz(A: SensingMatrix, p: int, cfg: OptimizerConfig | None = None) -> LipschitzEstimate:
    """The optimal lower constant L over pairs with real inner product.

    At d=2 it is solved exactly (method ClosedForm) whatever the search
    settings: at p=2, L^2 is the smallest eigenvalue of a 2x2 (real) or 3x3
    (complex) matrix in the planar coordinates, and at p=1, L is the least
    value over the finitely many vertices of `planar.exact_lower_p1`.
    Otherwise it runs a multi-start search over unit pairs with
    Im<u, v> = 0 (vacuous over the reals), on the terms
    c_j = Re(conj(<a_j, u>) <a_j, v>).  Each of the `cfg.starts`
    random starts, its image under 20 rounds of exact alternating
    eigen-steps (for fixed u the best v is a bottom eigenvector of
    sum_j c_j^2, and then the same for u) and its image under 5 Armijo
    gradient descent steps of sum_j c_j^2 start a Riemannian Newton run
    with the exact Hessian.  The descent and the Newton steps share one
    backtracking line search, which halves a step until it decreases the
    objective (by a margin on the descent steps), so every step does.  At
    p=2 the objective is L^2 = sum_j c_j^2, and a run stops when its
    tangent gradient norm is at most 1e-11 (1 + L^2), under a fixed safety
    cap.  At p=1 it is sum_j sqrt(c_j^2 + delta^2) - delta, which tends to
    L = sum_j |c_j| as delta goes to 0: a run starts at delta = the median
    |c_j| of its start, takes up to 6 Newton steps at each width, and ends
    when sum_j (sqrt(c_j^2 + delta^2) - |c_j|) is at most
    1e-11 (1 + sum_j |c_j|), dividing delta by 10 otherwise, for at most 20
    widths.  The value is (sum_j |c_j|^p)^(1/p) at the best run's pair,
    which is the witness.  `max_iters`, `subgradient_iters` and `polish` do not
    apply, and the estimate carries a `ConvergenceRecord`.
    """
    return _lower_estimate(A, p, cfg or OptimizerConfig(), orthogonal=False)


def orthogonal_lower_bound(A: SensingMatrix, p: int, cfg: OptimizerConfig | None = None) -> LipschitzEstimate:
    """The infimum M over orthogonal unit pairs; never below L.

    Solved like `lower_lipschitz`, exactly at d=2.
    """
    return _lower_estimate(A, p, cfg or OptimizerConfig(), orthogonal=True)


def _injectivity_threshold(field: Field, d: int) -> int:
    if field is Field.REAL:
        return 2 * d - 1
    return max(4 * d - 4, 1)


def condition_number(A: SensingMatrix, p: int, cfg: OptimizerConfig | None = None) -> ConditionReport:
    """Full conditioning report: L, U, beta, universal floor, and flags.

    beta is U/L; when L <= 1e-8 U the map is treated as failing phase
    retrieval, beta is +inf, and the report is flagged.  The flag is also
    raised heuristically when m sits below the injectivity threshold
    (2d - 1 real, 4d - 4 complex), where no matrix can do phase retrieval,
    even though the computed L may still be positive there.  beta and the
    flags come from the constants of the rescaled matrix (see
    `_unit_scale`), so they hold even where the reported L and U underflow
    to zero.
    """
    p = _check_p(p)
    cfg = cfg or OptimizerConfig()
    _nonzero_matrix(A)

    scaled, k = _unit_scale(A)
    lower = lower_lipschitz(scaled, p, cfg)
    upper = upper_lipschitz(scaled, p, cfg)
    flags: list[str] = []
    if A.m < _injectivity_threshold(A.field, A.d):
        flags.append(NO_PHASE_RETRIEVAL_FLAG)
    if lower.value <= BETA_THRESHOLD * upper.value:
        beta = math.inf
        if NO_PHASE_RETRIEVAL_FLAG not in flags:
            flags.append(NO_PHASE_RETRIEVAL_FLAG)
    else:
        beta = upper.value / lower.value
    lower, upper = _rescaled(lower, k), _rescaled(upper, k)
    bound = universal_lower_bound(A.field, p, A.m).value
    return ConditionReport(
        p=p, field=A.field, m=A.m, d=A.d,
        L=lower.value, U=upper.value, beta=beta,
        theoretical_lower_bound=bound,
        flags=tuple(flags), lower=lower, upper=upper, config=cfg,
    )


def is_tight_4_frame(A: SensingMatrix) -> TightFrameCheck:
    """Exact test whether sum_j |<a_j, x>|^4 is constant over the unit sphere.

    With W the m x d^2 matrix whose row j is vec(a_j a_j^T), the quartic is
    z^H K z at z = vec(x x^T), where K = W^H W.  |x|^4 is z^H S z for the
    d^2 x d^2 form S = (d_ik d_jl + d_il d_jk + d_ij d_kl)/3 over the reals
    and (d_ik d_jl + d_il d_jk)/2 over the complex field, and the quartic is
    constant exactly when K is a multiple of S.  The sphere average is
    tr K / ||S||_F^2, and the frame is tight when the relative residual
    ||K - mean S||_F / ||K||_F is at most 1e-6.  Since ||K||_F^2 =
    sum_ij |<a_i, a_j>|^4 and tr K = sum_j |a_j|^4, tightness is equality in
    the Welch bound ||K||_F^2 >= (tr K)^2 / ||S||_F^2.  Costs O(m d^4) time
    and O(m d^2 + d^4) memory and draws no random numbers; an all-zero
    matrix is not a frame, so its residual is infinite.
    """
    d = A.d
    W = (A.array[:, :, None] * A.array[:, None, :]).reshape(A.m, d * d)
    K = W.conj().T @ W
    eye = np.eye(d)
    swap = np.einsum("ik,jl->ijkl", eye, eye) + np.einsum("il,jk->ijkl", eye, eye)
    if A.field is Field.REAL:
        S, norm2 = (swap + np.einsum("ij,kl->ijkl", eye, eye)) / 3.0, d * (d + 2) / 3.0
    else:
        S, norm2 = swap / 2.0, d * (d + 1) / 2.0
    mean = float(np.trace(K).real) / norm2
    size = float(np.linalg.norm(K))
    residual = float(np.linalg.norm(K - mean * S.reshape(K.shape))) / size if size > 0 else math.inf
    return TightFrameCheck(bool(residual <= 1e-6), mean, residual)
