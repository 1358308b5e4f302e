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
else is nonconvex, so this module runs batched multi-start projected
gradient (descent or ascent) on the constraint manifold, with a
subgradient phase for the kinked p=1 objective and a simplex polish.  The
ascent and the p=2 descent share one Armijo line search.

Multi-start cannot certify global optimality for d > 2; estimates say so
through their `method` tag.  On planar matrices the grid oracle in `oracle`
gives an independent check, a certified band.  Every solve runs on the
matrix rescaled by a power of two into unit size (`_unit_scale`), so the
results do not depend on the matrix's scale.
"""

from __future__ import annotations

import enum
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
    sample_unit,
)

__all__ = [
    "EstimateKind",
    "Method",
    "LipschitzEstimate",
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
class LipschitzEstimate:
    """One computed constant with its witness and provenance.

    `witness` is a UnitPair for the two infima and a single unit vector for
    the supremum.  `certified_band`, set only by the grid oracle in `oracle`,
    is an interval guaranteed to contain the true optimum.
    """

    value: float
    kind: EstimateKind
    p: int
    witness: "UnitPair | np.ndarray"
    method: Method
    certified_band: tuple[float, float] | None = None


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of the multi-start searches: five fields.

    `starts` is the number of random starts, `max_iters` the iteration
    budget of the Armijo ascent and p=2 descent, `subgradient_iters` that of
    the nonsmooth p=1 descent, `polish` enables the final simplex
    refinement, and `rng` pins the starts.  The line-search settings are
    module constants next to `_armijo`.  At d=2 every constant is solved
    exactly and no search setting applies.
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
                "max_iters": self.config.max_iters,
                "subgradient_iters": self.config.subgradient_iters,
                "seed": self.config.rng.seed,
                "stream": self.config.rng.stream,
                "generator": GENERATOR_NAME,
            },
        }


def _interleaved(w: np.ndarray, field: Field) -> list[float]:
    out: list[float] = []
    for z in np.asarray(w).ravel():
        z = complex(z)
        out.append(float(z.real))
        if field is Field.COMPLEX:
            out.append(float(z.imag))
    return out


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
# batched Riemannian line search
# ---------------------------------------------------------------------------

def _sq_norms(blocks) -> np.ndarray:
    """Row-wise squared norm of a tuple of blocks: per-block sums, then added."""
    return sum(np.sum(np.abs(G) ** 2, axis=1) for G in blocks)


# Line-search settings: the stopping test on the tangent gradient norm
# (relative to 1 + f), the first trial step, the backtracking factor and the
# Armijo sufficient-increase constant.
_GRADIENT_TOL = 1e-10
_STEP_INIT = 1.0
_STEP_SHRINK = 0.5
_ARMIJO = 1e-4


def _armijo(points, value, tangent, retract, sign: float, max_iters: int):
    """Batched Armijo search on a manifold, one start per row of each block.

    `points` is a tuple of (n, k) blocks: (U,) on the sphere, (U, V) for
    pairs.  `value(*points)` gives the n objective values, and
    `tangent(*points)` returns them together with the tangent gradient
    blocks.  Each trial step is mapped back by `retract(*blocks)` and
    accepted at the Armijo point (Absil, Mahony & Sepulchre, Optimization
    Algorithms on Matrix Manifolds, 2008, sec. 4.2).  sign = +1 ascends and
    -1 descends.  Updates `points` in place and returns the final values.
    """
    f = value(*points)
    n = f.shape[0]
    step = np.full(n, _STEP_INIT)
    alive = np.ones(n, dtype=bool)
    for _ in range(max_iters):
        fs, grads = tangent(*points)
        gnorm2 = _sq_norms(grads)
        active = alive & (gnorm2 > (_GRADIENT_TOL * (1.0 + fs)) ** 2)
        if not active.any():
            break
        step = np.minimum(step * 2.0, 1e6)
        improved = np.zeros(n, dtype=bool)
        for _bt in range(40):
            trial = np.where(active & ~improved)[0]
            if trial.size == 0:
                break
            move = sign * step[trial, None]
            cand = retract(*(P[trial] + move * G[trial] for P, G in zip(points, grads)))
            fc = value(*cand)
            ok = sign * fc >= sign * f[trial] + _ARMIJO * step[trial] * gnorm2[trial]
            for P, C in zip(points, cand):
                P[trial[ok]] = C[ok]
            f[trial[ok]] = fc[ok]
            improved[trial[ok]] = True
            step[trial[~ok]] *= _STEP_SHRINK
        # a start whose whole backtracking round failed is at the precision
        # floor of the line search; retire it instead of rescanning forever
        alive[active & ~improved] = False
        if not improved.any():
            break
    return f


def _ascend_fourth_moment(A: SensingMatrix, cfg: OptimizerConfig) -> tuple[float, np.ndarray]:
    arr = A.array
    U = sample_unit(A.field, A.d, cfg.rng.generator(), n=cfg.starts)

    def value(Umat):
        Y = np.abs(Umat @ arr.T) ** 2
        return (Y * Y).sum(axis=1)

    def tangent(Umat):
        Y = Umat @ arr.T
        Y2 = np.abs(Y) ** 2
        G = 2.0 * (Y2 * Y) @ arr.conj()
        # remove the full complex radial component; the objective is phase
        # invariant, so the phase direction carries no ascent either
        return (Y2 * Y2).sum(axis=1), (G - np.sum(np.conj(Umat) * G, axis=1, keepdims=True) * Umat,)

    def retract(Umat):
        return (Umat / np.linalg.norm(Umat, axis=1, keepdims=True),)

    f = _armijo((U,), value, tangent, retract, 1.0, cfg.max_iters)
    i = int(np.argmax(f))
    return float(f[i]), U[i].copy()


# ---------------------------------------------------------------------------
# batched pair descent for L and M
# ---------------------------------------------------------------------------

def _project_pair_tangent(U, V, Gu, Gv, field: Field, orthogonal: bool):
    """Remove the components of (Gu, Gv) normal to the constraint manifold."""
    def rip(a, b):
        return np.sum(np.conj(a) * b, axis=1, keepdims=True).real

    Gu = Gu - rip(U, Gu) * U
    Gv = Gv - rip(V, Gv) * V
    if field is Field.COMPLEX:
        # normal direction of Im<u, v> = 0 is (-i v, i u) / sqrt(2)
        c = (rip(-1j * V, Gu) + rip(1j * U, Gv)) / 2.0
        Gu = Gu - c * (-1j * V)
        Gv = Gv - c * (1j * U)
    if orthogonal:
        c = (rip(V, Gu) + rip(U, Gv)) / 2.0
        Gu = Gu - c * V
        Gv = Gv - c * U
    return Gu, Gv


def _retract_pair(U, V, field: Field, orthogonal: bool):
    U = U / np.linalg.norm(U, axis=1, keepdims=True)
    ip = np.sum(np.conj(U) * V, axis=1, keepdims=True)
    if orthogonal:
        V = V - ip * U
    elif field is Field.COMPLEX:
        V = V - 1j * ip.imag * U
    V = V / np.linalg.norm(V, axis=1, keepdims=True)
    return U, V


def _descend_pairs(A: SensingMatrix, p: int, orthogonal: bool, cfg: OptimizerConfig):
    arr = A.array
    g = cfg.rng.generator()
    U = sample_unit(A.field, A.d, g, n=cfg.starts)
    V = sample_unit(A.field, A.d, g, n=cfg.starts)
    U, V = _retract_pair(U, V, A.field, orthogonal)

    def value(Umat, Vmat):
        C = (np.conj(Umat @ arr.T) * (Vmat @ arr.T)).real
        return (np.abs(C) ** p).sum(axis=1)

    def tangent(Umat, Vmat):
        """Objective values and the projected (sub)gradient blocks."""
        Yu = Umat @ arr.T
        Yv = Vmat @ arr.T
        C = (np.conj(Yu) * Yv).real
        W = np.sign(C) if p == 1 else 2.0 * C
        G = _project_pair_tangent(
            Umat, Vmat, (W * Yv) @ arr.conj(), (W * Yu) @ arr.conj(), A.field, orthogonal
        )
        return (np.abs(C) ** p).sum(axis=1), G

    if p == 2:
        f = _armijo(
            (U, V), value, tangent,
            lambda Umat, Vmat: _retract_pair(Umat, Vmat, A.field, orthogonal), -1.0, cfg.max_iters,
        )
        i = int(np.argmin(f))
        return float(f[i]), U[i].copy(), V[i].copy()

    # diminishing steps t_k = scale / (|g_k| sqrt(k)), one tangent call per step
    fv, (Gu, Gv) = tangent(U, V)
    gn = np.maximum(np.sqrt(_sq_norms((Gu, Gv))), 1e-30)
    best_f, best_U, best_V = fv, U.copy(), V.copy()
    scale = 0.1 * fv / gn
    for k in range(1, cfg.subgradient_iters + 1):
        t = scale / (gn * math.sqrt(k))
        U, V = _retract_pair(U - t[:, None] * Gu, V - t[:, None] * Gv, A.field, orthogonal)
        fv, (Gu, Gv) = tangent(U, V)
        gn = np.maximum(np.sqrt(_sq_norms((Gu, Gv))), 1e-30)
        better = fv < best_f
        best_f[better] = fv[better]
        best_U[better] = U[better]
        best_V[better] = V[better]
    i = int(np.argmin(best_f))
    return float(best_f[i]), best_U[i].copy(), best_V[i].copy()


# ---------------------------------------------------------------------------
# polish passes
# ---------------------------------------------------------------------------

def _pack(w: np.ndarray, field: Field) -> np.ndarray:
    if field is Field.COMPLEX:
        return np.concatenate([w.real, w.imag])
    return np.asarray(w, dtype=np.float64)


def _unpack(z: np.ndarray, d: int, field: Field) -> np.ndarray:
    if field is Field.COMPLEX:
        return z[:d] + 1j * z[d : 2 * d]
    return z[:d]


# A Gram-Schmidt pass that cancels all but 1/_GS_REPEAT of v leaves |<u, v>|
# of up to about _GS_REPEAT * eps once v is normalized, so past that ratio
# the pass is repeated (Kahan's "twice is enough", in Parlett, The Symmetric
# Eigenvalue Problem, 1980).
_GS_REPEAT = 1e3


def _feasible_pair(zu, zv, d, field, orthogonal):
    u = _unpack(zu, d, field)
    nu = np.linalg.norm(u)
    if nu == 0:
        return None
    u = u / nu
    v = _unpack(zv, d, field)
    for _ in range(2):
        ip = np.vdot(u, v)
        if orthogonal:
            v = v - ip * u
            removed = abs(ip)
        elif field is Field.COMPLEX:
            v = v - 1j * ip.imag * u
            removed = abs(ip.imag)
        else:
            removed = 0.0
        nv = np.linalg.norm(v)
        if nv == 0:
            return None
        if removed <= _GS_REPEAT * nv:
            break
    return u, v / nv


def _polish_pair_ambient(A, p, u0, v0, orthogonal):
    from scipy import optimize  # half a second to import; only the polish needs it

    d, field = A.d, A.field
    w = d if field is Field.REAL else 2 * d

    def fobj(z):
        pair = _feasible_pair(z[:w], z[w:], d, field, orthogonal)
        if pair is None:
            return 1e300
        return pair_objective(A, pair[0], pair[1], p) ** p

    z0 = np.concatenate([_pack(u0, field), _pack(v0, field)])
    res = optimize.minimize(
        fobj, z0, method="Nelder-Mead",
        options={"xatol": 1e-13, "fatol": 1e-15, "maxiter": 400 * (2 * w), "maxfev": 400 * (2 * w)},
    )
    pair = _feasible_pair(res.x[:w], res.x[w:], d, field, orthogonal)
    if pair is None:
        return None
    return float(res.fun), pair[0], pair[1]


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def upper_lipschitz(A: SensingMatrix, p: int, cfg: OptimizerConfig | None = None) -> LipschitzEstimate:
    """The optimal upper constant U, the squared 2 -> 2p operator norm.

    p=1 reduces to the top eigenvalue of A*A, and at d=2 p=2 is a
    trust-region subproblem in the planar coordinates; both are solved
    exactly (method ClosedForm).  Otherwise p=2 runs multi-start projected
    gradient ascent of the fourth-moment sum over the unit sphere.
    """
    p = _check_p(p)
    cfg = cfg or OptimizerConfig()
    _nonzero_matrix(A)
    A, k = _unit_scale(A)

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
        fbest, witness = _ascend_fourth_moment(A, cfg)
        value = fbest ** (1.0 / p)
        method = Method.MULTI_START_LOCAL
    return _rescaled(LipschitzEstimate(value, EstimateKind.UPPER_U, p, witness, method), k)


def _lower_estimate(A: SensingMatrix, p: int, cfg: OptimizerConfig, orthogonal: bool) -> LipschitzEstimate:
    p = _check_p(p)
    _nonzero_matrix(A)
    if orthogonal and A.d < 2:
        raise ValueError("orthogonal pairs need dimension d >= 2")
    A, k = _unit_scale(A)

    if A.d == 2:
        solve = planar.exact_lower_p1 if p == 1 else planar.exact_lower_p2
        power, u, v = solve(A, orthogonal)
        value = pair_objective(A, u, v, p)
        planar._check_witness(power, value ** p, "exact planar lower")
        method = Method.CLOSED_FORM
    else:
        fbest, u, v = _descend_pairs(A, p, orthogonal, cfg)
        if cfg.polish:
            cand = _polish_pair_ambient(A, p, u, v, orthogonal)
            if cand is not None and cand[0] < fbest:
                fbest, u, v = cand
        value = fbest ** (1.0 / p)
        method = Method.MULTI_START_LOCAL

    if value < ZERO_CLAMP:
        value = 0.0
    constraint = Constraint.ORTHOGONAL if orthogonal else Constraint.REAL_INNER
    witness = UnitPair(A.field, u, v, constraint)
    witness.validate()
    kind = EstimateKind.ORTHOGONAL_M if orthogonal else EstimateKind.LOWER_L
    return _rescaled(LipschitzEstimate(value, kind, p, witness, method), k)


def lower_lipschitz(A: SensingMatrix, p: int, cfg: OptimizerConfig | None = None) -> LipschitzEstimate:
    """The optimal lower constant L over pairs with real inner product.

    At d=2 it is solved exactly (method ClosedForm) whatever the search
    settings: at p=2, L^2 is the smallest eigenvalue of a 2x2 (real) or 3x3
    (complex) matrix in the planar coordinates, and at p=1, L is the least
    value over the finitely many vertices of `planar.exact_lower_p1`.
    Otherwise it runs multi-start projected gradient on the product of unit
    spheres, with the tangent projection additionally cancelling motion
    that would violate Im<u, v> = 0 (vacuous over the reals).  p=1 uses
    diminishing-step subgradient descent; both p end with a simplex polish.
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


def is_tight_4_frame(A: SensingMatrix, tol: float = 1e-6) -> TightFrameCheck:
    """Exact test whether sum_j |<a_j, x>|^4 is constant over the unit sphere.

    With W the m x d^2 matrix whose row j is vec(a_j a_j^T), the quartic is
    z^H K z at z = vec(x x^T), where K = W^H W.  |x|^4 is z^H S z for the
    d^2 x d^2 form S = (d_ik d_jl + d_il d_jk + d_ij d_kl)/3 over the reals
    and (d_ik d_jl + d_il d_jk)/2 over the complex field, and the quartic is
    constant exactly when K is a multiple of S.  The sphere average is
    tr K / ||S||_F^2, and the frame is tight when the relative residual
    ||K - mean S||_F / ||K||_F is at most `tol`.  Since ||K||_F^2 =
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
    return TightFrameCheck(bool(residual <= tol), mean, residual)
