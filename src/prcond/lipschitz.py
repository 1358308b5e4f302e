"""Optimal Lipschitz constants of the intensity map.

The three quantities of interest for a sensing matrix A and p in {1, 2} are

    U = sup  ( sum_j |<a_j, u>|^(2p) )^(1/p)        over unit u,
    L = inf  ( sum_j |Re(conj(<a_j,u>) <a_j,v>)|^p )^(1/p)
                                    over unit u, v with <u, v> real,
    M = the same infimum restricted to <u, v> = 0,

and the condition number beta = U / L.  Two cases are solved exactly
(method ClosedForm): U at p=1 is the largest eigenvalue of A*A, and at
d=2, p=2 all three constants are small eigenvalue problems in the planar
coordinates of `planar`.  Everything else is nonconvex, so this module
runs batched multi-start projected gradient (descent or ascent) on the
constraint manifold, with a subgradient phase for the kinked p=1 objective
and a simplex polish.  The ascent and the p=2 descent share one Armijo
line search.

Multi-start cannot certify global optimality for d > 2; estimates say so
through their `method` tag.  On planar matrices (d=2) the grid oracle in
`oracle` gives the honest substitute, a certified band.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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
    """Knobs for the multi-start searches.

    `subgradient_iters` applies only to the nonsmooth p=1 descent.
    `polish` enables the final simplex refinement (and, at d=2, refinement
    in the reduced planar coordinates).  At d=2, p=2 the constants are
    solved exactly and no search knob applies.
    """

    starts: int = 64
    max_iters: int = 500
    gradient_tolerance: float = 1e-10
    step_init: float = 1.0
    step_shrink: float = 0.5
    armijo: float = 1e-4
    subgradient_iters: int = 5000
    polish: bool = True
    rng: RngSpec = RngSpec(20240817, 0)

    def __post_init__(self) -> None:
        if self.starts < 1:
            raise ValueError("starts must be at least 1")
        if self.max_iters < 1 or self.subgradient_iters < 1:
            raise ValueError("iteration budgets must be positive")
        if min(self.gradient_tolerance, self.step_init, self.armijo) <= 0:
            raise ValueError("tolerances and step parameters must be positive")
        if not (0 < self.step_shrink < 1):
            raise ValueError("step_shrink must lie in (0, 1)")


@dataclass(frozen=True)
class TightFrameCheck:
    """Outcome of probing sum_j |<a_j, x>|^4 for constancy on the sphere."""

    is_tight: bool
    low: float
    high: float
    mean: float


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


# ---------------------------------------------------------------------------
# batched Riemannian line search
# ---------------------------------------------------------------------------

def _sq_norms(blocks) -> np.ndarray:
    """Row-wise squared norm of a tuple of blocks: per-block sums, then added."""
    return sum(np.sum(np.abs(G) ** 2, axis=1) for G in blocks)


def _armijo(points, value, direction, retract, sign: float, cfg: OptimizerConfig):
    """Batched Armijo search on a manifold, one start per row of each block.

    `points` is a tuple of (n, k) blocks: (U,) on the sphere, (U, V) for
    pairs.  `value(*points)` gives the n objective values, and
    `direction(points, f)` returns the values that scale the stopping test
    together with the tangent gradient blocks.  Each trial step is mapped
    back by `retract(*blocks)` and accepted at the Armijo point (Absil,
    Mahony & Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008,
    sec. 4.2).  sign = +1 ascends and -1 descends.  Updates `points` in
    place and returns the final values.
    """
    f = value(*points)
    n = f.shape[0]
    step = np.full(n, cfg.step_init)
    alive = np.ones(n, dtype=bool)
    for _ in range(cfg.max_iters):
        fs, grads = direction(points, f)
        gnorm2 = _sq_norms(grads)
        active = alive & (gnorm2 > (cfg.gradient_tolerance * (1.0 + fs)) ** 2)
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
            ok = sign * fc >= sign * f[trial] + cfg.armijo * step[trial] * gnorm2[trial]
            for P, C in zip(points, cand):
                P[trial[ok]] = C[ok]
            f[trial[ok]] = fc[ok]
            improved[trial[ok]] = True
            step[trial[~ok]] *= cfg.step_shrink
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

    def direction(points, f):
        (Umat,) = points
        Y = Umat @ arr.T
        G = 2.0 * ((np.abs(Y) ** 2) * Y) @ arr.conj()
        # remove the full complex radial component; the objective is phase
        # invariant, so the phase direction carries no ascent either
        return f, (G - np.sum(np.conj(Umat) * G, axis=1, keepdims=True) * Umat,)

    def retract(Umat):
        return (Umat / np.linalg.norm(Umat, axis=1, keepdims=True),)

    f = _armijo((U,), value, direction, retract, 1.0, cfg)
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
            (U, V), value, lambda points, f: tangent(*points),
            lambda Umat, Vmat: _retract_pair(Umat, Vmat, A.field, orthogonal), -1.0, cfg,
        )
        i = int(np.argmin(f))
        return float(f[i]), U[i].copy(), V[i].copy()

    best_f = value(U, V)
    best_U, best_V = U.copy(), V.copy()
    scale = 0.1 * best_f / np.maximum(np.sqrt(_sq_norms(tangent(U, V)[1])), 1e-30)
    for k in range(1, cfg.subgradient_iters + 1):
        fv, (Gu, Gv) = tangent(U, V)
        gn = np.sqrt(_sq_norms((Gu, Gv)))
        better = fv < best_f
        if better.any():
            best_f[better] = fv[better]
            best_U[better] = U[better]
            best_V[better] = V[better]
        t = scale / (np.maximum(gn, 1e-30) * math.sqrt(k))
        U = U - t[:, None] * Gu
        V = V - t[:, None] * Gv
        U, V = _retract_pair(U, V, A.field, orthogonal)
    fv = value(U, V)
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


def _polish_pair_planar(A, u0, v0, orthogonal):
    """Refine a p=1 pair in the reduced planar coordinates and rebuild it."""
    from scipy import optimize

    kap, M = planar._bloch_rows(A)
    r0, y0 = planar._point_from_pair(u0, v0)
    if orthogonal:
        r0 = 0.0

    if A.field is Field.REAL:
        xi0 = math.atan2(y0[1], y0[0])

        def fobj(z):
            r = 0.0 if orthogonal else min(max(z[0], 0.0), 1.0)
            y = np.array([math.cos(z[-1]), math.sin(z[-1]), 0.0])
            return float((kap * np.abs(r + M @ y)).sum())

        z0 = np.array([xi0]) if orthogonal else np.array([r0, xi0])
    else:
        th0 = math.acos(min(max(y0[0], -1.0), 1.0))
        ga0 = math.atan2(y0[2], y0[1])

        def fobj(z):
            r = 0.0 if orthogonal else min(max(z[0], 0.0), 1.0)
            th, ga = z[-2], z[-1]
            y = np.array(
                [math.cos(th), math.sin(th) * math.cos(ga), math.sin(th) * math.sin(ga)]
            )
            return float((kap * np.abs(r + M @ y)).sum())

        z0 = np.array([th0, ga0]) if orthogonal else np.array([r0, th0, ga0])

    res = optimize.minimize(
        fobj, z0, method="Nelder-Mead",
        options={"xatol": 1e-14, "fatol": 1e-16, "maxiter": 4000, "maxfev": 4000},
    )
    z = res.x
    r = 0.0 if orthogonal else min(max(z[0], 0.0), 1.0)
    if A.field is Field.REAL:
        y = np.array([math.cos(z[-1]), math.sin(z[-1]), 0.0])
    else:
        th, ga = z[-2], z[-1]
        y = np.array([math.cos(th), math.sin(th) * math.cos(ga), math.sin(th) * math.sin(ga)])
    u, v = planar._pair_from_point(r, y, A.field)
    return float(res.fun), u, v


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
    return LipschitzEstimate(value, EstimateKind.UPPER_U, p, witness, method)


def _lower_estimate(A: SensingMatrix, p: int, cfg: OptimizerConfig, orthogonal: bool) -> LipschitzEstimate:
    p = _check_p(p)
    _nonzero_matrix(A)
    if orthogonal and A.d < 2:
        raise ValueError("orthogonal pairs need dimension d >= 2")

    if p == 2 and A.d == 2:
        square, u, v = planar.exact_lower_p2(A, orthogonal)
        value = pair_objective(A, u, v, p)
        planar._check_witness(square, value ** 2, "exact planar lower")
        method = Method.CLOSED_FORM
    else:
        fbest, u, v = _descend_pairs(A, p, orthogonal, cfg)
        if cfg.polish:
            candidates = [_polish_pair_ambient(A, p, u, v, orthogonal)]
            if A.d == 2:
                candidates.append(_polish_pair_planar(A, u, v, orthogonal))
            for cand in candidates:
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
    return LipschitzEstimate(value, kind, p, witness, method)


def lower_lipschitz(A: SensingMatrix, p: int, cfg: OptimizerConfig | None = None) -> LipschitzEstimate:
    """The optimal lower constant L over pairs with real inner product.

    At d=2, p=2, L^2 is the smallest eigenvalue of a 2x2 (real) or 3x3
    (complex) matrix in the planar coordinates, solved exactly (method
    ClosedForm) whatever the search settings.  Otherwise it runs multi-start
    projected gradient on the product of unit spheres, with the tangent
    projection additionally cancelling motion that would violate
    Im<u, v> = 0 (vacuous over the reals).  p=1 uses diminishing-step
    subgradient descent followed by a simplex polish; at d=2 the polish runs
    in the reduced planar coordinates, which is where the final accuracy
    comes from.
    """
    return _lower_estimate(A, p, cfg or OptimizerConfig(), orthogonal=False)


def orthogonal_lower_bound(A: SensingMatrix, p: int, cfg: OptimizerConfig | None = None) -> LipschitzEstimate:
    """The infimum M over orthogonal unit pairs; never below L.

    Solved like `lower_lipschitz`, exactly at d=2, p=2.
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
    even though the computed L may still be positive there.
    """
    p = _check_p(p)
    cfg = cfg or OptimizerConfig()
    _nonzero_matrix(A)

    lower = lower_lipschitz(A, p, cfg)
    upper = upper_lipschitz(A, p, cfg)
    flags: list[str] = []
    if A.m < _injectivity_threshold(A.field, A.d):
        flags.append(NO_PHASE_RETRIEVAL_FLAG)
    if lower.value <= BETA_THRESHOLD * upper.value:
        beta = math.inf
        if NO_PHASE_RETRIEVAL_FLAG not in flags:
            flags.append(NO_PHASE_RETRIEVAL_FLAG)
    else:
        beta = upper.value / lower.value
    bound = universal_lower_bound(A.field, p, A.m).value
    return ConditionReport(
        p=p, field=A.field, m=A.m, d=A.d,
        L=lower.value, U=upper.value, beta=beta,
        theoretical_lower_bound=bound,
        flags=tuple(flags), lower=lower, upper=upper, config=cfg,
    )


def is_tight_4_frame(A: SensingMatrix, samples: int = 1000, tol: float = 1e-6) -> TightFrameCheck:
    """Probe whether sum_j |<a_j, x>|^4 is constant over the unit sphere.

    Evaluates the fourth-moment sum at `samples` uniform unit vectors (plus
    a dense angle sweep when d=2 and real) and accepts when the relative
    spread (max - min)/mean stays below `tol`.  Sampling uses a fixed
    internal stream so repeated calls agree.
    """
    if samples < 100:
        raise ValueError("need at least 100 sample points")
    g = RngSpec(87187245, 0).generator()
    X = sample_unit(A.field, A.d, g, n=int(samples))
    vals = (np.abs(X @ A.array.T) ** 4).sum(axis=1)
    if A.d == 2 and A.field is Field.REAL:
        ang = np.linspace(0.0, np.pi, 10_000, endpoint=False)
        sweep = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        vals = np.concatenate([vals, (np.abs(sweep @ A.array.T) ** 4).sum(axis=1)])
    low, high, mean = float(vals.min()), float(vals.max()), float(vals.mean())
    spread = (high - low) / mean if mean > 0 else math.inf
    return TightFrameCheck(bool(spread <= tol), low, high, mean)
