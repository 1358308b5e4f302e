"""Exact constants and inequalities available in closed form.

Four families live here: universal lower bounds on the condition number
beta (nothing any sensing matrix can beat), the harmonic-frame constants
(L, U, beta for the planar equiangular frame, where everything is known
exactly), the expectation curves of |Re(u* a a* v)| for Gaussian a, and two
deterministic inequality evaluators used by tail checks and the identity
suite.  Everything is a pure function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Field

__all__ = [
    "BoundSpec",
    "HarmonicConstants",
    "universal_lower_bound",
    "harmonic_constants",
    "gaussian_abs_expectation",
    "two_to_four_norm_bound",
    "fourth_moment_floor",
    "sub_tan_bound",
    "SQRT3",
]

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class BoundSpec:
    """A universal lower bound on beta, tagged with where it comes from.

    `source` is a stable machine tag naming the bound family, not prose.
    `m` is set only when the bound depends on the number of measurements.
    """

    field: Field
    p: int
    m: int | None
    value: float
    source: str


@dataclass(frozen=True)
class HarmonicConstants:
    """Exact Lipschitz data of the planar harmonic frame at one (m, p)."""

    m: int
    p: int
    L: float
    L_orth: float
    U: float
    beta: float


def universal_lower_bound(field: Field, p: int, m: int | None = None) -> BoundSpec:
    """Best known lower bound on beta over all matrices of the given field.

    Parameters
    ----------
    field : Field
    p : {1, 2}
        Which sequence norm the constants are measured in.
    m : int, optional
        Number of measurements.  Only the real p=1 bound improves with m
        (to m*tan(pi/2m), decreasing toward pi/2); it needs m >= 3, and
        smaller m fall back to the m-free value.

    Returns
    -------
    BoundSpec
    """
    p = _check_p(p)
    if p == 2:
        if field is Field.REAL:
            return BoundSpec(field, p, None, SQRT3, "l2-real")
        return BoundSpec(field, p, None, 2.0, "l2-complex")
    if field is Field.COMPLEX:
        return BoundSpec(field, p, None, 2.0, "l1-complex")
    if m is not None and int(m) >= 3:
        m = int(m)
        return BoundSpec(field, p, m, m * math.tan(math.pi / (2 * m)), "l1-real-refined")
    return BoundSpec(field, p, None, math.pi / 2.0, "l1-real")


def harmonic_constants(m: int, p: int) -> HarmonicConstants:
    """Exact L, L_orth, U, beta of the harmonic frame with m rows.

    For p=2 the frame is perfectly conditioned among planar real matrices:
    L = sqrt(m/8), U = sqrt(3m/8), beta = sqrt(3) for every m.  For p=1 the
    parity of m matters; odd m has a strict gap between the orthogonal
    minimum and the free one (factor cos(pi/2m)), even m has none.

    Raises
    ------
    ValueError
        If m < 3 (the frame itself needs three directions) or p not in {1, 2}.
    """
    m = int(m)
    if m < 3:
        raise ValueError(f"harmonic constants need m >= 3, got {m}")
    p = _check_p(p)
    if p == 2:
        L = math.sqrt(m / 8.0)
        return HarmonicConstants(m, p, L, L, math.sqrt(3.0 * m / 8.0), SQRT3)
    U = m / 2.0
    if m % 2:
        half = math.pi / (2 * m)
        L_orth = 1.0 / (2.0 * math.tan(half))
        L = math.cos(half) * L_orth
        beta = m * math.tan(half) / math.cos(half)
    else:
        L = L_orth = 1.0 / math.tan(math.pi / m)
        beta = (m / 2.0) * math.tan(math.pi / m)
    return HarmonicConstants(m, p, L, L_orth, U, beta)


def gaussian_abs_expectation(field: Field, theta: float) -> float:
    """E |Re(u* a a* v)| for Gaussian a and unit u, v at angle theta.

    theta in [0, pi/2] is the principal angle, cos(theta) = <u, v>.  The
    real curve is (2/pi) (sin t + (pi/2 - t) cos t), minimized at pi/2 with
    value 2/pi; the complex curve is (3 + cos 2t)/4, minimized at 1/2.
    """
    theta = float(theta)
    if not (0.0 <= theta <= math.pi / 2.0 + 1e-12):
        raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
    if field is Field.REAL:
        return (2.0 / math.pi) * (math.sin(theta) + (math.pi / 2.0 - theta) * math.cos(theta))
    return (3.0 + math.cos(2.0 * theta)) / 4.0


def two_to_four_norm_bound(m: int, d: int, t: float) -> float:
    """High-probability ceiling (3m)^(1/4) + sqrt(d) + t on the 2->4 norm.

    For a standard Gaussian m x d matrix the norm exceeds this with
    probability at most 2 exp(-t^2 / 2).
    """
    m, d = int(m), int(d)
    if m < 1 or d < 1:
        raise ValueError("m and d must be positive")
    t = float(t)
    if t < 0:
        raise ValueError("t must be nonnegative")
    return (3.0 * m) ** 0.25 + math.sqrt(d) + t


def fourth_moment_floor(u: np.ndarray, v: np.ndarray) -> float:
    """Deterministic floor |u|^2 |v|^2 + 2 (u.v)^2 on the mixed fourth moment.

    This is the population value of (1/m) sum_j (a_j.u)^2 (a_j.v)^2 for real
    Gaussian rows, which empirical averages concentrate above (up to the
    fluctuation term that carries the failure probability).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("u and v must be real vectors of one shared length")
    uv = float(u @ v)
    return float((u @ u) * (v @ v) + 2.0 * uv * uv)


def sub_tan_bound(t_squares) -> float:
    """Right-hand side sum(t_i^2) / (m tan(pi/2m)) of the weighted-sine bound.

    The minimum over theta of sum t_i^2 |sin(theta - phi_i)| never exceeds
    this, whatever the angles phi_i.  At m = 1 the tangent pole makes the
    bound 0 (the single term vanishes at its own angle, so it is sharp).
    """
    ts = np.asarray(list(t_squares), dtype=np.float64)
    if ts.size == 0:
        raise ValueError("t_squares must be nonempty")
    if np.any(ts < 0):
        raise ValueError("t_squares must be nonnegative")
    m = ts.size
    if m == 1:
        return 0.0
    return float(ts.sum() / (m * math.tan(math.pi / (2 * m))))


def _check_p(p: int) -> int:
    if p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {p!r}")
    return int(p)
