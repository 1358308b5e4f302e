"""Output checks that do not trust prcond.

Every function here recomputes what it checks with plain numpy, or states a
property from the paper in its own words: the objectives, the universal
floors on beta, the harmonic-frame constants and the exact planar p=2 lower
constant are all written out below rather than imported from
`prcond.closedform`, `prcond.lipschitz` or `prcond.oracle`.  Each check
returns a list of problems; an empty list means the output passed.

Matrices are plain (m, d) arrays of stored rows: row j applied to x by a dot
product gives the measurement <a_j, x>, as in `prcond.core.SensingMatrix`.
"""

from __future__ import annotations

import math

import numpy as np

WITNESS_REL = 1e-8      # objective reproduced at a returned witness
UNIT_TOL = 1e-10        # witness norms
INNER_TOL = 1e-9        # imaginary part of <u, v> for a feasible pair
EIG_REL = 1e-9          # p=1 upper constant against numpy's eigenvalue
FLOOR_SLACK = 1e-4      # beta may sit this far below the paper's floor
HARMONIC_ABS = 1e-6     # CLI results on harmonic frames
BAND_REL = 1e-9         # an exact value against a certified band
RANDOM_POINTS = 256     # random feasible points that must not beat L or U


# ---------------------------------------------------------------------------
# the paper's quantities, written out
# ---------------------------------------------------------------------------

def pair_value(arr: np.ndarray, u: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """(sum_j |Re(conj(<a_j,u>) <a_j,v>)|^p)^(1/p); u, v may be (n, d) batches."""
    c = (np.conj(np.asarray(u) @ arr.T) * (np.asarray(v) @ arr.T)).real
    return (np.abs(c) ** p).sum(axis=-1) ** (1.0 / p)


def upper_value(arr: np.ndarray, u: np.ndarray, p: int) -> np.ndarray:
    """(sum_j |<a_j,u>|^(2p))^(1/p); u may be an (n, d) batch."""
    y = np.abs(np.asarray(u) @ arr.T)
    return (y ** (2 * p)).sum(axis=-1) ** (1.0 / p)


def beta_floor(is_complex: bool, p: int, m: int) -> float:
    """The smallest condition number any m x d matrix can have.

    m tan(pi/2m) for real p=1, sqrt(3) for real p=2, and 2 over the complex
    field for both norms.
    """
    if is_complex:
        return 2.0
    if p == 2:
        return math.sqrt(3.0)
    return m * math.tan(math.pi / (2 * m))


def harmonic_values(m: int, p: int) -> tuple[float, float, float]:
    """Exact (L, U, beta) of the m-row planar harmonic frame.

    p=2: L = sqrt(m/8), U = sqrt(3m/8), beta = sqrt(3).  p=1: U = m/2, and
    L = cos(pi/2m) / (2 tan(pi/2m)) for odd m, L = 1 / tan(pi/m) for even m.
    """
    if p == 2:
        return math.sqrt(m / 8.0), math.sqrt(3.0 * m / 8.0), math.sqrt(3.0)
    half = math.pi / (2 * m)
    L = math.cos(half) / (2.0 * math.tan(half)) if m % 2 else 1.0 / math.tan(math.pi / m)
    return L, m / 2.0, (m / 2.0) / L


def planar_exact_l_p2(arr: np.ndarray) -> float:
    """The exact p=2 lower constant of a 2-column matrix.

    Each row s gives a weight kappa = |s|^2 / 2 and a unit 3-vector
    n = (|s0|^2 - |s1|^2, 2 Re(conj(s0) s1), 2 Im(conj(s0) s1)) / |s|^2.  A
    feasible pair becomes a point (r, y) of [0, 1] x S^2 (the equator S^1 over
    the reals) with objective sum kappa^2 (r + <n, y>)^2.  Minimising over r
    leaves the quadratic form of Q - b b^T / S, with Q = sum kappa^2 n n^T,
    b = sum kappa^2 n and S = sum kappa^2, so L^2 is its smallest eigenvalue,
    clamped at 0.
    """
    s = np.asarray(arr, dtype=np.complex128)
    t2 = (np.abs(s) ** 2).sum(axis=1)
    keep = t2 > 0
    s, t2 = s[keep], t2[keep]
    cross = np.conj(s[:, 0]) * s[:, 1]
    n = np.stack(
        [(np.abs(s[:, 0]) ** 2 - np.abs(s[:, 1]) ** 2) / t2,
         2.0 * cross.real / t2, 2.0 * cross.imag / t2], axis=1)
    if not np.iscomplexobj(arr):
        n = n[:, :2]
    w = (t2 / 2.0) ** 2
    Q = (n * w[:, None]).T @ n
    b = n.T @ w
    lam = float(np.linalg.eigvalsh(Q - np.outer(b, b) / w.sum())[0])
    return math.sqrt(max(lam, 0.0))


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


def in_band(x: float, band, below: float, above: float) -> bool:
    """lo - below <= x <= hi + above for band = (lo, hi)."""
    lo, hi = band
    return lo - below <= x <= hi + above


def random_units(rng: np.random.Generator, d: int, is_complex: bool, n: int) -> np.ndarray:
    w = rng.standard_normal((n, d))
    if is_complex:
        w = w + 1j * rng.standard_normal((n, d))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def random_feasible_pairs(rng, d: int, is_complex: bool, n: int):
    """Unit pairs (u, v) with <u, v> real: complex v is turned by the phase of <u, v>."""
    U = random_units(rng, d, is_complex, n)
    V = random_units(rng, d, is_complex, n)
    if is_complex:
        V = V * np.exp(-1j * np.angle(np.sum(np.conj(U) * V, axis=1)))[:, None]
    return U, V


def _unit(w: np.ndarray) -> bool:
    return abs(float(np.linalg.norm(w)) - 1.0) <= UNIT_TOL


def _real_typed(w: np.ndarray, is_complex: bool) -> bool:
    return is_complex or not np.iscomplexobj(w) or not np.any(np.imag(w))


def lower_witness_problems(arr, p: int, L: float, u, v, tag: str) -> list[str]:
    """L is attained at a feasible pair (u, v)."""
    is_complex = np.iscomplexobj(arr)
    u, v = np.asarray(u), np.asarray(v)
    out = []
    if not (_unit(u) and _unit(v)):
        out.append(f"{tag}: L witness is not a unit pair")
    if abs(complex(np.vdot(u, v)).imag) > INNER_TOL:
        out.append(f"{tag}: L witness has complex <u, v>")
    if not (_real_typed(u, is_complex) and _real_typed(v, is_complex)):
        out.append(f"{tag}: L witness is complex for a real matrix")
    direct = float(pair_value(arr, u, v, p))
    if not close(L, direct, WITNESS_REL):
        out.append(f"{tag}: L={L!r} but its witness gives {direct!r}")
    return out


def upper_witness_problems(arr, p: int, U: float, u, tag: str) -> list[str]:
    """U is attained at a unit vector u."""
    is_complex = np.iscomplexobj(arr)
    u = np.asarray(u)
    out = []
    if not _unit(u):
        out.append(f"{tag}: U witness is not a unit vector")
    if not _real_typed(u, is_complex):
        out.append(f"{tag}: U witness is complex for a real matrix")
    direct = float(upper_value(arr, u, p))
    if not close(U, direct, WITNESS_REL):
        out.append(f"{tag}: U={U!r} but its witness gives {direct!r}")
    return out


def random_point_problems(arr, p: int, L: float, U: float, rng, tag: str) -> list[str]:
    """No random feasible pair beats L, and no random unit vector beats U."""
    d = arr.shape[1]
    is_complex = np.iscomplexobj(arr)
    out = []
    Up, Vp = random_feasible_pairs(rng, d, is_complex, RANDOM_POINTS)
    low = float(pair_value(arr, Up, Vp, p).min())
    if L > low * (1.0 + 1e-12):
        out.append(f"{tag}: L={L!r} above a random feasible pair's {low!r}")
    high = float(upper_value(arr, random_units(rng, d, is_complex, RANDOM_POINTS), p).max())
    if U < high * (1.0 - 1e-12):
        out.append(f"{tag}: U={U!r} below a random unit vector's {high!r}")
    return out


def beta_problems(beta, is_complex: bool, p: int, m: int, tag: str) -> list[str]:
    if beta is None or not math.isfinite(beta):
        return [f"{tag}: beta={beta!r} is not finite"]
    floor = beta_floor(is_complex, p, m)
    if beta < floor - FLOOR_SLACK:
        return [f"{tag}: beta={beta!r} below the floor {floor!r}"]
    return []


def interleaved_vector(values, is_complex: bool) -> np.ndarray:
    """A witness as prcond's JSON writes it: re, im, re, im ... when complex."""
    a = np.asarray(values, dtype=np.float64)
    return a[0::2] + 1j * a[1::2] if is_complex else a
