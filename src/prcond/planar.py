"""Planar coordinates of the Lipschitz problems and their exact solutions.

At d=2 every measurement's rank-one matrix has coordinates kappa_i (half
the squared row norm) and a unit 3-vector m_i, and every feasible unit pair
(u, v) with real inner product r = <u, v> maps to a unit 3-vector y with

    |Re(conj(<a_i,u>) <a_i,v>)| = kappa_i |r + <m_i, y>|.

The map is onto [0, 1] x S^2 (rank-one algebra forces |y| = 1 exactly, for
every r), orthogonal pairs are exactly the r = 0 slice, and real-field
pairs are the equatorial slice.  The supremum works the same way through
|<a_i,u>|^2 = kappa_i (1 + <m_i, w>) for a unit 3-vector w.  Witnesses are
rebuilt from optimal parameters by factoring the rank-one matrix they
encode.

At p=2 the objectives are quadratics in these coordinates.  With
kp = kappa^2, Q = sum kp_i m_i m_i^T, b = sum kp_i m_i and S = sum kp_i,

    L^2 = lambda_min(Q - b b^T / S)     (the best r is -<b, y> / S),
    M^2 = lambda_min(Q)                 (r = 0),
    U^2 = S + max over |w| = 1 of (w^T Q w + 2 <b, w>),

the last a trust-region subproblem on the sphere.  Over the reals only the
two equatorial coordinates take part: the third is identically zero there,
so the full 3x3 lambda_min would be 0.

At p=1 the lower objective sum kappa_i |r + <m_i, y>| is piecewise linear,
and its minimum sits at one of finitely many vertices, which
`exact_lower_p1` enumerates.  (U at p=1 is an eigenvalue in any dimension.)
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConsistencyError, Field, SensingMatrix

__all__ = ["exact_lower_p1", "exact_lower_p2", "exact_upper_p2"]


def _bloch_rows(A: SensingMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-row weights kappa_i and unit coordinate vectors m_i.

    Row norms t_i give kappa_i = t_i^2 / 2; m_i are the coordinates of the
    measurement's rank-one matrix in a fixed orthonormal frame of traceless
    Hermitian 2x2 matrices.  Zero rows get kappa = 0 and an arbitrary axis.
    """
    s = A.array.astype(np.complex128, copy=False)
    t2 = (np.abs(s) ** 2).sum(axis=1)
    safe = np.where(t2 > 0, t2, 1.0)
    cross = np.conj(s[:, 0]) * s[:, 1]
    M = np.stack(
        [
            (np.abs(s[:, 0]) ** 2 - np.abs(s[:, 1]) ** 2) / safe,
            2.0 * cross.real / safe,
            2.0 * cross.imag / safe,
        ],
        axis=1,
    )
    M[t2 == 0] = (1.0, 0.0, 0.0)
    return t2 / 2.0, M


def _bloch_vector(w: np.ndarray, field: Field) -> np.ndarray:
    """The unit vector in H^2 whose rank-one coordinates are w."""
    z, x, y = float(w[0]), float(w[1]), -float(w[2])
    th = math.acos(min(max(z, -1.0), 1.0))
    ph = math.atan2(y, x)
    if field is Field.REAL:
        u = np.array([math.cos(th / 2.0), math.copysign(math.sin(th / 2.0), math.cos(ph))])
        return u
    return np.array([math.cos(th / 2.0), math.sin(th / 2.0) * np.exp(1j * ph)])


def _pair_from_point(r: float, y: np.ndarray, field: Field) -> tuple[np.ndarray, np.ndarray]:
    """Rebuild a feasible unit pair (u, v) with <u, v> = r from (r, y).

    The parameters encode the rank-one matrix v u^* with real trace r; its
    coordinate vector has real part y/2 and an orthogonal imaginary part of
    norm sqrt(1 - r^2)/2, fixed here by a deterministic choice.  The matrix
    has determinant zero and unit Frobenius norm, so a singular value
    decomposition factors it back into unit vectors.
    """
    r = float(r)
    y = np.asarray(y, dtype=np.float64)
    s = math.sqrt(max(1.0 - r * r, 0.0)) / 2.0
    c0, c1, c2 = r / 2.0, y[0] / 2.0, y[1] / 2.0
    if field is Field.REAL:
        if abs(y[2]) > 1e-9:
            raise ValueError("real pairs require an equatorial coordinate vector")
        Mat = np.array([[c0 + c1, c2 - s], [c2 + s, c0 - c1]])
    else:
        probe = np.array([1.0, 0.0, 0.0]) if abs(y[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        b = np.cross(y, probe)
        b /= np.linalg.norm(b)
        c = y / 2.0 + 1j * s * b
        Mat = np.array(
            [[c0 + c[0], c[1] + 1j * c[2]], [c[1] - 1j * c[2], c0 - c[0]]]
        )
    W, sv, Vh = np.linalg.svd(Mat)
    if abs(sv[0] - 1.0) > 1e-10 or sv[1] > 1e-10:
        raise ConsistencyError(f"reconstructed pair matrix is not rank one: {sv}")
    return Vh[0].conj(), W[:, 0]


def _check_witness(value: float, direct: float, what: str) -> None:
    """Raise unless a witness reproduces the claimed optimum to 1e-8."""
    if abs(value - direct) > 1e-8 * (1.0 + abs(value)):
        raise ConsistencyError(
            f"{what} witness reproduces {direct!r}, the solve claims {value!r}"
        )


# ---------------------------------------------------------------------------
# exact p = 2 solves
# ---------------------------------------------------------------------------

def _p2_data(A: SensingMatrix) -> tuple[np.ndarray, np.ndarray, float]:
    """Q, b and S of the p=2 quadratics, in the coordinates the field uses."""
    kap, M = _bloch_rows(A)
    kp = kap ** 2
    if A.field is Field.REAL:
        M = M[:, :2]
    return (M * kp[:, None]).T @ M, M.T @ kp, float(kp.sum())


def _on_sphere(y: np.ndarray) -> np.ndarray:
    """A 2- or 3-coordinate unit vector as a point of S^2."""
    out = np.zeros(3)
    out[: y.size] = y
    return out


def _sphere_max(Q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A maximizer of w^T Q w + 2 <b, w> over unit vectors w.

    In the eigenbasis of Q (coefficients c of b, gaps g_i = lambda_max -
    lambda_i) the maximizer is w_i = c_i / (t + g_i), where t >= 0 is the
    root of the secular equation sum c_i^2 / (t + g_i)^2 = 1 (Moré and
    Sorensen, Computing a trust region step, 1983).  t is at least
    max(|c_i| - g_i) and at most |c|, and Newton's method on the concave
    function 1 / |w(t)| started below the root climbs to it monotonically.
    When that lower end is 0 and |w(0)| <= 1, there is no positive root:
    this is the hard case, where b has no weight on the top eigenspace
    (every harmonic frame has b = 0 and Q proportional to I).  Then t = 0
    and the remaining length goes along the top eigenvector.
    """
    lam, V = np.linalg.eigh(Q)
    gap = lam[-1] - lam
    c = V.T @ b
    live = c != 0

    def coefficients(t: float) -> np.ndarray:
        out = np.zeros_like(c)
        out[live] = c[live] / (t + gap[live])
        return out

    t = max(0.0, float(np.max(np.abs(c) - gap)))
    z = coefficients(t)
    if t == 0.0 and z @ z <= 1.0:
        z[-1] = math.sqrt(1.0 - z @ z)
        return V @ z
    for _ in range(100):
        norm = math.sqrt(z @ z)
        slope = float(np.sum(z[live] ** 2 / (t + gap[live]))) / norm ** 3
        step = (1.0 - 1.0 / norm) / slope
        if not step > 1e-17 * t:
            break
        t += step
        z = coefficients(t)
    return V @ (z / math.sqrt(z @ z))


def exact_lower_p2(A: SensingMatrix, orthogonal: bool) -> tuple[float, np.ndarray, np.ndarray]:
    """The exact squared p=2 lower constant of a planar matrix, and a pair.

    Returns (L^2, u, v), or (M^2, u, v) with <u, v> = 0 when `orthogonal`;
    the squared constant is the eigenvalue, which can sit a rounding error
    below zero on degenerate input.  The pair comes from the eigenvector y
    and the best inner product r = -<b, y> / S, folded to r >= 0.
    """
    Q, b, S = _p2_data(A)
    lam, vecs = np.linalg.eigh(Q if orthogonal else Q - np.outer(b, b) / S)
    y = vecs[:, 0]
    r = 0.0 if orthogonal else -float(b @ y) / S
    if r < 0:
        r, y = -r, -y
    u, v = _pair_from_point(min(r, 1.0), _on_sphere(y), A.field)
    return float(lam[0]), u, v


def exact_upper_p2(A: SensingMatrix) -> tuple[float, np.ndarray]:
    """The exact squared p=2 upper constant of a planar matrix, and a unit vector.

    Returns (U^2, u) with U^2 = S + w^T Q w + 2 <b, w> at the maximizer w of
    the trust-region subproblem, and u the unit vector whose coordinates are w.
    """
    Q, b, S = _p2_data(A)
    w = _sphere_max(Q, b)
    return S + float(w @ Q @ w + 2.0 * b @ w), _bloch_vector(_on_sphere(w), A.field)


# ---------------------------------------------------------------------------
# exact p = 1 enumeration
# ---------------------------------------------------------------------------

# Candidates are evaluated in chunks of at most this many candidate-row
# terms (or one candidate, if m is larger), so the O(m^4) complex
# enumeration runs in bounded memory.
_CHUNK = 1 << 20


def exact_lower_p1(A: SensingMatrix, orthogonal: bool) -> tuple[float, np.ndarray, np.ndarray]:
    """The exact p=1 lower constant of a planar matrix, and a pair.

    Returns (L, u, v), or (M, u, v) with <u, v> = 0 when `orthogonal`, by
    evaluating f(r, y) = sum kappa_i |r + <m_i, y>| at every candidate
    minimizer.  For fixed y, f is convex and piecewise linear in r, so the
    best r is 0, 1 or a kink r = -<m_i, y>:

    - at r = 0 (all of M), f = sum kappa_j |<m_j, y>| is linear on each
      sign cell of the sphere and, where positive, concave along it, so its
      minimum is at a cell vertex y = unit(m_j x m_k);
    - at r = 1 no term changes sign, and the minimum is y = -b/|b| with
      b = sum kappa_i m_i;
    - on the kink surface of row i, f = sum kappa_j |<n_j, y>| with
      n = m - m_i, minimized at a vertex unit(n_j x n_k) in the same way.

    Over the reals y stays on the equator, where a vertex is the in-plane
    normal unit(n_j x e_2) of one n_j.  When all nonzero n_j are parallel
    there are no vertices, so the points unit(n_j x e_l) on each plane
    <n_j, y> = 0, and e_0 in place of every zero cross product, keep such
    degenerate rows at f = 0.  At r = 0 and on each kink surface f is even
    in y, so one sign of each vertex suffices; and f(r, y) = f(-r, -y), so
    a kink point with r < 0 folds to (-r, -y).

    The work is O(m^3) flops for real matrices and O(m^4) for complex ones.
    """
    kap, M = _bloch_rows(A)
    m = M.shape[0]
    axes = np.eye(3)[2:] if A.field is Field.REAL else np.eye(3)
    # each candidate is unit(v_a x v_b) for rows a < b of V = [n_0 .. n_{m-1}; axes]
    ja, jb = np.triu_indices(m + len(axes), 1)
    keep = (ja < m) & ((jb >= m) | (A.field is Field.COMPLEX))
    ja, jb = ja[keep], jb[keep]
    # the origin stands for the r = 0 slice, each row for its kink surface
    centres = np.zeros((1, 3)) if orthogonal else np.vstack([np.zeros(3), M])
    best = (math.inf, 0.0, axes[0])
    if not orthogonal:
        b = M.T @ kap
        nb = float(np.linalg.norm(b))
        y = -b / nb if nb > 0 else np.array([1.0, 0.0, 0.0])
        best = (float(kap @ np.abs(1.0 + M @ y)), 1.0, y)
    width = max(1, _CHUNK // m)   # candidates per evaluation
    step = max(1, width // ja.size)
    for s in range(0, len(centres), step):
        C = centres[s : s + step]
        V = np.concatenate([M[None] - C[:, None], np.broadcast_to(axes, (len(C),) + axes.shape)], 1)
        for t in range(0, ja.size, width):
            Y = np.cross(V[:, ja[t : t + width]], V[:, jb[t : t + width]])
            norm = np.linalg.norm(Y, axis=2)
            Y[norm == 0] = (1.0, 0.0, 0.0)
            Y /= np.where(norm == 0, 1.0, norm)[..., None]
            R = -np.einsum("ckx,cx->ck", Y, C)
            flip = R < 0
            R[flip] = -R[flip]
            Y[flip] = -Y[flip]
            np.minimum(R, 1.0, out=R)
            T = Y @ M.T
            T += R[..., None]
            F = np.abs(T, out=T) @ kap
            i = np.unravel_index(np.argmin(F), F.shape)
            if F[i] < best[0]:
                best = (float(F[i]), float(R[i]), Y[i].copy())
    value, r, y = best
    u, v = _pair_from_point(r, y, A.field)
    return value, u, v
