"""Shared numerical substrate for intensity-map conditioning.

Everything downstream works with a sensing matrix A over a tagged scalar
field and the nonlinear measurement map x -> |Ax|^2.  This module owns the
matrix and vector containers, the harmonic frame and Gaussian samplers, the
rank-two quotient metric, the polar row decomposition, and matrix file
input/output.

Conventions.  A stored row, applied to x by a plain dot product, produces
the measurement <a_j, x> = sum_k conj(a_jk) x_k; the stored row is therefore
the conjugate of the measurement vector a_j.  For real matrices the two
coincide.  All random sampling goes through counter-based Philox streams so
that a (seed, stream) pair pins the sample sequence exactly.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "Field",
    "Constraint",
    "RngSpec",
    "SensingMatrix",
    "PolarRow",
    "UnitPair",
    "ConsistencyError",
    "harmonic_frame",
    "sample_gaussian",
    "sample_unit",
    "psi_map",
    "dist_h",
    "to_polar",
    "from_polar",
    "matrix_to_dict",
    "matrix_from_dict",
    "matrix_to_csv",
    "matrix_from_csv",
    "save_matrix",
    "load_matrix",
    "GENERATOR_NAME",
]

GENERATOR_NAME = "philox4x64"


class Field(enum.Enum):
    """Scalar field tag; every matrix and vector carries exactly one."""

    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64 if self is Field.REAL else np.complex128)

    @classmethod
    def parse(cls, name: str) -> "Field":
        try:
            return cls(str(name).lower())
        except ValueError:
            raise ValueError(f"unknown field {name!r}; expected 'real' or 'complex'") from None


class Constraint(enum.Enum):
    """Feasible-set tag for a pair of unit vectors."""

    REAL_INNER = "real_inner"
    ORTHOGONAL = "orthogonal"
    FREE = "free"


class ConsistencyError(ArithmeticError):
    """Two independent evaluation routes disagreed beyond tolerance."""


@dataclass(frozen=True)
class RngSpec:
    """Seed and stream id pinning one reproducible random sequence.

    Distinct streams under the same seed are statistically independent and
    never share state, so parallel work can draw from per-task streams
    without coordination.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must fit in 64 unsigned bits")
        if int(self.stream) < 0:
            raise ValueError("stream must be nonnegative")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, offset: int) -> "RngSpec":
        """Derived spec for worker `offset`, independent of this one."""
        return RngSpec(self.seed, self.stream + 1 + int(offset))


def _as_generator(rng: "RngSpec | np.random.Generator") -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngSpec):
        return rng.generator()
    raise TypeError(f"expected RngSpec or numpy Generator, got {type(rng).__name__}")


class SensingMatrix:
    """An m x d matrix over a tagged field, the object whose map is analyzed.

    Parameters
    ----------
    field : Field
        Scalar field of the entries.
    array : array_like, shape (m, d)
        Stored rows; row j applied to x by a plain dot product yields the
        measurement <a_j, x>.

    The wrapped array is made read-only; instances are safe to share.
    """

    __slots__ = ("field", "array")

    def __init__(self, field: Field, array) -> None:
        if not isinstance(field, Field):
            field = Field.parse(field)
        arr = np.array(array, dtype=field.dtype, copy=True)
        if arr.ndim != 2:
            raise ValueError(f"matrix must be 2-dimensional, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"matrix must have m >= 1 and d >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "array", arr)

    def __setattr__(self, name, value):
        raise AttributeError("SensingMatrix is immutable")

    @property
    def m(self) -> int:
        return self.array.shape[0]

    @property
    def d(self) -> int:
        return self.array.shape[1]

    @property
    def vectors(self) -> np.ndarray:
        """The measurement vectors a_j (conjugates of the stored rows)."""
        return self.array.conj()

    @classmethod
    def from_vectors(cls, field: Field, vectors) -> "SensingMatrix":
        """Build from the measurement vectors a_j themselves."""
        return cls(field, np.conj(np.asarray(vectors)))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Measurements (<a_j, x>)_j for a length-d vector x."""
        x = self._check_vector(x)
        return self.array @ x

    def scaled(self, c: float) -> "SensingMatrix":
        """The matrix c*A over the same field (c real)."""
        return SensingMatrix(self.field, self.array * float(c))

    def _check_vector(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != (self.d,):
            raise ValueError(f"vector has shape {x.shape}, expected ({self.d},)")
        if self.field is Field.REAL and np.iscomplexobj(x) and np.any(x.imag != 0):
            raise ValueError("complex vector supplied to a real matrix")
        return x.astype(self.field.dtype, copy=False)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SensingMatrix)
            and self.field is other.field
            and self.array.shape == other.array.shape
            and bool(np.array_equal(self.array, other.array))
        )

    def __repr__(self) -> str:
        return f"SensingMatrix(field={self.field.value}, m={self.m}, d={self.d})"


@dataclass(frozen=True)
class PolarRow:
    """Polar coordinates (t, phi, alpha, beta) of one stored planar row.

    The row is t * (cos(phi) e^{i alpha}, sin(phi) e^{i beta}) with t >= 0
    and phi in [0, pi/2] read off the component magnitudes.  Zero components
    get phase 0, and real rows get phases in {0, pi} so that reconstruction
    stays real; both choices make the round trip deterministic where the
    decomposition itself is not unique.
    """

    t: float
    phi: float
    alpha: float
    beta: float


@dataclass(frozen=True)
class UnitPair:
    """A pair (u, v) of unit vectors with a declared feasibility tag."""

    field: Field
    u: np.ndarray
    v: np.ndarray
    constraint: Constraint

    NORM_TOL = 1e-12
    INNER_TOL = 1e-10

    def inner(self) -> complex:
        return complex(np.vdot(self.u, self.v))

    def validate(self) -> None:
        for name, w in (("u", self.u), ("v", self.v)):
            if w.shape != self.u.shape or w.ndim != 1:
                raise ValueError(f"{name} must be a vector matching u's length")
            if abs(np.linalg.norm(w) - 1.0) > self.NORM_TOL:
                raise ValueError(f"{name} is not unit to within {self.NORM_TOL}")
            if self.field is Field.REAL and np.iscomplexobj(w) and np.any(w.imag != 0):
                raise ValueError(f"{name} has imaginary parts under a real field tag")
        ip = self.inner()
        if self.constraint is Constraint.REAL_INNER and abs(ip.imag) > self.INNER_TOL:
            raise ValueError(f"inner product has imaginary part {ip.imag:.2e}")
        if self.constraint is Constraint.ORTHOGONAL and abs(ip) > self.INNER_TOL:
            raise ValueError(f"pair is not orthogonal, |<u,v>| = {abs(ip):.2e}")


def harmonic_frame(m: int) -> SensingMatrix:
    """The m x 2 real frame of equidistant directions on the upper semicircle.

    Row j (zero-based) is (cos(j pi / m), sin(j pi / m)).  The Gram matrix
    is (m/2) I, which tests rely on.

    Parameters
    ----------
    m : int
        Number of rows; must be at least 3.
    """
    m = int(m)
    if m < 3:
        raise ValueError(f"harmonic frame needs m >= 3, got {m}")
    j = np.arange(m)
    ang = j * np.pi / m
    return SensingMatrix(Field.REAL, np.stack([np.cos(ang), np.sin(ang)], axis=1))


def sample_gaussian(field: Field, m: int, d: int, rng: RngSpec | np.random.Generator) -> SensingMatrix:
    """An m x d matrix with i.i.d. standard Gaussian rows.

    Real entries are N(0, 1); complex entries are N(0, 1/2) + i N(0, 1/2),
    so E|entry|^2 = 1 over both fields.
    """
    m, d = int(m), int(d)
    if m < 1 or d < 1:
        raise ValueError("m and d must be positive")
    return SensingMatrix(field, _gaussian_array(field, m, d, _as_generator(rng)))


def _gaussian_array(field: Field, m: int, d: int, g: np.random.Generator) -> np.ndarray:
    """The stored (m, d) array of `sample_gaussian`, as a plain writable array.

    It reads g in one fixed order: an (m, d) block of normals over the
    reals; over the complex field a block for the real parts, then one for
    the imaginary parts, scaled together by 1/sqrt(2).
    """
    if field is Field.REAL:
        return g.standard_normal((m, d))
    re = g.standard_normal((m, d))
    im = g.standard_normal((m, d))
    return (re + 1j * im) / math.sqrt(2.0)


def sample_unit(field: Field, d: int, rng: RngSpec | np.random.Generator, n: int | None = None) -> np.ndarray:
    """Uniform unit vectors; one vector, or a (n, d) batch when n is given."""
    g = _as_generator(rng)
    shape = (d,) if n is None else (int(n), int(d))
    if field is Field.REAL:
        w = g.standard_normal(shape)
    else:
        w = g.standard_normal(shape) + 1j * g.standard_normal(shape)
    norms = np.linalg.norm(w, axis=-1, keepdims=True)
    # a zero draw has probability zero; resample defensively all the same
    while np.any(norms == 0):
        bad = np.nonzero(norms.ravel() == 0)[0]
        w.reshape(-1, d)[bad] = g.standard_normal((bad.size, d))
        norms = np.linalg.norm(w, axis=-1, keepdims=True)
    return w / norms


def psi_map(A: SensingMatrix, x: np.ndarray) -> np.ndarray:
    """The intensity measurements (|<a_j, x>|^2)_j, a length-m real vector."""
    y = A.apply(x)
    return np.abs(y) ** 2


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise sum_k a_k b_k of two (n, d) stacks.

    matmul makes one BLAS dot per row, the call np.vdot and np.linalg.norm
    make on a single vector, so a row of the batch has the single-vector
    value bit for bit.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _rownorm(w: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(w):
        return np.sqrt(_rowdot(w.real, w.real) + _rowdot(w.imag, w.imag))
    return np.sqrt(_rowdot(w, w))


def _unit_or_zero(r: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows of r normalized; zero where r is negligible next to the row of w."""
    nr = _rownorm(r)
    keep = nr > 1e-14 * (1.0 + _rownorm(w))
    return np.where(keep[:, None], r / np.where(keep, nr, 1.0)[:, None], 0.0)


def _metric_routes(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S = |x|^2 + |y|^2 and the product and eigenvalue routes to dist_h.

    Works row by row on (n, d) stacks of x and y.  The eigenvalue route is
    the nuclear norm of xx* - yy* restricted to span{x, y}: Gram-Schmidt
    gives the basis, a vector that adds no new direction gives a zero basis
    vector (and so a zero eigenvalue), and eigvalsh takes the 2x2
    restriction.
    """
    S = _rowdot(X.conj(), X).real + _rowdot(Y.conj(), Y).real
    c = _rowdot(X.conj(), Y)
    C = np.hypot(c.real, c.imag)
    product = np.sqrt(np.maximum(S - 2.0 * C, 0.0)) * np.sqrt(S + 2.0 * C)

    X = X.astype(np.complex128)
    Y = Y.astype(np.complex128)
    q1 = _unit_or_zero(X, X)
    q2 = _unit_or_zero(Y - _rowdot(q1.conj(), Y)[:, None] * q1, Y)
    Qh = np.stack([q1, q2], axis=2).conj().transpose(0, 2, 1)
    cx = np.matmul(Qh, X[:, :, None])[:, :, 0]
    cy = np.matmul(Qh, Y[:, :, None])[:, :, 0]
    B = cx[:, :, None] * cx.conj()[:, None, :] - cy[:, :, None] * cy.conj()[:, None, :]
    eigen = np.abs(np.linalg.eigvalsh(B)).sum(axis=1)
    return S, product, eigen


def dist_h(x: np.ndarray, y: np.ndarray) -> float:
    """Quotient-space distance ||xx* - yy*||_* between two vectors.

    Evaluates two independent routes and cross-checks them: the product
    formula sqrt(S - 2c) * sqrt(S + 2c) with S = |x|^2 + |y|^2 and
    c = |<x, y>|, and the sum of absolute eigenvalues of the difference
    operator restricted to span{x, y}.  The product value is returned; a
    disagreement beyond 1e-10 * S raises ConsistencyError since it can only
    mean an implementation defect.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"vectors must share one shape, got {x.shape} and {y.shape}")
    s, product, eigen = (float(r[0]) for r in _metric_routes(x[None], y[None]))
    if abs(product - eigen) > 1e-10 * max(s, 1e-300):
        raise ConsistencyError(
            f"metric routes disagree: product {product!r} vs eigen {eigen!r}"
        )
    return product


def _phase(z: complex, field: Field) -> float:
    if field is Field.REAL:
        return 0.0 if z.real >= 0 else math.pi
    if z == 0:
        return 0.0
    a = math.atan2(z.imag, z.real)
    return a + 2.0 * math.pi if a < 0 else a


def to_polar(A: SensingMatrix) -> list[PolarRow]:
    """Polar decomposition of every stored row of a planar (d=2) matrix."""
    if A.d != 2:
        raise ValueError(f"polar rows are defined for d=2 only, got d={A.d}")
    out = []
    for row in A.array:
        z0, z1 = complex(row[0]), complex(row[1])
        t = math.hypot(abs(z0), abs(z1))
        if t == 0.0:
            out.append(PolarRow(0.0, 0.0, 0.0, 0.0))
            continue
        phi = math.atan2(abs(z1), abs(z0))
        alpha = _phase(z0, A.field) if abs(z0) > 0 else 0.0
        beta = _phase(z1, A.field) if abs(z1) > 0 else 0.0
        out.append(PolarRow(t, phi, alpha, beta))
    return out


def from_polar(rows: Sequence[PolarRow], field: Field) -> SensingMatrix:
    """Rebuild the stored matrix from polar rows; inverse of `to_polar`."""
    arr = np.empty((len(rows), 2), dtype=np.complex128)
    for i, pr in enumerate(rows):
        arr[i, 0] = pr.t * math.cos(pr.phi) * np.exp(1j * pr.alpha)
        arr[i, 1] = pr.t * math.sin(pr.phi) * np.exp(1j * pr.beta)
    if field is Field.REAL:
        arr = arr.real
    return SensingMatrix(field, arr)


# ---------------------------------------------------------------------------
# matrix file formats
# ---------------------------------------------------------------------------

def _interleaved(w, field: Field) -> list[float]:
    """The entries of w as one flat list of floats, (re, im) pairs over the complex field."""
    w = np.asarray(w).ravel()
    if field is Field.COMPLEX:
        w = np.stack([w.real, w.imag], axis=-1).ravel()
    return w.real.astype(np.float64).tolist()


def _from_interleaved(v: np.ndarray) -> np.ndarray:
    """The complex numbers whose (re, im) pairs interleave the last axis of v."""
    return v[..., 0::2] + 1j * v[..., 1::2]


def matrix_to_dict(A: SensingMatrix) -> dict:
    """JSON-ready mapping; complex entries are interleaved (re, im) pairs."""
    rows = [_interleaved(row, A.field) for row in A.array]
    return {"field": A.field.value, "m": A.m, "d": A.d, "rows": rows}


def matrix_from_dict(data: dict) -> SensingMatrix:
    try:
        field = Field.parse(data["field"])
        m, d = int(data["m"]), int(data["d"])
        rows = data["rows"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if len(rows) != m:
        raise ValueError(f"row count {len(rows)} does not match m={m}")
    width = d if field is Field.REAL else 2 * d
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"row {i} has {len(row)} numbers, expected {width}")
    vals = np.asarray(rows, dtype=np.float64).reshape(m, width)
    return SensingMatrix(field, vals if field is Field.REAL else _from_interleaved(vals))


def _csv_header(field: Field, d: int) -> list[str]:
    cols = []
    for k in range(1, d + 1):
        cols.append(f"re_{k}")
        if field is Field.COMPLEX:
            cols.append(f"im_{k}")
    return cols


def matrix_to_csv(A: SensingMatrix) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_csv_header(A.field, A.d))
    for row in A.array:
        w.writerow([repr(v) for v in _interleaved(row, A.field)])
    return buf.getvalue()


def matrix_from_csv(text: str) -> SensingMatrix:
    reader = csv.reader(io.StringIO(text))
    rows = [r for r in reader if r and any(cell.strip() for cell in r)]
    if not rows:
        raise ValueError("empty matrix file")
    header = rows[0]
    complex_file = any(cell.strip().startswith("im_") for cell in header)
    try:
        float(header[0])
    except ValueError:
        rows = rows[1:]
        if not rows:
            raise ValueError("matrix file has a header but no data rows") from None
    data = [[float(cell) for cell in r] for r in rows]
    width = len(data[0])
    if any(len(r) != width for r in data):
        raise ValueError("ragged rows in matrix file")
    arr = np.asarray(data)
    if complex_file:
        if width % 2:
            raise ValueError("complex matrix file must have an even column count")
        return SensingMatrix(Field.COMPLEX, _from_interleaved(arr))
    return SensingMatrix(Field.REAL, arr)


def save_matrix(A: SensingMatrix, path: str | Path, fmt: str | None = None) -> None:
    """Write a matrix file; format from `fmt` or the path suffix (json/csv)."""
    path = Path(path)
    fmt = (fmt or path.suffix.lstrip(".") or "json").lower()
    if fmt == "json":
        path.write_text(json.dumps(matrix_to_dict(A), indent=2) + "\n")
    elif fmt == "csv":
        path.write_text(matrix_to_csv(A))
    else:
        raise ValueError(f"unknown matrix format {fmt!r}")


def load_matrix(path: str | Path) -> SensingMatrix:
    """Read a matrix file, sniffing JSON vs CSV from the content."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return matrix_from_dict(json.loads(text))
    return matrix_from_csv(text)
