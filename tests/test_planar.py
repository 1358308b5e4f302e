"""Exact planar constants at p=1 and p=2: closed forms, certified bands and edge cases."""

import math

import numpy as np
import pytest

from prcond.closedform import harmonic_constants
from prcond.core import Constraint, Field, RngSpec, SensingMatrix, harmonic_frame, sample_gaussian
from prcond.lipschitz import (
    Method,
    OptimizerConfig,
    condition_number,
    lower_lipschitz,
    orthogonal_lower_bound,
    pair_objective,
    upper_lipschitz,
    upper_objective,
)
from prcond.oracle import grid_lower_l, grid_upper_u
from prcond.planar import _sphere_max


def _widened(A: SensingMatrix) -> SensingMatrix:
    return SensingMatrix(Field.COMPLEX, A.array.astype(complex))


def _exact(A: SensingMatrix, p: int):
    return lower_lipschitz(A, p), orthogonal_lower_bound(A, p), upper_lipschitz(A, p)


def _both_p(name: str, values, ids=None):
    """Parametrize over `name` and p: p=2 cases under the bare id, p=1 as p1-<id>."""
    ids = ids or [str(v) for v in values]
    params = [pytest.param(v, 2, id=i) for v, i in zip(values, ids)]
    params += [pytest.param(v, 1, id=f"p1-{i}") for v, i in zip(values, ids)]
    return pytest.mark.parametrize(f"{name}, p", params)


@_both_p("m", range(3, 13))
def test_harmonic_frames_match_the_closed_forms(m, p):
    h = harmonic_constants(m, p)
    L, M, U = _exact(harmonic_frame(m), p)
    assert L.value == pytest.approx(h.L, abs=1e-12)
    assert M.value == pytest.approx(h.L_orth, abs=1e-12)
    assert U.value == pytest.approx(h.U, abs=1e-12)
    assert L.method is M.method is U.method is Method.CLOSED_FORM
    # widened to complex, U is the same solve on three coordinates; L and M
    # vanish, since u and conj(u) give the same intensities under real
    # measurement vectors
    Lc, Mc, Uc = _exact(_widened(harmonic_frame(m)), p)
    assert Uc.value == pytest.approx(h.U, abs=1e-12)
    assert Lc.value == 0.0 and Mc.value == 0.0


def _pinned_draws():
    for field, stream in ((Field.REAL, 0), (Field.COMPLEX, 1)):
        g = RngSpec(3301, stream).generator()
        for _ in range(4):
            yield sample_gaussian(field, int(g.integers(3, 11)), 2, g)


def _assert_in_bands(A: SensingMatrix, p: int):
    L, M, U = _exact(A, p)
    for est, constraint in ((L, Constraint.REAL_INNER), (M, Constraint.ORTHOGONAL)):
        lo, hi = grid_lower_l(A, p, constraint).certified_band
        assert lo - 1e-12 <= est.value <= hi + 1e-12
        w = est.witness
        assert w.constraint is constraint
        w.validate()
        assert pair_objective(A, w.u, w.v, p) == pytest.approx(est.value, rel=1e-12)
    lo, hi = grid_upper_u(A, p).certified_band
    assert lo - 1e-12 <= U.value <= hi + 1e-12
    assert abs(np.linalg.norm(U.witness) - 1.0) < 1e-12
    assert upper_objective(A, U.witness, p) == pytest.approx(U.value, rel=1e-12)
    assert M.value >= L.value


@_both_p("case", range(8))
def test_exact_values_lie_in_the_certified_bands(case, p):
    _assert_in_bands(list(_pinned_draws())[case], p)


def test_p1_lower_reaches_the_band_where_the_search_stopped_above_it():
    # a complex m=5 draw on which 16-start subgradient descent with both
    # polishes stopped at L = 0.41340637, above the band [0.41333246, 0.41337520]
    A = SensingMatrix(Field.COMPLEX, [
        [-1.0342044720473633 + 0.11737899362704923j, -0.49776824693633753 + 0.15738276124592465j],
        [-0.4188204836397581 - 0.6518264899554373j, 0.6337427027876056 - 0.4630130937260506j],
        [0.9682157740140069 + 0.49695486672644573j, 0.4659204798844942 + 0.6414710036155178j],
        [-0.45446724815278633 - 1.1404718639362832j, -0.5182001576969301 - 0.44596685844362555j],
        [0.28697820189009493 - 0.2096117625137902j, 0.8087209242481467 + 0.613159403768983j],
    ])
    assert lower_lipschitz(A, 1).value == pytest.approx(0.41337259, abs=1e-8)
    _assert_in_bands(A, 1)


def _band_cases():
    """Harmonic frames, real and widened to complex, and degenerate inputs, by name."""
    cases = {}
    for m in range(3, 13):
        cases[f"harmonic-{m}"] = harmonic_frame(m)
        cases[f"harmonic-{m}-complex"] = _widened(harmonic_frame(m))
    G = sample_gaussian(Field.REAL, 6, 2, RngSpec(3304, 0))
    zero_row = G.array.copy()
    zero_row[2] = 0.0
    cases["zero-row"] = SensingMatrix(Field.REAL, zero_row)
    cases["repeated-rows"] = SensingMatrix(Field.REAL, np.vstack([G.array, G.array[:2]]))
    cases["identity"] = SensingMatrix(Field.REAL, np.eye(2))
    cases["scaled-1e6"] = G.scaled(1e6)
    return cases


_BAND_CASES = _band_cases()


@_both_p("name", list(_BAND_CASES))
def test_bands_contain_the_exact_constants_of_frames_and_degenerate_inputs(name, p):
    # the tolerance is relative, so a constant of 0 (the identity's L and
    # M) must lie in its band exactly
    A = _BAND_CASES[name]
    L, M, U = _exact(A, p)
    bands = (grid_lower_l(A, p, Constraint.REAL_INNER), grid_lower_l(A, p, Constraint.ORTHOGONAL),
             grid_upper_u(A, p))
    for exact, band in zip((L, M, U), bands):
        lo, hi = band.certified_band
        tol = 1e-12 * exact.value
        assert lo - tol <= exact.value <= hi + tol


@_both_p(
    "A",
    [
        SensingMatrix(Field.REAL, [[1.0, 0.0]] * 3),
        SensingMatrix(Field.REAL, np.eye(2)),
        _widened(sample_gaussian(Field.REAL, 8, 2, RngSpec(2024, 4))),
    ],
    ids=["repeated-row", "identity", "real-as-complex"],
)
def test_degenerate_inputs_have_zero_lower_constant(A, p):
    report = condition_number(A, p)
    assert report.L == 0.0
    assert math.isinf(report.beta)
    assert report.lower.method is Method.CLOSED_FORM
    M = orthogonal_lower_bound(A, p)
    assert M.value == 0.0 and M.method is Method.CLOSED_FORM


def test_planar_constants_are_closed_form_and_ignore_search_settings():
    tiny = OptimizerConfig(starts=1, max_iters=1, subgradient_iters=1, polish=False)
    for field in Field:
        A = sample_gaussian(field, 7, 2, RngSpec(3302, 0))
        for p in (1, 2):
            for fun in (lower_lipschitz, orthogonal_lower_bound, upper_lipschitz):
                default, cheap = fun(A, p), fun(A, p, tiny)
                assert default.method is Method.CLOSED_FORM
                assert cheap.value == default.value


def test_other_shapes_keep_the_search():
    A = sample_gaussian(Field.REAL, 7, 3, RngSpec(3303, 0))
    cfg = OptimizerConfig(starts=4, max_iters=50, subgradient_iters=100)
    for fun in (lower_lipschitz, orthogonal_lower_bound, upper_lipschitz):
        assert fun(A, 2, cfg).method is Method.MULTI_START_LOCAL
    for fun in (lower_lipschitz, orthogonal_lower_bound):
        assert fun(A, 1, cfg).method is Method.MULTI_START_LOCAL


@pytest.mark.parametrize("n", [2, 3])
def test_sphere_max_handles_the_hard_case(n):
    # b = 0 with a repeated top eigenvalue has no secular root at all
    w = _sphere_max(2.5 * np.eye(n), np.zeros(n))
    assert np.all(np.isfinite(w))
    assert abs(np.linalg.norm(w) - 1.0) < 1e-15
    # b orthogonal to the top eigenvector and short: the maximizer is the
    # pseudo-inverse solution plus the rest of the unit length on top
    Q = np.diag([1.0] * (n - 1) + [3.0])
    b = np.zeros(n)
    b[0] = 0.5
    w = _sphere_max(Q, b)
    assert w[0] == pytest.approx(0.25, abs=1e-15)
    assert abs(w[-1]) == pytest.approx(math.sqrt(1.0 - 0.25 ** 2), abs=1e-15)


def test_sphere_max_beats_every_sampled_unit_vector():
    g = np.random.default_rng(3304)
    for trial in range(200):
        n = 2 + trial % 2
        X = g.standard_normal((n, n))
        Q = X @ X.T
        b = g.standard_normal(n) * 10.0 ** g.uniform(-8, 1)
        w = _sphere_max(Q, b)
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12
        best = w @ Q @ w + 2.0 * b @ w
        S = g.standard_normal((2000, n))
        S /= np.linalg.norm(S, axis=1, keepdims=True)
        sampled = np.einsum("ij,jk,ik->i", S, Q, S) + 2.0 * S @ b
        assert sampled.max() <= best + 1e-12 * (1.0 + abs(best))
