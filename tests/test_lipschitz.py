"""Multi-start estimation of the optimal Lipschitz constants and reports."""

import dataclasses
import json
import math

import numpy as np
import pytest

from prcond import lipschitz
from prcond.closedform import harmonic_constants, universal_lower_bound
from prcond.core import (
    Constraint,
    Field,
    RngSpec,
    SensingMatrix,
    UnitPair,
    harmonic_frame,
    sample_gaussian,
)
from prcond.lipschitz import (
    NO_PHASE_RETRIEVAL_FLAG,
    ConditionReport,
    EstimateKind,
    Method,
    OptimizerConfig,
    condition_number,
    estimate_to_json_dict,
    is_tight_4_frame,
    lower_lipschitz,
    orthogonal_lower_bound,
    pair_objective,
    upper_lipschitz,
    upper_objective,
)

# heavy defaults are unnecessary at the sizes used here
QUICK = OptimizerConfig(starts=12, max_iters=200, subgradient_iters=1200)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


# ---------------------------------------------------------------------------
# raw objectives
# ---------------------------------------------------------------------------

def test_pair_objective_on_harmonic_basis_pair():
    # the coordinate pair attains the orthogonal minimum of the m=3 frame:
    # |cos sin| summed over the three directions is sqrt(3)/2
    A = harmonic_frame(3)
    assert pair_objective(A, E1, E2, 1) == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-14)
    assert harmonic_constants(3, 1).L_orth == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-14)


def test_upper_objective_on_tight_frame_is_isotropic():
    A = harmonic_frame(5)
    vals = [upper_objective(A, np.array([math.cos(t), math.sin(t)]), 1) for t in (0.0, 0.4, 1.3)]
    assert all(v == pytest.approx(2.5, rel=1e-13) for v in vals)


def test_objectives_report_p_th_roots():
    A = harmonic_frame(4)
    u = np.array([math.cos(0.3), math.sin(0.3)])
    v = np.array([-math.sin(0.3), math.cos(0.3)])
    per_term = np.abs((A.array @ u) * (A.array @ v))
    assert pair_objective(A, u, v, 2) == pytest.approx(math.sqrt(float((per_term ** 2).sum())), rel=1e-14)
    assert pair_objective(A, u, v, 1) == pytest.approx(float(per_term.sum()), rel=1e-14)


# ---------------------------------------------------------------------------
# upper constant
# ---------------------------------------------------------------------------

def test_upper_p1_is_the_top_gram_eigenvalue():
    A = SensingMatrix(Field.REAL, [[2.0, 0.0], [0.0, 1.0]])
    est = upper_lipschitz(A, 1)
    assert est.value == pytest.approx(4.0, rel=1e-14)
    assert est.method is Method.CLOSED_FORM
    assert est.kind is EstimateKind.UPPER_U
    assert upper_objective(A, est.witness, 1) == pytest.approx(est.value, rel=1e-12)


def test_upper_p2_matches_harmonic_constant():
    for m in (3, 6):
        est = upper_lipschitz(harmonic_frame(m), 2, QUICK)
        assert est.value == pytest.approx(math.sqrt(3.0 * m / 8.0), abs=1e-8)
        assert abs(np.linalg.norm(est.witness) - 1.0) < 1e-9


def test_upper_rejects_zero_matrix():
    with pytest.raises(ValueError):
        upper_lipschitz(SensingMatrix(Field.REAL, [[0.0, 0.0]]), 1)


# ---------------------------------------------------------------------------
# lower constants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [1, 2])
def test_lower_matches_harmonic_constants(p):
    for m in (3, 6):
        h = harmonic_constants(m, p)
        est = lower_lipschitz(harmonic_frame(m), p, QUICK)
        orth = orthogonal_lower_bound(harmonic_frame(m), p, QUICK)
        assert est.value == pytest.approx(h.L, abs=1e-6)
        assert orth.value == pytest.approx(h.L_orth, abs=1e-6)


def test_lower_witnesses_are_feasible_and_attaining():
    A = sample_gaussian(Field.COMPLEX, 7, 3, RngSpec(41, 0))
    est = lower_lipschitz(A, 2, QUICK)
    assert isinstance(est.witness, UnitPair)
    est.witness.validate()
    assert est.witness.constraint is Constraint.REAL_INNER
    assert pair_objective(A, est.witness.u, est.witness.v, 2) == pytest.approx(est.value, rel=1e-9)

    orth = orthogonal_lower_bound(A, 2, QUICK)
    assert orth.witness.constraint is Constraint.ORTHOGONAL
    assert abs(orth.witness.inner()) < 1e-10
    assert orth.kind is EstimateKind.ORTHOGONAL_M


def test_polished_orthogonal_witness_stays_orthogonal():
    # the ambient polish drives v nearly parallel to u here; one Gram-Schmidt
    # pass left |<u, v>| = 8.1e-9 and validation raised "pair is not orthogonal"
    A = sample_gaussian(Field.COMPLEX, 150, 5, RngSpec(908, 5150))
    cfg = OptimizerConfig(starts=5, max_iters=40, subgradient_iters=100, rng=RngSpec(7, 3))
    est = orthogonal_lower_bound(A, 2, cfg)
    assert isinstance(est.witness, UnitPair)
    assert est.witness.constraint is Constraint.ORTHOGONAL
    est.witness.validate()
    assert abs(est.witness.inner()) < 1e-13
    assert pair_objective(A, est.witness.u, est.witness.v, 2) == pytest.approx(est.value, rel=1e-12)


@pytest.mark.parametrize("orthogonal", [True, False])
def test_feasible_pair_reorthogonalizes_nearly_parallel_vectors(orthogonal):
    # one pass leaves |<u, v>| and |Im<u, v>| near 5e-8 on this input
    rng = RngSpec(3, 0).generator()
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = 0.7j * u + 1e-9 * w
    pair = lipschitz._feasible_pair(
        lipschitz._pack(u, Field.COMPLEX), lipschitz._pack(v, Field.COMPLEX), 4, Field.COMPLEX, orthogonal
    )
    ip = np.vdot(*pair)
    assert abs(ip if orthogonal else ip.imag) < 1e-13
    UnitPair(Field.COMPLEX, *pair, Constraint.ORTHOGONAL if orthogonal else Constraint.REAL_INNER).validate()


def test_orthogonal_restriction_never_helps():
    for field, stream in ((Field.REAL, 0), (Field.COMPLEX, 1)):
        for p in (1, 2):
            A = sample_gaussian(field, 8, 3, RngSpec(52, stream))
            free = lower_lipschitz(A, p, QUICK)
            orth = orthogonal_lower_bound(A, p, QUICK)
            assert orth.value >= free.value - 1e-8


def test_orthogonality_gap_closes_exactly_on_tight_4_frames():
    # fourth-moment tightness pushes the p=2 infimum onto orthogonal pairs,
    # so the harmonic frame shows no gap; a generic complex matrix keeps a
    # strict one
    free = lower_lipschitz(harmonic_frame(5), 2, QUICK)
    orth = orthogonal_lower_bound(harmonic_frame(5), 2, QUICK)
    assert orth.value == pytest.approx(free.value, rel=1e-8)

    B = sample_gaussian(Field.COMPLEX, 7, 2, RngSpec(63, 1))
    freeb = lower_lipschitz(B, 1, QUICK)
    orthb = orthogonal_lower_bound(B, 1, QUICK)
    assert orthb.value > freeb.value * 1.01


def test_constants_scale_quadratically():
    A = sample_gaussian(Field.REAL, 6, 2, RngSpec(74, 0))
    for fun in (lambda M: lower_lipschitz(M, 2, QUICK), lambda M: upper_lipschitz(M, 2, QUICK)):
        base = fun(A).value
        scaled = fun(A.scaled(3.0)).value
        assert scaled == pytest.approx(9.0 * base, rel=1e-6)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("c", [2.0 ** -10, 1e-7, 1e-60, 1e-200, 1e100])
def test_condition_number_is_invariant_to_the_matrix_scale(c, p):
    # the searches stop on absolute tolerances that hold only near unit
    # scale: unrescaled, they stop early (2^-10), clamp L to zero (1e-7 and
    # below) or overflow (1e100).  At 1e-200 the true L and U (about 1e-400)
    # underflow, but beta comes from the rescaled matrix and stays finite.
    A = sample_gaussian(Field.REAL, 10, 3, RngSpec(1, 0))
    cfg = OptimizerConfig(starts=8, max_iters=200)
    base = condition_number(A, p, cfg)
    got = condition_number(A.scaled(c), p, cfg)
    assert got.flags == base.flags == ()
    assert got.beta == pytest.approx(base.beta, rel=1e-7)
    assert got.lower.value == got.L and got.upper.value == got.U
    if c ** 2 > 0:
        assert got.L / c ** 2 == pytest.approx(base.L, rel=1e-7)
        assert got.U / c ** 2 == pytest.approx(base.U, rel=1e-7)
    else:
        assert 0.0 <= got.L < 1e-300 and 0.0 <= got.U < 1e-300


def test_constants_are_rotation_invariant():
    gen = RngSpec(85, 0).generator()
    A = sample_gaussian(Field.REAL, 7, 3, RngSpec(85, 1))
    Q, _ = np.linalg.qr(gen.standard_normal((3, 3)))
    B = SensingMatrix(Field.REAL, A.array @ Q)
    assert lower_lipschitz(B, 2, QUICK).value == pytest.approx(
        lower_lipschitz(A, 2, QUICK).value, rel=1e-6
    )
    assert upper_lipschitz(B, 2, QUICK).value == pytest.approx(
        upper_lipschitz(A, 2, QUICK).value, rel=1e-6
    )


def test_extra_measurements_only_grow_the_constants():
    gen = RngSpec(96, 0).generator()
    rows = gen.standard_normal((9, 3))
    A = SensingMatrix(Field.REAL, rows[:6])
    B = SensingMatrix(Field.REAL, rows)
    for p in (1, 2):
        assert lower_lipschitz(B, p, QUICK).value >= lower_lipschitz(A, p, QUICK).value - 1e-7
        assert upper_lipschitz(B, p, QUICK).value >= upper_lipschitz(A, p, QUICK).value - 1e-7


def test_solver_estimates_carry_no_certified_band():
    # certified bands come only from the grid oracle (see test_planar.py)
    for field in (Field.REAL, Field.COMPLEX):
        A = sample_gaussian(field, 5, 2, RngSpec(107, 0))
        for p in (1, 2):
            rep = condition_number(A, p, QUICK)
            for est in (rep.lower, rep.upper, orthogonal_lower_bound(A, p, QUICK)):
                assert est.certified_band is None


# ---------------------------------------------------------------------------
# condition report
# ---------------------------------------------------------------------------

def test_condition_number_on_harmonic_frame():
    rep = condition_number(harmonic_frame(6), 1, QUICK)
    h = harmonic_constants(6, 1)
    assert rep.beta == pytest.approx(h.beta, abs=1e-5)
    assert rep.L == pytest.approx(h.L, abs=1e-6)
    assert rep.U == pytest.approx(h.U, abs=1e-9)
    assert rep.theoretical_lower_bound == pytest.approx(6.0 * math.tan(math.pi / 12.0), rel=1e-14)
    assert rep.beta >= rep.theoretical_lower_bound - 1e-5
    assert rep.flags == ()


def test_condition_number_flags_sub_threshold_m():
    # two planar measurements cannot separate phase orbits
    A = SensingMatrix(Field.REAL, np.eye(2))
    rep = condition_number(A, 2, QUICK)
    assert NO_PHASE_RETRIEVAL_FLAG in rep.flags
    assert math.isinf(rep.beta) or rep.beta > 0  # beta may still be finite here


def test_condition_number_flags_degenerate_directions():
    # three copies of one direction pass the m threshold but have L = 0
    A = SensingMatrix(Field.REAL, [[1.0, 0.0]] * 3)
    rep = condition_number(A, 2, QUICK)
    assert rep.L <= 1e-10
    assert math.isinf(rep.beta)
    assert NO_PHASE_RETRIEVAL_FLAG in rep.flags


def test_condition_number_of_complex_frame_exceeds_two():
    A = sample_gaussian(Field.COMPLEX, 10, 2, RngSpec(118, 0))
    rep = condition_number(A, 2, QUICK)
    assert rep.beta >= universal_lower_bound(Field.COMPLEX, 2).value - 1e-4
    assert rep.field is Field.COMPLEX and (rep.m, rep.d) == (10, 2)


def test_condition_report_json_is_deterministic_and_complete():
    A = harmonic_frame(4)
    r1 = condition_number(A, 2, QUICK).to_json_dict()
    r2 = condition_number(A, 2, QUICK).to_json_dict()
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["beta_is_finite"] is True
    assert r1["solver"]["generator"] == "philox4x64"
    assert set(r1) >= {
        "p", "field", "m", "d", "L", "U", "beta",
        "theoretical_lower_bound", "flags", "lower", "upper", "solver",
    }
    lower = r1["lower"]
    assert lower["kind"] == "LowerL"
    assert "u" in lower["witness"] and "v" in lower["witness"]


def test_estimate_json_interleaves_complex_witnesses():
    A = sample_gaussian(Field.COMPLEX, 6, 2, RngSpec(129, 0))
    est = upper_lipschitz(A, 2, QUICK)
    payload = estimate_to_json_dict(est, A.field)
    w = payload["witness"]["u"]
    assert len(w) == 4  # two complex coordinates, re/im interleaved
    z = np.array([w[0] + 1j * w[1], w[2] + 1j * w[3]])
    assert abs(np.linalg.norm(z) - 1.0) < 1e-9


def test_infinite_beta_serializes_as_null():
    A = SensingMatrix(Field.REAL, [[1.0, 0.0]] * 3)
    payload = condition_number(A, 2, QUICK).to_json_dict()
    assert payload["beta"] is None
    assert payload["beta_is_finite"] is False
    assert json.loads(json.dumps(payload))["beta"] is None


# ---------------------------------------------------------------------------
# optimizer configuration
# ---------------------------------------------------------------------------

def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(starts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)


def test_optimizer_config_has_only_the_search_settings():
    # the line-search settings are module constants, not fields
    names = [f.name for f in dataclasses.fields(OptimizerConfig)]
    assert names == ["starts", "max_iters", "subgradient_iters", "polish", "rng"]


def test_runs_are_reproducible_for_a_fixed_config():
    A = sample_gaussian(Field.COMPLEX, 8, 3, RngSpec(140, 0))
    a = lower_lipschitz(A, 1, QUICK)
    b = lower_lipschitz(A, 1, QUICK)
    assert a.value == b.value
    assert np.array_equal(a.witness.u, b.witness.u)


# ---------------------------------------------------------------------------
# exact tight 4-frame test
# ---------------------------------------------------------------------------

def _rotation(angle):
    return np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])


def test_harmonic_frames_are_tight_4_frames():
    for m in (*range(3, 13), 100, 1000, 4000, 20000):
        A = harmonic_frame(m)
        check = is_tight_4_frame(A)
        assert check.is_tight and check.residual <= 1e-12
        assert check.mean == pytest.approx(3.0 * m / 8.0, rel=1e-12)
        moved = is_tight_4_frame(SensingMatrix(Field.REAL, 3.7 * A.array @ _rotation(0.3 + m)))
        assert moved.is_tight and moved.residual <= 1e-12
        assert moved.mean == pytest.approx(3.7 ** 4 * 3.0 * m / 8.0, rel=1e-12)


def test_unbiased_bases_and_icosahedron_axes_are_tight_4_frames():
    s = 1.0 / math.sqrt(2.0)
    mub = [[1, 0], [0, 1], [s, s], [s, -s], [s, 1j * s], [s, -1j * s]]
    g = (1.0 + math.sqrt(5.0)) / 2.0
    ico = np.array([[0, 1, g], [0, 1, -g], [1, g, 0], [1, -g, 0], [g, 0, 1], [-g, 0, 1]])
    for A in (SensingMatrix(Field.COMPLEX, mub),
              SensingMatrix(Field.REAL, ico / math.sqrt(1.0 + g * g))):
        check = is_tight_4_frame(A)
        assert check.is_tight and check.residual <= 1e-12
        # six unit rows: the sphere average is 6 / ||S||_F^2
        assert check.mean == pytest.approx(6.0 / (3.0 if A.field is Field.COMPLEX else 5.0))


def test_identity_is_not_a_tight_4_frame():
    check = is_tight_4_frame(SensingMatrix(Field.REAL, np.eye(2)))
    assert not check.is_tight
    assert check.mean == pytest.approx(0.75, rel=1e-15)
    assert check.residual == pytest.approx(0.5, rel=1e-15)


def test_frames_that_are_not_tight_have_a_large_residual():
    cases = [SensingMatrix(Field.COMPLEX, harmonic_frame(m).array.astype(complex))
             for m in (3, 7, 12)]
    cases += [sample_gaussian(field, m, 3, RngSpec(3, m))
              for field in (Field.REAL, Field.COMPLEX) for m in (20, 30)]
    for A in cases:
        check = is_tight_4_frame(A)
        assert not check.is_tight and check.residual > 0.3
    bent = harmonic_frame(7).array.copy()
    bent[0] *= 1.0 + 1e-4
    check = is_tight_4_frame(SensingMatrix(Field.REAL, bent))
    assert not check.is_tight
    assert check.residual == pytest.approx(7.4e-5, rel=0.01)
