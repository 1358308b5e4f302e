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
    # the p=2 Newton search and the p=1 descent with its polish, at d=3
    for field, p in ((Field.COMPLEX, 2), (Field.REAL, 1), (Field.COMPLEX, 1)):
        A = sample_gaussian(field, 7, 3, RngSpec(41, 0))
        est = lower_lipschitz(A, p, QUICK)
        assert isinstance(est.witness, UnitPair)
        est.witness.validate()
        assert est.witness.constraint is Constraint.REAL_INNER
        assert pair_objective(A, est.witness.u, est.witness.v, p) == pytest.approx(est.value, rel=1e-9)

        orth = orthogonal_lower_bound(A, p, QUICK)
        orth.witness.validate()
        assert orth.witness.constraint is Constraint.ORTHOGONAL
        assert abs(orth.witness.inner()) < 1e-10
        assert orth.kind is EstimateKind.ORTHOGONAL_M
        assert pair_objective(A, orth.witness.u, orth.witness.v, p) == pytest.approx(orth.value, rel=1e-9)


def test_polished_orthogonal_witness_stays_orthogonal():
    # an ambient polish of this search once drove v nearly parallel to u; one
    # Gram-Schmidt pass left |<u, v>| = 8.1e-9 and validation raised "pair is
    # not orthogonal".  The Newton witness must stay as orthogonal.
    A = sample_gaussian(Field.COMPLEX, 150, 5, RngSpec(908, 5150))
    cfg = OptimizerConfig(starts=5, max_iters=40, subgradient_iters=100, rng=RngSpec(7, 3))
    est = orthogonal_lower_bound(A, 2, cfg)
    assert isinstance(est.witness, UnitPair)
    assert est.witness.constraint is Constraint.ORTHOGONAL
    est.witness.validate()
    assert abs(est.witness.inner()) < 1e-13
    assert pair_objective(A, est.witness.u, est.witness.v, 2) == pytest.approx(est.value, rel=1e-12)


# ---------------------------------------------------------------------------
# p=2 pair search at d >= 3
# ---------------------------------------------------------------------------

# the acceptance sweep settings (criteria 3 and 4)
SWEEP = OptimizerConfig(starts=12, max_iters=300, subgradient_iters=1500)

# (field, d, m, L, M) at p=2 from the search the Newton search replaced (300
# Armijo steps and a Nelder-Mead polish) at SWEEP, on
# sample_gaussian(field, m, d, RngSpec(9, 10000 * is_complex + 100 * d + m)),
# with m at the injectivity threshold, one above it, twice it and 12 d
ARMIJO_P2 = [
    (Field.REAL, 3, 5, 0.0007555830047798708, 0.04604758800473953),
    (Field.REAL, 3, 6, 0.2809781565773456, 0.3598501444087233),
    (Field.REAL, 3, 10, 0.16571526290311142, 0.8869663137893317),
    (Field.REAL, 3, 36, 3.760371379720105, 3.775620555723987),
    (Field.REAL, 4, 7, 0.0007812907333372596, 0.06601424396680218),
    (Field.REAL, 4, 8, 0.06002625977910796, 0.08506244126730285),
    (Field.REAL, 4, 14, 0.3922949225042237, 0.5242462788399778),
    (Field.REAL, 4, 48, 3.465959569045798, 3.549052238090278),
    (Field.REAL, 5, 9, 0.01864680161946271, 0.07511215993347538),
    (Field.REAL, 5, 10, 0.0008788126377615841, 0.02380558737716505),
    (Field.REAL, 5, 18, 0.5216059199360492, 0.5232406258096811),
    (Field.REAL, 5, 60, 3.234579959061503, 3.2392294250206235),
    (Field.COMPLEX, 3, 8, 0.061577293809387285, 0.07225012162970715),
    (Field.COMPLEX, 3, 9, 0.14423026849068166, 0.29739844802802584),
    (Field.COMPLEX, 3, 16, 0.7193492492104347, 0.7831419390587658),
    (Field.COMPLEX, 3, 36, 2.0814311183524867, 2.188348850683852),
    (Field.COMPLEX, 4, 12, 0.0044831022237401385, 0.05704344616684105),
    (Field.COMPLEX, 4, 13, 0.07647913973475304, 0.1135073749457437),
    (Field.COMPLEX, 4, 24, 0.798792186742844, 0.7995868115889668),
    (Field.COMPLEX, 4, 48, 2.2455595013789726, 2.274268590502843),
    (Field.COMPLEX, 5, 16, 0.011737502420835587, 0.036857833674570725),
    (Field.COMPLEX, 5, 17, 0.05625228958989539, 0.05403826536318958),
    (Field.COMPLEX, 5, 32, 0.7923197267828431, 0.9055867482117452),
    (Field.COMPLEX, 5, 60, 2.074858742030016, 2.080722810174686),
]


@pytest.mark.parametrize("field, d, m, L_old, M_old", ARMIJO_P2)
def test_p2_search_is_never_above_the_armijo_search(field, d, m, L_old, M_old):
    A = sample_gaussian(field, m, d, RngSpec(9, 10000 * (field is Field.COMPLEX) + 100 * d + m))
    low = lower_lipschitz(A, 2, SWEEP)
    orth = orthogonal_lower_bound(A, 2, SWEEP)
    assert low.value <= L_old * (1.0 + 1e-12)
    assert orth.value <= M_old * (1.0 + 1e-12)
    assert low.value <= orth.value * (1.0 + 1e-12)


# (field, d, m, rng, L, M) at p=2 from the replaced search at SWEEP on
# sample_gaussian(field, m, d, rng): draws on which Newton from the random
# and the alternated starts alone ended above it, in another basin; the
# Armijo-descended starts find the replaced search's basin
ARMIJO_P2_HARD = [
    (Field.REAL, 4, 7, RngSpec(3, 4007), 0.003950331731739478, 0.012237329632736962),
    (Field.COMPLEX, 5, 17, RngSpec(5, 15017), 0.01877491805895552, 0.07663566268721517),
    (Field.COMPLEX, 5, 16, RngSpec(12, 15016), 0.00945194965868595, 0.024519169131911867),
    (Field.COMPLEX, 5, 19, RngSpec(13, 15019), 0.07496278255142046, 0.09713942242188348),
]


@pytest.mark.parametrize("field, d, m, rng, L_old, M_old", ARMIJO_P2_HARD)
def test_p2_search_finds_the_armijo_basin_on_hard_draws(field, d, m, rng, L_old, M_old):
    A = sample_gaussian(field, m, d, rng)
    assert lower_lipschitz(A, 2, SWEEP).value <= L_old * (1.0 + 1e-12)
    assert orthogonal_lower_bound(A, 2, SWEEP).value <= M_old * (1.0 + 1e-12)


def test_p2_search_leaves_the_high_basin_just_above_the_threshold():
    # complex d=5 at m = 4d - 4: 300 Armijo steps stopped at L = 0.03318, and
    # the polish or 30000 steps at 0.019411
    A = sample_gaussian(Field.COMPLEX, 16, 5, RngSpec(99, 165))
    assert lower_lipschitz(A, 2, SWEEP).value <= 0.00892


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_p2_search_does_not_depend_on_the_iteration_budget(field):
    A = sample_gaussian(field, 12, 3, RngSpec(11, 0))
    results = set()
    for budget in (300, 3000, 30000):
        cfg = OptimizerConfig(starts=8, max_iters=budget)
        for est in (lower_lipschitz(A, 2, cfg), orthogonal_lower_bound(A, 2, cfg)):
            results.add((est.kind, est.value, est.witness.u.tobytes(), est.witness.v.tobytes()))
    assert len(results) == 2


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("orthogonal", [False, True])
def test_p2_witness_is_a_second_order_minimum(field, orthogonal):
    A = sample_gaussian(field, 14, 3, RngSpec(12, int(orthogonal)))
    est = (orthogonal_lower_bound if orthogonal else lower_lipschitz)(A, 2, SWEEP)
    rec = est.convergence
    assert rec.stop == "gradient" and 0 <= rec.iterations < lipschitz._NEWTON_CAP
    assert rec.gradient_norm <= lipschitz._NEWTON_TOL * (1.0 + est.value ** 2)
    assert rec.min_hessian_eigenvalue >= -1e-9
    assert 1 <= rec.runs_at_best <= 3 * SWEEP.starts
    assert "convergence" not in estimate_to_json_dict(est, field)

    # 256 feasible pairs at distances 1e-7 to 1e-2 from the witness
    rng = np.random.default_rng(3)
    shape = (256, A.d)
    radius = np.logspace(-7, -2, 256)[:, None]
    du, dv = rng.standard_normal(shape), rng.standard_normal(shape)
    if field is Field.COMPLEX:
        du, dv = du + 1j * rng.standard_normal(shape), dv + 1j * rng.standard_normal(shape)
    X = np.concatenate(
        [lipschitz._pack(est.witness.u + radius * du, field), lipschitz._pack(est.witness.v + radius * dv, field)],
        axis=1,
    )
    near = [pair_objective(A, *lipschitz._unpack(x, field), 2) for x in lipschitz._retract_packed(X, field, orthogonal)]
    assert min(near) >= est.value - 1e-12


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_runs_at_best_counts_every_run_that_reaches_zero(field):
    # m = 4 is below the injectivity threshold at d = 3 in both fields, so L = 0,
    # and every run ends at f of order 1e-30 or below
    A = sample_gaussian(field, 4, 3, RngSpec(21, 0))
    est = lower_lipschitz(A, 2, OptimizerConfig(starts=8))
    assert est.value == 0.0
    assert est.convergence.runs_at_best == 3 * 8


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("orthogonal", [False, True])
def test_p2_search_in_groups_of_starts_gives_the_same_estimate(field, orthogonal, monkeypatch):
    # groups of one or two starts bound the (runs, m, n) tensors; batched
    # products round alike up to the last bits, so the best value agrees to
    # rounding, though among runs that tie a different one may win
    A = sample_gaussian(field, 40, 3, RngSpec(22, int(orthogonal)))
    solve = orthogonal_lower_bound if orthogonal else lower_lipschitz
    whole = solve(A, 2, QUICK)
    monkeypatch.setattr(lipschitz, "_GROUP_ELEMENTS", 3 * 40 * 4 * A.d)
    parts = solve(A, 2, QUICK)
    assert parts.value == pytest.approx(whole.value, rel=1e-12)
    assert parts.convergence.stop == "gradient"
    assert parts.convergence.runs_at_best == whole.convergence.runs_at_best


def test_complex_pair_objective_ignores_the_phases_of_u_plus_v_and_u_minus_v():
    # c_j = (|<a_j, u + v>|^2 - |<a_j, u - v>|^2) / 4, so the search removes
    # both (i u, i v) and (i v, i u) from its steps
    A = sample_gaussian(Field.COMPLEX, 9, 3, RngSpec(13, 0))
    est = orthogonal_lower_bound(A, 2, QUICK)
    u, v = est.witness.u, est.witness.v
    for theta, phi in ((0.3, -1.1), (2.0, 0.5)):
        s, t = np.exp(1j * theta) * (u + v), np.exp(1j * phi) * (u - v)
        pair = UnitPair(Field.COMPLEX, (s + t) / 2.0, (s - t) / 2.0, Constraint.ORTHOGONAL)
        pair.validate()
        assert pair_objective(A, pair.u, pair.v, 2) == pytest.approx(est.value, rel=1e-12)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("orthogonal", [False, True])
def test_riemannian_hessian_matches_second_differences(field, orthogonal):
    # at a critical point, f along any retracted line has second derivative
    # the Riemannian Hessian's quadratic form
    A = sample_gaussian(field, 14, 3, RngSpec(4, 1))
    est = (orthogonal_lower_bound if orthogonal else lower_lipschitz)(A, 2, QUICK)
    blocks = lipschitz._real_blocks(A)
    X = np.concatenate([lipschitz._pack(est.witness.u, field), lipschitz._pack(est.witness.v, field)])[None]

    def f(Y):
        return float(np.sum(lipschitz._pair_terms(blocks, lipschitz._retract_packed(Y, field, orthogonal)) ** 2))

    _f, g_t, h_t, basis, _lam = lipschitz._second_order(blocks, X, field, orthogonal)
    assert basis.shape[2] == {Field.REAL: 2 * A.d - 2, Field.COMPLEX: 4 * A.d - 5}[field] - orthogonal
    rng = np.random.default_rng(5)
    t = 1e-4
    for _ in range(4):
        z = rng.standard_normal(basis.shape[2])
        xi = basis[0] @ z
        second = (f(X + t * xi) + f(X - t * xi) - 2.0 * f(X)) / t ** 2
        assert second == pytest.approx(float(z @ h_t[0] @ z), rel=1e-5)


@pytest.mark.parametrize("orthogonal", [True, False])
def test_retract_packed_reorthogonalizes_nearly_parallel_vectors(orthogonal):
    # one pass leaves |<u, v>| and |Im<u, v>| near 5e-8 on the first row; the
    # second row is an ordinary pair in the same batch
    rng = RngSpec(3, 0).generator()
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = 0.7j * u + 1e-9 * w
    rows = [(u, v), (u, w)]
    X = np.stack([np.concatenate([lipschitz._pack(a, Field.COMPLEX), lipschitz._pack(b, Field.COMPLEX)]) for a, b in rows])
    for x in lipschitz._retract_packed(X, Field.COMPLEX, orthogonal):
        pair = lipschitz._unpack(x, Field.COMPLEX)
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
