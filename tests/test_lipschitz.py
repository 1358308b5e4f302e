"""Multi-start estimation of the optimal Lipschitz constants and reports."""

import dataclasses
import itertools
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

# the acceptance sweep settings (criteria 3 and 4)
SWEEP = OptimizerConfig(starts=12, max_iters=300, subgradient_iters=1500)

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


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("rows", [np.eye(3)[:2], np.eye(3)])
def test_upper_p2_reaches_one_on_coordinate_rows(field, rows):
    # sum_j |u_j|^4 over the first two or all three coordinates peaks at 1,
    # on a coordinate vector; the power iteration gets there from the
    # default starts, where 500 Armijo steps stopped at 0.99987 to 0.99993
    A = SensingMatrix(field, rows.astype(complex) if field is Field.COMPLEX else rows)
    est = upper_lipschitz(A, 2)
    assert est.method is Method.MULTI_START_LOCAL
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert upper_objective(A, est.witness, 2) == pytest.approx(est.value, rel=1e-14)


# (field, d, m, seed, U) at p=2 from the Armijo ascent the power iteration
# replaced (300 steps) at SWEEP, on sample_gaussian(field, m, d,
# RngSpec(seed, 10000 * is_complex + 1000 * d + m)), with m at the
# injectivity threshold, one above it, twice it, 12 d and 300
ARMIJO_U = [
    (Field.REAL, 3, 5, 1, 3.693657970952783),
    (Field.REAL, 3, 5, 2, 9.276349403310467),
    (Field.REAL, 3, 6, 1, 5.521682811232405),
    (Field.REAL, 3, 6, 2, 8.302711924569852),
    (Field.REAL, 3, 10, 1, 12.956235034423985),
    (Field.REAL, 3, 10, 2, 6.669739631001827),
    (Field.REAL, 3, 36, 1, 10.688108416817046),
    (Field.REAL, 3, 36, 2, 14.622838348858442),
    (Field.REAL, 3, 300, 1, 32.804844976791635),
    (Field.REAL, 3, 300, 2, 32.447687542184184),
    (Field.REAL, 4, 7, 1, 6.284076311631736),
    (Field.REAL, 4, 7, 2, 4.61575850005501),
    (Field.REAL, 4, 8, 1, 13.236467379929561),
    (Field.REAL, 4, 8, 2, 6.154610637277804),
    (Field.REAL, 4, 14, 1, 10.66139728444045),
    (Field.REAL, 4, 14, 2, 11.166444454171323),
    (Field.REAL, 4, 48, 1, 24.536253703771678),
    (Field.REAL, 4, 48, 2, 17.39320170634277),
    (Field.REAL, 4, 300, 1, 32.40947575167819),
    (Field.REAL, 4, 300, 2, 35.89436982592684),
    (Field.REAL, 5, 9, 1, 13.982861106004849),
    (Field.REAL, 5, 9, 2, 9.214722890384419),
    (Field.REAL, 5, 10, 1, 9.85226317208737),
    (Field.REAL, 5, 10, 2, 12.187293722516753),
    (Field.REAL, 5, 18, 1, 16.57240058758782),
    (Field.REAL, 5, 18, 2, 13.183667890075556),
    (Field.REAL, 5, 60, 1, 22.51284657272287),
    (Field.REAL, 5, 60, 2, 20.406499699012052),
    (Field.REAL, 5, 300, 1, 36.7687680409178),
    (Field.REAL, 5, 300, 2, 39.938633598309075),
    (Field.COMPLEX, 3, 8, 1, 5.649442744947459),
    (Field.COMPLEX, 3, 8, 2, 6.6698106404801605),
    (Field.COMPLEX, 3, 9, 1, 7.7130983903074455),
    (Field.COMPLEX, 3, 9, 2, 7.569509370693168),
    (Field.COMPLEX, 3, 16, 1, 9.426127171905602),
    (Field.COMPLEX, 3, 16, 2, 9.200155478511382),
    (Field.COMPLEX, 3, 36, 1, 8.269736797514556),
    (Field.COMPLEX, 3, 36, 2, 12.418581513262023),
    (Field.COMPLEX, 3, 300, 1, 26.85618088248522),
    (Field.COMPLEX, 3, 300, 2, 26.003455517293578),
    (Field.COMPLEX, 4, 12, 1, 12.608703548492434),
    (Field.COMPLEX, 4, 12, 2, 9.080185427481984),
    (Field.COMPLEX, 4, 13, 1, 7.399831608438029),
    (Field.COMPLEX, 4, 13, 2, 7.119188508069305),
    (Field.COMPLEX, 4, 24, 1, 10.434399819909798),
    (Field.COMPLEX, 4, 24, 2, 11.407926874720474),
    (Field.COMPLEX, 4, 48, 1, 17.182542490473967),
    (Field.COMPLEX, 4, 48, 2, 14.18896016457078),
    (Field.COMPLEX, 4, 300, 1, 29.780990769683065),
    (Field.COMPLEX, 4, 300, 2, 27.048246655173823),
    (Field.COMPLEX, 5, 16, 1, 15.474021749640531),
    (Field.COMPLEX, 5, 16, 2, 10.06473458691359),
    (Field.COMPLEX, 5, 17, 1, 9.669357494034752),
    (Field.COMPLEX, 5, 17, 2, 12.033596293469763),
    (Field.COMPLEX, 5, 32, 1, 16.403565774693433),
    (Field.COMPLEX, 5, 32, 2, 13.029073252412386),
    (Field.COMPLEX, 5, 60, 1, 19.253307495992047),
    (Field.COMPLEX, 5, 60, 2, 15.619908978864327),
    (Field.COMPLEX, 5, 300, 1, 31.287867487626794),
    (Field.COMPLEX, 5, 300, 2, 30.9971388202168),
]


@pytest.mark.parametrize("field, d, m, seed, U_old", ARMIJO_U)
def test_power_iteration_is_never_below_the_armijo_ascent(field, d, m, seed, U_old):
    A = sample_gaussian(field, m, d, RngSpec(seed, 10000 * (field is Field.COMPLEX) + 1000 * d + m))
    est = upper_lipschitz(A, 2, SWEEP)
    assert est.value >= U_old * (1.0 - 1e-12)
    assert upper_objective(A, est.witness, 2) == pytest.approx(est.value, rel=1e-14)


@pytest.mark.parametrize("seed, U_best", [(4302, 35.1654), (9202, 35.3560)])
def test_power_iteration_passes_the_benchmark_check_of_sweep_d4(seed, U_best):
    # the real p=2 draw of sweep-d4's job 5: at seed 4302 the Armijo ascent
    # stopped at U = 34.6158 from these 12 starts, below a random unit
    # vector's 34.9228, which the benchmark's check rejects, and 64 starts
    # gave 35.1654; at seed 9202 the power iteration from the 12 random
    # starts alone stops at 34.6664, below 34.7715, and the starts at the
    # longest rows reach 35.3561
    A = sample_gaussian(Field.REAL, 300, 4, RngSpec(seed, 22))
    assert upper_lipschitz(A, 2, SWEEP).value >= U_best


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_power_iteration_reports_how_it_ended(field, monkeypatch):
    # U at p=2 and d >= 3 carries a record of its best start, outside the
    # JSON payload, whose keys stay those of every other estimate
    A = sample_gaussian(field, 40, 4, RngSpec(23, int(field is Field.COMPLEX)))
    report = condition_number(A, 2, SWEEP)
    rec = report.upper.convergence
    assert isinstance(rec, lipschitz.PowerRecord)
    assert rec.stop == "no rise"
    assert 0 < rec.iterations < lipschitz._POWER_CAP
    assert 1 <= rec.starts_at_best <= 2 * SWEEP.starts
    payload = report.to_json_dict()
    assert list(payload) == [
        "p", "field", "m", "d", "L", "U", "beta", "beta_is_finite",
        "theoretical_lower_bound", "flags", "lower", "upper", "solver",
    ]
    for side in ("lower", "upper"):
        assert list(payload[side]) == ["value", "kind", "method", "certified_band", "witness"]

    # a cap below the best start's steps ends it, and the record says so
    monkeypatch.setattr(lipschitz, "_POWER_CAP", 3)
    capped = upper_lipschitz(A, 2, SWEEP).convergence
    assert capped.stop == "cap" and capped.iterations == 3


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
    # the Newton pair search at both p, at d=3; each estimate says how its
    # search ended, outside the JSON payload
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
        for e in (est, orth):
            assert e.convergence.stop in ("gradient", "cap")
            assert 1 <= e.convergence.runs_at_best <= 3 * QUICK.starts
            assert "convergence" not in estimate_to_json_dict(e, field)


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


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_lower_constants_reject_one_column(field):
    # a d=1 matrix once reached the pair search and died inside an empty
    # eigenvalue reduction
    A = SensingMatrix(field, np.array([[1.0], [2.0]], dtype=complex if field is Field.COMPLEX else float))
    for solve in (lower_lipschitz, orthogonal_lower_bound, condition_number):
        for p in (1, 2):
            with pytest.raises(ValueError, match="need dimension d >= 2"):
                solve(A, p, QUICK)


# ---------------------------------------------------------------------------
# p=2 pair search at d >= 3
# ---------------------------------------------------------------------------

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
    # the pair search at both p and the power iteration for U stop on their
    # own tests: none of the three inert fields changes an estimate
    A = sample_gaussian(field, 12, 3, RngSpec(11, 0))
    results = set()
    for budget, sub, polish in itertools.product((1, 300, 3000, 30000), (250, 5000), (True, False)):
        cfg = OptimizerConfig(starts=8, max_iters=budget, subgradient_iters=sub, polish=polish)
        for p in (1, 2):
            for est in (lower_lipschitz(A, p, cfg), orthogonal_lower_bound(A, p, cfg)):
                results.add((p, est.kind, est.value, est.witness.u.tobytes(), est.witness.v.tobytes()))
        up = upper_lipschitz(A, 2, cfg)
        results.add((2, up.kind, up.value, up.witness.tobytes()))
    assert len(results) == 5


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
    # and every run ends at f of order 1e-30 or below at p=2 and of order
    # 1e-16 or below at p=1
    A = sample_gaussian(field, 4, 3, RngSpec(21, 0))
    for p in (1, 2):
        est = lower_lipschitz(A, p, OptimizerConfig(starts=8))
        assert est.value == 0.0
        assert est.convergence.runs_at_best == 3 * 8


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("orthogonal", [False, True])
def test_p2_search_in_groups_of_starts_gives_the_same_estimate(field, orthogonal, monkeypatch):
    # groups of one or two starts bound the (3, runs, k, k, m) Hessian
    # weights; batched products round alike up to the last bits, so the best
    # value agrees to rounding, though among runs that tie a different one
    # may win
    A = sample_gaussian(field, 40, 3, RngSpec(22, int(orthogonal)))
    solve = orthogonal_lower_bound if orthogonal else lower_lipschitz
    whole = solve(A, 2, QUICK)
    monkeypatch.setattr(lipschitz, "_GROUP_ELEMENTS", 3 * 40 * 4 * A.d)
    parts = solve(A, 2, QUICK)
    assert parts.value == pytest.approx(whole.value, rel=1e-12)
    assert parts.convergence.stop == "gradient"
    assert parts.convergence.runs_at_best == whole.convergence.runs_at_best


# ---------------------------------------------------------------------------
# p=1 pair search at d >= 3
# ---------------------------------------------------------------------------

# (field, d, m, rng, L) at p=1 from the search the smoothed Newton search
# replaced (1500 subgradient steps and a Nelder-Mead polish) at SWEEP, on
# sample_gaussian(field, m, d, rng): that search stopped 4 to 210 times
# above the pairs the Newton search finds
SUBGRADIENT_P1 = [
    (Field.COMPLEX, 5, 16, RngSpec(1, 15016), 0.20989),
    (Field.REAL, 5, 9, RngSpec(1, 5009), 0.038610),
    (Field.COMPLEX, 4, 12, RngSpec(1, 14012), 0.17678),
    (Field.REAL, 4, 8, RngSpec(1, 4008), 0.018650),
]


@pytest.mark.parametrize("field, d, m, rng, L_old", SUBGRADIENT_P1)
def test_p1_search_is_far_below_the_subgradient_search(field, d, m, rng, L_old):
    A = sample_gaussian(field, m, d, rng)
    est = lower_lipschitz(A, 1, SWEEP)
    assert est.value <= 0.5 * L_old
    est.witness.validate()
    assert pair_objective(A, est.witness.u, est.witness.v, 1) == pytest.approx(est.value, rel=1e-9)


def test_p1_search_starts_where_most_terms_vanish():
    # every row is e_1, so an alternated start has c_j = 0 for all j and its
    # median |c_j|, the first smoothing width, is 0: without a floor on the
    # width the Hessian is NaN and the eigen-solve raises
    A = SensingMatrix(Field.REAL, [[1.0, 0.0, 0.0]] * 5)
    for solve in (lower_lipschitz, orthogonal_lower_bound):
        est = solve(A, 1, OptimizerConfig(starts=4))
        assert est.value == 0.0
        assert math.isfinite(est.convergence.gradient_norm)


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

    _f, g_t, h_t, basis, _lam, _images = lipschitz._second_order(
        blocks, lipschitz._khatri_rao(blocks), X, field, orthogonal)
    assert basis.shape[2] == {Field.REAL: 2 * A.d - 2, Field.COMPLEX: 4 * A.d - 5}[field] - orthogonal
    rng = np.random.default_rng(5)
    t = 1e-4
    for _ in range(4):
        z = rng.standard_normal(basis.shape[2])
        xi = basis[0] @ z
        second = (f(X + t * xi) + f(X - t * xi) - 2.0 * f(X)) / t ** 2
        assert second == pytest.approx(float(z @ h_t[0] @ z), rel=1e-5)


def _jacobian_second_order(blocks, X, field, orthogonal, width=None):
    """Value, g_t, h_t and multipliers of `_second_order` from the per-run Jacobian.

    The reference formula: the (runs, m, n) rows Q_j x_v and Q_j x_u are
    built outright, the Hessian is J^T diag(psi'') J plus
    sum_B B^T diag(psi') B on the uv block, and the basis is the one
    `_second_order` returns.
    """
    n = X.shape[1] // 2
    Xu, Xv = X[:, :n], X[:, n:]
    Kv = sum((Xv @ B.T)[..., None] * B for B in blocks)
    Ku = sum((Xu @ B.T)[..., None] * B for B in blocks)
    c = np.matmul(Kv, Xu[..., None])[..., 0]
    if width is None:
        psi, slope, curve = c * c, 2.0 * c, np.full_like(c, 2.0)
    else:
        delta = width[:, None]
        s = np.sqrt(c * c + delta * delta)
        psi, slope, curve = c * c / (s + delta), c / s, delta * delta / s ** 3
    jac = np.concatenate([Kv, Ku], axis=2)
    grad = np.matmul(slope[:, None, :], jac)[:, 0]
    hess = np.matmul(jac.transpose(0, 2, 1), curve[..., None] * jac)
    gu, gv = grad[:, :n], grad[:, n:]
    eye = np.eye(n)
    lam = [np.sum(Xu * gu, axis=1), np.sum(Xv * gv, axis=1)]
    hess[:, :n, :n] -= lam[0][:, None, None] * eye
    hess[:, n:, n:] -= lam[1][:, None, None] * eye
    uv = sum(np.matmul(B.T * slope[:, None, :], B) for B in blocks)
    for T, sign in lipschitz._bilinear_constraints(field, orthogonal):
        lam.append((sign * np.sum(T(Xv) * gu, axis=1) + np.sum(T(Xu) * gv, axis=1)) / 2.0)
        uv -= lam[-1][:, None, None] * T(eye)
    hess[:, :n, n:] += uv
    hess[:, n:, :n] += uv.transpose(0, 2, 1)
    basis = lipschitz._second_order(blocks, lipschitz._khatri_rao(blocks), X, field, orthogonal, width)[3]
    g_t = np.matmul(grad[:, None, :], basis)[:, 0]
    h_t = np.matmul(np.matmul(basis.transpose(0, 2, 1), hess), basis)
    return np.sum(psi, axis=1), g_t, h_t, np.stack(lam, axis=1)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("orthogonal", [False, True])
@pytest.mark.parametrize("width", [None, 1e-1, 1e-5, 1e-9])
@pytest.mark.parametrize("slice_rows", [None, 5])
def test_second_order_matches_the_jacobian_formula(field, orthogonal, width, slice_rows, monkeypatch):
    # the Newton terms from one product of image weights with the Khatri-Rao
    # products agree with the per-run Jacobian to rounding, at random
    # feasible pairs, for p=2 (width None) and the smoothed p=1 objective;
    # with slice_rows set, the products are formed 5 of the m rows at a time
    A = sample_gaussian(field, 23, 4, RngSpec(31, int(orthogonal)))
    blocks = lipschitz._real_blocks(A)
    if slice_rows is not None:
        n = blocks.shape[2]
        monkeypatch.setattr(lipschitz, "_GROUP_ELEMENTS", n * (n + 1) // 2 * slice_rows)
    products = lipschitz._khatri_rao(blocks)
    X = lipschitz._pair_starts(A, orthogonal, OptimizerConfig(starts=7, rng=RngSpec(32, 0)))
    widths = None if width is None else np.full(X.shape[0], width)
    value, g_t, h_t, _basis, lam, images = lipschitz._second_order(blocks, products, X, field, orthogonal, widths)
    for got, want in zip((value, g_t, h_t, lam), _jacobian_second_order(blocks, X, field, orthogonal, widths)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(images, lipschitz._images(blocks, X))

    # the partner step's forms are the Gram matrices K^T K of the rows Q_j x
    x = X[:, : X.shape[1] // 2]
    K = sum((x @ B.T)[..., None] * B for B in blocks)
    want = np.matmul(K.transpose(0, 2, 1), K)
    got = lipschitz._partner_gram(blocks, products, x)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _three_product_decrease(blocks, X, Xn, lam, field, orthogonal, width=None):
    """`_decrease` from the images of X, Xn and D = Xn - X: the reference formula.

    The change of c_j is sum_B Z_u Y_vn + Y_u Z_v with Y, Yn and Z the
    images of X, Xn and D, and at p=1 the new root takes c_j at Xn from Yn.
    """
    n = X.shape[1] // 2
    D = Xn - X
    Xu, Xv, Xvn, Du, Dv = X[:, :n], X[:, n:], Xn[:, n:], D[:, :n], D[:, n:]
    (Yu, Yv), (Yun, Yvn), (Zu, Zv) = (lipschitz._images(blocks, Z).transpose(1, 0, 2, 3) for Z in (X, Xn, D))
    c = np.add.reduce(Yu * Yv, 1)
    dc = np.add.reduce(Zu * Yvn, 1) + np.add.reduce(Yu * Zv, 1)
    change = dc * (2.0 * c + dc)
    if width is not None:
        square = (width * width)[:, None]
        change /= np.sqrt(np.add.reduce(Yun * Yvn, 1) ** 2 + square) + np.sqrt(c * c + square)
    dh = [np.sum(Du * (Xu + Du / 2.0), axis=1), np.sum(Dv * (Xv + Dv / 2.0), axis=1)]
    for T, _s in lipschitz._bilinear_constraints(field, orthogonal):
        dh.append(np.sum(T(Du) * Xvn, axis=1) + np.sum(T(Xu) * Dv, axis=1))
    return np.sum(change, axis=1) - np.sum(lam * np.stack(dh, axis=1), axis=1)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("orthogonal", [False, True])
@pytest.mark.parametrize("width", [None, 1e-1, 1e-6])
def test_decrease_matches_the_three_product_formula_and_the_change_of_f(field, orthogonal, width):
    # from one image product of D = Xn - X and the images of X, the change
    # of the Lagrangian agrees to rounding with the reference formula at
    # feasible pairs from 1e-8 to 0.3 apart, and with f(Xn) - f(X) itself
    # where the pairs are far enough apart that the values of f differ in
    # their leading digits
    A = sample_gaussian(field, 29, 4, RngSpec(41, int(orthogonal)))
    blocks = lipschitz._real_blocks(A)
    X = lipschitz._pair_starts(A, orthogonal, OptimizerConfig(starts=16, rng=RngSpec(42, 0)))
    widths = None if width is None else np.full(X.shape[0], width)
    _f, _g, _h, _basis, lam, images = lipschitz._second_order(
        blocks, lipschitz._khatri_rao(blocks), X, field, orthogonal, widths)
    terms = lipschitz._pair_terms(blocks, X)
    rng = np.random.default_rng(43)
    for t in (1e-8, 1e-4, 0.3):
        Xn = lipschitz._retract_packed(X + t * rng.standard_normal(X.shape), field, orthogonal)
        got = lipschitz._decrease(blocks, images, terms, X, Xn, lam, field, orthogonal, widths)
        want = _three_product_decrease(blocks, X, Xn, lam, field, orthogonal, widths)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def f(Z):
        c = lipschitz._pair_terms(blocks, Z)
        if width is None:
            return np.sum(c * c, axis=1)
        return np.sum(np.sqrt(c * c + width * width) - width, axis=1)

    Xn = lipschitz._retract_packed(X + 0.3 * rng.standard_normal(X.shape), field, orthogonal)
    got = lipschitz._decrease(blocks, images, terms, X, Xn, lam, field, orthogonal, widths)
    assert got == pytest.approx(f(Xn) - f(X), rel=1e-10, abs=1e-12)
    # without multipliers it is the change of f itself
    plain = lipschitz._decrease(blocks, images, terms, X, Xn, None, field, orthogonal, widths)
    assert plain == pytest.approx(f(Xn) - f(X), rel=1e-10, abs=1e-12)


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
    assert set(r1["solver"]) == {"starts", "seed", "stream", "generator"}
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
