"""Certified planar oracle, identity checkers, and the verification suites."""

import functools
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

from prcond import oracle
from prcond.closedform import harmonic_constants, sub_tan_bound
from prcond.core import (
    Constraint,
    Field,
    RngSpec,
    SensingMatrix,
    _metric_routes,
    dist_h,
    harmonic_frame,
    sample_gaussian,
)
from prcond.lipschitz import (
    BandRecord,
    EstimateKind,
    Method,
    estimate_to_json_dict,
    lower_lipschitz,
    orthogonal_lower_bound,
    pair_objective,
    upper_lipschitz,
    upper_objective,
)
from prcond.oracle import (
    check_g_min_at_one,
    check_gk_closed_form,
    check_lagrange_identities,
    check_sub_tan,
    grid_lower_l,
    grid_upper_u,
    k_hat,
    mc_expectation,
    verify_all,
)
from prcond.planar import _bloch_rows


@pytest.fixture
def fast_grid(monkeypatch):
    """A reduced search budget for the branch and bound."""
    monkeypatch.setattr(oracle, "_MAX_LEVELS", 45)
    monkeypatch.setattr(oracle, "_MAX_CELLS", 40_000)


# ---------------------------------------------------------------------------
# search budget
# ---------------------------------------------------------------------------

def test_default_search_budget_is_fixed_and_reached():
    # the budget is no input of the oracle: the bands take the matrix, p and
    # the constraint only, and run at the two module constants
    assert list(inspect.signature(grid_lower_l).parameters) == ["A", "p", "constraint"]
    assert list(inspect.signature(grid_upper_u).parameters) == ["A", "p"]
    assert (oracle._MAX_LEVELS, oracle._MAX_CELLS) == (54, 200_000)
    # on the harmonic frame the p=1 L search takes every level of the
    # budget, and the flat p=2 L valley stops before a level would pass
    # the cell budget
    A = harmonic_frame(5)
    capped = grid_lower_l(A, 1).convergence
    assert (capped.stop, capped.levels) == ("level cap", oracle._MAX_LEVELS)
    assert capped.largest_frontier <= oracle._MAX_CELLS
    wide = grid_lower_l(A, 2).convergence
    assert wide.stop == "max_cells" and wide.levels < oracle._MAX_LEVELS
    assert oracle._MAX_CELLS // 2 < wide.largest_frontier <= oracle._MAX_CELLS


# ---------------------------------------------------------------------------
# oracle vs closed forms on the harmonic frame
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [3, 4, 5, 6])
@pytest.mark.parametrize("p", [1, 2])
def test_oracle_matches_harmonic_constants(m, p, fast_grid):
    # the reduced-effort grid resolves the constants to a few parts in 1e4;
    # the default grid is pinned tighter in the spot test below
    A = harmonic_frame(m)
    h = harmonic_constants(m, p)
    lo = grid_lower_l(A, p, Constraint.REAL_INNER)
    orth = grid_lower_l(A, p, Constraint.ORTHOGONAL)
    up = grid_upper_u(A, p)
    assert lo.value == pytest.approx(h.L, abs=2e-4)
    assert orth.value == pytest.approx(h.L_orth, abs=2e-4)
    assert up.value == pytest.approx(h.U, abs=2e-4)


@pytest.mark.parametrize("p", [1, 2])
def test_oracle_default_grid_resolves_harmonic_m5(p):
    A = harmonic_frame(5)
    h = harmonic_constants(5, p)
    assert grid_lower_l(A, p).value == pytest.approx(h.L, abs=1e-6)
    assert grid_lower_l(A, p, Constraint.ORTHOGONAL).value == pytest.approx(h.L_orth, abs=1e-6)
    assert grid_upper_u(A, p).value == pytest.approx(h.U, abs=1e-6)


@pytest.mark.parametrize("p", [1, 2])
def test_oracle_bands_contain_the_exact_constants(p, fast_grid):
    A = harmonic_frame(5)
    h = harmonic_constants(5, p)
    lo = grid_lower_l(A, p, Constraint.REAL_INNER)
    up = grid_upper_u(A, p)
    assert lo.certified_band[0] <= h.L <= lo.certified_band[1] + 1e-12
    assert up.certified_band[0] - 1e-12 <= h.U <= up.certified_band[1]
    # the attained edge of each band is the reported value
    assert lo.certified_band[1] == lo.value
    assert up.certified_band[0] == up.value


def test_oracle_estimate_metadata(fast_grid):
    A = harmonic_frame(4)
    lo = grid_lower_l(A, 2, Constraint.REAL_INNER)
    orth = grid_lower_l(A, 2, Constraint.ORTHOGONAL)
    up = grid_upper_u(A, 2)
    assert lo.kind is EstimateKind.LOWER_L
    assert orth.kind is EstimateKind.ORTHOGONAL_M
    assert up.kind is EstimateKind.UPPER_U
    assert lo.method is Method.GRID_ORACLE
    assert lo.p == 2


def test_oracle_witnesses_are_feasible_and_attaining(fast_grid):
    A = sample_gaussian(Field.COMPLEX, 6, 2, RngSpec(314, 0))
    for p in (1, 2):
        for constraint in (Constraint.REAL_INNER, Constraint.ORTHOGONAL):
            est = grid_lower_l(A, p, constraint)
            est.witness.validate()
            direct = pair_objective(A, est.witness.u, est.witness.v, p)
            assert direct == pytest.approx(est.value, rel=1e-8)
    up = grid_upper_u(A, 2)
    assert abs(np.linalg.norm(up.witness) - 1.0) < 1e-10
    assert upper_objective(A, up.witness, 2) == pytest.approx(up.value, rel=1e-8)


def test_oracle_orthogonal_never_undercuts_free_minimum(fast_grid):
    for k in range(3):
        A = sample_gaussian(Field.COMPLEX, 7, 2, RngSpec(271, k))
        free = grid_lower_l(A, 1, Constraint.REAL_INNER)
        orth = grid_lower_l(A, 1, Constraint.ORTHOGONAL)
        assert orth.value >= free.value - 1e-9


def test_oracle_scaling_covariance(fast_grid):
    A = sample_gaussian(Field.REAL, 6, 2, RngSpec(99, 0))
    base = grid_lower_l(A, 2, Constraint.REAL_INNER)
    scaled = grid_lower_l(A.scaled(2.0), 2, Constraint.REAL_INNER)
    assert scaled.value == pytest.approx(4.0 * base.value, rel=1e-7)


def test_oracle_bands_are_invariant_to_the_matrix_scale():
    # the branch and bound stops on an absolute gap, which at 1e-7 would
    # end it with a band 40% wide unless the matrix is rescaled
    A = sample_gaussian(Field.COMPLEX, 8, 2, RngSpec(3, 0))
    c = 1e-7
    for fun in (lambda M: grid_lower_l(M, 1), lambda M: grid_upper_u(M, 1)):
        base = fun(A).certified_band
        got = fun(A.scaled(c)).certified_band
        assert got[0] / c ** 2 == pytest.approx(base[0], rel=1e-9)
        assert got[1] / c ** 2 == pytest.approx(base[1], rel=1e-9)


@pytest.mark.parametrize("m", range(3, 13))
def test_flat_upper_band_closes_on_its_first_cell(m):
    # U at p=1 of a harmonic frame is flat: every unit vector attains it.
    # The search closes on the box itself, so its witness is the box centre
    # whatever the order of the rows
    A = harmonic_frame(m)
    est = grid_upper_u(A, 1)
    rev = grid_upper_u(SensingMatrix(Field.REAL, A.array[::-1]), 1)
    assert est.convergence == rev.convergence == BandRecord("gap", 1, 0, 1)
    assert est.witness.tobytes() == rev.witness.tobytes()
    lo, hi = est.certified_band
    assert lo - 1e-12 <= harmonic_constants(m, 1).U <= hi + 1e-12


def test_oracle_requires_planar_input():
    A = sample_gaussian(Field.REAL, 5, 3, RngSpec(1, 0))
    with pytest.raises(ValueError):
        grid_lower_l(A, 2)
    with pytest.raises(ValueError):
        grid_upper_u(A, 2)
    B = sample_gaussian(Field.REAL, 5, 2, RngSpec(1, 0))
    with pytest.raises(ValueError):
        grid_lower_l(B, 2, Constraint.FREE)
    with pytest.raises(ValueError):
        grid_lower_l(B, 3)


# ---------------------------------------------------------------------------
# branch-and-bound record and layout parity
# ---------------------------------------------------------------------------

def _three_bands(A, p):
    """L, M and U of a planar matrix at one p."""
    return (
        grid_lower_l(A, p, Constraint.REAL_INNER),
        grid_lower_l(A, p, Constraint.ORTHOGONAL),
        grid_upper_u(A, p),
    )


def test_branch_bound_records_gap_and_level_cap_stops(monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_LEVELS", 5)

    # the search starts from the box itself, and a flat function closes
    # on its first cell
    def flat(cent, half):
        one = np.ones(cent.shape[1])
        return one, one, half

    res = oracle._branch_bound(flat, [0.0], [1.0])
    assert res.record == BandRecord("gap", 1, 0, 1)
    assert res.floor == res.best == 1.0
    assert res.arg.tolist() == [0.5]

    # F(x) = x with exact cell floors: only the cell at 0 stays live, and
    # each level splits it in two until the level cap.  The children's
    # half-widths carry a pad of 2 eps (the box edges are at most 1 in
    # size), so the floor sits a few eps below 0
    def line(cent, half):
        return cent[0], cent[0] - half[0], half

    res = oracle._branch_bound(line, [0.0], [1.0])
    assert res.record == BandRecord("level cap", 1 + 2 * 5, 5, 2)
    assert -1e-14 < res.floor <= 0.0
    assert res.best == pytest.approx(2.0 ** -6, rel=1e-13)


@pytest.mark.parametrize("target", [np.pi / 2, 3.0, 4.0 * np.pi / 3, 3.0 * np.pi / 2, 5.5, 2.0 * np.pi - 1e-3])
def test_branch_bound_stops_at_the_float_resolution_with_the_minimum_covered(target, monkeypatch):
    # one axis, theta in [0, 2 pi], and floors that never close on the gap:
    # a cell near the target keeps a floor 1 below its value.  Halving down
    # to the level budget would pass the float spacing of theta, so the
    # search ends at the float resolution instead, and the cells of its
    # last level still cover the target in exact arithmetic
    last = []

    def slope(cent, half):
        dist = np.abs(cent[0] - target)
        floors = dist - 2.0 * half[0]
        floors[dist <= 2.0 * half[0]] -= 1.0
        last[:] = [cent[0].copy(), half[0].copy()]
        return dist, floors, half

    monkeypatch.setattr(oracle, "_MAX_LEVELS", 200)
    monkeypatch.setattr(oracle, "_MAX_CELLS", 64)
    res = oracle._branch_bound(slope, [0.0], [2.0 * np.pi])
    assert res.record.stop == "level cap"
    assert 40 < res.record.levels < 54
    assert any(Fraction(float(c)) - Fraction(float(h)) <= Fraction(target)
               <= Fraction(float(c)) + Fraction(float(h)) for c, h in zip(*last))


@pytest.mark.parametrize("field,p,r", [
    (Field.COMPLEX, 1, None), (Field.REAL, 1, 0.0), (Field.COMPLEX, 2, None), (Field.COMPLEX, 1, 1.0),
])
def test_bands_do_not_depend_on_the_evaluation_chunk(field, p, r, monkeypatch, fast_grid):
    # the branch and bound evaluates its cells a chunk at a time, so that
    # its memory is the frontier's; the chunk size must not change the band.
    # Every frontier here passes 13 cells, so some level takes several calls
    A = sample_gaussian(field, 9, 2, RngSpec(1414, 9))
    whole = oracle._planar_band(A, p, r)
    seen = []
    problem = oracle._planar_problem

    def recording(*args):
        evaluate, *rest = problem(*args)

        def counted(Z, H):
            seen.append(Z.shape[1])
            return evaluate(Z, H)

        return (counted, *rest)

    monkeypatch.setattr(oracle, "_planar_problem", recording)
    monkeypatch.setattr(oracle, "_CHUNK", 13)
    (res, rs, y), (ref, ref_rs, ref_y) = oracle._planar_band(A, p, r), whole
    assert max(seen) == 13 and sum(seen) == res.record.evaluations
    assert len(seen) > res.record.levels + 1
    assert (res.floor, res.best, res.record, rs) == (ref.floor, ref.best, ref.record, ref_rs)
    assert res.arg.tobytes() == ref.arg.tobytes() and y.tobytes() == ref_y.tobytes()


def test_band_record_reports_a_max_cells_stop(monkeypatch):
    # from the whole box, the first six levels keep every cell of the L and
    # M slices live, so those searches stop where level 7 would split 64
    # cells into 128; the U frontiers stay within 64 cells and close on the
    # gap
    monkeypatch.setattr(oracle, "_MAX_CELLS", 64)
    A = sample_gaussian(Field.COMPLEX, 6, 2, RngSpec(5, 6))
    for p in (1, 2):
        low, orth, up = _three_bands(A, p)
        for est in (low, orth):
            assert est.convergence == BandRecord("max_cells", 127, 6, 64)
            assert est.certified_band[0] == 0.0
        assert up.convergence.stop == "gap"
        assert up.convergence.largest_frontier <= 64


def _slice_by_terms(A, p, r, Z):
    """sum kappa_i^p |r + <m_i, y>|^p at the points Z (k, n), term by term."""
    kap, M = _bloch_rows(A)
    rs = Z[0] if r is None else r
    if A.field is Field.REAL:
        Y = np.stack([np.cos(Z[-1]), np.sin(Z[-1])])
    else:
        st = np.sin(Z[-2])
        Y = np.stack([np.cos(Z[-2]), st * np.cos(Z[-1]), st * np.sin(Z[-1])])
    return (kap ** p) @ np.abs(M[:, : len(Y)] @ Y + rs) ** p


def _test_cells(field, r, h, evaluate, lo, hi):
    """Cell centres (k, n) of half-width h for the floor checks.

    The cells touch theta = 0 and pi, r = 0 and 1, and two more sit at the
    least and the greatest point of a coarse sweep, where the slice curves
    most; the floors need not stay inside the box.
    """
    if field is Field.REAL:
        axes = [[h, np.pi - h, np.pi + h, 2.0 * np.pi - h, 2.0]]
    else:
        axes = [[h, np.pi - h, 1.0], [h, 3.0, 2.0 * np.pi - h]]
    if r is None:
        axes = [[h, 0.5, 1.0 - h]] + axes
    edges = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    sweep = np.stack([g.ravel() for g in np.meshgrid(
        *[np.linspace(a, b, 40) for a, b in zip(lo, hi)], indexing="ij")])
    vals, _, _ = evaluate(sweep, np.zeros_like(sweep))
    return np.concatenate([edges, sweep[:, [np.argmin(vals), np.argmax(vals)]]], axis=1)


@pytest.mark.parametrize("field", list(Field))
@pytest.mark.parametrize("p, r", [(2, None), (2, 0.0), (2, 1.0), (1, 1.0)])
def test_centred_floors_bound_the_slice_on_each_cell(field, p, r):
    # U is posed as -F, so one check covers the L and M floors and the U
    # ceiling: no point of a dense grid of a cell undercuts the cell's floor
    A = sample_gaussian(field, 7, 2, RngSpec(23, 7))
    evaluate, _, lo, hi = oracle._planar_problem(A, p, r)
    sign = -1.0 if r == 1 else 1.0
    scale = float((_bloch_rows(A)[0] ** p).sum())
    offsets = np.linspace(-1.0, 1.0, 9)
    for h in (0.3, 0.05, 1e-3):
        cent = _test_cells(field, r, h, evaluate, lo, hi)
        half = np.full_like(cent, h)
        vals, floors, _ = evaluate(cent, half)
        assert vals == pytest.approx(sign * _slice_by_terms(A, p, r, cent), rel=1e-12,
                                     abs=1e-12 * scale)
        grid = np.stack([g.ravel() for g in np.meshgrid(*[offsets] * len(cent), indexing="ij")])
        for c, f in zip(cent.T, floors):
            dense = sign * _slice_by_terms(A, p, r, c[:, None] + h * grid)
            assert f <= dense.min() + 1e-12 * scale


@pytest.mark.parametrize("field", list(Field))
def test_band_record_stays_within_the_grid_budget(field, fast_grid):
    A = sample_gaussian(field, 6, 2, RngSpec(5, 6))
    for p in (1, 2):
        for est in _three_bands(A, p):
            rec = est.convergence
            assert isinstance(rec, BandRecord)
            assert rec.stop in ("gap", "level cap", "max_cells")
            # one cell for the box, then at least two a level
            assert 1 + 2 * rec.levels <= rec.evaluations
            assert rec.levels <= oracle._MAX_LEVELS
            assert rec.largest_frontier <= rec.evaluations
            assert rec.stop == "max_cells" or rec.largest_frontier <= oracle._MAX_CELLS


def test_band_record_stays_out_of_the_json(fast_grid):
    est = grid_upper_u(harmonic_frame(4), 2)
    assert set(estimate_to_json_dict(est, Field.REAL)) == {
        "value", "kind", "method", "certified_band", "witness",
    }


# Bands of the branch and bound that stored cells as rows, on the draws
# sample_gaussian(field, m, 2, RngSpec(1414, m)), at a reduced budget that swept
# an initial grid of 256 points, split across the box axes, and then halved
# each axis at most 9 times.  Each row bounds the width and the certified
# edge of a band that must still contain the closed-form constant.  On the
# smooth slices (every slice at p=2, U at p=1) it bounds the work too; the
# p=1 L and M slices keep the per-term floor, whose width the level budget
# sets, and they now go deeper, past the old evaluation counts.
_ROW_LAYOUT_BANDS = (
    ("real", 4, 1, "L", 1538, 1.3319895452167505, 1.3322507835477673),
    ("real", 4, 1, "M", 352, 1.7098377175634112, 1.7099072977046375),
    ("real", 4, 1, "U", 1964, 8.232935449664142, 8.233058045437792),
    ("real", 4, 2, "L", 74792, 1.0414050670520971, 1.0415790199748214),
    ("real", 4, 2, "M", 2092, 1.3430783201793122, 1.3431388922820822),
    ("real", 4, 2, "U", 1724, 6.150224608501391, 6.150301841912694),
    ("real", 9, 1, "L", 4334, 3.3243501552429677, 3.3251832198302282),
    ("real", 9, 1, "M", 436, 3.383837986538809, 3.3839612175442366),
    ("real", 9, 1, "U", 3260, 7.847351642595978, 7.847508756418673),
    ("real", 9, 2, "L", 113320, 1.8332191753977303, 1.835575894045658),
    ("real", 9, 2, "M", 4760, 1.8867545204027725, 1.88682541466234),
    ("real", 9, 2, "U", 2208, 4.8198916486022005, 4.819958271871819),
    ("real", 10, 1, "L", 4220, 2.2665734070132197, 2.2673506829206524),
    ("real", 10, 1, "M", 396, 2.8390125290507395, 2.839139467497378),
    ("real", 10, 1, "U", 2092, 9.64737444065045, 9.647526486502755),
    ("real", 10, 2, "L", 104502, 1.3219212667877214, 1.3225006569243904),
    ("real", 10, 2, "M", 3168, 1.5424459188491237, 1.5425030998545377),
    ("real", 10, 2, "U", 1914, 4.896262459126991, 4.896326974923285),
    ("complex", 4, 1, "L", 12580, 0.2760878733973185, 0.2767477783404643),
    ("complex", 4, 1, "M", 3032, 0.31917503691921173, 0.31964014992566786),
    ("complex", 4, 1, "U", 107248, 6.4402593877413254, 6.443527754748968),
    ("complex", 4, 2, "L", 146478, 0.22313072853549962, 0.22535718008601188),
    ("complex", 4, 2, "M", 35688, 0.22614833766274214, 0.2263919903074932),
    ("complex", 4, 2, "U", 121896, 4.262515227192499, 4.2633623676883525),
    ("complex", 9, 1, "L", 56420, 1.4259728971974193, 1.4287989230043459),
    ("complex", 9, 1, "M", 12008, 2.148125738239649, 2.1496905332235414),
    ("complex", 9, 1, "U", 131524, 11.655186530961274, 11.659219191778037),
    ("complex", 9, 2, "L", 103786, 0.6210223763454051, 0.6397087280767083),
    ("complex", 9, 2, "M", 109656, 1.0121990973949477, 1.0139193425219988),
    ("complex", 9, 2, "U", 102318, 4.792427892329123, 4.793817271325565),
    ("complex", 10, 1, "L", 20312, 1.2818452633974267, 1.2850404190649103),
    ("complex", 10, 1, "M", 18704, 1.4850988253580455, 1.4877993307403417),
    ("complex", 10, 1, "U", 101674, 14.069306220570821, 14.081758563260529),
    ("complex", 10, 2, "L", 124080, 0.5947582117458929, 0.5968366119129151),
    ("complex", 10, 2, "M", 35996, 0.621403598716688, 0.621919835918997),
    ("complex", 10, 2, "U", 100576, 6.759241967837976, 6.761086977466418),
)


@functools.lru_cache(maxsize=None)
def _parity_matrix(field, m):
    return sample_gaussian(Field.parse(field), m, 2, RngSpec(1414, m))


@pytest.mark.parametrize("field, m, p, name, evaluations, lo, hi", _ROW_LAYOUT_BANDS)
def test_bands_match_the_row_layout(field, m, p, name, evaluations, lo, hi, fast_grid):
    A = _parity_matrix(field, m)
    if name == "U":
        est = grid_upper_u(A, p)
    else:
        constraint = Constraint.REAL_INNER if name == "L" else Constraint.ORTHOGONAL
        est = grid_lower_l(A, p, constraint)
    band = est.certified_band
    exact = {"L": lower_lipschitz, "M": orthogonal_lower_bound, "U": upper_lipschitz}[name](A, p)
    assert exact.method is Method.CLOSED_FORM
    tol = 1e-12 * exact.value
    assert band[0] - tol <= exact.value <= band[1] + tol
    # the certified edge is no looser, the band no wider
    if name == "U":
        assert band[1] <= hi
    else:
        assert band[0] >= lo
    assert band[1] - band[0] <= hi - lo
    if p == 2 or name == "U":
        assert est.convergence.evaluations <= evaluations


# ---------------------------------------------------------------------------
# independently derived planar minima (complex, d = 2)
# ---------------------------------------------------------------------------

# Each case below was produced by a separate derivation script that searches
# the same minima with a dense direct parameter sweep plus penalty-method
# optimization over raw vector pairs, entirely outside this package's code
# paths.  Values are that script's polished minima, reported to eight decimal
# places; each is attained by an explicit feasible pair, so it can sit
# slightly above the true infimum but never below the certified floor.
# Rows are the measurement vectors a_j of four random complex 2-column
# matrices.

_DERIVED_TRIALS = (
    (
        [
            [(-0.3198667639174439-0.41094652730040543j), (0.7885878363922356+1.1354163526693692j)],
            [(-0.043292370318915106+0.9765912042541756j), (0.8851043634248048+0.09578924232603953j)],
            [(0.755266062314784-1.407813338342605j), (-0.2611878071123013-1.133629634851084j)],
            [(1.8239957068282522+1.0267859748158525j), (2.023961080843508+0.481346826059287j)],
            [(-0.4744635463654156+0.9309392697632306j), (0.8106402819360793+0.5950251171369471j)],
            [(0.10712400801211218-0.5306933133150175j), (0.42444946216195406+0.5388823551745274j)],
            [(-0.2910604939790815-0.8643477089297875j), (-0.7812076112629265+0.9332667678534571j)],
        ],
        {
            (1, "free"): 0.71008806,
            (1, "orth"): 1.87282831,
            (2, "free"): 0.41873154,
            (2, "orth"): 0.99718796,
        },
    ),
    (
        [
            [(-0.3604530493752552+0.3179106920466635j), (0.7803859293018847-0.32001577560904454j)],
            [(1.3307636330557744+0.6376357613668582j), (0.30488938896935674+0.1535082891447915j)],
            [(-0.30779308120244475+1.1086306857381472j), (0.19475154007315998-0.21595771978913425j)],
            [(0.2582572611283335-0.4683224032107096j), (0.11526868418566272-0.4376041029882549j)],
            [(0.5054589931358775-0.33835724668032513j), (-0.008993625839329542+0.2561949576786756j)],
        ],
        {
            (1, "free"): 0.26052082,
            (1, "orth"): 0.33145068,
            (2, "free"): 0.17723089,
            (2, "orth"): 0.20133641,
        },
    ),
    (
        [
            [(0.34303162044747837-0.8921456102376151j), (0.22783684671757884+0.46333600217827386j)],
            [(-0.24374631551969664+0.43974741693172764j), (-0.09877318454767403-0.3620312589425511j)],
            [(0.07436591688918585+1.6301912770698552j), (-0.7951174296691378-0.9567607214390181j)],
            [(-1.150185572949003+0.7210560895624697j), (0.8409944291913302-0.15550054632080337j)],
            [(0.7299814193834159-0.322085635106893j), (0.10597916767126846+0.5717493041116225j)],
            [(0.47271155431275186-0.052985338082353256j), (-0.005621534732328788+0.00964074206393042j)],
            [(0.08505671396389791+0.5201159833606102j), (-0.5563384877252158+0.2216114886383195j)],
            [(-0.2994912225413634+0.5308540342968373j), (0.5087727861388373-0.0628316735911455j)],
        ],
        {
            (1, "free"): 0.47712584,
            (1, "orth"): 0.55982722,
            (2, "free"): 0.23303633,
            (2, "orth"): 0.25785917,
        },
    ),
    (
        [
            [(0.6263380558042619-0.5164097859455452j), (-1.731121210900431+0.6779163367170644j)],
            [(0.0737579137022211+0.11796677435807991j), (-0.272729338955968-0.7657616440185816j)],
            [(0.20779543435088899+0.30166568070147043j), (-0.5721155882534545-0.6384387463548236j)],
            [(-0.6443501449745327-0.3195911081656685j), (-0.14047825209509868+0.37360054022210826j)],
            [(1.411899582616135-1.3747585390064379j), (0.8447517751225374-1.0523432719794599j)],
            [(-0.250370354246344+0.10506679242425376j), (0.3538468532692628-1.2267672255065984j)],
        ],
        {
            (1, "free"): 0.20083314,
            (1, "orth"): 1.14764496,
            (2, "free"): 0.12159116,
            (2, "orth"): 0.63881524,
        },
    ),
)


@functools.lru_cache(maxsize=None)
def _derived_estimate(case, p, label):
    rows, _ = _DERIVED_TRIALS[case]
    constraint = Constraint.REAL_INNER if label == "free" else Constraint.ORTHOGONAL
    matrix = SensingMatrix.from_vectors(Field.COMPLEX, rows)
    return grid_lower_l(matrix, p, constraint=constraint)


@pytest.mark.parametrize("case", range(len(_DERIVED_TRIALS)))
def test_derived_planar_minima_match_external_search(case):
    _, expected = _DERIVED_TRIALS[case]
    for (p, label), want in expected.items():
        est = _derived_estimate(case, p, label)
        lo, _hi = est.certified_band
        # a feasible external value can never undercut the certified floor;
        # it is printed to 8 decimals, and rounding is monotone
        assert want >= round(lo, 8)
        # nor beat the attained minimum by more than its print rounding
        assert want <= est.value + 1e-8
        # and the two independent searches land on the same minimum
        assert est.value <= want + 5e-5


def _check_exact_against_derived(case, p):
    rows, expected = _DERIVED_TRIALS[case]
    matrix = SensingMatrix.from_vectors(Field.COMPLEX, rows)
    for label, fun in (("free", lower_lipschitz), ("orth", orthogonal_lower_bound)):
        est = fun(matrix, p)
        assert est.method is Method.CLOSED_FORM
        # the exact infimum never exceeds a feasible external value and
        # sits inside the certified band
        assert est.value <= expected[(p, label)] + 1e-8
        assert est.value == pytest.approx(expected[(p, label)], abs=5e-5)
        lo, hi = _derived_estimate(case, p, label).certified_band
        assert lo - 1e-12 <= est.value <= hi + 1e-12


@pytest.mark.parametrize("case", range(len(_DERIVED_TRIALS)))
def test_derived_planar_minima_match_exact_p2(case):
    _check_exact_against_derived(case, 2)


@pytest.mark.parametrize("case", range(len(_DERIVED_TRIALS)))
def test_derived_planar_minima_match_exact_p1(case):
    _check_exact_against_derived(case, 1)


@pytest.mark.parametrize("case", range(len(_DERIVED_TRIALS)))
def test_derived_orthogonality_gaps_match_external_search(case):
    _, expected = _DERIVED_TRIALS[case]
    for p in (1, 2):
        free = _derived_estimate(case, p, "free")
        orth = _derived_estimate(case, p, "orth")
        want_gap = expected[(p, "orth")] - expected[(p, "free")]
        assert want_gap > 0.02
        assert orth.value - free.value == pytest.approx(want_gap, abs=1e-4)


# ---------------------------------------------------------------------------
# lagrange partial sums
# ---------------------------------------------------------------------------

def test_lagrange_residuals_are_tiny_on_a_sweep():
    worst = 0.0
    for m in (1, 2, 3, 8, 33, 64):
        for theta in (0.05, 1.0, 2.5, 4.0, 6.1):
            worst = max(worst, check_lagrange_identities(m, theta))
    assert worst < 1e-10


def test_lagrange_rejects_pole_and_bad_m():
    with pytest.raises(ValueError):
        check_lagrange_identities(5, 0.0)
    with pytest.raises(ValueError):
        check_lagrange_identities(5, 4.0 * math.pi)
    with pytest.raises(ValueError):
        check_lagrange_identities(0, 1.0)


def test_lagrange_m2_skips_the_degenerate_quadruple_sum():
    # at m = 2 the equispaced quadruple-angle sum is identically
    # 2 cos(4 theta), not zero, so only the remaining identities are checked
    # and the residual stays tiny
    assert check_lagrange_identities(2, 0.7) < 1e-12
    j = np.arange(1, 3)
    quad = float(np.cos(4.0 * j * np.pi / 2 - 4.0 * 0.7).sum())
    assert abs(quad) > 0.5  # genuinely nonzero, hence excluded


# ---------------------------------------------------------------------------
# shifted absolute trigonometric sums
# ---------------------------------------------------------------------------

def test_k_hat_even_and_odd():
    assert k_hat(8, 0.0) == 3
    assert k_hat(8, math.pi / 8) == 3  # even m ignores phi
    assert k_hat(7, 0.0) == 3
    assert k_hat(7, math.pi / 14) == 3  # boundary still in the first branch
    assert k_hat(7, math.pi / 13) == 2  # past pi/2m the range shrinks
    with pytest.raises(ValueError):
        k_hat(2, 0.0)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 9, 12])
def test_gk_closed_form_residuals(m):
    axis = np.linspace(0.0, math.pi / m, 9)
    worst = 0.0
    for theta in axis:
        for phi in axis:
            for k in range(k_hat(m, phi) + 1):
                worst = max(worst, check_gk_closed_form(m, k, theta, phi))
    assert worst < 1e-10


def test_gk_rejects_out_of_regime_input():
    with pytest.raises(ValueError):
        check_gk_closed_form(6, 0, 1.5 * math.pi / 6, 0.0)  # theta too large
    with pytest.raises(ValueError):
        check_gk_closed_form(6, 5, 0.0, 0.0)  # k beyond k_hat
    with pytest.raises(ValueError):
        check_gk_closed_form(2, 0, 0.0, 0.0)  # m too small
    # odd m: k = (m-1)/2 admissible only while phi <= pi/2m
    with pytest.raises(ValueError):
        check_gk_closed_form(7, 3, 0.0, math.pi / 7)


# ---------------------------------------------------------------------------
# quartic ratio minimum at t = 1
# ---------------------------------------------------------------------------

def test_g_min_holds_on_rotated_harmonic_frames():
    gen = RngSpec(606, 0).generator()
    t_grid = np.linspace(0.0, 4.0, 41)
    for m in (3, 5, 8):
        ang = float(gen.uniform(0.0, 2.0 * math.pi))
        Q = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
        A = SensingMatrix(Field.REAL, harmonic_frame(m).array @ Q)
        phase = float(gen.uniform(0.0, 2.0 * math.pi))
        x = np.array([math.cos(phase), math.sin(phase)])
        y = np.array([-math.sin(phase), math.cos(phase)])
        assert check_g_min_at_one(A, x, y, t_grid)


def test_g_min_requires_a_tight_fourth_moment_frame():
    # the 2x2 identity is far from fourth-moment tight (its normalized
    # moment ranges over [0.5, 1.0] on the circle), so the hypothesis check
    # refuses it outright
    A = SensingMatrix(Field.REAL, np.eye(2))
    x = np.array([1.0, 0.0])
    y = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        check_g_min_at_one(A, x, y, [1.0])


def test_g_min_validates_the_pair():
    A = harmonic_frame(5)
    x = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        check_g_min_at_one(A, 2.0 * x, np.array([0.0, 1.0]), [1.0])
    with pytest.raises(ValueError):
        check_g_min_at_one(A, x, x, [1.0])


# ---------------------------------------------------------------------------
# weighted sine minima vs the tangent bound
# ---------------------------------------------------------------------------

def test_sub_tan_equality_at_equispaced_unit_weights():
    # three equispaced angles with unit weights attain the bound exactly
    phis = [0.0, math.pi / 3.0, 2.0 * math.pi / 3.0]
    res = check_sub_tan(phis, [1.0, 1.0, 1.0])
    assert res.holds
    assert res.min_value == pytest.approx(res.bound, abs=5e-16)
    assert res.min_value == pytest.approx(math.sqrt(3.0), rel=1e-15)


def test_sub_tan_strict_inequality_generic():
    gen = RngSpec(808, 0).generator()
    for _ in range(25):
        m = int(gen.integers(2, 12))
        phis = gen.uniform(0.0, math.pi, m)
        ts = gen.uniform(0.1, 2.0, m)
        res = check_sub_tan(phis, ts)
        assert res.holds
        assert res.bound == pytest.approx(sub_tan_bound(ts), abs=0)


def test_sub_tan_single_angle_attains_zero():
    res = check_sub_tan([0.4], [2.0])
    assert res.min_value == 0.0 and res.bound == 0.0 and res.holds


def test_sub_tan_grid_points_never_change_the_minimum():
    phis = np.array([0.1, 0.9, 2.2])
    ts = np.array([1.0, 0.5, 2.0])
    theta = np.linspace(0.0, math.pi, 512, endpoint=False)
    scan = (ts * np.abs(np.sin(theta[:, None] - phis))).sum(axis=1)
    res = check_sub_tan(phis, ts)
    assert res.min_value <= scan.min()
    # the objective is sum(ts)-Lipschitz and a kink is at most half a step
    # from the scan
    assert scan.min() - res.min_value <= ts.sum() * math.pi / 1024


def test_sub_tan_validates_input():
    with pytest.raises(ValueError):
        check_sub_tan([0.1, 0.2], [1.0])
    with pytest.raises(ValueError):
        check_sub_tan([], [])
    with pytest.raises(ValueError):
        check_sub_tan([0.1], [-1.0])


# ---------------------------------------------------------------------------
# monte carlo vs the closed expectation curves
# ---------------------------------------------------------------------------

def test_mc_expectation_matches_curves_within_noise():
    from prcond.closedform import gaussian_abs_expectation

    for field, stream in ((Field.REAL, 0), (Field.COMPLEX, 1)):
        for i, theta in enumerate((0.0, math.pi / 4.0, math.pi / 2.0)):
            got = mc_expectation(field, theta, 40_000, RngSpec(1212, 10 * stream + i))
            want = gaussian_abs_expectation(field, theta)
            assert abs(got.estimate - want) < 4.0 * got.stderr
            assert 0.0 < got.stderr < 0.02


def test_mc_expectation_needs_enough_samples():
    with pytest.raises(ValueError):
        mc_expectation(Field.REAL, 0.0, 100, RngSpec(1, 0))


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_mc_expectation_rejects_a_non_finite_angle(theta):
    with pytest.raises(ValueError, match="finite"):
        mc_expectation(Field.COMPLEX, theta, 1000, RngSpec(1, 0))


def _mc_terms(A: SensingMatrix, theta: float) -> np.ndarray:
    """|Re(conj(<a,u>) <a,v>)| per row of A, written out on its vectors."""
    a = A.vectors
    ct, st = math.cos(theta), math.sin(theta)
    if A.field is Field.REAL:
        return np.abs(a[:, 0] * (a[:, 0] * ct + a[:, 1] * st))
    return np.abs((np.abs(a[:, 0]) ** 2) * ct + (a[:, 0] * np.conj(a[:, 1])).real * st)


@pytest.mark.parametrize("field", list(Field))
def test_mc_expectation_is_the_formula_on_sample_gaussian_bit_for_bit(field):
    for samples in (1000, 40_000):
        for spec in (RngSpec(1212, 3), RngSpec(20240817, 25)):
            for theta in (0.0, math.pi / 8, 1.0, math.pi / 2, 2.5):
                vals = _mc_terms(sample_gaussian(field, samples, 2, spec), theta)
                got = mc_expectation(field, theta, samples, spec)
                assert got.estimate == float(vals.mean())
                assert got.stderr == float(vals.std(ddof=1) / math.sqrt(samples))


@pytest.mark.parametrize("samples, rows", [(1000, 1 << 16), (40_000, 1 << 16), (40_000, 999)])
def test_mc_expectation_is_the_formula_on_the_one_expression_draw_bit_for_bit(
    samples, rows, monkeypatch
):
    # the reference is the complex draw as one expression; the products of
    # its columns go rows at a time, in one block or several
    monkeypatch.setattr(oracle, "_MC_ROWS", rows)
    spec = RngSpec(1212, 3)
    g = spec.generator()
    re, im = g.standard_normal((samples, 2)), g.standard_normal((samples, 2))
    A = SensingMatrix(Field.COMPLEX, (re + 1j * im) / math.sqrt(2.0))
    for theta in (0.0, math.pi / 8, 1.0, math.pi / 2, 2.5):
        vals = _mc_terms(A, theta)
        got = mc_expectation(Field.COMPLEX, theta, samples, spec)
        assert got.estimate == float(vals.mean())
        assert got.stderr == float(vals.std(ddof=1) / math.sqrt(samples))


# ---------------------------------------------------------------------------
# bundled verification report
# ---------------------------------------------------------------------------

def test_verify_all_passes():
    report = verify_all()
    assert report.passed
    names = [s.name for s in report.suites]
    assert names == [
        "metric-identity",
        "lagrange-sums",
        "gk-closed-form",
        "g-min-at-one",
        "sub-tan",
        "expectation-curves",
    ]
    for suite in report.suites:
        assert suite.passed
        assert suite.max_residual <= suite.threshold


def test_verify_all_is_reproducible():
    a, b = verify_all(), verify_all()
    assert [s.max_residual for s in a.suites] == [s.max_residual for s in b.suites]


# The batched suites against loops over the scalar checkers: same draws from
# the same stream, same worst residual, verdict and evaluation count.

def _count(detail: str) -> int:
    return int(next(w for w in detail.replace(",", " ").split() if w.isdigit()))


def test_metric_suite_matches_pair_by_pair_routes(monkeypatch):
    pairs = 70
    seen = []

    def routes(X, Y):
        seen.extend(zip(X, Y))
        return _metric_routes(X, Y)

    monkeypatch.setattr(oracle, "_metric_routes", routes)
    got = oracle._metric_suite(RngSpec(5, 9).generator(), pairs)
    rng = RngSpec(5, 9).generator()
    worst, count = 0.0, 0
    for field in (Field.REAL, Field.COMPLEX):
        for d in range(2, 7):
            for _ in range(pairs // 10):
                if field is Field.REAL:
                    x, y = rng.standard_normal(d), rng.standard_normal(d)
                else:
                    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                    y = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                # the suite saw the same pairs in the same order
                assert np.array_equal(seen[count][0], x) and np.array_equal(seen[count][1], y)
                s, product, eigen = (float(r[0]) for r in _metric_routes(x[None], y[None]))
                assert dist_h(x, y) == product
                # the restricted 2x2 route against the full d x d operator
                full = np.outer(x, x.conj()) - np.outer(y, y.conj())
                assert eigen == pytest.approx(np.abs(np.linalg.eigvalsh(full)).sum(), abs=1e-12 * s)
                worst = max(worst, abs(product - eigen) / s)
                count += 1
    assert abs(got.max_residual - worst) <= 1e-15
    assert got.passed == (worst <= 1e-10)
    assert _count(got.detail) == count == len(seen) == 70


def test_metric_suite_reports_the_pairs_it_draws():
    assert _count(oracle._metric_suite(RngSpec(1, 0).generator(), 7).detail) == 10
    assert _count(oracle._metric_suite(RngSpec(1, 0).generator(), 25).detail) == 20


def test_gk_suite_matches_the_scalar_checker():
    grid_points = 5
    got = oracle._gk_suite(grid_points)
    worst, count = 0.0, 0
    for m in range(3, 17):
        axis = np.linspace(0.0, math.pi / m, grid_points)
        for theta in axis:
            for phi in axis:
                for k in range(k_hat(m, phi) + 1):
                    worst = max(worst, check_gk_closed_form(m, k, theta, phi))
                    count += 1
    assert abs(got.max_residual - worst) <= 1e-15
    assert got.passed == (worst <= 1e-10)
    assert _count(got.detail) == count


def test_gk_suite_counts_every_admissible_triple_at_the_default_grid():
    count = sum(
        32 * (k_hat(m, phi) + 1)
        for m in range(3, 17)
        for phi in np.linspace(0.0, math.pi / m, 32)
    )
    assert count == 68_096
    assert _count(oracle._gk_suite(32).detail) == count


def test_mc_suite_matches_one_shared_draw_per_field():
    from prcond.closedform import gaussian_abs_expectation

    samples = 5_000
    g = RngSpec(31, 4).generator()
    got = oracle._mc_suite(g, samples)
    rng = RngSpec(31, 4).generator()
    worst = 0.0
    for field in (Field.REAL, Field.COMPLEX):
        A = sample_gaussian(field, samples, 2, rng)
        for theta in (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2):
            vals = _mc_terms(A, theta)
            stderr = vals.std(ddof=1) / math.sqrt(samples)
            worst = max(worst, abs(vals.mean() - gaussian_abs_expectation(field, theta)) / stderr)
    assert abs(got.max_residual - worst) <= 1e-15
    assert got.passed == (worst <= 4.0)
    # the suite read exactly one sample per field from the stream
    assert np.array_equal(g.bit_generator.random_raw(8), rng.bit_generator.random_raw(8))
    assert _count(got.detail) == samples


@pytest.mark.parametrize("zero_bound", [False, True])
def test_subtan_suite_matches_the_scalar_checker(zero_bound, monkeypatch):
    if zero_bound:
        # the true bound always holds, so the reported excess is 0 on both
        # sides; a zero bound makes it the largest minimum and fails the verdict
        monkeypatch.setattr(oracle.closedform, "sub_tan_bound", lambda ts: 0.0)
        monkeypatch.setattr(oracle.closedform, "_sub_tan_bounds", lambda ts: np.zeros(len(ts)))
    instances = 300
    got = oracle._subtan_suite(RngSpec(8, 2).generator(), instances)
    rng = RngSpec(8, 2).generator()
    worst, holds = -math.inf, True
    for _ in range(instances):
        m = int(rng.integers(1, 33))
        phis = np.sort(rng.uniform(0.0, math.pi, m))
        ts = rng.uniform(0.0, 1.0, m)
        res = check_sub_tan(phis, ts)
        holds = holds and res.holds
        worst = max(worst, res.min_value - res.bound)
    assert abs(got.max_residual - max(worst, 0.0)) <= 1e-15
    assert got.passed == holds
    assert holds is not zero_bound
    assert (got.max_residual > 0.5) == zero_bound
    assert _count(got.detail) == instances
