"""Container, sampler, metric, and file-format behavior of the core module."""

import json
import math

import numpy as np
import pytest

from prcond.core import (
    Constraint,
    Field,
    PolarRow,
    RngSpec,
    SensingMatrix,
    UnitPair,
    dist_h,
    from_polar,
    harmonic_frame,
    load_matrix,
    matrix_from_csv,
    matrix_from_dict,
    matrix_to_csv,
    matrix_to_dict,
    psi_map,
    sample_gaussian,
    sample_unit,
    save_matrix,
    to_polar,
)


# ---------------------------------------------------------------------------
# field and rng plumbing
# ---------------------------------------------------------------------------

def test_field_parse_accepts_both_names_case_insensitively():
    assert Field.parse("real") is Field.REAL
    assert Field.parse("Complex") is Field.COMPLEX
    with pytest.raises(ValueError):
        Field.parse("quaternion")


def test_field_dtypes():
    assert Field.REAL.dtype == np.float64
    assert Field.COMPLEX.dtype == np.complex128


def test_rng_spec_is_reproducible():
    a = RngSpec(11, 4).generator().standard_normal(8)
    b = RngSpec(11, 4).generator().standard_normal(8)
    assert np.array_equal(a, b)


def test_rng_spec_streams_differ():
    a = RngSpec(11, 0).generator().standard_normal(8)
    b = RngSpec(11, 1).generator().standard_normal(8)
    assert not np.array_equal(a, b)


def test_rng_spec_substream_offsets_are_disjoint():
    spec = RngSpec(99, 3)
    subs = [spec.substream(k) for k in range(4)]
    assert [s.stream for s in subs] == [4, 5, 6, 7]
    assert all(s.seed == 99 for s in subs)


def test_rng_spec_rejects_bad_values():
    with pytest.raises(ValueError):
        RngSpec(-1)
    with pytest.raises(ValueError):
        RngSpec(2 ** 64)
    with pytest.raises(ValueError):
        RngSpec(0, -2)


# ---------------------------------------------------------------------------
# sensing matrix container
# ---------------------------------------------------------------------------

def test_matrix_shape_properties():
    A = SensingMatrix(Field.REAL, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert (A.m, A.d) == (3, 2)
    assert A.field is Field.REAL


def test_matrix_is_immutable():
    A = SensingMatrix(Field.REAL, [[1.0, 0.0]])
    with pytest.raises(AttributeError):
        A.field = Field.COMPLEX
    with pytest.raises(ValueError):
        A.array[0, 0] = 2.0


def test_matrix_does_not_alias_its_input():
    raw = np.eye(2)
    A = SensingMatrix(Field.REAL, raw)
    raw[0, 0] = 7.0
    assert A.array[0, 0] == 1.0


def test_matrix_rejects_bad_shapes_and_nonfinite():
    with pytest.raises(ValueError):
        SensingMatrix(Field.REAL, [1.0, 2.0])
    with pytest.raises(ValueError):
        SensingMatrix(Field.REAL, np.empty((0, 2)))
    with pytest.raises(ValueError):
        SensingMatrix(Field.REAL, [[np.nan, 0.0]])
    with pytest.raises(ValueError):
        SensingMatrix(Field.COMPLEX, [[complex(np.inf, 0.0), 0.0]])


def test_matrix_accepts_field_names_as_strings():
    A = SensingMatrix("complex", [[1j, 0.0]])
    assert A.field is Field.COMPLEX


def test_measurements_conjugate_the_stored_row():
    # stored row s, measurement <a, x> with a = conj(s), so apply is s @ x
    A = SensingMatrix(Field.COMPLEX, [[1j, 0.0]])
    x = np.array([1.0, 0.0])
    assert A.apply(x)[0] == 1j
    assert np.vdot(A.vectors[0], x) == 1j


def test_from_vectors_round_trip():
    rng = RngSpec(5, 0).generator()
    vecs = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    A = SensingMatrix.from_vectors(Field.COMPLEX, vecs)
    assert np.allclose(A.vectors, vecs)


def test_real_matrix_rejects_complex_vectors():
    A = SensingMatrix(Field.REAL, np.eye(2))
    with pytest.raises(ValueError):
        A.apply(np.array([1.0 + 1j, 0.0]))


def test_apply_rejects_wrong_length():
    A = SensingMatrix(Field.REAL, np.eye(2))
    with pytest.raises(ValueError):
        A.apply(np.ones(3))


def test_matrix_equality_checks_field_and_entries():
    A = SensingMatrix(Field.REAL, np.eye(2))
    B = SensingMatrix(Field.REAL, np.eye(2))
    C = SensingMatrix(Field.COMPLEX, np.eye(2))
    assert A == B
    assert A != C
    assert A != SensingMatrix(Field.REAL, 2 * np.eye(2))


def test_scaled_multiplies_entries():
    A = SensingMatrix(Field.REAL, np.eye(2))
    B = A.scaled(3.0)
    assert np.allclose(B.array, 3.0 * np.eye(2))
    assert B.field is A.field


# ---------------------------------------------------------------------------
# samplers and the harmonic frame
# ---------------------------------------------------------------------------

def test_harmonic_frame_rows_sit_at_equal_angles():
    m = 7
    A = harmonic_frame(m)
    ang = np.arange(m) * np.pi / m
    assert np.allclose(A.array[:, 0], np.cos(ang))
    assert np.allclose(A.array[:, 1], np.sin(ang))


@pytest.mark.parametrize("m", [3, 4, 5, 8, 13, 64])
def test_harmonic_frame_gram_is_half_m_identity(m):
    A = harmonic_frame(m)
    gram = A.array.T @ A.array
    assert np.allclose(gram, (m / 2.0) * np.eye(2), atol=1e-12)


def test_harmonic_frame_needs_three_rows():
    with pytest.raises(ValueError):
        harmonic_frame(2)


def test_gaussian_sampler_is_deterministic_per_spec():
    A = sample_gaussian(Field.COMPLEX, 6, 3, RngSpec(42, 1))
    B = sample_gaussian(Field.COMPLEX, 6, 3, RngSpec(42, 1))
    assert A == B


def test_gaussian_sampler_field_and_shape():
    A = sample_gaussian(Field.REAL, 5, 2, RngSpec(1, 0))
    assert A.array.dtype == np.float64 and (A.m, A.d) == (5, 2)
    B = sample_gaussian(Field.COMPLEX, 5, 2, RngSpec(1, 0))
    assert B.array.dtype == np.complex128


def _one_formula_complex_draw(spec, m, d):
    """The complex draw as one expression: the reference for the in-place draw."""
    g = spec.generator()
    re = g.standard_normal((m, d))
    im = g.standard_normal((m, d))
    return (re + 1j * im) / math.sqrt(2.0)


@pytest.mark.parametrize("m, d", [(1, 1), (7, 2), (300, 4), (1000, 3)])
def test_complex_gaussian_draw_is_the_one_formula_byte_for_byte(m, d):
    # both normal blocks go into one complex array, scaled in place
    for seed in range(5):
        spec = RngSpec(seed, m)
        A = sample_gaussian(Field.COMPLEX, m, d, spec)
        assert A.array.tobytes() == _one_formula_complex_draw(spec, m, d).tobytes()


def test_complex_gaussian_entries_have_unit_second_moment():
    A = sample_gaussian(Field.COMPLEX, 400, 50, RngSpec(2024, 9))
    second = np.mean(np.abs(A.array) ** 2)
    assert abs(second - 1.0) < 0.02


def test_sample_unit_norms_and_batch_shape():
    u = sample_unit(Field.COMPLEX, 4, RngSpec(3, 0))
    assert u.shape == (4,)
    assert abs(np.linalg.norm(u) - 1.0) < 1e-12
    batch = sample_unit(Field.REAL, 3, RngSpec(3, 1), n=10)
    assert batch.shape == (10, 3)
    assert np.allclose(np.linalg.norm(batch, axis=1), 1.0)


# ---------------------------------------------------------------------------
# intensity map and quotient metric
# ---------------------------------------------------------------------------

def test_intensity_map_squares_measurement_magnitudes():
    A = SensingMatrix(Field.COMPLEX, [[1.0, 0.0], [0.0, 2j]])
    out = psi_map(A, np.array([3.0, 1.0]))
    assert np.allclose(out, [9.0, 4.0])


def test_intensity_map_is_phase_blind():
    A = sample_gaussian(Field.COMPLEX, 9, 3, RngSpec(8, 0))
    x = sample_unit(Field.COMPLEX, 3, RngSpec(8, 1))
    for theta in (0.3, 1.1, np.pi):
        assert np.allclose(psi_map(A, np.exp(1j * theta) * x), psi_map(A, x))


def test_metric_worked_example():
    # x = e1 and y = (e1+e2)/sqrt(2) give S = 2 and c = 1/sqrt(2), so the
    # product formula reads sqrt(2 - sqrt(2)) * sqrt(2 + sqrt(2)) = sqrt(2)
    x = np.array([1.0, 0.0])
    y = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert dist_h(x, y) == pytest.approx(1.4142135623730951, abs=1e-15)


def test_metric_vanishes_exactly_on_phase_orbits():
    x = sample_unit(Field.COMPLEX, 5, RngSpec(31, 0))
    assert dist_h(x, x) == 0.0
    assert dist_h(x, np.exp(0.7j) * x) < 1e-12


def test_metric_on_disjoint_supports_is_sum_of_squares():
    x = np.array([2.0, 0.0])
    y = np.array([0.0, 3.0])
    # rank-two difference with orthogonal factors: eigenvalues 4 and -9
    assert dist_h(x, y) == pytest.approx(13.0, abs=1e-12)


def test_metric_scaling_is_quadratic():
    rng = RngSpec(77, 0).generator()
    x = rng.standard_normal(4)
    y = rng.standard_normal(4)
    assert dist_h(3.0 * x, 3.0 * y) == pytest.approx(9.0 * dist_h(x, y), rel=1e-12)


def test_metric_to_zero_vector_is_squared_norm():
    x = np.array([1.0, 2.0, 2.0])
    assert dist_h(x, np.zeros(3)) == pytest.approx(9.0, abs=1e-12)


def test_metric_dual_routes_agree_on_random_pairs():
    # dist_h cross-checks the product formula against restricted eigenvalues
    # internally and raises ConsistencyError on disagreement, so a clean pass
    # over many draws exercises the identity.
    gen = RngSpec(505, 0).generator()
    for field in (Field.REAL, Field.COMPLEX):
        for d in (2, 3, 6):
            for _ in range(50):
                x = sample_unit(field, d, gen)
                y = sample_unit(field, d, gen)
                assert dist_h(x, y) >= 0.0


def test_metric_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        dist_h(np.ones(2), np.ones(3))


# ---------------------------------------------------------------------------
# unit pairs
# ---------------------------------------------------------------------------

def _unit(v):
    v = np.asarray(v, dtype=np.complex128)
    return v / np.linalg.norm(v)


def test_unit_pair_validate_accepts_feasible_pairs():
    u = _unit([1.0, 1j])
    v = _unit([1j, 1.0])
    UnitPair(Field.COMPLEX, u, v, Constraint.FREE).validate()
    w = _unit([1.0, -1j])  # <u, w> = 0
    UnitPair(Field.COMPLEX, u, w, Constraint.ORTHOGONAL).validate()


def test_unit_pair_rejects_non_unit_vectors():
    pair = UnitPair(Field.REAL, np.array([1.0, 1.0]), np.array([1.0, 0.0]), Constraint.FREE)
    with pytest.raises(ValueError):
        pair.validate()


def test_unit_pair_rejects_complex_inner_under_real_inner_tag():
    u = _unit([1.0, 0.0])
    v = _unit([1j, 1.0])
    pair = UnitPair(Field.COMPLEX, u, v, Constraint.REAL_INNER)
    with pytest.raises(ValueError):
        pair.validate()


def test_unit_pair_rejects_imaginary_parts_under_real_tag():
    u = np.array([1.0 + 0.1j, 0.0])
    u = u / np.linalg.norm(u)
    pair = UnitPair(Field.REAL, u, np.array([0.0, 1.0]), Constraint.FREE)
    with pytest.raises(ValueError):
        pair.validate()


def test_unit_pair_orthogonal_tag_enforced():
    u = _unit([1.0, 0.0])
    v = _unit([1.0, 1.0])
    pair = UnitPair(Field.REAL, u.real, v.real, Constraint.ORTHOGONAL)
    with pytest.raises(ValueError):
        pair.validate()


# ---------------------------------------------------------------------------
# polar rows
# ---------------------------------------------------------------------------

def test_polar_round_trip_complex():
    A = sample_gaussian(Field.COMPLEX, 40, 2, RngSpec(12, 0))
    back = from_polar(to_polar(A), Field.COMPLEX)
    assert np.max(np.abs(back.array - A.array)) < 1e-12


def test_polar_round_trip_real_keeps_signs():
    A = sample_gaussian(Field.REAL, 40, 2, RngSpec(12, 1))
    back = from_polar(to_polar(A), Field.REAL)
    assert back.array.dtype == np.float64
    assert np.max(np.abs(back.array - A.array)) < 1e-12


def test_polar_magnitude_and_angle_ranges():
    A = sample_gaussian(Field.COMPLEX, 30, 2, RngSpec(12, 2))
    for row in to_polar(A):
        assert row.t > 0.0
        assert 0.0 <= row.phi <= np.pi / 2.0
        assert 0.0 <= row.alpha < 2.0 * np.pi
        assert 0.0 <= row.beta < 2.0 * np.pi


def test_polar_zero_row_is_canonical():
    A = SensingMatrix(Field.REAL, [[0.0, 0.0], [1.0, 0.0]])
    rows = to_polar(A)
    assert rows[0] == PolarRow(0.0, 0.0, 0.0, 0.0)
    back = from_polar(rows, Field.REAL)
    assert np.array_equal(back.array, A.array)


def test_polar_requires_planar_matrix():
    with pytest.raises(ValueError):
        to_polar(SensingMatrix(Field.REAL, np.eye(3)))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_dict_round_trip_both_fields():
    for field in (Field.REAL, Field.COMPLEX):
        A = sample_gaussian(field, 5, 3, RngSpec(21, 0))
        B = matrix_from_dict(matrix_to_dict(A))
        assert A == B


def test_dict_form_interleaves_complex_parts():
    A = SensingMatrix(Field.COMPLEX, [[1 + 2j, 3 - 4j]])
    data = matrix_to_dict(A)
    assert data["rows"] == [[1.0, 2.0, 3.0, -4.0]]
    assert data["m"] == 1 and data["d"] == 2


def test_dict_rejects_malformed_payloads():
    with pytest.raises(ValueError):
        matrix_from_dict({"field": "real", "m": 2, "d": 2, "rows": [[1.0, 0.0]]})
    with pytest.raises(ValueError):
        matrix_from_dict({"field": "real", "m": 1, "d": 2, "rows": [[1.0]]})
    with pytest.raises(ValueError):
        matrix_from_dict({"m": 1, "d": 1, "rows": [[1.0]]})


def test_csv_round_trip_both_fields():
    for field in (Field.REAL, Field.COMPLEX):
        A = sample_gaussian(field, 4, 2, RngSpec(22, 0))
        B = matrix_from_csv(matrix_to_csv(A))
        assert A == B


def test_csv_header_names_columns():
    A = SensingMatrix(Field.COMPLEX, [[1j, 2.0]])
    text = matrix_to_csv(A)
    assert text.splitlines()[0] == "re_1,im_1,re_2,im_2"


def test_csv_without_header_parses_as_real():
    B = matrix_from_csv("1.5,2.5\n3.5,4.5\n")
    assert B.field is Field.REAL
    assert np.allclose(B.array, [[1.5, 2.5], [3.5, 4.5]])


def test_csv_rejects_ragged_and_empty_input():
    with pytest.raises(ValueError):
        matrix_from_csv("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError):
        matrix_from_csv("")
    with pytest.raises(ValueError):
        matrix_from_csv("re_1,re_2\n")


def test_save_and_load_sniff_formats(tmp_path):
    A = sample_gaussian(Field.COMPLEX, 3, 2, RngSpec(23, 0))
    jpath = tmp_path / "mat.json"
    cpath = tmp_path / "mat.csv"
    save_matrix(A, jpath)
    save_matrix(A, cpath)
    assert load_matrix(jpath) == A
    assert load_matrix(cpath) == A
    parsed = json.loads(jpath.read_text())
    assert parsed["field"] == "complex"


def test_save_matrix_rejects_unknown_format(tmp_path):
    A = SensingMatrix(Field.REAL, np.eye(2))
    with pytest.raises(ValueError):
        save_matrix(A, tmp_path / "mat.xml")
