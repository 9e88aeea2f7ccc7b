import numpy as np
import pytest

from grothq import (
    InputValidationError,
    build_family,
    build_projector,
    fourier_matrix,
    hermitian_eig,
    largest_singular_value,
    norm_frobenius,
    norm_report,
    normalization_factor,
    row_norms,
    to_unit_s,
)
from grothq.ensembles import (
    complex_gaussian,
    random_density,
    random_normal_matrix,
    random_unitary,
)


def pi(d):
    return build_projector(build_family(d)).matrix


# --- row norms ---

def test_row_norms_identity():
    assert np.allclose(row_norms(np.eye(3)), [1, 1, 1])


def test_row_norms_pi6_all_equal():
    rn = row_norms(pi(3))
    assert np.allclose(rn, 1 / np.sqrt(2), atol=1e-12)


def test_row_norms_direct():
    assert np.allclose(row_norms([[1, 2], [0, 0]]), [np.sqrt(5), 0.0])


def test_row_norms_square_sum_is_frobenius():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m = complex_gaussian(rng, int(rng.integers(1, 8)))
        assert (row_norms(m) ** 2).sum() == pytest.approx(norm_frobenius(m) ** 2, rel=1e-12)


def test_row_norms_match_gram_diagonal():
    rng = np.random.default_rng(6)
    m = complex_gaussian(rng, 5)
    gram = m @ m.conj().T
    assert np.allclose(row_norms(m), np.sqrt(np.diag(gram).real), atol=1e-12)


# --- normalization factor ---

def test_factor_unitary_is_one():
    rng = np.random.default_rng(1)
    for d in (2, 4, 7):
        assert normalization_factor(random_unitary(rng, d)) == pytest.approx(1.0, abs=1e-12)


def test_factor_pi12():
    assert normalization_factor(pi(4)) == pytest.approx(1 / np.sqrt(3), abs=1e-12)


def test_factor_zero():
    assert normalization_factor(np.zeros((3, 3))) == 0.0


def test_factor_scaling_law():
    rng = np.random.default_rng(2)
    m = complex_gaussian(rng, 4)
    z = 0.3 - 1.7j
    assert normalization_factor(z * m) == pytest.approx(
        abs(z) * normalization_factor(m), rel=1e-12)


# --- unit-set normalization ---

def test_to_unit_s_pi6():
    assert np.allclose(to_unit_s(pi(3)), np.sqrt(2) * pi(3), atol=1e-12)


def test_to_unit_s_unitary_fixed_point():
    u = fourier_matrix(4)
    assert np.allclose(to_unit_s(u), u, atol=1e-12)


def test_to_unit_s_single_entry():
    assert np.allclose(to_unit_s([[2.0, 0.0], [0.0, 0.0]]), [[1, 0], [0, 0]])


def test_to_unit_s_rejects_zero():
    with pytest.raises(InputValidationError):
        to_unit_s(np.zeros((2, 2)))


def test_to_unit_s_result_in_unit_set():
    rng = np.random.default_rng(9)
    for _ in range(30):
        m = complex_gaussian(rng, int(rng.integers(1, 7)))
        v = to_unit_s(m)
        assert normalization_factor(v) == pytest.approx(1.0, abs=1e-12)
        assert norm_report(v).in_S_d if v.shape[0] == v.shape[1] else True


def test_to_unit_s_and_report_of_tiny_and_huge_matrices():
    # the squares of 1e-200 underflow to 0 and those of 1e200 overflow
    for x in (1e-200, 1e200):
        m = np.full((2, 2), x)
        assert np.allclose(to_unit_s(m), np.full((2, 2), 1 / np.sqrt(2)), rtol=1e-15, atol=0)
        rep = norm_report(m)
        assert rep.row_norms == pytest.approx([np.sqrt(2) * x] * 2, rel=1e-15)
        assert rep.n_factor == pytest.approx(np.sqrt(2) * x, rel=1e-15)
        assert rep.frobenius == pytest.approx(2 * x, rel=1e-15)
        assert rep.is_normal
    # a Hermitian matrix at 1e200, whose commutator and residual overflow unscaled
    h = 1e200 * np.array([[1, 1j], [-1j, 2]])
    assert hermitian_eig(h).residual <= 1e-12 * norm_frobenius(h)
    rep = norm_report(h)
    assert rep.is_normal
    assert rep.upper_bound == pytest.approx(1e200 * (3 + np.sqrt(5)) / 2, rel=1e-15)
    # one nonzero row, at any scale
    for x in (1e-200, 1.0, 1e200):
        m = np.zeros((2, 2))
        m[0] = x
        rep = norm_report(m)
        assert rep.single_nonzero_row and not rep.all_rows_equal


# --- norm report ---

def test_report_past_the_float_range_is_inf_without_warning():
    # the rows are floats, ||M||_F = s_max = 2e308 are not; RuntimeWarnings
    # are errors in this suite
    rep = norm_report(np.full((2, 2), 1e308))
    assert rep.n_factor == pytest.approx(np.sqrt(2) * 1e308, rel=1e-15)
    assert rep.frobenius == rep.lower_bound == rep.upper_bound == np.inf
    assert rep.all_rows_equal and not rep.in_S_d


def test_report_diagonal_density_upper_tight():
    p = np.array([0.5, 0.3, 0.2])
    rep = norm_report(np.diag(p))
    assert rep.is_normal
    assert rep.n_factor == pytest.approx(0.5, abs=1e-12)
    assert rep.upper_bound == pytest.approx(0.5, abs=1e-10)   # e_max, tight


def test_report_pi6_lower_tight():
    rep = norm_report(pi(3))
    assert rep.all_rows_equal
    assert rep.n_factor == pytest.approx(rep.lower_bound, abs=1e-10)
    assert rep.n_factor == pytest.approx(np.sqrt(3) / np.sqrt(6), abs=1e-12)
    assert rep.is_normal
    assert rep.upper_bound == pytest.approx(1.0, abs=1e-10)   # e_max of a projector


def test_report_single_nonzero_row_upper_tight():
    m = np.array([[1.0, 1.0], [0.0, 0.0]]) / np.sqrt(2)
    rep = norm_report(m)
    assert rep.single_nonzero_row
    assert rep.n_factor == pytest.approx(rep.upper_bound, abs=1e-12)
    assert rep.n_factor == pytest.approx(1.0, abs=1e-12)
    assert rep.in_S_d


def test_report_bracket_random():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        m = complex_gaussian(rng, d)
        rep = norm_report(m)
        assert rep.lower_bound <= rep.n_factor + 1e-10
        assert rep.n_factor <= rep.upper_bound + 1e-10


def test_report_normal_bracket_and_adjoint():
    rng = np.random.default_rng(77)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        m = random_normal_matrix(rng, d)
        rep = norm_report(m)
        assert rep.is_normal
        e_max = largest_singular_value(m)
        assert rep.n_factor <= e_max + 1e-10
        assert normalization_factor(m.conj().T) == pytest.approx(rep.n_factor, abs=1e-12)


def test_report_density_chain():
    rng = np.random.default_rng(88)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        rho = random_density(rng, d)
        rep = norm_report(rho)
        e_max = largest_singular_value(rho)
        purity = np.trace(rho @ rho).real
        assert np.sqrt(purity / d) <= rep.n_factor + 1e-10
        assert rep.n_factor <= e_max + 1e-10
        assert e_max <= 1.0 + 1e-10
        assert e_max >= 1.0 / d - 1e-10
        assert np.abs(rho).sum() >= 1.0 - 1e-10


def test_unit_set_closed_under_small_scalars():
    rng = np.random.default_rng(3)
    m = to_unit_s(complex_gaussian(rng, 4))
    for z in (0.5, -0.9j, 0.3 + 0.4j):
        assert normalization_factor(z * m) <= 1.0 + 1e-12


def test_factor_not_unitarily_invariant_witness():
    # frozen witness: conjugating diag(1, 0) by the 2-dim Fourier matrix
    # spreads the single unit row into two rows of norm 1/sqrt(2)
    m = np.diag([1.0, 0.0])
    u = fourier_matrix(2)
    before = normalization_factor(m)
    after = normalization_factor(u @ m @ u.conj().T)
    assert before == pytest.approx(1.0, abs=1e-12)
    assert after == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert abs(before - after) > 0.25


def test_report_serializes():
    doc = norm_report(pi(3)).to_dict()
    assert doc["in_S_d"] is True      # N(Pi_6) = 1/sqrt(2) <= 1
    assert doc["all_rows_equal"] is True
    assert set(doc) >= {"row_norms", "n_factor", "frobenius", "lower_bound",
                        "upper_bound", "is_normal", "in_S_d"}
