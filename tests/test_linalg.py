import itertools
import warnings

import numpy as np
import pytest

from grothq import (
    ConvergenceError,
    InputValidationError,
    build_family,
    OptimizerConfig,
    build_projector,
    classify,
    eigenvalue_multiplicities,
    fourier_matrix,
    hermitian_eig,
    is_normal,
    largest_singular_value,
    norm_entrywise_l1,
    norm_frobenius,
    permutation_matrix,
)
from grothq.ensembles import complex_gaussian, random_hermitian, random_unitary
from grothq.linalg import as_matrix


def pi6():
    return build_projector(build_family(3)).matrix


# --- input validation ---

def _with_entry(value):
    m = np.eye(3, dtype=complex)
    m[1, 2] = value
    return m


@pytest.mark.parametrize("value", [complex(0.5, np.nan), complex(-np.inf, 0.0),
                                   complex(np.nan, 0.0), complex(0.0, np.inf),
                                   complex(1.5e308, 1.5e308)])   # finite parts, modulus inf
def test_as_matrix_rejects_nan_or_inf_in_either_part(value):
    with pytest.raises(InputValidationError, match="non-finite"):
        as_matrix(_with_entry(value))
    with pytest.raises(InputValidationError, match="non-finite"):
        classify(_with_entry(value), OptimizerConfig(starts=1))


def test_as_matrix_accepts_extreme_finite_entries():
    m = _with_entry(complex(-np.finfo(float).max, 5e-324))
    assert np.array_equal(as_matrix(m), m)


# --- entrywise l1 norm ---

def test_l1_fourier_d3():
    assert norm_entrywise_l1(fourier_matrix(3)) == pytest.approx(3 * np.sqrt(3), abs=1e-12)


def test_l1_zero_matrix():
    assert norm_entrywise_l1(np.zeros((4, 4))) == 0.0


def test_l1_direct_sum():
    m = np.array([[1, 1j], [-1, 2]])
    assert norm_entrywise_l1(m) == pytest.approx(5.0, abs=1e-12)


def test_l1_rejects_nonfinite():
    with pytest.raises(InputValidationError):
        norm_entrywise_l1(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(InputValidationError):
        norm_entrywise_l1(np.array([[np.inf * 1j, 0], [0, 1]]))


def test_l1_subnormal_entries_keep_precision():
    # each modulus sqrt(2) * 5e-324 rounds to 5e-324 when taken in subnormal
    # arithmetic; the sum 4 sqrt(2) * 5e-324 rounds to 6 * 5e-324
    theta = np.full((2, 2), 5e-324 * (1 + 1j))
    assert norm_entrywise_l1(theta) == 6 * 5e-324


def test_l1_bit_identical_to_direct_sum():
    rng = np.random.default_rng(13)
    for scale in (1e-200, 1e-3, 1.0, 1e150):
        for d in (1, 2, 5, 8):
            m = scale * complex_gaussian(rng, d)
            assert norm_entrywise_l1(m) == float(np.abs(m).sum())


# --- Frobenius norm ---

def test_frobenius_fourier_d3():
    assert norm_frobenius(fourier_matrix(3)) == pytest.approx(np.sqrt(3), abs=1e-12)


def test_frobenius_identity():
    for d in (1, 2, 5):
        assert norm_frobenius(np.eye(d)) == pytest.approx(np.sqrt(d), abs=1e-12)


def test_frobenius_pi6_is_sqrt_trace():
    # Tr Pi = 3 for the rank-3 projector, so ||Pi||_2 = sqrt(3)
    assert norm_frobenius(pi6()) == pytest.approx(np.sqrt(3), abs=1e-12)


def test_frobenius_squared_equals_trace():
    rng = np.random.default_rng(31)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        m = complex_gaussian(rng, d)
        lhs = norm_frobenius(m) ** 2
        rhs = np.trace(m @ m.conj().T).real
        assert lhs == pytest.approx(rhs, rel=1e-12)


# --- the top of the float range ---

def test_norms_of_a_matrix_at_the_top_of_the_float_range():
    # its largest modulus needs the scale 2^1024, which is not a float
    m = np.diag([1e308, 0])
    assert largest_singular_value(m) == 1e308
    assert norm_frobenius(m) == 1e308
    assert norm_entrywise_l1(m) == 1e308


def test_eig_at_the_top_of_the_float_range():
    # (H + H^dagger) / 2 of the unscaled matrix overflows
    dec = hermitian_eig(np.diag([1e308, 1e307]))
    assert np.array_equal(dec.eigenvalues, [1e308, 1e307])
    assert np.isfinite(dec.residual)


# --- largest singular value ---

def test_smax_unitary_is_one():
    rng = np.random.default_rng(7)
    for d in (2, 3, 6):
        u = random_unitary(rng, d)
        assert largest_singular_value(u) == pytest.approx(1.0, abs=1e-10)


def test_smax_pi6_is_one():
    assert largest_singular_value(pi6()) == pytest.approx(1.0, abs=1e-10)


def test_smax_hermitian_2x2_example():
    # [[a, b], [b*, -c]] with a = c = 1, b = 1 has spectral radius sqrt(2)
    m = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert largest_singular_value(m) == pytest.approx(np.sqrt(2), rel=1e-10)


def test_smax_zero_and_scalar():
    assert largest_singular_value(np.zeros((3, 3))) == 0.0
    assert largest_singular_value(np.array([[2.0 - 1.0j]])) == pytest.approx(np.sqrt(5))


def test_smax_matches_numpy_svd():
    rng = np.random.default_rng(12)
    for _ in range(40):
        d = int(rng.integers(2, 9))
        m = complex_gaussian(rng, d)
        ref = np.linalg.svd(m, compute_uv=False)[0]
        assert largest_singular_value(m) == pytest.approx(ref, rel=1e-10)


def test_smax_dominates_random_unit_vectors():
    # brute-force oracle: no random unit vector produces a larger ratio
    rng = np.random.default_rng(99)
    for d in (2, 3, 4):
        m = complex_gaussian(rng, d)
        smax = largest_singular_value(m)
        x = rng.standard_normal((10000, d)) + 1j * rng.standard_normal((10000, d))
        x /= np.linalg.norm(x, axis=1)[:, None]
        ratios = np.linalg.norm(x @ m.T, axis=1)
        assert ratios.max() <= smax + 1e-8
        # the sampled maximum also comes close from below
        assert ratios.max() >= smax * 0.9


def test_smax_near_tied_singular_values():
    # sigma = 0.0625 +- 1e-8: plain power iteration on M^dagger M stalls here
    m = np.array([[1e-8, 0.0625], [0.0625, 1e-8]])
    assert largest_singular_value(m) == pytest.approx(0.0625 + 1e-8, rel=1e-12)


def test_smax_tiny_matrix_does_not_underflow():
    assert largest_singular_value(np.full((2, 2), 1e-160)) == pytest.approx(2e-160, rel=1e-12)


def fail_to_converge(*args, **kwargs):
    raise np.linalg.LinAlgError("injected non-convergence")


def test_smax_lapack_failure_raises_convergence_error(monkeypatch):
    monkeypatch.setattr(np.linalg, "svd", fail_to_converge)
    m = complex_gaussian(np.random.default_rng(5), 4)
    with pytest.raises(ConvergenceError, match="SVD did not converge"):
        largest_singular_value(m)


def test_smax_equals_spectral_radius_for_normal():
    rng = np.random.default_rng(21)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        h = random_hermitian(rng, d)
        lam = hermitian_eig(h).eigenvalues
        assert largest_singular_value(h) == pytest.approx(np.abs(lam).max(), rel=1e-9, abs=1e-12)


# --- Hermitian eigendecomposition ---

def test_eig_pi6_multiplicities():
    dec = hermitian_eig(pi6())
    assert np.allclose(dec.eigenvalues, [1, 1, 1, 0, 0, 0], atol=1e-10)


def test_eig_identity():
    dec = hermitian_eig(np.eye(4))
    assert np.allclose(dec.eigenvalues, np.ones(4))
    assert dec.residual <= 1e-12


def test_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(3)
    for _ in range(30):
        d = int(rng.integers(2, 10))
        h = random_hermitian(rng, d)
        dec = hermitian_eig(h)
        v = dec.eigenvectors
        recon = v @ np.diag(dec.eigenvalues) @ v.conj().T
        assert np.abs(recon - h).max() < 1e-9
        assert np.abs(v.conj().T @ v - np.eye(d)).max() < 1e-10
        assert dec.residual <= 1e-9 * (1 + norm_frobenius(h))
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)


def test_eig_matches_numpy():
    rng = np.random.default_rng(17)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        h = random_hermitian(rng, d)
        mine = hermitian_eig(h).eigenvalues
        ref = np.sort(np.linalg.eigvalsh(h))[::-1]
        assert np.abs(mine - ref).max() < 1e-9


def test_eig_lapack_failure_raises_convergence_error(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", fail_to_converge)
    with pytest.raises(ConvergenceError, match="did not converge"):
        hermitian_eig(random_hermitian(np.random.default_rng(5), 4))


def test_eig_rejects_non_hermitian():
    with pytest.raises(InputValidationError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_rejects_huge_non_hermitian_without_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputValidationError, match=r"= 2\.000e\+308"):
            hermitian_eig(np.array([[0.0, 1e308], [-1e308, 0.0]]))


@pytest.mark.parametrize("j", [-600, 0, 600])
def test_eig_hermiticity_tolerance_is_absolute_at_every_scale(j):
    # the check runs on H / 2^k against HERMITICITY_TOL / 2^k: the same verdicts
    for dev, ok in ((0.9e-12, True), (1.1e-12, False)):
        h = np.diag([2.0 ** j, 2.0 ** j]).astype(complex)
        h[0, 1] = dev
        if ok:
            hermitian_eig(h)
        else:
            with pytest.raises(InputValidationError, match="not Hermitian"):
                hermitian_eig(h)


# --- normality test ---

def test_is_normal_unitary():
    rng = np.random.default_rng(8)
    assert is_normal(random_unitary(rng, 5))


def test_is_normal_single_entry_false():
    m = np.zeros((2, 2))
    m[0, 1] = 1.0
    assert not is_normal(m)


def test_is_normal_pi6():
    assert is_normal(pi6())


# --- Fourier matrix ---

def test_fourier_d1():
    assert np.allclose(fourier_matrix(1), [[1.0]])


def test_fourier_d2():
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.abs(fourier_matrix(2) - expected).max() < 1e-15


def test_fourier_unitary_and_fourth_power():
    for d in (2, 3, 5, 8):
        f = fourier_matrix(d)
        assert np.abs(f @ f.conj().T - np.eye(d)).max() < 1e-12
        f4 = np.linalg.matrix_power(f, 4)
        assert np.abs(f4 - np.eye(d)).max() < 1e-12


# --- permutation matrices ---

def test_permutation_identity():
    assert np.allclose(permutation_matrix([0, 1, 2]), np.eye(3))


def test_permutation_swap():
    assert np.allclose(permutation_matrix([1, 0]), [[0, 1], [1, 0]])


def test_permutation_rejects_non_bijection():
    with pytest.raises(InputValidationError):
        permutation_matrix([0, 0, 2])


def test_permutation_composition_closure_sigma3():
    # matrix products of representations stay in the representation; with the
    # row convention tau[i, pi(i)] = 1, tau_w tau_p represents p o w
    perms = list(itertools.permutations(range(3)))
    mats = {p: permutation_matrix(p) for p in perms}
    for w in perms:
        for p in perms:
            prod = mats[w] @ mats[p]
            composed = tuple(p[w[i]] for i in range(3))
            assert composed in mats
            assert np.allclose(prod, mats[composed])


def test_permutation_action_on_vectors():
    # (tau x)_i = x_pi(i)
    pi = [2, 0, 1]
    x = np.array([10.0, 20.0, 30.0])
    assert np.allclose(permutation_matrix(pi) @ x, [30.0, 10.0, 20.0])


# --- invariants ---

def test_frobenius_unitary_invariance():
    rng = np.random.default_rng(44)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        m = complex_gaussian(rng, d)
        # unitaries built from permutation, Fourier, and diagonal-phase factors
        pi = list(rng.permutation(d))
        phases = np.exp(2j * np.pi * rng.uniform(size=d))
        u = permutation_matrix(pi) @ fourier_matrix(d) @ np.diag(phases)
        assert norm_frobenius(u @ m @ u.conj().T) == pytest.approx(
            norm_frobenius(m), rel=1e-10)


def test_eigenvalue_multiplicity_clustering():
    groups = eigenvalue_multiplicities([1.0, 1.0 + 5e-9, 0.5, 0.0, 1e-12])
    assert [c for _, c in groups] == [2, 1, 2]
