import numpy as np
import pytest

from grothq import (
    InputValidationError,
    build_family,
    build_projector,
    eigenvalue_multiplicities,
    expand_state,
    hermitian_eig,
    isotropy_check,
    overlap_power_sum,
    permutation_invariance_check,
    resolution_check,
    torus_witness,
)

from golden import W3, golden_family_d3, golden_projector_d3, golden_projector_d4


# --- family construction ---

def test_family_d3_reproduces_golden_states():
    fam = build_family(3)
    assert fam.count == 6
    assert np.abs(fam.states - golden_family_d3()).max() < 1e-15


def test_family_d4_a4_column():
    fam = build_family(4)
    expected = np.array([0, 1, W3, W3**2]) / np.sqrt(3)
    assert np.abs(fam.states[4] - expected).max() < 1e-12


def test_family_d2_is_standard_basis():
    fam = build_family(2)
    assert np.allclose(fam.states, np.eye(2))


def test_family_unit_norms_and_count():
    for d in (2, 3, 4, 5, 6):
        fam = build_family(d)
        assert fam.count == d * (d - 1)
        assert np.allclose(np.linalg.norm(fam.states, axis=1), 1.0, atol=1e-12)
        for idx, (p, k) in enumerate(fam.recipe):
            assert fam.states[idx, p] == 0


def test_family_rejects_d1():
    with pytest.raises(InputValidationError):
        build_family(1)


# --- resolution of identity ---

def test_resolution_small_dims():
    for d in (2, 3, 4, 5, 6):
        assert resolution_check(build_family(d)) <= 1e-12


# --- isotropy ---

def test_isotropy_d3_multiset():
    ok, multisets = isotropy_check(build_family(3))
    assert ok
    expected = np.sort([1.0, 0.25, 0.25, 0.25, 0.25, 0.0])
    assert np.allclose(np.sort(multisets[0]), expected, atol=1e-12)


def test_isotropy_d4_multiset():
    ok, multisets = isotropy_check(build_family(4))
    assert ok
    expected = np.sort([1.0] + [4 / 9] * 3 + [1 / 9] * 6 + [0.0] * 2)
    assert np.allclose(np.sort(multisets[0]), expected, atol=1e-12)


def test_isotropy_d2_trivial():
    ok, multisets = isotropy_check(build_family(2))
    assert ok
    assert np.allclose(np.sort(multisets[0]), [0.0, 1.0])


def test_isotropy_fails_at_d5():
    # empirical: the generic constructor loses state-independence of the
    # overlap multiset beyond d = 4
    ok, _ = isotropy_check(build_family(5))
    assert not ok


# --- permutation invariance ---

def test_permutation_invariance_d3():
    ok, mapping = permutation_invariance_check(build_family(3))
    assert ok
    assert len(mapping) == 6 * 6


def test_permutation_invariance_d4():
    ok, mapping = permutation_invariance_check(build_family(4))
    assert ok
    assert len(mapping) == 24 * 12


def test_permutation_invariance_d2_swap():
    fam = build_family(2)
    ok, mapping = permutation_invariance_check(fam)
    assert ok
    j, phase = mapping[((1, 0), 0)]
    assert j == 1 and phase == pytest.approx(1.0)


def test_permutation_invariance_rejects_large_dims():
    with pytest.raises(InputValidationError):
        permutation_invariance_check(build_family(7))


# --- overlap power sums ---

@pytest.mark.parametrize("r,expected", [(1, 3.0), (2, 2.0), (3, 1.5), (4, 1.25)])
def test_power_sums_d3(r, expected):
    fam = build_family(3)
    for i in range(fam.count):
        assert overlap_power_sum(fam, i, r) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_power_sums_d4(r):
    fam = build_family(4)
    expected = 1 + (2 ** r + 2) / 3 ** (r - 1)
    for i in range(fam.count):
        assert overlap_power_sum(fam, i, r) == pytest.approx(expected, abs=1e-9)


def test_power_sum_r2_from_resolution():
    # r = 2 equals (d-1) * 1 by the resolution of the identity
    for d in (2, 3, 4, 5):
        fam = build_family(d)
        assert overlap_power_sum(fam, 0, 2) == pytest.approx(d - 1, abs=1e-10)


# --- expansion over the family ---

def test_expand_basis_vector_d3():
    fam = build_family(3)
    coeffs = expand_state(fam, [1, 0, 0]).coefficients
    assert coeffs[0] == pytest.approx(1 / (2 * np.sqrt(2)), abs=1e-12)


def test_expand_basis_vector_d4():
    fam = build_family(4)
    coeffs = expand_state(fam, [1, 0, 0, 0]).coefficients
    assert coeffs[0] == pytest.approx(1 / (3 * np.sqrt(3)), abs=1e-12)


def test_expand_reconstructs():
    rng = np.random.default_rng(10)
    for d in (2, 3, 4, 5):
        fam = build_family(d)
        for _ in range(20):
            f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            f /= np.linalg.norm(f)
            coeffs = expand_state(fam, f).coefficients
            recon = coeffs @ fam.states
            assert np.abs(recon - f).max() < 1e-12


def test_expand_norm_relation():
    # sum |f_i|^2 = (d-1) sum |coeff_i|^2
    rng = np.random.default_rng(11)
    for d in (3, 4):
        fam = build_family(d)
        for _ in range(50):
            f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            f /= np.linalg.norm(f)
            coeffs = expand_state(fam, f).coefficients
            assert (d - 1) * (np.abs(coeffs) ** 2).sum() == pytest.approx(1.0, abs=1e-12)


def test_expand_family_member_reconstructs():
    fam = build_family(4)
    coeffs = expand_state(fam, fam.states[0]).coefficients
    assert np.abs(coeffs @ fam.states - fam.states[0]).max() < 1e-12


def test_expand_rejects_non_unit():
    with pytest.raises(InputValidationError):
        expand_state(build_family(3), [1.0, 1.0, 0.0])


def test_reproducing_property():
    # Pi applied to the coefficient tuple returns the tuple
    rng = np.random.default_rng(12)
    for d in (3, 4):
        fam = build_family(d)
        proj = build_projector(fam).matrix
        for _ in range(100):
            f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            f /= np.linalg.norm(f)
            coeffs = expand_state(fam, f).coefficients
            assert np.abs(proj @ coeffs - coeffs).max() < 1e-12


def test_unit_vector_probability_partition():
    rng = np.random.default_rng(13)
    for d in (3, 4):
        fam = build_family(d)
        for _ in range(50):
            f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            f /= np.linalg.norm(f)
            total = (np.abs(fam.states.conj() @ f) ** 2).sum() / (d - 1)
            assert total == pytest.approx(1.0, abs=1e-12)


# --- overlap projector ---

def test_projector_d3_golden():
    proj = build_projector(build_family(3))
    assert np.abs(proj.matrix - golden_projector_d3()).max() < 1e-12
    assert proj.rank == 3


def test_projector_d4_golden():
    proj = build_projector(build_family(4))
    assert np.abs(proj.matrix - golden_projector_d4()).max() < 1e-12
    assert proj.rank == 4


def test_projector_d2_identity():
    proj = build_projector(build_family(2))
    assert np.allclose(proj.matrix, np.eye(2), atol=1e-12)


def test_projector_idempotent_hermitian_trace():
    for d in (2, 3, 4, 5):
        p = build_projector(build_family(d)).matrix
        assert np.abs(p @ p - p).max() < 1e-12
        assert np.abs(p - p.conj().T).max() < 1e-12
        assert np.trace(p).real == pytest.approx(d, abs=1e-12)


def test_projector_spectrum_multiplicities():
    for d in (3, 4, 5):
        p = build_projector(build_family(d)).matrix
        lam = hermitian_eig(p).eigenvalues
        clusters = eigenvalue_multiplicities(lam)
        assert [(round(v), c) for v, c in clusters] == [(1, d), (0, d * d - 2 * d)]


def test_orthogonality_pattern_d3():
    fam = build_family(3)
    for i in range(6):
        partner = (i + 3) % 6
        overlap = np.vdot(fam.states[i], fam.states[partner])
        assert abs(overlap) < 1e-12


# --- extremal torus tuples ---

def test_torus_witness_d3_value():
    p = build_projector(build_family(3)).matrix
    t, value = torus_witness(3)
    assert np.allclose(np.abs(t), 1.0, atol=1e-12)
    assert np.abs(p @ t).sum() == pytest.approx(value, abs=1e-12)
    assert value == pytest.approx(3 + 2 * np.sqrt(2), abs=1e-12)


def test_torus_witness_d4_is_unimodular_eigenvector():
    # the 12-dim projector admits a unimodular eigenvector, so its classical
    # form attains the ceiling d * e_max = 12 exactly
    p = build_projector(build_family(4)).matrix
    t, value = torus_witness(4)
    assert value == 12.0
    assert np.allclose(np.abs(t), 1.0, atol=1e-12)
    assert np.abs(p @ t - t).max() < 1e-12
    assert np.abs(p @ t).sum() == pytest.approx(12.0, abs=1e-12)


def test_torus_witness_d3_component_sums():
    # component sums of sum_j t_j a_j have moduli (2 + sqrt 2, 2 + sqrt 2, 0)
    fam = build_family(3)
    t, _ = torus_witness(3)
    y = t @ fam.states
    mods = np.sort(np.abs(y) * np.sqrt(2))
    assert np.allclose(mods, [0.0, 2 + np.sqrt(2), 2 + np.sqrt(2)], atol=1e-12)


def test_torus_witness_unsupported_dim():
    with pytest.raises(InputValidationError):
        torus_witness(5)
