import numpy as np
import pytest

from grothq import hermitian_eig, is_normal
from grothq.ensembles import (
    complex_gaussian,
    random_density,
    random_normal_matrix,
    random_projector,
    random_unitary,
)


def test_samplers_deterministic():
    for maker in (complex_gaussian, random_unitary, random_density, random_normal_matrix):
        a = maker(np.random.default_rng(42), 5)
        b = maker(np.random.default_rng(42), 5)
        assert np.array_equal(a, b)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(1)
    for d in (2, 3, 6):
        u = random_unitary(rng, d)
        assert np.abs(u @ u.conj().T - np.eye(d)).max() < 1e-12


def test_random_density_is_density():
    rng = np.random.default_rng(2)
    for _ in range(20):
        rho = random_density(rng, 4)
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert hermitian_eig(rho).eigenvalues.min() > -1e-12


def test_random_normal_is_normal():
    rng = np.random.default_rng(3)
    for _ in range(20):
        assert is_normal(random_normal_matrix(rng, 5))


def test_random_projector_idempotent():
    rng = np.random.default_rng(4)
    p = random_projector(rng, 5, 2)
    assert np.abs(p @ p - p).max() < 1e-12
    assert np.trace(p).real == pytest.approx(2.0, abs=1e-10)
    with pytest.raises(ValueError):
        random_projector(rng, 3, 0)
