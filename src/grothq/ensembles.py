"""Seeded random matrix ensembles used by experiments and property tests.

Every sampler takes a ``numpy.random.Generator`` so that callers own the
seeding policy; identical generators give identical samples.
"""

import numpy as np

from .linalg import InputValidationError, require_int

__all__ = [
    "complex_gaussian",
    "random_unitary",
    "random_density",
    "random_normal_matrix",
    "random_hermitian",
    "random_projector",
]


def complex_gaussian(rng, d: int) -> np.ndarray:
    """d x d matrix with iid standard complex Gaussian entries."""
    d = require_int(d, "dimension", 1)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return z / np.sqrt(2.0)


def random_unitary(rng, d: int) -> np.ndarray:
    """Haar-like unitary from the QR factorization of a complex Gaussian.

    The R diagonal phases are normalized so the result is a deterministic
    function of the Gaussian sample.
    """
    d = require_int(d, "dimension", 1)
    q, r = np.linalg.qr(complex_gaussian(rng, d))
    ph = np.diag(r).copy()
    ph = np.where(np.abs(ph) > 0, ph / np.abs(ph), 1.0)
    return q * ph


def random_density(rng, d: int) -> np.ndarray:
    """Random density matrix: squared-Gaussian eigenvalues, Haar-like basis."""
    d = require_int(d, "dimension", 1)
    w = rng.standard_normal(d) ** 2
    w = w / w.sum()
    u = random_unitary(rng, d)
    return (u * w) @ u.conj().T


def random_normal_matrix(rng, d: int) -> np.ndarray:
    """Random normal matrix: complex Gaussian diagonal conjugated by a unitary."""
    d = require_int(d, "dimension", 1)
    ev = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / np.sqrt(2.0)
    u = random_unitary(rng, d)
    return (u * ev) @ u.conj().T


def random_hermitian(rng, d: int) -> np.ndarray:
    d = require_int(d, "dimension", 1)
    g = complex_gaussian(rng, d)
    return (g + g.conj().T) / 2.0


def random_projector(rng, d: int, rank: int) -> np.ndarray:
    """Random rank-r orthogonal projector U_r U_r^dagger."""
    d = require_int(d, "dimension", 1)
    rank = require_int(rank, "rank", 1)
    if rank > d:
        raise InputValidationError(f"rank must be in 1..{d}, got {rank}")
    u = random_unitary(rng, d)[:, :rank]
    return u @ u.conj().T
