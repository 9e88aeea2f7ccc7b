"""Dense complex linear algebra for small matrices (d <= ~64).

Everything here is a pure function of its inputs: matrices are validated,
copied into complex128 arrays, and never mutated in place, so values can be
shared freely across threads.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "InputValidationError",
    "ConvergenceError",
    "EigenDecomposition",
    "as_matrix",
    "require_square",
    "norm_entrywise_l1",
    "norm_frobenius",
    "largest_singular_value",
    "hermitian_eig",
    "is_normal",
    "fourier_matrix",
    "permutation_matrix",
    "eigenvalue_multiplicities",
]


class InputValidationError(ValueError):
    """Raised when an input matrix or parameter violates a precondition."""


class ConvergenceError(RuntimeError):
    """Raised when a LAPACK routine fails to converge."""


def as_matrix(m) -> np.ndarray:
    """Validate and return a 2-D complex128 array whose entries have finite
    moduli (so neither part is nan or inf, nor is the modulus past the float
    range)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InputValidationError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.isfinite(np.abs(a)).all():
        raise InputValidationError("matrix contains entries with non-finite moduli")
    return a


def require_square(m) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InputValidationError(f"expected a square matrix, got shape {a.shape}")
    return a


def norm_entrywise_l1(m) -> float:
    """Sum of the moduli of all entries.

    The moduli are summed on ``pow2_normalize``d entries and scaled back, so
    subnormal entries keep their precision; for other matrices the result is
    bit-identical to summing the moduli directly.
    """
    b, k = pow2_normalize(as_matrix(m))
    return float(np.ldexp(np.abs(b).sum(), k))


def norm_frobenius(m) -> float:
    """sqrt(sum |entries|^2), equal to sqrt(Tr(M M^dagger)).

    Computed on the ``pow2_normalize``d matrix and scaled back, so tiny or
    huge matrices neither underflow nor overflow and the result scales
    exactly with the matrix.
    """
    b, k = pow2_normalize(as_matrix(m))
    return float(np.ldexp(np.linalg.norm(b), k))


def pow2_split(a: np.ndarray, axis=None):
    """(a / 2^e, e): each slice of ``a`` along ``axis`` (the whole array when
    None) scaled by the exact power of two that puts its largest modulus in
    [1/2, 1); e is 0 for a zero slice and keeps the reduced axes, so it
    broadcasts against ``a``.

    Scaling by a power of two is exact (scaling down rounds only the parts
    more than 2^1021 times below their slice's largest modulus), so a
    computation can run on the scaled slices, free of underflow and
    overflow, and scale its result back with ``np.ldexp(x, e)``, exact up to
    the top of the float range.  This is the one place in grothq that picks
    such a scale.
    """
    _, e = np.frexp(np.abs(a).max(axis=axis, keepdims=True))
    if np.iscomplexobj(a):
        # ldexp on the real parts: complex division by a subnormal 2^e overflows
        return np.ldexp(a.real, -e) + 1j * np.ldexp(a.imag, -e), e
    return np.ldexp(a, -e), e


def pow2_normalize(a: np.ndarray):
    """(a / 2^k, k) with max |a_ij| / 2^k in [1/2, 1) and k an int, 0 for a
    zero matrix: the whole-array case of ``pow2_split``."""
    b, e = pow2_split(a)
    return b, e.item()


def largest_singular_value(m) -> float:
    """Largest singular value (spectral norm), from LAPACK's SVD via numpy.

    The SVD runs on the ``pow2_normalize``d matrix and the result is scaled
    back, so tiny or huge matrices neither underflow nor overflow and the
    result scales exactly with the matrix.  For normal matrices it equals
    the spectral radius.
    """
    b, k = pow2_normalize(require_square(m))
    try:
        s = np.linalg.svd(b, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    return float(np.ldexp(s[0], k))


@dataclass
class EigenDecomposition:
    """Eigenvalues (descending), eigenvector columns, and the factorization residual."""
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float


HERMITICITY_TOL = 1e-12


def hermitian_eig(h) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, from LAPACK via numpy.

    The input must be Hermitian entrywise to ``HERMITICITY_TOL``, tested on
    the ``pow2_normalize``d B = H / 2^k against HERMITICITY_TOL / 2^k, which
    accepts the same matrices without overflowing.  The Hermitian part
    (B + B^dagger)/2 is decomposed and its eigenvalues scaled back, so tiny or
    huge H neither underflow nor overflow and the eigenvalues scale exactly
    with H.  ``residual`` is ||H V - V diag(lambda)||_F against the input H.
    """
    b, k = pow2_normalize(require_square(h))
    dev = np.abs(b - b.conj().T).max()
    # 2^-k capped at 2^1023: the bound then exceeds |B_ij - conj(B_ji)| <= 2 anyway
    if dev > np.ldexp(HERMITICITY_TOL, min(-k, 1023)):
        from decimal import Decimal   # imported here, off the start-up path of every command
        raise InputValidationError(
            "matrix is not Hermitian: max |H_ij - conj(H_ji)| = "
            f"{Decimal(dev) * Decimal(2) ** k:.3e}")
    try:
        lam, v = np.linalg.eigh((b + b.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Hermitian eigensolver did not converge: {exc}") from exc
    lam, v = lam[::-1], v[:, ::-1]
    residual = float(np.ldexp(np.linalg.norm(b @ v - v * lam), k))
    return EigenDecomposition(np.ldexp(lam, k), v, residual)


NORMAL_TOL = 1e-12


def is_normal(m) -> bool:
    """True iff ||M M^dagger - M^dagger M||_F <= NORMAL_TOL * (1 + ||M||_F^2).

    Both sides are divided by 4^k, the square of the ``pow2_normalize``
    scale 2^k, so tiny or huge matrices neither underflow nor overflow; for
    matrices in normal range the scaled comparison is exact.
    """
    b, k = pow2_normalize(require_square(m))
    # 4^-k capped at 2^1023: the bound then exceeds ||B B^H - B^H B||_F <= 2 d^2 anyway
    bound = NORMAL_TOL * (np.ldexp(1.0, min(-2 * k, 1023)) + np.linalg.norm(b) ** 2)
    return bool(np.linalg.norm(b @ b.conj().T - b.conj().T @ b) <= bound)


def fourier_matrix(d: int) -> np.ndarray:
    """The d x d Fourier matrix F_jk = omega^(jk) / sqrt(d), omega = exp(2 pi i / d)."""
    if d < 1:
        raise InputValidationError(f"dimension must be >= 1, got {d}")
    j = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, j) / d) / np.sqrt(d)


def permutation_matrix(pi) -> np.ndarray:
    """Matrix with entries tau[i, j] = 1 iff j = pi(i), for a bijection pi of {0..n-1}."""
    pi = list(pi)
    n = len(pi)
    if n < 1 or sorted(pi) != list(range(n)):
        raise InputValidationError(f"not a permutation of 0..{n - 1}: {pi}")
    tau = np.zeros((n, n), dtype=complex)
    tau[np.arange(n), pi] = 1.0
    return tau


CLUSTER_TOL = 1e-8


def eigenvalue_multiplicities(eigenvalues):
    """Group sorted eigenvalues into clusters within ``CLUSTER_TOL``.

    Returns a list of (representative_value, multiplicity) pairs, in the order
    the eigenvalues appear.
    """
    lam = np.sort(np.asarray(eigenvalues, dtype=float))[::-1]
    groups = []
    for x in lam:
        if groups and abs(groups[-1][0] - x) <= CLUSTER_TOL:
            val, count = groups[-1]
            groups[-1] = (val, count + 1)
        else:
            groups.append((float(x), 1))
    return groups
