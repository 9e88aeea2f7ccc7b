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
    """Raised when a numerical solver fails to converge.

    ``last_iterate`` keeps the solver's last iterate when it has one; the
    LAPACK routines wrapped here have none and leave it None.
    """

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


def as_matrix(m) -> np.ndarray:
    """Validate and return a 2-D complex128 array with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InputValidationError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.isfinite(a).all():               # complex: False if either part is nan or inf
        raise InputValidationError("matrix contains non-finite entries")
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
    b, unit = pow2_normalize(as_matrix(m))
    return unit * float(np.abs(b).sum())


def norm_frobenius(m) -> float:
    """sqrt(sum |entries|^2), equal to sqrt(Tr(M M^dagger)).

    Computed on the ``pow2_normalize``d matrix and scaled back, so tiny or
    huge matrices neither underflow nor overflow and the result scales
    exactly with the matrix.
    """
    b, unit = pow2_normalize(as_matrix(m))
    return unit * float(np.linalg.norm(b))


def pow2_normalize(a: np.ndarray):
    """(a / 2^k, 2^k) with max |a_ij| / 2^k in [1/2, 1); (a, 1.0) for a zero matrix.

    Scaling by a power of two is exact, so a computation can run on a / 2^k,
    free of underflow and overflow, and scale its result back without
    rounding.
    """
    top = float(np.abs(a).max())
    if top == 0:
        return a, 1.0
    k = int(np.frexp(top)[1])
    # ldexp on the real parts: complex division by a subnormal 2^k overflows
    return np.ldexp(a.real, -k) + 1j * np.ldexp(a.imag, -k), float(np.ldexp(1.0, k))


def largest_singular_value(m) -> float:
    """Largest singular value (spectral norm), from LAPACK's SVD via numpy.

    The SVD runs on the ``pow2_normalize``d matrix and the result is scaled
    back, so tiny or huge matrices neither underflow nor overflow and the
    result scales exactly with the matrix.  For normal matrices it equals
    the spectral radius.
    """
    b, unit = pow2_normalize(require_square(m))
    try:
        s = np.linalg.svd(b, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    return unit * float(s[0])


@dataclass
class EigenDecomposition:
    """Eigenvalues (descending), eigenvector columns, and the factorization residual."""
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float


def hermitian_eig(h, hermiticity_tol: float = 1e-12) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, from LAPACK via numpy.

    The input must be Hermitian entrywise to ``hermiticity_tol``; its
    Hermitian part (H + H^dagger)/2 is decomposed.  ``residual`` is
    ||H V - V diag(lambda)||_F against the input H.
    """
    h = require_square(h)
    dev = np.abs(h - h.conj().T).max()
    if dev > hermiticity_tol:
        raise InputValidationError(
            f"matrix is not Hermitian: max |H_ij - conj(H_ji)| = {dev:.3e}")
    try:
        lam, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Hermitian eigensolver did not converge: {exc}") from exc
    lam, v = lam[::-1], v[:, ::-1]
    residual = float(np.linalg.norm(h @ v - v * lam))
    return EigenDecomposition(lam, v, residual)


def is_normal(m, tol: float = 1e-12) -> bool:
    """True iff ||M M^dagger - M^dagger M||_F <= tol * (1 + ||M||_2^2)."""
    a = require_square(m)
    comm = a @ a.conj().T - a.conj().T @ a
    return bool(np.linalg.norm(comm) <= tol * (1.0 + np.linalg.norm(a) ** 2))


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


def eigenvalue_multiplicities(eigenvalues, cluster_tol: float = 1e-8):
    """Group sorted eigenvalues into clusters within ``cluster_tol``.

    Returns a list of (representative_value, multiplicity) pairs, in the order
    the eigenvalues appear.
    """
    lam = np.sort(np.asarray(eigenvalues, dtype=float))[::-1]
    groups = []
    for x in lam:
        if groups and abs(groups[-1][0] - x) <= cluster_tol:
            val, count = groups[-1]
            groups[-1] = (val, count + 1)
        else:
            groups.append((float(x), 1))
    return groups
