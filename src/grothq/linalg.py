"""Dense complex linear algebra for small matrices (d <= ~64).

Everything here is a pure function of its inputs: matrices are validated,
copied into complex128 arrays, and never mutated in place, so values can be
shared freely across threads.
"""

import math
import numbers
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


# frexp exponents up to this one are those of subnormal moduli
_SUBNORMAL_EXP = np.finfo(float).minexp


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


def require_int(value, name, minimum) -> int:
    """``value`` as a Python int: an integer of any type (NumPy's included)
    but not a bool, and at least ``minimum``.  The one check of every integer
    parameter in grothq."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InputValidationError(f"{name} must be a non-negative integer" if minimum == 0
                                   else f"{name} must be >= {minimum}")
    return int(value)


def require_real(value, name) -> float:
    """``value`` as a Python float: a real of any type (NumPy's included) but
    not a bool, finite as a float.  The one check of every real parameter in
    grothq."""
    try:
        finite = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                  and math.isfinite(float(value)))
    except OverflowError:           # an int or a fraction past the float range
        finite = False
    if not finite:
        raise InputValidationError(f"{name} must be a finite real, got {value!r}")
    return float(value)


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
    return float(pow2_scale(np.abs(b).sum(), k))


def norm_frobenius(m) -> float:
    """sqrt(sum |entries|^2), equal to sqrt(Tr(M M^dagger)).

    Computed on the ``pow2_normalize``d matrix and scaled back, so tiny or
    huge matrices neither underflow nor overflow and the result scales
    exactly with the matrix.
    """
    b, k = pow2_normalize(as_matrix(m))
    return float(pow2_scale(np.linalg.norm(b), k))


def pow2_split(a: np.ndarray, axis):
    """(a / 2^e, e): each slice of ``a`` along ``axis`` (the whole array when
    None) scaled by the exact power of two that puts its largest modulus in
    [1/2, 1); e is 0 for a zero slice and keeps the reduced axes, so it
    broadcasts against ``a``.

    Scaling by a power of two is exact (scaling down rounds only the parts
    more than 2^1021 times below their slice's largest modulus), so a
    computation can run on the scaled slices, free of underflow and
    overflow, and scale its result back with ``pow2_scale(x, e)``.  The real
    and imaginary parts are scaled each on its own, so a zero part keeps its
    sign (and -1 - 0j its argument -pi).  This is the one place in grothq that
    picks such a scale.
    """
    _, e = np.frexp(np.abs(a).max(axis=axis, keepdims=True))
    if np.iscomplexobj(a):
        # ldexp on each part, written into b's: complex division by a subnormal
        # 2^e overflows, and x + 1j * y would turn a -0.0 part into +0.0
        b = np.empty_like(a)
        np.ldexp(a.real, -e, out=b.real)
        np.ldexp(a.imag, -e, out=b.imag)
    else:
        b = np.ldexp(a, -e)
    if np.minimum.reduce(e, axis=None, initial=0) <= _SUBNORMAL_EXP:
        # a subnormal modulus is rounded on the subnormal grid and can cross a
        # power of two; the exactly scaled b has normal moduli, so split it once more
        b, e2 = pow2_split(b, axis)
        e = e + e2
    return b, e


def pow2_scale(x, e):
    """x * 2^e, exact up to the top of the float range and inf past it, with
    no overflow warning: the scale-back of every ``pow2_split`` result."""
    with np.errstate(over="ignore"):
        return np.ldexp(x, e)


def pow2_normalize(a: np.ndarray):
    """(a / 2^k, k) with max |a_ij| / 2^k in [1/2, 1) and k an int, 0 for a
    zero matrix: the whole-array case of ``pow2_split``."""
    b, e = pow2_split(a, None)
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
    return float(pow2_scale(s[0], k))


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
    residual = float(pow2_scale(np.linalg.norm(b @ v - v * lam), k))
    return EigenDecomposition(pow2_scale(lam, k), v, residual)


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
    d = require_int(d, "dimension", 1)
    j = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, j) / d) / np.sqrt(d)


def permutation_matrix(pi) -> np.ndarray:
    """Matrix with entries tau[i, j] = 1 iff j = pi(i), for a bijection pi of {0..n-1}."""
    pi = [require_int(x, "permutation entry", 0) for x in pi]
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
