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
    """Raised when an iterative solver exhausts its iteration budget.

    The last iterate is kept on the exception so callers can inspect how far
    the solver got.
    """

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


def as_matrix(m) -> np.ndarray:
    """Validate and return a 2-D complex128 array with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InputValidationError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
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
    """sqrt(sum |entries|^2), equal to sqrt(Tr(M M^dagger))."""
    return float(np.linalg.norm(as_matrix(m)))


def pow2_normalize(a: np.ndarray):
    """(a / 2^k, 2^k) with max |a_ij| / 2^k in [1/2, 1); (a, 1.0) for a zero matrix.

    Scaling by a power of two is exact, so an iteration can run on a / 2^k,
    free of underflow and overflow, and scale its result back without
    rounding.
    """
    top = float(np.abs(a).max())
    if top == 0:
        return a, 1.0
    k = int(np.frexp(top)[1])
    # ldexp on the real parts: complex division by a subnormal 2^k overflows
    return np.ldexp(a.real, -k) + 1j * np.ldexp(a.imag, -k), float(np.ldexp(1.0, k))


# Fixed base seed for the power-iteration restarts; the op stays a pure,
# deterministic function of its matrix argument.
_POWER_SEED = 0x5EED

def largest_singular_value(m, restarts: int = 10, max_iterations: int = 20000,
                           rtol: float = 1e-14) -> float:
    """Largest singular value via power iteration on M^dagger M.

    The iterated power is squared after every step, so step k applies
    (M^dagger M)^(2^k) and nearly tied singular values separate after a few
    dozen steps instead of stalling.  Convergence is declared when successive
    Rayleigh quotients (of M^dagger M itself) agree to ``rtol`` (relative) on
    three consecutive iterations; the best converged restart wins.  For
    normal matrices the result equals the spectral radius.
    """
    a = require_square(m)
    if not np.any(a):
        return 0.0
    d = a.shape[0]
    if d == 1:
        return float(abs(a[0, 0]))
    a, unit = pow2_normalize(a)
    b = a.conj().T @ a
    scale = np.linalg.norm(b)
    best = -np.inf
    converged = False
    last = None
    for r in range(restarts):
        rng = np.random.default_rng(_POWER_SEED ^ r)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        power = b
        q_prev = None
        hits = 0
        for _ in range(max_iterations):
            w = power @ v
            nw = np.linalg.norm(w)
            if nw == 0.0:
                q = 0.0
                hits = 3
                break
            v = w / nw
            q = float(np.real(np.vdot(v, b @ v)))
            if q_prev is not None and abs(q - q_prev) <= rtol * max(abs(q), scale * 1e-30):
                hits += 1
                if hits >= 3:
                    break
            else:
                hits = 0
            q_prev = q
            power = power @ power
            power /= np.linalg.norm(power)
        last = v
        if hits >= 3:
            converged = True
            best = max(best, q)
    if not converged:
        raise ConvergenceError(
            f"power iteration did not converge within {max_iterations} iterations "
            f"over {restarts} restarts", last_iterate=last)
    return unit * float(np.sqrt(max(best, 0.0)))


@dataclass
class EigenDecomposition:
    """Eigenvalues (descending), eigenvector columns, and the factorization residual."""
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float


def hermitian_eig(h, hermiticity_tol: float = 1e-12, off_tol: float = 1e-12,
                  max_sweeps: int = 100) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    The input must be Hermitian entrywise to ``hermiticity_tol``.  Sweeps stop
    once the off-diagonal Frobenius mass drops below ``off_tol`` times the
    Frobenius norm of H.
    """
    h = require_square(h)
    dev = np.abs(h - h.conj().T).max()
    if dev > hermiticity_tol:
        raise InputValidationError(
            f"matrix is not Hermitian: max |H_ij - conj(H_ji)| = {dev:.3e}")
    d = h.shape[0]
    a = (h + h.conj().T) / 2.0
    v = np.eye(d, dtype=complex)
    norm_h = np.linalg.norm(a)
    if norm_h == 0.0:
        return EigenDecomposition(np.zeros(d), v, 0.0)

    def off(x):
        return np.linalg.norm(x - np.diag(np.diag(x)))

    sweeps = 0
    while off(a) > off_tol * norm_h:
        if sweeps >= max_sweeps:
            raise ConvergenceError(
                f"Jacobi sweeps did not converge within {max_sweeps} sweeps",
                last_iterate=a)
        for p in range(d - 1):
            for q in range(p + 1, d):
                c = a[p, q]
                if abs(c) <= off_tol * norm_h / (d * d):
                    continue
                app = a[p, p].real
                aqq = a[q, q].real
                phase = c / abs(c)
                if app == aqq:
                    t = 1.0
                else:
                    tau = (app - aqq) / (2.0 * abs(c))
                    t = np.sign(tau) / (abs(tau) + np.sqrt(tau * tau + 1.0))
                cs = 1.0 / np.sqrt(t * t + 1.0)
                sn = t * cs
                colp = a[:, p].copy()
                colq = a[:, q].copy()
                a[:, p] = cs * colp + np.conj(phase) * sn * colq
                a[:, q] = -phase * sn * colp + cs * colq
                rowp = a[p, :].copy()
                rowq = a[q, :].copy()
                a[p, :] = cs * rowp + phase * sn * rowq
                a[q, :] = -np.conj(phase) * sn * rowp + cs * rowq
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = cs * vp + np.conj(phase) * sn * vq
                v[:, q] = -phase * sn * vp + cs * vq
        sweeps += 1
    lam = np.diag(a).real.copy()
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    v = v[:, order]
    residual = float(np.linalg.norm(h @ v - v @ np.diag(lam)))
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
