"""Zero-diluted Fourier state families and their overlap projectors.

For dimension d, the family holds d(d-1) unit vectors: each one places a zero
at one position and a column of the (d-1)-dimensional Fourier matrix at the
remaining positions.  The family resolves the identity with weight 1/(d-1)
for every d >= 2; for d = 3 and d = 4 it is invariant under the symmetric
group acting on positions and has a state-independent overlap multiset
(discrete isotropy).  Invariance is checked exactly at any d on the two
generators of the symmetric group, the transposition (0 1) and the cycle
(0 1 ... d-1), with no enumeration of its d! elements.  The Gram-type
matrix Pi_ij = <a_i|a_j>/(d-1) is a rank-d orthogonal projector on the
d(d-1)-dimensional space.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    CLUSTER_TOL,
    InputValidationError,
    eigenvalue_multiplicities,
    hermitian_eig,
    require_int,
)

__all__ = [
    "StateFamily",
    "OverlapProjector",
    "ExpansionCoefficients",
    "build_family",
    "resolution_check",
    "isotropy_check",
    "permutation_invariance_check",
    "overlap_power_sum",
    "expand_state",
    "build_projector",
    "torus_witness",
]


@dataclass
class StateFamily:
    """d(d-1) unit vectors in dimension d, with the (zero position, column) recipe."""
    dim: int
    states: np.ndarray            # (d*(d-1), d), rows are the states
    recipe: list                  # [(zero_position, fourier_column), ...]

    @property
    def count(self) -> int:
        return self.states.shape[0]


def build_family(d: int) -> StateFamily:
    """Construct the zero-diluted Fourier family for dimension d >= 2.

    d = 3 keeps the historical layout (columns of the 2-dim Fourier matrix,
    zero positions descending within each column block).  Every other d uses
    the block-circulant layout: block b has its zero at position (b-1) mod d
    and walks the remaining positions cyclically starting just past the zero,
    so the j-th component of state (b, k) is omega^(k * ((j - p - 1) mod d))
    with omega = exp(2 pi i / (d-1)).
    """
    d = require_int(d, "dimension", 2)
    n = d * (d - 1)
    states = np.zeros((n, d), dtype=complex)
    recipe = []
    root = 1.0 / np.sqrt(d - 1)
    if d == 3:
        signs = {0: np.array([1.0, 1.0]), 1: np.array([1.0, -1.0])}
        idx = 0
        for k in (0, 1):
            for p in (2, 1, 0):
                pos = [j for j in range(3) if j != p]
                states[idx, pos] = signs[k] * root
                recipe.append((p, k))
                idx += 1
    else:
        omega = np.exp(2j * np.pi / (d - 1))
        idx = 0
        for b in range(d):
            p = (b - 1) % d
            for k in range(d - 1):
                for j in range(d):
                    if j != p:
                        states[idx, j] = omega ** (k * ((j - p - 1) % d)) * root
                recipe.append((p, k))
                idx += 1
    return StateFamily(dim=d, states=states, recipe=recipe)


def resolution_check(family: StateFamily) -> float:
    """Frobenius residual of (1/(d-1)) sum_i |a_i><a_i| minus the identity."""
    d = family.dim
    acc = family.states.T @ family.states.conj() / (d - 1)
    return float(np.linalg.norm(acc - np.eye(d)))


def _overlap_matrix(family: StateFamily) -> np.ndarray:
    return family.states.conj() @ family.states.T


# entrywise slack of the isotropy and permutation checks
FAMILY_TOL = 1e-10


def isotropy_check(family: StateFamily):
    """True iff the sorted multiset {|<a_i|a_j>|^2}_j is the same for every i."""
    probs = np.abs(_overlap_matrix(family)) ** 2
    multisets = np.sort(probs, axis=1)
    ok = bool(np.all(np.abs(multisets - multisets[0]) <= FAMILY_TOL))
    return ok, multisets


def permutation_invariance_check(family: StateFamily):
    """Check closure of the family under all position permutations, up to phase.

    Returns (ok, mapping) where mapping[(pi, i)] = (j, phase) whenever the
    permuted state pi . a_i equals phase * a_j, and None otherwise.  Only
    the two generators of the symmetric group are tried, the transposition
    (1, 0, 2, ..., d-1) and the cycle (1, 2, ..., d-1, 0), one map at d = 2
    where they coincide, so any d works.  This decides closure under every
    permutation: a permutation matrix is invertible, so one that sends the
    family's finite set of rays into itself permutes that set; products of
    the two generators then send the set onto itself too, and they give
    every element of the group.
    """
    d = family.dim
    states = family.states
    swap = (1, 0) + tuple(range(2, d))
    cycle = tuple(range(1, d)) + (0,)
    mapping = {}
    ok = True
    for pi in dict.fromkeys([swap, cycle]):    # one map at d = 2, where they coincide
        # tau_pi acts as (tau x)_i = x_pi(i)
        permuted = states[:, list(pi)]
        overlaps = permuted @ states.conj().T      # (i, j) -> <a_j | tau a_i>
        for i in range(family.count):
            j = int(np.abs(overlaps[i]).argmax())
            phase = overlaps[i, j]
            if abs(abs(phase) - 1.0) > FAMILY_TOL or \
               np.abs(permuted[i] - phase * states[j]).max() > FAMILY_TOL:
                ok = False
                mapping[(pi, i)] = None
            else:
                mapping[(pi, i)] = (j, complex(phase))
    return ok, mapping


def overlap_power_sum(family: StateFamily, i: int, r: int) -> float:
    """sum_j |<a_i|a_j>|^r; independent of i for isotropic families."""
    i = require_int(i, "state index", 0)
    if i >= family.count:
        raise InputValidationError(f"state index {i} out of range")
    r = require_int(r, "power", 1)
    overlaps = family.states[i].conj() @ family.states.T
    return float((np.abs(overlaps) ** r).sum())


@dataclass
class ExpansionCoefficients:
    """Coefficients f_i = <a_i|f>/(d-1) of a unit vector over the family."""
    dim: int
    coefficients: np.ndarray


def expand_state(family: StateFamily, f) -> ExpansionCoefficients:
    """Expand a unit vector over the (overcomplete) family.

    The reconstruction sum_i coeff_i a_i returns f exactly because the family
    resolves the identity.
    """
    v = np.asarray(f, dtype=complex).ravel()
    if v.size != family.dim:
        raise InputValidationError(
            f"vector length {v.size} does not match dimension {family.dim}")
    with np.errstate(over="ignore"):    # a norm that overflows is inf
        norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= 1e-10:    # rejects an inf or NaN norm too
        raise InputValidationError("expand_state expects a unit vector")
    coeffs = (family.states.conj() @ v) / (family.dim - 1)
    return ExpansionCoefficients(dim=family.dim, coefficients=coeffs)


@dataclass
class OverlapProjector:
    """The d(d-1) x d(d-1) projector Pi_ij = <a_i|a_j>/(d-1), its rank and spectrum."""
    dim_big: int
    matrix: np.ndarray
    rank: int
    eigenvalues: np.ndarray   # descending, from hermitian_eig


def build_projector(family: StateFamily) -> OverlapProjector:
    """Overlap projector of the family; idempotent of rank d by construction."""
    d = family.dim
    pi = _overlap_matrix(family) / (d - 1)
    eig = hermitian_eig(pi)
    clusters = eigenvalue_multiplicities(eig.eigenvalues)
    rank = sum(count for value, count in clusters if abs(value - 1.0) <= CLUSTER_TOL)
    return OverlapProjector(dim_big=family.count, matrix=pi, rank=int(rank),
                            eigenvalues=eig.eigenvalues)


def torus_witness(d: int):
    """Best known unimodular tuple for the overlap projector's classical form.

    Returns (t, value) with |t_j| = 1 and value = sum_i |(Pi t)_i|; both facts
    are checkable by direct evaluation.

    d = 3: t = (1, e^{i pi/4}, e^{-i pi/4}, i, e^{i pi/4}, e^{-i pi/4})
    attains 3 + 2 sqrt(2) ~= 5.8284 (multistart consensus value; exact by
    hand: the three component sums have moduli 2 + sqrt(2), 2 + sqrt(2), 0).

    d = 4: t_j = <a_j|sigma> with sigma = (1, 1, omega, omega), omega a cube
    root of unity, is a unimodular eigenvector of Pi (Pi t = t), so the form
    attains d(d-1) = 12 exactly -- the upper bound d * e_max is tight here.
    """
    d = require_int(d, "dimension", 2)
    if d == 3:
        q = np.exp(1j * np.pi / 4)
        t = np.array([1.0, q, np.conj(q), 1j, q, np.conj(q)], dtype=complex)
        return t, 3.0 + 2.0 * np.sqrt(2.0)
    if d == 4:
        family = build_family(4)
        omega = np.exp(2j * np.pi / 3)
        sigma = np.array([1.0, 1.0, omega, omega])
        t = family.states.conj() @ sigma
        return t, 12.0
    raise InputValidationError(f"no closed-form torus witness stored for d = {d}")
