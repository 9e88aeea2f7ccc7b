"""Row-norm normalization of matrices.

The normalization factor of M is the largest Euclidean norm among its rows;
matrices whose factor is at most 1 form the unit set used by the trace-form
bound machinery.  All bounds here are exact matrix identities, so the checks
carry tight tolerances.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .linalg import (
    InputValidationError,
    as_matrix,
    is_normal,
    largest_singular_value,
    norm_frobenius,
    pow2_normalize,
    pow2_split,
    require_square,
)

__all__ = ["row_norms", "normalization_factor", "to_unit_s", "norm_report", "NormReport",
           "UNIT_SET_TOL"]

# Membership in the unit row-norm set is tested as N(M) <= 1 + UNIT_SET_TOL so
# boundary matrices built from exact constructions pass.
UNIT_SET_TOL = 1e-12


def row_norms(m) -> np.ndarray:
    """Euclidean norms of the rows; entry i equals sqrt((M M^dagger)_ii).

    Each row is scaled by its own exact power of two (``pow2_split``) before
    its squares are summed, and its norm is scaled back; so tiny or huge rows
    neither underflow nor overflow, a row far below the largest entry keeps
    its precision, and the norms scale exactly with the matrix.
    """
    b, e = pow2_split(as_matrix(m), axis=1)
    return np.ldexp(np.linalg.norm(b, axis=1), e[:, 0])


def normalization_factor(m) -> float:
    """max_i ||row_i(M)||.  Scales as N(zM) = |z| N(M)."""
    return float(row_norms(m).max())


def to_unit_s(m) -> np.ndarray:
    """M divided by its normalization factor; the result has factor exactly 1.

    The division runs on the ``pow2_normalize``d matrix, whose factor is at
    least 1/2, so a subnormal factor cannot overflow it.
    """
    b, _ = pow2_normalize(as_matrix(m))
    n = normalization_factor(b)
    if n == 0.0:
        raise InputValidationError("cannot normalize the zero matrix")
    return b / n


@dataclass
class NormReport:
    """Row norms, the normalization factor, and its a-priori bracket."""
    row_norms: list
    n_factor: float
    frobenius: float
    lower_bound: float       # ||M||_F / sqrt(d), the root mean square of the row norms
    upper_bound: float       # ||M||_2 = s_max >= ||M^T e_i||, the norm of row i
    is_normal: bool
    in_S_d: bool
    all_rows_equal: bool     # when true the lower bound is tight
    single_nonzero_row: bool  # when true the upper bound is tight

    def to_dict(self) -> dict:
        return asdict(self)


def norm_report(m) -> NormReport:
    """Full report for a square matrix: factor, bracket, and equality flags."""
    a = require_square(m)
    d = a.shape[0]
    rn = row_norms(a)
    n = float(rn.max())
    fro = norm_frobenius(a)
    floor = 1e-12 * n                 # relative to N, so the flags do not depend on scale
    return NormReport(
        row_norms=list(map(float, rn)),
        n_factor=n,
        frobenius=fro,
        lower_bound=float(fro / np.sqrt(d)),
        upper_bound=largest_singular_value(a),
        is_normal=is_normal(a),
        in_S_d=bool(n <= 1.0 + UNIT_SET_TOL),
        all_rows_equal=bool(np.allclose(rn, rn[0], atol=floor, rtol=0.0)),
        single_nonzero_row=bool((rn > floor).sum() == 1),
    )
