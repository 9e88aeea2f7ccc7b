"""Classical and trace-form quadratic maximization over normalized matrices.

The classical form of a d x d matrix theta is |sum_ij theta_ij s_i t_j| with
the scalars constrained to the unit polydisc; its supremum g(theta) is
bracketed by explicit witnesses from below and by the closed form
min(||theta||_1, d * s_max) from above.  With the scalars in the radius-sqrt(d)
ball instead, the supremum g'(theta) equals d * s_max exactly, so the ball set
is decided from s_max alone.  ``closed_form_bounds`` gives ||theta||_1, s_max,
g' and the closed form from one normalization and one SVD; ``g_prime``,
``g_upper`` and ``classify`` take them from the same rule, ``_closed_form``.
``classify`` closes the bracket further: its upper end is the smaller of the
closed form and the SDP dual of its own witness (``_witness_dual``, one
eigenvalue solve), which meets the witness value on most small matrices.
Replacing scalars by unit-ball vectors gives the trace form
|Tr(theta V W^dagger)|, whose supremum can exceed g(theta) but never
1.4049 * g(theta).
"""

import math
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from typing import Optional

import numpy as np

from .linalg import (
    ConvergenceError,
    InputValidationError,
    as_matrix,
    largest_singular_value,
    pow2_normalize,
    pow2_scale,
    pow2_split,
    require_int,
    require_real,
    require_square,
)
from .matrix_io import complex_pairs
from .norms import UNIT_SET_TOL

__all__ = [
    "K_G_UPPER",
    "PolydiscTuple",
    "VectorTuple",
    "OptimizerConfig",
    "OptimizerRun",
    "GClassification",
    "PhaseSystemReport",
    "eval_C",
    "eval_Q_trace",
    "closed_form_bounds",
    "g_prime",
    "g_upper",
    "g_lower",
    "max_q_lower",
    "phase_system_solvable",
    "unit_set_verdicts",
    "classify",
    "kg_region_check",
]

# Published upper bound for the complex Grothendieck constant: 1 < k_G <= 1.4049.
K_G_UPPER = 1.4049

_SMALL = np.sqrt(np.finfo(float).tiny)   # below it, squared moduli underflow
_SETTLE_GAIN = 1e-13                     # a start settles once a round gains less, on
                                         # theta scaled by pow2_normalize
_START_CACHE_SIZE = 32                   # (seed, starts, d) start sets kept by _seeded_starts


@np.errstate(over="ignore", invalid="ignore")
def _check_rows_in_ball(rows: np.ndarray, name: str):
    """Raise unless every row of a 2-D array lies in the closed unit ball, to
    ``UNIT_SET_TOL``.  A NaN norm fails the comparison; a norm that overflows
    belongs to a row outside the ball, and one that underflows to a row inside.
    An infinite entry gives an infinite norm (the NaN that inf * 0 leaves in
    its square's imaginary part is dropped), so no warning is raised."""
    worst = np.linalg.norm(rows, axis=1).max(initial=0.0)
    if not worst <= 1.0 + UNIT_SET_TOL:
        raise InputValidationError(f"{name} leaves the unit ball: max norm {worst}")


@dataclass(frozen=True)
class PolydiscTuple:
    """A d-tuple of complex scalars in the unit polydisc, checked when made
    (as the rows of a d x 1 ``VectorTuple``: the polydisc is a product of unit
    balls); it holds its own read-only copy of the values."""
    values: np.ndarray

    def __post_init__(self):
        values = np.ravel(self.values).astype(complex)   # a copy that owns its data
        _check_rows_in_ball(values[:, None], "unit-disc tuple")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def to_list(self):
        return complex_pairs(self.values)


@dataclass(frozen=True)
class VectorTuple:
    """Vectors in the unit ball, one per row of a 2-D array, checked when made;
    it holds its own read-only copy of the array."""
    vectors: np.ndarray

    def __post_init__(self):
        vectors = np.array(self.vectors, dtype=complex)
        if vectors.ndim != 2:
            raise InputValidationError(
                f"expected one vector per row, got shape {vectors.shape}")
        _check_rows_in_ball(vectors, "vector tuple")
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)

    def to_list(self):
        """JSON form, named as ``PolydiscTuple.to_list`` so that a witness
        pair of either kind serializes the same way."""
        return complex_pairs(self.vectors)


def _form_value(a, v, w) -> float:
    """|vdot(w, a v)| = |Tr(a v w^H)|, formed on a / 2^k (``pow2_normalize``)
    and scaled back once, so that neither a product nor the sum underflows or
    overflows on the way: the one evaluation behind ``eval_C`` and
    ``eval_Q_trace``."""
    b, k = pow2_normalize(a)
    return float(pow2_scale(abs(np.vdot(w, b @ v)), k))


def eval_C(theta, s: PolydiscTuple, t: PolydiscTuple) -> float:
    """Classical form |sum_ij theta_ij s_i t_j|: the trace form with vectors of
    dimension 1, x = conj(s) and y = t, as in ``_alternate``."""
    a = as_matrix(theta)
    if s.values.size != a.shape[0] or t.values.size != a.shape[1]:
        raise InputValidationError(
            f"tuple lengths {s.values.size}, {t.values.size} do not match "
            f"matrix shape {a.shape}")
    return _form_value(a, t.values[:, None], s.values.conj()[:, None])


def eval_Q_trace(theta, v, w) -> float:
    """Trace form |Tr(theta V W^dagger)| for three d x d matrices, the rows
    of V and W in the unit ball (checked as ``VectorTuple`` checks its rows)."""
    a = require_square(theta)
    vm = require_square(v)
    wm = require_square(w)
    if not (a.shape == vm.shape == wm.shape):
        raise InputValidationError(
            f"dimension mismatch: {a.shape}, {vm.shape}, {wm.shape}")
    _check_rows_in_ball(vm, "a row of V")
    _check_rows_in_ball(wm, "a row of W")
    return _form_value(a, vm, wm)


def _closed_form(b):
    """(||b||_1, s_max(b), g'(b) = d s_max(b), min(||b||_1, g'(b))) for a
    ``pow2_normalize``d b: the one statement of the closed-form upper bound."""
    l1 = np.abs(b).sum()
    s_max = largest_singular_value(b)
    gp = b.shape[0] * s_max
    return l1, s_max, gp, min(l1, gp)


# LAPACK's bound on a computed eigenvalue of an n x n Hermitian A is
# |lambda_hat - lambda| <= p(n) eps ||A||_2 (LAPACK Users' Guide, section 4.7);
# taken with p(n) = 2n and ||A||_F >= ||A||_2, this is p(n) eps / n
_EIG_ERROR_PER_N = 2 * np.finfo(float).eps


def _witness_dual(b, s, t) -> float:
    """Certified upper bound on g(b) from the dual of the witness values (s, t),
    for a ``pow2_normalize``d b.

    With n = 2d and H = 1/2 [[0, b], [b^H, 0]], g(b) <= Q_sup(b) = max Tr(HX)
    over X psd with diag X = 1, and on that set, for every real y,
    Tr(HX) = Tr((H - Diag y) X) + sum(y) <= n max(lambda_max(H - Diag y), 0) + sum(y).
    So the bound holds whatever y is: it does not rest on the witness being
    optimal.  The witness picks y = 1/2 [|b t|; |b^T s|], complementary to the
    rank-one X = z z^H with z = [conj(s); t] (the pairing x = conj(s)), so the
    bound meets the witness value where that X solves the SDP.  The largest
    eigenvalue, from one ``eigvalsh`` of H - Diag y, is raised by LAPACK's
    error bound n * _EIG_ERROR_PER_N * ||H - Diag y||_F, and the sum is
    rounded upward.
    """
    d = b.shape[0]
    n = 2 * d
    y = 0.5 * np.concatenate([np.abs(b @ t), np.abs(b.T @ s)])
    # eigvalsh reads the lower triangle only; halving b is exact but for a
    # subnormal entry, whose error is far below the slack
    a = np.zeros((n, n), dtype=complex)
    a[d:, :d] = 0.5 * b.conj().T
    a.flat[::n + 1] = -y
    try:
        lam = max(np.linalg.eigvalsh(a, UPLO="L")[-1], 0.0)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigvalsh did not converge: {exc}") from exc
    # ||H - Diag y||_F; b's entries are below 1, so no square overflows
    frobenius = math.sqrt(0.5 * np.vdot(b, b).real + np.dot(y, y))
    slack = n * n * _EIG_ERROR_PER_N * frobenius
    # n copies of lam, so that fsum rounds n * lam with the rest, once
    total = math.fsum([*y.tolist(), *[float(lam)] * n, slack])
    return float(np.nextafter(total, np.inf))


def closed_form_bounds(theta) -> dict:
    """The closed-form bracket of theta: ``l1_norm`` ||theta||_1, ``s_max``,
    the exact ball supremum ``g_prime`` = d s_max, and the certified upper
    bound ``g_upper`` = min(||theta||_1, d s_max) of the polydisc supremum.
    All four are formed on theta / 2^k and scaled back together, so g'
    rounds once."""
    b, k = pow2_normalize(require_square(theta))
    values = pow2_scale(list(_closed_form(b)), k).tolist()
    return dict(zip(("l1_norm", "s_max", "g_prime", "g_upper"), values))


def g_prime(theta) -> float:
    """Exact ball supremum d s_max, as ``closed_form_bounds`` gives it."""
    return closed_form_bounds(theta)["g_prime"]


def g_upper(theta) -> float:
    """Certified upper bound min(||theta||_1, d s_max), as ``closed_form_bounds``
    gives it."""
    return closed_form_bounds(theta)["g_upper"]


@dataclass(frozen=True)
class OptimizerConfig:
    """Multistart configuration shared by the polydisc and vector optimizers:
    the settings a caller chooses (when a start settles is the module's
    ``_SETTLE_GAIN``, not a setting); frozen, because every run it makes
    holds it."""
    starts: int = 64
    seed: int = 0
    max_iterations: int = 200       # alternation cap (g_lower: d times this many rounds)

    def __post_init__(self):
        # stored as plain int, so that a run's to_dict() is JSON
        for name, minimum in (("starts", 1), ("seed", 0), ("max_iterations", 1)):
            object.__setattr__(self, name, require_int(getattr(self, name), name, minimum))


@dataclass(frozen=True)
class OptimizerRun:
    """Result of a multistart maximization, reproducible bit-for-bit from its config.

    Both optimizers run all their starts as one complex block of
    ``_alternate``, the starts on its axis 2: ``g_lower`` a (2, d, 2 * starts)
    block of phases, ``max_q_lower`` a (2, d, starts + 1, d) block of vectors,
    each on the last axis.  A start settles once a round changes its
    value by less than ``_SETTLE_GAIN``.  ``per_start_values`` and
    ``iterations_used``, in start order: each start's value, and its rounds
    until it settled or the round cap cut it; no start settles in its first
    round, so with ``max_iterations`` >= 2 each reports at least 2.
    ``converged_fraction``: share of starts that settled before the cap.  For
    ``g_lower`` a start is its two columns: its value is the better of
    theirs, it has used the most rounds of either, and it has settled when
    both have.  ``stop_reason``: "tolerance" (every start settled), "budget"
    (the cap cut at least one) or "zero_matrix".  ``best_value``: the
    largest of ``per_start_values``, read from the block, unless the
    phase-split witness of ``g_lower`` beats every start.  ``best_witness``:
    the pair (s, t) that attains it, two ``PolydiscTuple``s from
    ``g_lower`` and two ``VectorTuple``s from ``max_q_lower``, each checked
    to lie in its set when it was made; for the zero matrix, all-ones
    tuples from ``g_lower`` and all-zero rows from ``max_q_lower``.
    """
    config: OptimizerConfig
    best_value: float
    best_witness: tuple
    converged_fraction: float
    per_start_values: list
    iterations_used: list
    stop_reason: str

    def to_dict(self) -> dict:
        s, t = self.best_witness
        return {
            **asdict(self.config),
            "best_value": self.best_value,
            "converged_fraction": self.converged_fraction,
            "iterations_used": self.iterations_used,
            "stop_reason": self.stop_reason,
            "witness": {"s": s.to_list(), "t": t.to_list()},
        }


@lru_cache(maxsize=_START_CACHE_SIZE)
def _seeded_starts(seed: int, starts: int, d: int) -> tuple:
    """The seeded starts in dimension d, drawn once per (seed, starts, d):
    ``g_lower``'s start phases, a (starts, d) array, and ``max_q_lower``'s
    start vectors, a (2, d, starts, d) block with x = r[0] + i r[1] and
    y = r[2] + i r[3] of start s at ``[:, :, s]``, r its standard normal
    (4, d, d) draw.  Both arrays are shared and read-only."""
    # one generator per start, so start s is the same whatever the number of
    # starts; both draws open its stream, as a fresh default_rng(seed ^ s) does
    angles, r = np.empty((starts, d)), np.empty((4, d, starts, d))
    for s in range(starts):
        rng = np.random.default_rng(seed ^ s)
        state = rng.bit_generator.state
        angles[s] = rng.uniform(-np.pi, np.pi, d)
        rng.bit_generator.state = state
        r[:, :, s] = rng.standard_normal((4, d, d))
    phases = np.exp(1j * angles)
    vectors = r[0::2] + 1j * r[1::2]
    phases.flags.writeable = vectors.flags.writeable = False
    return phases, vectors


def _zero_matrix_run(cfg: OptimizerConfig, n: int, witness: tuple) -> OptimizerRun:
    return OptimizerRun(cfg, 0.0, witness, 1.0, [0.0] * n, [0] * n, "zero_matrix")


def _finish(cfg, n, best_b, witness, k, q, used, cut) -> OptimizerRun:
    """The run of an ``_alternate`` block on b = theta / 2^k: column c of the
    block belongs to start c % n, the values are scaled back by 2^k, and a
    start counts as cut when the cap cut any of its columns."""
    c = len(set((cut % n).tolist()))
    return OptimizerRun(
        config=cfg,
        best_value=float(pow2_scale(best_b, k)),
        best_witness=witness,
        converged_fraction=(n - c) / n,
        per_start_values=pow2_scale(q.reshape(-1, n).max(axis=0), k).tolist(),
        iterations_used=used.reshape(-1, n).max(axis=0).tolist(),
        stop_reason="budget" if cut.size else "tolerance",
    )


def _unit_vectors(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the complex vectors on the last axis of ``z`` over their norms
    into ``out``, which keeps its value where a vector is 0, and return the
    norms.  Both arrays need a contiguous last axis: the norms are
    ``np.vecdot`` on their real views."""
    zr = z.view(float)
    norms = np.sqrt(np.vecdot(zr, zr))
    if np.minimum.reduce(norms.ravel()) >= _SMALL:
        np.divide(zr, norms[..., None], out=out.view(float))
        return norms
    # the squares underflow: scale each vector by an exact power of two first
    nonzero = np.any(z, axis=-1)
    w, e = pow2_split(z[nonzero], axis=-1)
    wr = w.view(float)
    w_norms = np.sqrt(np.vecdot(wr, wr))
    out[nonzero] = w / w_norms[:, None]
    norms[nonzero] = pow2_scale(w_norms, e[:, 0])
    return norms


def _alternate(b, xy, cap, threshold):
    """Alternate y <- unit(b^H x), x <- unit(b y) on a complex block of
    starts, the starts on its axis 2, so each step's inner loop runs over them.

    ``xy[0]`` holds x and ``xy[1]`` holds y, and the block's rank picks the
    unit step.  A (2, d, m) block holds scalars: ``xy[0][i, s]`` is x_i of
    start s and unit() takes the phase.  A (2, d, m, k) block holds
    k-vectors: ``xy[0][i, s]`` is the vector x_i of start s and unit()
    divides by its Euclidean norm.  ``b`` is the ``pow2_normalize``d matrix
    either way, and a half-step is one matrix product of ``b`` (or its
    adjoint) with the whole block.  The block is all a caller hands in: a
    start's first round only fills in its value, so no start settles before
    its second.  A round sets q = sum_i ||(b y)_i||, which never decreases.
    A start leaves the block once a round changes its value by less than
    ``threshold``; all stop after ``cap`` rounds.  Returns the vectors, the
    values, the rounds per start and the indices of the starts the cap cut
    off.

    Rounds write into work arrays made once per block width: the product,
    its norms, the next value and the gain.  The block narrows only in a
    round where a start settles, never for speed alone: zgemm can round a
    column's product differently at another block width.  Where a norm is
    below ``_SMALL``, the half-step goes through ``_unit_vectors`` instead,
    which scales first; scalars pass as vectors of dimension 1.

    Each round's two underflow tests and its settle test read the one element
    that ``argmin`` finds in the norms or the gains, which is cheaper than a
    ufunc reduction on arrays this small.  ``argmin`` returns the first NaN,
    so a NaN norm still takes the careful unit step and a NaN gain never
    settles; it raises on an empty array, but the block is never empty
    inside the loop.
    """
    vectors = xy.ndim == 4
    xy = np.ascontiguousarray(xy)                    # so that the views below are views
    d, m = b.shape[0], xy.shape[2]
    b_h = b.conj().T
    out, q_out, used = np.empty_like(xy), np.empty(m), np.zeros(m, dtype=int)
    q = np.full(m, -np.inf)                          # no start settles in its first round
    live = np.arange(m)                              # starts still in the block
    rounds = 0
    while live.size and rounds < cap:
        # work arrays and views for the block's current width
        x, y = xy[0], xy[1]
        width = live.size
        z = np.empty((d, x[0].size), dtype=complex)
        q_next, gain = np.empty(width), np.empty(width)
        if vectors:
            norms = np.empty((d, width))
            zr = z.view(float).reshape(d, width, -1)    # [Re, Im] of each vector
            num, den = zr, norms[..., None]
            steps = ((b_h, x.reshape(d, -1), y, y.view(float)),
                     (b, y.reshape(d, -1), x, x.view(float)))
        else:
            # the moduli are the real parts of a complex array, so that the
            # complex divide z / (|z| + 0i) runs without casting them; the
            # careful step takes the scalars as vectors of dimension 1
            den = np.zeros((d, width), dtype=complex)
            num, norms = z, den.real
            steps = ((b_h, x, y[..., None], y), (b, y, x[..., None], x))
        flat = norms.reshape(-1)                     # a view, strided for scalars
        while rounds < cap:
            rounds += 1
            for a, src, dst, dst_num in steps:
                np.dot(a, src, out=z)
                if vectors:
                    np.vecdot(zr, zr, out=norms)
                    np.sqrt(norms, out=norms)
                else:
                    np.abs(z, out=norms)
                if flat[flat.argmin()] >= _SMALL:
                    np.divide(num, den, out=dst_num)
                else:
                    norms[...] = _unit_vectors(z.reshape(dst.shape), dst)
            np.add.reduce(norms, axis=0, out=q_next)
            np.subtract(q_next, q, out=gain)
            q, q_next = q_next, q
            if gain[gain.argmin()] < threshold:     # needed for any |gain| < threshold
                # write the block back by index, then drop the settled starts
                out[:, :, live], q_out[live], used[live] = xy, q, rounds
                keep = np.abs(gain) >= threshold
                xy, q, live = xy.compress(keep, axis=2), q[keep], live[keep]
                break
    out[:, :, live], q_out[live], used[live] = xy, q, rounds
    return out, q_out, used, live


def g_lower(theta, config: Optional[OptimizerConfig] = None) -> OptimizerRun:
    """Lower-bound the polydisc supremum g(theta) by explicit torus witnesses.

    For fixed t the optimal s is s_i = conj phase((theta t)_i), and for fixed
    s the optimal t is t_j = conj phase((theta^T s)_j): ``_alternate`` with
    vectors of dimension 1, x = conj(s) and y = t, which never decreases
    F(t) = sum_i |(theta t)_i|.  Each seeded start runs as two columns of
    a complex (2, d, 2 * starts) block (its phases and their conjugates, each
    taken as s) on theta scaled by ``pow2_normalize``; a column stops once a
    round changes F by less than ``_SETTLE_GAIN``, or after
    d * ``max_iterations`` rounds.  The best column's last half-step gives
    the result as it stands: x = unit(theta y) and F = sum_i |(theta y)_i|,
    so the witness is s = conj(x), t = y and the value is F.  When the
    phases of theta split as chi_i + psi_j (``phase_system_solvable``),
    s = exp(-i chi), t = exp(-i psi) attains ||theta||_1 (s_i makes
    s_i (theta t)_i real and positive; an isolated row has chi_i = 0) and
    is the witness when it sums higher than every column.  The result is a
    deterministic function of (matrix, config).
    """
    cfg = config or OptimizerConfig()
    a = require_square(theta)
    d = a.shape[0]
    n = cfg.starts
    if not np.any(a):
        ones = PolydiscTuple(np.ones(d))
        return _zero_matrix_run(cfg, n, (ones, ones))

    b, k = pow2_normalize(a)
    seeded = _seeded_starts(cfg.seed, cfg.starts, d)[0].T
    # columns 0..n-1 take the phases as s, n..2n-1 their conjugates; y keeps
    # its start where a column of theta is zero
    xy = np.ones((2, d, 2 * n), dtype=complex)
    xy[0] = np.hstack([seeded.conj(), seeded])
    xy, q, used, cut = _alternate(b, xy, d * cfg.max_iterations, _SETTLE_GAIN)

    best = int(q.argmax())                           # deterministic tie-break on column index
    value, s_best, t_best = q[best], xy[0, :, best].conj(), xy[1, :, best]
    split = phase_system_solvable(b)
    if split.solvable:
        # the forest phases attain ||theta||_1; weakly coupled rows converge slowly
        t_split = np.exp(-1j * np.asarray(split.psi))
        split_value = np.abs(b @ t_split).sum()
        if split_value > value:
            value, s_best, t_best = split_value, np.exp(-1j * np.asarray(split.chi)), t_split
    witness = (PolydiscTuple(s_best), PolydiscTuple(t_best))
    return _finish(cfg, n, value, witness, k, q, used, cut)


def max_q_lower(theta, config: Optional[OptimizerConfig] = None) -> OptimizerRun:
    """Lower-bound the vector-form supremum by alternating witness improvement.

    With the x-vectors fixed, each optimal y_j is the normalized vector
    sum_i conj(theta_ij) x_i, and symmetrically: ``_alternate`` with vectors
    of dimension d.  One extra start embeds the scalar witness of ``g_lower``
    (same config) as parallel vectors, so the result never falls below that
    scalar bound.  All starts run as one complex (2, d, starts + 1, d) block
    on theta scaled as in ``g_lower``, for at most ``max_iterations`` rounds:
    ``xy[0][i, s]`` is the vector x_i of start s, and each seeded start takes
    x = r[0] + i r[1] and y = r[2] + i r[3] from its standard normal draw r.
    The block is all it hands the kernel, so even start 0, already settled
    by ``g_lower``, takes two rounds to settle.
    """
    cfg = config or OptimizerConfig()
    a = require_square(theta)
    d = a.shape[0]
    n = cfg.starts + 1
    if not np.any(a):
        zero = VectorTuple(np.zeros((d, d), dtype=complex))
        return _zero_matrix_run(cfg, n, (zero, zero))

    b, k = pow2_normalize(a)
    s_w, t_w = g_lower(b, cfg).best_witness
    xy = np.zeros((2, d, n, d), dtype=complex)
    xy[:, :, 0, 0] = s_w.values.conj(), t_w.values   # start 0: g_lower's witness
    xy[:, :, 1:] = _seeded_starts(cfg.seed, cfg.starts, d)[1]
    _unit_vectors(xy[:, :, 1:], xy[:, :, 1:])
    xy, q, used, cut = _alternate(b, xy, cfg.max_iterations, _SETTLE_GAIN)

    best = int(q.argmax())
    # every row of the block is a unit vector: _unit_vectors keeps a row's
    # previous unit value where its new direction is 0
    witness = (VectorTuple(xy[0, :, best]), VectorTuple(xy[1, :, best]))
    return _finish(cfg, n, q[best], witness, k, q, used, cut)


@dataclass
class PhaseSystemReport:
    """Verdict and witness for phi_ij = chi_i + psi_j (mod 2 pi) on the support.

    ``rank_coefficient``: rank of the 0/1 coefficient matrix, the non-isolated
    vertices minus the components of the support graph; ``rank_augmented`` is
    one more when unsolvable.  ``chi``/``psi``: spanning-forest values, set when
    solvable.  ``used_shift_enumeration``: solvable only because a nonzero
    multiple of 2 pi closes some cycle (the principal arguments are inconsistent).
    """
    solvable: bool
    n_equations: int
    rank_coefficient: int
    rank_augmented: int
    chi: Optional[list] = None
    psi: Optional[list] = None
    used_shift_enumeration: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


PHASE_TOL = 1e-9


def phase_system_solvable(theta) -> PhaseSystemReport:
    """Decide phi_ij = chi_i + psi_j (mod 2 pi) over the nonzero entries, in O(d + nnz).

    On the support graph (vertices: rows i and columns d + j; edges: nonzero
    entries) a BFS spanning forest sets each root to 0 and each child to
    arg theta_ij - value(parent), with principal arguments in [-pi, pi] (an
    entry with negative real part and imaginary part -0.0 has argument -pi).
    The system is solvable iff every edge then closes modulo 2 pi within
    ``PHASE_TOL`` radians; then g(theta) = ||theta||_1, with the forest values
    as witness.  NumPy reads the support once (one ``np.nonzero``, then one
    ``np.angle``, i.e. ``arctan2(imag, real)``, of the nonzero entries).

    On a dense support (no zero entry) the BFS from row 0 visits the star of
    row 0 and then the star of column 0, so it sets psi_j = arg theta_0j and
    chi_i = arg theta_i0 - arg theta_00, with chi_0 = 0; NumPy evaluates
    these same float expressions, then checks every edge's gap in one pass
    (``np.rint`` rounds half to even, as ``round`` does), so the report is
    bit-identical to the BFS's.  Any other support runs O(d + nnz)
    Python on scalars: the BFS stops once every non-isolated vertex has a
    value, and the edge check stops at the first edge that does not close.
    """
    a = require_square(theta)
    d = a.shape[0]
    rows, cols = np.nonzero(a)
    phases = np.angle(a[rows, cols])
    two_pi = 2.0 * np.pi
    if len(phases) == d * d:
        p = phases.reshape(d, d)
        chi = p[:, 0] - p[0, 0]
        chi[0] = 0.0
        gap = (chi[:, None] + p[0]) - p
        turns = np.rint(gap / two_pi)
        rank = 2 * d - 1
        if np.abs(gap - two_pi * turns).max() > PHASE_TOL:
            return PhaseSystemReport(False, d * d, rank, rank + 1)
        # a gap of no whole turn is its own remainder, so only a turn makes
        # some |gap| exceed PHASE_TOL here
        return PhaseSystemReport(True, d * d, rank, rank, chi=chi.tolist(), psi=p[0].tolist(),
                                 used_shift_enumeration=bool(turns.any()))

    edges = list(zip(rows.tolist(), (cols + d).tolist(), phases.tolist()))
    adj = [[] for _ in range(2 * d)]
    for i, j, p in edges:
        adj[i].append((j, p))
        adj[j].append((i, p))

    value = [None] * (2 * d)
    vertices = left = sum(map(bool, adj))   # non-isolated; left: those without a value
    components = 0
    for root in range(2 * d):
        if not left:
            break
        if value[root] is not None or not adj[root]:
            continue
        components += 1
        value[root] = 0.0
        left -= 1
        queue = [root]
        for u in queue:               # the queue grows while it is walked
            if not left:
                break
            x = value[u]
            for v, p in adj[u]:
                if value[v] is None:
                    value[v] = p - x
                    left -= 1
                    queue.append(v)

    rank = vertices - components
    shifted = False
    for i, j, p in edges:
        gap = (value[i] + value[j]) - p
        if abs(gap - two_pi * round(gap / two_pi)) > PHASE_TOL:
            return PhaseSystemReport(False, len(edges), rank, rank + 1)
        shifted = shifted or abs(gap) > PHASE_TOL
    forest = [0.0 if x is None else x for x in value]
    return PhaseSystemReport(True, len(edges), rank, rank, chi=forest[:d], psi=forest[d:],
                             used_shift_enumeration=shifted)


@dataclass(frozen=True)
class GClassification:
    """Bounds and certified membership verdicts for a matrix under the unit forms."""
    g_lower: float
    g_upper: float
    upper_source: str                # "l1" | "ball" | "dual": the bound that gave g_upper
    g_prime: float
    in_G_prime: bool                 # g' <= 1 + G_PRIME_TOL: a tolerance, not a certificate
    in_G: str                        # "certified_yes" | "certified_no" | "unknown"
    l1_norm: float
    necessary_condition_GRO10: bool
    necessary_for_G_prime: dict
    witnesses: tuple                 # (s, t): the PolydiscTuple witness of g_lower
    scaling: dict

    def to_dict(self) -> dict:
        """Every field in declaration order, with the witness pair last as "witness"."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "witnesses"}
        s, t = self.witnesses
        return {**out, "witness": {"s": s.to_list(), "t": t.to_list()}}


G_PRIME_TOL = 1e-10
CERTIFIED_NO_MARGIN = 1e-9


def unit_set_verdicts(lower: float, upper: float, g_prime: float):
    """(in_G_prime, in_G) of theta from its exact ball supremum g' and a certified
    bracket [lower, upper] of g: in_G_prime is g' <= 1 + G_PRIME_TOL; an upper
    bound at most 1 certifies membership in G, a witness value above
    1 + CERTIFIED_NO_MARGIN certifies exclusion, anything else is unknown.
    """
    in_g_prime = bool(g_prime <= 1.0 + G_PRIME_TOL)
    if upper <= 1.0:
        return in_g_prime, "certified_yes"
    if lower > 1.0 + CERTIFIED_NO_MARGIN:
        return in_g_prime, "certified_no"
    return in_g_prime, "unknown"


def classify(theta, config: Optional[OptimizerConfig] = None) -> GClassification:
    """Bracket g(theta), decide membership in the unit-form sets.

    The lower end is the ``g_lower`` witness value; the upper end is the
    smaller of the closed form min(||theta||_1, d s_max) and the dual bound
    of that witness (``_witness_dual``), and ``upper_source`` names the one
    that gave it: "l1", "ball" or "dual" (the dual only when strictly
    smaller).  Membership in the ball set is exact (g' = d s_max is
    computable); the polydisc set is certified only when a bound crosses 1:
    upper bound at most 1 certifies membership, a witness above 1 certifies
    exclusion, anything else is reported unknown together with the bracket.
    ``scaling`` holds 1/g', 1/g_lower and 1/g_upper, each rounded to
    nearest: ``lambda_max_certified_in_G`` is an estimate of the largest
    scale the upper bound certifies, not a certificate itself (lambda * g
    can pass 1 by rounding; see the provable-verdicts item of ROADMAP.md).
    """
    a = require_square(theta)
    d = a.shape[0]
    # bound b = theta / 2^k and scale back once: theta's bounds are 2^k times
    # b's (inf past the float range), its scales 2^-k times b's
    b, k = pow2_normalize(a)
    run = g_lower(b, config)
    l1_b, _, gp_b, upper_b = _closed_form(b)
    upper_source = "l1" if l1_b <= gp_b else "ball"
    s, t = run.best_witness
    dual_b = _witness_dual(b, s.values, t.values)
    if dual_b < upper_b:
        upper_b, upper_source = dual_b, "dual"
    # the witness value is summed in round-to-nearest and can pass the
    # certified bound by an ulp; scaling back is monotone, so one cap on b
    # keeps lower <= upper
    lower_b = min(run.best_value, upper_b)
    lower, upper, gp, l1, fro, entry_max = pow2_scale(
        [lower_b, upper_b, gp_b, l1_b, np.linalg.norm(b), np.abs(b).max()], k).tolist()
    in_g_prime, in_g = unit_set_verdicts(lower, upper, gp)

    bound = 1.0 + G_PRIME_TOL          # each check follows from d s_max <= bound
    necessary = {
        "entry_max_le_inv_d": bool(d * entry_max <= bound),
        "l1_le_d": bool(l1 <= d * bound),
        "frobenius_le_1": bool(fro <= bound),
    }
    gro10 = bool(in_g != "certified_no" and l1 > 1.0)

    scaling = {}
    if gp_b > 0:
        scaling["lambda_max_in_G_prime"] = 1.0 / gp_b
    if lower_b > 0:
        # scales above this are certified outside the polydisc set by the witness
        scaling["lambda_certified_outside_G_beyond"] = 1.0 / lower_b
    if upper_b > 0:
        scaling["lambda_max_certified_in_G"] = 1.0 / upper_b
    scaling = dict(zip(scaling, pow2_scale(list(scaling.values()), -k).tolist()))

    return GClassification(
        g_lower=lower,
        g_upper=upper,
        upper_source=upper_source,
        g_prime=gp,
        in_G_prime=in_g_prime,
        in_G=in_g,
        l1_norm=l1,
        necessary_condition_GRO10=gro10,
        necessary_for_G_prime=necessary,
        witnesses=run.best_witness,
        scaling=scaling,
    )


REGION_TOL = 1e-9


def kg_region_check(q: float) -> str:
    """Place a trace-form value: [0,1] classical, (1, 1.4049] the bound window."""
    q = require_real(q, "q")
    if q < 0:
        raise InputValidationError(f"q must be a finite non-negative real, got {q}")
    if q <= 1.0 + REGION_TOL:
        return "classical"
    if q <= K_G_UPPER + REGION_TOL:
        return "grothendieck"
    return "exceeds"
