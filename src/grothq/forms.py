"""Classical and trace-form quadratic maximization over normalized matrices.

The classical form of a d x d matrix theta is |sum_ij theta_ij s_i t_j| with
the scalars constrained to the unit polydisc; its supremum g(theta) is
bracketed by explicit witnesses from below and by min(||theta||_1, d * s_max)
from above.  With the scalars in the radius-sqrt(d) ball instead, the
supremum g'(theta) equals d * s_max exactly, so the ball set is decided from
s_max alone.  Replacing scalars by unit-ball vectors gives the trace form
|Tr(theta V W^dagger)|, whose supremum can exceed g(theta) but never
1.4049 * g(theta).
"""

from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from typing import Optional

import numpy as np

from .linalg import (
    InputValidationError,
    as_matrix,
    largest_singular_value,
    norm_entrywise_l1,
    pow2_normalize,
    pow2_scale,
    pow2_split,
    require_square,
)
from .matrix_io import complex_pairs
from .norms import row_norms

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
_PHASE_CACHE_SIZE = 32                   # (seed, starts, d) start sets kept by _seeded_phases
TUPLE_TOL = 1e-12                        # rounding slack of the tuple constraints


@dataclass
class PolydiscTuple:
    """A d-tuple of complex scalars in the unit polydisc."""
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).ravel()
        if not np.all(np.isfinite(self.values.real) & np.isfinite(self.values.imag)):
            raise InputValidationError("tuple contains non-finite values")

    def validate(self):
        worst = float(np.abs(self.values).max(initial=0.0))
        if worst > 1.0 + TUPLE_TOL:
            raise InputValidationError(f"unit-disc tuple has modulus {worst} > 1")
        return self

    def to_list(self):
        return complex_pairs(self.values)


@dataclass
class VectorTuple:
    """d unit-ball vectors stored as scale * unit-vector rows."""
    unit_vectors: np.ndarray   # (d, d), rows of unit (or zero) norm
    scales: np.ndarray         # (d,), each in [0, 1]

    def validate(self):
        norms = np.linalg.norm(self.scaled(), axis=1)
        if norms.max(initial=0.0) > 1.0 + TUPLE_TOL:
            raise InputValidationError(
                f"vector tuple leaves the unit ball: max norm {norms.max()}")
        return self

    def scaled(self) -> np.ndarray:
        return self.scales[:, None] * self.unit_vectors

    def to_list(self):
        """JSON form, named as ``PolydiscTuple.to_list`` so that a witness
        pair of either kind serializes the same way."""
        return {"scales": [float(x) for x in self.scales],
                "unit_vectors": complex_pairs(self.unit_vectors)}


def eval_C(theta, s: PolydiscTuple, t: PolydiscTuple) -> float:
    """Classical form |sum_ij theta_ij s_i t_j|; both tuples are re-validated."""
    a = as_matrix(theta)
    if s.values.size != a.shape[0] or t.values.size != a.shape[1]:
        raise InputValidationError(
            f"tuple lengths {s.values.size}, {t.values.size} do not match "
            f"matrix shape {a.shape}")
    s.validate()
    t.validate()
    return float(abs(np.dot(s.values, a @ t.values)))


def eval_Q_trace(theta, v, w) -> float:
    """Trace form |Tr(theta V W^dagger)| for three d x d matrices, the rows
    of V and W in the unit ball (to ``TUPLE_TOL``, as ``VectorTuple``)."""
    a = require_square(theta)
    vm = require_square(v)
    wm = require_square(w)
    if not (a.shape == vm.shape == wm.shape):
        raise InputValidationError(
            f"dimension mismatch: {a.shape}, {vm.shape}, {wm.shape}")
    worst = max(row_norms(vm).max(), row_norms(wm).max())
    if worst > 1.0 + TUPLE_TOL:
        raise InputValidationError(f"a row of V or W leaves the unit ball: max norm {worst}")
    return float(abs(np.trace(a @ vm @ wm.conj().T)))


def g_prime(theta) -> float:
    """Exact ball supremum: d times the largest singular value, formed on
    theta / 2^k and scaled back, so it rounds once."""
    b, k = pow2_normalize(require_square(theta))
    return float(pow2_scale(b.shape[0] * largest_singular_value(b), k))


def g_upper(theta) -> float:
    """Certified upper bound for the polydisc supremum: min(||theta||_1, d s_max)."""
    a = require_square(theta)
    return min(norm_entrywise_l1(a), g_prime(a))


@dataclass(frozen=True)
class OptimizerConfig:
    """Multistart configuration shared by the polydisc and vector optimizers;
    frozen, because every run it makes holds it."""
    starts: int = 64
    seed: int = 0
    max_iterations: int = 200       # alternation cap (g_lower: d times this many rounds)
    phase_tolerance: float = 1e-10  # a start settles once a round changes its value by less
                                    # than 1e-3 times this, on theta scaled by pow2_normalize

    def __post_init__(self):
        if self.starts < 1:
            raise InputValidationError("starts must be >= 1")
        if self.seed < 0:
            raise InputValidationError("seed must be a non-negative integer")
        if self.max_iterations < 1:
            raise InputValidationError("max_iterations must be >= 1")
        if self.phase_tolerance <= 0:
            raise InputValidationError("phase_tolerance must be positive")


@dataclass
class OptimizerRun:
    """Result of a multistart maximization, reproducible bit-for-bit from its config.

    Both optimizers run all their starts as one block of ``_alternate``, the
    starts on its last axis: ``g_lower`` a complex (2, d, 4 * starts) block
    of phases, ``max_q_lower`` a real (2, 2, d, d, starts + 1) block of
    vectors held as [Re; Im] rows.  A start settles once a round changes its
    value by less than 1e-3 * phase_tolerance.  ``per_start_values`` and
    ``iterations_used``, in start order: each start's value, and its rounds
    until it settled or the round cap cut it.  ``converged_fraction``: share
    of starts that settled before the cap.  For ``g_lower`` a start is its
    four rows: its value is the best of theirs, it has used the most rounds
    of any of them, and it has settled when all four have.  ``stop_reason``:
    "tolerance" (every start settled), "budget" (the cap cut at least one)
    or "zero_matrix".
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


@lru_cache(maxsize=_PHASE_CACHE_SIZE)
def _seeded_phases(seed: int, starts: int, d: int) -> np.ndarray:
    """The seeded start phases in dimension d: a shared, read-only (starts, d)
    array, drawn once per (seed, starts, d)."""
    # one generator per start, so start s is the same whatever the number of starts
    angles = [np.random.default_rng(seed ^ s).uniform(-np.pi, np.pi, d)
              for s in range(starts)]
    phases = np.exp(1j * np.array(angles))
    phases.flags.writeable = False
    return phases


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


def _unit_scalars(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the phases z / |z| of a complex array into ``out``, which keeps
    its value where z = 0, and return the moduli |z|."""
    norms = np.abs(z)
    if np.minimum.reduce(norms.ravel()) >= _SMALL:
        np.divide(z, norms, out=out)
        return norms
    # complex division by a subnormal overflows: scale each entry by an
    # exact power of two first
    nonzero = z != 0
    w, e = pow2_split(z[nonzero], axis=())
    w_norms = np.sqrt((w.conj() * w).real)
    out[nonzero] = w / w_norms
    norms[nonzero] = pow2_scale(w_norms, e)
    return norms


def _unit_vectors(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Normalize complex vectors held in real form: ``z[:, i, :, s]`` is vector i
    of start s as [Re; Im] rows.  Write each vector over its norm into ``out``,
    which keeps its value where the vector is 0, and return the (n, m) norms."""
    norms = np.sqrt(np.einsum("rics,rics->is", z, z))
    if np.minimum.reduce(norms.ravel()) >= _SMALL:
        np.divide(z, norms[:, None], out=out)
        return norms
    # the squares underflow: scale each vector by an exact power of two first
    z_t, out_t = z.transpose(1, 3, 0, 2), out.transpose(1, 3, 0, 2)
    nonzero = np.any(z_t, axis=(2, 3))
    w, e = pow2_split(z_t[nonzero], axis=(1, 2))
    w_norms = np.sqrt(np.einsum("vrc,vrc->v", w, w))
    out_t[nonzero] = w / w_norms[:, None, None]
    norms[nonzero] = pow2_scale(w_norms, e[:, 0, 0])
    return norms


def _alternate(b, xy, q, cap, threshold):
    """Alternate y <- unit(b^H x), x <- unit(b y) on a block of starts, the
    starts on its last axis, so each step's inner loop runs over them.

    ``xy[0]`` holds x and ``xy[1]`` holds y, and the block's dtype picks the
    norm step.  A complex (2, d, m) block holds scalars: ``xy[0][i, s]`` is
    x_i of start s, ``b`` is theta and unit() takes the phase.  A real
    (2, 2, d, k, m) block holds k-vectors in real form: ``xy[0][:, i, :, s]``
    is x_i of start s as [Re; Im] rows, ``b`` is theta's real form
    [[Re, -Im], [Im, Re]] and unit() divides by the Euclidean norm.  (Vectors
    run faster in real form; scalars ran slower in it.)  Either way a
    half-step is one matrix product of ``b`` (or its adjoint) with the whole
    block.  ``q`` holds each start's value before the first round.  A round
    sets q = sum_i ||(b y)_i||, which never decreases.  A start leaves the
    block once a round changes its value by less than ``threshold``; all stop
    after ``cap`` rounds.  Returns the vectors, the values, the rounds per
    start and the indices of the starts the cap cut off.
    """
    unit = _unit_scalars if np.iscomplexobj(xy) else _unit_vectors
    xy = np.ascontiguousarray(xy)                    # so that x2 and y2 below are views
    n, m = b.shape[0], xy.shape[-1]
    b_h = b.conj().T
    out, q_out, used = np.empty_like(xy), np.empty(m), np.zeros(m, dtype=int)
    live = np.arange(m)                              # starts still in the block
    rounds = 0
    x, y = xy[0], xy[1]
    x2, y2 = x.reshape(n, -1), y.reshape(n, -1)
    while live.size and rounds < cap:
        rounds += 1
        unit((b_h @ x2).reshape(y.shape), y)
        norms = unit((b @ y2).reshape(x.shape), x)
        q, q_prev = np.add.reduce(norms, axis=0), q
        gain = q - q_prev
        if np.minimum.reduce(gain) < threshold:       # needed for any |gain| < threshold
            # write the block back by index, then drop the settled starts
            out[..., live], q_out[live], used[live] = xy, q, rounds
            keep = np.abs(gain) >= threshold
            xy, q, live = xy.compress(keep, axis=-1), q[keep], live[keep]
            x, y = xy[0], xy[1]
            x2, y2 = x.reshape(n, -1), y.reshape(n, -1)
    out[..., live], q_out[live], used[live] = xy, q, rounds
    return out, q_out, used, live


def g_lower(theta, config: Optional[OptimizerConfig] = None) -> OptimizerRun:
    """Lower-bound the polydisc supremum g(theta) by explicit torus witnesses.

    For fixed t the optimal s is s_i = conj phase((theta t)_i), and for fixed
    s the optimal t is t_j = conj phase((theta^T s)_j): ``_alternate`` with
    vectors of dimension 1, x = conj(s) and y = t, which never decreases
    F(t) = sum_i |(theta t)_i|.  Each seeded start runs as four rows (its
    phases and their conjugates, each taken once as t and once as s) on theta
    scaled by ``pow2_normalize``; a row stops once a round changes F by less
    than 1e-3 * ``phase_tolerance``, or after d * ``max_iterations`` rounds.
    When the phases of theta split as chi_i + psi_j (``phase_system_solvable``),
    t = exp(-i psi) attains ||theta||_1 and is the witness unless a row beats
    it.  The result is a deterministic function of (matrix, config).
    """
    cfg = config or OptimizerConfig()
    a = require_square(theta)
    d = a.shape[0]
    n = cfg.starts
    if not np.any(a):
        ones = PolydiscTuple(np.ones(d)).validate()
        return _zero_matrix_run(cfg, n, (ones, ones))

    b, k = pow2_normalize(a)
    seeded = _seeded_phases(cfg.seed, cfg.starts, d).T
    phases = np.hstack([seeded, seeded.conj()])     # (d, 2n)
    # rows 0..2n-1 take the phases as t, rows 2n..4n-1 as s; y keeps its
    # start where a column of theta is zero
    xy = np.ones((2, d, 4 * n), dtype=complex)
    xy[1] = np.hstack([phases, phases])
    xy[0, :, 2 * n:] = phases.conj()
    q = np.full(4 * n, -np.inf)
    q[:2 * n] = _unit_scalars(b @ phases, xy[0, :, :2 * n]).sum(axis=0)
    xy, q, used, cut = _alternate(b, xy, q, d * cfg.max_iterations, 1e-3 * cfg.phase_tolerance)

    t_best = xy[1, :, int(q.argmax())]               # deterministic tie-break on row index
    split = phase_system_solvable(b)
    if split.solvable:
        # the forest phases attain ||theta||_1; weakly coupled rows converge slowly
        t_split = np.exp(-1j * np.asarray(split.psi))
        if np.abs(b @ t_split).sum() > np.abs(b @ t_best).sum():
            t_best = t_split
    r_best = b @ t_best
    s_best = np.ones(d, dtype=complex)
    _unit_scalars(r_best.conj(), s_best)
    witness = (PolydiscTuple(s_best).validate(), PolydiscTuple(t_best).validate())
    return _finish(cfg, n, np.abs(r_best).sum(), witness, k, q, used, cut)


def max_q_lower(theta, config: Optional[OptimizerConfig] = None) -> OptimizerRun:
    """Lower-bound the vector-form supremum by alternating witness improvement.

    With the x-vectors fixed, each optimal y_j is the normalized vector
    sum_i conj(theta_ij) x_i, and symmetrically: ``_alternate`` with vectors
    of dimension d.  One extra start embeds the scalar witness of ``g_lower``
    (same config) as parallel vectors, so the result never falls below that
    scalar bound.  All starts run as one real (2, 2, d, d, starts + 1) block
    on theta scaled as in ``g_lower``, for at most ``max_iterations`` rounds:
    ``xy[0][:, i, :, s]`` is x_i of start s as [Re; Im] rows, filled straight
    from the start's standard normal draw, and a half-step is one real matrix
    product with [[Re theta, -Im theta], [Im theta, Re theta]] (or its
    transpose, for theta^H).  Only the best start is turned back into complex
    vectors, for its witness.
    """
    cfg = config or OptimizerConfig()
    a = require_square(theta)
    d = a.shape[0]
    n = cfg.starts + 1
    if not np.any(a):
        e0 = np.zeros((d, d), dtype=complex)
        e0[:, 0] = 1.0                     # any unit rows do: their scales are 0
        zero = VectorTuple(e0, np.zeros(d))
        return _zero_matrix_run(cfg, n, (zero, zero))

    b, k = pow2_normalize(a)
    # the seed start runs g_lower on theta, which normalizes it to this same b;
    # b itself can normalize anew (the modulus of a subnormal largest entry
    # rounds, and can leave max |b_ij| below 1/2)
    s_w, t_w = g_lower(a, cfg).best_witness
    # xy[0, :, i, :, s] is x_i of start s as [Re; Im] rows, xy[1] likewise y
    xy = np.zeros((2, 2, d, d, n))
    w = np.array([np.conj(s_w.values), t_w.values])  # start 0: g_lower's witness
    xy[:, 0, :, 0, 0], xy[:, 1, :, 0, 0] = w.real, w.imag
    for i in range(cfg.starts):
        r = np.random.default_rng(cfg.seed ^ i).standard_normal((4, d, d))
        xy[..., i + 1] = r.reshape(2, 2, d, d)      # Re x, Im x, Re y, Im y
    for v in xy:
        _unit_vectors(v[..., 1:], v[..., 1:])

    x, y = xy[:, 0] + 1j * xy[:, 1]
    q = np.abs(np.einsum("ij,iks,jks->s", b, x.conj(), y))
    b_r = np.block([[b.real, -b.imag], [b.imag, b.real]])
    xy, q, used, cut = _alternate(b_r, xy, q, cfg.max_iterations, 1e-3 * cfg.phase_tolerance)

    best = int(q.argmax())
    # every row of the block is a unit vector: _unit_vectors keeps a row's
    # previous unit value where its new direction is 0
    x, y = xy[:, 0, ..., best] + 1j * xy[:, 1, ..., best]
    witness = (VectorTuple(x, np.ones(d)).validate(), VectorTuple(y, np.ones(d)).validate())
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
    arg theta_ij - value(parent), with principal arguments in (-pi, pi].  The
    system is solvable iff every edge then closes modulo 2 pi within ``PHASE_TOL``
    radians; then g(theta) = ||theta||_1, with the forest values as witness.
    """
    a = require_square(theta)
    d = a.shape[0]
    rows, cols = np.nonzero(a)
    phi = np.angle(a[rows, cols])
    adj = [[] for _ in range(2 * d)]
    for i, j, p in zip(rows.tolist(), (cols + d).tolist(), phi.tolist()):
        adj[i].append((j, p))
        adj[j].append((i, p))

    value = [None] * (2 * d)
    components = 0
    for root in range(2 * d):
        if value[root] is not None or not adj[root]:
            continue
        components += 1
        value[root] = 0.0
        queue = [root]
        for u in queue:               # the queue grows while it is walked
            for v, p in adj[u]:
                if value[v] is None:
                    value[v] = p - value[u]
                    queue.append(v)

    rank = sum(map(bool, adj)) - components
    forest = np.array([0.0 if x is None else x for x in value])
    gap = forest[rows] + forest[cols + d] - phi
    if np.any(np.abs(gap - 2.0 * np.pi * np.round(gap / (2.0 * np.pi))) > PHASE_TOL):
        return PhaseSystemReport(False, rows.size, rank, rank + 1)
    return PhaseSystemReport(True, rows.size, rank, rank,
                             chi=forest[:d].tolist(), psi=forest[d:].tolist(),
                             used_shift_enumeration=bool(np.any(np.abs(gap) > PHASE_TOL)))


@dataclass
class GClassification:
    """Bounds and certified membership verdicts for a matrix under the unit forms."""
    g_lower: float
    g_upper: float
    g_prime: float
    in_G_prime: bool                 # exact: g' <= 1 + 1e-10
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

    Membership in the ball set is exact (g' = d s_max is computable); the
    polydisc set is certified only when a bound crosses 1: upper bound at most
    1 certifies membership, a witness above 1 certifies exclusion, anything
    else is reported unknown together with the bracket.
    """
    a = require_square(theta)
    d = a.shape[0]
    # bound b = theta / 2^k and scale back once: theta's bounds are 2^k times
    # b's (inf past the float range), its scales 2^-k times b's
    b, k = pow2_normalize(a)
    run = g_lower(b, config)
    abs_b = np.abs(b)
    l1_b, gp_b = abs_b.sum(), d * largest_singular_value(b)
    upper_b = min(l1_b, gp_b)
    # the witness value is summed in round-to-nearest and can pass the
    # certified bound by an ulp; scaling back is monotone, so one cap on b
    # keeps lower <= upper
    lower_b = min(run.best_value, upper_b)
    lower, upper, gp, l1, fro, entry_max = pow2_scale(
        [lower_b, upper_b, gp_b, l1_b, np.linalg.norm(b), abs_b.max()], k).tolist()
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
    if not np.isfinite(q) or q < 0:
        raise InputValidationError(f"q must be a finite non-negative real, got {q}")
    if q <= 1.0 + REGION_TOL:
        return "classical"
    if q <= K_G_UPPER + REGION_TOL:
        return "grothendieck"
    return "exceeds"
