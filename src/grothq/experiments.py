"""Quantitative demonstrations built on the coherent-state projectors.

The 6- and 12-dimensional overlap projectors give closed-form trace values
q = d(d-1) * lambda for theta = lambda * Pi and V = W = sqrt(d-1) * Pi; the
experiments here evaluate those values, the honest membership verdicts for
lambda * Pi, the bounded families that can never leave [0, 1], and a random
sampling study of how rare trace-form values above 1 are.
"""

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .ensembles import (
    complex_gaussian,
    random_density,
    random_normal_matrix,
    random_projector,
    random_unitary,
)
from .forms import (
    K_G_UPPER,
    OptimizerConfig,
    eval_Q_trace,
    g_lower,
    g_prime,
    kg_region_check,
    max_q_lower,
    unit_set_verdicts,
)
from .linalg import InputValidationError, largest_singular_value, norm_entrywise_l1
from .states import build_family, build_projector, torus_witness

__all__ = [
    "ConsistencyError",
    "ExperimentRecord",
    "RarityStats",
    "G6Certificate",
    "run_h6",
    "run_h12",
    "certify_g6",
    "run_bounded_demo",
    "run_rarity",
    "displacement_operator",
]


class ConsistencyError(RuntimeError):
    """Two independent computation routes disagreed beyond tolerance."""


@dataclass
class ExperimentRecord:
    """Self-describing experiment outcome; re-running the embedded parameters
    reproduces q_value."""
    name: str
    parameters: dict
    q_value: float
    region: str
    diagnostics: dict

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RarityStats:
    ensemble: str
    samples: int
    count_in_region: int
    fraction: float
    max_q_seen: float
    seed: int
    starts: int
    dim: int

    def to_dict(self) -> dict:
        return asdict(self)


def _projector_for(d: int) -> np.ndarray:
    return build_projector(build_family(d)).matrix


def _run_projector_experiment(name: str, d: int, lam: float) -> ExperimentRecord:
    dim_big = d * (d - 1)
    _, witness_value = torus_witness(d)
    lam_max = 0.2 if d == 3 else 1.0 / witness_value
    if not (0.0 < lam <= lam_max * (1.0 + 1e-9)):
        raise InputValidationError(
            f"lambda = {lam} outside the admissible range (0, {lam_max}]; "
            f"certified bracket for the classical supremum of the projector: "
            f"[{witness_value}, {dim_big}]")
    pi = _projector_for(d)
    v = np.sqrt(d - 1) * pi
    q_closed = dim_big * lam
    q_trace = eval_Q_trace(lam * pi, v, v)
    if abs(q_trace - q_closed) > 1e-9 * max(1.0, q_closed):
        raise ConsistencyError(
            f"trace evaluation {q_trace} disagrees with closed form {q_closed}")
    # g(Pi) lies in [witness_value, d_big], and g'(Pi) = d_big since s_max(Pi) = 1
    in_g_prime, in_g = unit_set_verdicts(witness_value * lam, dim_big * lam, dim_big * lam)
    rho_rank = d
    purity = 1.0 / rho_rank
    entropy = math.log(rho_rank)
    return ExperimentRecord(
        name=name,
        parameters={"lambda": lam, "dim": d, "dim_big": dim_big},
        q_value=q_closed,
        region=kg_region_check(q_closed),
        diagnostics={
            "trace_value": q_trace,
            "purity": purity,
            "entropy": entropy,
            "theta_in_G_prime": in_g_prime,
            "theta_in_G": in_g,
            "lambda_max_in_G_prime": 1.0 / dim_big,
            "lambda_certified_outside_G_beyond": 1.0 / witness_value,
            "g_witness_value": witness_value,
            "g_certified_upper": float(dim_big),
        },
    )


def run_h6(lam: float) -> ExperimentRecord:
    """theta = lambda * Pi_6, V = W = sqrt(2) Pi_6: q = 6 lambda exactly.

    Admissible lambda: (0, 1/5].  Note the honest membership verdicts: the
    classical supremum of Pi_6 is 3 + 2 sqrt(2) (torus witness), so scales
    above 1/(3 + 2 sqrt(2)) ~= 0.1716 are certified outside the unit set even
    though they remain admissible inputs here.
    """
    return _run_projector_experiment("h6", 3, lam)


def run_h12(lam: float) -> ExperimentRecord:
    """theta = lambda * Pi_12, V = W = sqrt(3) Pi_12: q = 12 lambda exactly.

    Admissible lambda: (0, 1/12].  The classical supremum of Pi_12 is exactly
    12 (unimodular eigenvector witness), so every scale above 1/12 is
    certified outside the unit set and the trace value can never exceed 1
    while the membership assumption holds.
    """
    return _run_projector_experiment("h12", 4, lam)


@dataclass
class G6Certificate:
    """Agreement record between the two maximization routes for Pi_6."""
    starts: int
    seed: int
    general_value: float            # torus coordinate-ascent route
    specialized_value: float        # phase ascent on the component sums, halved
    specialized_norm_sq_max: float  # max of (A^2 + B^2 + C^2)/2
    agrees: bool
    allones_norm_sq: float          # value at t = (1,...,1): 10
    allones_abc: tuple              # {A, B, C} at all-ones: (4, 2, 0)
    sign_flip_norm_sq: float        # value at t5 -> -t5: 10
    witness_t: list

    def to_dict(self) -> dict:
        return asdict(self)


# rows of A: sum_j t_j a_j has the three components A t for the d = 3 states
_H6_ROWS = np.array([[1, 1, 0, 1, 1, 0],
                     [1, 0, 1, -1, 0, 1],
                     [0, 1, 1, 0, -1, -1]], dtype=float)
_H6_GRAM = _H6_ROWS.T @ _H6_ROWS


def _h6_component_sums(t: np.ndarray):
    """Moduli (A, B, C) of the three component sums of sum_j t_j a_j, d = 3."""
    return tuple(float(x) for x in np.abs(_H6_ROWS @ t))


def _h6_norm_sq(t: np.ndarray) -> np.ndarray:
    """f(t) = ||A t||^2 / 2 along the last axis of t."""
    return np.sum(np.abs(t @ _H6_ROWS.T) ** 2, axis=-1) / 2.0


def _h6_phase_ascent(t: np.ndarray, max_rounds: int = 2000):
    """Maximize f(t) = ||A t||^2 / 2 from each row of t (points of the polydisc).

    Every round sets t <- phase(A^T A t) for all rows at once, keeping t_j where
    (A^T A t)_j = 0.  The new point maximizes the linearization of f at t over
    the polydisc, and f is convex, so f never decreases and its maximum lies on
    the torus.  Stops once no row's value moved by more than 1e-15 relative (a
    rule on "no row increased" would run to the cap on one-ulp flips), or after
    ``max_rounds`` rounds.  Returns the final points and their values.
    """
    values = _h6_norm_sq(t)
    for _ in range(max_rounds):
        g = t @ _H6_GRAM
        t = np.where(g != 0, np.exp(1j * np.angle(g)), t)
        previous, values = values, _h6_norm_sq(t)
        if np.all(np.abs(values - previous) <= 1e-15 * np.abs(previous)):
            break
    return t, values


G6_AGREEMENT_TOL = 1e-6


def certify_g6(starts: int, seed: int) -> G6Certificate:
    """Cross-check the classical supremum of Pi_6 along two routes.

    Route 1 maximizes F(t) = sum_i |(Pi t)_i| on the torus (the general
    optimizer).  Route 2 maximizes ||sum_j t_j a_j||^2 / 2 = ||A t||^2 / 2,
    the component sums of the state vectors, by a phase ascent that shares no
    code with route 1 (``_h6_phase_ascent``).  Start i is R e^(i chi), with
    R in [0, 1)^6 and chi in [-pi, pi)^6 drawn from ``default_rng(seed ^ i)``.
    The all-ones point, a fixed point of the ascent at ||A t||^2 / 2 = 10, is
    only evaluated for the ``allones_*`` fields, never used as a start.  The
    routes must agree within ``G6_AGREEMENT_TOL``; disagreement raises
    ConsistencyError.
    """
    cfg = OptimizerConfig(starts=starts, seed=seed)
    general = g_lower(_projector_for(3), cfg)

    t0 = np.empty((starts, 6), dtype=complex)
    for i in range(starts):
        rng = np.random.default_rng(seed ^ i)
        t0[i] = rng.uniform(0, 1, 6) * np.exp(1j * rng.uniform(-np.pi, np.pi, 6))
    best = float(_h6_phase_ascent(t0)[1].max())

    specialized_value = best / 2.0
    agrees = abs(general.best_value - specialized_value) <= G6_AGREEMENT_TOL
    if not agrees:
        raise ConsistencyError(
            f"optimization routes disagree: general {general.best_value} vs "
            f"specialized {specialized_value}")

    ones = np.ones(6, dtype=complex)
    flipped = ones.copy()
    flipped[5] = -1.0
    return G6Certificate(
        starts=starts,
        seed=seed,
        general_value=general.best_value,
        specialized_value=specialized_value,
        specialized_norm_sq_max=best,
        agrees=agrees,
        allones_norm_sq=float(_h6_norm_sq(ones)),
        allones_abc=_h6_component_sums(ones),
        sign_flip_norm_sq=float(_h6_norm_sq(flipped)),
        witness_t=general.best_witness[1].to_list(),
    )


def displacement_operator(d: int, a: int, b: int) -> np.ndarray:
    """Finite phase-space displacement D(a, b) on Z_d for odd d.

    D(a, b) = omega^(-2^{-1} a b) X^a Z^b with X the cyclic shift, Z the
    diagonal of omega powers, and 2^{-1} the inverse of 2 modulo d.  Unitary
    for all (a, b).
    """
    if d < 2 or d % 2 == 0:
        raise InputValidationError(f"displacement operators need odd d, got {d}")
    inv2 = pow(2, -1, d)
    omega = np.exp(2j * np.pi / d)
    phase = omega ** ((-inv2 * a * b) % d)
    m = np.zeros((d, d), dtype=complex)
    for c in range(d):
        m[(c + a) % d, c] = phase * omega ** ((b * c) % d)
    return m


def run_bounded_demo(d: int, samples: int, seed: int) -> ExperimentRecord:
    """Sample (density, unitary) pairs and confirm |Tr(rho U)| never exceeds 1.

    Also evaluates the generic trace-form bound min(d * e_max * 1.4049,
    ||rho||_1) per sample and records that the direct bound 1 is tighter.
    For odd d the unitaries additionally include the full displacement grid,
    covering phase-space (Weyl-type) evaluations.
    """
    if d < 2:
        raise InputValidationError(f"dimension must be >= 2, got {d}")
    if samples < 1:
        raise InputValidationError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise InputValidationError("seed must be a non-negative integer")
    max_trace = 0.0
    rrr_min = math.inf
    tighter_always = True
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        rho = random_density(rng, d)
        u = random_unitary(rng, d)
        val = float(abs(np.trace(rho @ u)))
        if val > 1.0 + 1e-12:
            raise ConsistencyError(f"|Tr(rho U)| = {val} exceeded 1")
        max_trace = max(max_trace, val)
        e_max = largest_singular_value(rho)
        rrr = min(d * e_max * K_G_UPPER, norm_entrywise_l1(rho))
        rrr_min = min(rrr_min, rrr)
        if rrr < 1.0 - 1e-12:
            tighter_always = False

    weyl_max = None
    if d % 2 == 1:
        rng = np.random.default_rng([seed, samples])
        rho = random_density(rng, d)
        weyl_max = 0.0
        for a in range(d):
            for b in range(d):
                weyl_max = max(weyl_max, float(abs(np.trace(rho @ displacement_operator(d, a, b)))))
        if weyl_max > 1.0 + 1e-12:
            raise ConsistencyError(f"displacement trace {weyl_max} exceeded 1")

    return ExperimentRecord(
        name="bounded_demo",
        parameters={"dim": d, "samples": samples, "seed": seed},
        q_value=max_trace,
        region=kg_region_check(max_trace),
        diagnostics={
            "generic_bound_min": rrr_min,
            "unit_bound_tighter_always": tighter_always,
            "weyl_max": weyl_max,
        },
    )


RARITY_ENSEMBLES = ("scaled_projector", "random_normal", "random_general")


def _rarity_sample(ensemble: str, dim: int, seed: int, index: int):
    """Draw one certified-unit-set matrix theta; returns (theta, record_fields,
    (lower, upper, g_prime)): a certified bracket of g(theta), and g'(theta)."""
    rng = np.random.default_rng([seed, index])
    if ensemble == "scaled_projector":
        if index == 0:
            # designated instance: Pi_6 scaled to its witness boundary, the known
            # region-entering example; g(Pi_6) lies in [w, 6] and g'(Pi_6) = 6
            pi = _projector_for(3)
            _, w = torus_witness(3)
            return pi / w, {"matrix": "coherent_overlap_projector_d3",
                            "dim": 6, "scale": 1.0 / w}, (1.0, 6.0 / w, 6.0 / w)
        rank = int(rng.integers(1, dim))
        m = random_projector(rng, dim, rank)
        fields = {"matrix": "random_projector", "dim": dim, "rank": rank}
    elif ensemble == "random_normal":
        m = random_normal_matrix(rng, dim)
        fields = {"matrix": "random_normal", "dim": dim}
    elif ensemble == "random_general":
        m = complex_gaussian(rng, dim)
        fields = {"matrix": "random_general", "dim": dim}
    else:
        raise InputValidationError(
            f"unknown ensemble {ensemble!r}; choose from {RARITY_ENSEMBLES}")
    gp = g_prime(m)
    scale = min(norm_entrywise_l1(m), gp)          # g_upper(m), so g(m / scale) <= 1
    if scale == 0.0:
        return np.zeros_like(m), {**fields, "scale": 0.0}, (0.0, 0.0, 0.0)
    return m / scale, {**fields, "scale": 1.0 / scale}, (0.0, 1.0, gp / scale)


def run_rarity(ensemble: str, samples: int, seed: int, starts: int,
               dim: int = 6, sink=None) -> RarityStats:
    """Estimate how rare trace-form values above 1 are for certified matrices.

    Per sample: draw a matrix, scale it onto the unit-set boundary with the
    certified upper bound min(||M||_1, d s_max), maximize the vector form,
    and classify the value; the unit-set verdicts come from the sample's
    bracket.  One JSON record per sample is written to ``sink`` (a callable
    receiving dicts).  Everything derives from (seed, index), so reruns are
    byte-identical.
    """
    if samples < 1:
        raise InputValidationError(f"samples must be >= 1, got {samples}")
    base_cfg = OptimizerConfig(starts, seed, max_iterations=300)
    if dim < 2:
        raise InputValidationError(f"dimension must be >= 2, got {dim}")
    count = 0
    max_q = 0.0
    for i in range(samples):
        theta, fields, bracket = _rarity_sample(ensemble, dim, seed, i)
        in_g_prime, in_g = unit_set_verdicts(*bracket)
        opt_seed = seed ^ ((i + 1) << 20)
        q_run = max_q_lower(theta, replace(base_cfg, seed=opt_seed))
        q = q_run.best_value
        region = kg_region_check(q)
        record = {
            "index": i,
            "ensemble": ensemble,
            **fields,
            "in_G": in_g,
            "q_value": q,
            "q_stop_reason": q_run.stop_reason,
            "region": region,
            "in_G_prime": in_g_prime,
            "optimizer_seed": opt_seed,
            "optimizer_starts": starts,
        }
        if sink is not None:
            sink(record)
        if region == "grothendieck":
            count += 1
        max_q = max(max_q, q)
    return RarityStats(
        ensemble=ensemble,
        samples=samples,
        count_in_region=count,
        fraction=count / samples,
        max_q_seen=max_q,
        seed=seed,
        starts=starts,
        dim=dim,
    )
