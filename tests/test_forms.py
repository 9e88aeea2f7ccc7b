import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from grothq import (
    InputValidationError,
    K_G_UPPER,
    OptimizerConfig,
    PhaseSystemReport,
    PolydiscTuple,
    VectorTuple,
    build_family,
    build_projector,
    classify,
    eval_C,
    eval_Q_trace,
    fourier_matrix,
    g_lower,
    g_prime,
    g_upper,
    kg_region_check,
    largest_singular_value,
    max_q_lower,
    norm_entrywise_l1,
    normalization_factor,
    phase_system_solvable,
    to_unit_s,
    torus_witness,
)
from grothq import forms
from grothq.ensembles import (
    complex_gaussian,
    random_normal_matrix,
    random_projector,
    random_unitary,
)
from grothq.linalg import pow2_normalize, pow2_scale


def pi(d):
    return build_projector(build_family(d)).matrix


def disc(values):
    return PolydiscTuple(np.asarray(values, dtype=complex))


SMALL = OptimizerConfig(starts=4, seed=0)


# --- classical form ---

def test_eval_c_diagonal_allones():
    a = np.array([0.4, -0.3, 0.2j])
    theta = np.diag(a)
    ones = disc(np.ones(3))
    assert eval_C(theta, ones, ones) == pytest.approx(abs(a.sum()), abs=1e-12)
    assert eval_C(theta, ones, ones) <= 1.0


def test_eval_c_single_entry():
    theta = np.zeros((3, 3))
    theta[1, 2] = 0.7
    s = np.zeros(3, dtype=complex)
    t = np.zeros(3, dtype=complex)
    s[1] = 1.0
    t[2] = 1.0
    assert eval_C(theta, disc(s), disc(t)) == pytest.approx(0.7, abs=1e-12)


def test_eval_c_zero_tuple():
    theta = complex_gaussian(np.random.default_rng(0), 3)
    assert eval_C(theta, disc(np.zeros(3)), disc(np.ones(3))) == 0.0


def test_eval_c_rejects_constraint_violation():
    theta = np.eye(2)
    with pytest.raises(InputValidationError):
        eval_C(theta, disc([1.5, 0.0]), disc([1.0, 0.0]))


# --- trace form ---

def test_eval_q_projector_d3():
    p = pi(3)
    v = np.sqrt(2) * p
    for lam in (0.05, 1 / 6, 0.2):
        assert eval_Q_trace(lam * p, v, v) == pytest.approx(6 * lam, abs=1e-12)


def test_eval_q_identity_gives_trace():
    rng = np.random.default_rng(4)
    m = complex_gaussian(rng, 4)
    eye = np.eye(4)
    assert eval_Q_trace(m, eye, eye) == pytest.approx(abs(np.trace(m)), rel=1e-12)


def test_eval_q_projector_d4():
    p = pi(4)
    v = np.sqrt(3) * p
    assert eval_Q_trace(0.02 * p, v, v) == pytest.approx(12 * 0.02, abs=1e-12)
    assert normalization_factor(v) == pytest.approx(1.0, abs=1e-12)


def test_eval_q_rejects_mismatch():
    with pytest.raises(InputValidationError):
        eval_Q_trace(np.eye(2), np.eye(3), np.eye(3))
    # rows of V or W outside the unit ball
    with pytest.raises(InputValidationError, match="unit ball"):
        eval_Q_trace(np.eye(2), 2 * np.eye(2), np.eye(2))
    with pytest.raises(InputValidationError, match="unit ball"):
        eval_Q_trace(np.eye(2), np.eye(2), np.diag([1.0, 1.0 + 1e-9]))


def scaled_gaussian(seed, j, d=4):
    """2^j times a complex Gaussian, each part scaled by ldexp."""
    g = complex_gaussian(np.random.default_rng(seed), d)
    return np.ldexp(g.real, j) + 1j * np.ldexp(g.imag, j)


def test_eval_c_meets_g_lower_on_subnormal_theta():
    # theta / 2^k is exact, and the witness value and g_lower's best value,
    # both formed on it, round to the same subnormal
    theta = scaled_gaussian(1, -1060)
    run = g_lower(theta, SMALL)
    assert 0 < run.best_value < np.finfo(float).tiny
    assert eval_C(theta, *run.best_witness) == run.best_value


def test_eval_c_overflows_to_inf_without_warning():
    theta = scaled_gaussian(0, 1021)
    run = g_lower(theta, SMALL)
    assert run.best_value == np.inf
    assert eval_C(theta, *run.best_witness) == np.inf


def test_eval_q_trace_of_huge_theta_cancels_exactly():
    theta = np.full((2, 2), np.finfo(float).max)
    assert eval_Q_trace(theta, [[1, 0], [1, 0]], [[1, 0], [-1, 0]]) == 0.0


# --- ball supremum ---

def test_g_prime_fourier():
    for d in (2, 3, 4, 5):
        assert g_prime(fourier_matrix(d)) == pytest.approx(d, abs=1e-9)


def test_g_prime_projectors():
    assert g_prime(pi(3)) == pytest.approx(6.0, abs=1e-9)
    assert g_prime(pi(4)) == pytest.approx(12.0, abs=1e-9)


# --- upper bound ---

def test_g_upper_pi6():
    # l1 norm of the projector is 9, so the spectral bound 6 binds
    assert norm_entrywise_l1(pi(3)) == pytest.approx(9.0, abs=1e-12)
    assert g_upper(pi(3)) == pytest.approx(6.0, abs=1e-9)


def test_g_upper_diagonal():
    theta = np.diag([0.4, 0.2, 0.1])
    assert g_upper(theta) == pytest.approx(0.7, abs=1e-12)


def test_g_upper_zero():
    assert g_upper(np.zeros((3, 3))) == 0.0


def test_g_upper_subnormal_not_below_g_lower():
    # moduli taken in subnormal arithmetic once summed to 2e-323 < g_lower = 3e-323
    theta = np.full((2, 2), 5e-324 * (1 + 1j))
    assert g_upper(theta) >= g_lower(theta, SMALL).best_value


# --- polydisc maximization ---

def test_g_lower_permutation_type():
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        perm = rng.permutation(d)
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        a *= rng.uniform(0, 1) / np.abs(a).sum()
        theta = np.zeros((d, d), dtype=complex)
        for i in range(d):
            theta[i, perm[i]] = a[i]
        run = g_lower(theta, SMALL)
        assert run.best_value == pytest.approx(np.abs(a).sum(), abs=1e-9)


def test_g_lower_single_entry():
    theta = np.zeros((4, 4))
    theta[2, 1] = 0.65
    assert g_lower(theta, SMALL).best_value == pytest.approx(0.65, abs=1e-10)


def test_g_lower_zero_matrix():
    run = g_lower(np.zeros((3, 3)), SMALL)
    assert run.best_value == 0.0


def test_g_lower_pi6_reaches_witness_value():
    run = g_lower(pi(3), OptimizerConfig(starts=64, seed=0))
    _, w = torus_witness(3)
    assert run.best_value == pytest.approx(w, abs=1e-6)


def test_g_lower_hermitian_2x2_strictly_below_l1():
    # [[1, i], [-i, -1]]: phases cannot align, the supremum is 2 sqrt(2) < 4
    theta = np.array([[1.0, 1.0j], [-1.0j, -1.0]])
    run = g_lower(theta, OptimizerConfig(starts=16, seed=1))
    assert run.best_value == pytest.approx(2 * np.sqrt(2), abs=1e-9)
    assert run.best_value < norm_entrywise_l1(theta) - 1.0


def test_g_lower_weakly_coupled_split_phases_reach_l1():
    # the rows converge at a rate near 1 - 1/64 and stop 1.5e-12 short of
    # ||theta||_1; the phases split, and the forest witness attains it
    theta = np.array([[1.0, 0.0], [1 / 64, 1.0]])
    run = g_lower(theta, OptimizerConfig(starts=1, seed=0))
    assert run.best_value == norm_entrywise_l1(theta)


def test_g_lower_witness_feasible_and_reproduces_value():
    rng = np.random.default_rng(6)
    for _ in range(25):
        d = int(rng.integers(2, 7))
        theta = complex_gaussian(rng, d)
        run = g_lower(theta, SMALL)
        s, t = run.best_witness
        assert eval_C(theta, s, t) == pytest.approx(run.best_value, abs=1e-12)


def test_g_lower_deterministic():
    theta = complex_gaussian(np.random.default_rng(8), 5)
    cfg = OptimizerConfig(starts=8, seed=123)
    r1 = g_lower(theta, cfg)
    r2 = g_lower(theta, cfg)
    assert r1.best_value == r2.best_value
    assert r1.per_start_values == r2.per_start_values
    assert np.array_equal(r1.best_witness[1].values, r2.best_witness[1].values)


def _fresh_phases(seed, starts, d):
    return np.exp(1j * np.array([np.random.default_rng(seed ^ s).uniform(-np.pi, np.pi, d)
                                 for s in range(starts)]))


def _fresh_vectors(seed, starts, d):
    """max_q_lower's starts as a (2, d, starts, d) block: x = r[0] + i r[1] and
    y = r[2] + i r[3] of start s at [:, :, s], r from a fresh generator."""
    block = np.empty((2, d, starts, d), dtype=complex)
    for s in range(starts):
        r = np.random.default_rng(seed ^ s).standard_normal((4, d, d))
        block[0, :, s], block[1, :, s] = r[0] + 1j * r[1], r[2] + 1j * r[3]
    return block


def test_seeded_phases_equal_fresh_per_start_draws():
    for seed, starts, d in ((0, 1, 2), (123, 16, 6), (2**40 + 5, 7, 3)):
        fresh = _fresh_phases(seed, starts, d)
        phases = forms._seeded_starts(seed, starts, d)[0]
        assert phases.shape == (starts, d)
        assert phases.tobytes() == fresh.tobytes()
        assert forms._seeded_starts(seed, starts, d)[0] is phases
        forms._seeded_starts.cache_clear()
        assert forms._seeded_starts(seed, starts, d)[0].tobytes() == fresh.tobytes()


def test_seeded_vectors_equal_fresh_per_start_draws():
    # the phases are drawn first from the same generators, yet each block
    # entry is what a fresh default_rng(seed ^ s) gives
    for seed, starts, d in ((0, 1, 2), (123, 16, 6), (2**40 + 5, 7, 3)):
        forms._seeded_starts.cache_clear()
        vectors = forms._seeded_starts(seed, starts, d)[1]
        assert vectors.shape == (2, d, starts, d) and vectors.flags.c_contiguous
        assert vectors.tobytes() == _fresh_vectors(seed, starts, d).tobytes()


def test_seeded_phases_are_read_only():
    phases, vectors = forms._seeded_starts(9, 3, 4)
    with pytest.raises(ValueError):
        phases[0, 0] = 1.0
    with pytest.raises(ValueError):
        phases.T[1] *= 1j
    with pytest.raises(ValueError):
        vectors[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        vectors[1, :, 2] *= 1j


def _count_generators(monkeypatch):
    built = []
    default_rng = np.random.default_rng

    def counting_rng(seed=None):
        built.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    return built


def test_g_lower_draws_start_phases_once_per_config(monkeypatch):
    theta = complex_gaussian(np.random.default_rng(31), 4)
    cfg = OptimizerConfig(starts=5, seed=7010)
    forms._seeded_starts.cache_clear()
    g_lower(theta, cfg)
    built = _count_generators(monkeypatch)
    g_lower(theta, cfg)
    assert built == []
    g_lower(theta, OptimizerConfig(starts=5, seed=7011))
    assert built == [7011 ^ s for s in range(5)]


def test_max_q_lower_reuses_the_starts_drawn_for_g_lower(monkeypatch):
    theta = complex_gaussian(np.random.default_rng(33), 5)
    cfg = OptimizerConfig(starts=6, seed=7020)
    forms._seeded_starts.cache_clear()
    g_lower(theta, cfg)
    built = _count_generators(monkeypatch)
    max_q_lower(theta, cfg)
    assert built == []
    max_q_lower(theta, OptimizerConfig(starts=6, seed=7021))
    assert built == [7021 ^ s for s in range(6)]


def test_results_same_with_cold_and_warm_phase_cache():
    theta = complex_gaussian(np.random.default_rng(32), 6)
    cfg = OptimizerConfig(starts=8, seed=55)
    forms._seeded_starts.cache_clear()
    cold = g_lower(theta, cfg), classify(theta, cfg)
    warm = g_lower(theta, cfg), classify(theta, cfg)
    assert cold[0].per_start_values == warm[0].per_start_values
    assert cold[0].to_dict() == warm[0].to_dict()
    assert cold[1].to_dict() == warm[1].to_dict()


def test_optimizer_runs_report_rounds_and_stop_reason():
    theta = complex_gaussian(np.random.default_rng(18), 5)
    cfg = OptimizerConfig(starts=6, seed=4)
    for optimizer, n_starts in ((g_lower, 6), (max_q_lower, 7)):
        run = optimizer(theta, cfg)
        assert run.stop_reason == "tolerance"
        assert len(run.iterations_used) == n_starts
        assert all(1 <= k <= 5 * cfg.max_iterations for k in run.iterations_used)
        assert run.iterations_used == optimizer(theta, cfg).iterations_used
        doc = json.loads(json.dumps(run.to_dict()))
        assert doc["stop_reason"] == "tolerance"
        assert doc["iterations_used"] == run.iterations_used
    capped = OptimizerConfig(starts=6, seed=4, max_iterations=1)
    run = g_lower(theta, capped)
    assert run.stop_reason == "budget" and max(run.iterations_used) == 5
    assert run.converged_fraction < 1.0
    run = max_q_lower(theta, capped)
    assert run.stop_reason == "budget" and run.iterations_used == [1] * 7
    for optimizer, n_starts in ((g_lower, 6), (max_q_lower, 7)):
        run = optimizer(np.zeros((3, 3)), cfg)
        assert run.stop_reason == "zero_matrix"
        assert run.iterations_used == [0] * n_starts


def test_g_lower_hands_the_kernel_two_columns_per_start(monkeypatch):
    blocks = []

    def recorded(b, xy, cap, threshold):
        blocks.append(xy.shape)
        return kernel(b, xy, cap, threshold)

    kernel = forms._alternate
    monkeypatch.setattr(forms, "_alternate", recorded)
    g_lower(complex_gaussian(np.random.default_rng(3), 5), OptimizerConfig(starts=6))
    assert blocks == [(2, 5, 12)]


def test_max_q_lower_hands_the_kernel_one_complex_block(monkeypatch):
    calls = []

    def recorded(b, xy, cap, threshold):
        calls.append((b, xy.copy()))
        return kernel(b, xy, cap, threshold)

    kernel = forms._alternate
    monkeypatch.setattr(forms, "_alternate", recorded)
    theta = complex_gaussian(np.random.default_rng(3), 5)
    cfg = OptimizerConfig(starts=6, seed=9)
    run = max_q_lower(theta, cfg)
    (b_g, _), (b_q, xy) = calls                      # g_lower's seed start, then the vectors
    assert np.array_equal(b_q, b_g) and np.array_equal(b_q, pow2_normalize(theta)[0])
    assert xy.dtype == complex and xy.shape == (2, 5, 7, 5)
    # start 0 is g_lower's witness (x = conj(s), y = t) on the first component
    s, t = g_lower(theta, cfg).best_witness
    assert np.array_equal(xy[:, :, 0, 0], [s.values.conj(), t.values])
    assert not xy[:, :, 0, 1:].any()
    # start i + 1 is its seeded draw r, x = r[0] + i r[1] and y = r[2] + i r[3], normalized
    r = np.random.default_rng(cfg.seed ^ 2).standard_normal((4, 5, 5))
    draw = r[0::2] + 1j * r[1::2]
    assert np.allclose(xy[:, :, 3], draw / np.linalg.norm(draw, axis=-1, keepdims=True),
                       rtol=0, atol=1e-15)
    x, y = run.best_witness
    assert x.vectors.shape == y.vectors.shape == (5, 5)


def test_unit_scalars_share_the_vector_underflow_path():
    # scalars are vectors of dimension 1, as the kernel's careful half-step passes them
    z = np.array([3 + 4j, 5e-324 * (1 + 1j), 0])
    out = np.full(3, 2.0 + 0j)
    norms = forms._unit_vectors(z[..., None], out[..., None])
    np.testing.assert_array_equal(norms, np.abs(z))
    np.testing.assert_allclose(out[:2], [0.6 + 0.8j, (1 + 1j) / np.sqrt(2)], rtol=1e-15)
    assert out[2] == 2.0


def test_unit_vectors_scale_vectors_whose_squares_underflow():
    z = np.array([[3, 4j], [5e-324, 5e-324j], [0, 0]])
    out = np.full((3, 2), 2.0 + 0j)
    norms = forms._unit_vectors(z, out)
    np.testing.assert_array_equal(norms, [5.0, 5e-324, 0.0])
    np.testing.assert_allclose(out[:2], [[0.6, 0.8j], [1 / np.sqrt(2), 1j / np.sqrt(2)]],
                               rtol=1e-15)
    np.testing.assert_array_equal(out[2], [2.0, 2.0])


def test_unit_steps_keep_out_where_every_entry_is_zero():
    for shape in ((3, 2, 1), (3, 2, 2)):
        out = np.full(shape, 2.0 + 0j)
        norms = forms._unit_vectors(np.zeros(shape, dtype=complex), out)
        np.testing.assert_array_equal(norms, np.zeros(shape[:2]))
        np.testing.assert_array_equal(out, np.full(shape, 2.0))


def test_no_start_settles_in_its_first_round():
    # start 0 of max_q_lower is g_lower's settled witness: a fixed point,
    # which still takes a second round to show that it has settled
    theta = complex_gaussian(np.random.default_rng(0), 4)
    for optimizer in (g_lower, max_q_lower):
        run = optimizer(theta, SMALL)
        assert run.stop_reason == "tolerance"
        assert min(run.iterations_used) >= 2


def kernel_blocks(theta, cfg):
    """theta normalized, and two blocks for ``forms._alternate``: a scalar
    (2, d, 3) and a vector (2, d, 3, d) block.  Columns 0 and 1 are seeded
    starts, and the last is g_lower's settled witness, x = conj(s) and y = t,
    which the vector block embeds on its first component as max_q_lower does."""
    b = pow2_normalize(theta)[0]
    d = b.shape[0]
    s, t = g_lower(b, cfg).best_witness
    phases, vectors = forms._seeded_starts(cfg.seed, 2, d)
    scalars = np.ones((2, d, 3), dtype=complex)
    scalars[0, :, :2] = phases.T.conj()
    scalars[:, :, 2] = s.values.conj(), t.values
    blocks = np.zeros((2, d, 3, d), dtype=complex)
    blocks[:, :, :2] = vectors
    forms._unit_vectors(blocks[:, :, :2], blocks[:, :, :2])
    blocks[:, :, 2, 0] = s.values.conj(), t.values
    return b, scalars, blocks


def test_the_settle_decision_sees_every_column():
    # the settled witness is the last column: a round that looked at the
    # first column's gain alone would keep it in the block past round 2
    b, scalars, blocks = kernel_blocks(complex_gaussian(np.random.default_rng(1), 5), SMALL)
    for xy, cap in ((scalars, 5 * SMALL.max_iterations), (blocks, SMALL.max_iterations)):
        _, _, used, cut = forms._alternate(b, xy, cap, forms._SETTLE_GAIN)
        assert used[-1] == 2
        assert (used[:-1] > 2).all()
        assert cut.size == 0


def test_the_kernel_keeps_its_fast_unit_step_without_tiny_norms(monkeypatch):
    # every norm of a Gaussian's products is far above _SMALL, so each
    # half-step divides in place, without the careful unit step
    b, scalars, blocks = kernel_blocks(complex_gaussian(np.random.default_rng(2), 6), SMALL)
    calls = []
    step = forms._unit_vectors
    monkeypatch.setattr(forms, "_unit_vectors",
                        lambda z, out: calls.append(z.shape) or step(z, out))
    for xy in (scalars, blocks):
        forms._alternate(b, xy, SMALL.max_iterations, forms._SETTLE_GAIN)
    assert calls == []


@pytest.mark.parametrize("field, value", [("starts", 0), ("seed", -1), ("max_iterations", 0)])
def test_optimizer_config_rejects_out_of_range(field, value):
    with pytest.raises(InputValidationError, match=field):
        OptimizerConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("starts", True), ("starts", 2.0), ("seed", 1.5), ("seed", None), ("seed", "3"),
    ("max_iterations", 2.5)])
def test_optimizer_config_rejects_wrong_types(field, value):
    with pytest.raises(InputValidationError, match=field):
        OptimizerConfig(**{field: value})


def test_optimizer_config_stores_plain_numbers():
    cfg = OptimizerConfig(starts=np.int64(2), seed=np.int64(3), max_iterations=np.int32(5))
    assert [type(v) for v in dataclasses.astuple(cfg)] == [int, int, int]
    json.dumps(g_lower(np.eye(2), cfg).to_dict())


def test_optimizer_run_carries_its_config():
    cfg = OptimizerConfig(starts=2, seed=3)
    for theta in (np.eye(2), np.zeros((2, 2))):
        assert g_lower(theta, cfg).config is cfg
        assert max_q_lower(theta, cfg).config is cfg
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 4


def test_g_lower_bound_chain_sample():
    rng = np.random.default_rng(9)
    for _ in range(60):
        d = int(rng.integers(2, 7))
        theta = complex_gaussian(rng, d)
        run = g_lower(theta, SMALL)
        assert run.best_value <= norm_entrywise_l1(theta) + 1e-8
        assert run.best_value <= d * largest_singular_value(theta) + 1e-8


def test_g_lower_grid_oracle_relative_agreement():
    # brute-force torus grid, s eliminated analytically
    rng = np.random.default_rng(10)
    for d, n in ((2, 10), (3, 5)):
        phases = np.exp(1j * np.linspace(-np.pi, np.pi, 48, endpoint=False))
        idx = np.indices((48,) * d).reshape(d, -1)
        grid = phases[idx]
        for _ in range(n):
            theta = complex_gaussian(rng, d)
            run = g_lower(theta, OptimizerConfig(starts=32, seed=3))
            grid_best = np.abs(theta @ grid).sum(axis=0).max()
            assert abs(run.best_value - grid_best) <= 2e-3 * run.best_value
            # the grid can trail the optimizer at most by its resolution bound
            res_bound = (np.pi / 48) * norm_entrywise_l1(theta)
            assert grid_best <= run.best_value + res_bound


# --- phase system ---

def test_phase_system_hermitian_2x2_unsolvable():
    report = phase_system_solvable(np.array([[1.0, 1.0j], [-1.0j, -1.0]]))
    assert not report.solvable
    assert report.rank_augmented > report.rank_coefficient
    assert report.n_equations == 4


def test_phase_system_permutation_type_solvable():
    theta = np.zeros((3, 3))
    theta[0, 1] = 0.3
    theta[1, 2] = 0.3
    theta[2, 0] = 0.4
    report = phase_system_solvable(theta)
    assert report.solvable
    assert max(map(abs, report.chi + report.psi)) < 1e-9   # zero phases suffice


def test_phase_system_rank_one_solvable():
    x = np.array([1.0, np.exp(1.2j)])
    y = np.array([np.exp(0.4j), np.exp(-2.0j)])
    report = phase_system_solvable(np.outer(x, y))
    assert report.solvable
    # witness phases reproduce every entry phase
    theta = np.outer(x, y)
    for i in range(2):
        for j in range(2):
            diff = np.angle(theta[i, j]) - report.chi[i] - report.psi[j]
            assert abs((diff + np.pi) % (2 * np.pi) - np.pi) < 1e-8


def test_phase_system_needs_mod_2pi_shift():
    # principal values break the cycle sum by exactly 2 pi; the shifted
    # right-hand side is consistent
    phis = np.array([[2.5, -2.5], [-2.5, 2 * np.pi - 7.5]])
    theta = np.exp(1j * phis)
    report = phase_system_solvable(theta)
    assert report.solvable
    assert report.used_shift_enumeration


def test_phase_system_pi6_unsolvable():
    assert not phase_system_solvable(pi(3)).solvable


def test_phase_system_solvable_implies_l1_attained():
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(40):
        d = int(rng.integers(2, 5))
        kind = rng.integers(0, 2)
        if kind == 0:
            x = np.exp(1j * rng.uniform(-np.pi, np.pi, d)) * rng.uniform(0.2, 1, d)
            y = np.exp(1j * rng.uniform(-np.pi, np.pi, d)) * rng.uniform(0.2, 1, d)
            theta = np.outer(x, y)
        else:
            theta = np.zeros((d, d), dtype=complex)
            perm = rng.permutation(d)
            for i in range(d):
                theta[i, perm[i]] = (rng.standard_normal() + 1j * rng.standard_normal())
        report = phase_system_solvable(theta)
        if report.solvable:
            hits += 1
            run = g_lower(theta, OptimizerConfig(starts=8, seed=2))
            assert run.best_value == pytest.approx(norm_entrywise_l1(theta), abs=1e-6)
    assert hits >= 30


def _wrapped(x):
    return (np.asarray(x) + np.pi) % (2 * np.pi) - np.pi


def test_phase_system_rank_one_any_size():
    # beyond 12 equations the former shift budget called these unsolvable
    rng = np.random.default_rng(19)
    face_value_failures = 0
    for d in range(2, 17):
        for _ in range(3):
            x = np.exp(1j * rng.uniform(-np.pi, np.pi, d)) * rng.uniform(0.2, 1, d)
            y = np.exp(1j * rng.uniform(-np.pi, np.pi, d)) * rng.uniform(0.2, 1, d)
            theta = np.outer(x, y)
            report = phase_system_solvable(theta)
            assert report.solvable
            assert report.n_equations == d * d
            assert report.rank_coefficient == report.rank_augmented == 2 * d - 1
            gap = np.add.outer(report.chi, report.psi) - np.angle(theta)
            assert np.abs(_wrapped(gap)).max() < 1e-8
            face_value_failures += report.used_shift_enumeration
            run = g_lower(theta, SMALL)
            assert run.best_value == pytest.approx(norm_entrywise_l1(theta), rel=1e-12)
    assert face_value_failures >= 30


def test_phase_system_zero_rows_and_columns():
    theta = np.zeros((4, 4), dtype=complex)
    theta[0, 1] = np.exp(0.3j)
    theta[2, 1] = np.exp(-1.1j)
    report = phase_system_solvable(theta)
    assert report.solvable and report.n_equations == 2
    assert report.rank_coefficient == 2          # 3 vertices, 1 component
    assert report.chi[1] == report.chi[3] == 0.0
    assert report.psi[0] == report.psi[2] == report.psi[3] == 0.0
    assert phase_system_solvable(np.zeros((3, 3))).to_dict() == {
        "solvable": True, "n_equations": 0, "rank_coefficient": 0, "rank_augmented": 0,
        "chi": [0.0] * 3, "psi": [0.0] * 3, "used_shift_enumeration": False}


def test_phase_system_reads_the_same_phases_after_pow2_normalize():
    # -1 - 0j has argument -pi; g_lower passes the pow2_normalized theta on,
    # whose entries must keep the sign of their zero parts
    m = complex(-1.0, -0.0)
    theta = np.array([[m, 1.0], [1.0, m]])
    report = phase_system_solvable(theta)
    assert report.chi == [0.0, np.pi] and report.psi == [-np.pi, 0.0]
    assert phase_system_solvable(pow2_normalize(theta)[0]).to_dict() == report.to_dict()


def _bfs_phase_split(theta):
    """``phase_system_solvable(theta).to_dict()`` by the scalar BFS run on
    every support, dense ones included: the reference the dense path must
    match bit for bit."""
    a = np.asarray(theta, dtype=complex)
    d = a.shape[0]
    rows, cols = np.nonzero(a)
    edges = list(zip(rows.tolist(), (cols + d).tolist(), np.angle(a[rows, cols]).tolist()))
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
    two_pi = 2.0 * np.pi
    shifted = False
    for i, j, p in edges:
        gap = (value[i] + value[j]) - p
        if abs(gap - two_pi * round(gap / two_pi)) > forms.PHASE_TOL:
            return PhaseSystemReport(False, len(edges), rank, rank + 1).to_dict()
        shifted = shifted or abs(gap) > forms.PHASE_TOL
    forest = [0.0 if x is None else x for x in value]
    return PhaseSystemReport(True, len(edges), rank, rank, chi=forest[:d], psi=forest[d:],
                             used_shift_enumeration=shifted).to_dict()


_angles = st.floats(-np.pi, np.pi)


@st.composite
def _dense_phase_inputs(draw):
    """d = 1..8 without a zero entry: complex Gaussians; split phases
    chi_i + psi_j, whose sums pass +-pi; the same within a few PHASE_TOL of
    splitting; or real entries whose zero imaginary parts carry either sign
    (argument -pi for a negative entry with -0.0).  Half of them get one zero
    entry, which sends them to the BFS."""
    d = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["gaussian", "split", "near_split", "signed_zeros"]))
    moduli = draw(arrays(float, (d, d), elements=st.floats(1e-3, 10.0)))
    if kind == "gaussian":
        theta = complex_gaussian(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), d)
    elif kind == "signed_zeros":
        theta = np.where(draw(arrays(bool, (d, d))), -moduli, moduli).astype(complex)
        theta.imag = np.where(draw(arrays(bool, (d, d))), -0.0, 0.0)
    else:
        phases = np.add.outer(draw(arrays(float, d, elements=_angles)),
                              draw(arrays(float, d, elements=_angles)))
        if kind == "near_split":
            tol = 3 * forms.PHASE_TOL
            phases += draw(arrays(float, (d, d), elements=st.floats(-tol, tol)))
        theta = moduli * np.exp(1j * phases)
    if draw(st.booleans()):
        theta[draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))] = 0.0
    return theta


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_dense_phase_inputs())
def test_phase_system_matches_the_bfs_bit_for_bit(theta):
    report, reference = phase_system_solvable(theta).to_dict(), _bfs_phase_split(theta)
    assert report == reference
    assert repr(report) == repr(reference)          # signed zeros as well


# --- vector-form maximization ---

def test_max_q_pi6_over_five():
    run = max_q_lower(pi(3) / 5, OptimizerConfig(starts=8, seed=0))
    assert run.best_value >= 6 / 5 - 1e-6


@pytest.mark.parametrize("d", [3, 4])
def test_max_q_reaches_the_trace_supremum_of_the_projector(d):
    # the paper's Q_sup(Pi_N) = N, for Pi_6 and Pi_12
    n = d * (d - 1)
    assert abs(max_q_lower(pi(d), OptimizerConfig(starts=16)).best_value - n) <= 1e-9


def test_max_q_diagonal_ceiling():
    rng = np.random.default_rng(12)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        a *= rng.uniform(0, 1) / np.abs(a).sum()
        run = max_q_lower(np.diag(a), OptimizerConfig(starts=2, seed=1))
        assert run.best_value <= 1.0 + 1e-9


def test_max_q_normal_in_ball_set_ceiling():
    rng = np.random.default_rng(13)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        k = random_normal_matrix(rng, d)
        e_max = largest_singular_value(k)
        if e_max == 0:
            continue
        run = max_q_lower(k / (d * e_max), OptimizerConfig(starts=2, seed=1))
        assert run.best_value <= 1.0 + 1e-9


def test_max_q_dominates_scalar_witnesses():
    rng = np.random.default_rng(14)
    for _ in range(15):
        d = int(rng.integers(2, 6))
        theta = complex_gaussian(rng, d)
        cfg = OptimizerConfig(starts=4, seed=7)
        assert max_q_lower(theta, cfg).best_value >= g_lower(theta, cfg).best_value - 1e-9


def test_max_q_witness_feasible_and_reproduces_value():
    rng = np.random.default_rng(15)
    theta = complex_gaussian(rng, 4)
    run = max_q_lower(theta, OptimizerConfig(starts=4, seed=3))
    x, y = run.best_witness
    val = abs(np.einsum("ij,ik,jk->", theta, x.vectors.conj(), y.vectors))
    assert val == pytest.approx(run.best_value, abs=1e-12)


def test_max_q_deterministic():
    theta = complex_gaussian(np.random.default_rng(16), 4)
    cfg = OptimizerConfig(starts=4, seed=5)
    assert max_q_lower(theta, cfg).best_value == max_q_lower(theta, cfg).best_value


def test_trace_form_bounded_for_certified_matrices():
    # theta scaled inside the unit set, V, W rows in the unit ball: the trace
    # form stays below the 1.4049 ceiling
    rng = np.random.default_rng(17)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        theta = complex_gaussian(rng, d)
        gu = g_upper(theta)
        if gu == 0:
            continue
        theta = theta / gu
        v = to_unit_s(complex_gaussian(rng, d))
        w = to_unit_s(complex_gaussian(rng, d))
        assert eval_Q_trace(theta, v, w) <= K_G_UPPER + 1e-9


# --- classification ---

def test_classify_pi6_scaled_inside_ball_set():
    res = classify(pi(3) / 6, SMALL)
    assert res.in_G_prime
    assert res.in_G == "certified_yes"


def test_classify_pi6_scaled_019():
    # 0.19 * (3 + 2 sqrt 2) > 1: the witness certifies exclusion from the
    # polydisc unit set, and the ball set is already excluded (g' = 1.14)
    res = classify(0.19 * pi(3), OptimizerConfig(starts=16, seed=0))
    assert not res.in_G_prime
    assert res.in_G == "certified_no"
    assert res.g_lower == pytest.approx(0.19 * (3 + 2 * np.sqrt(2)), abs=1e-6)


def test_classify_single_entry():
    theta = np.zeros((3, 3))
    theta[0, 1] = 1.0
    res = classify(theta, SMALL)
    assert res.in_G == "certified_yes"
    assert not res.in_G_prime
    assert not res.necessary_condition_GRO10    # l1 = 1 is not > 1


def test_classify_unknown_band():
    # 0.168 * Pi_6: g' = 1.008 > 1 but the witness value 0.979 < 1: unknown
    res = classify(0.168 * pi(3), OptimizerConfig(starts=16, seed=0))
    assert not res.in_G_prime
    assert res.in_G == "unknown"
    assert res.g_lower <= res.g_upper + 1e-8


def test_classify_pi6_keeps_its_closed_form_upper_bound():
    # the SDP optimum of Pi_6 has rank above one (Q_sup = 6 > g = 3 + 2 sqrt(2)),
    # so no dual passes below 6
    theta = pi(3)
    res = classify(theta, OptimizerConfig(starts=16, seed=0))
    assert res.g_upper == g_upper(theta) == pytest.approx(6, rel=1e-15)
    assert res.upper_source in ("l1", "ball")


def test_witness_dual_closes_the_bracket_on_most_small_gaussians():
    # the dual of the pairing x = conj(s) meets the witness value wherever the
    # SDP optimum has rank one; the pairing x = s closes none of these
    rng = np.random.default_rng(31)
    cfg = OptimizerConfig(starts=16)
    closed = 0
    for i in range(60):
        res = classify(complex_gaussian(rng, 2 + i % 3), cfg)
        closed += res.upper_source == "dual" and res.g_upper <= res.g_lower * (1 + 1e-9)
    assert closed >= 30


def test_witness_tuples_are_read_only_copies():
    source = np.ones(2, dtype=complex)
    s = PolydiscTuple(source)
    source[:] = 5
    assert eval_C(np.eye(2), s, s) == 2.0
    with pytest.raises(ValueError, match="read-only"):
        s.values[:] = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.values = np.full(2, 5.0)
    v = VectorTuple(np.eye(2))
    with pytest.raises(ValueError, match="read-only"):
        v.vectors[0, 0] = 3.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.vectors = np.full((2, 2), 3.0)


def test_optimizer_runs_and_classifications_are_read_only():
    res = classify(pi(3) / 6, SMALL)
    run = g_lower(pi(3), SMALL)
    with pytest.raises(dataclasses.FrozenInstanceError):
        run.best_value = 100.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.g_upper = 0.5


def test_classify_necessary_conditions_fields():
    res = classify(pi(3) / 6, SMALL)
    assert res.necessary_for_G_prime["l1_le_d"]
    assert res.necessary_for_G_prime["frobenius_le_1"]
    # the largest entry of Pi_6 / 6 is 1/12 <= 1/6
    assert res.necessary_for_G_prime["entry_max_le_inv_d"] is True


def test_classify_necessary_flags_hold_on_the_ball_set_boundary():
    # g' = 1 + 5e-11 is inside the ball set's tolerance, and so is d * max|theta_ij|
    res = classify(np.diag([0.5 * (1 + 5e-11), 0.0]), SMALL)
    assert res.in_G_prime
    assert all(res.necessary_for_G_prime.values())


def _structured_matrices(rng):
    # witness values on these are often one ulp above the upper bound
    yield np.eye(1)
    yield np.ones((2, 2))
    # a subnormal rank-one projector: d * s_max rounds again when scaled back
    yield np.array([[1018, 473 + 894j], [473 - 894j, 1006]]) * 2.0 ** -1074
    for d in range(1, 7):
        for _ in range(4):
            yield random_projector(rng, d, int(rng.integers(1, d + 1)))
            yield np.outer(rng.standard_normal(d), rng.standard_normal(d))
            yield np.diag(rng.standard_normal(d))


def test_classify_bracket_orders():
    rng = np.random.default_rng(18)
    cfg = OptimizerConfig(starts=16)
    gaussians = [complex_gaussian(rng, int(rng.integers(2, 6))) for _ in range(20)]
    for theta in [*gaussians, *_structured_matrices(rng)]:
        res = classify(theta, cfg)
        assert res.g_lower <= res.g_upper
        assert res.g_lower <= res.g_prime
        assert res.g_upper <= res.l1_norm + 1e-12
        # classify reports the public bounds bit for bit; its upper end is the
        # smaller of the closed form and the dual of its own witness
        assert res.g_prime == g_prime(theta)
        b, k = pow2_normalize(theta)
        s, t = res.witnesses
        dual = float(pow2_scale(forms._witness_dual(b, s.values, t.values), k))
        assert res.g_upper == min(g_upper(theta), dual)
        assert res.g_upper <= g_upper(theta)
        assert res.l1_norm == norm_entrywise_l1(theta)
        assert res.g_lower == min(g_lower(theta, cfg).best_value, res.g_upper)
        assert res.g_upper <= res.g_prime


def test_classify_and_max_q_lower_reach_the_traced_layers(monkeypatch):
    # perfbench's per-layer figures time g_lower, largest_singular_value and
    # phase_system_solvable through forms' module attributes; each call must
    # go through them
    calls = {"g_lower": 0, "largest_singular_value": 0, "phase_system_solvable": 0}

    def counted(name):
        inner = getattr(forms, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(forms, name, counted(name))
    theta = complex_gaussian(np.random.default_rng(5), 3)
    classify(theta, SMALL)
    assert calls == {"g_lower": 1, "largest_singular_value": 1, "phase_system_solvable": 1}
    max_q_lower(theta, SMALL)
    assert calls == {"g_lower": 2, "largest_singular_value": 1, "phase_system_solvable": 2}


def test_classify_at_the_top_of_the_float_range():
    # ||theta||_1 = 1.1e308 is a float, the scale 2^1024 of theta is not;
    # g' = 2e308 overflows, so the scaling entry built from it is not checked
    res = classify(np.diag([1e308, 1e307]), SMALL)
    assert res.g_upper == res.l1_norm == 1.1e308
    assert res.g_lower == pytest.approx(1.1e308, rel=1e-15, abs=0)
    assert res.in_G == "certified_no"


def test_classify_ball_scale_when_g_prime_overflows():
    # g' = 2e308 is past the float range, its inverse 5e-309 is a float
    res = classify(np.diag([1e308, 1e307]), SMALL)
    assert res.g_prime == np.inf
    assert res.scaling["lambda_max_in_G_prime"] == pytest.approx(5e-309, rel=1e-14, abs=0)


def test_bounds_past_the_float_range_are_inf_without_warning():
    # g = ||theta||_1 = 4e308 and g' = 4e308 are past the float range;
    # RuntimeWarnings are errors in this suite
    m = np.full((2, 2), 1e308)
    assert g_prime(m) == g_upper(m) == np.inf
    for run in (g_lower(m, SMALL), max_q_lower(m, SMALL)):
        assert run.best_value == np.inf
        assert max(run.per_start_values) == np.inf


def test_classify_scales_when_every_bound_is_past_the_float_range():
    # each scale is 1/4e308 = 2.5e-309, a float, although no bound is
    res = classify(np.full((2, 2), 1e308), SMALL)
    assert res.g_lower == res.g_upper == res.g_prime == np.inf
    assert res.in_G == "certified_no"
    assert set(res.scaling) == {"lambda_max_in_G_prime", "lambda_certified_outside_G_beyond",
                                "lambda_max_certified_in_G"}
    for scale in res.scaling.values():
        assert scale == pytest.approx(2.5e-309, rel=1e-14, abs=0)


def test_classify_ball_scale_is_the_inverse_of_a_finite_g_prime():
    rng = np.random.default_rng(21)
    for m in [complex_gaussian(rng, 4), np.diag([1e307, 1e306]), np.diag([1e-300, 0])]:
        res = classify(m, SMALL)
        assert res.scaling["lambda_max_in_G_prime"] == 1.0 / res.g_prime


def test_max_q_lower_at_the_top_of_the_float_range():
    # the trace-form supremum of a diagonal theta is ||theta||_1
    run = max_q_lower(np.diag([1e308, 1e307]), SMALL)
    assert run.best_value == pytest.approx(1.1e308, rel=1e-15, abs=0)
    assert max(run.per_start_values) == run.best_value


def test_classify_gro10_condition():
    res = classify(pi(3) / 6, SMALL)
    # l1 = 1.5 > 1 and membership is certified: the necessary condition holds
    assert res.l1_norm == pytest.approx(1.5, abs=1e-12)
    assert res.necessary_condition_GRO10


# --- region labels ---

def test_region_labels():
    assert kg_region_check(0.99) == "classical"
    assert kg_region_check(1.2) == "grothendieck"
    assert kg_region_check(6 / 5) == "grothendieck"
    assert kg_region_check(1.5) == "exceeds"
    assert kg_region_check(1.0 + 5e-10) == "classical"
    assert kg_region_check(K_G_UPPER + 5e-10) == "grothendieck"
    with pytest.raises(InputValidationError):
        kg_region_check(-0.1)


def test_unitary_conjugation_changes_g():
    # polydisc supremum is basis dependent: diag(1,0) conjugated by Fourier
    theta = np.diag([1.0, 0.0])
    u = fourier_matrix(2)
    g1 = g_lower(theta, OptimizerConfig(starts=8, seed=0)).best_value
    g2 = g_lower(u @ theta @ u.conj().T, OptimizerConfig(starts=8, seed=0)).best_value
    assert g1 == pytest.approx(1.0, abs=1e-9)
    assert g2 == pytest.approx(2.0, abs=1e-9)
