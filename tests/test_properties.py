"""Property tests for the alternating-phase kernels, the phase-system solver,
the unit-set verdicts and the LAPACK-backed linear algebra."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from grothq import (
    OptimizerConfig,
    eval_C,
    eval_Q_trace,
    g_lower,
    g_upper,
    hermitian_eig,
    is_normal,
    largest_singular_value,
    max_q_lower,
    norm_entrywise_l1,
    norm_frobenius,
    norm_report,
    normalization_factor,
    phase_system_solvable,
    row_norms,
)
from grothq.experiments import _h6_norm_sq, _h6_phase_ascent
from grothq.forms import G_PRIME_TOL, classify, g_prime, unit_set_verdicts
from grothq.linalg import pow2_normalize, pow2_split

# derandomized so that every run of the suite checks the same examples
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

entries = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
configs = st.builds(OptimizerConfig, starts=st.integers(1, 8), seed=st.integers(0, 2**16))


@st.composite
def matrices(draw, max_d=6):
    d = draw(st.integers(2, max_d))
    return draw(arrays(complex, (d, d), elements=entries))


@st.composite
def vectors(draw, max_d=6):
    d = draw(st.integers(2, max_d))
    return draw(arrays(complex, d, elements=entries))


# Relative precision ends at the smallest normal float: a value below it has
# fewer than 53 significant bits, whatever computes it, so relative
# tolerances are taken against max(|value|, TINY).
TINY = np.finfo(float).tiny


def close(value, reference, rel):
    return abs(value - reference) <= rel * max(abs(reference), TINY)


# 2^TOP times an entry of modulus 8..10 lies in the float range's top binade,
# [2^1023, 2^1024), whose scale 2^1024 is not a float
TOP = 1020


def fits(value, j):
    """True iff 2^j * value is a finite float."""
    return np.frexp(value)[1] + j <= 1024


@PROPERTY
@given(matrices(), configs)
def test_g_lower_below_g_upper(theta, cfg):
    assert g_lower(theta, cfg).best_value <= g_upper(theta) * (1 + 1e-12) + 1e-12 * TINY


@PROPERTY
@given(matrices(), configs)
def test_witness_reevaluates_to_best_value(theta, cfg):
    run = g_lower(theta, cfg)
    s, t = run.best_witness
    assert close(eval_C(theta, s, t), run.best_value, 1e-12)


@PROPERTY
@given(vectors(), st.data(), configs)
def test_rank_one_reaches_l1(x, data, cfg):
    y = data.draw(arrays(complex, x.size, elements=entries))
    theta = np.outer(x, y)
    assert close(g_lower(theta, cfg).best_value, norm_entrywise_l1(theta), 1e-12)


@PROPERTY
@given(vectors(), configs)
def test_diagonal_reaches_l1(a, cfg):
    theta = np.diag(a)
    assert close(g_lower(theta, cfg).best_value, norm_entrywise_l1(theta), 1e-12)


@PROPERTY
@given(matrices(), st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                                      allow_nan=False, allow_infinity=False), configs)
def test_g_lower_absolutely_homogeneous(theta, z, cfg):
    base = g_lower(theta, cfg).best_value
    assert close(g_lower(z * theta, cfg).best_value, abs(z) * base, 1e-9)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(matrices(), configs)
def test_max_q_lower_dominates_g_lower(theta, cfg):
    scalar = g_lower(theta, cfg).best_value
    assert max_q_lower(theta, cfg).best_value >= scalar * (1 - 1e-12) - 1e-12 * TINY


@settings(max_examples=40, deadline=None, derandomize=True)
@given(matrices(), st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**16))
def test_max_q_lower_starts_are_independent(theta, k, extra, seed):
    # start 0 embeds the g_lower witness, which depends on every start
    few = max_q_lower(theta, OptimizerConfig(starts=k, seed=seed)).per_start_values
    many = max_q_lower(theta, OptimizerConfig(starts=k + extra, seed=seed)).per_start_values
    assert all(close(a, b, 1e-12) for a, b in zip(few[1:k + 1], many[1:k + 1]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(matrices(), configs, st.data())
def test_max_q_lower_witness_valid_with_zero_rows_and_columns(theta, cfg, data):
    d = theta.shape[0]
    indices = st.lists(st.integers(0, d - 1), min_size=1, max_size=d - 1)
    theta[data.draw(indices), :] = 0
    theta[:, data.draw(indices)] = 0
    run = max_q_lower(theta, cfg)
    x, y = run.best_witness
    x.validate()
    y.validate()
    value = abs(np.einsum("ij,ik,jk->", theta, x.scaled().conj(), y.scaled()))
    assert close(value, run.best_value, 1e-12)


def unit_rows(z, keep):
    """Each row of z over its Euclidean norm (a zero row takes the row of
    ``keep``), and the norms; rows are scaled by their largest modulus first."""
    units, norms = keep.astype(complex), np.zeros(z.shape[0])
    for i, row in enumerate(z):
        top = np.abs(row).max()
        if top > 0:
            w = row / top
            norm = np.sqrt(np.sum(np.abs(w) ** 2))
            units[i], norms[i] = w / norm, top * norm
    return units, norms


def reference_max_q_values(theta, cfg):
    """max_q_lower's per-start values from a plain complex alternation, one
    start at a time: the same starts, settle rule and round cap."""
    b, e = pow2_normalize(theta)
    d = b.shape[0]
    s, t = g_lower(theta, cfg).best_witness
    e0 = np.eye(d)[0]
    starts = [(np.outer(s.values.conj(), e0), np.outer(t.values, e0))]
    for k in range(cfg.starts):
        r = np.random.default_rng(cfg.seed ^ k).standard_normal((4, d, d))
        x, y = r[0] + 1j * r[1], r[2] + 1j * r[3]
        starts.append((unit_rows(x, x)[0], unit_rows(y, y)[0]))
    values = []
    for x, y in starts:
        q = abs(np.sum(x.conj() * (b @ y)))
        for _ in range(cfg.max_iterations):
            y = unit_rows(b.conj().T @ x, y)[0]
            x, norms = unit_rows(b @ y, x)
            q, q_prev = norms.sum(), q
            if abs(q - q_prev) < 1e-3 * cfg.phase_tolerance:
                break
        values.append(np.ldexp(q, e))
    return values


@settings(max_examples=60, deadline=None, derandomize=True)
@given(matrices(), configs, st.data())
def test_max_q_lower_matches_a_per_start_complex_alternation(theta, cfg, data):
    d = theta.shape[0]
    lines = st.lists(st.integers(0, d - 1), max_size=d - 1)
    theta[data.draw(lines), :] = 0
    theta[:, data.draw(lines)] = 0
    theta[data.draw(lines), :] *= 1e-160              # their updates take the careful path
    run = max_q_lower(theta, cfg)
    reference = reference_max_q_values(theta, cfg)
    assert all(close(v, r, 1e-12) for v, r in zip(run.per_start_values, reference))
    assert len(run.per_start_values) == len(reference)


def ldexp(m, k):
    """m * 2^k, entrywise on the real and imaginary parts."""
    return np.ldexp(m.real, k) + 1j * np.ldexp(m.imag, k)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(matrices(), st.sampled_from([-600, 600, TOP]), configs)
def test_max_q_lower_scales_exactly_by_powers_of_two(m, j, cfg):
    # theta and 2^j theta normalize to the same matrix; for j < 0 theta is
    # built as 2^-j times a scaled-down m, so that 2^j theta is exact
    theta = ldexp(ldexp(m, j), -j) if j < 0 else m
    run = max_q_lower(theta, cfg)
    assume(fits(run.best_value, j))
    scaled = max_q_lower(ldexp(theta, j), cfg)
    assert scaled.best_value == 2.0 ** j * run.best_value
    assert scaled.per_start_values == [2.0 ** j * v for v in run.per_start_values]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(matrices(), configs, st.integers(0, 5), st.booleans(), st.sampled_from([1e-300, 1e-160]))
def test_max_q_lower_witness_valid_with_tiny_row_or_column(theta, cfg, index, row, scale):
    # the tiny line's updates have norms whose squares underflow
    index %= theta.shape[0]
    if row:
        theta[index, :] *= scale
    else:
        theta[:, index] *= scale
    run = max_q_lower(theta, cfg)
    x, y = run.best_witness
    x.validate()
    y.validate()
    assert close(eval_Q_trace(theta, y.scaled(), x.scaled()), run.best_value, 1e-12)
    assert run.best_value >= g_lower(theta, cfg).best_value * (1 - 1e-12) - 1e-12 * TINY


# --- largest singular value and Hermitian eigendecomposition ---

@PROPERTY
@given(matrices())
def test_smax_matches_svd(m):
    assert close(largest_singular_value(m), np.linalg.svd(m, compute_uv=False)[0], 1e-12)


@PROPERTY
@given(matrices(), st.sampled_from([-1070, -600, 600, TOP]))
def test_smax_scales_exactly_by_powers_of_two(m, k):
    # scaling up by 2^j is exact, scaling down may round entries that
    # underflow: build the pair (small, big = 2^j small) by scaling up, then
    # compare the big result scaled down, a single rounding like the small one
    j = abs(k)
    small = ldexp(m, k) if k < 0 else m
    assume(fits(largest_singular_value(small), j))
    big = ldexp(small, j)
    assert largest_singular_value(small) == 2.0 ** -j * largest_singular_value(big)


@PROPERTY
@given(matrices(), st.sampled_from([-1070, -600, 600, TOP]))
def test_hermitian_eig_scales_exactly_by_powers_of_two(m, k):
    # the pair (small, big = 2^j small) is built as in the s_max test above;
    # rounding keeps a Hermitian matrix Hermitian
    j = abs(k)
    h = m + m.conj().T
    small = ldexp(h, k) if k < 0 else h
    assume(fits(largest_singular_value(small), j))
    big = ldexp(small, j)
    assert np.array_equal(hermitian_eig(small).eigenvalues,
                          2.0 ** -j * hermitian_eig(big).eigenvalues)


@PROPERTY
@given(matrices(), st.sampled_from([-600, 600, TOP]))
def test_row_and_frobenius_norms_scale_exactly_by_powers_of_two(m, k):
    # the pair (small, big = 2^j small) is built as in the s_max test above
    j = abs(k)
    small = ldexp(m, k) if k < 0 else m
    assume(fits(norm_frobenius(small), j))
    big = ldexp(small, j)
    assert np.array_equal(row_norms(small), 2.0 ** -j * row_norms(big))
    assert normalization_factor(small) == 2.0 ** -j * normalization_factor(big)
    assert norm_frobenius(small) == 2.0 ** -j * norm_frobenius(big)
    rep_small, rep_big = norm_report(small), norm_report(big)
    assert rep_small.upper_bound == 2.0 ** -j * rep_big.upper_bound
    assert rep_small.all_rows_equal == rep_big.all_rows_equal
    assert rep_small.single_nonzero_row == rep_big.single_nonzero_row
    # is_normal's tolerance has an absolute term, negligible once ||M||_F >
    # 2^60; from there on the verdict is that of the pow2_normalized matrix
    if norm_frobenius(big) > 2.0 ** 60:
        assert is_normal(big) == is_normal(ldexp(pow2_normalize(big)[0], 100))
    scales = (small, big) if fits(2 * norm_frobenius(small), j) else (small,)
    for h in (x + x.conj().T for x in scales):
        assert hermitian_eig(h).residual <= 1e-12 * norm_frobenius(h)


@st.composite
def split_inputs(draw):
    """A real or complex (n, d, k) array of moduli from subnormal to huge,
    and an axis argument for pow2_split."""
    dtype, elements = draw(st.sampled_from([
        (float, st.floats(allow_nan=False, allow_infinity=False)),
        # moduli above the largest float would overflow np.abs
        (complex, st.complex_numbers(max_magnitude=1e307, allow_nan=False,
                                     allow_infinity=False)),
    ]))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(3))
    a = draw(arrays(dtype, shape, elements=elements))
    return a, draw(st.sampled_from([None, 1, (1, 2), ()]))


@PROPERTY
@given(split_inputs())
def test_pow2_split_scales_each_slice_exactly(a_axis):
    a, axis = a_axis
    b, e = pow2_split(a, axis)
    top_a = np.abs(a).max(axis=axis, keepdims=True)
    assert e.shape == top_a.shape
    # scaling up is exact; scaling down rounds only the parts that land
    # below TINY, by at most half a subnormal step
    back = ldexp(b, e)
    for part_b, part_back, part_a in ((b.real, back.real, a.real), (b.imag, back.imag, a.imag)):
        exact = (e <= 0) | (part_a == 0) | (np.abs(part_b) >= TINY)
        assert np.array_equal(part_back[exact], part_a[exact])
        assert np.all(np.abs(part_back - part_a) <= np.ldexp(1.0, e - 1075))
    top_b = np.abs(b).max(axis=axis, keepdims=True)
    assert np.all(e[top_a == 0] == 0)
    # below TINY np.abs rounds the modulus of a complex entry to the
    # subnormal grid, so it can cross a power of two
    checked = top_a >= TINY if np.iscomplexobj(a) else top_a > 0
    assert np.all((0.5 <= top_b[checked]) & (top_b[checked] < 1))


@PROPERTY
@given(matrices())
def test_hermitian_eig_descending_with_small_residual(m):
    h = m + m.conj().T
    dec = hermitian_eig(h)
    assert np.all(np.diff(dec.eigenvalues) <= 0)
    assert dec.residual <= 1e-12 * (1 + norm_frobenius(h))


# --- phase system phi_ij = chi_i + psi_j (mod 2 pi) ---

angles = st.floats(-np.pi, np.pi)


@st.composite
def supports(draw, max_d=8):
    """(d, d) boolean support of the nonzero entries."""
    d = draw(st.integers(1, max_d))
    return draw(arrays(bool, (d, d)))


@st.composite
def split_phase_matrices(draw):
    """D1 |M| D2 on a random support, with D1, D2 diagonal unitaries."""
    mask = draw(supports())
    d = mask.shape[0]
    moduli = draw(arrays(float, (d, d), elements=st.floats(1e-3, 10.0)))
    chi = draw(arrays(float, d, elements=angles))
    psi = draw(arrays(float, d, elements=angles))
    return np.exp(1j * chi)[:, None] * (mask * moduli) * np.exp(1j * psi)[None, :]


# moduli of normal range, so that a diagonal unitary moves each phase by at
# most a few ulps instead of rounding a subnormal entry to another phase
normal_entries = st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0,
                                    allow_nan=False, allow_infinity=False)


@st.composite
def sparse_matrices(draw):
    """Arbitrary entries on a random support: mostly unsolvable when cycles exist."""
    mask = draw(supports())
    return mask * draw(arrays(complex, mask.shape, elements=normal_entries))


def coefficient_matrix(theta):
    """The 0/1 matrix with one row e_i + e_(d+j) per nonzero entry theta_ij."""
    d = theta.shape[0]
    rows, cols = np.nonzero(theta)
    coeff = np.zeros((rows.size, 2 * d))
    coeff[np.arange(rows.size), rows] = 1.0
    coeff[np.arange(rows.size), d + cols] = 1.0
    return coeff


def wrapped(x):
    return (np.asarray(x) + np.pi) % (2 * np.pi) - np.pi


@PROPERTY
@given(split_phase_matrices())
def test_split_phases_solvable_with_witness(theta):
    report = phase_system_solvable(theta)
    assert report.solvable
    rows, cols = np.nonzero(theta)
    gap = np.array(report.chi)[rows] + np.array(report.psi)[cols] - np.angle(theta[rows, cols])
    assert np.all(np.abs(wrapped(gap)) <= 1e-8)


@PROPERTY
@given(split_phase_matrices(), configs)
def test_split_phases_reach_l1(theta, cfg):
    assert close(g_lower(theta, cfg).best_value, norm_entrywise_l1(theta), 1e-12)


@PROPERTY
@given(st.one_of(sparse_matrices(), split_phase_matrices()), st.data())
def test_phase_verdict_invariant(theta, data):
    d = theta.shape[0]
    verdict = phase_system_solvable(theta).solvable
    p = data.draw(st.permutations(range(d)))
    q = data.draw(st.permutations(range(d)))
    assert phase_system_solvable(theta[np.ix_(p, q)]).solvable == verdict
    u = np.exp(1j * data.draw(arrays(float, d, elements=angles)))
    v = np.exp(1j * data.draw(arrays(float, d, elements=angles)))
    assert phase_system_solvable(u[:, None] * theta * v[None, :]).solvable == verdict


@PROPERTY
@given(st.one_of(sparse_matrices(), split_phase_matrices()))
def test_phase_ranks_match_matrix_rank(theta):
    report = phase_system_solvable(theta)
    coeff = coefficient_matrix(theta)
    rank = int(np.linalg.matrix_rank(coeff)) if coeff.size else 0
    assert report.rank_coefficient == rank
    if not report.solvable:
        # an unsolvable system is inconsistent at face value too
        rhs = np.angle(theta[np.nonzero(theta)])
        assert report.rank_augmented == report.rank_coefficient + 1
        assert np.linalg.matrix_rank(np.column_stack([coeff, rhs])) == rank + 1


# points of the closed unit polydisc in C^6, a few per example
polydisc_points = st.integers(1, 4).flatmap(lambda k: arrays(
    complex, (k, 6), elements=st.complex_numbers(
        max_magnitude=1.0, allow_nan=False, allow_infinity=False)))


@PROPERTY
@given(polydisc_points)
def test_h6_phase_ascent_step_never_lowers_f(t):
    before = _h6_norm_sq(t)
    _, after = _h6_phase_ascent(t, max_rounds=1)
    assert np.all(after >= before * (1 - 1e-12))


@PROPERTY
@given(polydisc_points)
def test_h6_phase_ascent_stays_below_max_f(t):
    _, values = _h6_phase_ascent(t)
    assert values.max() <= 2 * (3 + 2 * np.sqrt(2)) * (1 + 1e-12)


# --- unit-set verdicts ---

@PROPERTY
@given(matrices(), configs, st.floats(0.5, 2.0))
def test_classify_verdicts_follow_the_one_rule(m, cfg, factor):
    upper = g_upper(m)
    theta = m * (factor / upper) if upper else m     # brackets on both sides of 1
    res = classify(theta, cfg)
    assert (res.in_G_prime, res.in_G) == unit_set_verdicts(res.g_lower, res.g_upper,
                                                           res.g_prime)


@st.composite
def ball_boundary_matrices(draw):
    """Diagonal, single-entry and uniform matrices scaled to g' in [1 - 1e-9, 1 + tol]."""
    d = draw(st.integers(2, 6))
    z = draw(entries.filter(lambda x: abs(x) > 1e-3))
    kind = draw(st.sampled_from(["diagonal", "single", "uniform"]))
    if kind == "diagonal":
        m = np.diag(draw(arrays(complex, d, elements=entries)))
        m[0, 0] = z
    elif kind == "single":
        m = np.zeros((d, d), dtype=complex)
        m[draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))] = z
    else:
        m = np.full((d, d), z)
    return m * (draw(st.floats(1 - 1e-9, 1 + G_PRIME_TOL)) / g_prime(m))


@PROPERTY
@given(ball_boundary_matrices())
def test_in_g_prime_implies_the_necessary_flags(theta):
    res = classify(theta, OptimizerConfig(starts=1))
    if res.in_G_prime:
        assert all(res.necessary_for_G_prime.values()), res.necessary_for_G_prime
