"""Property tests for the alternating-phase kernels g_lower and max_q_lower."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from grothq import (
    OptimizerConfig,
    eval_C,
    g_lower,
    g_upper,
    max_q_lower,
    norm_entrywise_l1,
)

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
