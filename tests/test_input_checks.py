"""Every scalar parameter follows one rule (``linalg.require_int`` and
``linalg.require_real``), and every boundary check of a public entry raises
InputValidationError."""

import json

import numpy as np
import pytest

from grothq import (
    InputValidationError,
    OptimizerConfig,
    PolydiscTuple,
    VectorTuple,
    build_family,
    certify_g6,
    displacement_operator,
    eval_C,
    eval_Q_trace,
    expand_state,
    fourier_matrix,
    g_lower,
    kg_region_check,
    matrix_from_dict,
    matrix_to_dict,
    overlap_power_sum,
    permutation_matrix,
    run_bounded_demo,
    run_h6,
    run_h12,
    run_rarity,
    torus_witness,
)
from grothq.ensembles import random_projector
from grothq.linalg import as_matrix, require_square
from grothq.matrix_io import complex_pairs

FAMILY3 = build_family(3)


def _rng():
    return np.random.default_rng(0)


def _g_lower(**config):
    return g_lower(np.eye(2), OptimizerConfig(**{"starts": 2, **config})).to_dict()


def _rarity(samples=2, seed=1, starts=2, dim=3):
    records = []
    stats = run_rarity("random_normal", samples, seed, starts, dim=dim, sink=records.append)
    return [records, stats.to_dict()]


def _family(d):
    family = build_family(d)
    return [family.dim, family.count, family.recipe, matrix_to_dict(family.states)]


def _one_by_one(rows, cols):
    return matrix_to_dict(matrix_from_dict({"rows": rows, "cols": cols, "entries": [[1.0, 0.0]]}))


# (call, valid value): call(value) returns the result as a JSON-ready document
INTEGERS = {
    "OptimizerConfig.starts": (lambda v: _g_lower(starts=v), 3),
    "OptimizerConfig.seed": (lambda v: _g_lower(seed=v), 3),
    "OptimizerConfig.max_iterations": (lambda v: _g_lower(max_iterations=v), 5),
    "run_bounded_demo.d": (lambda v: run_bounded_demo(v, 2, 1).to_dict(), 3),
    "run_bounded_demo.samples": (lambda v: run_bounded_demo(3, v, 1).to_dict(), 2),
    "run_bounded_demo.seed": (lambda v: run_bounded_demo(3, 2, v).to_dict(), 1),
    "run_rarity.samples": (lambda v: _rarity(samples=v), 2),
    "run_rarity.dim": (lambda v: _rarity(dim=v), 3),
    "run_rarity.seed": (lambda v: _rarity(seed=v), 1),
    "run_rarity.starts": (lambda v: _rarity(starts=v), 2),
    "certify_g6.starts": (lambda v: certify_g6(v, 3).to_dict(), 16),
    "certify_g6.seed": (lambda v: certify_g6(16, v).to_dict(), 3),
    "displacement_operator.d": (lambda v: matrix_to_dict(displacement_operator(v, 1, 2)), 3),
    "displacement_operator.a": (lambda v: matrix_to_dict(displacement_operator(5, v, 2)), 3),
    "displacement_operator.b": (lambda v: matrix_to_dict(displacement_operator(5, 1, v)), 3),
    "random_projector.rank": (lambda v: matrix_to_dict(random_projector(_rng(), 3, v)), 2),
    "torus_witness.d": (lambda v: [complex_pairs(torus_witness(v)[0]), torus_witness(v)[1]], 4),
    "build_family.d": (_family, 3),
    "overlap_power_sum.i": (lambda v: overlap_power_sum(FAMILY3, v, 2), 1),
    "overlap_power_sum.r": (lambda v: overlap_power_sum(FAMILY3, 0, v), 2),
    "fourier_matrix.d": (lambda v: matrix_to_dict(fourier_matrix(v)), 3),
    "permutation_matrix.entry": (lambda v: matrix_to_dict(permutation_matrix([v, 0])), 1),
    "matrix_from_dict.rows": (lambda v: _one_by_one(v, 1), 1),
    "matrix_from_dict.cols": (lambda v: _one_by_one(1, v), 1),
}
REALS = {
    "kg_region_check.q": (kg_region_check, 1.2),
    "run_h6.lambda": (lambda v: run_h6(v).to_dict(), 0.1),
    "run_h12.lambda": (lambda v: run_h12(v).to_dict(), 0.05),
}


# 2.5 is a valid real, so the real parameters are fed nan, and an int past
# the float range, in its place
@pytest.mark.parametrize("call, valid, numpy_type, bad_values", [
    *(pytest.param(call, valid, np.int64, (True, 2.5, "3", np.True_), id=name)
      for name, (call, valid) in INTEGERS.items()),
    *(pytest.param(call, valid, np.float64, (True, float("nan"), 10**400, "3", np.True_),
                   id=name)
      for name, (call, valid) in REALS.items()),
])
def test_scalar_parameters_follow_one_rule(call, valid, numpy_type, bad_values):
    for bad in bad_values:
        with pytest.raises(InputValidationError):
            call(bad)
    assert json.dumps(call(numpy_type(valid))) == json.dumps(call(valid))


# the message of each range check, met after the type check passes
RANGES = {
    "build_family.d": (lambda: build_family(1), "^dimension must be >= 2$"),
    "run_bounded_demo.samples": (lambda: run_bounded_demo(3, 0, 1), "^samples must be >= 1$"),
    "run_bounded_demo.seed": (lambda: run_bounded_demo(3, 2, -1),
                               "^seed must be a non-negative integer$"),
    "run_rarity.dim": (lambda: _rarity(dim=1), "^dimension must be >= 2$"),
    "displacement_operator.d": (lambda: displacement_operator(1, 0, 0),
                                 "^dimension must be >= 2$"),
    "displacement_operator.odd": (lambda: displacement_operator(4, 0, 0), "need odd d, got 4"),
    "random_projector.rank": (lambda: random_projector(_rng(), 3, 0), "^rank must be >= 1$"),
    "random_projector.rank_d": (lambda: random_projector(_rng(), 3, 4),
                                r"^rank must be in 1\.\.3, got 4$"),
    "torus_witness.d": (lambda: torus_witness(1), "^dimension must be >= 2$"),
    "overlap_power_sum.i": (lambda: overlap_power_sum(FAMILY3, -1, 2),
                             "^state index must be a non-negative integer$"),
    "overlap_power_sum.i_count": (lambda: overlap_power_sum(FAMILY3, 6, 2),
                                   "^state index 6 out of range$"),
    "overlap_power_sum.r": (lambda: overlap_power_sum(FAMILY3, 0, 0), "^power must be >= 1$"),
    "fourier_matrix.d": (lambda: fourier_matrix(0), "^dimension must be >= 1$"),
    "permutation_matrix.entry": (lambda: permutation_matrix([-1, 0]),
                                  "^permutation entry must be a non-negative integer$"),
    "permutation_matrix.bijection": (lambda: permutation_matrix([0, 0]), "not a permutation"),
    "matrix_from_dict.rows": (lambda: _one_by_one(0, 1), "^rows must be >= 1$"),
    "matrix_from_dict.cols": (lambda: _one_by_one(1, 2.0), "^cols must be an integer, got 2.0$"),
    "kg_region_check.negative": (lambda: kg_region_check(-0.5), "non-negative"),
    "kg_region_check.inf": (lambda: kg_region_check(float("inf")),
                             "^q must be a finite real, got inf$"),
    "run_h6.lambda_range": (lambda: run_h6(0.5), "outside the admissible range"),
}


@pytest.mark.parametrize("call, message", RANGES.values(), ids=RANGES.keys())
def test_range_checks_follow_the_type_checks(call, message):
    with pytest.raises(InputValidationError, match=message):
        call()


# --- boundary checks of the matrix and tuple entries ---

def test_require_square_rejects_a_wide_matrix():
    with pytest.raises(InputValidationError, match=r"square matrix, got shape \(2, 3\)"):
        require_square(np.ones((2, 3)))


@pytest.mark.parametrize("m", [np.ones(3), np.zeros((0, 0))], ids=["1-D", "0x0"])
def test_as_matrix_rejects_what_is_not_a_matrix(m):
    with pytest.raises(InputValidationError, match="expected a 2-D matrix"):
        as_matrix(m)


# an inf or NaN entry is outside the set too, and is rejected with no
# RuntimeWarning (which pytest turns into an error here)
@pytest.mark.parametrize("make", [
    lambda: PolydiscTuple([1.0, 1.5]),
    lambda: PolydiscTuple([1.0, complex(0.0, np.inf)]),
    lambda: PolydiscTuple([np.nan, 0.5]),
    lambda: VectorTuple([[np.nan, 0], [0, 1]]),
    lambda: VectorTuple([[np.inf, 0], [0, 1]]),
    lambda: VectorTuple(np.ones(2)),
], ids=["polydisc", "polydisc-inf", "polydisc-nan", "nan-row", "inf-row", "1-D"])
def test_a_tuple_outside_its_set_cannot_be_made(make):
    with pytest.raises(InputValidationError):
        make()


# (rows, inside the unit ball): VectorTuple and eval_Q_trace share one row check
BALL_ROWS = {
    "unit": (np.array([[1.0, 0.0], [0.6, 0.8j]]), True),
    "1+1e-9": (np.diag([1.0 + 1e-9, 1.0]), False),
    "1e-200": (np.full((2, 2), 1e-200), True),
    "1e200": (np.full((2, 2), 1e200), False),
}


@pytest.mark.parametrize("rows, inside", BALL_ROWS.values(), ids=BALL_ROWS.keys())
def test_vector_tuple_and_eval_q_trace_agree_on_the_ball(rows, inside):
    verdicts = []
    for check in (VectorTuple, lambda v: eval_Q_trace(np.eye(2), v, np.eye(2)),
                  lambda w: eval_Q_trace(np.eye(2), np.eye(2), w)):
        try:
            check(rows)
            verdicts.append(True)
        except InputValidationError as err:
            assert "leaves the unit ball" in str(err)
            verdicts.append(False)
    assert verdicts == [inside] * 3


def test_vector_tuple_validate_rejects_a_vector_outside_the_ball():
    VectorTuple(vectors=np.diag([1.0, 0.5]))
    with pytest.raises(InputValidationError, match="leaves the unit ball"):
        VectorTuple(vectors=np.diag([1.0, 1.5]))


def test_eval_c_rejects_tuples_that_do_not_match_the_matrix():
    s, t = PolydiscTuple(np.ones(2)), PolydiscTuple(np.ones(3))
    assert eval_C(np.ones((2, 3)), s, t) == 6.0
    with pytest.raises(InputValidationError, match="do not match matrix shape"):
        eval_C(np.eye(2), s, t)


def test_expand_state_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(InputValidationError, match="vector length 2 does not match dimension 3"):
        expand_state(FAMILY3, [1.0, 0.0])


def test_expand_state_rejects_a_vector_whose_norm_overflows():
    with pytest.raises(InputValidationError, match="expects a unit vector"):
        expand_state(FAMILY3, [1e200, 0.0, 0.0])


@pytest.mark.parametrize("key", ["rows", "cols", "entries"])
def test_matrix_from_dict_rejects_a_missing_key(key):
    doc = {"rows": 1, "cols": 1, "entries": [[1.0, 0.0]]}
    del doc[key]
    with pytest.raises(InputValidationError, match=f"missing key '{key}'"):
        matrix_from_dict(doc)
