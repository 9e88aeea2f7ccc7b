"""The keys of every record's to_dict(), in order: stdout's JSON layout."""

import json

import numpy as np
import pytest

from grothq import (
    OptimizerConfig,
    certify_g6,
    classify,
    g_lower,
    max_q_lower,
    norm_report,
    phase_system_solvable,
    run_h6,
)
from grothq.experiments import run_rarity

RUN_KEYS = ["starts", "seed", "max_iterations", "best_value",
            "converged_fraction", "iterations_used", "stop_reason", "witness"]
THETA = np.array([[1, 2j], [0.5, -1]])
CFG = OptimizerConfig(starts=3, seed=5, max_iterations=7)


def _pairs(z):
    return [[float(c.real), float(c.imag)] for c in np.ravel(z)]


def test_experiment_record_keys():
    assert list(run_h6(0.2).to_dict()) == [
        "name", "parameters", "q_value", "region", "diagnostics"]


def test_rarity_stats_keys():
    stats = run_rarity("random_normal", samples=1, seed=0, starts=2)
    assert list(stats.to_dict()) == [
        "ensemble", "samples", "count_in_region", "fraction", "max_q_seen",
        "seed", "starts", "dim"]


def test_rarity_record_keys():
    records = []
    run_rarity("random_normal", samples=1, seed=0, starts=2, sink=records.append)
    assert list(records[0]) == [
        "index", "ensemble", "matrix", "dim", "scale", "in_G", "q_value",
        "q_stop_reason", "region", "in_G_prime", "optimizer_seed", "optimizer_starts"]


def test_g6_certificate_keys():
    doc = certify_g6(starts=2, seed=0).to_dict()
    assert list(doc) == [
        "starts", "seed", "general_value", "specialized_value",
        "specialized_norm_sq_max", "agrees", "allones_norm_sq", "allones_abc",
        "sign_flip_norm_sq", "witness_t"]


def test_norm_report_keys():
    assert list(norm_report(np.eye(2)).to_dict()) == [
        "row_norms", "n_factor", "frobenius", "lower_bound", "upper_bound",
        "is_normal", "in_S_d", "all_rows_equal", "single_nonzero_row"]


@pytest.mark.parametrize("optimizer", [g_lower, max_q_lower])
@pytest.mark.parametrize("theta", [np.array([[1, 2j], [0.5, -1]]), np.zeros((2, 2))],
                         ids=["general", "zero"])
def test_optimizer_run_keys(optimizer, theta):
    doc = optimizer(theta, CFG).to_dict()
    assert list(doc) == RUN_KEYS
    assert list(doc["witness"]) == ["s", "t"]
    assert [doc[k] for k in RUN_KEYS[:3]] == [3, 5, 7]


def test_classify_keys_and_witness_pairs():
    res = classify(THETA, CFG)
    doc = res.to_dict()
    assert list(doc) == [
        "g_lower", "g_upper", "upper_source", "g_prime", "in_G_prime", "in_G", "l1_norm",
        "necessary_condition_GRO10", "necessary_for_G_prime", "scaling", "witness"]
    s, t = res.witnesses
    assert doc["witness"] == {"s": _pairs(s.values), "t": _pairs(t.values)}
    assert json.loads(json.dumps(doc["witness"])) == doc["witness"]


def test_vector_witness_layout():
    run = max_q_lower(THETA, CFG)
    witness = run.to_dict()["witness"]
    for name, part in zip("st", run.best_witness):
        assert witness[name] == [_pairs(row) for row in part.vectors]
    assert json.loads(json.dumps(witness)) == witness


def test_zero_matrix_vector_witness_is_the_zero_tuple():
    run = max_q_lower(np.zeros((3, 3)), CFG)
    for part in run.best_witness:
        assert part.vectors.shape == (3, 3) and not part.vectors.any()
    witness = json.loads(json.dumps(run.to_dict()))["witness"]
    assert witness == {"s": [[[0.0, 0.0]] * 3] * 3, "t": [[[0.0, 0.0]] * 3] * 3}


@pytest.mark.parametrize("theta", [np.array([[1, 1j], [1j, -1]]), np.array([[1, 1], [1, -1]])],
                         ids=["solvable", "unsolvable"])
def test_phase_system_report_keys(theta):
    assert list(phase_system_solvable(theta).to_dict()) == [
        "solvable", "n_equations", "rank_coefficient", "rank_augmented", "chi", "psi",
        "used_shift_enumeration"]


@pytest.mark.parametrize("make", [
    lambda: g_lower(THETA, CFG),
    lambda: max_q_lower(THETA, CFG),
    lambda: classify(THETA, CFG),
    lambda: phase_system_solvable(THETA),
    lambda: norm_report(THETA),
    lambda: run_h6(0.2),
    lambda: certify_g6(starts=2, seed=0),
    lambda: run_rarity("random_normal", samples=1, seed=0, starts=2),
], ids=["g_lower", "max_q_lower", "classify", "phase_system", "norm_report", "h6",
        "g6_certificate", "rarity_stats"])
def test_every_record_serializes_with_read_only_witnesses(make):
    json.dumps(make().to_dict())
