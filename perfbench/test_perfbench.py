"""Tests of the benchmark itself: its oracles, its verdict rules and its metric names.

Run with:  python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
from grothq import forms  # noqa: E402
from oracles import phases_consistent, support_has_cycle, witness_matches  # noqa: E402
from tracer import Tracer, layer_stats  # noqa: E402
from workloads import WORKLOADS, Item, PhaseSupport, rank_one, sparse_support  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_cycle_oracle_on_small_supports():
    assert support_has_cycle(np.ones((2, 2)))                 # the 4-cycle
    assert not support_has_cycle(np.eye(3))                   # a matching
    assert not support_has_cycle(np.array([[1, 1, 0], [0, 1, 1], [0, 0, 0]]))
    assert support_has_cycle(np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))


@pytest.mark.parametrize("d", range(2, 9))
def test_rank_one_is_solvable(d):
    theta = rank_one(np.random.default_rng(d), d)
    assert phases_consistent(theta)


def test_sparse_truth_by_construction():
    rng = np.random.default_rng(7)
    cycles = 0
    for k in range(200):
        n = 8 + k % 5
        assert phases_consistent(sparse_support(rng, 6, n, solvable=True))
        theta = sparse_support(rng, 6, n, solvable=False)
        cyclic = support_has_cycle(theta)
        cycles += cyclic
        assert phases_consistent(theta) == (not cyclic)
    assert 0 < cycles < 200            # both answers occur in the family


def test_witness_check():
    chi, psi = np.array([0.3, -2.0]), np.array([1.0, 3.0])
    theta = np.exp(1j * (chi[:, None] + psi[None, :]))
    assert witness_matches(theta, chi, psi)
    assert witness_matches(theta, chi + 2 * np.pi, psi)
    assert not witness_matches(theta, chi + 0.1, psi)


def test_only_the_budget_skip_counts_as_the_known_phase_defect():
    rank1 = rank_one(np.random.default_rng(0), 4)          # 16 equations
    sparse = sparse_support(np.random.default_rng(1), 6, 9, solvable=True)
    unsolved = forms.PhaseSystemReport(False, 16, 7, 8)
    item = PhaseSupport.judge(rank1, True, unsolved, 0.0)
    assert item.failure and item.wrong_verdict and item.known_defect
    unsolved = forms.PhaseSystemReport(False, 9, 7, 8)
    item = PhaseSupport.judge(sparse, True, unsolved, 0.0)
    assert item.failure and item.wrong_verdict and not item.known_defect
    solved = forms.PhaseSystemReport(True, 16, 7, 7, chi=[0.0] * 4, psi=[0.0] * 4)
    item = PhaseSupport.judge(rank1, False, solved, 0.0)
    assert item.failure and not item.known_defect


def test_non_convergence_is_the_only_known_exception():
    assert Item(1.0, "ConvergenceError: power iteration did not converge within "
                     "20000 iterations over 10 restarts").known_defect
    assert Item(1.0, "exit 3: convergence error: Jacobi sweeps did not converge").known_defect
    assert not Item(1.0, "InputValidationError: vector tuple leaves the unit ball").known_defect
    assert not Item(1.0).failure


def test_tracer_sees_reexported_functions_and_accounts_for_time():
    tracer = Tracer()
    layers = tracer.install()
    assert "linalg.largest_singular_value" in layers and "cli.dispatch" in layers
    theta = np.random.default_rng(3).standard_normal((3, 3)) + 0j
    span = tracer.open("bench.item", 0)
    forms.classify(theta, forms.OptimizerConfig(starts=2))
    tracer.close(span)
    stats = layer_stats(tracer.spans)
    # classify -> g_lower and g_prime -> largest_singular_value (through forms' binding)
    assert stats["forms.classify"]["calls"] == 1
    assert stats["linalg.largest_singular_value"]["calls"] == 1
    assert stats["forms.g_lower"]["count"] == 1.0
    total = sum(s["self_ms"] for s in stats.values())
    assert total == pytest.approx(stats["bench.item"]["total_ms"], rel=1e-9)


def test_benchmark_json_matches_the_metrics_printed():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    assert run.parse_args(["--workload", "cli_session", "--seed", "1", "--seconds", "2"])


@pytest.mark.parametrize("name", ["classify_gaussian", "phase_support", "rarity_normal"])
def test_a_run_attempts_the_same_items_whatever_the_host_speed(name):
    # the item list depends on the seed and --seconds only, never on a clock
    first, again = (WORKLOADS[name](HERE.parent, 7, 3.0) for _ in range(2))
    a, b = first.setup(), again.setup()
    assert len(list(first.steps(a))) == len(list(again.steps(b))) > 0
    longer = WORKLOADS[name](HERE.parent, 7, 30.0)
    assert len(list(longer.steps(longer.setup()))) > len(list(first.steps(a)))


def test_cli_session_runs_whole_passes():
    session = WORKLOADS["cli_session"](HERE.parent, 7, 30.0)
    steps = session.steps(session.script())
    assert len(steps) == session.passes * 22 and steps[:2] == [(0, 0, 0), (0, 0, 1)]


def test_host_speed_factor():
    assert hostspeed.factor(hostspeed.REFERENCE_S, hostspeed.REFERENCE_S) == 1.0
    assert hostspeed.factor(1e-3, 3e-3) == pytest.approx(hostspeed.REFERENCE_S / 2e-3)
    assert 0 < hostspeed.measure() < 1.0
