"""tools/ab_bench.py summarizes paired benchmark runs by the gain rule."""

import importlib.util
import json
import py_compile
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


def test_quartiles_interpolate_between_order_statistics():
    assert ab_bench.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab_bench.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert ab_bench.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_claims_a_gain_past_the_parent_quartile_distance():
    # parent quartiles 99.25..101, a spread of 1.75
    change = [p + 3.0 for p in PARENT]
    s = ab_bench.summarize(PARENT, change, "higher", 0.25)
    assert s["parent"] == {"q1": 99.25, "median": 100.0, "q3": 101.0}
    assert s["change"]["median"] == 103.0
    assert (s["wins"], s["ties"], s["pairs"]) == (10, 0, 10)
    assert s["gain"] and s["within_bound"] and not s["unresolved"]
    # a gain inside the parent's spread is no gain, however many pairs it wins
    s = ab_bench.summarize(PARENT, [p + 1.5 for p in PARENT], "higher", 0.25)
    assert s["wins"] == 10 and not s["gain"]


def test_summary_needs_nine_tenths_of_the_pairs_and_ties_count_for_neither():
    change = [p + 3.0 for p in PARENT]
    change[0] = PARENT[0]                    # a tie
    s = ab_bench.summarize(PARENT, change, "higher", 0.25)
    assert (s["wins"], s["ties"]) == (9, 1) and s["gain"]
    change[1] = PARENT[1] - 1.0              # a loss
    s = ab_bench.summarize(PARENT, change, "higher", 0.25)
    assert s["wins"] == 8 and not s["gain"]


def test_summary_reads_lower_as_better_and_checks_the_bound():
    faster = [p - 3.0 for p in PARENT]
    s = ab_bench.summarize(PARENT, faster, "lower", 0.05)
    assert s["wins"] == 10 and s["gain"] and s["within_bound"]
    s = ab_bench.summarize(PARENT, faster, "higher", 0.05)
    assert s["wins"] == 0 and not s["gain"] and s["within_bound"]   # 3% worse
    s = ab_bench.summarize(PARENT, [p * 1.06 for p in PARENT], "lower", 0.05)
    assert not s["within_bound"] and not s["unresolved"]


# quartiles 91.25..108.75: a spread of 0.175 of the median, wider than a 0.05 bound
WIDE = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0]


def test_summary_calls_a_spread_wider_than_the_bound_unresolved():
    s = ab_bench.summarize(WIDE, [p + 1.0 for p in WIDE], "higher", 0.05)
    assert s["spread"] == pytest.approx(0.175)
    assert s["within_bound"] and s["unresolved"]
    assert not ab_bench.summarize(WIDE, [p + 1.0 for p in WIDE], "higher", 0.25)["unresolved"]
    # the wider of the two sides counts
    s = ab_bench.summarize(PARENT, WIDE, "higher", 0.05)
    assert s["spread"] == pytest.approx(0.175) and s["unresolved"]


def test_summary_resolves_a_wide_spread_when_every_change_run_is_better():
    s = ab_bench.summarize(WIDE, [p + 41.0 for p in WIDE], "higher", 0.05)
    assert s["spread"] > 0.05 and not s["unresolved"]
    s = ab_bench.summarize(WIDE, [p - 41.0 for p in WIDE], "lower", 0.05)
    assert not s["unresolved"]
    # one change run level with the best parent run is not better than every one
    s = ab_bench.summarize(WIDE, [p + 40.0 for p in WIDE], "higher", 0.05)
    assert s["unresolved"]


def test_summary_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        ab_bench.summarize(PARENT, PARENT[:-1], "higher", 0.25)
    with pytest.raises(ValueError):
        ab_bench.summarize([], [], "higher", 0.25)


def test_seeds_are_a_range_or_a_list():
    assert ab_bench.parse_seeds("9-12") == [9, 10, 11, 12]
    assert ab_bench.parse_seeds("1,5,2") == [1, 5, 2]


def checkout_with_bytecode(root):
    """A checkout with four grothq modules: ``timestamp`` and ``hashed`` have
    current bytecode, ``edited`` changed after it was compiled and ``fresh``
    was never compiled."""
    package = root / "src" / "grothq"
    package.mkdir(parents=True)
    for name in ("timestamp", "hashed", "edited", "fresh"):
        (package / f"{name}.py").write_text(f"NAME = {name!r}\n")
    for name, mode in (("timestamp", "TIMESTAMP"), ("hashed", "CHECKED_HASH"),
                       ("edited", "TIMESTAMP")):
        py_compile.compile(str(package / f"{name}.py"), doraise=True,
                           invalidation_mode=getattr(py_compile.PycInvalidationMode, mode))
    (package / "edited.py").write_text("NAME = 'edited again'\n")
    return root


def test_stale_modules_names_the_sources_without_current_bytecode(tmp_path):
    root = checkout_with_bytecode(tmp_path)
    assert ab_bench.stale_modules(root) == ["src/grothq/edited.py", "src/grothq/fresh.py"]
    assert ab_bench.stale_modules(tmp_path / "elsewhere") == []


def test_main_warns_about_each_side_before_the_pairs(tmp_path, monkeypatch, capsys):
    parent = checkout_with_bytecode(tmp_path / "parent")
    change = tmp_path / "change"
    (change / "src" / "grothq").mkdir(parents=True)
    metric = {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "w"}], "end_to_end": [metric]}))
    result = {"attempted": 1, "failed": 0, "metrics": {"items_per_s": {"value": 1.0}}}
    monkeypatch.setattr(ab_bench, "run_once", lambda *args: result)
    ab_bench.main([str(parent), str(change), "--seeds", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("warning: parent has no current bytecode for "
                               "src/grothq/edited.py, src/grothq/fresh.py;")
    assert lines[1].startswith("w: 1 pairs")
    assert not any("change has" in line for line in lines)


def test_main_prints_every_pair_under_each_metric_summary(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        (root / "src" / "grothq").mkdir(parents=True)
    metrics = [{"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
               {"name": "item_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}]
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "w"}], "end_to_end": metrics}))

    def run_once(checkout, workload, seed, seconds):
        rate = 100.0 * seed + (5.0 if checkout == change else 0.0)
        return {"attempted": 1, "failed": 0,
                "metrics": {"items_per_s": {"value": rate}, "item_ms_p50": {"value": 1e3 / rate}}}

    monkeypatch.setattr(ab_bench, "run_once", run_once)
    ab_bench.main([str(parent), str(change), "--seeds", "3,7"])
    lines = capsys.readouterr().out.splitlines()
    rate = next(i for i, line in enumerate(lines) if line.startswith("  items_per_s ("))
    assert lines[rate + 1:rate + 3] == ["    seed 3: parent 300, change 305",
                                        "    seed 7: parent 700, change 705"]
    ms = next(i for i, line in enumerate(lines) if line.startswith("  item_ms_p50 ("))
    assert ms == rate + 3
    assert lines[ms + 1:] == ["    seed 3: parent 3.33333, change 3.27869",
                              "    seed 7: parent 1.42857, change 1.41844"]
