"""tools/stdout_diff.py compares two checkouts' CLI output value by value."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "stdout_diff.py"
spec = importlib.util.spec_from_file_location("stdout_diff", TOOL)
stdout_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(stdout_diff)


def test_compare_reports_the_worst_number_and_every_other_difference():
    parent = {"value": 2.0, "witness": [[1.0, 0.0], [0.5, -0.25]], "n": 3, "ok": True,
              "name": "h6", "extra": {"a": 1}}
    change = {"value": 2.0 * (1 + 1e-15), "witness": [[1.0, 0.0], [0.5, -0.25 * (1 + 4e-15)]],
              "n": 3, "ok": False, "name": "h12", "extra": {"b": 1}}
    problems, (rel, where) = stdout_diff.compare(parent, change)
    assert where == "$.witness[1][1]"
    assert 3.9e-15 < rel < 4.1e-15
    assert problems == ["$.ok: True != False", "$.name: 'h6' != 'h12'",
                        "$.extra: keys ['a'] != ['b']"]
    # a boolean is not a number, and neither is a list of a different length
    assert stdout_diff.compare(1, True)[0] == ["$: 1 != True"]
    assert stdout_diff.compare([1.0], [1.0, 2.0])[0] == ["$: length 1 != 2"]
    assert stdout_diff.compare(1.0, float("inf"))[0] == ["$: 1.0 != inf"]
    assert stdout_diff.compare({"x": 0.0}, {"x": 0}) == ([], (0.0, None))


def test_compare_output_reads_one_document_a_line():
    problems, (rel, where) = stdout_diff.compare_output(
        '{"q": 1.0}\n{"q": 3.0}\n', '{"q": 1.0}\n{"q": 3.000000000003}\n')
    assert problems == [] and where == "line 2.q" and 0.9e-12 < rel < 1.1e-12
    assert stdout_diff.compare_output("{}\n", "{}\n{}\n")[0] == ["line count 1 != 2"]


def test_main_on_one_checkout_against_itself(monkeypatch, capsys):
    repo = Path(__file__).resolve().parents[1]
    monkeypatch.setattr(stdout_diff, "script",
                        lambda tmp: [["experiment", "h6", "--lambda", "0.1"]])
    assert stdout_diff.main([str(repo), str(repo)]) == 0
    assert capsys.readouterr().out == "experiment h6 --lambda 0.1: identical\n"
