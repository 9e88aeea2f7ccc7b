"""tools/round_cost.py times rounds of the alternation kernel."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "round_cost.py"
spec = importlib.util.spec_from_file_location("round_cost", TOOL)
round_cost = importlib.util.module_from_spec(spec)
spec.loader.exec_module(round_cost)


def test_measure_gives_four_positive_figures():
    figures = round_cost.measure(1)
    assert len(figures) == 4
    assert all(us > 0 for us in figures.values())
