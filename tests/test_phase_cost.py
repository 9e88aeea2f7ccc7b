"""tools/phase_cost.py times the phase-split verdict by kind of support."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "phase_cost.py"
spec = importlib.util.spec_from_file_location("phase_cost", TOOL)
phase_cost = importlib.util.module_from_spec(spec)
spec.loader.exec_module(phase_cost)


def test_measure_gives_one_positive_figure_per_kind():
    figures = phase_cost.measure(1)
    assert len(figures) == 7 + 10 + 7
    assert all(us > 0 for us in figures.values())
