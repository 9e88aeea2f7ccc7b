"""tools/layer_cost.py times kernel rounds and phase-split verdicts."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "layer_cost.py"
spec = importlib.util.spec_from_file_location("layer_cost", TOOL)
layer_cost = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layer_cost)

ROUNDS = ["scalar, 1 column", "scalar, 32 columns", "vector, 1 start", "vector, 17 starts"]
CALLS = ([f"rank-one, d = {d}" for d in range(2, 9)]
         + [f"sparse d = 6, n = {n}, {kind}" for n in range(8, 13)
            for kind in ("split", "independent")]
         + [f"Gaussian, d = {d}" for d in range(2, 9)])


@pytest.fixture(scope="module")
def figures():
    return layer_cost.measure(1)


def test_measure_gives_two_sections(figures):
    assert list(figures) == ["round", "call"]


def test_measure_gives_four_positive_round_figures(figures):
    assert list(figures["round"]) == ROUNDS
    assert all(us > 0 for us in figures["round"].values())


def test_measure_gives_one_positive_figure_per_call_kind(figures):
    assert list(figures["call"]) == CALLS
    assert all(us > 0 for us in figures["call"].values())
