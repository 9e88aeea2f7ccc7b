"""max_q_lower keeps the frozen values of the corpus.

tests/data/max_q_corpus.json was written by tests/data/make_max_q_corpus.py
with the per-start batched kernel; each entry holds a matrix, the
OptimizerConfig it was run with, the best value and every start's value.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from grothq import OptimizerConfig, matrix_from_dict, max_q_lower

DATA = Path(__file__).parent / "data"
CORPUS = json.loads((DATA / "max_q_corpus.json").read_text())
ENTRIES = CORPUS["entries"]


def test_corpus_covers_every_family():
    families = {e["family"] for e in ENTRIES}
    assert families == {"rarity_normal", "complex_gaussian", "pi6", "rank_one",
                        "zero_row_and_column"}
    assert {e["matrix"]["rows"] for e in ENTRIES if e["family"] == "complex_gaussian"} \
        == set(range(2, 9))
    assert any(e["stop_reason"] == "budget" for e in ENTRIES if e["family"] == "rarity_normal")
    assert len(ENTRIES) >= 80


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e["family"])
def test_max_q_lower_keeps_frozen_values(entry):
    theta = matrix_from_dict(entry["matrix"])
    run = max_q_lower(theta, OptimizerConfig(**entry["config"]))
    assert run.best_value >= entry["best_value"] * (1 - 1e-12)
    assert run.per_start_values == pytest.approx(entry["per_start_values"], rel=1e-12, abs=0)


def test_generator_refuses_to_overwrite_a_corpus(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("generator", DATA / "make_max_q_corpus.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    frozen = tmp_path / "max_q_corpus.json"
    frozen.write_text('{"entries": []}')
    generator.OUT = frozen
    assert generator.main() == 1
    assert str(frozen) in capsys.readouterr().err
    assert frozen.read_text() == '{"entries": []}'
