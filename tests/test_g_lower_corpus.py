"""g_lower never falls below the frozen golden-section values of the corpus.

tests/data/g_lower_corpus.json was written by tests/data/make_g_lower_corpus.py
with the golden-section coordinate ascent; each entry holds a matrix, the
OptimizerConfig it was run with and the best value it reached.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from grothq import OptimizerConfig, eval_C, g_lower, matrix_from_dict

DATA = Path(__file__).parent / "data"
CORPUS = json.loads((DATA / "g_lower_corpus.json").read_text())
ENTRIES = CORPUS["entries"]


def test_corpus_covers_every_family():
    families = {e["family"] for e in ENTRIES}
    assert families == {"complex_gaussian", "random_normal", "pi6", "pi12", "rank_one"}
    assert {e["matrix"]["rows"] for e in ENTRIES if e["family"] == "complex_gaussian"} \
        == set(range(2, 9))
    assert len(ENTRIES) >= 150


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e["family"])
def test_g_lower_not_below_frozen_value(entry):
    theta = matrix_from_dict(entry["matrix"])
    run = g_lower(theta, OptimizerConfig(**entry["config"]))
    assert run.best_value >= entry["best_value"] * (1 - 1e-12)
    s, t = run.best_witness
    assert eval_C(theta, s, t) == pytest.approx(run.best_value, rel=1e-12)


def test_generator_refuses_to_overwrite_a_corpus(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("generator", DATA / "make_g_lower_corpus.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    frozen = tmp_path / "g_lower_corpus.json"
    frozen.write_text('{"entries": []}')
    generator.OUT = frozen
    assert generator.main() == 1
    assert str(frozen) in capsys.readouterr().err
    assert frozen.read_text() == '{"entries": []}'
