"""max_q_lower keeps the frozen values of the corpus.

tests/data/max_q_corpus.json was written by tests/data/make_max_q_corpus.py
with the per-start batched kernel; each entry holds a matrix, the
OptimizerConfig it was run with, the best value and every start's value.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from grothq import OptimizerConfig, forms, matrix_from_dict, max_q_lower
from grothq.ensembles import complex_gaussian

DATA = Path(__file__).parent / "data"
CORPUS = json.loads((DATA / "max_q_corpus.json").read_text())
ENTRIES = CORPUS["entries"]


def frozen_config(entry) -> OptimizerConfig:
    """The entry's OptimizerConfig.  Each entry also stores the
    ``phase_tolerance`` its run was made with, a config field then: 1e-3
    times it was the settle gain, now the kernel's constant
    ``forms._SETTLE_GAIN``, so the frozen values pin that constant."""
    config = dict(entry["config"])
    assert 1e-3 * config.pop("phase_tolerance") == forms._SETTLE_GAIN
    return OptimizerConfig(**config)


def load_generator():
    spec = importlib.util.spec_from_file_location("generator", DATA / "make_max_q_corpus.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    return generator


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
    run = max_q_lower(theta, frozen_config(entry))
    assert run.best_value >= entry["best_value"] * (1 - 1e-12)
    assert run.per_start_values == pytest.approx(entry["per_start_values"], rel=1e-12, abs=0)


def test_generator_refuses_to_overwrite_a_corpus(tmp_path, capsys):
    generator = load_generator()
    frozen = tmp_path / "max_q_corpus.json"
    frozen.write_text('{"entries": []}')
    generator.OUT = frozen
    assert generator.main() == 1
    assert str(frozen) in capsys.readouterr().err
    assert frozen.read_text() == '{"entries": []}'


def test_generator_writes_entries_that_build_a_config(tmp_path, monkeypatch):
    generator = load_generator()
    out = tmp_path / "max_q_corpus.json"
    cfg = OptimizerConfig(starts=2, seed=1, max_iterations=20)
    theta = complex_gaussian(np.random.default_rng(0), 3)
    monkeypatch.setattr(generator, "OUT", out)
    monkeypatch.setattr(generator, "cases", lambda: iter([("complex_gaussian", theta, cfg)]))
    assert generator.main() == 0
    (entry,) = json.loads(out.read_text())["entries"]
    assert OptimizerConfig(**entry["config"]) == cfg
    assert entry["best_value"] == max_q_lower(theta, cfg).best_value
