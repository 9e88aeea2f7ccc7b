"""The frozen-corpus harness shared by tests/test_g_lower_corpus.py and
tests/test_max_q_corpus.py.

tests/data/g_lower_corpus.json was written with the golden-section ascent and
tests/data/max_q_corpus.json with the per-start batched kernel, each by the
script its ``generator`` header names.  Each entry holds a matrix, the
OptimizerConfig it was run with, the best value and (max_q) every start's value.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from grothq import OptimizerConfig, forms
from grothq.ensembles import complex_gaussian

REPO = Path(__file__).resolve().parents[1]
CORPORA = {name: json.loads((REPO / "tests" / "data" / f"{name}_corpus.json").read_text())
           for name in ("g_lower", "max_q")}


def frozen_config(entry) -> OptimizerConfig:
    """The entry's OptimizerConfig.  Each entry also stores the
    ``phase_tolerance`` its run was made with, a config field then: 1e-3
    times it was the settle gain, now the kernel's constant
    ``forms._SETTLE_GAIN``, so the frozen values pin that constant."""
    config = dict(entry["config"])
    assert 1e-3 * config.pop("phase_tolerance") == forms._SETTLE_GAIN
    return OptimizerConfig(**config)


def load_generator(name):
    """The script that wrote the ``name`` corpus, as a fresh module."""
    spec = importlib.util.spec_from_file_location("generator", REPO / CORPORA[name]["generator"])
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    return generator


def check_covers(entries, families, size):
    """The corpus has exactly ``families``, complex Gaussians of every
    dimension 2..8, and at least ``size`` entries."""
    assert {e["family"] for e in entries} == families
    assert {e["matrix"]["rows"] for e in entries if e["family"] == "complex_gaussian"} \
        == set(range(2, 9))
    assert len(entries) >= size


def check_generator_refuses_to_overwrite(name, tmp_path, capsys):
    generator = load_generator(name)
    frozen = tmp_path / f"{name}_corpus.json"
    frozen.write_text('{"entries": []}')
    generator.OUT = frozen
    assert generator.main() == 1
    assert str(frozen) in capsys.readouterr().err
    assert frozen.read_text() == '{"entries": []}'


def check_generator_writes_a_config(name, optimizer, tmp_path, monkeypatch):
    """The generator writes one entry whose config rebuilds ``cfg`` and whose
    best value is ``optimizer``'s."""
    generator = load_generator(name)
    out = tmp_path / f"{name}_corpus.json"
    cfg = OptimizerConfig(starts=2, seed=1, max_iterations=20)
    theta = complex_gaussian(np.random.default_rng(0), 3)
    monkeypatch.setattr(generator, "OUT", out)
    monkeypatch.setattr(generator, "cases", lambda: iter([("complex_gaussian", theta, cfg)]))
    assert generator.main() == 0
    (entry,) = json.loads(out.read_text())["entries"]
    assert OptimizerConfig(**entry["config"]) == cfg
    assert entry["best_value"] == optimizer(theta, cfg).best_value
