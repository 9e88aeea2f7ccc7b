"""g_lower never falls below the frozen golden-section values of
tests/data/g_lower_corpus.json; the harness is tests/corpus.py."""

import pytest

from corpus import (CORPORA, check_covers, check_generator_refuses_to_overwrite,
                    check_generator_writes_a_config, frozen_config)
from grothq import eval_C, g_lower, matrix_from_dict

ENTRIES = CORPORA["g_lower"]["entries"]


def test_corpus_covers_every_family():
    check_covers(ENTRIES, {"complex_gaussian", "random_normal", "pi6", "pi12", "rank_one"}, 150)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e["family"])
def test_g_lower_not_below_frozen_value(entry):
    theta = matrix_from_dict(entry["matrix"])
    run = g_lower(theta, frozen_config(entry))
    assert run.best_value >= entry["best_value"] * (1 - 1e-12)
    s, t = run.best_witness
    assert eval_C(theta, s, t) == pytest.approx(run.best_value, rel=1e-12)


def test_generator_refuses_to_overwrite_a_corpus(tmp_path, capsys):
    check_generator_refuses_to_overwrite("g_lower", tmp_path, capsys)


def test_generator_writes_entries_that_build_a_config(tmp_path, monkeypatch):
    check_generator_writes_a_config("g_lower", g_lower, tmp_path, monkeypatch)
