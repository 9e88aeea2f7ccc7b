"""max_q_lower keeps the frozen per-start values of
tests/data/max_q_corpus.json; the harness is tests/corpus.py."""

import pytest

from corpus import (CORPORA, check_covers, check_generator_refuses_to_overwrite,
                    check_generator_writes_a_config, frozen_config)
from grothq import matrix_from_dict, max_q_lower

ENTRIES = CORPORA["max_q"]["entries"]


def test_corpus_covers_every_family():
    check_covers(ENTRIES, {"rarity_normal", "complex_gaussian", "pi6", "rank_one",
                           "zero_row_and_column"}, 80)
    assert any(e["stop_reason"] == "budget" for e in ENTRIES if e["family"] == "rarity_normal")


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e["family"])
def test_max_q_lower_keeps_frozen_values(entry):
    theta = matrix_from_dict(entry["matrix"])
    run = max_q_lower(theta, frozen_config(entry))
    assert run.best_value >= entry["best_value"] * (1 - 1e-12)
    assert run.per_start_values == pytest.approx(entry["per_start_values"], rel=1e-12, abs=0)


def test_generator_refuses_to_overwrite_a_corpus(tmp_path, capsys):
    check_generator_refuses_to_overwrite("max_q", tmp_path, capsys)


def test_generator_writes_entries_that_build_a_config(tmp_path, monkeypatch):
    check_generator_writes_a_config("max_q", max_q_lower, tmp_path, monkeypatch)
