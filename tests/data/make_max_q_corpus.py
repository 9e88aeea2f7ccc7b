"""Write tests/data/max_q_corpus.json: matrices, configs and max_q_lower values.

Usage (from the repository root):

    PYTHONPATH=src python3 tests/data/make_max_q_corpus.py

The corpus freezes what the per-start batched max_q_lower kernel (one small
matmul per start and half-step, settled starts kept in the block) reached on
about 90 matrices: the best value and every start's value.  A later kernel
must never fall more than 1e-12 relative below a frozen best value, and each
start must end within 1e-12 relative of its frozen value.  Running the
script would record the values of whatever max_q_lower is installed, so it
refuses to overwrite the committed file and exits non-zero; to re-freeze
the corpus, delete the file on purpose first.

Entries: rarity samples as ``grothq experiment rarity`` draws them
(random normal, d = 6, scaled by g_upper, 16 starts, max_iterations=300;
several stop on "budget"), complex Gaussians at d = 2..8, Pi_6 and Pi_6 / 5,
rank-one matrices at d = 2..8, and matrices with a zero row and a zero column.
"""

import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from grothq import (OptimizerConfig, build_family, build_projector, g_upper, matrix_to_dict,
                    max_q_lower)
from grothq.ensembles import complex_gaussian, random_normal_matrix

OUT = Path(__file__).resolve().parent / "max_q_corpus.json"
STARTS = (16, 8, 4)
RARITY_SEED = 1


def _rank_one(rng, d):
    x = rng.uniform(0.2, 1.0, d) * np.exp(1j * rng.uniform(-np.pi, np.pi, d))
    y = rng.uniform(0.2, 1.0, d) * np.exp(1j * rng.uniform(-np.pi, np.pi, d))
    return np.outer(x, y)


def cases():
    """(family, matrix, OptimizerConfig) triples, all from fixed seeds."""
    for i in range(40):
        # the sample and optimizer seeds of experiments.run_rarity
        m = random_normal_matrix(np.random.default_rng([RARITY_SEED, i]), 6)
        cfg = OptimizerConfig(starts=16, seed=RARITY_SEED ^ ((i + 1) << 20), max_iterations=300)
        yield "rarity_normal", m / g_upper(m), cfg
    for d in range(2, 9):
        for k in range(5):
            rng = np.random.default_rng([d, k, 4])
            yield "complex_gaussian", complex_gaussian(rng, d), \
                OptimizerConfig(starts=STARTS[k % 3], seed=k)
    pi6 = build_projector(build_family(3)).matrix
    yield "pi6", pi6, OptimizerConfig(starts=16, seed=0)
    yield "pi6", pi6 / 5, OptimizerConfig(starts=8, seed=0)
    for k in range(7):
        d = 2 + k
        rng = np.random.default_rng([d, k, 5])
        yield "rank_one", _rank_one(rng, d), OptimizerConfig(starts=STARTS[k % 3], seed=k)
    for k, d in enumerate((3, 4, 5, 6)):
        m = complex_gaussian(np.random.default_rng([d, k, 6]), d)
        m[k % d, :] = 0
        m[:, (k + 1) % d] = 0
        yield "zero_row_and_column", m, OptimizerConfig(starts=8, seed=k)


def main():
    if OUT.exists():
        print(f"{OUT} exists: the corpus is frozen; delete the file to re-freeze it",
              file=sys.stderr)
        return 1
    entries = []
    for family, m, cfg in cases():
        run = max_q_lower(m, cfg)
        entries.append({
            "family": family,
            "matrix": matrix_to_dict(m),
            "config": asdict(cfg),
            "best_value": run.best_value,
            "per_start_values": run.per_start_values,
            "stop_reason": run.stop_reason,
        })
    head = {"generator": "tests/data/make_max_q_corpus.py",
            "kernel": "per-start batched alternation, settled starts kept in the block"}
    # one entry per line keeps diffs of the file readable
    lines = [json.dumps(head)[:-1] + ', "entries": [']
    lines += [json.dumps(e) + "," for e in entries[:-1]] + [json.dumps(entries[-1])]
    OUT.write_text("\n".join(lines) + "\n]}\n")
    print(f"wrote {len(entries)} entries to {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
