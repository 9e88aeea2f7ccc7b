"""Write tests/data/g_lower_corpus.json: matrices, configs and g_lower values.

Usage (from the repository root):

    PYTHONPATH=src python3 tests/data/make_g_lower_corpus.py

The corpus freezes the best values that the golden-section coordinate ascent
(scan_points=32, line_tolerance=1e-10) reached on about 150 matrices, so
that any later g_lower kernel can be checked against it: its best value must
never fall more than 1e-12 relative below the frozen one.  Running the
script would record the values of whatever g_lower is installed, so it
refuses to overwrite the committed file and exits non-zero; to re-freeze
the corpus, delete the file on purpose first.

Entries: complex Gaussians at d = 2..8, random normal matrices at d = 6,
the overlap projectors Pi_6 and Pi_12, and rank-one matrices at d = 2..8.
"""

import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from grothq import OptimizerConfig, build_family, build_projector, g_lower, matrix_to_dict
from grothq.ensembles import complex_gaussian, random_normal_matrix

OUT = Path(__file__).resolve().parent / "g_lower_corpus.json"
STARTS = (16, 8, 4)


def _rank_one(rng, d):
    x = rng.uniform(0.2, 1.0, d) * np.exp(1j * rng.uniform(-np.pi, np.pi, d))
    y = rng.uniform(0.2, 1.0, d) * np.exp(1j * rng.uniform(-np.pi, np.pi, d))
    return np.outer(x, y)


def cases():
    """(family, matrix, OptimizerConfig) triples, all from fixed seeds."""
    for d in range(2, 9):
        for k in range(15):
            rng = np.random.default_rng([d, k, 1])
            cfg = OptimizerConfig(starts=STARTS[k % 3], seed=k)
            yield "complex_gaussian", complex_gaussian(rng, d), cfg
    for k in range(30):
        rng = np.random.default_rng([6, k, 2])
        cfg = OptimizerConfig(starts=STARTS[k % 3], seed=100 + k, max_iterations=300)
        yield "random_normal", random_normal_matrix(rng, 6), cfg
    pi6 = build_projector(build_family(3)).matrix
    pi12 = build_projector(build_family(4)).matrix
    yield "pi6", pi6, OptimizerConfig(starts=64, seed=0)
    yield "pi6", pi6 / 5, OptimizerConfig(starts=4, seed=3)
    yield "pi12", pi12, OptimizerConfig(starts=64, seed=0)
    yield "pi12", pi12, OptimizerConfig(starts=8, seed=1)
    for k in range(14):
        d = 2 + k % 7
        rng = np.random.default_rng([d, k, 3])
        yield "rank_one", _rank_one(rng, d), OptimizerConfig(starts=STARTS[k % 3], seed=k)


def main():
    if OUT.exists():
        print(f"{OUT} exists: the corpus is frozen; delete the file to re-freeze it",
              file=sys.stderr)
        return 1
    entries = []
    for family, m, cfg in cases():
        run = g_lower(m, cfg)
        entries.append({
            "family": family,
            "matrix": matrix_to_dict(m),
            "config": asdict(cfg),
            "best_value": run.best_value,
        })
    head = {"generator": "tests/data/make_g_lower_corpus.py",
            "kernel": "golden-section coordinate ascent, scan_points=32, line_tolerance=1e-10"}
    # one entry per line keeps diffs of the file readable
    lines = [json.dumps(head)[:-1] + ', "entries": [']
    lines += [json.dumps(e) + "," for e in entries[:-1]] + [json.dumps(entries[-1])]
    OUT.write_text("\n".join(lines) + "\n]}\n")
    print(f"wrote {len(entries)} entries to {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
