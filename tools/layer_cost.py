"""Microseconds per kernel round and per phase-split verdict, job by job.

Usage (from anywhere; the checkout's ``src`` and ``perfbench`` come first on
the path):

    python3 tools/layer_cost.py

Rounds: ``forms._alternate`` runs ROUNDS rounds on four blocks of seeded
starts for one complex Gaussian of dimension D: scalar blocks of 1 and 32
columns (``g_lower`` runs 32 columns for 16 starts) and vector blocks of 1
and 17 starts (``max_q_lower`` runs 16 seeded starts and ``g_lower``'s
witness).  The threshold is -inf, so no start leaves its block and every
round is as wide as the block.

Calls: ``forms.phase_system_solvable`` runs PASSES times on each of MATRICES
fixed draws of a kind of support: the kinds of the benchmark's
``phase_support`` items (``rank_one`` d = 2..8 and ``sparse_support`` d = 6,
n = 8..12, split or independent, from ``perfbench/workloads.py``), and dense
complex Gaussians d = 2..8, which are what ``g_lower`` hands it.

All 28 jobs take turns in one loop of REPEAT runs, so that a slow phase of
the host falls on all of them, with BLAS on one thread.  For each job it
prints the time per round or per call of its fastest run.
"""

import os
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
D, ROUNDS = 6, 200
MATRICES, PASSES, SPARSE_DIM = 20, 10, 6
REPEAT = 25
BLAS_ONE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def jobs():
    """{unit: {name: (run, count)}}: one run of each job and the rounds or
    calls it makes, in the order the module docstring lists them."""
    import numpy as np
    from grothq import forms
    from grothq.ensembles import complex_gaussian
    from grothq.linalg import pow2_normalize
    from workloads import rank_one, sparse_support

    b = pow2_normalize(complex_gaussian(np.random.default_rng(0), D))[0]
    phases = forms._seeded_starts(0, 16, D)[0].T
    scalars = np.ones((2, D, 32), dtype=complex)
    scalars[0] = np.hstack([phases.conj(), phases])
    vectors = np.array(forms._seeded_starts(0, 17, D)[1])
    forms._unit_vectors(vectors, vectors)
    blocks = {"scalar, 1 column": scalars[:, :, :1], "scalar, 32 columns": scalars,
              "vector, 1 start": vectors[:, :, :1], "vector, 17 starts": vectors}

    rng = np.random.default_rng(0)
    kinds = {f"rank-one, d = {d}": [rank_one(rng, d) for _ in range(MATRICES)]
             for d in range(2, 9)}
    for n in range(8, 13):
        for split in (True, False):
            kinds[f"sparse d = {SPARSE_DIM}, n = {n}, {'split' if split else 'independent'}"] = [
                sparse_support(rng, SPARSE_DIM, n, split) for _ in range(MATRICES)]
    for d in range(2, 9):
        kinds[f"Gaussian, d = {d}"] = [complex_gaussian(rng, d) for _ in range(MATRICES)]

    def verdicts(thetas):
        for _ in range(PASSES):
            for theta in thetas:
                forms.phase_system_solvable(theta)

    return {"round": {name: (partial(forms._alternate, b, xy, ROUNDS, -np.inf), ROUNDS)
                      for name, xy in blocks.items()},
            "call": {name: (partial(verdicts, thetas), PASSES * MATRICES)
                     for name, thetas in kinds.items()}}


def measure(repeat):
    """{unit: {name: microseconds per round or call of its fastest of
    ``repeat`` runs}} for the jobs of ``jobs()``."""
    sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT / "perfbench")) if p not in sys.path]
    table = jobs()
    best = {unit: dict.fromkeys(section, float("inf")) for unit, section in table.items()}
    for _ in range(repeat):
        for unit, section in table.items():
            for name, (run, _) in section.items():
                t0 = time.perf_counter()
                run()
                best[unit][name] = min(best[unit][name], time.perf_counter() - t0)
    return {unit: {name: 1e6 * seconds / table[unit][name][1] for name, seconds in section.items()}
            for unit, section in best.items()}


def main():
    os.environ.update(BLAS_ONE_THREAD)      # before numpy is first imported
    print(f"best of {REPEAT} runs, BLAS on 1 thread")
    headings = {"round": f"forms._alternate, d = {D}, {ROUNDS} rounds per run",
                "call": f"forms.phase_system_solvable, {MATRICES} matrices per kind, "
                        f"{PASSES} calls on each per run"}
    for unit, figures in measure(REPEAT).items():
        print(headings[unit])
        for name, us in figures.items():
            print(f"  {name}: {us:.1f} us per {unit}")


if __name__ == "__main__":
    main()
