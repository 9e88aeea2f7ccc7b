"""Microseconds per call of the phase-split verdict, by kind of support.

Usage (from anywhere; the checkout's ``src`` comes first on the path):

    python3 tools/phase_cost.py

Times ``forms.phase_system_solvable`` on MATRICES fixed draws of each kind:
the kinds of the benchmark's ``phase_support`` items (rank-one d = 2..8;
d = 6 supports of n = 8..12 nonzero entries whose phases split, and ones
whose phases are independent), and dense complex Gaussians d = 2..8, which
are what ``g_lower`` hands it.  A run calls it PASSES times on each draw of
a kind.  For each kind it prints the time per call of its fastest of REPEAT
runs, with BLAS on one thread.
"""

import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MATRICES, PASSES, REPEAT = 20, 10, 25
SPARSE_DIM = 6
BLAS_ONE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def kinds():
    """{kind: list of MATRICES matrices}, in the order the module docstring
    lists them, drawn from one seeded generator."""
    import numpy as np
    from grothq.ensembles import complex_gaussian

    rng = np.random.default_rng(0)

    def vector(d):
        return rng.standard_normal(d) + 1j * rng.standard_normal(d)

    def sparse(n, solvable):
        theta = np.zeros((SPARSE_DIM, SPARSE_DIM), dtype=complex)
        rows, cols = np.divmod(rng.choice(SPARSE_DIM ** 2, size=n, replace=False), SPARSE_DIM)
        if solvable:
            phases = rng.uniform(-np.pi, np.pi, SPARSE_DIM)[rows] + rng.uniform(
                -np.pi, np.pi, SPARSE_DIM)[cols]
        else:
            phases = rng.uniform(-np.pi, np.pi, n)
        theta[rows, cols] = rng.uniform(0.5, 1.5, n) * np.exp(1j * phases)
        return theta

    out = {}
    for d in range(2, 9):
        out[f"rank-one, d = {d}"] = [np.outer(vector(d), vector(d)) for _ in range(MATRICES)]
    for n in range(8, 13):
        for solvable in (True, False):
            name = f"sparse d = {SPARSE_DIM}, n = {n}, {'split' if solvable else 'independent'}"
            out[name] = [sparse(n, solvable) for _ in range(MATRICES)]
    for d in range(2, 9):
        out[f"Gaussian, d = {d}"] = [complex_gaussian(rng, d) for _ in range(MATRICES)]
    return out


def measure(repeat):
    """{kind: microseconds per call of its fastest of ``repeat`` runs}."""
    # imported here, so that main() sets the BLAS threads before numpy loads
    import numpy as np
    from grothq import forms

    matrices = kinds()
    best = dict.fromkeys(matrices, np.inf)
    for _ in range(repeat):                    # the kinds take turns, so that a slow
        for name, thetas in matrices.items():  # phase of the host falls on all of them
            t0 = time.perf_counter()
            for _ in range(PASSES):
                for theta in thetas:
                    forms.phase_system_solvable(theta)
            best[name] = min(best[name], time.perf_counter() - t0)
    return {name: 1e6 * seconds / (PASSES * MATRICES) for name, seconds in best.items()}


def main():
    os.environ.update(BLAS_ONE_THREAD)      # before numpy is first imported
    sys.path.insert(0, str(SRC))
    print(f"{MATRICES} matrices per kind, {PASSES} calls on each per run, "
          f"best of {REPEAT} runs, BLAS on 1 thread")
    for name, us in measure(REPEAT).items():
        print(f"  {name}: {us:.1f} us per call")


if __name__ == "__main__":
    main()
