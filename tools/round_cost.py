"""Microseconds per round of the alternation kernel at d = 6.

Usage (from anywhere; the checkout's ``src`` comes first on the path):

    python3 tools/round_cost.py

Runs ``forms._alternate`` for ROUNDS rounds on four blocks of seeded starts
for one complex Gaussian of dimension 6: scalar blocks of 1 and 32 columns
(``g_lower`` runs 32 columns for 16 starts) and vector blocks of 1 and 17
starts (``max_q_lower`` runs 16 seeded starts and ``g_lower``'s witness).
The threshold is -inf, so no start leaves its block and every round is as
wide as the block.  For each block it prints the time per round of its
fastest of REPEAT runs, with BLAS on one thread.
"""

import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
D, ROUNDS, REPEAT = 6, 200, 25
BLAS_ONE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def measure(repeat):
    """{block: microseconds per round of its fastest of ``repeat`` runs}
    for the four blocks, in the order the module docstring lists them."""
    # imported here, so that main() sets the BLAS threads before numpy loads
    import numpy as np
    from grothq import forms
    from grothq.ensembles import complex_gaussian
    from grothq.linalg import pow2_normalize

    b = pow2_normalize(complex_gaussian(np.random.default_rng(0), D))[0]
    phases = forms._seeded_starts(0, 16, D)[0].T
    scalars = np.ones((2, D, 32), dtype=complex)
    scalars[0] = np.hstack([phases.conj(), phases])
    vectors = np.array(forms._seeded_starts(0, 17, D)[1])
    forms._unit_vectors(vectors, vectors)
    blocks = {"scalar, 1 column": scalars[:, :, :1], "scalar, 32 columns": scalars,
              "vector, 1 start": vectors[:, :, :1], "vector, 17 starts": vectors}
    best = dict.fromkeys(blocks, np.inf)
    for _ in range(repeat):                 # the blocks take turns, so that a slow
        for name, xy in blocks.items():     # phase of the host falls on all of them
            t0 = time.perf_counter()
            forms._alternate(b, xy, ROUNDS, -np.inf)
            best[name] = min(best[name], time.perf_counter() - t0)
    return {name: 1e6 * seconds / ROUNDS for name, seconds in best.items()}


def main():
    os.environ.update(BLAS_ONE_THREAD)      # before numpy is first imported
    sys.path.insert(0, str(SRC))
    print(f"d = {D}, {ROUNDS} rounds per run, best of {REPEAT} runs, BLAS on 1 thread")
    for name, us in measure(REPEAT).items():
        print(f"  {name}: {us:.1f} us per round")


if __name__ == "__main__":
    main()
