"""Compare the CLI output of two grothq checkouts, value by value.

Usage (from anywhere; standard library only):

    python3 tools/stdout_diff.py PARENT CHANGE

PARENT and CHANGE are two checkouts of the repository.  A fixed script of
CLI commands (``script``) runs as ``python -m grothq.cli`` with each
checkout's ``src`` on PYTHONPATH and BLAS on one thread: first the whole
script on PARENT, then the whole script on CHANGE, both in one temporary
directory, so that the files they write and the ``"out"`` paths they print
are the same.  The script also reads one fixed sparse matrix, which it
writes there first: the saved projectors are dense in float, so only that
matrix reaches the phase split's BFS.  Bytecode is not written, so neither checkout changes.

Each line of a command's stdout is one JSON document; the two sides' lines
are compared pairwise.  For each command it prints "identical", or the
largest relative difference |a - b| / max(|a|, |b|) over the numeric values
of its documents with that value's path, and every difference that is not
numeric: a key, a string, a boolean, a list length, a line count or an exit
code.  It exits 1 on any such difference, or on a relative difference above
``REL_TOL``, and 0 otherwise.
"""

import cmath
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REL_TOL = 1e-12          # results agree to 1e-12 relative when only rounding moves
_ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def sparse_matrix():
    """A fixed 6 x 6 matrix in the JSON wire format: split phases
    chi_i + psi_j on two components, {rows 0-1, columns 0-1} and
    {rows 2-4, columns 2-4}, each with a cycle; exact zeros elsewhere, so row 5
    and column 5 are isolated; and the entry -1 - 0j, of argument -pi."""
    chi = [1.0, 2.2, -0.4, 2.8, -1.9]
    psi = [math.pi - 1.0, 1.7, 2.6, -2.3, 0.9]       # chi_0 + psi_0 = pi
    support = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 2)]
    entries = [[0.0, 0.0] for _ in range(36)]
    for k, (i, j) in enumerate(support):
        z = (k + 1) / 4 * cmath.exp(1j * (chi[i] + psi[j]))
        entries[6 * i + j] = [z.real, z.imag]
    entries[0] = [-1.0, -0.0]
    return {"rows": 6, "cols": 6, "entries": entries}


def script(tmp):
    """The commands, each an argument list for ``grothq.cli``; the projector
    files go to ``tmp``, and ``sparse_matrix()`` is written there as
    sparse.json."""
    p3, p4 = str(Path(tmp) / "pi3.json"), str(Path(tmp) / "pi4.json")
    sparse = Path(tmp) / "sparse.json"
    sparse.write_text(json.dumps(sparse_matrix()) + "\n")
    rarity = [["experiment", "rarity", "--ensemble", e, "--samples", "200", "--seed", "1",
               "--starts", "16"] for e in ("scaled_projector", "random_normal", "random_general")]
    return [
        ["projector", "--dim", "3", "--out", p3],
        ["projector", "--dim", "4", "--out", p4],
        ["classify", "--matrix", p3],
        ["classify", "--matrix", p4],
        ["gbound", "--matrix", p4],
        ["phases", "--matrix", p4],
        ["phases", "--matrix", str(sparse)],
        ["classify", "--matrix", str(sparse)],
        ["norms", "--matrix", p4],
        ["states", "--dim", "4"],
        ["experiment", "h6", "--lambda", "0.1"],
        ["experiment", "h12", "--lambda", "0.05"],
        ["experiment", "g6", "--starts", "16", "--seed", "0"],
        ["experiment", "g6", "--starts", "1", "--seed", "10"],
        ["experiment", "bounded", "--dim", "3", "--samples", "50", "--seed", "0"],
        *rarity,
    ]


def run_script(checkout, commands, tmp):
    """The finished process of each command (its exit code and stdout),
    run in order on one checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1", **{name: "1" for name in _ONE_THREAD})
    return [subprocess.run([sys.executable, "-m", "grothq.cli", *argv], cwd=tmp, env=env,
                           capture_output=True, text=True, check=False)
            for argv in commands]


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(a, b, path="$"):
    """(problems, worst): the non-numeric differences between two JSON
    values, as "path: what" strings, and (relative difference, path) of the
    numeric pair that differs most, (0.0, None) when none does."""
    if _number(a) and _number(b):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return [], (0.0, None)
        if not (math.isfinite(a) and math.isfinite(b)):
            return [f"{path}: {a!r} != {b!r}"], (0.0, None)
        return [], (abs(a - b) / max(abs(a), abs(b)), path)
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return [f"{path}: keys {list(a)} != {list(b)}"], (0.0, None)
        pairs = [(a[key], b[key], f"{path}.{key}") for key in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{path}: length {len(a)} != {len(b)}"], (0.0, None)
        pairs = [(x, y, f"{path}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    else:
        return ([] if type(a) is type(b) and a == b else [f"{path}: {a!r} != {b!r}"]), (0.0, None)
    problems, worst = [], (0.0, None)
    for x, y, where in pairs:
        more, rel = compare(x, y, where)
        problems += more
        worst = max(worst, rel, key=lambda r: r[0])
    return problems, worst


def compare_output(parent, change):
    """``compare`` over the lines of two stdouts, each line a JSON document
    (or compared as text where it is not one); the path starts at the line."""
    a, b = parent.splitlines(), change.splitlines()
    if len(a) != len(b):
        return [f"line count {len(a)} != {len(b)}"], (0.0, None)
    problems, worst = [], (0.0, None)
    for i, (x, y) in enumerate(zip(a, b)):
        try:
            x, y = json.loads(x), json.loads(y)
        except json.JSONDecodeError:
            pass
        more, rel = compare(x, y, f"line {i + 1}")
        problems += more
        worst = max(worst, rel, key=lambda r: r[0])
    return problems, worst


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        commands = script(tmp)
        parent = run_script(argv[0], commands, tmp)
        change = run_script(argv[1], commands, tmp)
    for argv_k, p, c in zip(commands, parent, change):
        problems, (rel, where) = compare_output(p.stdout, c.stdout)
        if p.returncode != c.returncode:
            problems.insert(0, f"exit code {p.returncode} != {c.returncode}")
        if p.stdout == c.stdout and not problems:
            report = "identical"
        else:
            report = f"max relative difference {rel:.3g}" + (f" at {where}" if where else "")
        print(f"{' '.join(argv_k).replace(tmp, 'TMP')}: {report}")
        for problem in problems:
            print(f"  {problem}")
        failed = failed or bool(problems) or rel > REL_TOL
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
