"""Compare two grothq checkouts on the benchmark, in alternated pairs.

Usage (from anywhere; standard library only):

    python3 tools/ab_bench.py PARENT CHANGE [--workload NAME ...]
                              [--seeds 9-18] [--seconds 30]

PARENT and CHANGE are two checkouts of the repository.  Pair i runs
``perfbench/run.py --workload NAME --seed S_i --seconds SECONDS --trace 0``
once in each checkout, the parent first in even pairs and the change first
in odd ones, so that a slow phase of the host falls on both sides alike.
Without ``--workload`` every workload of the change's BENCHMARK.json runs.

For each workload and each end-to-end metric of BENCHMARK.json it prints
each side's median and quartiles, the pairs the change wins (ties count for
neither side), whether the change's median stays within the metric's bound
of the parent's, and whether the pairs support claiming a gain: the change
wins at least nine tenths of the pairs, and its median is better than the
parent's by more than the distance between the parent's quartiles.  A
metric whose run-to-run spread is wider than its bound is printed as
unresolved in place of the bound check, unless every change run beats every
parent run.  Under each metric's summary it prints every pair's seed and
the parent's and the change's values.  It also prints the items attempted
and failed on each side.  It reads the benchmark and changes nothing in
either checkout.

Before the pairs it warns about each side whose ``src/grothq`` modules lack
current bytecode.  Where bytecode is not written (PYTHONDONTWRITEBYTECODE),
every import of grothq compiles those modules again, and ``setup_s`` counts
that time, so only checkouts whose bytecode is in the same state compare.
"""

import argparse
import importlib.util
import json
import statistics
import struct
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9


def quartiles(values):
    """(first quartile, median, third quartile) of a non-empty sample,
    interpolated between order statistics (``statistics.quantiles``,
    inclusive method)."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent, change, better, bound):
    """Summary of one metric over paired runs: ``parent[i]`` and ``change[i]``
    come from pair i, ``better`` is "higher" or "lower", and ``bound`` the
    largest share of the parent's median by which the change's median may be
    worse.

    ``unresolved``: the spread, the larger of the two sides' quartile
    distances as a share of the parent's median, is wider than ``bound``, and
    not every change run beats every parent run; the bound check then says
    nothing."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs on each side")
    sign = 1.0 if better == "higher" else -1.0
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    spread = max(p3 - p1, c3 - c1) / abs(p_med)
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    return {
        "pairs": len(parent),
        "parent": {"q1": p1, "median": p_med, "q3": p3},
        "change": {"q1": c1, "median": c_med, "q3": c3},
        "wins": wins,
        "ties": ties,
        "within_bound": sign * (c_med - p_med) >= -bound * abs(p_med),
        "gain": wins >= WIN_SHARE * len(parent) and sign * (c_med - p_med) > p3 - p1,
        "spread": spread,
        "unresolved": spread > bound and not all_better,
    }


def parse_seeds(text):
    """"9-18" or "1,2,5" as a list of ints."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def stale_modules(checkout):
    """The sources in ``src/grothq`` of a checkout, relative to it, whose
    cached bytecode is missing or was compiled from another version: its
    header holds another magic number, or another source mtime and size (or,
    in a hash-based pyc, another source hash)."""
    checkout = Path(checkout)
    stale = []
    for source in sorted((checkout / "src" / "grothq").glob("*.py")):
        try:
            header = Path(importlib.util.cache_from_source(source)).read_bytes()[:16]
        except OSError:
            header = b""
        if int.from_bytes(header[4:8], "little") & 1:
            key = importlib.util.source_hash(source.read_bytes())
        else:
            st = source.stat()
            key = struct.pack("<II", int(st.st_mtime) & 0xFFFFFFFF, st.st_size & 0xFFFFFFFF)
        if header[:4] != importlib.util.MAGIC_NUMBER or header[8:16] != key:
            stale.append(str(source.relative_to(checkout)))
    return stale


def run_once(checkout, workload, seed, seconds):
    """The JSON result (the last line of stdout) of one untraced run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", action="append", dest="workloads")
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("9-18"))
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    for side in ("parent", "change"):
        stale = stale_modules(getattr(args, side))
        if stale:
            print(f"warning: {side} has no current bytecode for {', '.join(stale)}; "
                  f"setup_s counts their compilation wherever bytecode is not written")
    for workload in args.workloads or [w["name"] for w in spec["workloads"]]:
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(getattr(args, side), workload, seed, args.seconds))
        print(f"{workload}: {len(args.seeds)} pairs, seeds {args.seeds[0]}..{args.seeds[-1]}, "
              f"--seconds {args.seconds:g}")
        for side, results in runs.items():
            print(f"  {side}: {sum(r['attempted'] for r in results)} items attempted, "
                  f"{sum(r['failed'] for r in results)} failed")
        for metric in metrics:
            name = metric["name"]
            parent, change = ([r["metrics"][name]["value"] for r in runs[side]]
                              for side in ("parent", "change"))
            s = summarize(parent, change, metric["better"], metric["bound"])
            par, chg = s["parent"], s["change"]
            check = (f"unresolved: spread {s['spread']:.3g} > bound {metric['bound']:g}"
                     if s["unresolved"] else
                     f"within bound {metric['bound']:g}: {'yes' if s['within_bound'] else 'NO'}")
            print(f"  {name} ({metric['unit']}, {metric['better']} is better): "
                  f"parent {par['median']:.6g} [{par['q1']:.6g}, {par['q3']:.6g}], "
                  f"change {chg['median']:.6g} [{chg['q1']:.6g}, {chg['q3']:.6g}]; "
                  f"change wins {s['wins']} of {s['pairs']} ({s['ties']} ties); "
                  f"{check}; "
                  f"gain: {'yes' if s['gain'] else 'no'}")
            for seed, p, c in zip(args.seeds, parent, change):
                print(f"    seed {seed}: parent {p:.6g}, change {c:.6g}")


if __name__ == "__main__":
    main()
