"""grothq benchmark: run one workload in a closed loop and print its metrics.

Usage (from the root of a grothq checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: classify_gaussian, rarity_normal, phase_support, cli_session.
The program is imported from ``src/`` of the checkout, with BLAS limited to
one thread.  Set-up (imports, seeded inputs, warm-up) happens before timing.

The seed and S fix the inputs and how many there are (about S seconds of
work on a 2-core virtual machine), so a run always attempts the same items.
The benchmark and its child processes run on one CPU.  ``--trace 0`` runs
the items untraced, timing a calibration kernel between them, and reports
the end-to-end metrics at a reference host speed (see hostspeed.py).  ``--trace 1`` wraps every public grothq function, runs the
first half of the steps once untraced and once traced, and reports the
per-layer metrics; the spans are written to
``.perfbench_out/trace-<workload>.jsonl``.  A run stops early, with fewer
items, only if it passes a deadline of 4 S seconds or 150 s.

Every output is checked.  Human-readable lines come first; the last line is
one JSON object with the keys correct, attempted, failed and metrics.
``failed`` counts every failed item; ``correct`` is false when any failure is
not one of the program's known defects (see workloads.py).
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, layer_stats, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
DEADLINE_FACTOR, DEADLINE_MAX_S = 4, 150
# Import time, measured in a fresh interpreter so that it can be repeated.
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import grothq; "
                "print(time.perf_counter() - t0)")
BLAS_ONE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

# Metrics in the JSON result; BENCHMARK.json gives each a bound.  Times are
# at the reference host speed (hostspeed.py).
END_TO_END = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "bracket_ratio_p50": "ratio",
}
# Printed by name but not bounded: error_rate is 0 on two workloads, the p95
# of a run moved by more than the largest bound (0.25) between seeds, and
# q_lower_mean is computed on rarity_normal only.  The raw_* figures are the
# same timings as measured, before the host-speed correction.
PRINTED_ONLY = {"error_rate": "1", "item_ms_p95": "ms", "q_lower_mean": "q",
                "raw_items_per_s": "1/s", "raw_item_ms_p50": "ms",
                "raw_setup_s": "s", "host_kernel_ms_p50": "ms"}

STAT_UNITS = {"calls": "count", "self_ms": "ms", "ms_per_call": "ms", "failures": "count"}
ALL_STATS = tuple(STAT_UNITS)
PER_LAYER_SPEC = [
    ("forms.g_lower", ALL_STATS + ("converged_fraction",)),
    ("forms.max_q_lower", ALL_STATS),
    ("linalg.largest_singular_value", ALL_STATS),
    ("forms.phase_system_solvable", ALL_STATS + ("shift_enumerations", "wrong_verdicts")),
    ("forms.classify", ("self_ms",)),
    ("experiments.run_rarity", ("self_ms",)),
    *[(f"ensembles.{f}", ("self_ms",)) for f in (
        "complex_gaussian", "random_unitary", "random_density", "random_normal_matrix",
        "random_hermitian", "random_projector")],
    ("states.build_projector", ALL_STATS),
    ("linalg.hermitian_eig", ALL_STATS),
    ("matrix_io.load_matrix", ALL_STATS),
    ("matrix_io.save_matrix", ALL_STATS),
    ("experiments.certify_g6", ALL_STATS),
    ("cli", ("startup_ms",)),
    ("trace", ("overhead_pct", "accounted_pct")),
]
EXTRA_UNITS = {"converged_fraction": "fraction", "shift_enumerations": "count",
               "wrong_verdicts": "count", "startup_ms": "ms", "overhead_pct": "%",
               "accounted_pct": "%"}
PER_LAYER = {f"{layer}.{stat}": {**STAT_UNITS, **EXTRA_UNITS}[stat]
             for layer, stats in PER_LAYER_SPEC for stat in stats}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["classify_gaussian", "rarity_normal", "phase_support",
                            "cli_session"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def deadline(seconds):
    return time.perf_counter() + min(DEADLINE_FACTOR * seconds, DEADLINE_MAX_S)


def measure(workload, state, seconds):
    """Run every step untraced; return (items, kernel times).

    The calibration kernel runs before the first step and after each step;
    every item of a step is scaled to the reference speed by the kernel
    times on either side of it.
    """
    import hostspeed        # numpy, so only after main() has set the BLAS threads
    items, kernels = [], [hostspeed.measure()]
    end = deadline(seconds)
    for step in workload.steps(state):
        if time.perf_counter() > end:
            break
        step_items = workload.run(state, step, None)
        kernels.append(hostspeed.measure())
        scale = hostspeed.factor(kernels[-2], kernels[-1])
        for item in step_items:
            item.ref_s = item.latency_s * scale
        items.extend(step_items)
    return items, kernels


def measure_traced(workload, state, seconds, tracer):
    """Run the first half of the steps twice; return (untraced items, traced items).

    Each step runs untraced and traced, in alternating order, so that the
    two halves see the same inputs and the same drift in machine speed.
    """
    steps = list(workload.steps(state))
    untraced, traced = [], []
    end = deadline(seconds)
    for n, step in enumerate(steps[:max(1, len(steps) // 2)]):
        if time.perf_counter() > end:
            break
        for t in (None, tracer) if n % 2 == 0 else (tracer, None):
            (traced if t else untraced).extend(workload.run(state, step, t))
    return untraced, traced


def busy_s(items, ref=False):
    """Time spent inside the program: the sum of item latencies."""
    return sum(i.ref_s if ref else i.latency_s for i in items)


def percentile(values, q):
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]) \
        if len(values) > 1 else float(values[0])


def end_to_end_metrics(items, kernels, setup):
    lat_ms = [i.ref_s * 1e3 for i in items]
    ratios = [i.ratio for i in items if i.ratio is not None]
    qs = [i.q for i in items if i.q is not None]
    return {
        "items_per_s": len(items) / busy_s(items, ref=True),
        "item_ms_p50": percentile(lat_ms, 50),
        "item_ms_p95": percentile(lat_ms, 95),
        "setup_s": setup["ref_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # 1.0 on workloads that compute no bracket or no trace-form value
        "bracket_ratio_p50": statistics.median(ratios) if ratios else 1.0,
        "q_lower_mean": statistics.fmean(qs) if qs else 1.0,
        "error_rate": sum(bool(i.failure) for i in items) / len(items),
        "raw_items_per_s": len(items) / busy_s(items),
        "raw_item_ms_p50": percentile([i.latency_s * 1e3 for i in items], 50),
        "raw_setup_s": setup["raw_s"],
        "host_kernel_ms_p50": statistics.median(kernels) * 1e3,
    }


def per_layer_metrics(tracer, untraced, traced):
    stats = layer_stats(tracer.spans)
    own = self_times(tracer.spans)
    out = {}
    for layer, names in PER_LAYER_SPEC:
        s = stats.get(layer, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0,
                              "failures": 0, "count": 0.0})
        calls = s["calls"]
        values = {
            "calls": calls,
            "self_ms": s["self_ms"],
            "ms_per_call": s["total_ms"] / calls if calls else 0.0,
            "failures": s["failures"],
            "converged_fraction": s["count"] / calls if calls else 0.0,
            "shift_enumerations": s["count"],
            "wrong_verdicts": sum(i.wrong_verdict for i in traced),
        }
        for name in names:
            if name in values:
                out[f"{layer}.{name}"] = values[name]
    startup = [own[k] * 1e3 for k, span in enumerate(tracer.spans) if span[0] == "cli.process"]
    out["cli.startup_ms"] = statistics.median(startup) if startup else 0.0
    out["trace.overhead_pct"] = (busy_s(traced) / busy_s(untraced) - 1.0) * 100.0
    layers_s = sum(t for t, span in zip(own, tracer.spans) if span[0] != "bench.item")
    out["trace.accounted_pct"] = layers_s / busy_s(traced) * 100.0
    return out


def report(workload, items, metrics, units):
    failed = [i for i in items if i.failure]
    unknown = [i for i in failed if not i.known_defect]
    print(f"workload {workload.name}: item = {workload.item}; "
          f"{len(items)} items, {len(failed)} failed "
          f"({len(failed) - len(unknown)} of them known defects)")
    all_units = {**units, **PRINTED_ONLY}
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {all_units[name]}")
    for msg in sorted({i.failure for i in unknown})[:5]:
        print(f"  unexpected failure: {msg}")
    print(json.dumps({
        "correct": not unknown,
        "attempted": len(items),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def import_seconds():
    """Seconds ``import grothq`` takes in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def set_up(workload):
    """Import grothq and set the workload up, ``SETUP_REPEATS`` times each.

    Returns (state, set-up seconds): the median import time plus the median
    set-up time, as measured (``raw_s``) and at the reference host speed
    (``ref_s``), each part scaled by the kernel times on either side of it.
    """
    import hostspeed
    kernels, parts = [hostspeed.measure()], {"import": [], "setup": []}
    for _ in range(SETUP_REPEATS):
        for part in parts:
            t0 = time.perf_counter()
            if part == "import":
                seconds = import_seconds()
            else:
                state = workload.setup()
                seconds = time.perf_counter() - t0
            kernels.append(hostspeed.measure())
            parts[part].append((seconds, seconds * hostspeed.factor(kernels[-2], kernels[-1])))
    return state, {
        key: sum(statistics.median(v[k] for v in values) for values in parts.values())
        for k, key in enumerate(("raw_s", "ref_s"))}


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "grothq" / "__init__.py").is_file():
        print(f"error: no grothq sources under {src}; run from a grothq checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ONE_THREAD)      # before numpy is first imported
    # One CPU for the benchmark and its children, so that the calibration
    # kernel runs where the program runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(src))

    import grothq
    from workloads import WORKLOADS
    if Path(grothq.__file__).resolve().parent != src / "grothq":
        print(f"error: imported grothq from {grothq.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](ROOT, args.seed, args.seconds)
    state, setup = set_up(workload)

    if not args.trace:
        items, kernels = measure(workload, state, args.seconds)
        report(workload, items, end_to_end_metrics(items, kernels, setup), END_TO_END)
        return 0

    tracer = Tracer()
    tracer.install()
    untraced, traced = measure_traced(workload, state, args.seconds, tracer)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"trace-{args.workload}.jsonl")
    report(workload, untraced + traced, per_layer_metrics(tracer, untraced, traced),
           PER_LAYER)
    return 0


if __name__ == "__main__":
    sys.exit(main())
