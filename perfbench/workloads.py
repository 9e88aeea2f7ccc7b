"""The four benchmark workloads: seeded inputs, one closed-loop caller, checks.

Every workload turns a seed and a run length into a fixed list of inputs
during set-up, then runs its *steps* in order.  A step yields one or two
items, each with its latency and the outcome of the checks made on its
output.  The number of steps depends on ``--seconds`` through ``RATE``, a
nominal items-per-second figure, and never on the speed of the host, so the
same seed and run length always attempt the same items.  The program is
always reached through a module attribute (``forms.classify``), so the
tracer's wrappers see the call.

A failed item is one that raised, failed a check or gave a wrong verdict.
``known_defect`` marks the three failures the program is known to have:
  * ``phase_system_solvable`` calls a solvable system unsolvable when it has
    more than ``shift_budget`` = 12 equations and fails at face value;
  * ``experiment h6``, ``h12`` and ``bounded`` print ``runtime_s`` on stdout,
    so a repeated command's stdout differs in that key only;
  * ``largest_singular_value`` raises ConvergenceError when the two largest
    singular values nearly tie (seen once in about 7000 rarity samples).
Any other failure means the program's output is wrong.
"""

import json
import math
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from grothq import ensembles, experiments, forms
from oracles import phases_consistent, support_has_cycle, witness_matches

K_G_UPPER = 1.4049          # the paper's ceiling for the trace form
STARTS = 16
WARM_UP_SEED = 2**40        # the same warm-up inputs for every --seed, so set-up cost is comparable


def size(seconds, rate, block):
    """Whole blocks of ``block`` items for about ``seconds`` at ``rate`` items per second."""
    return max(1, round(seconds * rate / block))


@dataclass
class Item:
    latency_s: float
    failure: str = ""           # empty when every check passed
    known_defect: bool = False
    wrong_verdict: bool = False
    ratio: float = None         # g_upper / g_lower (classify_gaussian)
    q: float = None             # rarity q_value (rarity_normal)
    ref_s: float = None         # latency at the reference host speed (hostspeed.py)

    def __post_init__(self):
        # the ConvergenceError message, in process or on a child's stderr
        self.known_defect = self.known_defect or "did not converge" in self.failure


def timed(tracer, item_id, fn, *args, **kwargs):
    """Call ``fn`` once; return (result, seconds, error text or "")."""
    span = tracer.open("bench.item", item_id) if tracer else None
    t0 = time.perf_counter()
    try:
        result, error = fn(*args, **kwargs), ""
    except Exception as exc:            # the item fails; the run goes on
        result, error = None, f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    elapsed = time.perf_counter() - t0
    if tracer:
        tracer.close(span, failed=bool(error))
    return result, elapsed, error


def _rel_gap(a, b):
    return abs(a - b) / max(1.0, abs(b))


def check_bracket(m, g_lower, g_upper, g_prime, s, t):
    """Checks on a classification of ``m``; returns "" or what failed."""
    if not g_lower <= g_upper * (1 + 1e-12):
        return f"g_lower {g_lower} > g_upper {g_upper}"
    value = forms.eval_C(m, s, t)
    if _rel_gap(value, g_lower) > 1e-12:
        return f"witness evaluates to {value}, reported {g_lower}"
    exact = m.shape[0] * np.linalg.svd(m, compute_uv=False)[0]
    if _rel_gap(g_prime, exact) > 1e-9:
        return f"g_prime {g_prime} vs d * svd {exact}"
    return ""


class ClassifyGaussian:
    """forms.classify on complex Gaussians, d = 2..8 in equal shares, 16 starts."""

    name = "classify_gaussian"
    item = "one matrix classified by forms.classify"
    RATE = 10.0                  # shuffled blocks of d = 2..8

    def __init__(self, root, seed, seconds):
        self.seed = seed
        self.blocks = size(seconds, self.RATE, 7)
        self.cfg = forms.OptimizerConfig(starts=STARTS)

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        pool = [ensembles.complex_gaussian(rng, int(d))
                for _ in range(self.blocks) for d in rng.permutation(np.arange(2, 9))]
        warm = np.random.default_rng(WARM_UP_SEED)
        for d in (2, 3, 4):
            forms.classify(ensembles.complex_gaussian(warm, d), self.cfg)
        return pool

    def steps(self, pool):
        return range(len(pool))

    def run(self, pool, index, tracer):
        m = pool[index]
        res, lat, error = timed(tracer, index, forms.classify, m, self.cfg)
        if error:
            return [Item(lat, error)]
        s, t = res.witnesses
        failure = check_bracket(m, res.g_lower, res.g_upper, res.g_prime, s, t)
        return [Item(lat, failure, ratio=res.g_upper / res.g_lower)]


class RarityNormal:
    """experiments.run_rarity("random_normal", dim=6, starts=16), one sample a call."""

    name = "rarity_normal"
    item = "one rarity sample, timed from the call to its sink callback"
    RATE = 5.5

    def __init__(self, root, seed, seconds):
        self.seed = seed
        self.samples = size(seconds, self.RATE, 1)

    def setup(self):
        experiments.run_rarity("random_normal", 1, WARM_UP_SEED, STARTS,
                               dim=6, sink=lambda record: None)
        return [self.seed * 100_003 + k for k in range(self.samples)]

    def steps(self, seeds):
        return seeds

    def run(self, seeds, sample_seed, tracer):
        """One sample: run_rarity with samples=1, so the host is calibrated between samples."""
        stamps, records = [], []

        def sink(record):
            stamps.append(time.perf_counter())
            records.append(record)

        t0 = time.perf_counter()
        stats, lat, error = timed(tracer, sample_seed, experiments.run_rarity,
                                  "random_normal", 1, sample_seed, STARTS, dim=6, sink=sink)
        if error or not records:
            return [Item(lat, error or "no record reached the sink")]
        rec = records[0]
        failure = self.check(0, rec) or self.check_stats(stats, records)
        return [Item(stamps[0] - t0, failure, q=rec["q_value"])]

    def check(self, index, rec):
        q = rec["q_value"]
        if not (math.isfinite(q) and 0.0 <= q <= K_G_UPPER + 1e-9):
            return f"q_value {q} outside [0, {K_G_UPPER}]"
        region = ("classical" if q <= 1.0 + 1e-9
                  else "grothendieck" if q <= K_G_UPPER + 1e-9 else "exceeds")
        if rec["region"] != region:
            return f"region {rec['region']} for q = {q}"
        if rec["index"] != index or rec["in_G"] != "certified_yes" or rec["dim"] != 6:
            return f"record fields {rec}"
        return ""

    def check_stats(self, stats, records):
        qs = [r["q_value"] for r in records]
        in_region = sum(r["region"] == "grothendieck" for r in records)
        if (stats.samples != 1 or len(records) != 1
                or stats.count_in_region != in_region or stats.max_q_seen != max(qs)):
            return f"summary {stats.to_dict()} disagrees with its records"
        return ""


def rank_one(rng, d):
    u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return np.outer(u, v)


def sparse_support(rng, d, n, solvable):
    """n nonzero entries; phases chi_i + psi_j when ``solvable``, else independent."""
    theta = np.zeros((d, d), dtype=complex)
    cells = rng.choice(d * d, size=n, replace=False)
    rows, cols = np.divmod(cells, d)
    moduli = rng.uniform(0.5, 1.5, n)
    if solvable:
        chi, psi = rng.uniform(-np.pi, np.pi, d), rng.uniform(-np.pi, np.pi, d)
        phases = chi[rows] + psi[cols]
    else:
        phases = rng.uniform(-np.pi, np.pi, n)
    theta[rows, cols] = moduli * np.exp(1j * phases)
    return theta


class PhaseSupport:
    """forms.phase_system_solvable on supports whose answer is known by construction."""

    name = "phase_support"
    item = "one phase verdict from forms.phase_system_solvable"
    RATE = 17.0                  # blocks of 24 supports
    SPARSE_DIM = 6

    def __init__(self, root, seed, seconds):
        self.seed = seed
        self.blocks = size(seconds, self.RATE, 24)

    def block(self, rng):
        """One block: rank-one d = 2..8 twice, then sparse n = 8..12 of each kind."""
        items = [(rank_one(rng, d), True) for d in range(2, 9) for _ in range(2)]
        for n in range(8, 13):
            items.append((sparse_support(rng, self.SPARSE_DIM, n, True), True))
            theta = sparse_support(rng, self.SPARSE_DIM, n, False)
            items.append((theta, not support_has_cycle(theta)))
        return [items[k] for k in rng.permutation(len(items))]

    def setup(self):
        rng = np.random.default_rng([self.seed, 3])
        pool = [item for _ in range(self.blocks) for item in self.block(rng)]
        warm = np.random.default_rng(WARM_UP_SEED)
        for theta in (rank_one(warm, 4), sparse_support(warm, self.SPARSE_DIM, 8, True),
                      sparse_support(warm, self.SPARSE_DIM, 8, False)):
            forms.phase_system_solvable(theta)
        return pool

    def steps(self, pool):
        return range(len(pool))

    def run(self, pool, index, tracer):
        theta, truth = pool[index]
        rep, lat, error = timed(tracer, index, forms.phase_system_solvable, theta)
        if error:
            return [Item(lat, error)]
        return [self.judge(theta, truth, rep, lat)]

    @staticmethod
    def judge(theta, truth, rep, lat):
        if rep.n_equations != np.count_nonzero(theta):
            return Item(lat, f"n_equations {rep.n_equations}")
        if rep.solvable != truth:
            known = truth and rep.n_equations > 12
            return Item(lat, f"verdict {rep.solvable}, truth {truth}",
                        known_defect=known, wrong_verdict=True)
        if rep.solvable and not witness_matches(theta, rep.chi, rep.psi):
            return Item(lat, "solved phases do not reproduce arg theta")
        return Item(lat)


def _complex_list(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def _load(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return _complex_list(doc["entries"]).reshape(doc["rows"], doc["cols"])


class CliSession:
    """A fixed script of grothq commands, each run twice as its own child process."""

    name = "cli_session"
    item = "one grothq command run as a child process"
    RATE = 3.0                   # passes of 11 commands, each run twice
    TIMEOUT_S = 120

    def __init__(self, root, seed, seconds):
        self.root = Path(root)
        self.seed = seed
        self.passes = size(seconds, self.RATE, 22)
        self.first_stdout = {}       # (pass, command, traced) -> stdout of the first run
        self.workdir = self.root / ".perfbench_out" / "cli"
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))

    def script(self):
        rng = np.random.default_rng([self.seed, 5])
        seed = str(int(rng.integers(0, 2**31)))
        lam6 = float(rng.uniform(0.02, 0.2))
        lam12 = float(rng.uniform(0.01, 1 / 12))
        p3, p4 = str(self.workdir / "pi3.json"), str(self.workdir / "pi4.json")
        return [
            (["projector", "--dim", "3", "--out", p3], self.check_projector(3, p3)),
            (["projector", "--dim", "4", "--out", p4], self.check_projector(4, p4)),
            (["classify", "--matrix", p3, "--starts", str(STARTS), "--seed", seed],
             lambda doc: self.check_classify(doc, p3)),
            (["gbound", "--matrix", p4], lambda doc: self.check_gbound(doc, p4)),
            (["phases", "--matrix", p4], lambda doc: self.check_phases(doc, p4)),
            (["norms", "--matrix", p4], lambda doc: self.check_norms(doc, p4)),
            (["states", "--dim", "4"], self.check_states),
            (["experiment", "h6", "--lambda", repr(lam6)],
             lambda doc: self.check_trace_value(doc, 6 * lam6)),
            (["experiment", "h12", "--lambda", repr(lam12)],
             lambda doc: self.check_trace_value(doc, 12 * lam12)),
            (["experiment", "g6", "--starts", str(STARTS), "--seed", seed], self.check_g6),
            (["experiment", "bounded", "--dim", "3", "--samples", "50", "--seed", seed],
             self.check_bounded),
        ]

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.child(["--help"], None)
        return self.script()

    def steps(self, script):
        return [(p, k, rep) for p in range(self.passes) for k in range(len(script))
                for rep in (0, 1)]

    def child(self, args, spans_path):
        if spans_path is None:
            cmd = [sys.executable, "-m", "grothq.cli", *args]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                   spans_path, "--", *args]
        return subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              timeout=self.TIMEOUT_S, check=False)

    def run(self, script, step, tracer):
        """One run of one command; a repeat's stdout is compared with the first run's."""
        pass_no, k, rep = step
        args, check = script[k]
        spans_path = self.workdir / "spans.json" if tracer else None
        if tracer:
            spans_path.unlink(missing_ok=True)
            span = tracer.open("cli.process", f"{pass_no}.{k}.{rep}")
        t0 = time.perf_counter()
        try:
            proc = self.child(args, spans_path and str(spans_path))
        except subprocess.TimeoutExpired:
            proc = None
        lat = time.perf_counter() - t0
        if tracer:
            tracer.close(span, failed=proc is None or proc.returncode != 0)
            if spans_path.exists():
                with open(spans_path, encoding="utf-8") as fh:
                    tracer.adopt(json.load(fh), span)
        item = Item(lat, self.judge(check, proc))
        stdout = proc.stdout if proc is not None else b""
        first = (pass_no, k, tracer is not None)     # traced and untraced runs pair apart
        if rep == 0:
            self.first_stdout[first] = stdout
        else:
            earlier = self.first_stdout.pop(first, b"")
            if not item.failure and stdout != earlier:
                item.failure = "stdout differs from the first run"
                item.known_defect = _differs_in_runtime_only(earlier, stdout)
        item.wrong_verdict = args[0] == "phases" and item.failure.startswith("verdict")
        return [item]

    @staticmethod
    def judge(check, proc):
        if proc is None:
            return "timed out"
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-200:]}"
        try:
            return check(json.loads(proc.stdout))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed output: {exc!r}"

    @staticmethod
    def check_projector(d, path):
        def check(doc):
            p = _load(path)
            if (doc["dim"], doc["dim_big"], doc["rank"]) != (d, d * (d - 1), d):
                return f"projector header {doc}"
            if abs(doc["trace"] - d) > 1e-9 or np.abs(p @ p - p).max() > 1e-9:
                return "not a rank-d projector"
            if np.abs(p - p.conj().T).max() > 1e-12:
                return "projector is not Hermitian"
            return ""
        return check

    @staticmethod
    def check_classify(doc, path):
        s, t = (forms.PolydiscTuple(_complex_list(doc["witness"][k])) for k in "st")
        return check_bracket(_load(path), doc["g_lower"], doc["g_upper"], doc["g_prime"],
                             s, t)

    @staticmethod
    def check_gbound(doc, path):
        p = _load(path)
        exact = p.shape[0] * np.linalg.svd(p, compute_uv=False)[0]
        if _rel_gap(doc["g_prime"], exact) > 1e-9:
            return f"g_prime {doc['g_prime']} vs d * svd {exact}"
        if _rel_gap(doc["l1_norm"], np.abs(p).sum()) > 1e-12:
            return f"l1_norm {doc['l1_norm']}"
        if doc["g_upper"] != min(doc["l1_norm"], doc["g_prime"]):
            return f"g_upper {doc['g_upper']}"
        return ""

    @staticmethod
    def check_phases(doc, path):
        p = _load(path)
        truth = phases_consistent(p)
        if doc["solvable"] != truth:
            return f"verdict {doc['solvable']}, truth {truth}"
        if truth and not witness_matches(p, doc["chi"], doc["psi"]):
            return "solved phases do not reproduce arg theta"
        return ""

    @staticmethod
    def check_norms(doc, path):
        p = _load(path)
        n = np.linalg.norm(p, axis=1).max()
        if _rel_gap(doc["n_factor"], n) > 1e-12:
            return f"n_factor {doc['n_factor']} vs {n}"
        return ""

    @staticmethod
    def check_states(doc):
        if doc["resolution_residual"] > 1e-9:
            return f"resolution residual {doc['resolution_residual']}"
        if not (doc["isotropy"]["ok"] and doc["permutation_invariance"]["ok"]):
            return "isotropy or permutation invariance failed"
        return ""

    @staticmethod
    def check_trace_value(doc, q):
        if _rel_gap(doc["q_value"], q) > 1e-12:
            return f"q_value {doc['q_value']} vs {q}"
        return ""

    @staticmethod
    def check_g6(doc):
        if not doc["agrees"] or abs(doc["general_value"] - (3 + 2 * math.sqrt(2))) > 1e-6:
            return f"g6 routes give {doc['general_value']}, {doc['specialized_value']}"
        return ""

    @staticmethod
    def check_bounded(doc):
        top = max(doc["q_value"], doc["diagnostics"]["weyl_max"])
        if top > 1.0 + 1e-12 or not doc["diagnostics"]["unit_bound_tighter_always"]:
            return f"bounded family reaches {top}"
        return ""


def _differs_in_runtime_only(first, second):
    try:
        a, b = json.loads(first), json.loads(second)
    except json.JSONDecodeError:
        return False
    for doc in (a, b):
        doc.get("diagnostics", {}).pop("runtime_s", None)
    return a == b


WORKLOADS = {w.name: w for w in (ClassifyGaussian, RarityNormal, PhaseSupport, CliSession)}
