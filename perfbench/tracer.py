"""Spans around the public functions of every grothq module, kept in memory.

The tracer replaces each public function of ``grothq.<module>`` with a timing
wrapper at every module attribute that binds it, so calls made through a
re-export (``forms.largest_singular_value``, ``grothq.classify``) are seen
too.  Nothing inside ``src/`` changes: the wrappers are installed from here.
A span records its layer name, the item it belongs to, its parent span, its
start and end times and whether it raised.  Self time is the span's duration
minus the time covered by its direct children.
"""

import functools
import importlib
import inspect
import json
import time

MODULES = ("linalg", "norms", "forms", "states", "ensembles", "experiments",
           "matrix_io", "cli")

# Counts read from the objects a traced function returns.
COUNTERS = {
    "forms.g_lower": lambda run: run.converged_fraction,
    "forms.phase_system_solvable": lambda report: int(report.used_shift_enumeration),
}


def _public_functions(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    for name in names:
        obj = getattr(mod, name, None)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield name, obj


class Tracer:
    """Collects spans while ``recording`` is true; one instance per process."""

    def __init__(self):
        self.spans = []          # [layer, item, parent, t0, t1, failed, count]
        self.stack = []
        self.item = None
        self.recording = False

    def install(self):
        """Wrap every public function of every grothq module, at every binding."""
        import grothq
        mods = [grothq] + [importlib.import_module(f"grothq.{m}") for m in MODULES]
        wrappers = {}
        for short, mod in zip(MODULES, mods[1:]):
            for name, fn in _public_functions(mod):
                wrappers[fn] = self._wrap(f"{short}.{name}", fn)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        return sorted(w.layer for w in wrappers.values())

    def _wrap(self, layer, fn):
        counter = COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = [layer, self.item, self.stack[-1] if self.stack else None,
                    0.0, 0.0, False, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                span[6] = counter(result)
            return result

        traced.layer = layer
        return traced

    def open(self, layer, item):
        """Start a span the benchmark itself owns (one per item); returns its index."""
        self.item = item
        self.stack.append(len(self.spans))
        self.spans.append([layer, item, None, time.perf_counter(), 0.0, False, None])
        self.recording = True
        return self.stack[-1]

    def close(self, index, failed=False):
        span = self.spans[index]
        span[4] = time.perf_counter()
        span[5] = failed
        self.stack.pop()
        self.recording = False

    def adopt(self, spans, parent):
        """Append spans recorded by a child process under ``parent`` (a span index)."""
        base = len(self.spans)
        item = self.spans[parent][1]
        for layer, _, par, t0, t1, failed, count in spans:
            self.spans.append([layer, item, parent if par is None else base + par,
                               t0, t1, failed, count])

    def dump(self, path):
        """Write all spans as JSON lines, once, at the end of a run."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (layer, item, parent, t0, t1, failed, count) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "layer": layer, "item": item,
                                     "parent": parent, "start": t0, "end": t1,
                                     "failed": failed, "count": count}))
                fh.write("\n")


def self_times(spans):
    """Seconds of each span not covered by its direct children."""
    own = [t1 - t0 for _, _, _, t0, t1, _, _ in spans]
    for _, _, parent, t0, t1, _, _ in spans:
        if parent is not None:
            own[parent] -= t1 - t0
    return own


def layer_stats(spans):
    """Per-layer calls, self/inclusive milliseconds, failures and summed counts."""
    stats = {}
    for own, (layer, _, _, t0, t1, failed, count) in zip(self_times(spans), spans):
        s = stats.setdefault(layer, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0,
                                     "failures": 0, "count": 0.0})
        s["calls"] += 1
        s["total_ms"] += (t1 - t0) * 1e3
        s["self_ms"] += own * 1e3
        s["failures"] += int(failed)
        if count is not None:
            s["count"] += count
    return stats
