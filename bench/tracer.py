"""In-memory span tracer for the liegates layers.

The tracer wraps every public function of the package's modules from the
outside: each wrapper is installed under every name that a liegates module
(or the package namespace) binds to the original function object, because
modules import kernels by name (``from .linalg import herm_eig``) and look
them up in their own globals at call time.  Functions held as values of a
module-level dict (``lieclosure._BUILDERS``) are replaced there too.
Nothing inside ``src/`` is changed.

Each call records a span (id, parent id, operation id, name, start,
duration).  Spans stay in memory, up to a cap, and are written out when the
run ends.  Aggregates per function (calls, total time, self time) and per
parent -> child edge are kept for every call, so they stay exact when the
span list is capped.  Self time is the span's duration minus the time of
the wrapped calls made directly inside it.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

# the package's layers, in the order they depend on each other
LAYERS = ("linalg", "generators", "symalg", "lieclosure", "compiler", "cli")

# public methods traced in addition to module-level functions: the CLI's
# closure subcommand spends its recipe check here
METHODS = (("lieclosure", "LieBasis", "max_recipe_residual"),)

# spans kept in memory; later calls still count in the aggregates
SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.op_id = -1
        self.stats: dict[str, list] = {}       # name -> [calls, total_s, self_s]
        self.edges: dict[tuple[str, str], int] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self._next_id = 0
        self._stack: list[list] = []           # [span id, name, child seconds]
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [sid, name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            self._stack.pop()
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[2]
            if parent is not None:
                parent[2] += dur
                key = (parent[1], name)
                self.edges[key] = self.edges.get(key, 0) + 1
            if len(self.spans) < SPAN_CAP:
                self.spans.append((sid, parent[0] if parent else -1, self.op_id,
                                   name, start - self.t0, dur))
            else:
                self.dropped += 1
        probe = PROBES.get(name)
        if probe is not None:
            probe(self.counters, args, result)
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, lib) -> None:
        """Replace every public function of every layer, under all its names."""
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(lib, layer)
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in [lib.pkg] + [getattr(lib, layer) for layer in LAYERS]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._installed.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrappers:
                            self._installed.append((obj, key, val))
                            obj[key] = wrappers[val]
        for layer, cls_name, meth in METHODS:
            cls = getattr(getattr(lib, layer), cls_name)
            orig = vars(cls)[meth]
            self._installed.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{layer}.{meth}", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._installed):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._installed = []

    # -- results -----------------------------------------------------------

    def layer_totals(self, layer: str) -> tuple[int, float]:
        calls, self_s = 0, 0.0
        for name, (c, _, s) in self.stats.items():
            if name.split(".", 1)[0] == layer:
                calls += c
                self_s += s
        return calls, self_s

    def write(self, path, meta: dict) -> None:
        """Write spans, aggregates and run metadata as one JSON document."""
        doc = {
            "meta": meta,
            "span_fields": ["id", "parent", "op", "name", "start_s", "dur_s"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "stats": {k: {"calls": c, "total_s": t, "self_s": s}
                      for k, (c, t, s) in sorted(self.stats.items())},
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items())],
            "counters": self.counters,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# -- probes: counters read from a traced call's arguments and result --------

def _bump(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _probe_closure(counters, args, basis):
    n = basis.matrix_dim
    # the dense engine preallocates an (N^2, N, N) complex buffer
    counters["closure.buffer_bytes_computed"] = max(
        counters.get("closure.buffer_bytes_computed", 0), n**4 * 16)
    _bump(counters, "closure.admitted", basis.dim - basis.generations.count(0))


def _probe_evaluate(counters, args, result):
    seq = args[0]
    items = seq.items if hasattr(seq, "items") else seq
    _bump(counters, "evaluate.gates", len(items))


PROBES = {
    "lieclosure.closure": _probe_closure,
    "compiler.evaluate": _probe_evaluate,
}


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each normalised per pass over the workload's ops."""
    per = 1.0 / passes
    out: dict[str, tuple[float, str]] = {}

    def stat(name):
        return tracer.stats.get(name, [0, 0.0, 0.0])

    for layer in LAYERS:
        calls, self_s = tracer.layer_totals(layer)
        out[f"{layer}.calls"] = (calls * per, "count")
        out[f"{layer}.self_s"] = (self_s * per, "s")

    full = ("linalg.herm_eig", "linalg.unitary_eig", "linalg.logm_unitary",
            "compiler.compile", "lieclosure.closure", "lieclosure.membership",
            "symalg.span_dimension", "cli.run")
    short = ("linalg.expm_antiherm", "linalg.commutator", "compiler.gate_matrix",
             "compiler.evaluate", "compiler.compile_report",
             "lieclosure.max_recipe_residual", "lieclosure.build_family")
    for name in full + short:
        calls, total, self_s = stat(name)
        out[f"{name}.calls"] = (calls * per, "count")
        out[f"{name}.total_s"] = (total * per, "s")
        if name in full:
            out[f"{name}.self_s"] = (self_s * per, "s")
    out["symalg.mono_mul.calls"] = (stat("symalg.mono_mul")[0] * per, "count")

    calls, total, _ = stat("compiler.gate_matrix")
    out["compiler.gate_matrix.us_per_call"] = (1e6 * total / calls if calls else 0.0, "us")
    gates = tracer.counters.get("evaluate.gates", 0)
    out["compiler.evaluate.gates"] = (gates * per, "count")
    out["compiler.evaluate.us_per_gate"] = (
        1e6 * stat("compiler.evaluate")[1] / gates if gates else 0.0, "us")
    compiles = stat("compiler.compile")[0]
    logm_in_compile = tracer.edges.get(("compiler.compile", "linalg.logm_unitary"), 0)
    out["compiler.logm_calls_per_compile"] = (
        logm_in_compile / compiles if compiles else 0.0, "count")

    tried = tracer.edges.get(("lieclosure.closure", "linalg.commutator"), 0)
    admitted = tracer.counters.get("closure.admitted", 0)
    out["lieclosure.admit_ratio"] = (admitted / tried if tried else 0.0, "ratio")
    out["lieclosure.closure.buffer_bytes_computed"] = (
        float(tracer.counters.get("closure.buffer_bytes_computed", 0)), "bytes")
    return out


def setup_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Where one traced set-up spends its time, by layer."""
    out = {}
    for layer in ("linalg", "generators", "lieclosure"):
        out[f"setup.{layer}.self_s"] = (tracer.layer_totals(layer)[1], "s")
    for name in ("lieclosure.build_family", "lieclosure.closure"):
        out[f"setup.{name}.total_s"] = (tracer.stats.get(name, [0, 0.0, 0.0])[1], "s")
    return out
