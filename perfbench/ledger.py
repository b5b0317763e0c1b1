"""Per-layer ledger: spans recorded around the public entry points of
each ``repro`` module, installed from the benchmark's own files.

Nothing under ``src/`` changes.  :func:`install` replaces each entry
point with a wrapper that records a span (name, start, end, parent,
request id) in memory and, for a few entry points, reads the counters
the call left behind (``SatStats``, ``SolverStats``, cache outcomes).
Class methods are patched on the class; functions that other modules
import lazily are patched on their own module, and functions imported
by name at module load are patched where the caller looks them up.

A layer's self time is its spans' durations minus the time their child
spans cover.  :func:`layer_metrics` turns a recorder's summary into
the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict

#: (span id, request id) of the innermost open span in this context.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=(None, None))

#: Span name -> ledger layer.  Spans not listed (``bench.op``) belong to
#: the harness; their self time is reported as ``share.unattributed``.
LAYER_OF = {
    "lang.parse": "lang", "lang.check": "lang",
    "compiler.machine": "compiler", "compiler.step": "compiler",
    "smt.intervals": "smt_encode", "smt.bitblast": "smt_encode",
    "smt.check": "smt_glue",
    "sat.solve": "sat",
    "trust.drat": "trust", "trust.replay": "trust",
    "engine.cache_get": "engine", "engine.cache_put": "engine",
    "persist.append": "persist", "persist.flush": "persist",
    "persist.submit": "persist",
    "serve.admit": "serve", "serve.handle": "serve", "serve.solve": "serve",
}

LAYERS = ("lang", "compiler", "smt_encode", "smt_glue", "sat", "trust",
          "engine", "persist", "serve", "wire", "unattributed")

#: Per-layer metric names and units, in BENCHMARK.json order.
METRICS = [
    ("lang.parse_s", "s"), ("lang.check_s", "s"), ("lang.programs", "count"),
    ("compiler.symexec_s", "s"), ("compiler.steps", "count"),
    ("smt.terms_interned", "count"),
    ("smt.intervals_s", "s"), ("smt.bitblast_s", "s"),
    ("smt.cnf_vars", "count"), ("smt.cnf_clauses", "count"),
    ("smt.check_s", "s"), ("runtime.attempts_per_verdict", "count"),
    ("sat.solve_s", "s"), ("sat.solves", "count"),
    ("sat.conflicts", "count"), ("sat.decisions", "count"),
    ("sat.propagations", "count"), ("sat.learned", "count"),
    ("sat.inprocessings", "count"), ("sat.props_per_s", "1/s"),
    ("trust.drat_s", "s"), ("trust.certificates", "count"),
    ("trust.replay_s", "s"),
    ("engine.cache_get_s", "s"), ("engine.cache_hits", "count"),
    ("engine.cache_misses", "count"), ("engine.cache_hit_ratio", "ratio"),
    ("persist.append_s", "s"), ("persist.appends", "count"),
    ("persist.submit_s", "s"), ("persist.replayed", "count"),
    ("serve.admit_s", "s"), ("serve.rejected", "count"),
    ("serve.handle_s", "s"), ("serve.solve_s", "s"), ("serve.wire_s", "s"),
    ("bench.kernel_s", "s"), ("bench.late_p90_s", "s"),
    ("bench.trace_overhead", "ratio"), ("bench.traced_verdicts", "count"),
] + [(f"share.{layer}", "ratio") for layer in LAYERS]

#: Self-time metrics: ledger metric -> the spans whose self time it sums.
SELF_TIME = {
    "lang.parse_s": ("lang.parse",), "lang.check_s": ("lang.check",),
    "compiler.symexec_s": ("compiler.machine", "compiler.step"),
    "smt.intervals_s": ("smt.intervals",), "smt.bitblast_s": ("smt.bitblast",),
    "smt.check_s": ("smt.check",), "sat.solve_s": ("sat.solve",),
    "trust.drat_s": ("trust.drat",), "trust.replay_s": ("trust.replay",),
    "engine.cache_get_s": ("engine.cache_get", "engine.cache_put"),
    # Journal.append fsyncs each record; submit's own flush fsyncs again.
    "persist.append_s": ("persist.append", "persist.flush"),
    "persist.submit_s": ("persist.submit",),
    "serve.admit_s": ("serve.admit",), "serve.solve_s": ("serve.solve",),
}


class Recorder:
    """In-memory spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, req)
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: list[tuple] = []
        self._interned_at_install = 0

    # ----- recording ----------------------------------------------------

    def open(self, name: str, request: object = None):
        """Start a span; returns the token :meth:`close` needs."""
        parent, req = _CURRENT.get()
        sid = next(self._ids)
        if parent is None:
            req = sid if request is None else request
        token = _CURRENT.set((sid, req))
        return (sid, name, parent, req, token, time.perf_counter())

    def close(self, handle) -> None:
        end = time.perf_counter()
        sid, name, parent, req, token, start = handle
        _CURRENT.reset(token)
        with self._lock:
            self.spans.append((sid, name, start, end, parent, req))

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    # ----- installation -------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        recorder = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                handle = recorder.open(name)
                try:
                    result = await original(*args, **kwargs)
                finally:
                    recorder.close(handle)
                if after is not None:
                    after(recorder, args, result)
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                handle = recorder.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    recorder.close(handle)
                if after is not None:
                    after(recorder, args, result)
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> "Recorder":
        """Wrap every layer's public entry points (idempotent per process)."""
        if self._patches:
            return self
        from repro.smt.terms import intern_table_size

        self._interned_at_install = intern_table_size()
        for owner, attr, name, after in entry_points():
            self._wrap(owner, attr, name, after)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def interned_since_install(self) -> int:
        from repro.smt.terms import intern_table_size

        return intern_table_size() - self._interned_at_install

    # ----- the ledger ---------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time (duration minus child cover)."""
        children: dict = defaultdict(list)
        for sid, _name, start, end, parent, _req in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _parent, _req in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            totals[name] += (end - start) - covered
        return dict(totals)

    def summary(self) -> dict:
        """The JSON-able raw material of :func:`layer_metrics`."""
        handled = [end - start for _sid, name, start, end, _p, _r
                   in self.spans if name == "serve.handle"]
        counts = dict(self.counts)
        if self._patches:
            counts["smt.terms_interned"] = self.interned_since_install()
        return {"self_times": self.self_times(), "counts": counts,
                "handled": [len(handled), sum(handled)]}


def entry_points() -> list[tuple]:
    """(owner, attribute, span name, counter hook) for every wrapped call."""
    from repro.analysis import traces
    from repro.compiler.symexec import SymbolicMachine
    from repro.engine.cache import ResultCache
    from repro.lang import checker, parser
    from repro.persist.batch import BatchRunner
    from repro.persist.journal import Journal
    from repro.serve.admission import AdmissionController
    from repro.serve.service import AnalysisService
    from repro.smt import bitblast
    from repro.smt.sat.cdcl import CDCLSolver
    from repro.smt.solver import SmtSolver
    from repro.trust.drat import Certificate

    return [
        (parser, "parse_program", "lang.parse", None),
        (checker, "check_program", "lang.check", _after_check),
        (SymbolicMachine, "__init__", "compiler.machine", None),
        (SymbolicMachine, "exec_step", "compiler.step", _after_step),
        # bitblast imported infer_intervals by name: patch its binding.
        (bitblast, "infer_intervals", "smt.intervals", None),
        (bitblast.BitBlaster, "assert_formula", "smt.bitblast", None),
        (SmtSolver, "check", "smt.check", _after_check_smt),
        (CDCLSolver, "solve", "sat.solve", _after_solve),
        (Certificate, "verify", "trust.drat", _after_verify),
        (traces, "replay", "trust.replay", None),
        (ResultCache, "get", "engine.cache_get", _after_cache_get),
        (ResultCache, "put", "engine.cache_put", None),
        (Journal, "append", "persist.append", _after_append),
        (Journal, "flush", "persist.flush", None),
        (BatchRunner, "submit_one", "persist.submit", None),
        (BatchRunner, "execute_record", "serve.solve", None),
        (AdmissionController, "admit", "serve.admit", _after_admit),
        (AnalysisService, "analyze", "serve.handle", None),
    ]


# ----- counter hooks (run after the wrapped call returns) ---------------

def _after_check(rec: Recorder, args, result) -> None:
    rec.count("lang.programs")


def _after_step(rec: Recorder, args, result) -> None:
    rec.count("compiler.steps")


def _after_check_smt(rec: Recorder, args, result) -> None:
    stats = args[0].stats
    rec.count("smt.checks")
    rec.count("smt.cnf_vars", stats.cnf_vars)
    rec.count("smt.cnf_clauses", stats.cnf_clauses)
    rec.count("runtime.attempts", stats.attempts)


def _after_solve(rec: Recorder, args, result) -> None:
    last = args[0].last_stats
    rec.count("sat.solves")
    for field in ("conflicts", "decisions", "propagations", "learned",
                  "inprocessings"):
        rec.count(f"sat.{field}", getattr(last, field))


def _after_verify(rec: Recorder, args, result) -> None:
    if result:
        rec.count("trust.certificates")


def _after_cache_get(rec: Recorder, args, result) -> None:
    rec.count("engine.cache_hits" if result is not None
              else "engine.cache_misses")


def _after_append(rec: Recorder, args, result) -> None:
    rec.count("persist.appends")


def _after_admit(rec: Recorder, args, result) -> None:
    if not result.admitted:
        rec.count("serve.rejected")


def layer_metrics(summary: dict, verdicts: int,
                  wire_total: float = 0.0) -> dict[str, float]:
    """Every ``lang.*`` .. ``share.*`` metric from one :meth:`summary`.

    Times are self seconds per verdict (``serve.handle_s`` is the mean
    handler duration per request); counts are totals over the traced
    verdicts.  ``wire_total`` is client-observed time not spent inside
    the server's request handler (serve_mixed only).
    """
    per = max(1, verdicts)
    self_t = summary["self_times"]
    counts = Counter(summary["counts"])
    out: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(self_t.get(n, 0.0) for n in names) / per
    n_handled, handled_total = summary["handled"]
    out["serve.handle_s"] = handled_total / max(1, n_handled)
    out["serve.wire_s"] = wire_total / per
    for metric in ("lang.programs", "compiler.steps", "smt.terms_interned",
                   "smt.cnf_vars", "smt.cnf_clauses", "sat.solves",
                   "sat.conflicts", "sat.decisions", "sat.propagations",
                   "sat.learned", "sat.inprocessings", "trust.certificates",
                   "engine.cache_hits", "engine.cache_misses",
                   "persist.appends", "persist.replayed", "serve.rejected"):
        out[metric] = counts.get(metric, 0)
    out["runtime.attempts_per_verdict"] = counts.get("runtime.attempts", 0) / per
    sat_time = self_t.get("sat.solve", 0.0)
    out["sat.props_per_s"] = (counts.get("sat.propagations", 0) / sat_time
                              if sat_time else 0.0)
    lookups = counts.get("engine.cache_hits", 0) + counts.get(
        "engine.cache_misses", 0)
    out["engine.cache_hit_ratio"] = (
        counts.get("engine.cache_hits", 0) / lookups if lookups else 0.0)
    by_layer: dict[str, float] = defaultdict(float)
    for name, seconds in self_t.items():
        by_layer[LAYER_OF.get(name, "unattributed")] += seconds
    by_layer["wire"] += wire_total
    total = sum(by_layer.values()) or 1.0
    for layer in LAYERS:
        out[f"share.{layer}"] = by_layer.get(layer, 0.0) / total
    return out
