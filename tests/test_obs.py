"""The :mod:`repro.obs` observability layer.

Covers the observability tentpole: span nesting and attribution,
metric series semantics (counter add / gauge last-write-wins /
histogram bucket merge), Chrome trace-event schema validity,
cross-process metric aggregation from the ``REPRO_JOBS=2`` portfolio
pool, the per-solve vs lifetime CDCL stats split, and the guard that
keeps disabled telemetry near-free (<2% of the smallest SAT-ablation
workload).
"""

import json
import os
import time
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.backends.dafny import DafnyBackend
from repro.compiler.symexec import EncodeConfig
from repro.netmodels.schedulers import fq_buggy
from repro.obs import METRICS, TRACER, MetricsRegistry, TelemetrySnapshot
from repro.obs.export import snapshot_from_chrome_trace
from repro.obs.tracer import Tracer, _NULL_SPAN
from repro.smt.sat.cdcl import CDCLSolver, SatResult
from repro.smt.terms import mk_le

EXAMPLE = Path(__file__).resolve().parent.parent / "examples" / "model.buffy"


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Tests share the process-wide TRACER/METRICS; keep them pristine."""
    obs.reset()
    obs.disable()
    yield
    obs.reset()
    obs.disable()


# ----- spans -----------------------------------------------------------------


class TestSpans:
    def test_disabled_span_is_a_shared_noop(self):
        tracer = Tracer()
        assert tracer.span("parse") is _NULL_SPAN
        assert tracer.span("cdcl", rung=3) is _NULL_SPAN
        with tracer.span("anything") as sp:
            sp.set("key", "value")  # must not raise, must not record
        assert tracer.records == []

    def test_nesting_and_attribution(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("check", path="oneshot") as outer:
            with tracer.span("cdcl") as inner:
                assert inner.parent_id == outer.span_id
            outer.set("result", "sat")
        # Children finish (and are recorded) before their parents.
        assert [r.name for r in tracer.records] == ["cdcl", "check"]
        cdcl, check = tracer.records
        assert check.parent_id == 0
        assert cdcl.parent_id == check.span_id
        assert check.attrs == {"path": "oneshot", "result": "sat"}
        assert check.wall >= cdcl.wall >= 0
        assert check.pid == os.getpid()

    def test_exception_is_attributed_and_span_closed(self):
        tracer = Tracer()
        tracer.enable()
        with pytest.raises(ValueError):
            with tracer.span("vc"):
                raise ValueError("boom")
        (record,) = tracer.records
        assert record.attrs["error"] == "ValueError"
        assert tracer.stack_depth() == 0  # unwound cleanly

    def test_merge_preserves_foreign_records(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("local"):
            pass
        foreign = [{"name": "portfolio-rung", "ts": 1.0, "wall": 0.5,
                    "cpu": 0.4, "span_id": 1, "parent_id": 0,
                    "pid": 99999, "attrs": {"slot": 0}}]
        tracer.merge(foreign)
        names = {r.name for r in tracer.records}
        assert names == {"local", "portfolio-rung"}
        merged = next(r for r in tracer.records if r.pid == 99999)
        assert merged.attrs == {"slot": 0}

    def test_finished_spans_feed_the_span_histogram(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        tracer.metrics = registry
        tracer.enable()
        registry.enable()
        with tracer.span("typecheck"):
            pass
        snap = registry.snapshot()
        (hist,) = snap["histograms"]
        assert hist["name"] == "repro_span_seconds"
        assert hist["labels"] == {"span": "typecheck"}
        assert hist["count"] == 1


# ----- distributed trace context ---------------------------------------------


class TestTraceContext:
    def test_traceparent_round_trip(self):
        from repro.obs import make_traceparent, parse_traceparent

        tp = make_traceparent()
        parsed = parse_traceparent(tp)
        assert parsed is not None
        trace_id, span_id = parsed
        assert len(trace_id) == 32 and int(trace_id, 16) != 0
        assert span_id != 0

    def test_parse_rejects_malformed_and_zero_ids(self):
        from repro.obs import parse_traceparent

        assert parse_traceparent(None) is None
        assert parse_traceparent("") is None
        assert parse_traceparent("not-a-traceparent") is None
        assert parse_traceparent("00-" + "0" * 32 + "-" + "1" * 16 + "-01") \
            is None
        assert parse_traceparent("00-" + "a" * 32 + "-" + "0" * 16 + "-01") \
            is None

    def test_activate_adopts_remote_parent(self):
        from repro.obs import parse_traceparent

        tracer = Tracer()
        tracer.enable()
        tp = "00-" + "ab" * 16 + "-" + "12" * 8 + "-01"
        trace_id, span_id = parse_traceparent(tp)
        with tracer.activate(tp):
            assert tracer.current_trace_id() == trace_id
            with tracer.span("child") as sp:
                assert sp.trace_id == trace_id
                assert sp.parent_id == span_id
        # Context restored: a fresh root mints its own trace.
        with tracer.span("root") as sp:
            assert sp.trace_id != trace_id

    def test_root_span_mints_trace_and_children_share_it(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("a") as a:
            assert tracer.traceparent() is not None
            with tracer.span("b") as b:
                assert b.trace_id == a.trace_id
        with tracer.span("c") as c:
            assert c.trace_id != a.trace_id  # new root, new trace

    def test_interleaved_async_requests_keep_their_own_stacks(self):
        """Regression: the span stack is contextvar-scoped, so two
        concurrently-traced asyncio requests must not parent their
        spans under each other (the old list-based ``_stack`` did)."""
        import asyncio

        tracer = Tracer()
        tracer.enable()

        async def request(name):
            with tracer.span(f"req-{name}") as outer:
                await asyncio.sleep(0.01)  # force interleaving
                with tracer.span(f"inner-{name}") as inner:
                    await asyncio.sleep(0.01)
                    assert inner.parent_id == outer.span_id
                    assert inner.trace_id == outer.trace_id
                return outer

        async def main():
            return await asyncio.gather(request("a"), request("b"))

        outer_a, outer_b = asyncio.run(main())
        # Two independent requests: distinct traces, both roots.
        assert outer_a.trace_id != outer_b.trace_id
        assert outer_a.parent_id == 0 and outer_b.parent_id == 0
        by_name = {r.name: r for r in tracer.records}
        assert by_name["inner-a"].parent_id == outer_a.span_id
        assert by_name["inner-b"].parent_id == outer_b.span_id

    def test_span_tree_orphans_surface_as_roots(self):
        from repro.obs import span_tree

        tracer = Tracer()
        tracer.enable()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        records = list(tracer.records)
        # Simulate a SIGKILLed parent process: drop the root record.
        orphaned = [r for r in records if r.name != "root"]
        tree = span_tree(orphaned)
        assert [n["name"] for n in tree] == ["child"]

    def test_merge_stitches_worker_spans_under_parent(self):
        """Worker span ids are random (not per-process counters), so a
        merged worker record parents under the dispatching span."""
        tracer = Tracer()
        tracer.enable()
        with tracer.span("portfolio") as disp:
            foreign = [{
                "name": "cdcl", "ts": 1.0, "wall": 0.5, "cpu": 0.4,
                "span_id": 123456789, "parent_id": disp.span_id,
                "pid": 99999, "attrs": {}, "trace_id": disp.trace_id,
            }]
            tracer.merge(foreign)
        from repro.obs import span_tree

        tree = span_tree(list(tracer.records))
        (root,) = tree
        assert root["name"] == "portfolio"
        assert [c["name"] for c in root["children"]] == ["cdcl"]


# ----- metrics ---------------------------------------------------------------


class TestMetrics:
    def test_disabled_mutators_are_noops(self):
        registry = MetricsRegistry()
        registry.counter_inc("repro_cdcl_decisions_total")
        registry.gauge_set("repro_cache_hit_ratio", 0.5)
        registry.observe("repro_span_seconds", 0.1)
        snap = registry.snapshot()
        assert snap == {"counters": [], "gauges": [], "histograms": []}

    def test_merge_semantics(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        for reg in (a, b):
            reg.enable()
            reg.counter_inc("repro_cdcl_conflicts_total", 10, proc="worker")
            reg.gauge_set("depth", 3)
            reg.observe("repro_span_seconds", 0.01, span="cdcl")
        b.gauge_set("depth", 7)
        a.merge(b.snapshot())
        # Counters add, gauges last-write-wins, histograms merge.
        assert a.counter_value("repro_cdcl_conflicts_total",
                               proc="worker") == 20
        assert a.gauge_value("depth") == 7
        (hist,) = a.snapshot()["histograms"]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(0.02)

    def test_snapshot_is_json_round_trippable(self):
        registry = MetricsRegistry()
        registry.enable()
        registry.counter_inc("repro_vcs_total", backend="dafny", status="ok")
        registry.observe("repro_span_seconds", 2.5, span="vc")
        snap = json.loads(json.dumps(registry.snapshot()))
        fresh = MetricsRegistry()
        fresh.enable()
        fresh.merge(snap)
        assert fresh.counter_value("repro_vcs_total", backend="dafny",
                                   status="ok") == 1

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.enable()
        registry.counter_inc("repro_cdcl_decisions_total", 42, proc="main")
        registry.gauge_set("repro_cache_hit_ratio", 0.75)
        registry.observe("repro_span_seconds", 0.002, span="parse")
        text = registry.to_prometheus()
        assert "# TYPE repro_cdcl_decisions_total counter" in text
        assert 'repro_cdcl_decisions_total{proc="main"} 42' in text
        assert "# TYPE repro_cache_hit_ratio gauge" in text
        assert "repro_cache_hit_ratio 0.75" in text
        assert "# TYPE repro_span_seconds histogram" in text
        assert 'repro_span_seconds_bucket{span="parse",le="+Inf"} 1' in text
        assert 'repro_span_seconds_count{span="parse"} 1' in text

    def test_prometheus_help_precedes_type_for_every_family(self):
        registry = MetricsRegistry()
        registry.enable()
        registry.counter_inc("repro_cdcl_decisions_total", 3)
        registry.gauge_set("repro_serve_queue_depth", 2)
        registry.observe("repro_serve_request_seconds", 0.01)
        text = registry.to_prometheus()
        families = set()
        for i, line in enumerate(text.splitlines()):
            if line.startswith("# TYPE "):
                name = line.split()[2]
                families.add(name)
                # The curated docstring (not the fallback) and the
                # HELP-before-TYPE ordering, for every family.
                prev = text.splitlines()[i - 1]
                assert prev.startswith(f"# HELP {name} "), prev
                assert prev != f"# HELP {name}"
        assert families == {
            "repro_cdcl_decisions_total",
            "repro_serve_queue_depth",
            "repro_serve_request_seconds",
        }
        # Serve-family names carry curated HELP text, not the fallback.
        assert "# HELP repro_serve_queue_depth repro serve queue depth." \
            not in text

    def test_prometheus_escapes_labels_and_help(self):
        from repro.obs.metrics import register_help

        registry = MetricsRegistry()
        registry.enable()
        register_help("weird_total", 'line1\nline2 with \\ backslash')
        registry.counter_inc(
            "weird_total", tenant='he said "hi"\n\\end')
        text = registry.to_prometheus()
        assert "# HELP weird_total line1\\nline2 with \\\\ backslash" in text
        assert 'tenant="he said \\"hi\\"\\n\\\\end"' in text
        # The exposition stays line-oriented: no raw newline leaked
        # into the middle of a series line.
        for line in text.splitlines():
            assert line.startswith(("#", "weird_total"))


# ----- per-solve vs lifetime CDCL stats (satellite fix) ----------------------


class TestPerSolveStats:
    def test_last_stats_is_the_per_call_delta(self):
        solver = CDCLSolver(3)
        solver.add_clause([1, 2])
        solver.add_clause([-1, 3])
        assert solver.solve(assumptions=[1]) is SatResult.SAT
        first = solver.last_stats.propagations
        first_lifetime = solver.stats.propagations
        assert first_lifetime == first
        assert solver.solve(assumptions=[-1]) is SatResult.SAT
        # Lifetime accumulates; last_stats covers only the second call.
        assert solver.stats.propagations >= first_lifetime
        assert (solver.last_stats.propagations
                == solver.stats.propagations - first)
        assert solver.last_stats.decisions <= solver.stats.decisions


# ----- Chrome trace export ---------------------------------------------------


def _analyze_with_telemetry(**kwargs):
    # cache=False keeps these assertions meaningful under the CI engine
    # leg (REPRO_CACHE_DIR set): a cache hit would skip the CDCL solve.
    return repro.analyze(
        EXAMPLE.read_text(), steps=3, consts={"N": 2}, telemetry=True,
        config=EncodeConfig(buffer_capacity=4, arrivals_per_step=2),
        cache=False, **kwargs,
    )


def test_certified_short_solve_reports_no_round_on_its_cdcl_spans():
    """A short certified solve settles before its first restart, so it
    runs no inprocessing round, and its ``cdcl`` spans say so."""
    outcome = repro.analyze(
        EXAMPLE.read_text(), steps=2, consts={"N": 2}, telemetry=True,
        config=EncodeConfig(buffer_capacity=4, arrivals_per_step=2),
        cache=False, certify=True,
    )
    assert outcome.verdict is repro.Verdict.PROVED
    assert outcome.stats["inprocessings"] == 0
    snap = outcome.telemetry
    assert snap.counter_total("repro_trust_proofs_checked_total") >= 1
    cdcl_spans = [s for s in snap.spans if s["name"] == "cdcl"]
    assert cdcl_spans
    for span in cdcl_spans:
        assert span["attrs"]["inprocessings"] == 0
        assert span["attrs"]["inprocess_s"] == 0.0


class TestChromeTrace:
    def test_trace_schema_and_ordering(self, tmp_path):
        outcome = _analyze_with_telemetry()
        snap = outcome.telemetry
        assert isinstance(snap, TelemetrySnapshot)
        # The trace covers the pipeline: >= 6 distinct phases.
        phases = snap.phase_names()
        assert len(phases & {"analyze", "parse", "typecheck", "symexec",
                             "interval-inference", "tseitin", "bitblast",
                             "check", "cdcl", "portfolio-rung", "vc"}) >= 6

        path = tmp_path / "trace.json"
        snap.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())  # valid JSON round-trip
        all_events = doc["traceEvents"]
        assert all_events and doc["displayTimeUnit"] == "ms"
        meta = [e for e in all_events if e["ph"] == "M"]
        events = [e for e in all_events if e["ph"] != "M"]
        for event in events:
            assert event["ph"] == "X"
            assert set(event) >= {"name", "cat", "ts", "dur", "pid", "args"}
            assert event["dur"] >= 0
        ts = [event["ts"] for event in events]
        assert ts == sorted(ts)  # monotonically ordered

        # Perfetto metadata: every pid is labelled (process + thread
        # name), and this process is the named "repro main".
        pids = {e["pid"] for e in events}
        for pid in pids:
            kinds = {m["name"] for m in meta if m["pid"] == pid}
            assert kinds == {"process_name", "thread_name"}
        main_labels = [m["args"]["name"] for m in meta
                       if m["pid"] == os.getpid()]
        assert main_labels and all(
            label == f"repro main (pid {os.getpid()})"
            for label in main_labels
        )

        # `repro stats` reconstructs phase names from the artifact.
        rebuilt = snapshot_from_chrome_trace(str(path))
        assert rebuilt.phase_names() == phases

    def test_telemetry_off_by_default_and_state_restored(self):
        outcome = repro.analyze(
            EXAMPLE.read_text(), steps=2, consts={"N": 2})
        assert outcome.telemetry is None
        assert not TRACER.enabled and not METRICS.enabled
        _analyze_with_telemetry()
        # telemetry=True must not leave the singletons enabled.
        assert not TRACER.enabled and not METRICS.enabled

    def test_prometheus_export_carries_cdcl_and_vc_series(self):
        outcome = _analyze_with_telemetry()
        text = outcome.telemetry.to_prometheus()
        assert "repro_cdcl_decisions_total" in text
        assert "repro_cdcl_conflicts_total" in text
        assert "repro_cdcl_propagations_total" in text
        assert "repro_vcs_total" in text
        assert "repro_cache_hit_ratio" in text
        # Derived gauges get HELP/TYPE too (they are synthesized at
        # export time, not recorded by the pipeline).
        assert "# HELP repro_cache_hit_ratio " in text
        assert "# TYPE repro_cache_hit_ratio gauge" in text


# ----- cross-process aggregation (REPRO_JOBS=2) ------------------------------


class TestCrossProcessMerge:
    def test_worker_metrics_merge_into_parent(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        outcome = _analyze_with_telemetry()
        snap = outcome.telemetry
        workers = [c for c in snap.metrics["counters"]
                   if c["labels"].get("proc") == "worker"]
        assert any(c["name"] == "repro_cdcl_decisions_total"
                   for c in workers)
        assert any(c["name"] == "repro_parallel_tasks_total"
                   for c in workers)
        # Worker spans merged in, attributed to their producing pid.
        assert any(s["pid"] != os.getpid() for s in snap.spans)
        text = snap.to_prometheus()
        assert 'proc="worker"' in text


# ----- near-free when disabled -----------------------------------------------


def _total_work(view):
    deq = view.deq_p("ibs[0]") + view.deq_p("ibs[1]")
    enq = view.enq_p("ibs[0]") + view.enq_p("ibs[1]")
    return mk_le(deq, enq)


class TestDisabledOverhead:
    def test_guard_cost_under_two_percent_of_smallest_ablation_case(self):
        """bench_ablation_sat's smallest case, with telemetry off, must
        dominate the cost of every no-op guard it could possibly hit."""
        assert not TRACER.enabled and not METRICS.enabled
        dafny = DafnyBackend(
            fq_buggy(2),
            config=EncodeConfig(buffer_capacity=5, arrivals_per_step=2),
        )
        t0 = time.perf_counter()
        report = dafny.verify_monolithic(
            3, queries=[("total_work", _total_work)])
        workload = time.perf_counter() - t0
        assert report.ok

        # A generous over-estimate of the guard sites that run hits:
        # the instrumentation spans phases / VCs / solver calls (tens to
        # hundreds of sites), never unit-propagation events.
        # Min of 5 repetitions: one preempted pass on a loaded machine
        # must not read as guard cost.
        n_ops = 20_000
        timings = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(n_ops):
                TRACER.span("hot-path-probe")
                METRICS.counter_inc("repro_probe_total")
            timings.append(time.perf_counter() - t0)
        guards = min(timings)
        assert guards < 0.02 * workload, (
            f"{n_ops} disabled guard calls cost {guards * 1e3:.1f}ms vs"
            f" workload {workload * 1e3:.0f}ms"
        )
