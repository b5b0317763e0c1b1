"""Metrics registry: counters, gauges, and histograms with labels.

Named series absorb the solver-internal statistics that used to live
in private dataclasses — :class:`~repro.smt.sat.cdcl.SatStats`, the
engine cache's :class:`~repro.engine.cache.CacheStats`, incremental
push/pop reuse, chaos-injection counts — so one Prometheus scrape (or
one ``repro stats`` call) sees the whole pipeline.

Series are keyed by ``(name, frozenset(labels.items()))``.  The
registry is disabled by default and every mutator begins with an
``enabled`` guard so instrumented hot paths cost one attribute load
and one branch when telemetry is off.

Cross-process story: portfolio workers run their own (module-global)
registry, :meth:`snapshot` it after each task, and the parent
:meth:`merge`\\ s the snapshot — counters add, gauges last-write-wins,
histograms merge bucket-wise.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

#: Default histogram bucket upper bounds (seconds-oriented, powers of 4).
DEFAULT_BUCKETS = (0.001, 0.004, 0.016, 0.064, 0.256, 1.024, 4.096, 16.384)

#: Metric name → ``# HELP`` text.  Real scrapers want a HELP line per
#: series; names absent here still get one, generated from the name by
#: :func:`help_text`.  Extend via :func:`register_help`.
_HELP: dict[str, str] = {
    # engine cache
    "repro_cache_hits_total": "Result-cache hits, by tier (memory/disk).",
    "repro_cache_misses_total": "Result-cache misses.",
    "repro_cache_stores_total": "Result-cache entries stored.",
    "repro_cache_corrupt_entries_total":
        "On-disk cache entries rejected by checksum or schema.",
    "repro_cache_hit_ratio":
        "Derived at export: hits / (hits + misses) across tiers.",
    # CDCL core
    "repro_cdcl_solves_total": "CDCL solve() invocations.",
    "repro_cdcl_conflicts_total": "CDCL conflicts analyzed.",
    "repro_cdcl_decisions_total": "CDCL decisions made.",
    "repro_cdcl_propagations_total": "CDCL unit propagations.",
    "repro_cdcl_learned_total": "Clauses learned from conflicts.",
    "repro_cdcl_deleted_total": "Learned clauses deleted by reduction.",
    "repro_cdcl_minimized_lits_total":
        "Literals removed by learned-clause minimization.",
    "repro_cdcl_restarts_total": "CDCL restarts.",
    "repro_cdcl_inprocessings_total":
        "Inprocessing rounds (subsumption/vivification/elimination).",
    "repro_cdcl_subsumed_total": "Clauses removed by subsumption.",
    "repro_cdcl_strengthened_total":
        "Clauses strengthened by self-subsumption.",
    "repro_cdcl_eliminated_total":
        "Variables removed by bounded variable elimination.",
    "repro_cdcl_vivified_lits_total":
        "Literals removed by clause vivification.",
    "repro_cdcl_vivify_propagations_total":
        "Propagations spent in clause vivification.",
    "repro_solver_checks_total": "SmtSolver.check() calls, by result.",
    "repro_vcs_total": "Verification conditions discharged.",
    # incremental engine
    "repro_incremental_checks_total":
        "Incremental-session check() calls, by reuse kind.",
    "repro_incremental_frames_pushed_total":
        "Assertion frames pushed onto incremental sessions.",
    "repro_incremental_frames_retired_total":
        "Assertion frames popped from incremental sessions.",
    "repro_incremental_clauses_reused_total":
        "CNF clauses reused across incremental checks.",
    # parallel engine / pool supervision
    "repro_parallel_tasks_total": "Portfolio tasks dispatched to workers.",
    "repro_parallel_cancelled_total":
        "Portfolio slots cooperatively cancelled.",
    "repro_engine_workers_respawned_total":
        "Workers respawned after dying or hanging.",
    "repro_engine_requeued_total":
        "Tasks re-dispatched after losing their worker.",
    "repro_engine_quarantined_total":
        "Queries quarantined after repeated worker loss.",
    # trust layer
    "repro_trust_proofs_checked_total": "LRAT certificates checked.",
    "repro_trust_proofs_failed_total": "LRAT certificates rejected.",
    # chaos harness
    "repro_chaos_injected_total": "Faults injected by the chaos monkey, by kind.",
    # persistence
    "repro_persist_journal_records_total": "Write-ahead journal appends.",
    "repro_persist_journal_bytes_total": "Bytes appended to the journal.",
    "repro_persist_io_errors_total":
        "Persistence writes degraded to metrics after OSError, by site.",
    "repro_persist_torn_tail_truncations_total":
        "Journal torn tails truncated during replay.",
    "repro_persist_snapshot_corrupt_total":
        "Snapshots rejected by checksum at load.",
    "repro_persist_compactions_total": "Journal-to-snapshot compactions.",
    "repro_persist_jobs_submitted_total": "Batch jobs journaled.",
    "repro_persist_jobs_done_total": "Batch jobs finished with a verdict.",
    "repro_persist_retries_total": "Batch job transient-failure retries.",
    "repro_persist_deadletters_total": "Batch jobs parked in the deadletter state.",
    "repro_persist_recoveries_total":
        "Interrupted batch jobs requeued after a crash.",
    "repro_checkpoint_saves_total": "Solver checkpoints saved.",
    "repro_checkpoint_restores_total": "Solver checkpoints restored.",
    "repro_checkpoint_corrupt_total": "Solver checkpoints rejected at load.",
    "repro_checkpoint_learnts_restored_total":
        "Learned clauses reinstated from checkpoints.",
    # observability
    "repro_obs_export_errors_total":
        "Telemetry exports degraded after OSError, by exporter.",
    "repro_span_seconds": "Span wall-clock durations, by span name.",
    # serve control plane
    "repro_serve_requests_total": "Analysis requests received, by tenant.",
    "repro_serve_rejected_total":
        "Requests rejected by admission, by reason and tenant.",
    "repro_serve_replayed_total":
        "Requests answered from the journal's existing verdict.",
    "repro_serve_fast_unknown_total":
        "Requests answered with a fast UNKNOWN, by cause.",
    "repro_serve_queue_depth": "Admitted requests waiting for a worker.",
    "repro_serve_inflight": "Requests currently executing.",
    "repro_serve_overload_level":
        "Overload ladder rung: 0 normal, 1 degraded, 2 shedding.",
    "repro_serve_breaker_state":
        "Circuit breaker: 0 closed, 1 half-open, 2 open.",
    "repro_serve_breaker_trips_total": "Circuit breaker trips.",
    "repro_serve_drains_total": "Graceful drains initiated.",
    "repro_serve_request_seconds": "End-to-end request service time.",
    "repro_serve_probe_lost_total":
        "Requests bounced 503 after losing the half-open probe race.",
    # cluster (router + registry + handoff)
    "repro_cluster_requests_total": "Requests received by the shard router.",
    "repro_cluster_failovers_total":
        "Forwards re-routed to the next ring node, by failed replica.",
    "repro_cluster_probe_seconds": "Replica health-probe latency.",
    "repro_cluster_replica_state":
        "Replica health: 0 healthy, 1 probing, 2 ejected.",
    "repro_cluster_ejections_total":
        "Replicas ejected after consecutive failures, by replica.",
    "repro_cluster_readmissions_total":
        "Ejected replicas re-admitted after a good probe, by replica.",
    "repro_cluster_handoffs_total":
        "Journal handoffs started for dead replicas' spools.",
    "repro_cluster_handoff_jobs_total":
        "Jobs finished during handoff, by mode (adopted/resolved).",
    "repro_cluster_handoff_refused_total":
        "Handoffs refused because the spool lease was still fresh.",
    "repro_cluster_handoff_errors_total":
        "Handoff attempts that raised (spool left for manual resume).",
    # spool ownership leases
    "repro_persist_lease_takeovers_total":
        "Spool leases taken over from a stale or released owner.",
    "repro_persist_lease_lost_total":
        "Lease renewals refused because another owner took the spool.",
    "repro_persist_jobs_adopted_total":
        "Batch jobs finished by adopting a peer replica's verdict.",
    "repro_persist_fenced_writes_total":
        "Journal writes dropped because the spool lease moved to"
        " another owner (zombie-writer fence).",
    "repro_serve_lease_reacquired_total":
        "Spool leases reacquired by their replica after a handoff"
        " released them (fence lifted).",
    # chaos campaigns
    "repro_chaos_episodes_total":
        "Chaos campaign episodes executed, by scenario and outcome.",
    "repro_chaos_violations_total":
        "Durability invariant violations found by the chaos auditor,"
        " by invariant.",
}


def register_help(name: str, text: str) -> None:
    """Attach ``# HELP`` text to a metric name (idempotent overwrite)."""
    _HELP[name] = text


def help_text(name: str) -> str:
    """The HELP line body for ``name`` (generated when unregistered)."""
    text = _HELP.get(name)
    if text:
        return text
    words = name.removeprefix("repro_").removesuffix("_total")
    return f"repro {words.replace('_', ' ')}."

LabelKey = "tuple[tuple[str, str], ...]"


def _label_key(labels: dict) -> tuple:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Histogram:
    __slots__ = ("count", "total", "min", "max", "buckets", "bounds")

    def __init__(self, bounds=DEFAULT_BUCKETS):
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)  # +inf bucket last

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    def merge(self, other: "_Histogram") -> None:
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        if self.bounds == other.bounds:
            for i, n in enumerate(other.buckets):
                self.buckets[i] += n
        else:  # pragma: no cover - all registries share DEFAULT_BUCKETS
            self.buckets[-1] += other.count

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "_Histogram":
        h = cls(bounds=tuple(data.get("bounds", DEFAULT_BUCKETS)))
        h.count = int(data["count"])
        h.total = float(data["sum"])
        h.min = float("inf") if data.get("min") is None else float(data["min"])
        h.max = float("-inf") if data.get("max") is None else float(data["max"])
        h.buckets = [int(n) for n in data["buckets"]]
        return h


class MetricsRegistry:
    """Process-local registry of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self.enabled = False
        #: Role tag stamped onto solver-core series ("main" in the parent
        #: process, "worker" inside portfolio workers) so merged output
        #: keeps worker-attributed series distinguishable.
        self.proc = "main"
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, float] = {}
        self._histograms: dict[tuple, _Histogram] = {}

    # ----- mutators (all guarded on .enabled) -------------------------------

    def counter_inc(self, name: str, n: float = 1, **labels: Any) -> None:
        if not self.enabled:
            return
        key = (name, _label_key(labels))
        self._counters[key] = self._counters.get(key, 0) + n

    def gauge_set(self, name: str, value: float, **labels: Any) -> None:
        if not self.enabled:
            return
        self._gauges[(name, _label_key(labels))] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        if not self.enabled:
            return
        key = (name, _label_key(labels))
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = _Histogram()
        hist.observe(value)

    # ----- reads ------------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        return self._counters.get((name, _label_key(labels)), 0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter across all label sets."""
        return sum(v for (n, _), v in self._counters.items() if n == name)

    def gauge_value(self, name: str, **labels: Any) -> Optional[float]:
        return self._gauges.get((name, _label_key(labels)))

    # ----- lifecycle --------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # ----- aggregation ------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Picklable/JSON-able dump of every series."""
        return {
            "counters": [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self._counters.items())
            ],
            "gauges": [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self._gauges.items())
            ],
            "histograms": [
                {"name": name, "labels": dict(labels), **hist.to_dict()}
                for (name, labels), hist in sorted(self._histograms.items())
            ],
        }

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add; gauges last-write-wins; histograms merge.
        """
        for item in snapshot.get("counters", ()):
            key = (item["name"], _label_key(item.get("labels") or {}))
            self._counters[key] = self._counters.get(key, 0) + item["value"]
        for item in snapshot.get("gauges", ()):
            key = (item["name"], _label_key(item.get("labels") or {}))
            self._gauges[key] = item["value"]
        for item in snapshot.get("histograms", ()):
            key = (item["name"], _label_key(item.get("labels") or {}))
            incoming = _Histogram.from_dict(item)
            existing = self._histograms.get(key)
            if existing is None:
                self._histograms[key] = incoming
            else:
                existing.merge(incoming)

    # ----- export -----------------------------------------------------------

    def to_prometheus(self) -> str:
        """Render every series in the Prometheus text exposition format."""
        lines: list[str] = []

        def fmt_labels(labels: tuple, extra: Iterable = ()) -> str:
            parts = [f'{k}="{_escape(v)}"' for k, v in labels]
            parts.extend(f'{k}="{_escape(v)}"' for k, v in extra)
            return "{" + ",".join(parts) + "}" if parts else ""

        seen_types: set[str] = set()

        def typ(name: str, kind: str) -> None:
            if name not in seen_types:
                seen_types.add(name)
                # HELP precedes TYPE, once per metric family; HELP text
                # escapes only backslash and newline (label values
                # additionally escape double quotes).
                doc = help_text(name).replace("\\", "\\\\")
                doc = doc.replace("\n", "\\n")
                lines.append(f"# HELP {name} {doc}")
                lines.append(f"# TYPE {name} {kind}")

        for (name, labels), value in sorted(self._counters.items()):
            typ(name, "counter")
            lines.append(f"{name}{fmt_labels(labels)} {_num(value)}")
        for (name, labels), value in sorted(self._gauges.items()):
            typ(name, "gauge")
            lines.append(f"{name}{fmt_labels(labels)} {_num(value)}")
        for (name, labels), hist in sorted(self._histograms.items()):
            typ(name, "histogram")
            cumulative = 0
            for bound, n in zip(hist.bounds, hist.buckets):
                cumulative += n
                lines.append(
                    f"{name}_bucket"
                    f"{fmt_labels(labels, [('le', _num(bound))])} {cumulative}"
                )
            lines.append(
                f"{name}_bucket{fmt_labels(labels, [('le', '+Inf')])} "
                f"{hist.count}"
            )
            lines.append(f"{name}_sum{fmt_labels(labels)} {_num(hist.total)}")
            lines.append(f"{name}_count{fmt_labels(labels)} {hist.count}")
        return "\n".join(lines) + "\n" if lines else ""


def _escape(value: Any) -> str:
    return (str(value).replace("\\", "\\\\")
            .replace('"', '\\"').replace("\n", "\\n"))


def _num(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


#: The process-wide registry. Mutated in place, never replaced.
METRICS = MetricsRegistry()
