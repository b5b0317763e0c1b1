"""The analysis service core: admission, the overload ladder, the
breaker, durable jobs, and graceful drain — everything except HTTP.

:class:`AnalysisService` is the transport-free heart of ``repro
serve``.  One instance owns:

* a :class:`~repro.serve.admission.AdmissionController` — the bounded
  queue, per-tenant token buckets, and the overload ladder;
* a :class:`~repro.serve.breaker.CircuitBreaker` around the
  portfolio/backend solve path;
* a :class:`~repro.persist.batch.BatchRunner` — every request is
  journaled as a durable job *before* it is solved, so a crashed or
  drained server's backlog is completable by ``repro batch resume``;
* one warm, content-addressed :class:`~repro.engine.cache.ResultCache`
  (the runner's), shared by every request across the server's life;
* a thread pool sized to the worker count — solves are CPU-bound, so
  they run off the event loop.

Request lifecycle::

    admit ──▶ journal (submit_one) ──▶ replayed?  ──▶ answer
                     │                 breaker open? ─▶ fast UNKNOWN
                     ▼
              solve under ladder budget ──▶ PROVED/VIOLATED → done
                     │                      UNKNOWN → failed (resume retries)
                     ▼
              drain-cancelled → failed("cancelled by drain") + 503

Verdict journaling is deliberately asymmetric: only *definitive*
answers (PROVED/VIOLATED) are journaled ``done``.  A degraded-budget
UNKNOWN is terminal for the client but journaled ``failed``, so
``repro batch resume`` later re-solves it with a full budget — the
self-healing half of the service.

Chaos: the class-level ``_chaos`` slot is installed by
:func:`repro.runtime.chaos.inject_faults`; when armed, requests may be
killed mid-solve (``request_kill_rate``) and the HTTP layer may stall
reads (``slow_client_rate``).
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Union

from .. import obs
from ..analysis.result import AnalysisOutcome, Verdict, verdict_for_unknown
from ..obs import (
    BEACON,
    METRICS,
    TRACER,
    ProgressBook,
    progress_scope,
    span_tree,
)
from ..persist.batch import BatchRunner, JobRecord
from ..runtime.budget import (
    Budget,
    ExhaustionReason,
    ResourceReport,
    SolverFault,
)
from ..runtime.chaos import InjectedFault
from ..runtime.portfolio import EscalationPolicy
from .admission import AdmissionController, OverloadLevel, TenantPolicy
from .breaker import BreakerState, CircuitBreaker

#: Backends a request may name (mirrors the facade's dispatch table,
#: minus the ones whose queries are not JSON-expressible).
SERVABLE_BACKENDS = ("smt", "dafny")


@dataclass
class ServeConfig:
    """Every serve knob in one place (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 8650
    spool_dir: Union[str, Path] = ".repro-serve"
    # Admission: the bounded queue and tenant defaults.
    queue_limit: int = 8
    workers: int = 2
    # An unregistered tenant's token bucket.  It divides capacity among
    # tenants; overload protection is the bounded queue's job.  So it
    # sits well above what one replica serves (~100 req/s on one
    # x86-64 core for a mix of replays, cache hits and small fresh
    # solves): a lone tenant is never throttled below the capacity the
    # server has.
    default_rate: float = 200.0
    default_burst: float = 400.0
    shed_priority_floor: int = 1
    # The ladder's budgets: full-service vs degraded (fast UNKNOWN).
    deadline_seconds: float = 30.0
    degraded_deadline: float = 0.5
    degraded_conflicts: int = 2_000
    # Breaker.
    breaker_threshold: int = 3
    breaker_reset: float = 5.0
    # HTTP hygiene.
    read_timeout: float = 5.0
    max_body_bytes: int = 1 << 20
    # Engine knobs passed through to every solve.
    jobs: Optional[int] = None
    certify: Optional[bool] = None
    tenants: list[TenantPolicy] = field(default_factory=list)
    # Cluster identity: this replica's name (defaults to host:port) and
    # its spool lease heartbeat TTL — the window a router must wait out
    # before taking over this replica's journal (see SpoolLease).
    name: Optional[str] = None
    lease_ttl: float = 10.0


class AnalysisService:
    """Transport-free service core; the HTTP layer is a thin skin."""

    #: Chaos-injection slot (see repro.runtime.chaos.inject_faults).
    _chaos = None

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        runner: Optional[BatchRunner] = None,
        admission: Optional[AdmissionController] = None,
        breaker: Optional[CircuitBreaker] = None,
        solve_fn: Optional[
            Callable[[JobRecord, Optional[Budget], Any], AnalysisOutcome]
        ] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config or ServeConfig()
        cfg = self.config
        self.name = cfg.name or f"{cfg.host}:{cfg.port}"
        self.runner = runner or BatchRunner(
            cfg.spool_dir, owner=self.name, lease_ttl=cfg.lease_ttl)
        self.admission = admission or AdmissionController(
            queue_limit=cfg.queue_limit,
            shed_priority_floor=cfg.shed_priority_floor,
            default_rate=cfg.default_rate,
            default_burst=cfg.default_burst,
            clock=clock,
        )
        for policy in cfg.tenants:
            self.admission.register_tenant(policy)
        self.breaker = breaker or CircuitBreaker(
            failure_threshold=cfg.breaker_threshold,
            reset_seconds=cfg.breaker_reset,
            clock=clock,
        )
        # Test seam: replaces the real solve (rec, budget, escalation).
        self._solve_fn = solve_fn
        self._clock = clock
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, cfg.workers),
            thread_name_prefix="repro-serve",
        )
        self.draining = False
        self.started_at = clock()
        # Budgets of in-flight solves, for drain to cancel cooperatively.
        self._inflight: dict[str, Budget] = {}
        self._inflight_lock = threading.Lock()
        # Service-level counters (cheap ints; /healthz and the bench
        # read them — Prometheus series live in repro.obs).
        self._counters_lock = threading.Lock()
        self.counters = {
            "requests": 0, "admitted": 0, "rejected": 0, "replayed": 0,
            "solved": 0, "degraded": 0, "breaker_fast_unknown": 0,
            "faults": 0, "drained": 0, "probe_lost": 0, "lease_lost": 0,
            "lease_reacquired": 0,
        }
        obs.enable()
        # Own the spool: force=True because configuration — not a lease
        # race — decides which process serves a spool; a restart after
        # SIGKILL (or after a router's handoff finished) must reclaim
        # its own journal immediately, not wait out a stale TTL.
        self.runner.lease.acquire(self.name, force=True)
        self._lease_stop = threading.Event()
        self._lease_thread = threading.Thread(
            target=self._lease_heartbeat, name="repro-serve-lease",
            daemon=True)
        self._lease_thread.start()
        # Bound span memory for the long-lived server; a live trace
        # view losing the head of a very old trace is the right trade.
        TRACER.max_records = 20_000
        # Live solver progress: per-job ring buffers behind
        # /v1/jobs/<id>/progress, mirrored under <spool>/progress/ so
        # `repro top <spool>` works even without the HTTP plane.
        self.progress = ProgressBook(Path(cfg.spool_dir) / "progress")
        BEACON.enable(self.progress.record)

    def _count(self, key: str, n: int = 1) -> None:
        with self._counters_lock:
            self.counters[key] += n

    def _lease_heartbeat(self) -> None:
        """Renew the spool lease well inside its TTL.

        A failed renewal means a router took the spool over (it
        believed us dead).  We keep *serving* — in-flight answers to
        connected clients are still valid — but the runner is fenced:
        a zombie owner journaling stale ``done`` records over a
        handed-off journal is exactly the split-brain corruption the
        lease exists to prevent.  Once the usurper's handoff finishes
        (its lease released or gone stale), a plain non-forced
        ``acquire`` succeeds and the fence lifts — the replica heals
        back into full ownership of its spool.
        """
        interval = max(0.05, self.config.lease_ttl / 3.0)
        while not self._lease_stop.wait(interval):
            if self.runner.lease.renew():
                continue
            self._count("lease_lost")
            self.runner.fenced = True
            if self.runner.lease.acquire(self.name):
                self.runner.fenced = False
                self._count("lease_reacquired")
                if METRICS.enabled:
                    METRICS.counter_inc(
                        "repro_serve_lease_reacquired_total")

    # ----- request validation ----------------------------------------------

    @staticmethod
    def _validate(payload: Any) -> dict:
        """Normalize one /v1/analyze payload; ValueError on bad input."""
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        source = payload.get("source")
        if not isinstance(source, str) or not source.strip():
            raise ValueError("'source' must be a non-empty Buffy program")
        backend = payload.get("backend", "smt")
        if backend not in SERVABLE_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r};"
                f" expected one of {SERVABLE_BACKENDS}"
            )
        steps = payload.get("steps", 6)
        if not isinstance(steps, int) or not 1 <= steps <= 64:
            raise ValueError("'steps' must be an integer in [1, 64]")
        consts = payload.get("consts") or {}
        if not isinstance(consts, dict) or not all(
            isinstance(k, str) and isinstance(v, int)
            for k, v in consts.items()
        ):
            raise ValueError("'consts' must map names to integers")
        options = payload.get("options") or {}
        if not isinstance(options, dict):
            raise ValueError("'options' must be an object")
        label = payload.get("label")
        if label is not None and not isinstance(label, str):
            raise ValueError("'label' must be a string")
        return {
            "source": source, "backend": backend, "steps": steps,
            "consts": consts, "prove": bool(payload.get("prove")),
            "options": options, "label": label,
        }

    # ----- the request path -------------------------------------------------

    async def analyze(self, payload: Any, tenant: str = "default",
                      traceparent: Optional[str] = None) -> tuple[int, dict]:
        """Serve one analysis request; returns ``(status, body)``.

        Every path out of here is a terminal answer: a verdict, a fast
        UNKNOWN, or a reject with ``retry_after`` — never a hang.

        A caller-provided ``traceparent`` is adopted for the whole
        request, so the ``serve-request`` span (and everything under
        it, across the journal and the portfolio workers) joins the
        caller's distributed trace; the response carries the
        ``trace_id`` either way.
        """
        with TRACER.activate(traceparent), \
                TRACER.span("serve-request", tenant=tenant) as span:
            status, body = await self._analyze(payload, tenant, span)
            if isinstance(body, dict):
                trace_id = TRACER.current_trace_id()
                if trace_id:
                    body.setdefault("trace_id", trace_id)
            span.set("status", status)
            return status, body

    async def _analyze(self, payload: Any, tenant: str,
                       span) -> tuple[int, dict]:
        self._count("requests")
        if METRICS.enabled:
            METRICS.counter_inc("repro_serve_requests_total", tenant=tenant)
        try:
            spec = self._validate(payload)
        except ValueError as exc:
            return 400, {"error": str(exc)}
        if isinstance(payload, dict):
            tenant = payload.get("tenant", tenant) or tenant
            priority = payload.get("priority")
        else:  # pragma: no cover - _validate already rejected this
            priority = None
        if priority is not None and not isinstance(priority, int):
            return 400, {"error": "'priority' must be an integer"}

        with TRACER.span("serve-admission", tenant=tenant) as adm_span:
            adm = self.admission.admit(tenant, priority)
            adm_span.set("admitted", adm.admitted)
            adm_span.set("level", int(adm.level))
        if not adm.admitted:
            self._count("rejected")
            return adm.status, {
                "error": "rejected",
                "reason": adm.reason,
                "level": int(adm.level),
                "retry_after": float(adm.retry_after_header),
            }
        self._count("admitted")

        try:
            with TRACER.span("journal-submit"):
                rec = self.runner.submit_one(
                    spec["source"], label=spec["label"],
                    backend=spec["backend"], steps=spec["steps"],
                    consts=spec["consts"], prove=spec["prove"],
                    options=spec["options"],
                )
        except Exception as exc:
            self.admission.note_abandoned()
            return 400, {"error": f"submit failed: {exc!r}"}
        span.set("job", rec.job_id[:12])

        if rec.state == "done" and rec.verdict is not None:
            # Journal replay: this exact job already has a verdict.
            self.admission.note_abandoned()
            self._count("replayed")
            if METRICS.enabled:
                METRICS.counter_inc("repro_serve_replayed_total")
            return 200, {
                "job_id": rec.job_id,
                "verdict": rec.verdict,
                "exit_code": rec.exit_code,
                "level": int(adm.level),
                "attempts": rec.attempts,
                "replayed": True,
            }

        loop = asyncio.get_running_loop()
        # run_in_executor does not carry contextvars: snapshot here so
        # the solve thread inherits this request's span stack and trace
        # context (the serve-request span parents the solve-job span).
        ctx = contextvars.copy_context()
        try:
            outcome, note = await loop.run_in_executor(
                self._pool, ctx.run, self._execute_job, rec, adm.level,
                tenant,
            )
        except RuntimeError:
            # The pool was shut down by a racing drain: the job stays
            # journaled pending; resume will finish it.
            self.admission.note_abandoned()
            self._count("drained")
            return 503, {
                "error": "draining", "job_id": rec.job_id,
                "retry_after": self.admission.drain_retry_after,
            }

        status = 200
        body = {
            "job_id": rec.job_id,
            "verdict": outcome.verdict.value,
            "exit_code": outcome.exit_code,
            "level": int(adm.level),
            "attempts": rec.attempts,
        }
        if note:
            body["note"] = note
        if note == "invalid":
            status = 400
            body["error"] = outcome.stats.get("error", "invalid program")
        if outcome.report is not None:
            body["reason"] = outcome.report.reason.value
            body["elapsed_seconds"] = round(
                outcome.report.elapsed_seconds, 6)
        if note == "drained":
            # Terminal for this connection, but the work is journaled
            # for resume: tell the client when to come back.
            status = 503
            body["retry_after"] = self.admission.drain_retry_after
        if note == "probe_lost":
            # Lost the half-open probe race: a quick retry gets either
            # a healthy (re-closed) breaker or an honest open one.
            status = 503
            body["error"] = "breaker half-open: probe in flight"
            body["retry_after"] = max(0.1, self.breaker.retry_after())
        return status, body

    # ----- worker-thread execution ------------------------------------------

    def _execute_job(self, rec: JobRecord, level: OverloadLevel,
                     tenant: str) -> tuple[AnalysisOutcome, str]:
        """Solve one admitted job under the ladder's budget (in a
        worker thread); returns ``(outcome, note)``.

        Runs under the request's copied context, so the ``solve-job``
        span parents under ``serve-request`` and every progress beacon
        emitted below (CDCL conflicts, portfolio workers) is stamped
        with this job's id.
        """
        with TRACER.span("solve-job", job=rec.job_id[:12]) as span, \
                progress_scope(rec.job_id):
            outcome, note = self._execute_job_inner(rec, level, tenant)
            span.set("verdict", outcome.verdict.value)
            if note:
                span.set("note", note)
            return outcome, note

    def _execute_job_inner(self, rec: JobRecord, level: OverloadLevel,
                           tenant: str) -> tuple[AnalysisOutcome, str]:
        self.admission.note_started()
        started = self._clock()
        try:
            if self.draining:
                # Raced a drain after admission: don't start a solve
                # that would only be cancelled — leave the job pending.
                self._count("drained")
                return self._fast_unknown(
                    ExhaustionReason.CANCELLED, "draining", started,
                ), "drained"
            if not self.breaker.allow():
                if self.breaker.state is BreakerState.HALF_OPEN:
                    # Lost the probe race: another request is already in
                    # flight testing the substrate.  Tell the caller to
                    # retry shortly (503 + Retry-After) instead of
                    # answering a misleading UNKNOWN — the probe's
                    # outcome decides the breaker in one request's time.
                    self._count("probe_lost")
                    if METRICS.enabled:
                        METRICS.counter_inc(
                            "repro_serve_probe_lost_total")
                    return self._fast_unknown(
                        ExhaustionReason.CANCELLED,
                        "breaker half-open: probe in flight", started,
                    ), "probe_lost"
                # OPEN breaker: answer immediately, never solve.  The
                # job stays pending — resume completes it once healthy.
                self._count("breaker_fast_unknown")
                if METRICS.enabled:
                    METRICS.counter_inc("repro_serve_fast_unknown_total",
                                        cause="breaker")
                return self._fast_unknown(
                    ExhaustionReason.FAULT, "circuit breaker open", started,
                ), "breaker_open"

            budget, escalation = self._request_knobs(level)
            if level is not OverloadLevel.NORMAL:
                self._count("degraded")
            with self._inflight_lock:
                self._inflight[rec.job_id] = budget
            self.runner.mark_running(rec)
            try:
                outcome = self._solve(rec, budget, escalation)
            except SolverFault as exc:
                self.breaker.record_failure()
                self.runner.mark_failed(rec, repr(exc))
                self._count("faults")
                if METRICS.enabled:
                    METRICS.counter_inc("repro_serve_fast_unknown_total",
                                        cause="fault")
                return self._fast_unknown(
                    ExhaustionReason.FAULT, repr(exc), started,
                ), "fault"
            except Exception as exc:
                # Permanent (parse/type errors): the client's fault,
                # not the substrate's — no breaker signal, straight to
                # the deadletter state like a batch run would.
                self.runner.mark_deadletter(rec, repr(exc))
                return AnalysisOutcome(
                    verdict=Verdict.UNDECIDED,
                    stats={"error": str(exc)},
                ), "invalid"
            finally:
                with self._inflight_lock:
                    self._inflight.pop(rec.job_id, None)

            self._feed_breaker(outcome)
            report = outcome.report
            if (report is not None
                    and report.reason is ExhaustionReason.CANCELLED
                    and self.draining):
                # Cancelled mid-solve by drain; any CDCL checkpoint was
                # already saved by the solver.  Journal for resume.
                self.runner.mark_failed(rec, "cancelled by drain")
                self._count("drained")
                return outcome, "drained"
            if outcome.verdict in (Verdict.PROVED, Verdict.VIOLATED):
                self.runner.mark_done(rec, outcome)
            else:
                # Terminal for the client, retryable for the journal.
                reason = report.reason.value if report else "undecided"
                self.runner.mark_failed(rec, f"unknown: {reason}")
            self._count("solved")
            return outcome, ""
        finally:
            self.admission.note_finished(tenant, self._clock() - started)
            if METRICS.enabled:
                METRICS.observe(
                    "repro_serve_request_seconds",
                    self._clock() - started,
                )

    def _solve(self, rec: JobRecord, budget: Optional[Budget],
               escalation) -> AnalysisOutcome:
        chaos = self._chaos
        if chaos is not None and chaos.fires("request_kill"):
            raise InjectedFault(
                f"injected worker kill under request {rec.job_id[:12]}"
            )
        if self._solve_fn is not None:
            return self._solve_fn(rec, budget, escalation)
        return self.runner.execute_record(
            rec, budget=budget, escalation=escalation,
            jobs=self.config.jobs, certify=self.config.certify,
        )

    def _request_knobs(
        self, level: OverloadLevel,
    ) -> tuple[Budget, Optional[EscalationPolicy]]:
        """The ladder's teeth: budgets by overload level.

        NORMAL gets the full deadline and the backend's own escalation;
        DEGRADED/SHEDDING get a short deadline, a conflict cap, and a
        one-attempt policy (no escalation) — saturated requests answer
        a fast UNKNOWN instead of queueing a slow verdict.
        """
        cfg = self.config
        if level is OverloadLevel.NORMAL:
            return Budget(deadline_seconds=cfg.deadline_seconds), None
        return (
            Budget(
                deadline_seconds=cfg.degraded_deadline,
                max_conflicts=cfg.degraded_conflicts,
            ),
            EscalationPolicy(max_attempts=1),
        )

    def _feed_breaker(self, outcome: AnalysisOutcome) -> None:
        """Classify one solve for the breaker: infrastructure sickness
        (faults, quarantines, a degraded journal) counts against it;
        verdicts — including honest UNKNOWNs — count for it."""
        report = outcome.report
        sick = self.runner.journal.degraded
        if report is not None:
            if report.reason in (ExhaustionReason.FAULT,
                                 ExhaustionReason.QUARANTINED):
                sick = True
            if report.quarantined_queries:
                sick = True
        if sick:
            self.breaker.record_failure()
        else:
            self.breaker.record_success()

    def _fast_unknown(self, reason: ExhaustionReason, message: str,
                      started: float) -> AnalysisOutcome:
        report = ResourceReport(
            reason=reason, message=message,
            elapsed_seconds=self._clock() - started,
        )
        return AnalysisOutcome(
            verdict=verdict_for_unknown(report), report=report,
        )

    # ----- read-only endpoints ----------------------------------------------

    def job_status(self, job_id: str) -> tuple[int, dict]:
        rec = self.runner.job(job_id)
        if rec is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        return 200, {
            "job_id": rec.job_id,
            "label": rec.label,
            "state": rec.state,
            "attempts": rec.attempts,
            "verdict": rec.verdict,
            "exit_code": rec.exit_code,
            "error": rec.error,
            "trace_id": rec.trace_id,
        }

    def jobs_index(self) -> tuple[int, dict]:
        """`GET /v1/jobs`: the journaled job table plus, per job, the
        latest live progress sample — the feed behind ``repro top``."""
        report = self.runner.status().to_json()
        for row in report["jobs"]:
            latest = self.progress.latest(row["job_id"])
            if latest is not None:
                row["progress"] = latest
        report["level"] = int(self.admission.level())
        report["queued"] = self.admission.queued
        report["running"] = self.admission.running
        report["draining"] = self.draining
        return 200, report

    def job_trace(self, job_id: str) -> tuple[int, dict]:
        """`GET /v1/jobs/<id>/trace`: the job's stitched span tree.

        Spans are matched by the trace id journaled at submission, so
        the tree covers every process that served this job — the
        original request, its portfolio workers, and any later resume
        that re-adopted the trace.
        """
        rec = self.runner.job(job_id)
        if rec is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        trace_id = rec.trace_id
        if trace_id is None:
            return 200, {"job_id": job_id, "trace_id": None, "spans": []}
        records = [r for r in list(TRACER.records)
                   if r.trace_id == trace_id]
        return 200, {
            "job_id": job_id,
            "trace_id": trace_id,
            "traceparent": rec.trace,
            "span_count": len(records),
            "spans": span_tree(records),
        }

    def job_progress(self, job_id: str) -> tuple[int, dict]:
        """`GET /v1/jobs/<id>/progress`: the live solver-progress ring."""
        rec = self.runner.job(job_id)
        if rec is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        return 200, {
            "job_id": job_id,
            "state": rec.state,
            "latest": self.progress.latest(job_id),
            "samples": self.progress.samples(job_id),
        }

    def health(self) -> tuple[int, dict]:
        """Liveness: the process is up and its control plane answers."""
        with self._counters_lock:
            counters = dict(self.counters)
        return 200, {
            "state": "draining" if self.draining else "ok",
            "name": self.name,
            "lease_holder": self.runner.lease.holder(),
            "uptime_seconds": round(self._clock() - self.started_at, 3),
            "level": int(self.admission.level()),
            "queued": self.admission.queued,
            "running": self.admission.running,
            "queue_limit": self.admission.queue_limit,
            "max_queued": self.admission.max_queued,
            "breaker": self.breaker.describe(),
            "journal_degraded": self.runner.journal.degraded,
            "cache": {
                "hits": self.runner.cache.stats.hits,
                "misses": self.runner.cache.stats.misses,
            },
            "counters": counters,
        }

    def ready(self) -> tuple[int, dict]:
        """Readiness: should a balancer route new work here?

        Not ready while draining or with an OPEN breaker.  The body
        carries the batch spool's per-state counts (the `batch status
        --json` shape), so ops scripts see backlog and orphans.
        """
        batch = self.runner.status().to_json()
        breaker_state = self.breaker.state
        ok = not self.draining and breaker_state is not BreakerState.OPEN
        body = {
            "ready": ok,
            "draining": self.draining,
            "breaker": breaker_state.value,
            "level": int(self.admission.level()),
            "queued": self.admission.queued,
            "queue_limit": self.admission.queue_limit,
            "batch": batch["counts"],
        }
        return (200 if ok else 503), body

    def metrics_text(self) -> str:
        """Prometheus exposition of everything repro.obs has recorded."""
        return obs.capture().to_prometheus()

    # ----- drain ------------------------------------------------------------

    def drain(self) -> dict:
        """Graceful SIGTERM semantics: stop admitting, cancel in-flight
        budgets (solves checkpoint and stop at their next safepoint),
        flush the journal, and leave the backlog for ``batch resume``.

        Idempotent; returns a summary of what was left behind.
        """
        self.draining = True
        self.admission.draining = True
        with self._inflight_lock:
            cancelled = len(self._inflight)
            for budget in self._inflight.values():
                budget.cancel()
        self._pool.shutdown(wait=True)
        self.runner.journal.flush()
        # Surrender the spool lease *after* the journal is flushed: a
        # voluntary release lets a router take the backlog over
        # immediately instead of waiting out the heartbeat TTL.
        self._lease_stop.set()
        self.runner.lease.release()
        report = self.runner.status()
        counts = report.by_state()
        left = sum(
            counts.get(s, 0)
            for s in ("pending", "failed", "orphaned", "running")
        )
        if METRICS.enabled:
            METRICS.counter_inc("repro_serve_drains_total")
        return {
            "drained": True,
            "cancelled_inflight": cancelled,
            "jobs_left_for_resume": left,
            "counts": counts,
        }

    def close(self) -> None:
        if not self.draining:
            self.drain()
        self.runner.close()
