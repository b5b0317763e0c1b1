"""Process-parallel CDCL portfolio.

The sequential :class:`~repro.runtime.portfolio.EscalationPolicy`
ladder tries one CDCL configuration after another.  With ``jobs > 1``
the same ladder races **concurrently**: every configuration solves the
identical (picklable) CNF in its own worker process, the first
definitive SAT/UNSAT answer wins and the losers are cancelled
cooperatively.  Because every configuration is a complete decision
procedure, the winning *verdict* is deterministic regardless of which
worker reports first — only the model and the timing can vary.

Design notes:

* Workers are **persistent** — the pool is shared across queries (one
  fork/spawn per worker per process lifetime, not per check), fed by
  per-worker task queues and drained through one shared result queue.
* Cancellation is a shared monotonically increasing *generation*
  counter: the parent bumps it to the current task id when a winner
  lands, and each worker's budget treats ``generation >= my task id``
  as :attr:`ExhaustionReason.CANCELLED` at its normal safepoints.
  Stale results from cancelled tasks are filtered by task id.
* Budget deadlines are shipped as *remaining seconds* and re-anchored
  on the worker's own monotonic clock, so the pool never depends on
  clocks being shared across processes.
* The module is spawn-safe: the worker entrypoint is a top-level
  function and every payload (clause lists, config kwargs, assumption
  literals) is picklable.  On platforms offering ``fork`` we prefer it
  for its near-zero startup cost.
* The pool is **supervised**: every worker carries a shared heartbeat
  cell it refreshes at its budget safepoints, and the parent's result
  loop periodically sweeps for dead (``is_alive``) or hung (stale
  heartbeat) workers.  Any loss rebuilds the whole transport — workers
  *and* shared queues, since an abrupt death can leave the result
  pipe's write lock held forever — with exponential backoff, and the
  in-flight queries are re-dispatched; a query that kills two workers
  in a row is *quarantined* — it resolves to a typed
  ``UNKNOWN(reason="quarantined")`` instead of hanging the run or
  crashing the pool.  The deterministic ``worker_crash`` chaos hook
  exercises all of this: the caller passes ``chaos=(rate, seed,
  max_crashes)`` from its installed monkey's config; the pool itself
  reads no chaos settings from the environment.
"""

from __future__ import annotations

import atexit
import dataclasses
import multiprocessing as mp
import os
import queue as queue_mod
import random
import signal
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from ..obs import BEACON, METRICS, TRACER
from ..runtime.budget import Budget, BudgetExhausted, ExhaustionReason
from ..smt.cnf import CNF
from ..smt.sat.cdcl import CDCLConfig, CDCLSolver, SatResult, SatStats
from ..trust.proof import ProofLog


class _WorkerBudget(Budget):
    """A worker-side budget that also honors the shared cancel generation.

    Doubles as the worker's *heartbeat* source: ``exhausted()`` runs at
    every CDCL conflict and 256-decision safepoint, so refreshing the
    shared heartbeat cell here gives the parent's supervisor a liveness
    signal exactly as often as cooperative cancellation is possible.
    Wall-clock (``time.time``) because the cell is compared across
    processes.
    """

    def __init__(self, cancel_cell, task_id: int, heartbeat=None, **kwargs):
        super().__init__(**kwargs)
        self._cancel_cell = cancel_cell
        self._task_id = task_id
        self._heartbeat = heartbeat

    def exhausted(self) -> Optional[ExhaustionReason]:
        if self._heartbeat is not None:
            self._heartbeat.value = time.time()
        if (
            self._cancel_cell is not None
            and self._cancel_cell.value >= self._task_id
        ):
            return ExhaustionReason.CANCELLED
        return super().exhausted()


def _chaos_should_crash(chaos, task_id: int, slot: int, attempt: int) -> bool:
    """Deterministic worker-crash draw for the ``worker_crash`` hook.

    ``chaos`` is ``(rate, seed, max_crashes)``.  The draw is keyed on
    (seed, task, slot, attempt) — not on a shared RNG stream — so the
    same schedule replays regardless of worker interleaving, and a
    retried dispatch (higher ``attempt``) past ``max_crashes`` is
    guaranteed to survive.
    """
    rate, seed, max_crashes = chaos
    if attempt >= max_crashes:
        return False
    draw = random.Random(
        seed * 1000003 + task_id * 8191 + slot * 131 + attempt
    ).random()
    return draw < rate


def _stats_tuple(stats: SatStats) -> tuple:
    # Positional wire form; SatStats owns the field order so new
    # counters cannot silently desynchronize the two ends.
    return stats.to_tuple()


def _worker_telemetry_begin(enabled: bool,
                            traceparent: Optional[str] = None) -> None:
    """Arm (or disarm) this worker's local tracer/registry for one task.

    With ``fork`` the worker inherits the parent's singletons, including
    any records the parent had at fork time — so the state is reset
    explicitly per task and re-enabled only when the parent asked for
    telemetry, making each result's delta attributable to that task.
    Adopting the dispatcher's ``traceparent`` makes this task's root
    spans children of the dispatching portfolio span, so the merged
    trace stitches across the process boundary.
    """
    TRACER.clear()
    METRICS.clear()
    TRACER.enabled = enabled
    METRICS.enabled = enabled
    if enabled:
        TRACER.metrics = METRICS
        METRICS.proc = "worker"
        TRACER.adopt(traceparent)


def _worker_telemetry_capture(enabled: bool):
    """The span/metric delta shipped back with a result (None if off)."""
    BEACON.disable()
    if not enabled:
        return None
    METRICS.counter_inc("repro_parallel_tasks_total", proc="worker")
    blob = {
        "spans": TRACER.export_records(),
        "metrics": METRICS.snapshot(),
    }
    TRACER.clear()
    METRICS.clear()
    return blob


#: How often an idle worker checks that its parent is still alive.
_ORPHAN_POLL_SECONDS = 1.0


def _portfolio_worker(task_queue, result_queue, cancel_cell,
                      heartbeat) -> None:
    """Worker loop: solve (CNF, config, assumptions) tasks until poisoned.

    Result messages are ``(task_id, slot, verdict, model, reason,
    stats, telemetry, extra)`` where ``verdict`` is "sat"/"unsat"/
    "unknown"/"error", ``model`` is a 1-indexed bool list for SAT,
    ``reason`` the exhaustion reason value for UNKNOWN, ``stats`` a
    SatStats tuple, ``telemetry`` the worker's span/metric delta (or
    None when the parent ran without telemetry), and ``extra`` is
    ``(proof_steps, unsat_assumptions)`` on a certified UNSAT, else
    None.  Live-progress samples travel on the same queue as
    ``("progress", task_id, sample)`` messages, re-emitted by the
    dispatching process's beacon.

    A forked worker inherits its parent's signal handlers: under
    ``repro serve`` that is asyncio's no-op SIGTERM handler, which would
    swallow the pool's ``terminate()`` and leave the worker holding the
    server's stdio open after it exits.  The worker restores SIGTERM's
    default action and detaches from the parent's wakeup fd.  It also
    exits on its own once idle and orphaned (a SIGKILLed parent never
    closes its pool).
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    parent = os.getppid()
    while True:
        try:
            task = task_queue.get(timeout=_ORPHAN_POLL_SECONDS)
        except queue_mod.Empty:
            if os.getppid() != parent:
                return
            continue
        if task is None:
            return
        (task_id, slot, attempt, num_vars, clauses, config_kwargs,
         assumptions, deadline, max_conflicts, max_learned, telemetry,
         certify, chaos, traceparent, progress_ctx) = task
        if heartbeat is not None:
            heartbeat.value = time.time()
        if chaos is not None and _chaos_should_crash(
            chaos, task_id, slot, attempt
        ):
            # Simulated hard crash (OOM-kill, segfault): no result, no
            # cleanup — the parent's supervisor must recover the query.
            os._exit(3)
        if cancel_cell is not None and cancel_cell.value >= task_id:
            result_queue.put(
                (task_id, slot, "unknown", None, "cancelled",
                 _stats_tuple(SatStats()), None, None)
            )
            continue
        _worker_telemetry_begin(telemetry, traceparent)
        if progress_ctx is not None:
            progress_ctx = dict(progress_ctx)
            phase = dict(progress_ctx.get("phase") or {})
            phase["slot"] = slot
            progress_ctx["phase"] = phase
        BEACON.configure_remote(
            progress_ctx,
            lambda sample, _tid=task_id: result_queue.put(
                ("progress", _tid, sample)),
        )
        budget = _WorkerBudget(
            cancel_cell, task_id, heartbeat,
            deadline_seconds=deadline,
            max_conflicts=max_conflicts,
            max_learned_clauses=max_learned,
        )
        budget.start()
        solver = CDCLSolver(
            num_vars, CDCLConfig(**config_kwargs), budget=budget,
            proof=ProofLog() if certify else None,
        )
        try:
            with TRACER.span("portfolio-rung", slot=slot,
                             mode="parallel") as span:
                with TRACER.span("cnf-load", path="portfolio",
                                 clauses=len(clauses)):
                    ok = solver.add_clauses(clauses)
                with TRACER.span("cdcl", slot=slot) as cdcl_span:
                    result = (
                        solver.solve(assumptions=assumptions) if ok
                        else SatResult.UNSAT
                    )
                    cdcl_span.set("inprocessings",
                                  solver.last_stats.inprocessings)
                    cdcl_span.set("inprocess_s", solver.last_inprocess_s)
                span.set("result", result.value)
        except BudgetExhausted as exc:
            result_queue.put(
                (task_id, slot, "unknown", None, exc.report.reason.value,
                 _stats_tuple(solver.stats),
                 _worker_telemetry_capture(telemetry), None)
            )
            continue
        except Exception as exc:  # never kill the worker loop
            result_queue.put(
                (task_id, slot, "error", repr(exc), None,
                 _stats_tuple(solver.stats),
                 _worker_telemetry_capture(telemetry), None)
            )
            continue
        if result is SatResult.SAT:
            result_queue.put(
                (task_id, slot, "sat", solver.model(), None,
                 _stats_tuple(solver.stats),
                 _worker_telemetry_capture(telemetry), None)
            )
        elif result is SatResult.UNSAT:
            extra = None
            if certify and solver.proof is not None:
                extra = (
                    list(solver.proof.steps), solver.unsat_assumptions()
                )
            result_queue.put(
                (task_id, slot, "unsat", None, None,
                 _stats_tuple(solver.stats),
                 _worker_telemetry_capture(telemetry), extra)
            )
        else:
            reason = (
                solver.exhaust_report.reason.value
                if solver.exhaust_report is not None else None
            )
            result_queue.put(
                (task_id, slot, "unknown", None, reason,
                 _stats_tuple(solver.stats),
                 _worker_telemetry_capture(telemetry), None)
            )


@dataclass
class SlotResult:
    """Outcome of one portfolio slot (one config or one assumption set)."""

    verdict: SatResult
    model: Optional[list[bool]] = None
    reason: Optional[str] = None  # ExhaustionReason.value for UNKNOWN
    stats: SatStats = dataclasses.field(default_factory=SatStats)
    error: Optional[str] = None
    # Certified UNSAT answers: the worker's hinted proof steps and (for
    # assumption slots) the unsat assumption core.
    proof: Optional[list] = None
    core: tuple = ()


class _Worker:
    """One pool worker: process, its task queue, its heartbeat cell."""

    __slots__ = ("proc", "queue", "heartbeat")

    def __init__(self, proc, queue, heartbeat):
        self.proc = proc
        self.queue = queue
        self.heartbeat = heartbeat


class PoolUnavailable(RuntimeError):
    """The pool cannot run (worker startup failed, workers died, ...)."""


class PortfolioPool:
    """A persistent pool of CDCL worker processes shared across queries."""

    def __init__(self, jobs: int, start_method: Optional[str] = None,
                 hang_seconds: Optional[float] = None):
        self.jobs = max(1, jobs)
        if start_method is None:
            start_method = os.environ.get("REPRO_MP_START") or None
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = mp.get_context(start_method)
        # lock=False: the cell is written only by this parent and read
        # by workers.  A synchronized Value's lock would be taken by
        # every reader, and a worker dying abruptly mid-read would
        # leave it held forever, wedging the parent's cancel writes.
        self._cancel = self._ctx.Value("q", 0, lock=False)
        self._results = self._ctx.Queue()
        self._task_id = 0
        self._workers: list[_Worker] = []
        self._closed = False
        # Slots cooperatively cancelled during the most recent _run();
        # surfaced via ResourceReport.cancelled_slots on timeouts.
        self.last_cancelled = 0
        # Supervision: a worker with in-flight work whose heartbeat is
        # older than hang_seconds is presumed wedged and replaced.  A
        # query is quarantined after quarantine_after worker losses.
        if hang_seconds is None:
            try:
                hang_seconds = float(os.environ.get("REPRO_HANG_SECONDS", "30"))
            except ValueError:
                hang_seconds = 30.0
        self.hang_seconds = hang_seconds
        self.quarantine_after = 2
        self.respawn_base_seconds = 0.01
        self._consecutive_respawns = 0
        # Lifetime counters and per-run snapshots (read by SmtSolver
        # into ResourceReport after each parallel solve).
        self.workers_respawned = 0
        self.queries_quarantined = 0
        self.last_respawned = 0
        self.last_quarantined = 0
        for _ in range(self.jobs):
            self._spawn_worker()

    # ----- lifecycle --------------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        task_queue = self._ctx.Queue()
        heartbeat = self._ctx.Value("d", time.time(), lock=False)
        proc = self._ctx.Process(
            target=_portfolio_worker,
            args=(task_queue, self._results, self._cancel, heartbeat),
            daemon=True,
        )
        proc.start()
        worker = _Worker(proc, task_queue, heartbeat)
        self._workers.append(worker)
        return worker

    def _rebuild_transport(self, replaced: int = 0) -> None:
        """Tear down every worker AND the shared queues; start fresh.

        Called after any abrupt worker loss.  A worker that dies
        without cleanup (OOM-kill, segfault, the ``worker_crash``
        chaos hook's ``os._exit``) may die holding the shared result
        pipe's *write lock* — its queue feeder thread takes that lock
        for every message, and death can strike between ``send_bytes``
        and the release.  The lock then stays held forever and every
        surviving worker's answers block behind it, so the parent sees
        only silence and would mis-quarantine innocent queries.  The
        parent cannot observe whether the lock died held; after any
        abrupt loss the whole transport is presumed poisoned (the same
        call ``concurrent.futures`` makes with ``BrokenProcessPool``)
        and replaced: workers, task queues and result queue alike.
        In-flight answers still in the old pipe are recomputed.
        """
        if self._consecutive_respawns:
            time.sleep(min(
                0.25,
                self.respawn_base_seconds * (2 ** self._consecutive_respawns),
            ))
        self._consecutive_respawns += 1
        for worker in self._workers:
            worker.proc.terminate()
        for worker in self._workers:
            worker.proc.join(timeout=1.0)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=1.0)
            # A parent-side feeder blocked on a full pipe to a dead
            # worker must not hang interpreter shutdown.
            worker.queue.cancel_join_thread()
            worker.queue.close()
        self._workers = []
        self._results.close()
        self._results = self._ctx.Queue()
        self.workers_respawned += replaced
        self.last_respawned += replaced
        if METRICS.enabled and replaced:
            METRICS.counter_inc(
                "repro_engine_workers_respawned_total", replaced
            )
        for _ in range(self.jobs):
            self._spawn_worker()

    def _revive(self) -> None:
        """Replace dead workers so one crash doesn't shrink the pool."""
        if any(not w.proc.is_alive() for w in self._workers):
            # A worker that died between runs may have poisoned the
            # shared queues (see _rebuild_transport): replace them all.
            self._rebuild_transport()
        while len(self._workers) < self.jobs:
            self._spawn_worker()

    def alive(self) -> bool:
        return (
            not self._closed
            and any(w.proc.is_alive() for w in self._workers)
        )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._cancel.value = self._task_id + 1
        for worker in self._workers:
            try:
                worker.queue.put_nowait(None)
            except Exception:
                pass
        for worker in self._workers:
            worker.proc.join(timeout=1.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=1.0)
        self._workers = []

    # ----- solving ----------------------------------------------------------

    def solve_portfolio(
        self,
        cnf: CNF,
        configs: Sequence[Optional[CDCLConfig]],
        assumptions: Sequence[int] = (),
        budget: Optional[Budget] = None,
        certify: bool = False,
        chaos: Optional[tuple] = None,
    ) -> tuple[SlotResult, int]:
        """Race ``configs`` on one CNF; first SAT/UNSAT wins.

        Returns ``(winner-or-summary, slots_dispatched)``.  When every
        slot answers UNKNOWN the summary carries the first *hard*
        exhaustion reason (or None for the retryable per-call conflict
        cap) and the maximum per-slot spend.
        """
        tasks = [
            (list(assumptions), config if config is not None else CDCLConfig())
            for config in configs
        ]
        results = self._run(
            cnf, tasks, budget, first_wins=True, certify=certify, chaos=chaos
        )
        definitive = next(
            (
                r for r in results
                if r is not None
                and r.verdict in (SatResult.SAT, SatResult.UNSAT)
            ),
            None,
        )
        if definitive is not None:
            return definitive, len(tasks)
        # All UNKNOWN (or dead): summarize.
        summary = SlotResult(verdict=SatResult.UNKNOWN, stats=SatStats())
        hard = None
        for r in results:
            if r is None:
                continue
            summary.stats.conflicts = max(
                summary.stats.conflicts, r.stats.conflicts
            )
            summary.stats.learned = max(summary.stats.learned, r.stats.learned)
            summary.stats.decisions = max(
                summary.stats.decisions, r.stats.decisions
            )
            if r.reason is not None and r.reason != "cancelled" and hard is None:
                hard = r.reason
        summary.reason = hard
        return summary, len(tasks)

    def solve_many(
        self,
        cnf: CNF,
        assumption_sets: Sequence[Sequence[int]],
        config: Optional[CDCLConfig] = None,
        budget: Optional[Budget] = None,
        certify: bool = False,
        chaos: Optional[tuple] = None,
    ) -> list[Optional[SlotResult]]:
        """Solve one CNF under several assumption sets concurrently.

        The data-parallel mode behind :meth:`SmtSolver.check_each`,
        which Dafny uses to discharge independent VCs across the pool.
        Every slot runs to completion (no first-wins cancellation); a
        slot is None only if its worker died and could not be replaced,
        or the budget ran out before it answered.
        """
        config = config or CDCLConfig()
        tasks = [(list(a), config) for a in assumption_sets]
        return self._run(
            cnf, tasks, budget, first_wins=False, certify=certify, chaos=chaos
        )

    def _run(
        self,
        cnf: CNF,
        tasks: Sequence[tuple[list[int], CDCLConfig]],
        budget: Optional[Budget],
        first_wins: bool,
        certify: bool = False,
        chaos: Optional[tuple] = None,
    ) -> list[Optional[SlotResult]]:
        if self._closed:
            raise PoolUnavailable("pool is closed")
        self._revive()
        if not self._workers:
            raise PoolUnavailable("no live workers")
        self._task_id += 1
        task_id = self._task_id
        self.last_respawned = 0
        self.last_quarantined = 0
        self._consecutive_respawns = 0
        deadline = budget.remaining_seconds() if budget is not None else None
        max_conflicts = max_learned = None
        if budget is not None:
            if budget.max_conflicts is not None:
                max_conflicts = max(
                    1, budget.max_conflicts - budget.conflicts
                )
            if budget.max_learned_clauses is not None:
                max_learned = max(
                    1, budget.max_learned_clauses - budget.learned_clauses
                )
        telemetry = TRACER.enabled or METRICS.enabled
        # Context shipped to workers: the current traceparent (worker
        # root spans re-parent under the dispatching span) and the
        # beacon snapshot (job id + phase for live-progress samples).
        traceparent = TRACER.traceparent() if telemetry else None
        progress_ctx = BEACON.ship()
        slots: list[Optional[SlotResult]] = [None] * len(tasks)
        # Per-slot dispatch state, kept so the supervisor can requeue a
        # lost worker's in-flight queries on a replacement.
        payloads: list[tuple] = []
        attempts = [0] * len(tasks)
        assigned: dict[int, _Worker] = {}
        dispatched_at: dict[int, float] = {}

        def dispatch(slot: int, worker: _Worker) -> None:
            worker.queue.put(
                (task_id, slot, attempts[slot]) + payloads[slot]
            )
            assigned[slot] = worker
            dispatched_at[slot] = time.time()

        for slot, (assumptions, config) in enumerate(tasks):
            payloads.append((
                cnf.num_vars, cnf.clauses, dataclasses.asdict(config),
                assumptions, deadline, max_conflicts, max_learned,
                telemetry, certify, chaos, traceparent, progress_ctx,
            ))
            dispatch(slot, self._workers[slot % len(self._workers)])
        pending = len(tasks)
        winner_seen = False
        while pending > 0:
            try:
                msg = self._results.get(timeout=0.05)
            except queue_mod.Empty:
                if budget is not None and budget.exhausted() is not None:
                    # Parent budget ran out (e.g. cancel() from outside):
                    # tell the workers and stop waiting for stragglers.
                    self._cancel.value = task_id
                    break
                pending = self._supervise(
                    slots, attempts, assigned, dispatched_at,
                    dispatch, pending, winner_seen,
                )
                continue
            if msg[0] == "progress":
                # A worker's live-progress sample: re-emit through this
                # process's beacon (stale generations are dropped).
                if msg[1] == task_id:
                    BEACON.forward(msg[2])
                continue
            (msg_task_id, slot, verdict, payload, reason, stats_t, telem,
             extra) = msg
            if msg_task_id != task_id or slots[slot] is not None:
                # Stale generation, or a duplicate from a worker that was
                # presumed hung after its slot was already resolved.
                continue
            pending -= 1
            assigned.pop(slot, None)
            dispatched_at.pop(slot, None)
            self._consecutive_respawns = 0
            if telem is not None:
                # Fold the worker's span/metric delta into this process.
                TRACER.merge(telem["spans"])
                METRICS.merge(telem["metrics"])
            stats = SatStats.from_tuple(stats_t)
            if verdict == "sat":
                slots[slot] = SlotResult(SatResult.SAT, payload, None, stats)
            elif verdict == "unsat":
                proof, core = extra if extra is not None else (None, ())
                slots[slot] = SlotResult(
                    SatResult.UNSAT, None, None, stats,
                    proof=proof, core=tuple(core),
                )
            elif verdict == "error":
                slots[slot] = SlotResult(
                    SatResult.UNKNOWN, None, "fault", stats, error=payload
                )
            else:
                slots[slot] = SlotResult(
                    SatResult.UNKNOWN, None, reason, stats
                )
            if (
                first_wins
                and not winner_seen
                and verdict in ("sat", "unsat")
            ):
                winner_seen = True
                self._cancel.value = task_id
                # Keep draining so the queue stays clean, but losers are
                # now cancelled and report quickly.
        if first_wins and not winner_seen:
            self._cancel.value = task_id
        self.last_cancelled = sum(
            1 for s in slots if s is not None and s.reason == "cancelled"
        )
        if METRICS.enabled:
            METRICS.counter_inc("repro_parallel_tasks_total", len(tasks))
            METRICS.counter_inc(
                "repro_parallel_cancelled_total", self.last_cancelled
            )
        if budget is not None:
            # Charge the critical-path spend (max across slots), not the
            # aggregate: budgets govern wall-clock-equivalent work.
            done = [s for s in slots if s is not None]
            if done:
                budget.charge_conflicts(max(s.stats.conflicts for s in done))
                budget.charge_learned(max(s.stats.learned for s in done))
        return slots

    def _supervise(self, slots, attempts, assigned, dispatched_at,
                   dispatch, pending: int, winner_seen: bool) -> int:
        """Sweep for dead or hung workers; recover or quarantine their slots.

        Called from the result loop whenever the queue is briefly idle.
        A worker counts as *hung* when neither its heartbeat nor any of
        its dispatch timestamps moved within ``hang_seconds`` (a fresh
        dispatch resets the clock, so a worker is never flagged while a
        task is still in its queue's grace window).  Returns the updated
        pending-slot count.

        Any loss poisons the shared transport (a dead worker may hold
        the result pipe's write lock — see :meth:`_rebuild_transport`),
        so the sweep replaces the entire pool and re-dispatches every
        unresolved in-flight query on it.  Only slots whose own worker
        was lost count toward quarantine; innocent queries whose worker
        was sacrificed in the rebuild retry without penalty.
        """
        now = time.time()
        lost: set[_Worker] = set()
        for worker in set(assigned.values()):
            if not worker.proc.is_alive():
                lost.add(worker)
                continue
            latest = max(
                [worker.heartbeat.value]
                + [t for s, t in dispatched_at.items()
                   if assigned.get(s) is worker]
            )
            if now - latest > self.hang_seconds:
                lost.add(worker)
        if not lost:
            return pending
        lost_slots = sorted(s for s, w in assigned.items() if w in lost)
        innocent_slots = sorted(
            s for s, w in assigned.items() if w not in lost
        )
        assigned.clear()
        dispatched_at.clear()
        rebuild_error: Optional[str] = None
        try:
            self._rebuild_transport(replaced=len(lost))
        except Exception as exc:
            rebuild_error = repr(exc)
        requeue: list[int] = []
        for slot in lost_slots:
            if winner_seen:
                # The race is decided; don't redo a loser's work.
                slots[slot] = SlotResult(
                    SatResult.UNKNOWN, None, "cancelled", SatStats()
                )
                pending -= 1
                continue
            attempts[slot] += 1
            if attempts[slot] >= self.quarantine_after:
                slots[slot] = SlotResult(
                    SatResult.UNKNOWN, None, "quarantined", SatStats()
                )
                pending -= 1
                self.queries_quarantined += 1
                self.last_quarantined += 1
                if METRICS.enabled:
                    METRICS.counter_inc(
                        "repro_engine_quarantined_total")
                continue
            requeue.append(slot)
        for slot in innocent_slots:
            if winner_seen:
                slots[slot] = SlotResult(
                    SatResult.UNKNOWN, None, "cancelled", SatStats()
                )
                pending -= 1
                continue
            requeue.append(slot)
        for slot in requeue:
            if rebuild_error is not None or not self._workers:
                slots[slot] = SlotResult(
                    SatResult.UNKNOWN, None, "fault", SatStats(),
                    error=f"worker respawn failed: {rebuild_error}",
                )
                pending -= 1
                continue
            if METRICS.enabled:
                METRICS.counter_inc("repro_engine_requeued_total")
            dispatch(slot, self._workers[slot % len(self._workers)])
        return pending


_shared_pool: Optional[PortfolioPool] = None


def get_pool(jobs: int) -> PortfolioPool:
    """The process-wide pool, grown (never shrunk) to ``jobs`` workers."""
    global _shared_pool
    if (
        _shared_pool is None
        or _shared_pool.jobs < jobs
        or not _shared_pool.alive()
    ):
        if _shared_pool is not None:
            _shared_pool.close()
        _shared_pool = PortfolioPool(jobs)
    return _shared_pool


def shutdown_pool() -> None:
    global _shared_pool
    if _shared_pool is not None:
        _shared_pool.close()
        _shared_pool = None


atexit.register(shutdown_pool)
