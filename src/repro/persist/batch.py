"""Crash-recoverable batch execution of analysis jobs.

The durable counterpart of calling :func:`repro.analyze` in a loop: a
:class:`BatchRunner` owns one directory containing

* ``journal.jsonl`` — the write-ahead journal of job submissions and
  state transitions (``pending → running → done | failed | deadletter``),
* ``snapshot.json`` — the compacted job table (written atomically when
  the journal grows past ``compact_after_bytes``),
* ``cache/``        — an on-disk :class:`~repro.engine.cache.ResultCache`
  shared by every job, so a job re-executed after a crash answers its
  already-solved sub-queries from disk instead of re-deriving them.

A spool may also carry an **ownership lease** (``owner.json``): the
process that serves a spool (one ``repro serve`` replica) acquires the
lease and renews it on a heartbeat.  A *different* process may
:meth:`SpoolLease.takeover` only once the heartbeat has gone stale —
the arbiter that lets a cluster router finish a dead replica's backlog
(journal handoff) without ever racing a replica that is merely slow.

Execution contract — **at-least-once, idempotent**:

* A job's identity is a sha256 over its canonical spec (source text,
  backend, steps, consts, options); submitting the same work twice is
  a no-op, and every journal replay converges to the same job table.
* ``running`` is journaled *before* execution starts, ``done`` (with
  the verdict) after it finishes.  A process killed in between leaves
  the job ``running`` in the journal; the next :meth:`run` requeues it
  (``repro_persist_recoveries_total``) and executes it again.  Because
  the pipeline is a decision procedure and sub-queries hit the shared
  result cache, re-execution produces the identical verdict.
* Transient failures (:class:`~repro.runtime.budget.SolverFault`,
  ``OSError``) retry with exponential backoff + seeded jitter, up to
  ``max_attempts``; exhausting the attempts — or any permanent error
  such as a parse failure — moves the job to the **deadletter** state,
  which maps to exit code :data:`~repro.analysis.result.EXIT_DEADLETTER`.

The CLI surface is ``repro batch submit/run/resume/status``; the
library surface is :func:`repro.analyze_many`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union

from ..analysis.result import EXIT_DEADLETTER, AnalysisOutcome, Verdict
from ..obs import (
    BEACON,
    METRICS,
    TRACER,
    ProgressBook,
    parse_traceparent,
    progress_scope,
)
from ..runtime.budget import SolverFault
from .journal import Journal, canonical_json, load_snapshot, write_snapshot

#: Job lifecycle states, as journaled.
STATES = ("pending", "running", "done", "failed", "deadletter")

#: Exceptions worth retrying: infrastructure, not the job itself.
TRANSIENT_ERRORS = (SolverFault, OSError)


def job_id_for(spec: dict) -> str:
    """The idempotency key: sha256 over the canonical job spec."""
    keyed = {k: spec.get(k) for k in
             ("source", "backend", "steps", "consts", "prove", "options")}
    return hashlib.sha256(canonical_json(keyed).encode()).hexdigest()


def _record_key(data: dict) -> tuple:
    """What tells one journaled transition from another."""
    return (data.get("kind"), data.get("id"), data.get("state"),
            data.get("attempt"), data.get("by"))


class LeaseHeld(RuntimeError):
    """A takeover was refused: the current owner's heartbeat is fresh."""


class SpoolLease:
    """Ownership lease over one spool directory (``owner.json``).

    The liveness arbiter for journal handoff.  The owning process
    (a serve replica, a batch run) acquires the lease and renews it on
    a heartbeat; a peer that believes the owner died may take the spool
    over only once the heartbeat is **stale** — ``renewed_at`` older
    than the TTL the owner itself advertised.  A health prober can be
    fooled by a partition or a flapping probe; a fresh heartbeat on
    shared storage cannot, so :meth:`takeover` raising
    :class:`LeaseHeld` is what stops two processes from executing one
    journal at once.

    Wall-clock based (``time.time``) because the two sides are
    different processes; the clock is injectable for tests.  All writes
    are atomic (temp + rename) and degrade to a counted metric on
    ``OSError`` — a lost lease write costs takeover safety margin,
    never the run.
    """

    FILE = "owner.json"

    #: Chaos hook: repro.runtime.chaos.inject_faults installs a monkey
    #: here so campaigns can skew lease heartbeats (stale-owner
    #: split-brain pressure) without touching the wall clock.
    _chaos = None

    def __init__(self, directory: Union[str, Path], *,
                 ttl_seconds: float = 10.0,
                 clock: Callable[[], float] = time.time):
        self.directory = Path(directory)
        self.path = self.directory / self.FILE
        self.ttl_seconds = max(0.001, ttl_seconds)
        self._clock = clock
        self._owner: Optional[str] = None
        #: The fencing epoch of the lease this process last wrote.
        #: Every acquire/takeover increments the spool's epoch, so a
        #: write stamped with an older epoch is provably from a zombie
        #: owner that lost the lease (the auditor checks exactly this).
        self.epoch: int = 0

    # ----- observation ------------------------------------------------------

    def read(self) -> Optional[dict]:
        """The lease record, or None (no lease / unreadable)."""
        try:
            with open(self.path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def holder(self) -> Optional[str]:
        data = self.read()
        return data.get("owner") if data else None

    def is_stale(self, data: Optional[dict] = None) -> bool:
        """True when the spool is safely claimable: no lease, a released
        lease, or a heartbeat older than the owner's advertised TTL."""
        if data is None:
            data = self.read()
        if not data:
            return True
        if data.get("state") == "released":
            return True
        try:
            renewed = float(data.get("renewed_at", 0.0))
            ttl = float(data.get("ttl_seconds", self.ttl_seconds))
        except (TypeError, ValueError):
            return True
        return self._clock() - renewed >= ttl

    # ----- transitions ------------------------------------------------------

    def acquire(self, owner: str, *, force: bool = False) -> bool:
        """Claim the spool for ``owner``; refuses a fresh foreign lease
        unless ``force`` (a replica restarting over its own spool passes
        ``force=True`` — it *is* the owner, the old pid just died)."""
        data = self.read()
        if (data and not force and not self.is_stale(data)
                and data.get("owner") != owner):
            return False
        self._owner = owner
        self.epoch = self._next_epoch(data)
        return self._write({
            "owner": owner,
            "pid": os.getpid(),
            "acquired_at": self._clock(),
            "renewed_at": self._clock() - self._skew(),
            "ttl_seconds": self.ttl_seconds,
            "epoch": self.epoch,
        })

    def renew(self) -> bool:
        """Heartbeat: push ``renewed_at`` forward.  Returns False (and
        writes nothing) if the lease was taken over from under us — the
        signal for a zombie owner to stop touching the journal."""
        if self._owner is None:
            return False
        data = self.read()
        if data and data.get("owner") != self._owner:
            if METRICS.enabled:
                METRICS.counter_inc("repro_persist_lease_lost_total")
            return False
        data = data or {"owner": self._owner, "pid": os.getpid(),
                        "acquired_at": self._clock(),
                        "ttl_seconds": self.ttl_seconds,
                        "epoch": self.epoch}
        # A skewed heartbeat backdates ``renewed_at``: the owner is
        # alive, but to every reader its lease looks stale — the clock
        # drift that invites a split-brain takeover.
        data["renewed_at"] = self._clock() - self._skew()
        return self._write(data)

    def release(self) -> bool:
        """Voluntary surrender (graceful drain): a peer may take over
        immediately instead of waiting out the TTL."""
        data = self.read() or {"owner": self._owner}
        data["state"] = "released"
        data["released_at"] = self._clock()
        return self._write(data)

    def takeover(self, new_owner: str, *, force: bool = False) -> dict:
        """Claim a (believedly) dead owner's spool.

        Raises :class:`LeaseHeld` while the current owner's heartbeat
        is fresh — ejection by a health prober is a *suspicion*; only a
        stale (or released) lease makes it safe to execute the journal.
        Returns the new lease record, which names the previous owner.
        """
        data = self.read()
        if (data and not force and not self.is_stale(data)
                and data.get("owner") != new_owner):
            age = self._clock() - float(data.get("renewed_at", 0.0))
            raise LeaseHeld(
                f"spool {self.directory} is owned by"
                f" {data.get('owner')!r} (heartbeat {age:.1f}s ago,"
                f" ttl {data.get('ttl_seconds')}s)"
            )
        self._owner = new_owner
        self.epoch = self._next_epoch(data)
        record = {
            "owner": new_owner,
            "pid": os.getpid(),
            "acquired_at": self._clock(),
            "renewed_at": self._clock(),
            "ttl_seconds": self.ttl_seconds,
            "epoch": self.epoch,
            "taken_over_by": new_owner,
            "taken_from": (data or {}).get("owner"),
        }
        if not self._write(record):
            raise LeaseHeld(
                f"could not write takeover lease in {self.directory}")
        if METRICS.enabled:
            METRICS.counter_inc("repro_persist_lease_takeovers_total")
        return record

    def _next_epoch(self, data: Optional[dict]) -> int:
        """The fencing epoch a fresh claim writes: strictly greater
        than any epoch ever persisted for this spool."""
        try:
            current = int((data or {}).get("epoch", 0))
        except (TypeError, ValueError):
            current = 0
        return max(current, self.epoch) + 1

    def _skew(self) -> float:
        """Injected clock skew for this heartbeat write (0.0 normally)."""
        monkey = SpoolLease._chaos
        if monkey is None:
            return 0.0
        return monkey.lease_skew()

    def _write(self, data: dict) -> bool:
        # One temp file per writing thread: two racing takeovers sharing
        # one name could rename away each other's file mid-write.
        tmp = self.path.with_suffix(
            f".tmp.{os.getpid()}.{threading.get_ident()}")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(data, fh, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, self.path)
        except OSError:
            if METRICS.enabled:
                METRICS.counter_inc(
                    "repro_persist_io_errors_total", site="lease")
            return False
        return True


@dataclass
class JobRecord:
    """One job's current state, as reconstructed from the journal."""

    job_id: str
    spec: dict
    state: str = "pending"
    attempts: int = 0
    verdict: Optional[str] = None
    exit_code: Optional[int] = None
    error: Optional[str] = None
    recovered: bool = False  # requeued from an interrupted run
    # Observed ``running`` with no live executor behind it (a crashed or
    # SIGKILLed run): reported distinctly by ``status`` so operators see
    # interrupted work instead of it hiding among pending/done jobs.
    orphaned: bool = False
    # W3C-style traceparent captured at submission: a run in a *later*
    # process (``repro batch resume`` after SIGKILL) re-adopts it, so
    # one distributed trace spans the original request and the recovery.
    trace: Optional[str] = None
    # Which replica/process journaled the job (its spool lease owner).
    owner: Optional[str] = None
    # Set when a *different* owner journaled a later state transition —
    # the visible mark of a journal handoff after the original owner died.
    taken_over_by: Optional[str] = None
    # Set when the verdict was copied from a peer replica's journal
    # instead of being solved here (failover dedupe during handoff).
    adopted_from: Optional[str] = None

    @property
    def label(self) -> str:
        return self.spec.get("label") or self.job_id[:12]

    @property
    def trace_id(self) -> Optional[str]:
        parsed = parse_traceparent(self.trace)
        return parsed[0] if parsed else None

    def to_snapshot(self) -> dict:
        return {
            "job_id": self.job_id, "spec": self.spec, "state": self.state,
            "attempts": self.attempts, "verdict": self.verdict,
            "exit_code": self.exit_code, "error": self.error,
            "trace": self.trace, "owner": self.owner,
            "taken_over_by": self.taken_over_by,
            "adopted_from": self.adopted_from,
        }

    @classmethod
    def from_snapshot(cls, data: dict) -> "JobRecord":
        return cls(
            job_id=data["job_id"], spec=data["spec"],
            state=data.get("state", "pending"),
            attempts=int(data.get("attempts", 0)),
            verdict=data.get("verdict"),
            exit_code=data.get("exit_code"),
            error=data.get("error"),
            trace=data.get("trace"),
            owner=data.get("owner"),
            taken_over_by=data.get("taken_over_by"),
            adopted_from=data.get("adopted_from"),
        )


@dataclass
class BatchReport:
    """What one :meth:`BatchRunner.run` (or :meth:`status`) observed."""

    records: list[JobRecord] = field(default_factory=list)
    recovered: int = 0
    retries: int = 0
    executed: int = 0
    replayed: int = 0  # finished jobs answered straight from the journal
    # The spool's ownership lease (owner, heartbeat age, takeover marks),
    # attached by :meth:`BatchRunner.status` when an ``owner.json`` exists.
    lease: Optional[dict] = None

    def by_state(self) -> dict[str, int]:
        """State → count; interrupted jobs count as ``orphaned``, not as
        whatever transient state the journal last recorded for them."""
        counts: dict[str, int] = {}
        for rec in self.records:
            state = "orphaned" if rec.orphaned else rec.state
            counts[state] = counts.get(state, 0) + 1
        return counts

    @property
    def exit_code(self) -> int:
        """Deadletter dominates; otherwise the worst job exit code."""
        if any(r.state == "deadletter" for r in self.records):
            return EXIT_DEADLETTER
        codes = [r.exit_code for r in self.records if r.exit_code is not None]
        return max(codes, default=0)

    def outcomes(self) -> list[AnalysisOutcome]:
        """Journal-reconstructed outcomes, in submission order.

        Witnesses and resource reports are not journaled (they are not
        portably serializable); replayed outcomes carry the verdict and
        a ``stats`` marker instead.
        """
        out = []
        for rec in self.records:
            if rec.verdict is not None:
                out.append(AnalysisOutcome(
                    verdict=Verdict(rec.verdict),
                    stats={"job_id": rec.job_id, "attempts": rec.attempts},
                ))
            else:
                out.append(AnalysisOutcome(
                    verdict=Verdict.UNDECIDED,
                    stats={"job_id": rec.job_id, "state": rec.state,
                           "error": rec.error},
                ))
        return out

    def describe(self) -> str:
        lines = []
        counts = self.by_state()
        order = [s for s in STATES if s != "running"] + ["running", "orphaned"]
        summary = ", ".join(
            f"{counts[s]} {s}" for s in order if counts.get(s)
        ) or "no jobs"
        lines.append(f"batch: {summary}")
        if self.recovered:
            lines.append(f"  recovered (requeued after crash): {self.recovered}")
        if self.retries:
            lines.append(f"  transient retries: {self.retries}")
        for rec in self.records:
            detail = rec.verdict or rec.state
            if rec.orphaned:
                detail = "orphaned (interrupted while running)"
            elif rec.state == "deadletter" and rec.error:
                detail = f"deadletter after {rec.attempts} attempts: {rec.error}"
            if rec.adopted_from:
                detail = f"{detail} [adopted from {rec.adopted_from}]"
            elif rec.taken_over_by:
                detail = f"{detail} [taken over by {rec.taken_over_by}]"
            lines.append(f"  {rec.label}: {detail}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """Machine-readable status (``repro batch status --json``).

        The shape ops scripts and the serve ``/readyz`` endpoint read:
        per-state counts (orphaned-running jobs reported distinctly),
        the aggregate exit code, and one row per job.  Cluster runs add
        handoff visibility: which replica owned each job, who took it
        over, which verdicts were adopted from a peer instead of solved
        here, and how many orphaned jobs each dead owner left behind.
        The two handoff counts partition the handed-off jobs, as
        :meth:`describe` does: ``adopted`` verdicts were copied from a
        peer, ``taken_over`` jobs were resolved by the taker itself (an
        adoption is journaled by the taker, so its row names both).
        """
        orphaned_by_owner: dict[str, int] = {}
        handoff_rows: list[dict] = []
        handed_off = adopted = 0
        for rec in self.records:
            if rec.orphaned:
                key = rec.owner or "unknown"
                orphaned_by_owner[key] = orphaned_by_owner.get(key, 0) + 1
            if rec.adopted_from:
                adopted += 1
            elif rec.taken_over_by:
                handed_off += 1
            if rec.taken_over_by or rec.adopted_from:
                # One row per handed-off job, carrying its trace_id so
                # the failover path is joinable against the distributed
                # trace the original submission started.
                handoff_rows.append({
                    "job_id": rec.job_id,
                    "label": rec.label,
                    "trace_id": rec.trace_id,
                    "owner": rec.owner,
                    "taken_over_by": rec.taken_over_by,
                    "adopted_from": rec.adopted_from,
                })
        doc = {
            "counts": self.by_state(),
            "recovered": self.recovered,
            "retries": self.retries,
            "executed": self.executed,
            "replayed": self.replayed,
            "exit_code": self.exit_code,
            "handoff": {
                "taken_over": handed_off,
                "adopted": adopted,
                "orphaned_by_owner": orphaned_by_owner,
                "rows": handoff_rows,
            },
            "jobs": [
                {
                    "job_id": rec.job_id,
                    "label": rec.label,
                    "state": "orphaned" if rec.orphaned else rec.state,
                    "attempts": rec.attempts,
                    "verdict": rec.verdict,
                    "exit_code": rec.exit_code,
                    "error": rec.error,
                    "trace_id": rec.trace_id,
                    "owner": rec.owner,
                    "taken_over_by": rec.taken_over_by,
                    "adopted_from": rec.adopted_from,
                }
                for rec in self.records
            ],
        }
        if self.lease is not None:
            doc["lease"] = self.lease
        return doc


class BatchRunner:
    """Journal-backed, crash-recoverable executor for analysis jobs."""

    JOURNAL = "journal.jsonl"
    SNAPSHOT = "snapshot.json"

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        max_attempts: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        seed: int = 0,
        fsync: str = "always",
        compact_after_bytes: int = 1 << 20,
        executor: Optional[Callable[[JobRecord], AnalysisOutcome]] = None,
        sleep: Callable[[float], None] = time.sleep,
        owner: Optional[str] = None,
        lease_ttl: float = 10.0,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # Cluster identity: which replica this runner acts as.  Journal
        # records it writes are stamped ``by=owner`` so a later reader can
        # see which process drove each transition — the raw material for
        # the ``taken_over_by`` handoff marks.  None (single-node batch
        # runs) keeps the journal format exactly as before.
        self.owner = owner
        self.lease = SpoolLease(self.directory, ttl_seconds=lease_ttl)
        #: Set once this process learns it lost the spool lease (its
        #: heartbeat failed, or a takeover was observed).  A fenced
        #: runner stops journaling state transitions — the write fence
        #: that keeps a zombie owner from corrupting a handed-off
        #: journal with stale ``done`` records.
        self.fenced = False
        self.max_attempts = max(1, max_attempts)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.compact_after_bytes = compact_after_bytes
        self._rng = random.Random(seed)
        self._fsync = fsync
        self._executor = executor
        self._sleep = sleep
        # Serializes journal appends and the in-process job table: the
        # serve layer executes jobs from multiple worker threads against
        # one runner, and interleaved writes would tear the journal.
        self._lock = threading.RLock()
        # Per-job engine knobs used by the default executor; set by run().
        self._run_knobs: dict[str, Any] = {}
        # The live job table: built once by a full replay, then kept
        # current by tailing the journal from ``_offset`` (the byte after
        # the last record consumed), so per-request journal work does not
        # grow with the journal.  Jobs whose journal append failed (disk
        # full, io_error chaos) live here too: a degraded journal costs
        # only durability — this process still executes every job.
        self._jobs: dict[str, JobRecord] = {}
        self._order: list[str] = []
        self._offset: Optional[int] = None  # None: never replayed
        self._snapshot_id: Optional[tuple] = None
        # Keys of the records this runner appended that no tail has read
        # back yet.  Their transitions are already in the table, and
        # re-applying one late could roll back a newer transition whose
        # append failed; so a tail skips them and applies only the
        # records of other writers.
        self._own: deque[tuple] = deque()
        self.journal = Journal(self.directory / self.JOURNAL, fsync=fsync)
        # Every job shares one on-disk result cache: a crashed job's
        # re-execution answers its solved sub-queries from disk.
        from ..engine.cache import ResultCache

        self.cache = ResultCache(disk_dir=self.directory / "cache")

    # ----- journal state ----------------------------------------------------

    def load(self) -> tuple[dict[str, JobRecord], list[str]]:
        """The current job table: ``(jobs by id, submission order)``.

        The containers are copies; the records are the live ones, so a
        state transition applied to them (``mark_*``, ``adopt_verdict``)
        is what later readers see.
        """
        with self._lock:
            self._sync()
            return dict(self._jobs), list(self._order)

    def job(self, job_id: str) -> Optional[JobRecord]:
        """A copy of one job's current record, or None if unknown."""
        with self._lock:
            self._sync()
            rec = self._jobs.get(job_id)
            return dataclasses.replace(rec) if rec is not None else None

    def _sync(self) -> None:
        """Bring the live table up to date with the spool (lock held).

        Normally only the records appended since ``_offset`` are read
        and verified — including those of other processes (a router's
        handoff, ``repro batch run``, a second runner's
        ``adopt_verdict``).  Three cases fall back to a full replay
        from byte 0: the snapshot changed (a compaction), the journal
        is shorter than the offset (reset under us), or a record past
        the offset fails to verify.  Only the full replay may truncate
        a torn tail; a possibly stale offset never decides one.
        """
        snapshot_id = self._snapshot_identity()
        if self._offset is not None and snapshot_id == self._snapshot_id:
            tailed = self.journal.tail(self._offset)
            if tailed is not None:
                records, self._offset = tailed
                for data in records:
                    if self._own and _record_key(data) == self._own[0]:
                        self._own.popleft()
                    else:
                        self._apply(data)
                return
        self._replay_full(snapshot_id)

    def _snapshot_identity(self) -> Optional[tuple]:
        try:
            st = os.stat(self.directory / self.SNAPSHOT)
        except OSError:
            return None
        return st.st_ino, st.st_mtime_ns, st.st_size

    def _replay_full(self, snapshot_id: Optional[tuple]) -> None:
        """Rebuild the table: snapshot first, then the whole journal.

        Replay is idempotent — a transition already reflected in the
        snapshot re-applies to the same state — so a crash between
        snapshot write and journal truncation costs nothing.
        """
        previous, previous_order = self._jobs, self._order
        self._jobs, self._order = {}, []
        self._own.clear()
        self._snapshot_id = snapshot_id
        snap = load_snapshot(self.directory / self.SNAPSHOT)
        if snap:
            for data in snap.get("jobs", ()):
                self._add(JobRecord.from_snapshot(data))
        records, self._offset = self.journal.recover()
        for data in records:
            self._apply(data)
        # A job whose submit never reached the journal (degraded
        # append) is known only to this table: keep it.
        for job_id in previous_order:
            if job_id not in self._jobs:
                self._add(previous[job_id])

    def _add(self, rec: JobRecord) -> None:
        if rec.job_id not in self._jobs:
            self._order.append(rec.job_id)
        self._jobs[rec.job_id] = rec

    def _apply(self, data: dict) -> None:
        """Apply one journal record to the table (idempotent)."""
        kind = data.get("kind")
        if kind == "submit":
            spec = data.get("spec") or {}
            job_id = data.get("id") or job_id_for(spec)
            if job_id not in self._jobs:
                self._add(JobRecord(
                    job_id=job_id, spec=spec, trace=data.get("trace"),
                    owner=data.get("owner")))
        elif kind == "state":
            rec = self._jobs.get(data.get("id", ""))
            if rec is None or data.get("state") not in STATES:
                return
            rec.state = data["state"]
            rec.attempts = int(data.get("attempt", rec.attempts))
            if "verdict" in data:
                rec.verdict = data["verdict"]
            if "exit_code" in data:
                rec.exit_code = data["exit_code"]
            if "error" in data:
                rec.error = data["error"]
            if "adopted_from" in data:
                rec.adopted_from = data["adopted_from"]
            # A transition journaled by someone other than the job's
            # submitter is the durable trace of a handoff.
            by = data.get("by")
            if by and rec.owner and by != rec.owner:
                rec.taken_over_by = by

    def _append(self, entry: dict) -> bool:
        """Append one record of ours to the journal (lock held)."""
        if not self.journal.append(entry):
            return False
        self._own.append(_record_key(entry))
        return True

    def compact(self, jobs: dict[str, JobRecord],
                order: Sequence[str]) -> bool:
        """Fold the journal into the snapshot and truncate it."""
        ok = write_snapshot(
            self.directory / self.SNAPSHOT,
            {"jobs": [jobs[j].to_snapshot() for j in order if j in jobs]},
        )
        if ok:
            self.journal.reset()
            if METRICS.enabled:
                METRICS.counter_inc("repro_persist_compactions_total")
        return ok

    def _journal_state(self, rec: JobRecord, **extra) -> None:
        with self._lock:
            if self.owner is not None and not self._may_write():
                if METRICS.enabled:
                    METRICS.counter_inc(
                        "repro_persist_fenced_writes_total")
                return
            entry = {
                "kind": "state", "id": rec.job_id, "state": rec.state,
                "attempt": rec.attempts, **extra,
            }
            if self.owner is not None:
                entry["by"] = self.owner
                if self.lease.epoch:
                    entry["epoch"] = self.lease.epoch
            self._append(entry)

    def _may_write(self) -> bool:
        """Write fence for cluster spools: a runner whose lease moved
        to another owner must not journal — its in-flight transitions
        are stale the moment a takeover's epoch supersedes them.  A
        missing/unreadable lease file never fences (single-node runs
        and degraded disks keep journaling)."""
        if self.fenced:
            return False
        holder = self.lease.holder()
        if holder is not None and holder != self.owner:
            self.fenced = True
            return False
        return True

    # ----- public state transitions (thread-safe) ---------------------------

    def mark_running(self, rec: JobRecord) -> None:
        """Journal the start of one execution attempt."""
        with self._lock:
            rec.attempts += 1
            rec.state = "running"
            self._journal_state(rec)

    def mark_done(self, rec: JobRecord, outcome: AnalysisOutcome) -> None:
        """Journal a terminal verdict for ``rec``."""
        with self._lock:
            rec.state = "done"
            rec.verdict = outcome.verdict.value
            rec.exit_code = outcome.exit_code
            rec.error = None
            self._journal_state(
                rec, verdict=rec.verdict, exit_code=rec.exit_code,
            )
        if METRICS.enabled:
            METRICS.counter_inc("repro_persist_jobs_done_total")

    def adopt_verdict(
        self,
        rec: JobRecord,
        verdict: str,
        exit_code: Optional[int],
        *,
        source: str,
    ) -> None:
        """Journal a terminal verdict copied from a peer replica.

        The dedupe half of journal handoff: a job that failed over to a
        surviving replica was already solved *there* — re-solving it here
        would be a duplicate solve for the same idempotency key, so the
        taker-over adopts the peer's journaled verdict instead.
        """
        with self._lock:
            rec.state = "done"
            rec.verdict = verdict
            rec.exit_code = exit_code
            rec.error = None
            rec.adopted_from = source
            self._journal_state(
                rec, verdict=verdict, exit_code=exit_code,
                adopted_from=source,
            )
        if METRICS.enabled:
            METRICS.counter_inc("repro_persist_jobs_adopted_total")

    def mark_failed(self, rec: JobRecord, error: str) -> None:
        """Journal a retryable failure (``repro batch resume`` retries it)."""
        with self._lock:
            rec.state = "failed"
            rec.error = error
            self._journal_state(rec, error=error)
        if METRICS.enabled:
            METRICS.counter_inc("repro_persist_retries_total")

    def mark_deadletter(self, rec: JobRecord, error: str) -> None:
        """Journal a permanent failure for operator attention."""
        with self._lock:
            rec.state = "deadletter"
            rec.error = error
            self._journal_state(rec, error=error)
        if METRICS.enabled:
            METRICS.counter_inc("repro_persist_deadletters_total")

    def requeue(self, rec: JobRecord) -> None:
        """Journal an interrupted job back to ``pending`` (at-least-once)."""
        with self._lock:
            rec.state = "pending"
            rec.recovered = True
            self._journal_state(rec, note="recovered")
        if METRICS.enabled:
            METRICS.counter_inc("repro_persist_recoveries_total")

    # ----- submission -------------------------------------------------------

    def submit(
        self,
        sources: Sequence[Union[str, tuple[str, str]]],
        *,
        backend: str = "smt",
        steps: int = 6,
        consts: Optional[dict[str, int]] = None,
        prove: bool = False,
        options: Optional[dict] = None,
    ) -> list[str]:
        """Journal jobs for later execution; returns their idempotency keys.

        ``sources`` are Buffy program texts, or ``(label, text)`` pairs.
        Resubmitting an identical spec is a no-op (same key, already
        journaled), so ``submit`` can be retried blindly after a crash.
        """
        with self._lock:
            self._sync()
            ids: list[str] = []
            appended = False
            # Capture the submitter's trace context once: jobs journaled
            # under an open span re-join that trace when executed later,
            # even by a different process after a crash.
            trace = TRACER.traceparent()
            for item in sources:
                label, source = item if isinstance(item, tuple) else (None, item)
                spec = {
                    "source": source, "backend": backend, "steps": steps,
                    "consts": dict(consts or {}), "prove": prove,
                    "options": dict(options or {}), "label": label,
                }
                job_id = job_id_for(spec)
                ids.append(job_id)
                if job_id in self._jobs:
                    continue  # idempotent resubmission
                self._add(JobRecord(job_id=job_id, spec=spec, trace=trace,
                                    owner=self.owner))
                entry = {"kind": "submit", "id": job_id, "spec": spec}
                if trace is not None:
                    entry["trace"] = trace
                if self.owner is not None:
                    entry["owner"] = self.owner
                appended |= self._append(entry)
                if METRICS.enabled:
                    METRICS.counter_inc("repro_persist_jobs_submitted_total")
            self.journal.flush()
            if appended:
                self._sync()  # consume our own submit records
            return ids

    def submit_one(
        self,
        source: str,
        *,
        label: Optional[str] = None,
        backend: str = "smt",
        steps: int = 6,
        consts: Optional[dict[str, int]] = None,
        prove: bool = False,
        options: Optional[dict] = None,
    ) -> JobRecord:
        """Journal one job and return its live record (serve entry point).

        Idempotent like :meth:`submit`: resubmitting an identical spec
        returns the already-journaled record — a completed job answers
        straight from its journaled verdict.
        """
        with self._lock:
            ids = self.submit(
                [(label, source) if label else source],
                backend=backend, steps=steps, consts=consts, prove=prove,
                options=options,
            )
            return self._jobs[ids[0]]

    # ----- execution --------------------------------------------------------

    def _execute(self, rec: JobRecord) -> AnalysisOutcome:
        """Default executor: one :func:`repro.analyze` call per job."""
        from ..runtime.budget import Budget

        knobs = self._run_knobs
        budget = None
        if knobs.get("timeout"):
            budget = Budget(deadline_seconds=knobs["timeout"])
        return self.execute_record(
            rec, budget=budget, jobs=knobs.get("jobs"),
            certify=knobs.get("certify"),
        )

    def execute_record(
        self,
        rec: JobRecord,
        *,
        budget=None,
        escalation=None,
        jobs: Optional[int] = None,
        certify: Optional[bool] = None,
    ) -> AnalysisOutcome:
        """Run one journaled job's spec through :func:`repro.analyze`.

        The serve layer's execution primitive: callers supply their own
        budget/escalation (the overload ladder tightens both under
        saturation) while the job still answers its sub-queries from the
        batch's shared content-addressed result cache.
        """
        from ..analysis.facade import analyze

        spec = rec.spec
        config = None
        options = spec.get("options") or {}
        if options.get("capacity") or options.get("arrivals"):
            from ..compiler.symexec import EncodeConfig

            config = EncodeConfig(
                buffer_capacity=options.get("capacity", 6),
                arrivals_per_step=options.get("arrivals", 2),
            )
        return analyze(
            spec["source"],
            backend=spec.get("backend", "smt"),
            steps=spec.get("steps", 6),
            consts=spec.get("consts") or None,
            prove=bool(spec.get("prove")),
            budget=budget,
            escalation=escalation,
            jobs=jobs,
            cache=self.cache,
            certify=certify,
            config=config,
        )

    def _backoff(self, attempt: int) -> float:
        """Exponential backoff with seeded jitter (deterministic replays)."""
        base = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        return base * (1.0 + self._rng.random())

    def run(
        self,
        *,
        resume: bool = False,
        timeout: Optional[float] = None,
        jobs: Optional[int] = None,
        certify: Optional[bool] = None,
    ) -> BatchReport:
        """Execute every runnable job; requeue work orphaned by a crash.

        ``resume`` only changes bookkeeping strictness (it requires an
        existing journal); recovery itself is unconditional — *any*
        run first requeues jobs left ``running`` by a dead process.
        At-least-once semantics: a job is re-executed until a journaled
        ``done`` or ``deadletter`` record exists for it.
        """
        if resume and not (self.directory / self.JOURNAL).exists() \
                and not (self.directory / self.SNAPSHOT).exists():
            raise FileNotFoundError(
                f"nothing to resume: no journal in {self.directory}"
            )
        self._run_knobs = {
            "timeout": timeout, "jobs": jobs, "certify": certify,
        }
        # Test hook: deterministically SIGKILL this process after N jobs
        # complete, to exercise crash recovery end-to-end.
        kill_after = _kill_after_from_env()
        jobs_table, order = self.load()
        report = BatchReport()
        for job_id in order:
            rec = jobs_table[job_id]
            if rec.state == "running":
                # Orphaned by a crashed run: requeue (at-least-once).
                self.requeue(rec)
                report.recovered += 1
        executor = self._executor or self._execute
        completed_this_run = 0
        # Live-introspection sidecar: solver progress beacons land in
        # ``<dir>/progress/<job>.json`` where a detached ``repro top``
        # can watch them without any server process.
        progress_book = ProgressBook(self.directory / "progress")
        with BEACON.routed(progress_book.record):
            for job_id in order:
                rec = jobs_table[job_id]
                if rec.state in ("done", "deadletter"):
                    report.replayed += 1
                    continue
                # Re-adopt the trace journaled at submission: a resume
                # after SIGKILL continues the original request's trace
                # instead of starting a disconnected one.
                with TRACER.activate(rec.trace), \
                        TRACER.span("batch-job", job=rec.label,
                                    resumed=rec.recovered), \
                        progress_scope(rec.job_id):
                    while rec.state in ("pending", "failed"):
                        self.mark_running(rec)
                        try:
                            outcome = executor(rec)
                        except TRANSIENT_ERRORS as exc:
                            if rec.attempts >= self.max_attempts:
                                self.mark_deadletter(rec, repr(exc))
                                break
                            report.retries += 1
                            self.mark_failed(rec, repr(exc))
                            self._sleep(self._backoff(rec.attempts))
                        except Exception as exc:
                            # Permanent (parse/type errors, genuine bugs):
                            # retrying cannot help — deadletter immediately.
                            self.mark_deadletter(rec, repr(exc))
                            break
                        else:
                            report.executed += 1
                            self.mark_done(rec, outcome)
                            completed_this_run += 1
                            if kill_after and completed_this_run >= kill_after:
                                self.journal.flush()
                                _die_hard()
                            break
        report.records = [dataclasses.replace(jobs_table[j]) for j in order]
        self.journal.flush()
        try:
            journal_bytes = (self.directory / self.JOURNAL).stat().st_size
        except OSError:
            journal_bytes = 0
        if journal_bytes > self.compact_after_bytes:
            self.compact(jobs_table, order)
        return report

    def status(self) -> BatchReport:
        """The job table as the journal tells it, without executing.

        A job journaled ``running`` with no live run behind it was
        interrupted (crash, SIGKILL, server drain): it is flagged
        ``orphaned`` so reports show it distinctly from pending and
        done/failed work — ``repro batch resume`` will requeue it.
        """
        with self._lock:
            self._sync()
            records = [dataclasses.replace(self._jobs[j])
                       for j in self._order]
        # Flag the copies: a live record that is running in this process
        # must never be marked orphaned.
        report = BatchReport(records=records)
        for rec in report.records:
            if rec.state == "running":
                rec.orphaned = True
        report.recovered = sum(1 for r in report.records if r.orphaned)
        lease_data = self.lease.read()
        if lease_data is not None:
            report.lease = {
                "owner": lease_data.get("owner"),
                "state": lease_data.get("state", "held"),
                "stale": self.lease.is_stale(lease_data),
                "taken_from": lease_data.get("taken_from"),
            }
        return report

    def close(self) -> None:
        self.journal.close()

    def __enter__(self) -> "BatchRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _kill_after_from_env() -> int:
    """The REPRO_BATCH_KILL_AFTER crash-test hook (0 = disabled)."""
    try:
        return max(0, int(os.environ.get("REPRO_BATCH_KILL_AFTER", "0")))
    except ValueError:
        return 0


def _die_hard() -> None:
    """SIGKILL this process *and* its process group.

    The hook models the whole machine dying mid-run, so any portfolio
    workers the run spawned must die with it — a worker that survived
    would both misrepresent the failure mode and keep the parent's
    inherited stdout/stderr pipes open, wedging a supervising process
    that waits for EOF.  Callers arming REPRO_BATCH_KILL_AFTER should
    start the run in its own session (``start_new_session=True``) so
    the group kill cannot reach the test harness itself.
    """
    try:
        os.killpg(os.getpgid(0), signal.SIGKILL)
    except OSError:
        pass
    os.kill(os.getpid(), signal.SIGKILL)


def analyze_many(
    programs: Sequence[Union[str, tuple[str, str]]],
    *,
    backend: str = "smt",
    steps: int = 6,
    consts: Optional[dict[str, int]] = None,
    prove: bool = False,
    journal_dir: Optional[Union[str, Path]] = None,
    max_attempts: int = 3,
    timeout: Optional[float] = None,
    jobs: Optional[int] = None,
    certify: Optional[bool] = None,
    options: Optional[dict] = None,
) -> list[AnalysisOutcome]:
    """Analyze many programs; with ``journal_dir``, durably.

    Without a journal directory this is a plain loop over
    :func:`repro.analyze`.  With one, jobs are journaled and executed
    through a :class:`BatchRunner`: a killed process can re-invoke
    ``analyze_many`` with the same directory and finish exactly the
    work that is missing — completed jobs replay their journaled
    verdicts, interrupted ones re-execute against the shared result
    cache.  Outcomes are returned in input order.
    """
    if journal_dir is None:
        from ..analysis.facade import analyze
        from ..runtime.budget import Budget

        out = []
        for item in programs:
            _, source = item if isinstance(item, tuple) else (None, item)
            budget = Budget(deadline_seconds=timeout) if timeout else None
            out.append(analyze(
                source, backend=backend, steps=steps, consts=consts,
                prove=prove, budget=budget, jobs=jobs, certify=certify,
            ))
        return out

    with BatchRunner(journal_dir, max_attempts=max_attempts) as runner:
        ids = runner.submit(
            programs, backend=backend, steps=steps, consts=consts,
            prove=prove, options=options,
        )
        report = runner.run(timeout=timeout, jobs=jobs, certify=certify)
        by_id = {rec.job_id: rec for rec in report.records}
        singles = BatchReport(records=[by_id[i] for i in ids])
        return singles.outcomes()
