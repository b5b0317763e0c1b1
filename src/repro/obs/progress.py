"""Live solver-progress beacons.

Long CDCL solves (tens of seconds at T=6) are black boxes between
their first decision and the verdict.  The beacon opens a low-overhead
side channel: every ``interval`` conflicts the solver emits one
:class:`SolveProgress` sample — conflicts, decisions, propagation
rate, restarts, learnt-DB size, plus whatever phase context (VC name,
BMC bound, portfolio rung/slot) the surrounding pipeline annotated —
and the sample flows to wherever the process's sink routes it:

* in ``repro serve``: a per-job ring buffer (:class:`ProgressBook`)
  behind ``GET /v1/jobs/<id>/progress``, mirrored to
  ``<spool>/progress/<job>.json`` so ``repro top <spool>`` works even
  against a crashed service;
* in ``repro batch run/resume``: the same book under the batch
  directory;
* inside a portfolio worker: forwarded over the existing result queue
  as ``("progress", task_id, sample)`` messages and re-emitted by the
  dispatching process's beacon.

Overhead discipline mirrors the tracer: with the beacon disabled a
solve pays one attribute load per ``_search`` call (not per conflict);
enabled, one integer compare per conflict plus a dict build every
``interval`` conflicts (default 2000 ≈ a few Hz on hard instances).
The <2% disabled-overhead guard in ``tests/test_obs.py`` covers the
beacon's call sites too.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from .metrics import METRICS, register_help

register_help("repro_obs_progress_samples_total",
              "Live solver-progress samples recorded.")

#: Default emission cadence, in conflicts.
DEFAULT_INTERVAL = int(os.environ.get("REPRO_PROGRESS_INTERVAL", "2000"))

#: Job identity for the current logical context (serve request /
#: batch job); stamped onto every sample emitted beneath it.
_JOB: ContextVar[Optional[str]] = ContextVar("repro_progress_job",
                                             default=None)
#: Pipeline phase context (vc / bound / rung / slot ...), merged
#: outermost-first.
_PHASE: ContextVar[tuple[tuple[str, Any], ...]] = ContextVar(
    "repro_progress_phase", default=())


@dataclass
class SolveProgress:
    """One beacon sample.  ``phase`` carries pipeline context such as
    the VC name, BMC bound, or portfolio rung/slot."""

    ts: float
    job: str
    conflicts: int
    decisions: int
    propagations: int
    restarts: int
    learnt: int
    trail: int
    num_vars: int
    conflicts_per_s: float
    props_per_s: float
    phase: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "ts": self.ts,
            "job": self.job,
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "learnt": self.learnt,
            "trail": self.trail,
            "num_vars": self.num_vars,
            "conflicts_per_s": self.conflicts_per_s,
            "props_per_s": self.props_per_s,
            "phase": self.phase,
        }


@contextmanager
def progress_scope(job: Optional[str]):
    """Stamp ``job`` onto every sample emitted inside the block."""
    token = _JOB.set(job)
    try:
        yield
    finally:
        try:
            _JOB.reset(token)
        except ValueError:  # pragma: no cover - crossed contexts
            pass


@contextmanager
def phase_scope(**attrs: Any):
    """Merge phase context (vc=..., bound=..., rung=...) for a block."""
    token = _PHASE.set(_PHASE.get() + tuple(attrs.items()))
    try:
        yield
    finally:
        try:
            _PHASE.reset(token)
        except ValueError:  # pragma: no cover - crossed contexts
            pass


class ProgressBeacon:
    """Process-wide beacon switch + sink.

    Disabled by default; ``repro serve`` and ``repro batch run``
    enable it with a :class:`ProgressBook` sink.  Inside a portfolio
    worker, :meth:`configure_remote` re-points the sink at the result
    queue for the duration of one task.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.interval = DEFAULT_INTERVAL
        self.sink: Optional[Callable[[dict[str, Any]], None]] = None

    # ----- lifecycle --------------------------------------------------------

    def enable(self, sink: Callable[[dict[str, Any]], None],
               interval: Optional[int] = None) -> None:
        self.sink = sink
        if interval is not None:
            self.interval = max(1, int(interval))
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False
        self.sink = None

    @contextmanager
    def routed(self, sink: Callable[[dict[str, Any]], None],
               interval: Optional[int] = None):
        """Enable (or re-route) the beacon for a block, then restore."""
        prev = (self.enabled, self.interval, self.sink)
        self.enable(sink, interval)
        try:
            yield
        finally:
            self.enabled, self.interval, self.sink = prev

    # ----- emission ---------------------------------------------------------

    def current_phase(self) -> dict[str, Any]:
        return dict(_PHASE.get())

    def emit(self, sample: dict[str, Any]) -> None:
        """Stamp ambient context onto ``sample`` and deliver it.

        Sink failures are swallowed: progress is best-effort telemetry
        and must never abort a solve.
        """
        sink = self.sink
        if sink is None:
            return
        sample.setdefault("ts", time.time())
        sample.setdefault("job", _JOB.get() or "-")
        merged = self.current_phase()
        merged.update(sample.get("phase") or {})
        sample["phase"] = merged
        try:
            sink(sample)
        except Exception:  # pragma: no cover - sink bugs must not kill solves
            pass

    def forward(self, sample: dict[str, Any]) -> None:
        """Deliver a fully-stamped sample from another process as-is."""
        sink = self.sink
        if sink is None:
            return
        try:
            sink(sample)
        except Exception:  # pragma: no cover
            pass

    # ----- cross-process shipping -------------------------------------------

    def ship(self) -> Optional[dict[str, Any]]:
        """Snapshot to send with a portfolio task, or ``None`` when
        disabled (workers then keep their beacons off)."""
        if not self.enabled:
            return None
        return {
            "interval": self.interval,
            "job": _JOB.get(),
            "phase": self.current_phase(),
        }

    def configure_remote(self, shipped: Optional[dict[str, Any]],
                         sink: Callable[[dict[str, Any]], None]) -> None:
        """Adopt a shipped snapshot inside a worker (per task)."""
        if shipped is None:
            self.disable()
            return
        _JOB.set(shipped.get("job"))
        _PHASE.set(tuple((shipped.get("phase") or {}).items()))
        self.enable(sink, shipped.get("interval"))


#: The process-wide beacon. Mutated in place, never replaced.
BEACON = ProgressBeacon()


def _safe_job_filename(job: str) -> Optional[str]:
    if not job or job == "-":
        return None
    if all(c.isalnum() or c in "._-" for c in job):
        return job + ".json"
    return None


class ProgressBook:
    """Per-job ring buffers of progress samples, optionally mirrored
    to ``<directory>/<job>.json`` so detached tools (``repro top`` on
    a spool dir) can watch without talking to the service."""

    def __init__(self, directory: Optional[os.PathLike] = None, *,
                 maxlen: int = 120, write_interval: float = 0.2):
        self.directory = Path(directory) if directory is not None else None
        self.maxlen = maxlen
        self.write_interval = write_interval
        self._rings: dict[str, deque] = {}
        self._last_write: dict[str, float] = {}
        self._lock = threading.Lock()

    def record(self, sample: dict[str, Any]) -> None:
        job = str(sample.get("job") or "-")
        with self._lock:
            ring = self._rings.get(job)
            if ring is None:
                ring = self._rings[job] = deque(maxlen=self.maxlen)
            ring.append(sample)
        METRICS.counter_inc("repro_obs_progress_samples_total")
        self._mirror(job, sample)

    def _mirror(self, job: str, sample: dict[str, Any]) -> None:
        if self.directory is None:
            return
        fname = _safe_job_filename(job)
        if fname is None:
            return
        now = time.monotonic()
        with self._lock:
            last = self._last_write.get(job, 0.0)
            if now - last < self.write_interval:
                return
            self._last_write[job] = now
            recent = list(self._rings.get(job, ()))[-8:]
        doc = {"job": job, "updated": time.time(),
               "latest": sample, "samples": recent}
        path = self.directory / fname
        tmp = path.with_suffix(".json.tmp")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(doc), encoding="utf-8")
            os.replace(tmp, path)
        except OSError:  # best-effort mirror; never fail a solve
            METRICS.counter_inc("repro_persist_io_errors_total",
                                site="progress")

    # ----- reads ------------------------------------------------------------

    def jobs(self) -> list[str]:
        with self._lock:
            return sorted(self._rings)

    def latest(self, job: str) -> Optional[dict[str, Any]]:
        with self._lock:
            ring = self._rings.get(job)
            return ring[-1] if ring else None

    def samples(self, job: str) -> list[dict[str, Any]]:
        with self._lock:
            return list(self._rings.get(job, ()))

    @staticmethod
    def read_dir(directory: os.PathLike) -> dict[str, dict[str, Any]]:
        """Load the latest mirrored sample per job from a progress
        directory (tolerates missing/partial files)."""
        out: dict[str, dict[str, Any]] = {}
        root = Path(directory)
        if not root.is_dir():
            return out
        for path in sorted(root.glob("*.json")):
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            job = str(doc.get("job") or path.stem)
            out[job] = doc
        return out
