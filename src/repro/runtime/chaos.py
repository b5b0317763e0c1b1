"""Seeded fault injection for the solver layer.

The degradation contract — *every back end survives any single solver
call going wrong* — is only trustworthy if tests can make solver calls
go wrong on demand.  :func:`inject_faults` installs a seeded
:class:`ChaosMonkey` on :class:`~repro.smt.solver.SmtSolver`; while
active, each ``check()`` may, with configured probabilities,

* return **UNKNOWN** (with an ``INJECTED`` :class:`ResourceReport`),
* raise :class:`InjectedFault` (a :class:`SolverFault` back ends must
  isolate), or
* sleep for a configured delay first (exercising deadlines).

Every fault point in the tree — solver, cache, journal, lease, server,
router — asks one question, :meth:`ChaosMonkey.fires`, about one
*kind*.  The kinds are the ``<kind>_rate`` fields of
:class:`ChaosConfig` (:data:`KINDS`); the same table drives
``REPRO_CHAOS_*`` parsing (:func:`chaos_from_env`) and the campaign
engine's fault universe, so a new nemesis is one ``ChaosConfig`` field
plus the call site that consults it.

Determinism: the monkey draws from one ``random.Random(seed)`` stream
in call order, and a zero-rate kind draws nothing, so a failing
schedule replays exactly.
"""

from __future__ import annotations

import random
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Iterator, Optional

from ..obs import METRICS
from .budget import SolverFault


class InjectedFault(SolverFault):
    """An exception deliberately injected into a solver call."""


@dataclass
class ChaosConfig:
    """Per-call fault probabilities (each rolled independently).

    Every ``<kind>_rate`` field makes ``<kind>`` a fault kind; the
    other fields are the seed and the payloads some kinds carry.
    """

    seed: int = 0
    unknown_rate: float = 0.0
    fault_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = 0.005
    # Trust/engine hooks: corrupt an LRAT certificate before checking,
    # corrupt a cache entry's on-disk text before writing, or hard-kill
    # a portfolio worker at task receipt (at most worker_max_crashes
    # times per query, so retries can be exercised deterministically).
    proof_corrupt_rate: float = 0.0
    cache_corrupt_rate: float = 0.0
    worker_crash_rate: float = 0.0
    worker_max_crashes: int = 1
    # Durability hooks (repro.persist): raise OSError on a journal,
    # snapshot, checkpoint, cache or exporter write; or report that the
    # process should die between a checkpoint's temp write and its
    # atomic rename (the torn-save window).
    io_error_rate: float = 0.0
    kill_checkpoint_rate: float = 0.0
    # Request-path hooks (repro.serve): stall the server while it reads
    # a request (a slow or wedged client — the read deadline must catch
    # it), or kill the worker backing a request mid-solve (raises
    # InjectedFault inside the request; the circuit breaker must count
    # it, the client must still get a terminal answer).
    slow_client_rate: float = 0.0
    slow_client_seconds: float = 0.05
    request_kill_rate: float = 0.0
    # Cluster hooks (repro.serve.cluster): make the router see a dead
    # connection when forwarding to a replica (it must fail over along
    # the ring), or make the registry see a failed health probe (a
    # flapping replica must be ejected and later re-admitted).
    replica_kill_rate: float = 0.0
    probe_flap_rate: float = 0.0
    # Network partition: once a link (a named router→replica edge)
    # partitions, it stays down for the next ``partition_span``
    # consultations of that same link — count-based persistence keeps
    # the schedule deterministic where a wall-clock window would not be.
    partition_rate: float = 0.0
    partition_span: int = 4
    # Clock-skewed lease heartbeats: an afflicted lease write backdates
    # ``renewed_at`` by ``lease_skew_seconds``, making a *live* owner's
    # heartbeat look stale — split-brain pressure on the takeover path.
    lease_skew_rate: float = 0.0
    lease_skew_seconds: float = 60.0


#: The fault kinds :meth:`ChaosMonkey.fires` rolls dice for, one per
#: ``<kind>_rate`` field.  Scenario-level nemeses (``replica_down``,
#: ``torn_tail``) have no rate: only a scheduled monkey fires them.
KINDS: tuple[str, ...] = tuple(
    f.name[: -len("_rate")] for f in fields(ChaosConfig)
    if f.name.endswith("_rate"))


class ChaosLog(Counter):
    """What the monkey actually did, for test assertions.

    A ``Counter`` of fired faults keyed by kind (``log["io_error"]``),
    plus ``calls`` (solver intercepts) and ``schedule``: every solver
    intercept and fired fault in order, as ``ok``, ``kind`` or
    ``kind:site``.
    """

    #: The per-kind attribute spellings (``log.io_errors``) → kind.
    NAMES = {
        "unknowns": "unknown",
        "faults": "fault",
        "delays": "delay",
        "proofs_corrupted": "proof_corrupt",
        "cache_corrupted": "cache_corrupt",
        "io_errors": "io_error",
        "checkpoint_kills": "kill_checkpoint",
        "slow_clients": "slow_client",
        "request_kills": "request_kill",
        "replica_kills": "replica_kill",
        "probe_flaps": "probe_flap",
        "partitions": "partition",
        "lease_skews": "lease_skew",
    }

    def __init__(self):
        super().__init__()
        self.calls = 0
        self.schedule: list[str] = []

    def __getattr__(self, name: str) -> int:
        try:
            return self[ChaosLog.NAMES[name]]
        except KeyError:
            raise AttributeError(name) from None


class ChaosMonkey:
    """Decides, per consultation, whether a fault of a kind fires."""

    def __init__(self, config: Optional[ChaosConfig] = None, **kwargs):
        self.config = config or ChaosConfig(**kwargs)
        self._rng = random.Random(self.config.seed)
        self.log = ChaosLog()
        #: link → remaining consultations this partition stays down.
        self._partitions: dict[str, int] = {}
        # Serve workers, router forwards and lease heartbeats consult
        # concurrently.
        self._lock = threading.Lock()

    # ----- the one decision primitive ---------------------------------------

    def fires(self, kind: str, site: Optional[str] = None) -> bool:
        """Should a ``kind`` fault fire at this consultation?

        Owns all the bookkeeping: a fired fault is counted in the log,
        appended to ``log.schedule`` (as ``kind:site`` when the caller
        names a site) and to ``repro_chaos_injected_total{kind}``.
        """
        with self._lock:
            if not self._decide(kind):
                return False
            self.log[kind] += 1
            self.log.schedule.append(
                kind if site is None else f"{kind}:{site}")
        if METRICS.enabled:
            METRICS.counter_inc("repro_chaos_injected_total", kind=kind)
        return True

    def _decide(self, kind: str) -> bool:
        """Roll ``kind``'s die (called under the lock).  A zero-rate
        kind draws nothing, which keeps every other kind's draws — and
        so a seeded schedule — stable as kinds are added."""
        rate = getattr(self.config, f"{kind}_rate", 0.0)
        return bool(rate) and self._rng.random() < rate

    # ----- hooks that carry a payload ---------------------------------------

    def intercept(self) -> Optional[str]:
        """Called by ``SmtSolver.check()`` on entry.

        May sleep, may raise :class:`InjectedFault`; returns
        ``"unknown"`` when the call should answer UNKNOWN without
        solving, else None to proceed normally.
        """
        with self._lock:
            self.log.calls += 1
            call = self.log.calls
        if self.fires("delay"):
            time.sleep(self.config.delay_seconds)
        if self.fires("fault"):
            raise InjectedFault(
                f"injected solver fault (call #{call},"
                f" seed {self.config.seed})"
            )
        if self.fires("unknown"):
            return "unknown"
        self.log.schedule.append("ok")
        return None

    def corrupt_proof(self, cert) -> bool:
        """Maybe prepend a bogus step to a :class:`Certificate`.

        The step adds a unit on a fresh variable with no hints, so no
        hint can conflict and the checker must reject it.  Prepended
        (not appended) so it also precedes the refutation: a core
        certificate's final step must stay the negated core.
        """
        if not self.fires("proof_corrupt"):
            return False
        cert.steps.insert(0, ("a", 0, (cert.num_vars + 1,), ()))
        return True

    def corrupt_cache_text(self, text: str) -> str:
        """Maybe truncate a cache entry's serialized form before write."""
        if self.fires("cache_corrupt"):
            return text[: len(text) // 2]
        return text

    def maybe_io_error(self, where: str) -> None:
        """Maybe raise ``OSError`` at a persistence write site.

        Callers (journal appends, snapshot/checkpoint/cache writes,
        telemetry exporters) catch the error and degrade to a counted
        metric — this hook exists to prove they do.
        """
        if self.fires("io_error", where):
            raise OSError(
                f"injected I/O error at {where} (#{self.log['io_error']},"
                f" seed {self.config.seed})"
            )

    def slow_client_delay(self) -> float:
        """Seconds the server should stall reading this request (0 = none).

        Returned, not slept, so the asyncio server can await it — the
        stall must block only the afflicted connection, never the loop.
        """
        if self.fires("slow_client"):
            return self.config.slow_client_seconds
        return 0.0

    def lease_skew(self) -> float:
        """Seconds to backdate this lease write's heartbeat (0 = none).

        Consulted by :class:`~repro.persist.batch.SpoolLease` on
        acquire/renew: a skewed write makes a *live* owner look stale,
        inviting a takeover while the owner still runs — exactly the
        split-brain pressure per-write lease fencing must absorb.
        """
        if self.fires("lease_skew"):
            return self.config.lease_skew_seconds
        return 0.0

    def is_partitioned(self, link: str) -> bool:
        """Roll (or continue) a network partition on a named link.

        A link is an edge the caller names (``"router->r0"``,
        ``"probe->r0"``, ``"adopt->r1"``).  Once a partition starts it
        holds for the next ``partition_span`` consultations of that
        same link — modelling an outage that outlives one retry, which
        is what actually pressures failover and the lease arbiter.
        """
        with self._lock:
            active = self._partitions.get(link, 0)
            if active > 0:
                self._partitions[link] = active - 1
                return True
        if not self.fires("partition", link):
            return False
        with self._lock:
            self._partitions[link] = max(0, self.config.partition_span - 1)
        return True

    def heal_partitions(self) -> None:
        """Forget every active partition span (the nemesis heal step)."""
        with self._lock:
            self._partitions.clear()

    def nemesis(self, kind: str) -> bool:
        """Scenario-level nemesis consultation (``replica_down``,
        ``torn_tail``...).  These kinds have no rate, so only the
        campaign engine's scheduled subclass ever fires them."""
        return self.fires(kind)

    def should_kill_replica(self) -> bool:
        return self.fires("replica_kill")


@contextmanager
def inject_faults(
    config: Optional[ChaosConfig] = None,
    *,
    monkey: Optional[ChaosMonkey] = None,
    **kwargs,
) -> Iterator[ChaosMonkey]:
    """Install a :class:`ChaosMonkey` on every ``SmtSolver`` in scope.

    Usage::

        with inject_faults(seed=7, unknown_rate=0.3) as monkey:
            report = DafnyBackend(prog).verify_monolithic(3)
        assert monkey.log.unknowns >= 1

    A prebuilt ``monkey`` (e.g. the campaign engine's scheduled
    subclass) can be passed instead of a config.
    """
    # Imported lazily: repro.smt.solver imports this package's budget
    # module, so a top-level import here would be circular.
    from ..engine import cache as cache_mod
    from ..obs import export as export_mod
    from ..persist import batch as batch_mod
    from ..persist import checkpoint as ckpt_mod
    from ..persist import journal as journal_mod
    from ..serve import cluster as cluster_mod
    from ..serve import service as serve_mod
    from ..smt import solver as solver_mod

    if monkey is None:
        monkey = ChaosMonkey(config, **kwargs)
    hooks = [
        solver_mod.SmtSolver,
        cache_mod.ResultCache,
        journal_mod.Journal,
        ckpt_mod.CheckpointStore,
        export_mod.TelemetrySnapshot,
        serve_mod.AnalysisService,
        cluster_mod.ClusterService,
        cluster_mod.ReplicaRegistry,
        batch_mod.SpoolLease,
    ]
    previous = [cls._chaos for cls in hooks]
    for cls in hooks:
        cls._chaos = monkey
    try:
        yield monkey
    finally:
        for cls, prev in zip(hooks, previous):
            cls._chaos = prev


#: ``REPRO_CHAOS_<KIND>`` → the :class:`ChaosConfig` rate field it sets.
ENV_RATE_KNOBS: dict[str, str] = {
    kind.upper(): f"{kind}_rate" for kind in KINDS}

#: ``REPRO_CHAOS_<FIELD>`` → every other field (the seed and payloads).
ENV_OTHER_KNOBS: dict[str, str] = {
    f.name.upper(): f.name for f in fields(ChaosConfig)
    if not f.name.endswith("_rate")}

_ENV_FIELDS = {**ENV_RATE_KNOBS, **ENV_OTHER_KNOBS}
_ENV_PREFIX = "REPRO_CHAOS_"
_warned_unknown_env = False


def _warn_unknown_chaos_env(unknown: list[str]) -> None:
    """Warn once per process about unrecognized ``REPRO_CHAOS_*``
    variables, listing the valid knobs (mirrors ``--solver-opt help``:
    a typoed knob must never silently run fault-free)."""
    global _warned_unknown_env
    if _warned_unknown_env:
        return
    _warned_unknown_env = True
    import sys

    valid = sorted(_ENV_PREFIX + k for k in _ENV_FIELDS)
    print(
        f"warning: ignoring unknown chaos variable(s):"
        f" {', '.join(sorted(unknown))}\n"
        f"  valid knobs: {', '.join(valid)}",
        file=sys.stderr,
    )


def chaos_from_env(environ=None):
    """A chaos context built from ``REPRO_CHAOS_*`` (CI smoke harness).

    Every :class:`ChaosConfig` field is settable: each rate in
    :data:`ENV_RATE_KNOBS` (``REPRO_CHAOS_IO_ERROR=0.2``,
    ``REPRO_CHAOS_WORKER_CRASH=1`` …) and each knob in
    :data:`ENV_OTHER_KNOBS` (``REPRO_CHAOS_SEED``,
    ``REPRO_CHAOS_WORKER_MAX_CRASHES``, …); a malformed value keeps the
    field's default.  With every rate unset or zero this is a no-op
    ``nullcontext``.  ``repro analyze``, ``repro batch run`` and
    ``repro serve`` all enter it, so one environment variable puts an
    entire CI leg under injected faults.  An unrecognized
    ``REPRO_CHAOS_*`` variable warns once and lists the valid knobs
    instead of silently running fault-free.
    """
    import os
    from contextlib import nullcontext

    env = os.environ if environ is None else environ

    unknown = [
        name for name in env
        if name.startswith(_ENV_PREFIX)
        and name[len(_ENV_PREFIX):] not in _ENV_FIELDS
    ]
    if unknown:
        _warn_unknown_chaos_env(unknown)

    config = ChaosConfig()
    for suffix, name in _ENV_FIELDS.items():
        try:
            value = type(getattr(config, name))(env[_ENV_PREFIX + suffix])
        except (KeyError, ValueError):
            continue  # unset or malformed: keep the default
        if name.endswith("_rate"):
            value = max(0.0, value)
        setattr(config, name, value)
    if not any(getattr(config, name) for name in ENV_RATE_KNOBS.values()):
        return nullcontext()
    return inject_faults(config)
