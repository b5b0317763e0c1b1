"""Multi-replica topology for ``repro serve``: registry, ring, router.

``repro serve --route host:port,host:port`` runs this module instead of
a solver: a :class:`ClusterService` that looks like an
:class:`~repro.serve.service.AnalysisService` to the HTTP layer but
answers by *routing* — consistent-hashing each content-addressed job id
onto a replica, failing over along the ring when a replica is sick, and
taking over a dead replica's journal so its backlog still finishes.

Three pieces:

* :class:`HashRing` — consistent hashing with virtual nodes.  Job ids
  are already sha256 content hashes, so placement is deterministic:
  the same spec always lands on the same replica while the membership
  holds, keeping that replica's ResultCache and journal warm.  When a
  replica joins or leaves, only ~1/N of the keyspace moves.
* :class:`ReplicaRegistry` — active health probing (``/readyz`` +
  EWMA latency) with the same three-state shape as the request-path
  :class:`~repro.serve.breaker.CircuitBreaker`: consecutive failures
  eject a replica (OPEN), a timed re-admission window lets one probe
  through (HALF_OPEN), and a probe success restores it (CLOSED).
* :class:`ClusterService` — the router.  Forwarding failures walk the
  ring (failover); the replica's journal dedupes the re-routed submit
  because the idempotency key is content-addressed.  When the registry
  *ejects* a replica, the router attempts **journal handoff**: take the
  dead peer's spool lease (:class:`~repro.persist.batch.SpoolLease` —
  refused while the peer's heartbeat is fresh, the split-brain guard),
  adopt verdicts that already exist on surviving replicas (never solve
  the same idempotency key twice), and ``batch resume`` the rest under
  their original trace ids.

Chaos: ``replica_kill`` makes the router treat a forward as a dead
connection; ``probe_flap`` makes the registry see a failed probe.  Both
are installed by :func:`repro.runtime.chaos.inject_faults` via the
class-level ``_chaos`` slots.
"""

from __future__ import annotations

import asyncio
import bisect
import contextvars
import hashlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from .. import obs
from ..client import ServiceClient, ServiceUnavailable
from ..obs import METRICS, TRACER
from ..persist.batch import BatchRunner, LeaseHeld, job_id_for
from .service import AnalysisService

#: Statuses that mean "this replica cannot take the job right now" —
#: the router fails over to the next ring node instead of bouncing the
#: client.  429 is *not* here: per-tenant rate limiting is a property of
#: the tenant, not the replica, so it returns to the caller.
FAILOVER_STATUSES = frozenset({503})


# ---------------------------------------------------------------------------
# consistent hashing


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Each node is hashed onto the ring at ``vnodes`` points; a key maps
    to the first node point at or after its own hash.  With ~64 vnodes
    per node the keyspace split is near-uniform and a membership change
    moves only the arcs owned by the changed node — the ≤1/N stability
    property the satellite test pins down.
    """

    def __init__(self, nodes: Sequence[str] = (), *, vnodes: int = 64):
        self.vnodes = max(1, vnodes)
        self._points: list[tuple[int, str]] = []
        self._keys: list[int] = []
        self._nodes: set[str] = set()
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(value: str) -> int:
        return int.from_bytes(
            hashlib.sha256(value.encode("utf-8")).digest()[:8], "big")

    def add(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        for i in range(self.vnodes):
            point = (self._hash(f"{node}#{i}"), node)
            idx = bisect.bisect(self._points, point)
            self._points.insert(idx, point)
            self._keys.insert(idx, point[0])

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        kept = [p for p in self._points if p[1] != node]
        self._points = kept
        self._keys = [p[0] for p in kept]

    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def primary(self, key: str) -> Optional[str]:
        """The node owning ``key``, or None on an empty ring."""
        pref = self.preference(key)
        return pref[0] if pref else None

    def preference(self, key: str) -> list[str]:
        """Every node, in ring order starting at ``key``'s owner — the
        failover walk order (each node appears once)."""
        if not self._points:
            return []
        start = bisect.bisect(self._keys, self._hash(key))
        seen: list[str] = []
        n = len(self._points)
        for i in range(n):
            node = self._points[(start + i) % n][1]
            if node not in seen:
                seen.append(node)
        return seen


# ---------------------------------------------------------------------------
# replica registry


class ReplicaState(Enum):
    """Mirrors the circuit breaker: CLOSED / HALF_OPEN / OPEN."""

    HEALTHY = "healthy"
    PROBING = "probing"
    EJECTED = "ejected"


@dataclass
class Replica:
    """One backend ``repro serve`` process, as the router sees it."""

    name: str                      # "host:port" — also its ring identity
    host: str
    port: int
    spool: Optional[Path] = None   # its journal dir, for handoff
    state: ReplicaState = ReplicaState.HEALTHY
    consecutive_failures: int = 0
    ejected_at: float = 0.0
    ewma_seconds: Optional[float] = None
    probes: int = 0
    ejections: int = 0
    readmissions: int = 0

    def describe(self) -> dict:
        return {
            "name": self.name,
            "host": self.host,
            "port": self.port,
            "spool": str(self.spool) if self.spool else None,
            "state": self.state.value,
            "consecutive_failures": self.consecutive_failures,
            "ewma_seconds": (round(self.ewma_seconds, 6)
                             if self.ewma_seconds is not None else None),
            "probes": self.probes,
            "ejections": self.ejections,
            "readmissions": self.readmissions,
        }


def parse_replica(spec: str) -> Replica:
    """``HOST:PORT[=SPOOL]`` → :class:`Replica` (ValueError on junk)."""
    addr, _, spool = spec.partition("=")
    host, _, port_text = addr.rpartition(":")
    if not host or not port_text:
        raise ValueError(f"replica spec {spec!r} is not HOST:PORT[=SPOOL]")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"replica spec {spec!r}: bad port {port_text!r}")
    return Replica(
        name=f"{host}:{port}", host=host, port=port,
        spool=Path(spool) if spool else None,
    )


#: EWMA smoothing for probe/forward latency (recent-heavy).
_EWMA_ALPHA = 0.3

#: Gauge encoding, matching the breaker's: 0 healthy → 2 ejected.
_STATE_GAUGE = {
    ReplicaState.HEALTHY: 0,
    ReplicaState.PROBING: 1,
    ReplicaState.EJECTED: 2,
}


class ReplicaRegistry:
    """Health bookkeeping + the active probe loop over a replica set.

    State machine per replica (names track the breaker deliberately)::

        HEALTHY ──(failure_threshold consecutive failures)──▶ EJECTED
        EJECTED ──(readmit_seconds elapse)──▶ PROBING
        PROBING ──probe ok──▶ HEALTHY        PROBING ──probe fails──▶ EJECTED

    Both active probes and the router's forward results feed the same
    counters (:meth:`note_success` / :meth:`note_failure`), so a replica
    that dies mid-burst is ejected by the traffic itself, before the
    next probe tick.  ``on_eject`` fires once per ejection — the hook
    the router hangs journal handoff on.
    """

    #: Chaos-injection slot (see repro.runtime.chaos.inject_faults).
    _chaos = None

    def __init__(
        self,
        replicas: Sequence[Replica],
        *,
        failure_threshold: int = 3,
        readmit_seconds: float = 5.0,
        probe_interval: float = 1.0,
        probe_timeout: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
        probe_fn: Optional[Callable[[Replica], float]] = None,
        on_eject: Optional[Callable[[Replica], None]] = None,
    ):
        self.replicas = {r.name: r for r in replicas}
        self.ring = HashRing(self.replicas)
        self.failure_threshold = max(1, failure_threshold)
        self.readmit_seconds = readmit_seconds
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.on_eject = on_eject
        self._clock = clock
        self._probe_fn = probe_fn or self._probe_http
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ----- the probe loop ---------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._probe_loop, name="repro-cluster-probe", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _probe_loop(self) -> None:
        while not self._stop.wait(self.probe_interval):
            self.probe_all()

    def probe_all(self) -> None:
        for replica in list(self.replicas.values()):
            if self._stop.is_set():
                return
            self.probe(replica)

    def probe(self, replica: Replica) -> bool:
        """One active health probe; feeds the same state machine as
        forward results.  EJECTED replicas are probed only once their
        re-admission window has opened (the HALF_OPEN analogue)."""
        with self._lock:
            self._maybe_probing(replica)
            if replica.state is ReplicaState.EJECTED:
                return False
            replica.probes += 1
        chaos = self._chaos
        flapped = chaos is not None and (
            chaos.fires("probe_flap")
            or chaos.is_partitioned(f"router->{replica.name}"))
        try:
            if flapped:
                raise ConnectionError("injected probe flap")
            latency = self._probe_fn(replica)
        except Exception:
            self.note_failure(replica)
            return False
        self.note_success(replica, latency)
        return True

    def _probe_http(self, replica: Replica) -> float:
        client = ServiceClient(
            replica.host, replica.port, timeout=self.probe_timeout)
        started = self._clock()
        doc = client.ready()
        if doc.get("status") != 200:
            raise ConnectionError(
                f"{replica.name} /readyz answered {doc.get('status')}")
        latency = self._clock() - started
        if METRICS.enabled:
            METRICS.observe("repro_cluster_probe_seconds", latency)
        return latency

    # ----- outcome accounting (probes AND forwards) -------------------------

    def note_success(self, replica: Replica, latency: float = 0.0) -> None:
        with self._lock:
            replica.consecutive_failures = 0
            if latency > 0.0:
                prev = replica.ewma_seconds
                replica.ewma_seconds = (
                    latency if prev is None
                    else _EWMA_ALPHA * latency + (1 - _EWMA_ALPHA) * prev)
            if replica.state is not ReplicaState.HEALTHY:
                replica.readmissions += 1
                if METRICS.enabled:
                    METRICS.counter_inc(
                        "repro_cluster_readmissions_total",
                        replica=replica.name)
                self._set_state(replica, ReplicaState.HEALTHY)

    def note_failure(self, replica: Replica) -> None:
        ejected = None
        with self._lock:
            replica.consecutive_failures += 1
            if replica.state is ReplicaState.PROBING:
                # A failed re-admission probe re-opens the window.
                ejected = self._eject(replica)
            elif (replica.state is ReplicaState.HEALTHY
                    and replica.consecutive_failures
                    >= self.failure_threshold):
                ejected = self._eject(replica)
        if ejected is not None and self.on_eject is not None:
            self.on_eject(ejected)

    def _eject(self, replica: Replica) -> Replica:
        replica.ejections += 1
        replica.ejected_at = self._clock()
        self._set_state(replica, ReplicaState.EJECTED)
        if METRICS.enabled:
            METRICS.counter_inc(
                "repro_cluster_ejections_total", replica=replica.name)
        return replica

    def _maybe_probing(self, replica: Replica) -> None:
        if (replica.state is ReplicaState.EJECTED
                and self._clock() - replica.ejected_at
                >= self.readmit_seconds):
            self._set_state(replica, ReplicaState.PROBING)

    def _set_state(self, replica: Replica, state: ReplicaState) -> None:
        replica.state = state
        if METRICS.enabled:
            METRICS.gauge_set(
                "repro_cluster_replica_state", _STATE_GAUGE[state],
                replica=replica.name)

    # ----- routing views ----------------------------------------------------

    def candidates(self, key: str) -> list[Replica]:
        """Replicas to try for ``key``: the ring's preference order,
        routable (non-EJECTED, with stale ejections re-opened) first."""
        with self._lock:
            for replica in self.replicas.values():
                self._maybe_probing(replica)
            ordered = [self.replicas[n] for n in self.ring.preference(key)
                       if n in self.replicas]
            routable = [r for r in ordered
                        if r.state is not ReplicaState.EJECTED]
            ejected = [r for r in ordered
                       if r.state is ReplicaState.EJECTED]
        return routable + ejected

    def healthy(self) -> list[Replica]:
        with self._lock:
            for replica in self.replicas.values():
                self._maybe_probing(replica)
            return [r for r in self.replicas.values()
                    if r.state is not ReplicaState.EJECTED]

    def describe(self) -> list[dict]:
        with self._lock:
            return [r.describe() for r in self.replicas.values()]


# ---------------------------------------------------------------------------
# the router


@dataclass
class RouterConfig:
    """Router knobs (CLI flags map 1:1).  Field names the HTTP layer
    reads (host/port/read_timeout/max_body_bytes) match ServeConfig."""

    host: str = "127.0.0.1"
    port: int = 8650
    name: str = "router"
    # Registry.
    failure_threshold: int = 3
    readmit_seconds: float = 5.0
    probe_interval: float = 1.0
    probe_timeout: float = 2.0
    # Forwarding.
    forward_timeout: float = 60.0
    route_deadline: float = 90.0   # total wall budget across failovers
    # Journal handoff.
    handoff: bool = True
    lease_ttl: float = 10.0
    workers: int = 4
    # HTTP hygiene (read by ReproServer).
    read_timeout: float = 5.0
    max_body_bytes: int = 1 << 20


class ClusterService:
    """The shard router: duck-types :class:`AnalysisService` for the
    HTTP layer, answers by forwarding along the consistent-hash ring.

    Read-path methods (``job_status`` …) are async and proxy to the
    replicas in ring-preference order off the event loop; the write
    path (``analyze``) walks the ring with failover under one total
    ``route_deadline``.  Every hop reuses the caller's traceparent, so
    the route → replica → solve spans stitch into one trace.
    """

    #: Chaos-injection slot (see repro.runtime.chaos.inject_faults).
    _chaos = None

    #: The single-flight handoff claim: at most one takeover per spool,
    #: ever, even across racing eject cycles.  Exists as a knob ONLY so
    #: the chaos regression test can disable it and demonstrate the
    #: duplicate-solve violation the claim prevents — never disable it
    #: in production.
    single_flight_handoff = True

    #: Read-path fallback rows kept per handed-off job.  A long-lived
    #: router sees many replica deaths; without a cap the records dict
    #: is a slow leak.  Oldest rows are evicted first — by then the
    #: restarted replica has reclaimed its spool and answers reads.
    _HANDOFF_RECORDS_MAX = 4096

    def __init__(
        self,
        config: RouterConfig,
        replicas: Sequence[Replica],
        *,
        registry: Optional[ReplicaRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.config = config
        self.name = config.name
        self._clock = clock
        self._sleep = sleep
        self.registry = registry or ReplicaRegistry(
            replicas,
            failure_threshold=config.failure_threshold,
            readmit_seconds=config.readmit_seconds,
            probe_interval=config.probe_interval,
            probe_timeout=config.probe_timeout,
            clock=clock,
        )
        self.registry.on_eject = self._on_eject
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, config.workers),
            thread_name_prefix="repro-route",
        )
        self.draining = False
        self.started_at = clock()
        self._counters_lock = threading.Lock()
        self.counters = {
            "requests": 0, "routed": 0, "failovers": 0,
            "no_replica": 0, "handoffs": 0, "handoff_jobs_adopted": 0,
            "handoff_jobs_resolved": 0, "handoff_refused": 0,
        }
        self._handoff_threads: list[threading.Thread] = []
        self._handoff_lock = threading.Lock()
        #: Spools already handed off (don't take over twice per death).
        self._handoff_done: set[str] = set()
        #: Spools with a handoff *in flight* right now.  The eject →
        #: readmit → failed-probe cycle re-fires on_eject while a slow
        #: handoff (peer waits + local solves) is still running; without
        #: this guard a second takeover of the same spool would succeed
        #: (the lease owner is already us) and two BatchRunners would
        #: solve the same journal concurrently.
        self._handoff_active: set[str] = set()
        #: job_id → final row for jobs we finished during handoff: the
        #: dead replica can no longer answer /v1/jobs/<id> for them, so
        #: the router serves these as a read-path fallback.  Bounded by
        #: ``_HANDOFF_RECORDS_MAX`` (oldest rows evicted first).
        self._handoff_records: dict[str, dict] = {}
        obs.enable()
        TRACER.max_records = 20_000

    def _count(self, key: str, n: int = 1) -> None:
        with self._counters_lock:
            self.counters[key] += n

    def _remember_handoff_rows(self, rows: Sequence[dict]) -> None:
        """Retain final rows for the read path, LRU-capped.  Caller
        holds ``_handoff_lock``."""
        for row in rows:
            # Re-insert so refreshed rows move to the young end.
            self._handoff_records.pop(row["job_id"], None)
            self._handoff_records[row["job_id"]] = dict(row)
        while len(self._handoff_records) > self._HANDOFF_RECORDS_MAX:
            self._handoff_records.pop(
                next(iter(self._handoff_records)))

    # ----- lifecycle --------------------------------------------------------

    def start(self) -> None:
        self.registry.start()

    def drain(self) -> dict:
        self.draining = True
        self.registry.stop()
        for thread in list(self._handoff_threads):
            thread.join(timeout=30.0)
        self._pool.shutdown(wait=True)
        with self._counters_lock:
            counters = dict(self.counters)
        return {
            "drained": True,
            "router": self.name,
            "replicas": self.registry.describe(),
            "counters": counters,
        }

    def close(self) -> None:
        if not self.draining:
            self.drain()

    # ----- the write path ---------------------------------------------------

    async def analyze(self, payload: Any, tenant: str = "default",
                      traceparent: Optional[str] = None) -> tuple[int, dict]:
        """Route one analysis request; returns ``(status, body)``.

        The contract matches the replica's: every path out is terminal
        (a verdict, a reject with ``retry_after``, or a 400).  The
        routed request keeps the caller's traceparent, so the replica's
        ``serve-request`` span parents under our ``route-request``.
        """
        with TRACER.activate(traceparent), \
                TRACER.span("route-request", tenant=tenant) as span:
            ctx = contextvars.copy_context()
            loop = asyncio.get_running_loop()
            try:
                status, body = await loop.run_in_executor(
                    self._pool, ctx.run, self._forward, payload, tenant)
            except RuntimeError as exc:
                # Only the pool's shutdown refusal means "draining"; any
                # other RuntimeError is a bug and must surface as one.
                if not (self.draining
                        or "after shutdown" in str(exc)):
                    raise
                status, body = 503, {
                    "error": "draining", "retry_after": 5.0}
            if isinstance(body, dict):
                trace_id = TRACER.current_trace_id()
                if trace_id:
                    body.setdefault("trace_id", trace_id)
            span.set("status", status)
            return status, body

    def _forward(self, payload: Any, tenant: str) -> tuple[int, dict]:
        self._count("requests")
        if METRICS.enabled:
            METRICS.counter_inc("repro_cluster_requests_total")
        try:
            spec = AnalysisService._validate(payload)
        except ValueError as exc:
            return 400, {"error": str(exc)}
        priority = payload.get("priority") if isinstance(payload, dict) \
            else None
        job_id = job_id_for(spec)
        candidates = self.registry.candidates(job_id)
        if not candidates:
            self._count("no_replica")
            return 503, {"error": "no replicas configured",
                         "retry_after": 5.0}

        deadline = self._clock() + self.config.route_deadline
        failovers = 0
        last_doc: Optional[dict] = None
        for replica in candidates:
            if self._clock() >= deadline:
                break
            status, doc = self._forward_once(
                replica, spec, tenant, priority, deadline)
            if status is None:
                failovers += 1
                self._count("failovers")
                if METRICS.enabled:
                    METRICS.counter_inc("repro_cluster_failovers_total",
                                        replica=replica.name)
                last_doc = doc
                continue
            if status in FAILOVER_STATUSES:
                # The replica is up but cannot take the job (draining,
                # not ready): same failover walk, but the probe loop —
                # not us — decides its health.
                failovers += 1
                self._count("failovers")
                last_doc = doc
                continue
            self._count("routed")
            doc["replica"] = replica.name
            if failovers:
                doc["failovers"] = failovers
            return status, doc
        self._count("no_replica")
        body = {
            "error": "no replica could take the job",
            "job_id": job_id,
            "failovers": failovers,
            "retry_after": max(1.0, self.config.readmit_seconds),
        }
        if last_doc is not None and "reason" in last_doc:
            body["reason"] = last_doc["reason"]
        return 503, body

    def _forward_once(
        self, replica: Replica, spec: dict, tenant: str,
        priority: Optional[int], deadline: float,
    ) -> tuple[Optional[int], dict]:
        """One forward attempt.  ``(None, doc)`` means transport-level
        failure (dead replica): the caller fails over."""
        chaos = self._chaos
        if chaos is not None and chaos.fires("replica_kill"):
            self.registry.note_failure(replica)
            return None, {"error": f"injected replica kill {replica.name}"}
        if chaos is not None and chaos.is_partitioned(
                f"router->{replica.name}"):
            # A partitioned link looks exactly like a dead replica to
            # the router: the connection attempt never completes.
            self.registry.note_failure(replica)
            return None, {"error": f"injected partition"
                                   f" router->{replica.name}"}
        timeout = min(self.config.forward_timeout,
                      max(0.1, deadline - self._clock()))
        client = ServiceClient(
            replica.host, replica.port, tenant=tenant, timeout=timeout)
        started = self._clock()
        try:
            doc = client.analyze(
                spec["source"], backend=spec["backend"],
                steps=spec["steps"], consts=spec["consts"] or None,
                prove=spec["prove"], options=spec["options"] or None,
                label=spec["label"], priority=priority, retry=False,
            )
        except ServiceUnavailable as exc:
            self.registry.note_failure(replica)
            return None, {"error": str(exc)}
        status = doc.pop("status", 200)
        if status in FAILOVER_STATUSES:
            # Up, but not taking work — not a liveness failure.
            return status, doc
        self.registry.note_success(replica, self._clock() - started)
        return status, doc

    # ----- journal handoff --------------------------------------------------

    def _on_eject(self, replica: Replica) -> None:
        """Registry callback: a replica was declared dead.  Handoff runs
        on its own thread — ejection happens on probe/forward paths that
        must not block on a batch resume."""
        if not self.config.handoff or replica.spool is None:
            return
        if self.draining:
            return
        with self._handoff_lock:
            # Cheap pre-check so repeated eject cycles don't pile up
            # no-op threads; handoff() re-checks atomically.
            if (replica.name in self._handoff_done
                    or replica.name in self._handoff_active):
                return
        thread = threading.Thread(
            target=self._handoff_guarded, args=(replica,),
            name=f"repro-handoff-{replica.name}", daemon=True)
        with self._handoff_lock:
            self._handoff_threads.append(thread)
        thread.start()

    def _handoff_guarded(self, replica: Replica) -> None:
        try:
            self.handoff(replica)
        except Exception:
            # A failed handoff must never take the router down; the
            # spool is still on disk for a manual `repro batch resume`.
            if METRICS.enabled:
                METRICS.counter_inc("repro_cluster_handoff_errors_total")
        finally:
            with self._handoff_lock:
                try:
                    self._handoff_threads.remove(threading.current_thread())
                except ValueError:
                    pass

    def handoff(self, replica: Replica) -> Optional[dict]:
        """Finish a dead replica's backlog from its journal.

        1. Take the spool lease — :class:`LeaseHeld` (fresh heartbeat)
           aborts: the replica is slow, not dead, and must keep sole
           ownership of its journal.
        2. For every non-terminal job, ask the surviving replicas for a
           journaled verdict first (the job may have failed over and
           been solved there already) and **adopt** it — at-least-once
           execution, at-most-once *solving* per idempotency key.
        3. ``run(resume=True)`` the remainder here; each job re-adopts
           the traceparent journaled at submission, so the recovery
           spans join the original request's trace.
        """
        spool = replica.spool
        if spool is None:
            return None
        with self._handoff_lock:
            # Atomic claim: one handoff per spool, ever.  A concurrent
            # eject cycle must not start a second takeover while this
            # one is mid-flight (see _handoff_active above); a finished
            # one must not repeat (_handoff_done).  The claim is
            # released in the finally so a *refused or failed* handoff
            # can retry on the next eject cycle.
            if self.single_flight_handoff and (
                    replica.name in self._handoff_done
                    or replica.name in self._handoff_active):
                return None
            self._handoff_active.add(replica.name)
        try:
            return self._handoff_claimed(replica, spool)
        finally:
            with self._handoff_lock:
                self._handoff_active.discard(replica.name)

    def _handoff_claimed(self, replica: Replica,
                         spool: Path) -> Optional[dict]:
        with TRACER.span("cluster-handoff", replica=replica.name) as span:
            runner = BatchRunner(
                spool, owner=self.name, lease_ttl=self.config.lease_ttl)
            try:
                runner.lease.takeover(self.name)
            except LeaseHeld:
                self._count("handoff_refused")
                if METRICS.enabled:
                    METRICS.counter_inc(
                        "repro_cluster_handoff_refused_total",
                        replica=replica.name)
                span.set("refused", True)
                runner.close()
                return None
            self._count("handoffs")
            if METRICS.enabled:
                METRICS.counter_inc("repro_cluster_handoffs_total",
                                    replica=replica.name)
            adopted = self._adopt_from_peers(runner, replica)
            has_journal = ((spool / BatchRunner.JOURNAL).exists()
                           or (spool / BatchRunner.SNAPSHOT).exists())
            report = runner.run(resume=has_journal)
            rows = runner.status().to_json().get("jobs", ())
            runner.close()
            # Hand the spool back: releasing the takeover lease lets a
            # restarted (or fenced-but-alive) replica reacquire its own
            # spool with a plain acquire instead of staying locked out
            # until the router's lease goes stale.
            runner.lease.release()
            with self._handoff_lock:
                self._handoff_done.add(replica.name)
                # The dead replica can no longer answer reads for these
                # jobs; keep the final rows so /v1/jobs stays truthful.
                self._remember_handoff_rows(rows)
            resolved = report.executed
            self._count("handoff_jobs_adopted", adopted)
            self._count("handoff_jobs_resolved", resolved)
            if METRICS.enabled:
                METRICS.counter_inc("repro_cluster_handoff_jobs_total",
                                    mode="adopted", n=adopted)
                METRICS.counter_inc("repro_cluster_handoff_jobs_total",
                                    mode="resolved", n=resolved)
            span.set("adopted", adopted)
            span.set("resolved", resolved)
            return {"replica": replica.name, "adopted": adopted,
                    "resolved": resolved,
                    "counts": report.by_state()}

    def _adopt_from_peers(self, runner: BatchRunner,
                          dead: Replica) -> int:
        """Copy verdicts that already exist on surviving replicas into
        the dead spool's journal (the no-duplicate-solve half).

        A job a survivor merely *knows* (failed over mid-burst, still
        pending or running there) is in flight elsewhere: solving it
        here too would duplicate the solve, so the handoff waits for
        the peer's verdict — bounded by ``forward_timeout``, after
        which the job falls back to local resolution (at-least-once
        beats never)."""
        jobs, order = runner.load()
        pending = [jobs[j] for j in order
                   if jobs[j].state not in ("done", "deadletter")]
        if not pending:
            return 0
        survivors = [r for r in self.registry.healthy()
                     if r.name != dead.name]
        adopted = 0
        #: job_id -> (rec, peer): in flight on a survivor, await it.
        waiting: dict[str, tuple] = {}
        for rec in pending:
            # Scan every survivor: a 'done' verdict anywhere wins over a
            # merely-pending copy on an earlier peer (a job can be
            # journaled on several replicas after failover, and only
            # one of them has finished it).
            in_flight = None
            done_doc = None
            for peer in survivors:
                doc = self._peer_job(peer, rec.job_id)
                if doc is None or doc.get("status") != 200:
                    continue
                if doc.get("state") == "done" and doc.get("verdict"):
                    done_doc = (peer, doc)
                    break
                if in_flight is None:
                    in_flight = peer
            if done_doc is not None:
                peer, doc = done_doc
                runner.adopt_verdict(
                    rec, doc["verdict"], doc.get("exit_code"),
                    source=peer.name)
                adopted += 1
            elif in_flight is not None:
                waiting[rec.job_id] = (rec, in_flight)
        deadline = self._clock() + self.config.forward_timeout
        while waiting and self._clock() < deadline and not self.draining:
            self._sleep(0.2)
            for job_id, (rec, peer) in list(waiting.items()):
                doc = self._peer_job(peer, job_id)
                if doc is None or doc.get("status") == 404:
                    # The peer lost it after all: resolve locally.
                    del waiting[job_id]
                elif doc.get("state") == "done" and doc.get("verdict"):
                    runner.adopt_verdict(
                        rec, doc["verdict"], doc.get("exit_code"),
                        source=peer.name)
                    adopted += 1
                    del waiting[job_id]
        return adopted

    def _peer_job(self, peer: Replica, job_id: str) -> Optional[dict]:
        chaos = self._chaos
        if chaos is not None and chaos.is_partitioned(
                f"router->{peer.name}"):
            return None
        client = ServiceClient(
            peer.host, peer.port, timeout=self.config.probe_timeout)
        try:
            return client.job(job_id)
        except ServiceUnavailable:
            return None

    # ----- the read path (proxied) ------------------------------------------

    async def job_status(self, job_id: str) -> tuple[int, dict]:
        status, doc = await self._proxy_get(job_id, f"/v1/jobs/{job_id}")
        if status != 200:
            with self._handoff_lock:
                row = self._handoff_records.get(job_id)
            if row is not None:
                return 200, dict(row, replica=self.name, handoff=True)
        return status, doc

    async def job_trace(self, job_id: str) -> tuple[int, dict]:
        return await self._proxy_get(job_id, f"/v1/jobs/{job_id}/trace")

    async def job_progress(self, job_id: str) -> tuple[int, dict]:
        return await self._proxy_get(job_id, f"/v1/jobs/{job_id}/progress")

    async def _proxy_get(self, key: str, path: str) -> tuple[int, dict]:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._pool, self._proxy_get_sync, key, path)

    def _proxy_get_sync(self, key: str, path: str) -> tuple[int, dict]:
        """Try replicas in ring-preference order; first non-404 wins —
        after a handoff the answer may live on a different replica than
        the ring says, so 404s keep walking."""
        last: Optional[dict] = None
        for replica in self.registry.candidates(key):
            client = ServiceClient(
                replica.host, replica.port,
                timeout=self.config.probe_timeout)
            try:
                doc = client.request("GET", path, retry=False)
            except ServiceUnavailable:
                continue
            status = doc.pop("status", 200)
            if status == 404:
                last = doc
                continue
            doc["replica"] = replica.name
            return status, doc
        if last is not None:
            return 404, last
        return 503, {"error": "no replica reachable", "retry_after": 5.0}

    async def jobs_index(self) -> tuple[int, dict]:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, self._jobs_index_sync)

    def _jobs_index_sync(self) -> tuple[int, dict]:
        """Merged job table across every reachable replica."""
        rows: dict[str, dict] = {}
        reached = 0
        for replica in self.registry.healthy():
            client = ServiceClient(
                replica.host, replica.port,
                timeout=self.config.probe_timeout)
            try:
                doc = client.jobs()
            except ServiceUnavailable:
                continue
            if doc.get("status") != 200:
                continue
            reached += 1
            for row in doc.get("jobs", ()):
                row = dict(row)
                row["replica"] = replica.name
                # A done row wins over any other replica's view of the
                # same job (failover can journal one job twice).
                prev = rows.get(row["job_id"])
                if prev is None or (row.get("state") == "done"
                                    and prev.get("state") != "done"):
                    rows[row["job_id"]] = row
        with self._handoff_lock:
            handed = [dict(r) for r in self._handoff_records.values()]
        for row in handed:
            row["replica"] = self.name
            row["handoff"] = True
            prev = rows.get(row["job_id"])
            if prev is None or (row.get("state") == "done"
                                and prev.get("state") != "done"):
                rows[row["job_id"]] = row
        counts: dict[str, int] = {}
        for row in rows.values():
            counts[row.get("state", "?")] = \
                counts.get(row.get("state", "?"), 0) + 1
        return 200, {
            "router": self.name,
            "replicas_reachable": reached,
            "counts": counts,
            "jobs": sorted(rows.values(), key=lambda r: r["job_id"]),
        }

    # ----- control plane ----------------------------------------------------

    def cluster_info(self) -> tuple[int, dict]:
        """`GET /v1/cluster`: topology, health, and handoff counters."""
        with self._counters_lock:
            counters = dict(self.counters)
        return 200, {
            "router": self.name,
            "ring": {
                "nodes": self.registry.ring.nodes(),
                "vnodes": self.registry.ring.vnodes,
            },
            "replicas": self.registry.describe(),
            "counters": counters,
        }

    def health(self) -> tuple[int, dict]:
        with self._counters_lock:
            counters = dict(self.counters)
        healthy = len(self.registry.healthy())
        return 200, {
            "state": "draining" if self.draining else "ok",
            "router": self.name,
            "uptime_seconds": round(self._clock() - self.started_at, 3),
            "replicas": len(self.registry.replicas),
            "replicas_healthy": healthy,
            "counters": counters,
        }

    def ready(self) -> tuple[int, dict]:
        """Ready iff at least one replica is routable."""
        healthy = len(self.registry.healthy())
        ok = healthy > 0 and not self.draining
        body = {
            "ready": ok,
            "router": self.name,
            "replicas_healthy": healthy,
            "draining": self.draining,
        }
        if not ok:
            body["retry_after"] = max(1.0, self.config.readmit_seconds)
        return (200 if ok else 503), body

    def metrics_text(self) -> str:
        return obs.capture().to_prometheus()
