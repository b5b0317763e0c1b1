"""Campaign scenarios: the workloads chaos episodes replay.

A scenario is a deterministic script over real subsystems — a real
:class:`~repro.persist.batch.BatchRunner`, real
:class:`~repro.serve.service.AnalysisService` replicas behind real
HTTP listeners, a real :class:`~repro.serve.cluster.ClusterService`
router — driven end-to-end inside one process so the campaign can
enumerate its chaos consultations and re-run it hundreds of times.

Three ship with the engine:

``batch``
    One spool, four jobs, the real solver (tiny two-step programs).
    Covers the solver hooks (unknown/fault/delay), journal/cache I/O
    errors, cache corruption, and the cross-process worker-crash knob.
``serve``
    One replica over HTTP.  Adds admission, the request path
    (request_kill, slow_client), and the lease heartbeat (lease_skew).
``cluster``
    Two replicas plus the shard router.  Adds forwarding faults
    (replica_kill, partition), probe flaps, and the scenario-level
    nemeses: ``replica_down`` (an in-process hard kill that models
    SIGKILL: fence the journal, cancel in-flight work, stop the
    listener, *keep the lease*) and ``torn_tail`` (truncate the dead
    spool's final journal record mid-byte, the crash-during-append
    window).

Scenarios must be **replayable**: same monkey decisions → same
workload.  They therefore never branch on wall-clock time or live
randomness — only on the monkey's scheduled answers.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..obs.tracer import make_traceparent, parse_traceparent

#: The provable two-step program every scenario solves (variants add a
#: comment so each job gets its own idempotency key).
SRC = """
prog(in buffer ib, out buffer ob){
  move-p(ib, ob, 1);
  assert(backlog-p(ob) >= 0);
}
"""

DEFINITIVE = ("proved", "violated")


def variant(i: int) -> str:
    return SRC + f"// chaos variant {i}\n"


def stub_solve(rec, budget, escalation):
    """Replica solve stub: instant, deterministic, PROVED — matches
    what the real engine proves for :data:`SRC`, so verdicts agree
    with the router's real-solve handoff path and the batch oracle."""
    from ..analysis.result import AnalysisOutcome, Verdict

    return AnalysisOutcome(verdict=Verdict.PROVED)


@dataclass
class ScenarioOutcome:
    """What one scenario run observed, for the auditor."""

    #: Spool name → directory (journal + owner.json + snapshot).
    spools: dict[str, Path]
    #: job_id → {verdict, trace_id, status, note} as the *client* saw it.
    answers: dict[str, dict] = field(default_factory=dict)
    #: Spool name → names of processes that, at scenario end, believe
    #: they hold that spool's lease (fenced runners don't count).
    live_claims: dict[str, list[str]] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def verdicts(self) -> dict[str, str]:
        """Definitive client-observed verdicts only (a degraded
        ``unknown`` is an answer, not a claim the auditor can hold
        against the oracle)."""
        return {
            job_id: answer["verdict"]
            for job_id, answer in self.answers.items()
            if answer.get("verdict") in DEFINITIVE
        }


class Scenario:
    """Base contract; see the module docstring."""

    name = "base"

    def extra_points(self):
        """Fault points the record run cannot observe (env-driven or
        conditional nemeses), added to the universe explicitly."""
        return []

    def seed_schedules(self):
        """Schedules guaranteed a slot right after the singles —
        correlated cases the random pair sampler must not miss."""
        return []

    def run(self, monkey, workdir: Path) -> ScenarioOutcome:
        raise NotImplementedError


# ----- batch ----------------------------------------------------------------


class BatchScenario(Scenario):
    """Four real solves through one journaled spool."""

    name = "batch"
    JOBS = 4

    def extra_points(self):
        # Worker crashes are decided *inside the worker pool* (they
        # must survive fork/spawn), so the record run never consults
        # them in-process.
        return [("worker_crash", 0)]

    def run(self, monkey, workdir: Path) -> ScenarioOutcome:
        from ..persist.batch import BatchRunner

        spool = workdir / "spool"
        crash = hasattr(monkey, "has_kind") and monkey.has_kind(
            "worker_crash")
        if crash:
            # Reaches the pool as the solver's ``chaos=`` tuple.
            monkey.config.worker_crash_rate = 1.0
        runner = BatchRunner(spool, max_attempts=3, backoff_base=0.01,
                             backoff_cap=0.05)
        try:
            runner.submit(
                [(f"job{i}", variant(i)) for i in range(self.JOBS)],
                steps=2)
            report = runner.run(jobs=2 if crash else None)
        finally:
            runner.close()
        answers = {
            rec.job_id: {
                "verdict": rec.verdict, "trace_id": rec.trace_id,
                "status": rec.state, "note": rec.error,
            }
            for rec in report.records
        }
        return ScenarioOutcome(spools={"spool": spool}, answers=answers)


# ----- serve ----------------------------------------------------------------


class ServeScenario(Scenario):
    """Six requests against one replica over real HTTP."""

    name = "serve"
    JOBS = 6

    def run(self, monkey, workdir: Path) -> ScenarioOutcome:
        from ..client import ServiceClient, ServiceUnavailable
        from ..serve import AnalysisService, ReproServer, ServeConfig

        cfg = ServeConfig(port=0, spool_dir=workdir / "r0", workers=2,
                          queue_limit=16, lease_ttl=0.4, name="r0")
        service = AnalysisService(cfg, solve_fn=stub_solve)
        server = ReproServer(service)
        server.start_background()
        answers: dict[str, dict] = {}
        failures: list[str] = []
        try:
            client = ServiceClient(
                "127.0.0.1", server.port, timeout=5.0, max_retries=3,
                backoff_base=0.01, backoff_cap=0.05)
            for i in range(self.JOBS):
                try:
                    doc = client.analyze(
                        variant(i), steps=2, label=f"job{i}")
                except ServiceUnavailable as exc:
                    failures.append(f"job{i}: {exc}")
                    continue
                parsed = parse_traceparent(client.last_traceparent)
                answers[doc["job_id"]] = {
                    "verdict": doc.get("verdict"),
                    "trace_id": parsed[0] if parsed else None,
                    "status": 200, "note": doc.get("note"),
                }
            claims = _lease_claims({"r0": service})
        finally:
            server.stop_background(drain=True)
            service.close()
        return ScenarioOutcome(
            spools={"r0": workdir / "r0"}, answers=answers,
            live_claims=claims, notes={"failures": failures})


# ----- cluster --------------------------------------------------------------


def hard_kill(service, server) -> None:
    """In-process SIGKILL model for one replica.

    Mirrors what an abrupt process death leaves behind: the journal
    stops moving (fence), in-flight solves die (cancel + drain note →
    503, so the router fails the requests over), the listener closes —
    and the spool lease is **not** released, so a takeover must wait
    out the heartbeat TTL exactly as with a real corpse.
    """
    service.runner.fenced = True
    service.draining = True
    service.admission.draining = True
    with service._inflight_lock:
        for budget in service._inflight.values():
            budget.cancel()
    service._lease_stop.set()
    server.stop_background(drain=False, timeout=5.0)
    service._pool.shutdown(wait=False)


def _lease_claims(services: dict) -> dict[str, list[str]]:
    """Who believes they own each live service's spool right now."""
    claims: dict[str, list[str]] = {}
    for spool_name, service in services.items():
        holders = []
        if (not service.runner.fenced
                and service.runner.lease.holder() == service.name):
            holders.append(service.name)
        claims[spool_name] = holders
    return claims


class ClusterScenario(Scenario):
    """Two replicas behind the shard router, with nemeses.

    Script (consultation order is fixed; what *fires* is scheduled)::

        warm: jobs 0-2 sequentially through the router
        nemesis point: replica_down #0  (hard-kill r0)
        probe sweep 1
        burst: jobs 3-7 from three client threads
        nemesis point: replica_down #1  (hard-kill r0 if still up)
        nemesis point: torn_tail #0     (tear dead spool's last record)
        probe sweep 2
        recovery: wait out the dead lease, router takes the spool over
        skew sweep: hand off any live spool whose lease *looks* stale
                    (what a skewed heartbeat invites — fencing must hold)
        final claims snapshot → auditor
    """

    name = "cluster"
    WARM = 3
    BURST = 5

    def extra_points(self):
        # torn_tail is only *applied* when a replica died first, so the
        # fault-free record run never counts it.
        return [("torn_tail", 0)]

    def seed_schedules(self):
        # The correlated case this campaign exists for: crash + torn
        # journal tail during the handoff window.
        return [[("replica_down", 0), ("torn_tail", 0)],
                [("replica_down", 1), ("torn_tail", 0)]]

    def run(self, monkey, workdir: Path) -> ScenarioOutcome:
        from ..persist.batch import SpoolLease
        from ..persist.journal import tear_tail
        from ..serve import AnalysisService, ReproServer, ServeConfig
        from ..serve.cluster import ClusterService, Replica, RouterConfig

        services: dict[str, AnalysisService] = {}
        servers: dict[str, ReproServer] = {}
        replicas: list[Replica] = []
        for name in ("r0", "r1"):
            cfg = ServeConfig(
                port=0, spool_dir=workdir / name, workers=2,
                queue_limit=32, lease_ttl=0.4, name=name)
            service = AnalysisService(cfg, solve_fn=stub_solve)
            server = ReproServer(service)
            server.start_background()
            services[name] = service
            servers[name] = server
            replicas.append(Replica(
                name=name, host="127.0.0.1", port=server.port,
                spool=workdir / name))
        router = ClusterService(RouterConfig(
            name="router", probe_interval=3600.0, probe_timeout=2.0,
            failure_threshold=3, readmit_seconds=3600.0,
            forward_timeout=5.0, route_deadline=10.0, lease_ttl=0.4,
        ), replicas)

        answers: dict[str, dict] = {}
        answers_lock = threading.Lock()
        failures: list[str] = []
        down: list[str] = []

        def submit(i: int) -> None:
            payload = {"source": variant(i), "steps": 2,
                       "label": f"job{i}"}
            tp = make_traceparent()
            parsed = parse_traceparent(tp)
            last = None
            for _attempt in range(4):
                status, body = asyncio.run(
                    router.analyze(payload, traceparent=tp))
                last = (status, body)
                if status == 200:
                    with answers_lock:
                        answers[body["job_id"]] = {
                            "verdict": body.get("verdict"),
                            "trace_id": parsed[0] if parsed else None,
                            "status": status, "note": body.get("note"),
                        }
                    return
                time.sleep(0.1)
            with answers_lock:
                failures.append(f"job{i}: {last!r}")

        def kill(name: str) -> None:
            if name in down:
                return
            hard_kill(services[name], servers[name])
            down.append(name)

        try:
            # Warm phase: sequential, so early faults land on a quiet
            # cluster and the record run counts a stable prefix.
            for i in range(self.WARM):
                submit(i)

            if monkey.nemesis("replica_down"):
                kill("r0")
            router.registry.probe_all()

            threads = [
                threading.Thread(target=submit, args=(i,))
                for i in range(self.WARM, self.WARM + self.BURST)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            if monkey.nemesis("replica_down"):
                kill("r0")
            if monkey.nemesis("torn_tail") and down:
                from ..persist.batch import BatchRunner
                tear_tail(workdir / down[0] / BatchRunner.JOURNAL)
            router.registry.probe_all()

            # Recovery: a dead replica's spool is taken over once its
            # lease heartbeat goes stale (the router's async handoff
            # may have been refused while the lease was still fresh).
            for name in down:
                lease = SpoolLease(workdir / name, ttl_seconds=0.4)
                deadline = time.monotonic() + 5.0
                while (not lease.is_stale()
                       and time.monotonic() < deadline):
                    time.sleep(0.05)
                dead = next(r for r in replicas if r.name == name)
                router.handoff(dead)

            # Skew sweep: a *live* replica whose heartbeat was skewed
            # into the past looks dead — take its spool over exactly as
            # a real router would, and let fencing + reacquire heal it.
            if (hasattr(monkey, "has_kind")
                    and monkey.has_kind("lease_skew")):
                for name in ("r0", "r1"):
                    if name in down:
                        continue
                    lease = SpoolLease(workdir / name, ttl_seconds=0.4)
                    for _check in range(6):
                        if lease.is_stale():
                            rep = next(r for r in replicas
                                       if r.name == name)
                            router.handoff(rep)
                            break
                        time.sleep(0.08)
                # Give the victim's heartbeat a beat to notice, fence,
                # and reacquire the released spool.
                time.sleep(0.3)

            claims = _lease_claims(
                {n: s for n, s in services.items() if n not in down})
        finally:
            router.close()
            for name, server in servers.items():
                if name in down:
                    services[name].runner.close()
                else:
                    server.stop_background(drain=True)
                    services[name].close()
        return ScenarioOutcome(
            spools={name: workdir / name for name in services},
            answers=answers, live_claims=claims,
            notes={"failures": failures, "down": list(down)})


SCENARIOS = {
    cls.name: cls for cls in (BatchScenario, ServeScenario,
                              ClusterScenario)
}


def make_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]()
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r} (have: {', '.join(sorted(SCENARIOS))})"
        ) from None
