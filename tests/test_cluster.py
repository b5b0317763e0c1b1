"""Replicated serve: ring, registry, lease, router failover, handoff.

The centerpiece is the kill-one-of-two-replicas acceptance test (slow,
subprocess): a router in front of two real ``repro serve`` replicas,
one SIGKILLed mid-burst — every admitted job must still reach a
definitive verdict (failover or journal handoff), no idempotency key
may be solved twice, and handed-off jobs keep their original trace id
end-to-end.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.analysis.result import AnalysisOutcome, Verdict
from repro.client import ServiceClient, ServiceUnavailable
from repro.obs import TRACER, make_traceparent
from repro.persist.batch import BatchRunner, LeaseHeld, SpoolLease, job_id_for
from repro.runtime.chaos import inject_faults
from repro.serve import (
    AnalysisService,
    ClusterService,
    HashRing,
    Replica,
    ReplicaRegistry,
    ReplicaState,
    ReproServer,
    RouterConfig,
    ServeConfig,
    parse_replica,
)
from repro.top import run_top

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SRC = """
prog(in buffer ib, out buffer ob){
  move-p(ib, ob, 1);
  assert(backlog-p(ob) >= 0);
}
"""


def variant(i: int) -> str:
    """Distinct job specs: job ids hash the source text."""
    return SRC + f"// cluster variant {i}\n"


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def proved_fn(rec, budget, escalation):
    return AnalysisOutcome(verdict=Verdict.PROVED)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _repro(args, *, extra_env=None, timeout=300):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env.update(extra_env or {})
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
        start_new_session=True,
    )


def _wait_for(predicate, *, timeout=30.0, interval=0.05, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    pytest.fail(f"timed out waiting for {message}")


# ----- consistent-hash ring -------------------------------------------------


def test_ring_spreads_keys_and_orders_preference():
    ring = HashRing(["a", "b", "c", "d"])
    keys = [f"key-{i}" for i in range(2000)]
    owners = {k: ring.primary(k) for k in keys}
    counts = {n: 0 for n in ring.nodes()}
    for owner in owners.values():
        counts[owner] += 1
    # Near-uniform split: no node starves or hoards.
    for node, count in counts.items():
        assert 0.10 <= count / len(keys) <= 0.45, (node, counts)
    # preference() is the failover walk: starts at the owner, visits
    # every node exactly once.
    pref = ring.preference(keys[0])
    assert pref[0] == owners[keys[0]]
    assert sorted(pref) == ring.nodes()


def test_ring_stability_on_join_and_leave():
    """The satellite property: a membership change moves ≤ ~1/N keys,
    and every moved key lands on (or leaves) the changed node."""
    ring = HashRing(["a", "b", "c", "d"])
    keys = [f"key-{i}" for i in range(2000)]
    before = {k: ring.primary(k) for k in keys}

    ring.add("e")
    after_join = {k: ring.primary(k) for k in keys}
    moved = [k for k in keys if after_join[k] != before[k]]
    # Expected fraction 1/5; allow slack for vnode variance.
    assert 0.05 <= len(moved) / len(keys) <= 0.32, len(moved)
    assert all(after_join[k] == "e" for k in moved)

    # Leaving restores the exact prior placement (determinism), and
    # only the leaver's keys move.
    ring.remove("e")
    assert {k: ring.primary(k) for k in keys} == before
    ring.remove("a")
    after_leave = {k: ring.primary(k) for k in keys}
    for k in keys:
        if before[k] != "a":
            assert after_leave[k] == before[k]
        else:
            assert after_leave[k] != "a"


def test_parse_replica_specs():
    rep = parse_replica("127.0.0.1:9001")
    assert (rep.name, rep.host, rep.port) == ("127.0.0.1:9001",
                                              "127.0.0.1", 9001)
    assert rep.spool is None
    rep = parse_replica("10.0.0.2:8650=/var/spool/r1")
    assert rep.port == 8650 and str(rep.spool) == "/var/spool/r1"
    for junk in ("nohost", "host:", ":123", "host:port"):
        with pytest.raises(ValueError):
            parse_replica(junk)


# ----- replica registry (ejection / re-admission) ---------------------------


def _one_replica_registry(clock, probe_fn, **kwargs):
    replica = Replica(name="r:1", host="r", port=1)
    registry = ReplicaRegistry(
        [replica], clock=clock, probe_fn=probe_fn, **kwargs)
    return registry, replica


def test_registry_ejects_after_threshold_then_readmits():
    clock = FakeClock()
    health = {"ok": True}

    def probe(replica):
        if not health["ok"]:
            raise ConnectionError("down")
        return 0.01

    ejections = []
    registry, replica = _one_replica_registry(
        clock, probe, failure_threshold=2, readmit_seconds=5.0,
        on_eject=ejections.append)

    assert registry.probe(replica)
    assert replica.state is ReplicaState.HEALTHY
    assert replica.ewma_seconds == pytest.approx(0.01)

    health["ok"] = False
    registry.probe(replica)
    assert replica.state is ReplicaState.HEALTHY  # 1 < threshold
    registry.probe(replica)
    assert replica.state is ReplicaState.EJECTED
    assert ejections == [replica]

    # Inside the re-admission window the replica is not even probed.
    assert registry.probe(replica) is False
    assert replica.state is ReplicaState.EJECTED

    # Window opens; the probe fails; the window re-closes (HALF_OPEN
    # probe failure re-opens the breaker).
    clock.advance(5.0)
    registry.probe(replica)
    assert replica.state is ReplicaState.EJECTED
    assert replica.ejections == 2

    clock.advance(5.0)
    health["ok"] = True
    assert registry.probe(replica)
    assert replica.state is ReplicaState.HEALTHY
    assert replica.readmissions == 1


def test_registry_candidates_put_routable_replicas_first():
    clock = FakeClock()
    replicas = [Replica(name=f"h:{p}", host="h", port=p) for p in (1, 2)]
    registry = ReplicaRegistry(
        replicas, failure_threshold=1, readmit_seconds=60.0, clock=clock,
        probe_fn=lambda r: 0.0)
    registry.note_failure(replicas[0])
    assert replicas[0].state is ReplicaState.EJECTED
    for key in ("x", "y", "z"):
        cands = registry.candidates(key)
        assert [r.name for r in cands][0] == replicas[1].name
        assert cands[-1] is replicas[0]
    assert [r.name for r in registry.healthy()] == [replicas[1].name]


def test_probe_flap_chaos_drives_the_ejection_cycle():
    clock = FakeClock()
    registry, replica = _one_replica_registry(
        clock, lambda r: 0.0, failure_threshold=2, readmit_seconds=5.0)
    with inject_faults(seed=5, probe_flap_rate=1.0) as monkey:
        registry.probe(replica)
        registry.probe(replica)
    assert replica.state is ReplicaState.EJECTED
    assert monkey.log.probe_flaps == 2
    assert "probe_flap" in monkey.log.schedule


# ----- spool ownership lease ------------------------------------------------


def test_lease_acquire_heartbeat_staleness(tmp_path):
    clock = FakeClock(1000.0)
    lease = SpoolLease(tmp_path, ttl_seconds=1.0, clock=clock)
    assert lease.is_stale()  # no file yet
    assert lease.acquire("r1")
    assert lease.holder() == "r1"
    assert not lease.is_stale()
    clock.advance(2.0)
    assert lease.is_stale()
    assert lease.renew()
    assert not lease.is_stale()


def test_lease_takeover_refused_while_heartbeat_fresh(tmp_path):
    clock = FakeClock(1000.0)
    owner = SpoolLease(tmp_path, ttl_seconds=1.0, clock=clock)
    assert owner.acquire("r1")
    taker = SpoolLease(tmp_path, ttl_seconds=1.0, clock=clock)
    with pytest.raises(LeaseHeld):
        taker.takeover("router")
    # The owner dies (stops renewing); past the TTL the spool is
    # claimable, and the record names both parties.
    clock.advance(1.5)
    record = taker.takeover("router")
    assert record["owner"] == "router"
    assert record["taken_from"] == "r1"
    # The zombie's next heartbeat must fail — its journal is no longer
    # its own.
    assert owner.renew() is False


def test_lease_release_enables_immediate_takeover(tmp_path):
    clock = FakeClock()
    owner = SpoolLease(tmp_path, ttl_seconds=60.0, clock=clock)
    assert owner.acquire("r1")
    assert owner.release()
    taker = SpoolLease(tmp_path, ttl_seconds=60.0, clock=clock)
    record = taker.takeover("router")  # no TTL wait after release
    assert record["owner"] == "router"


def test_lease_takeover_force_overrides_fresh_lease(tmp_path):
    clock = FakeClock()
    owner = SpoolLease(tmp_path, ttl_seconds=60.0, clock=clock)
    assert owner.acquire("r1")
    taker = SpoolLease(tmp_path, ttl_seconds=60.0, clock=clock)
    record = taker.takeover("router", force=True)
    assert record["owner"] == "router" and record["taken_from"] == "r1"


# ----- journal ownership / handoff bookkeeping ------------------------------


def test_batch_journal_records_owner_and_takeover(tmp_path):
    spool = tmp_path / "spool"
    with TRACER.activate(make_traceparent()):
        with BatchRunner(spool, owner="r1", lease_ttl=60.0) as r1:
            r1.lease.acquire("r1")
            recs = [r1.submit_one(variant(i), steps=2) for i in range(2)]
            traces = {rec.job_id: rec.trace_id for rec in recs}
            r1.lease.release()  # graceful drain

    with BatchRunner(spool, owner="r2", lease_ttl=60.0) as r2:
        r2.lease.takeover("r2")
        jobs, order = r2.load()
        # Adopt one verdict from a peer, solve the other locally.
        r2.adopt_verdict(jobs[order[0]], "proved", 0, source="r3")
        report = r2.run(resume=True)
        assert report.executed == 1

    table = BatchRunner(spool).status().to_json()
    assert set(table["counts"]) == {"done"}
    rows = {row["job_id"]: row for row in table["jobs"]}
    adopted = rows[order[0]]
    solved = rows[order[1]]
    assert adopted["owner"] == "r1"
    assert adopted["adopted_from"] == "r3"
    assert solved["owner"] == "r1"
    assert solved["taken_over_by"] == "r2"
    assert table["handoff"]["adopted"] == 1
    assert table["handoff"]["taken_over"] >= 1
    # Handed-off jobs keep the trace id journaled at submission, and
    # the per-job handoff rows carry it too (satellite).
    for job_id, trace_id in traces.items():
        assert rows[job_id]["trace_id"] == trace_id
    hand_rows = {r["job_id"]: r for r in table["handoff"]["rows"]}
    assert hand_rows[order[0]]["adopted_from"] == "r3"
    assert hand_rows[order[0]]["trace_id"] == traces[order[0]]
    assert hand_rows[order[1]]["taken_over_by"] == "r2"


def test_batch_status_json_groups_orphans_by_owner(tmp_path):
    """Satellite: `batch status --json` names the owning replica for
    orphaned jobs, so ops can see whose backlog is stuck."""
    spool = tmp_path / "spool"
    with BatchRunner(spool, owner="replica-9") as runner:
        rec = runner.submit_one(variant(50), steps=2)
        runner.mark_running(rec)  # ...then "the process dies"

    out = _repro(["batch", "status", "--json", str(spool)])
    assert out.returncode == 0, out.stderr
    table = json.loads(out.stdout)
    assert table["counts"] == {"orphaned": 1}
    assert table["handoff"]["orphaned_by_owner"] == {"replica-9": 1}
    assert table["jobs"][0]["owner"] == "replica-9"
    assert table["jobs"][0]["taken_over_by"] is None


# ----- the router (in-process replicas) -------------------------------------


def _start_replica(tmp_path, name, *, solve_fn=proved_fn, lease_ttl=0.2):
    cfg = ServeConfig(
        port=0, spool_dir=tmp_path / name, workers=1, queue_limit=16,
        lease_ttl=lease_ttl,
    )
    service = AnalysisService(cfg, solve_fn=solve_fn)
    server = ReproServer(service)
    server.start_background()
    replica = Replica(
        name=f"127.0.0.1:{server.port}", host="127.0.0.1",
        port=server.port, spool=tmp_path / name)
    return service, server, replica


def _router(replicas, **overrides):
    kwargs = dict(
        port=0, name="router-t", probe_interval=60.0, probe_timeout=5.0,
        readmit_seconds=60.0, route_deadline=30.0, forward_timeout=20.0,
    )
    kwargs.update(overrides)
    return ClusterService(RouterConfig(**kwargs), replicas)


def _spec_with_primary(registry, node_name, *, start=0):
    """A payload whose job id the ring assigns to ``node_name``."""
    for i in range(start, start + 500):
        payload = {"source": variant(i), "steps": 3}
        spec = AnalysisService._validate(payload)
        if registry.ring.primary(job_id_for(spec)) == node_name:
            return payload
    raise AssertionError(f"no variant hashed onto {node_name}")


def test_router_routes_by_ring_and_proxies_reads(tmp_path):
    s0, srv0, rep0 = _start_replica(tmp_path, "r0")
    s1, srv1, rep1 = _start_replica(tmp_path, "r1")
    router = _router([rep0, rep1])
    router_server = ReproServer(router)
    router_server.start_background()
    try:
        client = ServiceClient(port=router_server.port, timeout=30.0)
        docs = [client.analyze(variant(300 + i), steps=3, retry=False)
                for i in range(4)]
        for doc in docs:
            assert doc["status"] == 200 and doc["verdict"] == "proved", doc
            assert doc["replica"] in (rep0.name, rep1.name)
            assert doc["trace_id"]
        # The same spec re-routes to the same replica (sticky ring
        # placement) and answers from its journal.
        again = client.analyze(variant(300), steps=3, retry=False)
        assert again["replica"] == docs[0]["replica"]
        assert again["job_id"] == docs[0]["job_id"]

        # Proxied read path: the row is found on whichever replica
        # solved it, annotated with the answering replica.
        job = client.job(docs[0]["job_id"])
        assert job["status"] == 200 and job["state"] == "done"
        assert job["replica"] == docs[0]["replica"]

        # Merged index across replicas.
        index = client.jobs()
        assert index["status"] == 200
        assert index["counts"].get("done", 0) >= 4
        assert index["replicas_reachable"] == 2

        # Control plane: topology + counters on the router...
        info = client.cluster()
        assert info["status"] == 200
        assert sorted(info["ring"]["nodes"]) == sorted(
            [rep0.name, rep1.name])
        assert info["counters"]["routed"] >= 4
        assert {r["state"] for r in info["replicas"]} == {"healthy"}
        # ...and a 404 from a plain replica (not a router).
        direct = ServiceClient(port=srv0.port, timeout=10.0).cluster()
        assert direct["status"] == 404
    finally:
        router_server.stop_background(drain=False)
        router.close()
        srv0.stop_background()
        srv1.stop_background()


def test_router_fails_over_to_next_ring_node(tmp_path):
    s0, srv0, rep0 = _start_replica(tmp_path, "r0")
    s1, srv1, rep1 = _start_replica(tmp_path, "r1")
    router = _router([rep0, rep1], failure_threshold=3)
    router_server = ReproServer(router)
    router_server.start_background()
    try:
        # Kill replica 0's listener, then submit a job the ring assigns
        # to it: the router must fail over to replica 1 and say so.
        srv0.stop_background(drain=False)
        payload = _spec_with_primary(router.registry, rep0.name)
        client = ServiceClient(port=router_server.port, timeout=30.0)
        doc = client.analyze(payload["source"], steps=3, retry=False)
        assert doc["status"] == 200 and doc["verdict"] == "proved", doc
        assert doc["replica"] == rep1.name
        assert doc["failovers"] >= 1
        info = client.cluster()
        assert info["counters"]["failovers"] >= 1
        dead = next(r for r in info["replicas"] if r["name"] == rep0.name)
        assert dead["consecutive_failures"] >= 1
    finally:
        router_server.stop_background(drain=False)
        router.close()
        srv1.stop_background()


def test_replica_kill_chaos_exhausts_the_ring(tmp_path):
    """``replica_kill`` chaos turns every forward into a dead
    connection: the router walks the whole ring, then answers an
    honest 503 with a retry hint."""
    s0, srv0, rep0 = _start_replica(tmp_path, "r0")
    s1, srv1, rep1 = _start_replica(tmp_path, "r1")
    router = _router([rep0, rep1], failure_threshold=1, handoff=False)
    try:
        with inject_faults(seed=2, replica_kill_rate=1.0) as monkey:
            status, body = asyncio.run(
                router.analyze({"source": variant(400), "steps": 3}))
        assert status == 503
        assert body["failovers"] == 2
        assert body["retry_after"] > 0
        assert monkey.log.replica_kills == 2
        # The injected failures fed the health machine: threshold 1
        # ejects both replicas.
        assert all(r.state is ReplicaState.EJECTED
                   for r in router.registry.replicas.values())
    finally:
        router.close()
        srv0.stop_background()
        srv1.stop_background()


# ----- journal handoff ------------------------------------------------------


def _seed_dead_replica_spool(tmp_path, n=3):
    """A spool as a crashed replica would leave it: jobs journaled
    (pending), a lease whose heartbeat stopped."""
    spool = tmp_path / "dead"
    traces = {}
    with TRACER.activate(make_traceparent()):
        with BatchRunner(spool, owner="dead-replica",
                         lease_ttl=0.05) as runner:
            runner.lease.acquire("dead-replica")
            for i in range(n):
                rec = runner.submit_one(variant(600 + i), steps=3)
                traces[rec.job_id] = rec.trace_id
    return spool, traces


def test_handoff_adopts_peer_verdicts_and_resolves_the_rest(tmp_path):
    """The tentpole acceptance, in process: a dead replica's backlog is
    finished under its original trace ids — peers' verdicts adopted
    (never re-solved), the remainder executed by the router."""
    spool, traces = _seed_dead_replica_spool(tmp_path, n=3)
    s1, srv1, rep1 = _start_replica(tmp_path, "r1")
    dead = Replica(name="127.0.0.1:1", host="127.0.0.1", port=1,
                   spool=spool)
    router = _router([dead, rep1], failure_threshold=1, lease_ttl=0.5)
    try:
        # One of the dead replica's jobs already failed over and was
        # solved on the survivor.
        survivor_doc = ServiceClient(port=srv1.port, timeout=30.0).analyze(
            variant(600), steps=3, retry=False)
        assert survivor_doc["status"] == 200
        assert survivor_doc["job_id"] in traces

        time.sleep(0.1)  # the dead lease's 0.05s TTL lapses
        # A forward failure ejects the replica (threshold 1), which
        # fires the handoff thread.
        router.registry.note_failure(dead)
        _wait_for(
            lambda: router.counters["handoffs"] >= 1
            and not router._handoff_threads,
            timeout=60.0, message="journal handoff")

        assert router.counters["handoff_jobs_adopted"] == 1
        assert router.counters["handoff_jobs_resolved"] == 2

        table = BatchRunner(spool).status().to_json()
        assert set(table["counts"]) == {"done"}
        rows = {row["job_id"]: row for row in table["jobs"]}
        for job_id, trace_id in traces.items():
            row = rows[job_id]
            assert row["state"] == "done" and row["verdict"] == "proved"
            # Trace continuity: the recovery ran under the trace id
            # journaled at submission.
            assert row["trace_id"] == trace_id
            assert row["owner"] == "dead-replica"
        adopted = rows[survivor_doc["job_id"]]
        assert adopted["adopted_from"] == rep1.name
        resolved = [r for r in rows.values() if r["adopted_from"] is None]
        assert all(r["taken_over_by"] == "router-t" for r in resolved)
        # The lease now names the router, and where the spool came from.
        lease = SpoolLease(spool).read()
        assert lease["owner"] == "router-t"
        assert lease["taken_from"] == "dead-replica"

        # Read path after handoff: the dead replica can't answer, the
        # survivor never had the local-only jobs — the router serves
        # the handoff record.
        local_only = next(j for j in traces
                          if j != survivor_doc["job_id"])
        status, doc = asyncio.run(router.job_status(local_only))
        assert status == 200 and doc["state"] == "done"
        assert doc["handoff"] is True
        status, index = asyncio.run(router.jobs_index())
        assert {j for j in traces} <= {
            row["job_id"] for row in index["jobs"]}
    finally:
        router.close()
        srv1.stop_background()


def test_handoff_refused_while_owner_heartbeat_fresh(tmp_path):
    """Ejection is a suspicion; the lease is the arbiter.  A flapped-out
    but *alive* replica keeps its journal."""
    spool = tmp_path / "alive"
    with BatchRunner(spool, owner="alive-replica",
                     lease_ttl=300.0) as runner:
        runner.lease.acquire("alive-replica")
        runner.submit_one(variant(700), steps=3)

    alive = Replica(name="127.0.0.1:1", host="127.0.0.1", port=1,
                    spool=spool)
    router = _router([alive], failure_threshold=1)
    try:
        assert router.handoff(alive) is None
        assert router.counters["handoff_refused"] == 1
        assert router.counters["handoffs"] == 0
        # The backlog was not touched; the owner still holds the lease.
        table = BatchRunner(spool).status().to_json()
        assert table["counts"] == {"pending": 1}
        assert SpoolLease(spool).holder() == "alive-replica"
        # Once the owner releases (graceful drain), handoff proceeds.
        SpoolLease(spool).release()
        result = router.handoff(alive)
        assert result is not None and result["resolved"] == 1
    finally:
        router.close()


def test_concurrent_eject_cycles_run_one_handoff(tmp_path):
    """The eject → readmit → failed-probe cycle re-fires on_eject while
    a handoff is still mid-flight.  The second takeover would *succeed*
    (the lease owner is already the router), so without the in-flight
    guard two BatchRunners solve the same journal concurrently."""
    spool, traces = _seed_dead_replica_spool(tmp_path, n=1)
    dead = Replica(name="127.0.0.1:1", host="127.0.0.1", port=1,
                   spool=spool)
    router = _router([dead], failure_threshold=1)
    entered = threading.Event()
    gate = threading.Event()
    orig = router._adopt_from_peers

    def gated(runner, replica):
        entered.set()
        assert gate.wait(30.0)
        return orig(runner, replica)

    router._adopt_from_peers = gated
    try:
        time.sleep(0.1)  # the dead lease's 0.05s TTL lapses
        results: dict[str, object] = {}
        thread = threading.Thread(
            target=lambda: results.setdefault(
                "first", router.handoff(dead)))
        thread.start()
        assert entered.wait(10.0)
        # First handoff took the lease and is now blocked mid-flight:
        # a concurrent duplicate must be a no-op.
        assert router.handoff(dead) is None
        assert router.counters["handoffs"] == 1
        gate.set()
        thread.join(60.0)
        assert results["first"] is not None
        assert results["first"]["resolved"] == 1
        # And once finished, the spool is never handed off again.
        assert router.handoff(dead) is None
        assert router.counters["handoffs"] == 1
    finally:
        gate.set()
        router.close()


def test_adopt_prefers_done_verdict_on_later_survivor(tmp_path):
    """A job can be journaled on several replicas after failover; only
    one has finished it.  The scan must find that 'done' verdict even
    when an earlier survivor only knows the job as pending — waiting on
    the pending copy would stall the handoff for forward_timeout."""
    spool, traces = _seed_dead_replica_spool(tmp_path, n=1)
    dead = Replica(name="127.0.0.1:1", host="127.0.0.1", port=1,
                   spool=spool)
    peer_a = Replica(name="127.0.0.1:2", host="127.0.0.1", port=2)
    peer_b = Replica(name="127.0.0.1:3", host="127.0.0.1", port=3)
    router = ClusterService(
        RouterConfig(port=0, name="router-t", probe_interval=60.0,
                     readmit_seconds=60.0, forward_timeout=5.0),
        [dead, peer_a, peer_b],
        sleep=lambda s: pytest.fail(
            "waited on a pending peer despite a done verdict elsewhere"),
    )

    def fake_peer_job(peer, job_id):
        if peer.name == peer_b.name:
            return {"status": 200, "state": "done", "verdict": "proved",
                    "exit_code": 0}
        return {"status": 200, "state": "pending"}

    router._peer_job = fake_peer_job
    try:
        time.sleep(0.1)  # the dead lease's 0.05s TTL lapses
        result = router.handoff(dead)
        assert result is not None
        assert result["adopted"] == 1 and result["resolved"] == 0
        rows = BatchRunner(spool).status().to_json()["jobs"]
        assert rows[0]["adopted_from"] == peer_b.name
    finally:
        router.close()


def test_adopt_wait_loop_uses_injected_sleep(tmp_path):
    """The wait-for-in-flight-peer loop paces with the injectable sleep
    (a fake clock plus a real time.sleep would spin forever)."""
    spool, traces = _seed_dead_replica_spool(tmp_path, n=1)
    dead = Replica(name="127.0.0.1:1", host="127.0.0.1", port=1,
                   spool=spool)
    peer = Replica(name="127.0.0.1:2", host="127.0.0.1", port=2)
    state = {"value": "running"}
    sleeps: list[float] = []

    def fake_sleep(seconds: float) -> None:
        sleeps.append(seconds)
        state["value"] = "done"  # the peer finishes during the nap

    router = ClusterService(
        RouterConfig(port=0, name="router-t", probe_interval=60.0,
                     readmit_seconds=60.0, forward_timeout=5.0),
        [dead, peer], sleep=fake_sleep)

    def fake_peer_job(p, job_id):
        if state["value"] == "done":
            return {"status": 200, "state": "done", "verdict": "proved",
                    "exit_code": 0}
        return {"status": 200, "state": "running"}

    router._peer_job = fake_peer_job
    try:
        time.sleep(0.1)  # the dead lease's 0.05s TTL lapses
        result = router.handoff(dead)
        assert result is not None
        assert result["adopted"] == 1 and result["resolved"] == 0
        assert sleeps == [0.2]
    finally:
        router.close()


def test_handoff_records_lru_capped():
    router = _router([])
    try:
        router._HANDOFF_RECORDS_MAX = 4  # instance shadow for the test
        with router._handoff_lock:
            router._remember_handoff_rows(
                [{"job_id": f"j{i}", "state": "done"} for i in range(6)])
        assert list(router._handoff_records) == ["j2", "j3", "j4", "j5"]
        # A refreshed row moves to the young end; the oldest is evicted.
        with router._handoff_lock:
            router._remember_handoff_rows(
                [{"job_id": "j2"}, {"job_id": "j9"}])
        assert list(router._handoff_records) == ["j4", "j5", "j2", "j9"]
    finally:
        router.close()


def test_analyze_surfaces_unrelated_runtime_errors():
    """Only the executor's shutdown refusal means 'draining'; any other
    RuntimeError is a bug and must not be mislabeled as a 503."""
    router = _router([])

    def boom(payload, tenant):
        raise RuntimeError("boom")

    router._forward = boom
    payload = {"source": variant(950), "steps": 3}
    try:
        with pytest.raises(RuntimeError, match="boom"):
            asyncio.run(router.analyze(payload))
        # After drain the pool refuses new work: that (and only that)
        # maps to the graceful draining response.
        router.drain()
        status, body = asyncio.run(router.analyze(payload))
        assert status == 503 and body["error"] == "draining"
    finally:
        router.close()


# ----- `repro top` reconnect (satellite) ------------------------------------


def test_top_reconnects_with_backoff_and_keeps_last_frame():
    port = _free_port()  # nothing listens here
    out = io.StringIO()
    sleeps: list[float] = []
    rc = run_top(f"127.0.0.1:{port}", interval=0.5, iterations=3,
                 out=out, sleep=sleeps.append)
    assert rc == 0
    text = out.getvalue()
    assert "[reconnecting #1:" in text
    assert "[reconnecting #3:" in text
    # Exponential backoff between failed frames, capped.
    assert sleeps == [0.5, 1.0]


# ----- client failover + deadline (satellites) ------------------------------


def _make_local_service(tmp_path):
    cfg = ServeConfig(port=0, spool_dir=tmp_path / "spool", workers=1,
                      queue_limit=8)
    service = AnalysisService(cfg, solve_fn=proved_fn)
    server = ReproServer(service)
    server.start_background()
    return service, server


def test_client_rotates_to_failover_endpoint(tmp_path):
    service, server = _make_local_service(tmp_path)
    dead_port = _free_port()
    try:
        client = ServiceClient(
            "127.0.0.1", dead_port, timeout=10.0, max_retries=3,
            sleep=lambda s: None,
            failover=[f"127.0.0.1:{server.port}"])
        doc = client.analyze(variant(800), steps=3)
        assert doc["status"] == 200 and doc["verdict"] == "proved"
        assert client.last_report["failovers"] >= 1
        assert client.last_report["endpoint"] == \
            f"127.0.0.1:{server.port}"
        # The client now points at the endpoint that answered.
        assert (client.host, client.port) == ("127.0.0.1", server.port)
    finally:
        server.stop_background()


def test_client_backs_off_after_full_failover_rotation():
    """With every endpoint down (whole cluster restarting), the client
    must sleep the jittered backoff after each full lap through the
    endpoint list — never spin through max_retries with zero sleep."""
    sleeps: list[float] = []
    client = ServiceClient(
        "127.0.0.1", _free_port(), timeout=1.0, max_retries=5,
        sleep=sleeps.append,
        failover=[f"127.0.0.1:{_free_port()}"])
    with pytest.raises(ServiceUnavailable):
        client.analyze(variant(900), steps=3)
    # 6 attempts over 2 endpoints: rotate free between fresh endpoints,
    # back off once per completed lap (after attempts 2 and 4).
    assert client.last_report["failovers"] == 5
    assert len(sleeps) == 2
    assert all(s > 0.0 for s in sleeps)


def test_client_deadline_caps_total_retry_wall_time(tmp_path):
    service, server = _make_local_service(tmp_path)
    service.admission.draining = True  # reject everything with 503
    clock = FakeClock()
    sleeps: list[float] = []

    def fake_sleep(seconds: float) -> None:
        sleeps.append(seconds)
        clock.advance(max(seconds, 0.25))

    try:
        client = ServiceClient(
            port=server.port, timeout=10.0, max_retries=50,
            deadline=2.0, clock=clock, sleep=fake_sleep)
        with pytest.raises(ServiceUnavailable) as err:
            client.analyze(variant(801), steps=3)
        assert "deadline 2.0s" in str(err.value)
        report = client.last_report
        assert report["deadline_exceeded"] is True
        # The deadline, not the 50-attempt budget, stopped the loop —
        # and every sleep was clamped inside the remaining budget.
        assert report["attempts"] < 50
        assert all(s <= 2.0 for s in sleeps)
        assert report["status"] == 503
    finally:
        service.admission.draining = False
        server.stop_background()


# ----- the acceptance test (subprocess, real SIGKILL) -----------------------


@pytest.mark.slow
def test_kill_one_of_two_replicas_loses_no_jobs(tmp_path):
    """Kill-one-of-two chaos: SIGKILL a replica mid-burst behind a
    router.  Every admitted job reaches a definitive verdict (failover
    or journal handoff), no idempotency key is solved twice, and
    handed-off jobs keep their original trace ids."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    spools = [str(tmp_path / "r1"), str(tmp_path / "r2")]
    ports = [_free_port(), _free_port()]
    router_port = _free_port()

    def serve_proc(args):
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, start_new_session=True,
        )

    replicas = [
        serve_proc(["--port", str(ports[i]), "--spool", spools[i],
                    "--workers", "1", "--queue-limit", "16",
                    "--lease-ttl", "1"])
        for i in range(2)
    ]
    route = ",".join(f"127.0.0.1:{ports[i]}={spools[i]}"
                     for i in range(2))
    router = serve_proc([
        "--port", str(router_port), "--route", route,
        "--probe-interval", "0.2", "--probe-timeout", "1.0",
        "--readmit", "0.5", "--failure-threshold", "2",
        "--lease-ttl", "1", "--name", "router-acc",
    ])
    procs = replicas + [router]
    client = ServiceClient(port=router_port, timeout=60.0,
                           max_retries=8)
    try:
        for port in ports + [router_port]:
            probe = ServiceClient(port=port, timeout=10.0)
            _wait_for(
                lambda p=probe: _up(p), timeout=30.0,
                message=f"server on :{port}")

        results: dict[str, dict] = {}
        lock = threading.Lock()

        errors: list[Exception] = []

        def one(i: int) -> None:
            own = ServiceClient(port=router_port, timeout=60.0,
                                max_retries=8)
            try:
                doc = own.analyze(variant(900 + i), steps=3)
            except Exception as exc:  # noqa: BLE001
                with lock:
                    errors.append(exc)
                return
            with lock:
                results[doc["job_id"]] = doc

        # Warm phase: four jobs land on their ring primaries.
        for i in range(4):
            one(i)
        assert all(d["status"] == 200 for d in results.values())

        # Burst phase: eight concurrent jobs; SIGKILL replica 1 while
        # they are in flight.
        threads = [threading.Thread(target=one, args=(4 + i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        time.sleep(0.15)
        replicas[0].kill()  # SIGKILL: no drain, no lease release
        for t in threads:
            t.join(120.0)

        # Every admitted job got a definitive verdict, by primary
        # placement or failover.
        assert not errors, errors
        assert len(results) == 12
        for doc in results.values():
            assert doc["status"] == 200, doc
            assert doc["verdict"] == "proved", doc
            assert doc["trace_id"], doc

        # The router must eject the dead replica and complete journal
        # handoff (retrying until the lease heartbeat is stale).
        def handoff_done() -> bool:
            info = client.cluster()
            if info.get("status") != 200:
                return False
            dead = next((r for r in info["replicas"]
                         if r["name"] == f"127.0.0.1:{ports[0]}"), None)
            return (dead is not None and dead["state"] == "ejected"
                    and info["counters"]["handoffs"] >= 1)

        _wait_for(handoff_done, timeout=60.0, interval=0.2,
                  message="ejection + journal handoff")

        # Re-query every job through the router: identical, definitive
        # verdicts, same trace id as the original response.
        def all_requeryable() -> bool:
            for job_id in results:
                doc = client.job(job_id)
                if doc.get("status") != 200 or doc.get("state") != "done":
                    return False
            return True

        _wait_for(all_requeryable, timeout=60.0, interval=0.2,
                  message="every job re-queryable as done")
        for job_id, original in results.items():
            doc = client.job(job_id)
            assert doc["verdict"] == original["verdict"], doc

        # Graceful stop of the survivors, then audit the journals.
        outputs = {}
        for proc in (router, replicas[1]):
            proc.send_signal(signal.SIGTERM)
            outputs[proc.pid] = proc.communicate(timeout=60.0)
            assert proc.returncode == 0, outputs[proc.pid][1]
        assert "router drained:" in outputs[router.pid][1], \
            outputs[router.pid]

        tables = []
        for spool in spools:
            out = _repro(["batch", "status", "--json", spool])
            assert out.returncode == 0, out.stderr
            tables.append(json.loads(out.stdout))

        # The dead replica's spool was finished by the handoff: every
        # job done, under its original trace id.
        dead_rows = {r["job_id"]: r for r in tables[0]["jobs"]}
        for job_id, row in dead_rows.items():
            assert row["state"] == "done", row
            if job_id in results:
                assert row["trace_id"] == results[job_id]["trace_id"], row
        handed = [r for r in dead_rows.values()
                  if r["taken_over_by"] or r["adopted_from"]]
        # The SIGKILL mid-burst left a backlog; handoff finished it.
        assert tables[0]["handoff"]["taken_over"] \
            + tables[0]["handoff"]["adopted"] == len(handed)

        # Satellite: the handoff rows in `batch status --json` carry
        # trace ids, continuous with the original client responses —
        # a handed-off job is joinable against its distributed trace.
        handoff_rows = tables[0]["handoff"]["rows"]
        assert {r["job_id"] for r in handoff_rows} == \
            {r["job_id"] for r in handed}
        for row in handoff_rows:
            assert row["trace_id"], row
            if row["job_id"] in results:
                assert row["trace_id"] == \
                    results[row["job_id"]]["trace_id"], row

        # No duplicate solves per idempotency key: across both spools,
        # each job id has exactly one non-adopted `done` row.
        solves: dict[str, int] = {}
        for table in tables:
            for row in table["jobs"]:
                if row["state"] == "done" and not row["adopted_from"]:
                    solves[row["job_id"]] = \
                        solves.get(row["job_id"], 0) + 1
        for job_id in results:
            assert solves.get(job_id, 0) == 1, (job_id, solves)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30.0)


def _up(probe: ServiceClient) -> bool:
    try:
        return probe.health().get("status") == 200
    except ServiceUnavailable:
        return False
