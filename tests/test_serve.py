"""The serve control plane: admission, the shedding ladder, the
breaker, chaos on the request path, and SIGTERM drain.

The centerpiece is the saturation test (the acceptance criterion):
with admission limit Q and 4×Q concurrent requests against one blocked
worker, every request gets a terminal answer — a verdict, a fast
UNKNOWN, or 429 + ``Retry-After`` — the queue depth never exceeds Q,
and a SIGTERM'd server journals its backlog for ``repro batch resume``
to finish with identical verdicts.
"""

from __future__ import annotations

import asyncio
import http.client
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
from repro.runtime.budget import ExhaustionReason, SolverFault
from repro.runtime.chaos import inject_faults
from repro.serve import (
    AdmissionController,
    AnalysisService,
    BreakerState,
    CircuitBreaker,
    OverloadLevel,
    ReproServer,
    ServeConfig,
    TenantPolicy,
    TokenBucket,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SRC = """
prog(in buffer ib, out buffer ob){
  move-p(ib, ob, 1);
  assert(backlog-p(ob) >= 0);
}
"""


def variant(i: int) -> str:
    """Distinct job specs: job ids hash the source text, so each
    request needs its own program (a trailing comment suffices)."""
    return SRC + f"// variant {i}\n"


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# ----- token bucket / admission units ---------------------------------------


def test_token_bucket_refills_on_fake_clock():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
    for _ in range(4):
        assert bucket.take() == 0.0
    wait = bucket.take()
    assert wait == pytest.approx(0.5)
    clock.advance(0.5)
    assert bucket.take() == 0.0


def test_admission_queue_bound_and_retry_after():
    clock = FakeClock()
    ctrl = AdmissionController(queue_limit=2, clock=clock)
    assert ctrl.admit().admitted
    assert ctrl.admit().admitted
    rejected = ctrl.admit()
    assert not rejected.admitted
    assert rejected.status == 429
    assert rejected.reason == "queue_full"
    assert int(rejected.retry_after_header) >= 1
    assert ctrl.max_queued == 2
    # One slot frees; admission resumes.
    ctrl.note_started()
    assert ctrl.admit().admitted


def test_admission_ladder_levels():
    ctrl = AdmissionController(queue_limit=8, clock=FakeClock())
    assert ctrl.level() is OverloadLevel.NORMAL
    for _ in range(4):
        ctrl.admit()
    assert ctrl.level() is OverloadLevel.DEGRADED
    for _ in range(3):
        ctrl.admit()
    assert ctrl.level() is OverloadLevel.SHEDDING


def test_admission_sheds_low_priority_tenants_only():
    clock = FakeClock()
    ctrl = AdmissionController(queue_limit=8, shed_priority_floor=1,
                               clock=clock)
    ctrl.register_tenant(TenantPolicy(name="batch", priority=0))
    ctrl.register_tenant(
        TenantPolicy(name="interactive", rate=50.0, burst=100.0, priority=5))
    for _ in range(7):
        assert ctrl.admit("interactive").admitted
    assert ctrl.level() is OverloadLevel.SHEDDING
    shed = ctrl.admit("batch")
    assert not shed.admitted and shed.reason == "shed"
    assert ctrl.admit("interactive").admitted  # above the floor


def test_admission_rate_limit_and_budget():
    clock = FakeClock()
    ctrl = AdmissionController(queue_limit=64, clock=clock)
    ctrl.register_tenant(
        TenantPolicy(name="t", rate=1.0, burst=2.0, budget_seconds=1.0))
    assert ctrl.admit("t").admitted
    assert ctrl.admit("t").admitted
    limited = ctrl.admit("t")
    assert not limited.admitted and limited.reason == "rate_limited"
    assert limited.retry_after > 0
    # Spend past the tenant's cumulative solve-seconds budget.
    clock.advance(100.0)
    ctrl.note_finished("t", 2.0)
    spent = ctrl.admit("t")
    assert not spent.admitted and spent.reason == "budget"


def test_admission_draining_answers_503():
    ctrl = AdmissionController(queue_limit=4, clock=FakeClock())
    ctrl.draining = True
    adm = ctrl.admit()
    assert not adm.admitted and adm.status == 503 and adm.reason == "draining"


# ----- circuit breaker ------------------------------------------------------


def test_breaker_trips_half_opens_and_recovers():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=3, reset_seconds=5.0,
                             clock=clock)
    assert breaker.state is BreakerState.CLOSED
    for _ in range(3):
        assert breaker.allow()
        breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert not breaker.allow()
    clock.advance(5.0)
    assert breaker.state is BreakerState.HALF_OPEN
    assert breaker.allow()        # the probe
    assert not breaker.allow()    # probe_limit=1: only one at a time
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED
    # A failing probe re-opens.
    for _ in range(3):
        breaker.record_failure()
    clock.advance(5.0)
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert breaker.trips == 3  # initial trip, post-recovery trip, re-trip


def test_breaker_half_open_admits_one_probe_under_contention():
    """Concurrent requests racing a HALF_OPEN breaker: exactly
    ``probe_limit`` winners; the losers get a retry hint."""
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_seconds=5.0,
                             clock=clock)
    breaker.record_failure()
    clock.advance(5.0)  # the reset window opens

    barrier = threading.Barrier(8)
    admitted: list[bool] = []
    lock = threading.Lock()

    def racer() -> None:
        barrier.wait()
        ok = breaker.allow()
        with lock:
            admitted.append(ok)

    threads = [threading.Thread(target=racer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10.0)
    assert admitted.count(True) == 1
    assert breaker.state is BreakerState.HALF_OPEN
    # Losers wait one probe's time, not a full reset window.
    assert breaker.retry_after() == pytest.approx(1.0)


def test_breaker_retry_after_counts_down_the_reset_window():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_seconds=5.0,
                             clock=clock)
    assert breaker.retry_after() == 0.0  # CLOSED
    breaker.record_failure()
    assert breaker.retry_after() == pytest.approx(5.0)
    clock.advance(2.0)
    assert breaker.retry_after() == pytest.approx(3.0)


# ----- service helpers ------------------------------------------------------


def make_service(tmp_path, *, solve_fn=None, workers=1, queue_limit=4,
                 breaker=None, **cfg_kwargs):
    cfg = ServeConfig(
        port=0, spool_dir=tmp_path / "spool", workers=workers,
        queue_limit=queue_limit, **cfg_kwargs,
    )
    return AnalysisService(cfg, solve_fn=solve_fn, breaker=breaker)


def call(service, payload, tenant="default"):
    return asyncio.run(service.analyze(payload, tenant=tenant))


def proved_fn(rec, budget, escalation):
    return AnalysisOutcome(verdict=Verdict.PROVED)


# ----- service core ---------------------------------------------------------


def test_service_answers_and_replays_from_journal(tmp_path):
    service = make_service(tmp_path, solve_fn=proved_fn)
    try:
        status, body = call(service, {"source": SRC, "steps": 3})
        assert status == 200 and body["verdict"] == "proved"
        status, again = call(service, {"source": SRC, "steps": 3})
        assert status == 200 and again.get("replayed") is True
        assert again["job_id"] == body["job_id"]
        status, job = service.job_status(body["job_id"])
        assert status == 200 and job["state"] == "done"
    finally:
        service.close()


def test_service_validates_requests(tmp_path):
    service = make_service(tmp_path, solve_fn=proved_fn)
    try:
        for payload in (None, [], {"source": ""}, {"source": 3},
                        {"source": SRC, "steps": 0},
                        {"source": SRC, "backend": "voodoo"}):
            status, body = call(service, payload)
            assert status == 400 and "error" in body
    finally:
        service.close()


def test_service_deadletters_unparseable_source(tmp_path):
    service = make_service(tmp_path)  # the real solve path
    try:
        status, body = call(service, {"source": "this is not buffy"})
        assert status == 400 and body["note"] == "invalid"
        _, job = service.job_status(body["job_id"])
        assert job["state"] == "deadletter"
        # User errors never feed the breaker.
        assert service.breaker.state is BreakerState.CLOSED
    finally:
        service.close()


def test_request_kill_chaos_feeds_breaker_and_still_answers(tmp_path):
    service = make_service(tmp_path, solve_fn=proved_fn)
    try:
        with inject_faults(seed=7, request_kill_rate=1.0) as monkey:
            status, body = call(service, {"source": variant(1)})
        assert status == 200  # terminal answer, never an error
        assert body["verdict"] == "undecided" and body["note"] == "fault"
        assert monkey.log.request_kills == 1
        _, job = service.job_status(body["job_id"])
        assert job["state"] == "failed"  # journaled for resume
    finally:
        service.close()


def test_breaker_opens_after_repeated_kills_then_recovers(tmp_path):
    breaker = CircuitBreaker(failure_threshold=3, reset_seconds=0.0)
    service = make_service(tmp_path, solve_fn=proved_fn, breaker=breaker)
    try:
        with inject_faults(seed=7, request_kill_rate=1.0):
            for i in range(3):
                status, body = call(service, {"source": variant(i)})
                assert body["note"] == "fault"
        assert breaker.trips == 1
        # reset_seconds=0: the next request is a half-open probe and,
        # with chaos gone, it succeeds and closes the breaker.
        status, body = call(service, {"source": variant(9)})
        assert status == 200 and body["verdict"] == "proved"
        assert breaker.state is BreakerState.CLOSED
    finally:
        service.close()


def test_open_breaker_short_circuits_to_fast_unknown(tmp_path):
    breaker = CircuitBreaker(failure_threshold=1, reset_seconds=3600.0)
    service = make_service(tmp_path, solve_fn=proved_fn, breaker=breaker)
    try:
        with inject_faults(seed=7, request_kill_rate=1.0):
            call(service, {"source": variant(1)})
        assert breaker.state is BreakerState.OPEN
        started = time.monotonic()
        status, body = call(service, {"source": variant(2)})
        assert status == 200 and body["note"] == "breaker_open"
        assert body["verdict"] == "undecided"
        assert time.monotonic() - started < 1.0  # fast, no solve
        # The unsolved job stays pending for `batch resume`.
        _, job = service.job_status(body["job_id"])
        assert job["state"] == "pending"
    finally:
        service.close()


def test_half_open_probe_loser_gets_503_with_retry_after(tmp_path):
    """Two concurrent requests against a HALF_OPEN breaker: one is the
    probe (solves), the loser gets an honest 503 + Retry-After instead
    of a misleading UNKNOWN."""
    breaker = CircuitBreaker(failure_threshold=1, reset_seconds=0.0)
    entered = threading.Event()
    gate = threading.Event()

    def gated_fn(rec, budget, escalation):
        entered.set()
        gate.wait(30.0)
        return AnalysisOutcome(verdict=Verdict.PROVED)

    service = make_service(tmp_path, solve_fn=gated_fn, workers=2,
                           breaker=breaker)
    try:
        breaker.record_failure()  # OPEN; reset=0 → next allow is a probe
        probe_result: dict = {}

        def probe_request() -> None:
            status, body = call(service, {"source": variant(40)})
            probe_result["status"] = status
            probe_result["body"] = body

        t = threading.Thread(target=probe_request)
        t.start()
        assert entered.wait(30.0)  # the probe holds the half-open slot
        status, body = call(service, {"source": variant(41)})
        assert status == 503
        assert body["note"] == "probe_lost"
        assert "probe in flight" in body["error"]
        assert body["retry_after"] >= 0.1
        # The loser's job is journaled for resume, not lost.
        _, job = service.job_status(body["job_id"])
        assert job["state"] == "pending"
        gate.set()
        t.join(30.0)
        assert probe_result["status"] == 200
        assert probe_result["body"]["verdict"] == "proved"
        assert breaker.state is BreakerState.CLOSED
    finally:
        gate.set()
        service.close()


def test_jobs_index_during_a_solve_leaves_the_live_record_alone(tmp_path):
    """`GET /v1/jobs` reports an in-flight job as orphaned (nothing in
    the journal says it is alive), but only on a copy: the live record
    the solve holds is never flagged, and the job still finishes."""
    entered = threading.Event()
    gate = threading.Event()
    live: list = []

    def gated_fn(rec, budget, escalation):
        live.append(rec)
        entered.set()
        gate.wait(30.0)
        return AnalysisOutcome(verdict=Verdict.PROVED)

    service = make_service(tmp_path, solve_fn=gated_fn)
    server = ReproServer(service)
    server.start_background()
    try:
        client = ServiceClient(port=server.port, timeout=30.0)
        result: dict = {}
        t = threading.Thread(target=lambda: result.update(
            client.analyze(variant(50), retry=False)))
        t.start()
        assert entered.wait(30.0)
        index = client.jobs()
        (row,) = index["jobs"]
        assert row["state"] == "orphaned"
        assert live[0].orphaned is False
        assert live[0].state == "running"
        gate.set()
        t.join(30.0)
        assert result["verdict"] == "proved"
        job = client.job(result["job_id"])
        assert job["state"] == "done"
        assert live[0].orphaned is False
    finally:
        gate.set()
        server.stop_background()


def test_health_names_the_replica_and_its_lease(tmp_path):
    service = make_service(tmp_path, solve_fn=proved_fn, name="replica-7")
    try:
        status, body = service.health()
        assert status == 200
        assert body["name"] == "replica-7"
        assert body["lease_holder"] == "replica-7"
    finally:
        service.close()


# ----- the saturation test (acceptance criterion) ---------------------------


def test_saturation_ladder_bounded_queue_and_terminal_answers(tmp_path):
    """4×Q concurrent requests against one gated worker: Q queued at
    most, 429 + Retry-After past the bound, degraded fast UNKNOWNs,
    every connection answered."""
    Q = 4
    gate = threading.Event()

    def gated_fn(rec, budget, escalation):
        if escalation is not None:
            # The degraded rung: answer a fast UNKNOWN within budget.
            budget.start()
            return AnalysisOutcome(
                verdict=Verdict.EXHAUSTED,
                report=budget.report(
                    ExhaustionReason.DEADLINE, "degraded rung"),
            )
        budget.start()
        while not gate.wait(0.01):
            if budget.exhausted() is not None:
                return AnalysisOutcome(
                    verdict=Verdict.EXHAUSTED,
                    report=budget.report(
                        ExhaustionReason.DEADLINE, "gated"),
                )
        return AnalysisOutcome(verdict=Verdict.PROVED)

    service = make_service(
        tmp_path, solve_fn=gated_fn, workers=1, queue_limit=Q,
        deadline_seconds=30.0,
    )
    server = ReproServer(service)
    server.start_background()
    results: list[dict] = []
    errors: list[Exception] = []
    lock = threading.Lock()

    def one_request(i: int) -> None:
        client = ServiceClient(port=server.port, timeout=60.0)
        try:
            doc = client.analyze(variant(i), retry=False)
        except Exception as exc:  # noqa: BLE001 - recorded for assertion
            with lock:
                errors.append(exc)
            return
        with lock:
            results.append(doc)

    try:
        threads = [
            threading.Thread(target=one_request, args=(i,))
            for i in range(4 * Q)
        ]
        for t in threads:
            t.start()
        # Open the gate only once every request has been admitted or
        # rejected, so the saturated state is what we measure.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            with service._counters_lock:
                decided = (service.counters["admitted"]
                           + service.counters["rejected"])
            if decided >= 4 * Q:
                break
            time.sleep(0.01)
        # While still saturated, Retry-After must be a real HTTP
        # header, not just a body field.
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10.0)
        try:
            conn.request(
                "POST", "/v1/analyze",
                body=json.dumps({"source": variant(999)}),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 429
            assert int(resp.getheader("Retry-After")) >= 1
        finally:
            conn.close()
        gate.set()
        for t in threads:
            t.join(60.0)

        assert not errors, f"dropped/errored connections: {errors!r}"
        assert len(results) == 4 * Q  # every request answered
        statuses = sorted(d["status"] for d in results)
        assert set(statuses) <= {200, 429}
        rejected = [d for d in results if d["status"] == 429]
        assert rejected, "saturation produced no 429s"
        for d in rejected:
            assert d["retry_after"] >= 1.0
            assert d["reason"] in ("queue_full", "shed", "rate_limited")
        answered = [d for d in results if d["status"] == 200]
        verdicts = {d["verdict"] for d in answered}
        assert "proved" in verdicts       # the gated NORMAL solve
        assert "exhausted" in verdicts    # degraded fast UNKNOWNs
        # The bounded queue never grew past Q.
        assert service.admission.max_queued <= Q
    finally:
        gate.set()
        server.stop_background()


def test_client_retries_rejects_until_admitted(tmp_path):
    """The client helper turns a transient reject into a late answer."""
    service = make_service(tmp_path, solve_fn=proved_fn, queue_limit=1)
    service.admission.draining = True  # reject everything for now
    server = ReproServer(service)
    server.start_background()
    sleeps: list[float] = []

    def fake_sleep(seconds: float) -> None:
        sleeps.append(seconds)
        service.admission.draining = False  # "the drain ended"

    try:
        client = ServiceClient(port=server.port, timeout=10.0,
                               max_retries=3, sleep=fake_sleep)
        doc = client.analyze(variant(1))
        assert doc["status"] == 200 and doc["verdict"] == "proved"
        assert sleeps and sleeps[0] >= 1.0  # honored Retry-After
    finally:
        service.admission.draining = False
        server.stop_background()


def test_client_raises_after_retry_budget(tmp_path):
    service = make_service(tmp_path, solve_fn=proved_fn)
    service.admission.draining = True
    server = ReproServer(service)
    server.start_background()
    try:
        client = ServiceClient(port=server.port, timeout=10.0,
                               max_retries=1, sleep=lambda s: None)
        with pytest.raises(ServiceUnavailable) as err:
            client.analyze(variant(1))
        assert err.value.last is not None
        assert err.value.last["reason"] == "draining"
    finally:
        service.admission.draining = False
        server.stop_background()


# ----- HTTP hygiene ---------------------------------------------------------


def test_slow_client_gets_408_not_a_held_worker(tmp_path):
    service = make_service(tmp_path, solve_fn=proved_fn,
                           read_timeout=0.3)
    server = ReproServer(service)
    server.start_background()
    try:
        sock = socket.create_connection(("127.0.0.1", server.port),
                                        timeout=10.0)
        try:
            sock.sendall(b"POST /v1/analyze HTTP/1.1\r\n")  # ...and stall
            data = sock.recv(4096)
            assert b"408" in data.split(b"\r\n", 1)[0]
        finally:
            sock.close()
        # The stalled connection cost nothing: the service still answers.
        doc = ServiceClient(port=server.port, timeout=10.0).analyze(
            variant(1), retry=False)
        assert doc["status"] == 200
    finally:
        server.stop_background()


def test_slow_client_chaos_delays_but_answers(tmp_path):
    service = make_service(tmp_path, solve_fn=proved_fn,
                           read_timeout=5.0)
    server = ReproServer(service)
    server.start_background()
    try:
        with inject_faults(seed=3, slow_client_rate=1.0,
                           slow_client_seconds=0.01) as monkey:
            doc = ServiceClient(port=server.port, timeout=10.0).analyze(
                variant(2), retry=False)
        assert doc["status"] == 200
        assert monkey.log.slow_clients >= 1
    finally:
        server.stop_background()


def test_http_surface(tmp_path):
    service = make_service(tmp_path, solve_fn=proved_fn)
    server = ReproServer(service)
    server.start_background()
    try:
        client = ServiceClient(port=server.port, timeout=10.0)
        health = client.health()
        assert health["status"] == 200 and health["state"] == "ok"
        ready = client.ready()
        assert ready["status"] == 200 and ready["ready"] is True
        client.analyze(variant(1), retry=False)  # populate the gauges
        metrics = client.metrics()
        assert "# HELP repro_serve_requests_total " in metrics
        assert "# TYPE repro_serve_requests_total counter" in metrics
        assert "# HELP repro_serve_queue_depth " in metrics
        assert "# TYPE repro_serve_queue_depth gauge" in metrics
        missing = client.job("no-such-job")
        assert missing["status"] == 404
        raw = client.request("GET", "/nowhere", retry=False)
        assert raw["status"] == 404
    finally:
        server.stop_background()
        # After drain, readiness flips (the socket is gone, but the
        # service object tells the same story).
        status, body = service.ready()
        assert status == 503 and body["draining"] is True


# ----- drain + resume (subprocess, real SIGTERM) ----------------------------


def _repro(args, *, extra_env=None, timeout=300):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env.update(extra_env or {})
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
        start_new_session=True,
    )


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.slow
def test_sigterm_drain_journals_backlog_for_resume(tmp_path):
    """SIGTERM a live server mid-burst: every connection gets a
    terminal answer, the backlog journals, and ``repro batch resume``
    completes it to the expected verdicts."""
    spool = str(tmp_path / "spool")
    port = _free_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(port), "--spool", spool,
         "--workers", "1", "--queue-limit", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, start_new_session=True,
    )
    client = ServiceClient(port=port, timeout=60.0)
    try:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                if client.health()["status"] == 200:
                    break
            except ServiceUnavailable:
                time.sleep(0.05)
        else:
            pytest.fail(f"server never came up: {proc.stderr}")

        results: list[dict] = []
        lock = threading.Lock()

        def one(i: int) -> None:
            try:
                doc = client.analyze(variant(i), steps=3, retry=False)
            except Exception as exc:  # noqa: BLE001
                doc = {"status": "error", "error": repr(exc)}
            with lock:
                results.append(doc)

        threads = [threading.Thread(target=one, args=(i,))
                   for i in range(3)]
        for t in threads:
            t.start()
        time.sleep(0.15)  # let requests reach admission / the worker
        os.kill(proc.pid, signal.SIGTERM)
        for t in threads:
            t.join(60.0)
        stdout, stderr = proc.communicate(timeout=60.0)
        assert proc.returncode == 0, stderr
        assert "drained:" in stderr

        # Terminal answers only: verdicts or drain rejects, no drops.
        assert len(results) == 3
        for doc in results:
            assert doc["status"] in (200, 503), doc

        # Whatever was journaled must resume to the expected verdict.
        status_out = _repro(["batch", "status", "--json", spool])
        assert status_out.returncode == 0, status_out.stderr
        table = json.loads(status_out.stdout)
        if table["jobs"]:
            resume = _repro(["batch", "resume", spool])
            assert resume.returncode == 0, (
                resume.stdout + resume.stderr)
            final = json.loads(
                _repro(["batch", "status", "--json", spool]).stdout)
            assert set(final["counts"]) == {"done"}
            for job in final["jobs"]:
                assert job["state"] == "done"
                assert job["verdict"] == "proved"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30.0)


def test_batch_status_json_reports_orphans(tmp_path):
    """`repro batch status --json` is machine-readable and shows
    interrupted (journaled-running) jobs as ``orphaned``."""
    from repro.persist.batch import BatchRunner

    spool = tmp_path / "spool"
    with BatchRunner(spool) as runner:
        rec = runner.submit_one(SRC, steps=2)
        runner.mark_running(rec)  # ...then "the process dies"

    out = _repro(["batch", "status", "--json", str(spool)])
    assert out.returncode == 0, out.stderr
    table = json.loads(out.stdout)
    assert table["counts"] == {"orphaned": 1}
    assert table["jobs"][0]["state"] == "orphaned"
    assert table["recovered"] == 1
    # The human rendering says it too.
    human = _repro(["batch", "status", str(spool)])
    assert "orphaned (interrupted while running)" in human.stdout
