"""End-to-end distributed tracing and live solver introspection.

The observability tentpole's integration surface:

* one trace id from a :class:`ServiceClient` submission through the
  serve request path, the journal, and the portfolio workers;
* **crash/resume continuity** — a server SIGKILLed mid-solve leaves
  the traceparent in the journal, and ``repro batch resume`` in a
  *different* process re-adopts it, so the resumed spans join the
  original trace;
* the :class:`~repro.obs.progress.SolveProgress` beacon: CDCL emits
  samples every N conflicts, they land in the service's per-job ring
  buffer (``GET /v1/jobs/<id>/progress``) and in the on-disk mirrors
  ``repro top`` reads;
* the ``repro top`` renderer in both modes (serve endpoint and
  detached spool directory).
"""

import asyncio
import io
import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro.analysis.result import AnalysisOutcome, Verdict
from repro.obs import (
    BEACON,
    TRACER,
    make_traceparent,
    parse_traceparent,
    span_tree,
)
from repro.persist.batch import BatchRunner
from repro.serve import AnalysisService, ServeConfig

SRC = """
prog(in buffer ib, out buffer ob){
  move-p(ib, ob, 1);
  assert(backlog-p(ob) >= 0);
}
"""

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """These tests share the process-wide TRACER/METRICS/BEACON."""
    obs.reset()
    obs.disable()
    BEACON.disable()
    yield
    obs.reset()
    obs.disable()
    BEACON.disable()


def proved_fn(rec, budget, escalation):
    return AnalysisOutcome(verdict=Verdict.PROVED)


def make_service(tmp_path, *, solve_fn=proved_fn, **cfg_kwargs):
    cfg = ServeConfig(
        port=0, spool_dir=tmp_path / "spool", workers=1, **cfg_kwargs)
    return AnalysisService(cfg, solve_fn=solve_fn)


def _payload(label=None):
    doc = {"source": SRC, "backend": "smt", "steps": 3,
           "consts": {}}
    if label:
        doc["label"] = label
    return doc


def _tree_names(nodes):
    out = []
    for node in nodes:
        out.append(node["name"])
        out.extend(_tree_names(node.get("children", ())))
    return out


# ----- solver: every check path encodes inside a span -----------------------


class TestIncrementalEncodeSpan:
    def test_incremental_check_records_bitblast_under_check(self):
        from repro.smt.solver import CheckResult, SmtSolver
        from repro.smt.terms import mk_bool_var, mk_not, mk_or

        obs.enable()
        x, y = mk_bool_var("inc.x"), mk_bool_var("inc.y")
        solver = SmtSolver(incremental=True)
        solver.add(mk_or(x, y))
        assert solver.check() is CheckResult.SAT
        solver.add(mk_not(x))
        assert solver.check(mk_not(y)) is CheckResult.UNSAT

        by_id = {r.span_id: r for r in TRACER.records}
        encodes = [r for r in TRACER.records if r.name == "bitblast"]
        assert len(encodes) == 2
        for span in encodes:
            assert span.attrs["path"] == "incremental"
            assert span.attrs["cnf_clauses"] >= 1
            parent = by_id[span.parent_id]
            assert parent.name == "check"
            assert parent.attrs["path"] == "incremental"


class TestCdclSpan:
    """Each solve's ``cdcl`` span records its inprocessing rounds."""

    @pytest.mark.parametrize("incremental", [False, True])
    def test_rounds_and_their_time_reach_the_span(self, incremental):
        from repro.smt.solver import CheckResult, SmtSolver
        from repro.smt.terms import mk_bool_var, mk_not, mk_or

        obs.enable()
        # Pigeonhole 7 -> 6: long enough to reach the first restart.
        tag = f"php{int(incremental)}"
        holes = {(p, h): mk_bool_var(f"{tag}.{p}.{h}")
                 for p in range(7) for h in range(6)}
        solver = SmtSolver(incremental=incremental)
        solver.add(*[mk_or(*[holes[p, h] for h in range(6)])
                     for p in range(7)])
        solver.add(*[mk_or(mk_not(holes[p, h]), mk_not(holes[q, h]))
                     for h in range(6) for p in range(7)
                     for q in range(p + 1, 7)])
        assert solver.check() is CheckResult.UNSAT
        (span,) = [r for r in TRACER.records if r.name == "cdcl"]
        assert span.attrs["inprocessings"] == (
            solver.stats.sat.inprocessings) >= 1
        assert 0.0 < span.attrs["inprocess_s"] < span.wall


class TestLoadSpans:
    """Every CDCL load and every proof check gets a span."""

    @staticmethod
    def _unsat(solver):
        from repro.smt.terms import mk_bool_var, mk_not, mk_or

        x, y = mk_bool_var("load.x"), mk_bool_var("load.y")
        solver.add(mk_or(x, y), mk_or(x, mk_not(y)), mk_or(mk_not(x), y),
                   mk_or(mk_not(x), mk_not(y)))

    @pytest.mark.parametrize("path,jobs,incremental", [
        ("oneshot", 1, False),
        ("portfolio", 2, False),
        ("incremental", 1, True),
    ])
    def test_cnf_load_span_per_path(self, path, jobs, incremental):
        from repro.engine.options import EngineOptions
        from repro.smt.solver import CheckResult, SmtSolver

        obs.enable()
        solver = SmtSolver(incremental=incremental,
                           options=EngineOptions(jobs=jobs, certify=True))
        self._unsat(solver)
        assert solver.check() is CheckResult.UNSAT
        loads = [r for r in TRACER.records if r.name == "cnf-load"]
        assert loads and {r.attrs["path"] for r in loads} == {path}
        assert sum(r.attrs["clauses"] for r in loads) == (
            solver.stats.cnf_clauses * len(loads))
        if path != "portfolio":
            by_id = {r.span_id: r for r in TRACER.records}
            (load,) = loads
            assert by_id[load.parent_id].name == "check"
            # Encoding and loading are sibling spans on both paths.
            (encode,) = [r for r in TRACER.records
                         if r.name == "bitblast"]
            assert encode.parent_id == load.parent_id

    @pytest.mark.parametrize("incremental", [False, True])
    def test_proof_check_splits_loading_from_replay(self, incremental):
        from repro.engine.options import EngineOptions
        from repro.smt.solver import CheckResult, SmtSolver

        obs.enable()
        solver = SmtSolver(incremental=incremental,
                           options=EngineOptions(jobs=1, certify=True))
        self._unsat(solver)
        assert solver.check() is CheckResult.UNSAT
        cert = solver.certificate
        assert cert is not None and cert.verified
        # One span for the whole check: the checker loads no CNF, only
        # the originals the hints cite, and walks the hints.
        (check,) = [r for r in TRACER.records if r.name == "proof-check"]
        assert not [r for r in TRACER.records
                    if r.parent_id == check.span_id]
        assert check.attrs["path"] == (
            "incremental" if incremental else "oneshot")
        assert check.attrs["steps"] == len(cert.steps) > 0
        assert check.attrs["hints"] == sum(
            len(step[3]) for step in cert.steps if step[0] == "a") > 0
        assert check.attrs["cited"] == len(cert.clauses)
        assert 0 < check.attrs["cited"] <= solver.stats.cnf_clauses


# ----- serve: request path, trace + progress endpoints -----------------------


class TestServeTracing:
    def test_request_joins_caller_trace_and_trace_endpoint_stitches(
            self, tmp_path):
        def solve_fn(rec, budget, escalation):
            BEACON.emit({
                "conflicts": 100, "decisions": 250, "propagations": 9000,
                "restarts": 2, "learnt": 40, "trail": 7, "num_vars": 64,
                "conflicts_per_s": 50.0, "props_per_s": 4500.0,
            })
            return AnalysisOutcome(verdict=Verdict.PROVED)

        service = make_service(tmp_path, solve_fn=solve_fn)
        tp = make_traceparent()
        trace_id, client_span = parse_traceparent(tp)
        status, body = asyncio.run(
            service.analyze(_payload(), traceparent=tp))
        assert status == 200 and body["verdict"] == "proved"
        assert body["trace_id"] == trace_id
        job_id = body["job_id"]

        # The journaled record carries the trace for a later resume.
        jobs, _ = service.runner.load()
        assert jobs[job_id].trace_id == trace_id

        status, doc = service.job_trace(job_id)
        assert status == 200
        assert doc["trace_id"] == trace_id
        names = _tree_names(doc["spans"])
        for expected in ("serve-request", "serve-admission",
                         "journal-submit", "solve-job"):
            assert expected in names, names
        # serve-request is a root here (its parent lives in the caller's
        # process) and is parented on the caller's span id.
        roots = [n["name"] for n in doc["spans"]]
        assert "serve-request" in roots
        req = next(n for n in doc["spans"] if n["name"] == "serve-request")
        assert req["parent_id"] == client_span

        status, doc = service.job_progress(job_id)
        assert status == 200 and doc["state"] == "done"
        assert doc["latest"]["job"] == job_id
        assert doc["latest"]["conflicts"] == 100
        assert len(doc["samples"]) == 1

        status, doc = service.jobs_index()
        assert status == 200
        row = next(r for r in doc["jobs"] if r["job_id"] == job_id)
        assert row["trace_id"] == trace_id
        assert row["progress"]["conflicts"] == 100

        # The beacon mirror is on disk for a detached `repro top`.
        mirror = tmp_path / "spool" / "progress" / f"{job_id}.json"
        assert mirror.exists()
        assert json.loads(mirror.read_text())["latest"]["conflicts"] == 100

    def test_trace_and_progress_404_for_unknown_job(self, tmp_path):
        service = make_service(tmp_path)
        assert service.job_trace("nope")[0] == 404
        assert service.job_progress("nope")[0] == 404

    def test_minted_trace_when_client_sends_none(self, tmp_path):
        service = make_service(tmp_path)
        status, body = asyncio.run(service.analyze(_payload()))
        assert status == 200
        assert len(body["trace_id"]) == 32

    def test_http_layer_routes_trace_and_progress(self, tmp_path):
        from repro.client import ServiceClient
        from repro.serve import ReproServer

        service = make_service(tmp_path)
        server = ReproServer(service)
        server.start_background()
        try:
            client = ServiceClient(port=server.port, timeout=10)
            body = client.analyze(SRC, steps=3,
                                  retry=False)
            assert body["status"] == 200
            tid = parse_traceparent(client.last_traceparent)[0]
            assert body["trace_id"] == tid
            job_id = body["job_id"]
            doc = client.job_trace(job_id)
            assert doc["status"] == 200 and doc["trace_id"] == tid
            assert "serve-request" in _tree_names(doc["spans"])
            doc = client.job_progress(job_id)
            assert doc["status"] == 200 and doc["job_id"] == job_id
            index = client.jobs()
            assert index["status"] == 200
            assert any(r["job_id"] == job_id for r in index["jobs"])
        finally:
            server.stop_background()
            service.runner.close()


# ----- CDCL beacon emission --------------------------------------------------


def _pigeonhole_cnf(holes):
    """PHP(holes+1, holes): deterministically UNSAT with real conflicts."""
    pigeons = holes + 1

    def var(p, h):
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


class TestSolveProgressBeacon:
    def test_cdcl_emits_samples_at_the_configured_interval(self):
        from repro.smt.sat.cdcl import CDCLSolver, SatResult

        num_vars, clauses = _pigeonhole_cnf(6)
        samples = []
        with BEACON.routed(samples.append, interval=10):
            solver = CDCLSolver(num_vars)
            for clause in clauses:
                solver.add_clause(clause)
            assert solver.solve() is SatResult.UNSAT
        assert samples, "an UNSAT pigeonhole solve must emit beacons"
        conflicts = [s["conflicts"] for s in samples]
        assert conflicts == sorted(conflicts)
        first = samples[0]
        for key in ("conflicts", "decisions", "propagations", "restarts",
                    "learnt", "trail", "num_vars", "conflicts_per_s",
                    "props_per_s", "ts", "job", "phase"):
            assert key in first, key
        assert first["num_vars"] == num_vars
        assert first["conflicts"] >= 10

    def test_disabled_beacon_emits_nothing(self):
        from repro.smt.sat.cdcl import CDCLSolver, SatResult

        num_vars, clauses = _pigeonhole_cnf(5)
        samples = []
        BEACON.disable()
        solver = CDCLSolver(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        assert solver.solve() is SatResult.UNSAT
        assert samples == []

    def test_phase_context_rides_along(self):
        from repro.obs import phase_scope, progress_scope
        from repro.smt.sat.cdcl import CDCLSolver, SatResult

        num_vars, clauses = _pigeonhole_cnf(6)
        samples = []
        with BEACON.routed(samples.append, interval=10), \
                progress_scope("job-xyz"), phase_scope(vc="asserts", rung=1):
            solver = CDCLSolver(num_vars)
            for clause in clauses:
                solver.add_clause(clause)
            assert solver.solve() is SatResult.UNSAT
        assert samples
        assert samples[0]["job"] == "job-xyz"
        assert samples[0]["phase"] == {"vc": "asserts", "rung": 1}


# ----- worker re-parenting under the parallel portfolio ----------------------


class TestWorkerReparenting:
    def test_worker_spans_join_the_dispatching_trace(self, monkeypatch):
        import repro

        monkeypatch.setenv("REPRO_JOBS", "2")
        outcome = repro.analyze(
            SRC, steps=3, telemetry=True, cache=False)
        snap = outcome.telemetry
        main_pid = os.getpid()
        worker_spans = [s for s in snap.spans if s["pid"] != main_pid]
        assert worker_spans, "REPRO_JOBS=2 must produce worker spans"
        trace_ids = {s["trace_id"] for s in snap.spans if s["trace_id"]}
        assert len(trace_ids) == 1, (
            f"one analysis must be one trace, got {trace_ids}")
        # Worker roots parent under a span that exists in the main
        # process — the cross-process stitch Perfetto renders.
        main_ids = {s["span_id"] for s in snap.spans
                    if s["pid"] == main_pid}
        worker_ids = {s["span_id"] for s in worker_spans}
        worker_roots = [s for s in worker_spans
                        if s["parent_id"] not in worker_ids]
        assert worker_roots
        for root in worker_roots:
            assert root["parent_id"] in main_ids


# ----- crash/resume trace continuity -----------------------------------------


_SERVER_SCRIPT = """
import sys, time
from pathlib import Path

from repro.analysis.result import AnalysisOutcome, Verdict
from repro.serve import AnalysisService, ReproServer, ServeConfig

spool, portfile, marker = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3])

def solve_fn(rec, budget, escalation):
    marker.write_text("started")
    time.sleep(600)  # hold the solve until SIGKILL
    return AnalysisOutcome(verdict=Verdict.PROVED)

service = AnalysisService(
    ServeConfig(port=0, spool_dir=spool, workers=1), solve_fn=solve_fn)
server = ReproServer(service)
server.start_background()
portfile.write_text(str(server.port))
time.sleep(600)
"""


def _wait_for(predicate, timeout=30.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {what}")


class TestCrashResumeContinuity:
    def test_one_trace_id_spans_submit_sigkill_and_resume(self, tmp_path):
        """Submit via ServiceClient, SIGKILL the server mid-solve, then
        ``batch resume`` in *this* process: the journaled traceparent
        stitches all three into one trace."""
        from repro.client import ServiceClient

        spool = tmp_path / "spool"
        portfile = tmp_path / "port"
        marker = tmp_path / "started"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", textwrap.dedent(_SERVER_SCRIPT),
             str(spool), str(portfile), str(marker)],
            env=env, cwd=str(tmp_path), start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            _wait_for(lambda: portfile.exists() and portfile.read_text(),
                      what="server port")
            client = ServiceClient(
                port=int(portfile.read_text()), timeout=120)
            submitter = threading.Thread(
                target=lambda: _swallow(
                    lambda: client.analyze(SRC, steps=3,
                                           retry=False)),
                daemon=True,
            )
            submitter.start()
            _wait_for(marker.exists, what="solve to start")
            # The machine dies mid-solve.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            submitter.join(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                os.killpg(proc.pid, signal.SIGKILL)

        assert client.last_traceparent is not None
        trace_id, _client_span = parse_traceparent(client.last_traceparent)

        # The dead server journaled the submission with its trace.
        obs.enable()
        with BatchRunner(spool, executor=proved_fn_record) as runner:
            jobs, _ = runner.load()
            (rec,) = jobs.values()
            assert rec.trace_id == trace_id
            assert rec.state == "running"  # orphaned mid-solve
            journal_span = parse_traceparent(rec.trace)[1]
            report = runner.run(resume=True)
        assert report.recovered == 1
        assert report.records[0].state == "done"

        # The resumed batch-job span continues the ORIGINAL trace,
        # parented on the span that journaled the submission.
        batch_spans = [r for r in TRACER.records if r.name == "batch-job"]
        assert len(batch_spans) == 1
        span = batch_spans[0]
        assert span.trace_id == trace_id
        assert span.parent_id == journal_span
        assert span.attrs["resumed"] is True

        # And the journaled row exposes the trace id for `repro top`
        # / `batch status --json` consumers.
        row = runner.status().to_json()["jobs"][0]
        assert row["trace_id"] == trace_id


def proved_fn_record(rec):
    return AnalysisOutcome(verdict=Verdict.PROVED)


def _swallow(fn):
    try:
        fn()
    except Exception:
        pass  # the server died under this request, by design


# ----- repro top -------------------------------------------------------------


class TestReproTop:
    def test_dir_mode_renders_jobs_and_progress(self, tmp_path):
        from repro.obs import progress_scope
        from repro.top import run_top

        spool = tmp_path / "spool"
        with BatchRunner(spool, executor=proved_fn_record) as runner:
            runner.submit([("demo", SRC)], steps=3)
            report = runner.run()
        assert report.executed == 1
        # Mirror a beacon sample the way a live run would.
        from repro.obs import ProgressBook

        book = ProgressBook(spool / "progress")
        job_id = report.records[0].job_id
        with BEACON.routed(book.record), progress_scope(job_id):
            BEACON.emit({"conflicts": 1234, "decisions": 5, "restarts": 0,
                         "propagations": 99, "learnt": 3, "trail": 2,
                         "num_vars": 8, "conflicts_per_s": 1.0,
                         "props_per_s": 2.0})
        out = io.StringIO()
        assert run_top(str(spool), once=True, out=out) == 0
        frame = out.getvalue()
        assert "repro top" in frame and "demo" in frame
        assert "done" in frame and "proved" in frame
        assert "cfl 1234" in frame  # the beacon sample made the frame

    def test_serve_mode_renders_health_and_jobs(self, tmp_path):
        from repro.serve import ReproServer
        from repro.top import run_top

        service = make_service(tmp_path)
        server = ReproServer(service)
        server.start_background()
        try:
            status, body = asyncio.run(
                service.analyze(_payload(label="served-job")))
            assert status == 200
            out = io.StringIO()
            rc = run_top(f"127.0.0.1:{server.port}", once=True, out=out)
            assert rc == 0
            frame = out.getvalue()
            assert "serve http://127.0.0.1" in frame
            assert "served-job" in frame and "done" in frame
        finally:
            server.stop_background()
            service.runner.close()

    def test_bad_target_is_a_usage_error(self, tmp_path):
        from repro.top import run_top

        assert run_top(str(tmp_path / "missing"), once=True,
                       out=io.StringIO()) == 4

    def test_cli_top_once_subprocess(self, tmp_path):
        spool = tmp_path / "spool"
        with BatchRunner(spool, executor=proved_fn_record) as runner:
            runner.submit([("cli-demo", SRC)], steps=3)
            runner.run()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "top", str(spool), "--once"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "cli-demo" in proc.stdout and "done" in proc.stdout
