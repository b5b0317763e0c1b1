"""The durability layer: journal, checkpoints, batch queue, io_error chaos.

Crash *recovery* end-to-end (SIGKILL a real ``repro batch run``, resume
it, compare verdicts) lives in test_batch_recovery.py; this module
covers the pieces in-process, including the hypothesis round-trip
properties for journal records and CDCL checkpoints.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.result import EXIT_DEADLETTER, Verdict
from repro.persist.batch import BatchRunner, analyze_many, job_id_for
from repro.engine.options import EngineOptions
from repro.persist.checkpoint import CheckpointStore, cnf_fingerprint
from repro.persist.journal import (
    Journal,
    canonical_json,
    frame_record,
    load_snapshot,
    payload_checksum,
    write_snapshot,
)
from repro.runtime.budget import SolverFault
from repro.runtime.chaos import inject_faults
from repro.smt.cnf import CNF
from repro.smt.sat.cdcl import CDCLConfig, CDCLSolver, SatResult
from repro.smt.solver import CheckResult, SmtSolver
from repro.smt.terms import mk_bool_var, mk_not, mk_or
from repro.trust import ProofLog


def pigeonhole(pigeons: int, holes: int) -> CNF:
    """PHP(p, h): hard UNSAT for p > h, the canonical resume workload."""
    cnf = CNF()
    var = {
        (p, h): cnf.new_var()
        for p in range(pigeons) for h in range(holes)
    }
    for p in range(pigeons):
        cnf.add_clause([var[(p, h)] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var[(p1, h)], -var[(p2, h)]])
    return cnf


SRC = """
prog(in buffer ib, out buffer ob){
  move-p(ib, ob, 1);
  assert(backlog-p(ob) >= 0);
}
"""


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path, fsync="always") as j:
            assert j.append({"kind": "a", "n": 1})
            assert j.append({"kind": "b", "xs": [1, 2, 3]})
            assert j.records_written == 2
            assert j.bytes_written > 0
        assert Journal(path).replay() == [
            {"kind": "a", "n": 1},
            {"kind": "b", "xs": [1, 2, 3]},
        ]

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            Journal(tmp_path / "j.jsonl", fsync="sometimes")

    def test_torn_tail_truncated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path, fsync="always") as j:
            j.append({"n": 1})
            j.append({"n": 2})
        good = path.read_bytes()
        # Simulate a write cut mid-record.
        path.write_bytes(good + b'{"l":17,"h":"dead')
        j2 = Journal(path)
        assert j2.replay() == [{"n": 1}, {"n": 2}]
        assert path.read_bytes() == good
        # The journal is usable again after truncation.
        assert j2.append({"n": 3})
        j2.close()
        assert Journal(path).replay() == [{"n": 1}, {"n": 2}, {"n": 3}]

    def test_corrupt_middle_record_ends_prefix(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = [frame_record({"n": 1}), frame_record({"n": 2})]
        # Flip a byte inside record 1's payload: checksum must catch it.
        bad = lines[0].replace('"n":1', '"n":7')
        path.write_text(bad + lines[1])
        assert Journal(path).replay() == []

    def test_unterminated_final_line_closed(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(frame_record({"n": 1}).rstrip("\n"))
        j = Journal(path)
        assert j.replay() == [{"n": 1}]
        assert j.append({"n": 2})
        j.close()
        assert Journal(path).replay() == [{"n": 1}, {"n": 2}]

    def test_missing_file_is_empty(self, tmp_path):
        assert Journal(tmp_path / "nope.jsonl").replay() == []

    def test_reset_truncates(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = Journal(path, fsync="never")
        j.append({"n": 1})
        j.reset()
        assert j.replay() == []

    def test_io_error_chaos_degrades(self, tmp_path):
        j = Journal(tmp_path / "j.jsonl", fsync="always")
        with inject_faults(io_error_rate=1.0, seed=3) as monkey:
            assert j.append({"n": 1}) is False
        assert j.degraded
        assert monkey.log.io_errors == 1
        assert not (tmp_path / "j.jsonl").exists()
        # Out of chaos scope writes work again (degraded stays latched).
        assert j.append({"n": 2})
        assert j.degraded

    def test_frame_checksum_definition(self):
        payload = {"b": 2, "a": 1}
        doc = json.loads(frame_record(payload))
        assert doc["r"] == payload
        assert doc["l"] == len(canonical_json(payload))
        assert doc["h"] == payload_checksum(payload)


_payloads = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.one_of(st.integers(-1000, 1000), st.booleans(),
              st.text(max_size=12),
              st.lists(st.integers(-50, 50), max_size=4)),
    max_size=4,
)


class TestJournalProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(_payloads, max_size=6))
    def test_round_trip(self, tmp_path_factory, payloads):
        path = tmp_path_factory.mktemp("wal") / "j.jsonl"
        with Journal(path, fsync="never") as j:
            for p in payloads:
                assert j.append(p)
        assert Journal(path).replay() == payloads

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_payloads, min_size=1, max_size=5), st.data())
    def test_any_truncation_leaves_valid_prefix(self, tmp_path_factory,
                                                payloads, data):
        path = tmp_path_factory.mktemp("wal") / "j.jsonl"
        with Journal(path, fsync="never") as j:
            for p in payloads:
                j.append(p)
        raw = path.read_bytes()
        cut = data.draw(st.integers(0, len(raw)))
        path.write_bytes(raw[:cut])
        recovered = Journal(path).replay()
        assert recovered == payloads[: len(recovered)]
        # After truncation the file replays identically and accepts
        # appends — a torn tail can never poison later records.
        j2 = Journal(path, fsync="never")
        assert j2.replay() == recovered
        assert j2.append({"extra": 1})
        j2.close()
        assert Journal(path).replay() == recovered + [{"extra": 1}]


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "snap.json"
        state = {"jobs": [{"id": "x", "state": "done"}]}
        assert write_snapshot(path, state)
        assert load_snapshot(path) == state

    def test_corrupt_is_a_miss_and_deleted(self, tmp_path):
        path = tmp_path / "snap.json"
        assert write_snapshot(path, {"n": 1})
        path.write_text(path.read_text()[:-4])
        assert load_snapshot(path) is None
        assert not path.exists()

    def test_io_error_chaos(self, tmp_path):
        with inject_faults(io_error_rate=1.0, seed=1):
            assert write_snapshot(tmp_path / "snap.json", {"n": 1}) is False
        assert load_snapshot(tmp_path / "snap.json") is None


# ---------------------------------------------------------------------------
# Checkpoint store
# ---------------------------------------------------------------------------


class TestCheckpointStore:
    def test_round_trip_and_discard(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.save("k1", {"format": 1, "x": [1, 2]})
        assert len(store) == 1
        assert store.load("k1") == {"format": 1, "x": [1, 2]}
        assert store.restores == 1
        store.discard("k1")
        assert len(store) == 0
        assert store.load("k1") is None

    def test_corrupt_checkpoint_is_a_miss(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("k", {"a": 1})
        path = next(tmp_path.iterdir())
        path.write_text(path.read_text().replace('"a": 1', '"a": 2'))
        assert store.load("k") is None
        assert store.corrupt == 1
        assert len(store) == 0  # dropped so it cannot keep costing reads

    def test_io_error_chaos_on_save(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with inject_faults(io_error_rate=1.0, seed=2):
            assert store.save("k", {"a": 1}) is False
        assert store.io_errors == 1
        assert store.load("k") is None

    def test_kill_during_checkpoint_keeps_previous(self, tmp_path):
        """Dying between temp write and rename never tears a checkpoint."""
        store = CheckpointStore(tmp_path)
        assert store.save("k", {"v": "old"})
        store._kill_hook = lambda: (_ for _ in ()).throw(
            OSError("process died in the torn-save window"))
        with inject_faults(kill_checkpoint_rate=1.0, seed=0) as monkey:
            assert store.save("k", {"v": "new"}) is False
        assert monkey.log.checkpoint_kills == 1
        assert store.load("k") == {"v": "old"}
        assert len(store) == 1  # no stray temp file counted


# ---------------------------------------------------------------------------
# CDCL checkpoint / resume
# ---------------------------------------------------------------------------


def _load(cnf, config=None, proof=None):
    solver = CDCLSolver(cnf.num_vars, config, proof=proof)
    for clause in cnf.clauses:
        solver.add_clause(clause)
    return solver


class TestCDCLCheckpoint:
    def test_exhausted_solve_resumes_with_learnts(self, tmp_path):
        cnf = pigeonhole(7, 6)
        s1 = _load(cnf, CDCLConfig(max_conflicts=200))
        assert s1.solve() is SatResult.UNKNOWN
        state = s1.checkpoint_state()
        assert state["learnts"]

        store = CheckpointStore(tmp_path)
        key = cnf_fingerprint(cnf.num_vars, cnf.clauses)
        assert store.save(key, state)
        loaded = store.load(key)

        s2 = _load(cnf)
        restored = s2.restore_state(loaded)
        assert restored > 0
        assert s2.restored_learnts == restored
        assert s2.solve() is SatResult.UNSAT

        # The resume demonstrably reused prior work: it finishes in
        # fewer conflicts than an identical fresh solver.
        s3 = _load(cnf)
        assert s3.solve() is SatResult.UNSAT
        assert s2.stats.conflicts < s3.stats.conflicts

    def test_restart_position_survives(self):
        cnf = pigeonhole(7, 6)
        s1 = _load(cnf, CDCLConfig(max_conflicts=500))
        s1.solve()
        state = s1.checkpoint_state()
        assert state["restarts"] > 0
        s2 = _load(cnf)
        s2.restore_state(state)
        assert s2._restart_resume == state["restarts"]

    def test_restore_refuses_proof_logging_solver(self):
        cnf = pigeonhole(5, 4)
        s1 = _load(cnf, CDCLConfig(max_conflicts=20))
        s1.solve()
        state = s1.checkpoint_state()
        s2 = _load(cnf, proof=ProofLog())
        with pytest.raises(ValueError, match="proof-logging"):
            s2.restore_state(state)

    def test_restore_rejects_var_count_mismatch(self):
        cnf = pigeonhole(5, 4)
        s1 = _load(cnf, CDCLConfig(max_conflicts=20))
        s1.solve()
        state = s1.checkpoint_state()
        other = CDCLSolver(cnf.num_vars + 3)
        with pytest.raises(ValueError, match="vars"):
            other.restore_state(state)

    def test_restore_rejects_unknown_format(self):
        solver = CDCLSolver(2)
        with pytest.raises(ValueError, match="format"):
            solver.restore_state({"format": 99, "num_vars": 2})

    def test_sat_formula_unaffected_by_resume(self):
        cnf = pigeonhole(5, 5)  # satisfiable: 5 pigeons fit 5 holes
        s1 = _load(cnf, CDCLConfig(max_conflicts=3))
        first = s1.solve()
        state = s1.checkpoint_state()
        s2 = _load(cnf)
        s2.restore_state(state)
        assert s2.solve() is SatResult.SAT
        assert first in (SatResult.SAT, SatResult.UNKNOWN)


_clauses = st.lists(
    st.lists(
        st.integers(-6, 6).filter(lambda v: v != 0),
        min_size=1, max_size=3,
    ),
    min_size=1, max_size=24,
)


class TestCheckpointProperties:
    @settings(max_examples=40, deadline=None)
    @given(_clauses)
    def test_json_round_trip_preserves_state(self, clauses):
        s1 = CDCLSolver(6, CDCLConfig(max_conflicts=5))
        for clause in clauses:
            if not s1.add_clause(clause):
                break
        s1.solve()
        state = s1.checkpoint_state()
        # The on-disk envelope is JSON: the state must survive it bit-
        # for-bit (canonical encode -> decode == identity).
        assert json.loads(canonical_json(state)) == state

    @settings(max_examples=40, deadline=None)
    @given(_clauses)
    def test_resumed_verdict_matches_fresh_verdict(self, clauses):
        s1 = CDCLSolver(6, CDCLConfig(max_conflicts=5))
        ok = True
        for clause in clauses:
            if not s1.add_clause(clause):
                ok = False
                break
        if ok:
            s1.solve()
        state = json.loads(canonical_json(s1.checkpoint_state()))

        s2 = CDCLSolver(6)
        for clause in clauses:
            if not s2.add_clause(clause):
                break
        s2.restore_state(state)
        # Restored VSIDS activities and phases match the checkpoint.
        assert list(s2._activity[1:]) == state["activity"]
        assert [1 if p else 0 for p in s2._phase[1:]] == state["phase"]

        fresh = CDCLSolver(6)
        for clause in clauses:
            if not fresh.add_clause(clause):
                break
        assert s2.solve() is fresh.solve()


# ---------------------------------------------------------------------------
# SmtSolver wiring
# ---------------------------------------------------------------------------


def _php_terms(pigeons, holes):
    """Pigeonhole as SMT boolean terms (hard UNSAT for small caps)."""
    v = {
        (p, h): mk_bool_var(f"x_{p}_{h}")
        for p in range(pigeons) for h in range(holes)
    }
    formulas = [
        mk_or(*[v[(p, h)] for h in range(holes)]) for p in range(pigeons)
    ]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                formulas.append(mk_or(mk_not(v[(p1, h)]), mk_not(v[(p2, h)])))
    return formulas


class TestSolverCheckpointWiring:
    # certify is pinned off throughout (EngineOptions defaults it to
    # False; resolve() is given certify=False): certified runs skip
    # checkpointing by design
    # (a resumed solve could not replay the proof log), so these wiring
    # tests must hold the certify axis fixed to stay green on the
    # certified CI leg.

    def test_exhaust_save_then_resume(self, tmp_path):
        store = CheckpointStore(tmp_path)
        s1 = SmtSolver(
            sat_config=CDCLConfig(max_conflicts=150),
            options=EngineOptions(jobs=1, checkpoints=store),
        )
        s1.add(*_php_terms(7, 6))
        assert s1.check() is CheckResult.UNKNOWN
        assert store.saves == 1
        assert len(store) == 1

        s2 = SmtSolver(
            options=EngineOptions(jobs=1, checkpoints=store),
        )
        s2.add(*_php_terms(7, 6))
        assert s2.check() is CheckResult.UNSAT
        # The restore counter proves the resumed solve reused the
        # checkpointed learned clauses (the acceptance telemetry).
        assert s2.last_restored_learnts > 0
        assert store.restores == 1
        # A definitive answer spends the checkpoint.
        assert len(store) == 0

    def test_checkpoints_off_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        s = SmtSolver(
            sat_config=CDCLConfig(max_conflicts=50),
            options=EngineOptions.resolve(jobs=1, cache=False, certify=False),
        )
        s.add(*_php_terms(6, 5))
        assert s.check() is CheckResult.UNKNOWN
        assert s.last_restored_learnts == 0

    def test_env_dir_enables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        s = SmtSolver(
            sat_config=CDCLConfig(max_conflicts=150),
            options=EngineOptions.resolve(jobs=1, cache=False, certify=False),
        )
        s.add(*_php_terms(7, 6))
        assert s.check() is CheckResult.UNKNOWN
        assert any(tmp_path.iterdir())

    def test_certified_run_skips_checkpointing(self, tmp_path):
        store = CheckpointStore(tmp_path)
        s1 = SmtSolver(
            sat_config=CDCLConfig(max_conflicts=150),
            options=EngineOptions(jobs=1, checkpoints=store, certify=True),
        )
        s1.add(*_php_terms(7, 6))
        assert s1.check() is CheckResult.UNKNOWN
        assert store.saves == 0  # no save: its proof log could not resume

    def test_checkpoint_keyed_by_cnf(self, tmp_path):
        """A checkpoint for one formula never applies to another."""
        store = CheckpointStore(tmp_path)
        s1 = SmtSolver(
            sat_config=CDCLConfig(max_conflicts=150),
            options=EngineOptions(jobs=1, checkpoints=store),
        )
        s1.add(*_php_terms(7, 6))
        assert s1.check() is CheckResult.UNKNOWN

        s2 = SmtSolver(
            options=EngineOptions(jobs=1, checkpoints=store),
        )
        s2.add(*_php_terms(6, 5))  # different CNF -> different key
        assert s2.check() is CheckResult.UNSAT
        assert s2.last_restored_learnts == 0
        assert store.restores == 0


# ---------------------------------------------------------------------------
# Batch runner
# ---------------------------------------------------------------------------


def _proved(*_args):
    from repro.analysis.result import AnalysisOutcome

    return AnalysisOutcome(verdict=Verdict.PROVED)


class TestBatchRunner:
    def test_submit_is_idempotent(self, tmp_path):
        with BatchRunner(tmp_path) as runner:
            ids1 = runner.submit([SRC, ("other", SRC + "\n// v2")])
            ids2 = runner.submit([SRC])
        assert ids2 == [ids1[0]]
        with BatchRunner(tmp_path) as runner:
            assert len(runner.status().records) == 2

    def test_job_id_is_content_addressed(self):
        spec = {"source": SRC, "backend": "smt", "steps": 4,
                "consts": {}, "prove": False, "options": {}}
        assert job_id_for(spec) == job_id_for(dict(spec, label="x"))
        assert job_id_for(spec) != job_id_for(dict(spec, steps=5))

    def test_run_executes_and_replays(self, tmp_path):
        calls = []
        with BatchRunner(tmp_path, executor=lambda rec: calls.append(rec)
                         or _proved()) as runner:
            runner.submit([("a", SRC)])
            report = runner.run()
        assert [r.state for r in report.records] == ["done"]
        assert report.records[0].verdict == "proved"
        assert report.exit_code == 0
        assert len(calls) == 1
        # Second run: answered from the journal, nothing re-executes.
        with BatchRunner(tmp_path, executor=_proved) as runner:
            report2 = runner.run()
        assert report2.replayed == 1
        assert report2.executed == 0
        assert report2.outcomes()[0].verdict is Verdict.PROVED

    def test_transient_failure_retries_then_succeeds(self, tmp_path):
        attempts = []
        delays = []

        def flaky(rec):
            attempts.append(rec.attempts)
            if len(attempts) < 3:
                raise SolverFault("transient")
            return _proved()

        with BatchRunner(tmp_path, max_attempts=5, seed=7,
                         executor=flaky, sleep=delays.append) as runner:
            runner.submit([SRC])
            report = runner.run()
        assert attempts == [1, 2, 3]
        assert report.retries == 2
        assert report.records[0].state == "done"
        assert len(delays) == 2
        assert delays[1] > delays[0]  # exponential backoff

    def test_deadletter_after_max_attempts(self, tmp_path):
        def always_fails(rec):
            raise OSError("disk on fire")

        with BatchRunner(tmp_path, max_attempts=2, executor=always_fails,
                         sleep=lambda _s: None) as runner:
            runner.submit([SRC])
            report = runner.run()
        rec = report.records[0]
        assert rec.state == "deadletter"
        assert rec.attempts == 2
        assert "disk on fire" in rec.error
        assert report.exit_code == EXIT_DEADLETTER

    def test_permanent_error_deadletters_immediately(self, tmp_path):
        def bad_program(rec):
            raise ValueError("parse error")

        with BatchRunner(tmp_path, max_attempts=5,
                         executor=bad_program) as runner:
            runner.submit([SRC])
            report = runner.run()
        assert report.records[0].state == "deadletter"
        assert report.records[0].attempts == 1

    def test_orphaned_running_job_is_requeued(self, tmp_path):
        """A job left 'running' by a dead process re-executes on resume."""
        with BatchRunner(tmp_path) as runner:
            (job_id,) = runner.submit([SRC])
            # Journal the transition a crashed process would leave behind.
            runner.journal.append({
                "kind": "state", "id": job_id, "state": "running",
                "attempt": 1,
            })
        status = BatchRunner(tmp_path).status()
        assert status.records[0].state == "running"
        with BatchRunner(tmp_path, executor=_proved) as runner:
            report = runner.run(resume=True)
        assert report.recovered == 1
        assert report.records[0].state == "done"
        assert report.records[0].recovered

    def test_resume_requires_a_journal(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            BatchRunner(tmp_path / "missing").run(resume=True)

    def test_compaction_preserves_state(self, tmp_path):
        with BatchRunner(tmp_path, executor=_proved,
                         compact_after_bytes=64) as runner:
            runner.submit([("a", SRC), ("b", SRC + "\n// b")])
            runner.run()  # journal > 64 bytes -> compacts into snapshot
        assert (tmp_path / BatchRunner.SNAPSHOT).exists()
        assert (tmp_path / BatchRunner.JOURNAL).stat().st_size == 0
        report = BatchRunner(tmp_path).status()
        assert sorted(r.state for r in report.records) == ["done", "done"]
        assert [r.verdict for r in report.records] == ["proved", "proved"]

    def test_real_execution_shares_result_cache(self, tmp_path):
        with BatchRunner(tmp_path) as runner:
            runner.submit([SRC], steps=2)
            report = runner.run()
        assert report.records[0].verdict == "proved"
        assert runner.cache.stats.stores > 0
        assert any((tmp_path / "cache").rglob("*.json"))


class TestLiveJobTable:
    """One live job table per runner, kept current by tailing the
    journal; the three full-replay fallbacks; constant per-request
    journal work."""

    @staticmethod
    def _count_recovers(runner, monkeypatch):
        calls = []
        real = runner.journal.recover

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner.journal, "recover", counting)
        return calls

    def test_peer_adoption_shows_up_without_executing(self, tmp_path,
                                                      monkeypatch):
        calls = []
        first = BatchRunner(tmp_path, executor=lambda rec: calls.append(rec)
                            or _proved())
        rec = first.submit_one(SRC, label="a")
        assert rec.state == "pending"
        recovers = self._count_recovers(first, monkeypatch)
        with BatchRunner(tmp_path) as second:
            jobs, _ = second.load()
            second.adopt_verdict(jobs[rec.job_id], "proved", 0,
                                 source="peer")
        again = first.submit_one(SRC, label="a")
        assert again is rec  # tailed into the live record, not rebuilt
        assert recovers == []
        assert (again.state, again.verdict) == ("done", "proved")
        assert again.adopted_from == "peer"
        report = first.run()
        assert (report.executed, report.replayed) == (0, 1)
        assert calls == []
        first.close()

    def test_foreign_compaction_forces_a_full_reload(self, tmp_path,
                                                     monkeypatch):
        journal = tmp_path / BatchRunner.JOURNAL
        reader = BatchRunner(tmp_path)
        reader.submit([("a", SRC + "\n// a")])
        old_offset = journal.stat().st_size
        recovers = self._count_recovers(reader, monkeypatch)
        with BatchRunner(tmp_path, executor=_proved,
                         compact_after_bytes=1) as other:
            other.run()  # executes "a", then compacts
            assert journal.stat().st_size == 0
            # Regrow the journal so a record boundary falls exactly on
            # the reader's old offset: a stale tail from there would
            # verify "c" and silently miss "b".
            other.submit([("b", SRC + "\n// b")])
            assert journal.stat().st_size == old_offset
            other.submit([("c", SRC + "\n// c")])
        report = reader.status()
        assert recovers == [1]
        assert [(r.label, r.state) for r in report.records] == [
            ("a", "done"), ("b", "pending"), ("c", "pending")]
        reader.close()

    def test_torn_tail_is_cut_only_by_a_full_replay(self, tmp_path,
                                                    monkeypatch):
        from repro.persist.journal import tear_tail

        journal = tmp_path / BatchRunner.JOURNAL
        runner = BatchRunner(tmp_path)
        ids = runner.submit([(f"j{i}", SRC + f"\n// {i}")
                             for i in range(3)])
        verified = journal.read_bytes()
        offset = len(verified)
        with BatchRunner(tmp_path) as peer:
            peer.submit([("late", SRC + "\n// late")])
        assert tear_tail(journal)
        torn = journal.read_bytes()
        # A tail never decides what is torn: it reports and leaves the
        # file exactly as it found it.
        assert runner.journal.tail(offset) is None
        assert journal.read_bytes() == torn
        recovers = self._count_recovers(runner, monkeypatch)
        jobs, order = runner.load()
        assert recovers == [1]
        assert journal.read_bytes() == verified  # cut to the good prefix
        assert order == ids
        # Appends after the cut start on a fresh line and stay readable.
        runner.submit([("next", SRC + "\n// next")])
        with BatchRunner(tmp_path) as fresh:
            assert len(fresh.status().records) == 4
        runner.close()

    def test_job_whose_append_failed_still_executes(self, tmp_path):
        calls = []
        runner = BatchRunner(tmp_path, executor=lambda rec: calls.append(
            rec.job_id) or _proved())
        with inject_faults(io_error_rate=1.0, seed=3) as monkey:
            (job_id,) = runner.submit([SRC])
        assert monkey.log.io_errors >= 1
        assert runner.journal.degraded
        assert not (tmp_path / BatchRunner.JOURNAL).exists()
        # A foreign compaction forces a full replay, which must not
        # forget the job only this runner's table knows.
        with BatchRunner(tmp_path) as other:
            assert other.compact(*other.load())
        report = runner.run()
        assert calls == [job_id]
        assert [(r.job_id, r.state) for r in report.records] == [
            (job_id, "done")]
        runner.close()

    def test_failed_append_never_rolls_a_job_back(self, tmp_path):
        """A tail skips this runner's own records: re-applying the
        journaled ``running`` after a ``done`` whose append failed would
        turn a solved job back into one that must run again."""
        runner = BatchRunner(tmp_path)
        rec = runner.submit_one(SRC)
        runner.mark_running(rec)
        with inject_faults(io_error_rate=1.0, seed=3):
            runner.mark_done(rec, _proved())
        again = runner.submit_one(SRC)
        assert (again.state, again.verdict) == ("done", "proved")
        runner.close()

    def test_concurrent_workers_keep_the_table_coherent(self, tmp_path):
        """More worker threads than cores submit, solve, replay and read
        one runner under a tiny switch interval: no transition is lost,
        and the live table ends equal to a fresh full replay."""
        import sys
        import threading

        runner = BatchRunner(tmp_path)
        sources = [SRC + f"\n// {i}" for i in range(48)]
        errors: list = []

        def worker(k: int) -> None:
            try:
                for src in sources[k::6]:
                    rec = runner.submit_one(src)
                    runner.mark_running(rec)
                    runner.status()
                    runner.mark_done(rec, _proved())
                    again = runner.submit_one(src)
                    assert (again.state, again.attempts) == ("done", 1)
                    assert runner.job(rec.job_id).state == "done"
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(old)
        assert errors == []

        def table(r):
            return [(rec.job_id, rec.state, rec.attempts, rec.verdict)
                    for rec in r.status().records]

        live = table(runner)
        assert len(live) == len(sources)
        assert {row[1:] for row in live} == {("done", 1, "proved")}
        with BatchRunner(tmp_path) as fresh:
            assert table(fresh) == live
        runner.close()

    def test_per_request_journal_work_is_constant(self, tmp_path,
                                                  monkeypatch):
        """With 200 jobs journaled, a replayed submit verifies no
        journal record and never fsyncs; a new one (fsync="always")
        verifies only its own record and fsyncs exactly once."""
        from repro.persist import journal as journal_mod

        runner = BatchRunner(tmp_path, executor=_proved)
        assert runner.journal.fsync == "always"
        runner.submit([(f"j{i}", SRC + f"\n// {i}") for i in range(200)])
        runner.run()
        runner.load()
        counts = {"verified": 0, "fsync": 0}
        real_unframe, real_fsync = journal_mod._unframe, os.fsync

        def unframe(line):
            counts["verified"] += 1
            return real_unframe(line)

        def fsync(fd):
            counts["fsync"] += 1
            return real_fsync(fd)

        monkeypatch.setattr(journal_mod, "_unframe", unframe)
        monkeypatch.setattr(os, "fsync", fsync)
        rec = runner.submit_one(SRC + "\n// 7", label="j7")
        assert rec.state == "done"
        assert counts == {"verified": 0, "fsync": 0}
        rec = runner.submit_one(SRC + "\n// new", label="new")
        assert rec.state == "pending"
        assert counts == {"verified": 1, "fsync": 1}
        runner.close()


class TestAnalyzeMany:
    def test_plain_loop_without_journal(self):
        outcomes = analyze_many([SRC], steps=2)
        assert [o.verdict for o in outcomes] == [Verdict.PROVED]

    def test_durable_run_and_replay(self, tmp_path):
        outcomes = analyze_many([SRC], steps=2, journal_dir=tmp_path)
        assert outcomes[0].verdict is Verdict.PROVED
        # Same directory again: the verdict replays from the journal.
        again = analyze_many([SRC], steps=2, journal_dir=tmp_path)
        assert again[0].verdict is Verdict.PROVED
        assert again[0].stats.get("attempts") == 1

    def test_facade_and_top_level_exports(self):
        import repro

        assert repro.analyze_many is not None
        assert repro.EXIT_DEADLETTER == 6
        assert {"BatchRunner", "CheckpointStore", "Journal"} <= set(
            repro.__all__)


# ---------------------------------------------------------------------------
# io_error chaos across the stack
# ---------------------------------------------------------------------------


class TestIoErrorChaos:
    def test_cache_write_degrades_to_metric(self, tmp_path):
        from repro.engine.cache import CacheEntry, ResultCache

        cache = ResultCache(disk_dir=tmp_path)
        with inject_faults(io_error_rate=1.0, seed=5) as monkey:
            cache.put("k" * 64, CacheEntry(verdict="unsat"))
        assert monkey.log.io_errors == 1
        assert cache.stats.io_errors == 1
        # In-memory tier still answers; disk has nothing.
        assert cache.get("k" * 64) is not None
        assert not any(tmp_path.rglob("*.json"))

    def test_exporters_degrade_to_false(self, tmp_path):
        from repro.obs.export import TelemetrySnapshot

        snap = TelemetrySnapshot()
        target = tmp_path / "out.json"
        with inject_faults(io_error_rate=1.0, seed=5):
            assert snap.write_chrome_trace(str(target)) is False
            assert snap.write_jsonl(str(target)) is False
            assert snap.write_prometheus(str(target)) is False
        assert not target.exists()
        assert not list(tmp_path.iterdir())  # no stray temp files
        assert snap.write_prometheus(str(target)) is True
        assert target.exists()

    def test_analysis_survives_io_errors(self, tmp_path):
        """Journal + cache + checkpoint writes all failing never changes
        the verdict — durability degrades, correctness does not."""
        with inject_faults(io_error_rate=1.0, seed=9):
            outcomes = analyze_many([SRC], steps=2, journal_dir=tmp_path)
        assert outcomes[0].verdict is Verdict.PROVED

    def test_seeded_stream_is_deterministic(self, tmp_path):
        def run(tag, seed):
            j = Journal(tmp_path / f"j{tag}.jsonl")
            with inject_faults(io_error_rate=0.5, seed=seed):
                survived = [i for i in range(12) if j.append({"i": i})]
            j.close()
            return survived

        # Same seed -> the exact same appends fail; different seeds ->
        # a different (deterministic) failure pattern.
        assert run("a", 0) == run("b", 0) == [0, 1, 4, 6, 9, 10, 11]
        assert run("c", 1) == [1, 2, 6, 7, 10]
