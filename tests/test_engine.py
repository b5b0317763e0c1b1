"""Engine tests: parallel portfolio, incremental solving, result cache.

The contract under test: whatever the engine configuration — ``jobs``
> 1, a shared incremental encoding, a warm result cache — every query
must return the *same verdict* as the plain sequential solver, because
all portfolio members are complete decision procedures over the same
CNF.  Only wall-clock and models (among equally valid ones) may differ.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.dafny import DafnyBackend, VCStatus
from repro.backends.smt_backend import SmtBackend, Status
from repro.baselines.fperf_fq import encode_fq_baseline
from repro.baselines.fperf_prio import encode_prio_baseline
from repro.baselines.fperf_rr import encode_rr_baseline
from repro.compiler.symexec import EncodeConfig
from repro.engine import EngineOptions, ResultCache, formula_fingerprint
from repro.engine.parallel import PortfolioPool, SlotResult
from repro.netmodels.schedulers import fq_buggy, fq_fixed, round_robin, strict_priority
from repro.runtime.budget import Budget, ExhaustionReason
from repro.smt.intervals import BoundsEnv, Interval
from repro.smt.sat.cdcl import SatResult
from repro.smt.solver import CheckResult, SmtSolver
from repro.smt.sorts import BOOL, INT
from repro.smt.stats import SatStats
from repro.smt.terms import (
    Op,
    Term,
    mk_and,
    mk_bool_var,
    mk_int,
    mk_int_var,
    mk_le,
    mk_not,
    mk_or,
    mk_var,
)
from repro.trust import Certificate

N, T, CAP, ARR = 2, 4, 5, 2
CONFIG = EncodeConfig(buffer_capacity=CAP, arrivals_per_step=ARR)

SCHEDULERS = {
    "prio": strict_priority,
    "rr": round_robin,
    "fq": fq_buggy,
}


def _queries(backend: SmtBackend):
    deq0 = backend.deq_count("ibs[0]")
    deq1 = backend.deq_count("ibs[1]")
    return {
        "q0_dominates": mk_and(mk_le(mk_int(3), deq0), mk_le(deq1, mk_int(0))),
        "both_heavy": mk_and(mk_le(mk_int(3), deq0), mk_le(mk_int(3), deq1)),
        "impossible_total": mk_le(mk_int(T + 1), deq0 + deq1),
    }


# ----- parallel portfolio ----------------------------------------------------


class TestParallelPortfolio:
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_verdicts_match_sequential(self, scheduler):
        """jobs=2 answers exactly what jobs=1 answers, on every query."""
        maker = SCHEDULERS[scheduler]
        seq = SmtBackend(maker(N), steps=T, config=CONFIG, jobs=1)
        par = SmtBackend(maker(N), steps=T, config=CONFIG, jobs=2)
        for name, query in _queries(seq).items():
            expected = seq.find_trace(query).status
            got = par.find_trace(_queries(par)[name]).status
            assert got is expected, f"{scheduler}/{name}"

    def test_parallel_sat_model_is_validated(self):
        x, y = mk_int_var("x"), mk_int_var("y")
        solver = SmtSolver(options=EngineOptions.resolve(jobs=2))
        solver.set_bounds(x, 0, 15)
        solver.set_bounds(y, 0, 15)
        solver.add(mk_le(mk_int(5), x + y), mk_le(x, mk_int(3)))
        assert solver.check() is CheckResult.SAT
        model = solver.model()
        assert model["x"] + model["y"] >= 5 and model["x"] <= 3

    def test_parallel_unsat(self):
        a = mk_bool_var("a")
        solver = SmtSolver(options=EngineOptions.resolve(jobs=3))
        solver.add(a, mk_not(a))
        assert solver.check() is CheckResult.UNSAT

    def test_parallel_unknown_preserves_attempts_and_reason(self):
        """A capped parallel run reports the same attempts as sequential."""
        from repro.runtime import EscalationPolicy
        from repro.smt.sat.cdcl import CDCLConfig

        solver = SmtSolver(
            options=EngineOptions.resolve(jobs=2),
            sat_config=CDCLConfig(max_conflicts=3),
            escalation=EscalationPolicy(max_attempts=3),
        )
        xs = [mk_int_var(f"q{i}") for i in range(8)]
        for x in xs:
            solver.set_bounds(x.name, 0, 50)
        acc = xs[0]
        for x in xs[1:]:
            acc = acc * x
        solver.add(mk_le(mk_int(10 ** 6), acc))
        result = solver.check()
        if result is CheckResult.UNKNOWN:
            assert solver.last_report is not None
            assert solver.last_report.reason is ExhaustionReason.CONFLICTS
            # Every ladder rung was dispatched (sequential semantics).
            assert solver.stats.attempts == 3


# ----- incremental solving ---------------------------------------------------


class TestIncrementalSolving:
    def test_push_pop_matches_fresh_solvers(self):
        x, y = mk_int_var("x"), mk_int_var("y")
        base = [mk_le(mk_int(0), x), mk_le(x + y, mk_int(10))]
        layers = [
            [mk_le(mk_int(8), x)],
            [mk_le(mk_int(3), y)],   # pushed on top: 8<=x, x+y<=10, 3<=y → UNSAT
        ]
        inc = SmtSolver(incremental=True)
        inc.set_bounds(x, 0, 15)
        inc.set_bounds(y, 0, 15)
        inc.add(*base)
        assert inc.check() is CheckResult.SAT
        inc.push()
        inc.add(*layers[0])
        assert inc.check() is CheckResult.SAT
        inc.push()
        inc.add(*layers[1])
        assert inc.check() is CheckResult.UNSAT
        inc.pop()
        assert inc.check() is CheckResult.SAT  # learned clauses retained, still sound
        inc.pop()
        assert inc.check() is CheckResult.SAT

        # The same sequence with fresh one-shot solvers agrees.
        for extra, expected in [
            ([], CheckResult.SAT),
            (layers[0], CheckResult.SAT),
            (layers[0] + layers[1], CheckResult.UNSAT),
        ]:
            fresh = SmtSolver()
            fresh.set_bounds(x, 0, 15)
            fresh.set_bounds(y, 0, 15)
            fresh.add(*base, *extra)
            assert fresh.check() is expected

    def test_check_assumptions_do_not_stick(self):
        a, b = mk_bool_var("a"), mk_bool_var("b")
        solver = SmtSolver(incremental=True)
        solver.add(mk_or(a, b))
        assert solver.check(mk_not(a), mk_not(b)) is CheckResult.UNSAT
        # The failed assumptions must not poison later calls.
        assert solver.check(mk_not(a)) is CheckResult.SAT
        assert solver.model()["b"] is True
        assert solver.check() is CheckResult.SAT

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_incremental_backend_matches_fresh(self, scheduler):
        """One shared encoding answers like a fresh solver per query."""
        maker = SCHEDULERS[scheduler]
        fresh = SmtBackend(maker(N), steps=T, config=CONFIG)
        shared = SmtBackend(maker(N), steps=T, config=CONFIG,
                            incremental=True)
        for name, query in _queries(fresh).items():
            expected = fresh.find_trace(query).status
            got = shared.find_trace(_queries(shared)[name]).status
            assert got is expected, f"{scheduler}/{name}"

    @staticmethod
    def _dafny_queries():
        def conservation(view):
            return mk_and(*[
                (view.deq_p(label) + view.backlog_p(label)).eq(
                    view.enq_p(label))
                for label in view.buffer_labels()
            ])

        def bounded_backlog(view):
            return mk_and(*[
                mk_le(view.backlog_p(label), mk_int(CAP))
                for label in view.buffer_labels()
            ])

        return [("conservation", conservation),
                ("bounded_backlog", bounded_backlog)]

    def test_dafny_discharges_vcs_against_shared_encoding(self):
        queries = self._dafny_queries()
        seq = DafnyBackend(fq_fixed(2), config=CONFIG, jobs=1)
        report = seq.verify_monolithic(3, queries=queries)
        assert report.vcs and report.ok
        # Sequential jobs=1 runs incrementally by default: re-verify
        # with incremental off and compare per-VC statuses.
        oneshot = DafnyBackend(fq_fixed(2), config=CONFIG, jobs=1,
                               incremental=False)
        baseline = oneshot.verify_monolithic(3, queries=queries)
        assert [vc.status for vc in report.vcs] == \
            [vc.status for vc in baseline.vcs]

    def test_dafny_parallel_vcs_match_sequential(self):
        queries = self._dafny_queries()
        seq = DafnyBackend(fq_fixed(2), config=CONFIG, jobs=1)
        par = DafnyBackend(fq_fixed(2), config=CONFIG, jobs=2)
        seq_report = seq.verify_monolithic(3, queries=queries)
        par_report = par.verify_monolithic(3, queries=queries)
        assert seq_report.vcs
        assert [(vc.name, vc.status) for vc in seq_report.vcs] == \
            [(vc.name, vc.status) for vc in par_report.vcs]


# ----- data-parallel VC batch ------------------------------------------------


def _fig6_queries(horizon):
    """The Fig-6 VCs: total_work verifies, capacity fails."""

    def total_work(view):
        return mk_le(view.deq_p("ibs[0]") + view.deq_p("ibs[1]"),
                     view.enq_p("ibs[0]") + view.enq_p("ibs[1]"))

    def capacity(view):
        return mk_le(view.backlog_p("ibs[0]"), mk_int(horizon - 1))

    def conservation(view):
        return (view.deq_p("ibs[0]") + view.backlog_p("ibs[0]")).eq(
            view.enq_p("ibs[0]"))

    return [("total_work", total_work), ("capacity", capacity),
            ("conservation", conservation)]


def _fig6_vcs(maker, horizon, **engine):
    backend = DafnyBackend(maker(N), config=CONFIG, **engine)
    report = backend.verify_monolithic(horizon,
                                       queries=_fig6_queries(horizon))
    return [(vc.name, vc.status, vc.cnf_vars, vc.cnf_clauses)
            for vc in report.vcs]


class TestVCBatch:
    """``jobs > 1`` answers a machine's VCs through SmtSolver.check_each."""

    @pytest.mark.parametrize("certify", [False, True])
    def test_batch_matches_sequential_then_answers_from_cache(self, certify):
        for maker in (fq_buggy, fq_fixed):
            for horizon in (1, 2, 3):
                seq = _fig6_vcs(maker, horizon, jobs=1, cache=False,
                                certify=certify)
                cache = ResultCache()
                assert _fig6_vcs(maker, horizon, jobs=2, cache=cache,
                                 certify=certify) == seq
                assert cache.stats.hits == 0
                misses = cache.stats.misses
                again = _fig6_vcs(maker, horizon, jobs=2, cache=cache,
                                  certify=certify)
                if certify:
                    # The cached UNSATs carry no proof: a certified run
                    # refuses both, and they count as misses, not hits.
                    assert (cache.stats.hits,
                            cache.stats.misses - misses) == (1, 2)
                else:
                    assert cache.stats.hits == len(seq)
                assert [vc[:2] for vc in again] == [vc[:2] for vc in seq]
                if not certify:
                    # All answered from the cache, with the stored sizes.
                    # A certified run re-derives the cached UNSATs (they
                    # carry no proof) on a CNF without the cached goals.
                    assert again == seq

    def test_cache_hits_skip_the_pool(self, monkeypatch):
        cache = ResultCache()
        seq = _fig6_vcs(fq_buggy, 2, jobs=2, cache=cache, certify=False)
        monkeypatch.setattr(
            PortfolioPool, "solve_many",
            lambda *args, **kwargs: pytest.fail("a cached VC was re-solved"))
        assert _fig6_vcs(fq_buggy, 2, jobs=2, cache=cache,
                         certify=False) == seq

    def test_batch_key_is_the_one_shot_check_key(self):
        cache = ResultCache()
        _fig6_vcs(fq_buggy, 2, jobs=2, cache=cache, certify=False)
        hits, misses = cache.stats.hits, cache.stats.misses
        oneshot = _fig6_vcs(fq_buggy, 2, jobs=1, cache=cache,
                            certify=False, incremental=False)
        assert cache.stats.misses == misses
        assert cache.stats.hits == hits + len(oneshot)

    def test_rejected_proof_degrades_only_its_vc(self, monkeypatch):
        verify = Certificate.verify
        seen = []

        def reject_first(cert, budget=None, checker=None):
            seen.append(cert)
            if len(seen) == 1:
                cert.error = "rejected"
                return False
            return verify(cert, budget, checker=checker)

        monkeypatch.setattr(Certificate, "verify", reject_first)
        backend = DafnyBackend(fq_fixed(N), config=CONFIG, jobs=2,
                               cache=False, certify=True)
        report = backend.verify_monolithic(2, queries=_fig6_queries(2))
        first, *rest = report.vcs
        assert first.status is VCStatus.UNKNOWN
        assert first.resource_report.reason is \
            ExhaustionReason.CERTIFICATION_FAILED
        assert first.resource_report.proofs_failed == 1
        assert [(vc.name, vc.status) for vc in rest] == [
            ("capacity", VCStatus.FAILED),
            ("conservation", VCStatus.VERIFIED),
        ]

    @pytest.mark.parametrize("lost", [
        None,
        SlotResult(SatResult.UNKNOWN, None, "fault", SatStats(),
                   error="worker raised"),
    ], ids=["lost", "errored"])
    def test_unanswered_slot_is_answered_by_check(self, monkeypatch, lost):
        seq = _fig6_vcs(fq_buggy, 2, jobs=1, cache=False, certify=False)
        solve_many = PortfolioPool.solve_many

        def lose_first(pool, *args, **kwargs):
            return [lost] + solve_many(pool, *args, **kwargs)[1:]

        checks = []
        check = SmtSolver.check

        def counted_check(solver, *assumptions):
            checks.append(assumptions)
            return check(solver, *assumptions)

        monkeypatch.setattr(PortfolioPool, "solve_many", lose_first)
        monkeypatch.setattr(SmtSolver, "check", counted_check)
        batch = _fig6_vcs(fq_buggy, 2, jobs=2, cache=False, certify=False)
        assert [vc[:2] for vc in batch] == [vc[:2] for vc in seq]
        assert len(checks) == 1


# ----- result cache ----------------------------------------------------------


def _priority_backend(**engine):
    return SmtBackend(strict_priority(N), steps=3, config=CONFIG, **engine)


class TestResultCache:
    def test_cache_hit_returns_identical_verdict(self):
        cache = ResultCache()
        first = _priority_backend(cache=cache)
        query = mk_le(mk_int(1), first.deq_count("ibs[1]"))
        miss = first.find_trace(query)
        assert miss.status is Status.SATISFIED
        assert cache.stats.misses >= 1 and cache.stats.hits == 0

        second = _priority_backend(cache=cache)
        hit = second.find_trace(mk_le(mk_int(1), second.deq_count("ibs[1]")))
        assert hit.status is Status.SATISFIED
        assert cache.stats.hits == 1
        assert hit.solver_stats.cache_hit
        # The replayed model still satisfies the query.
        assert hit.counterexample.total_arrivals() >= 1

    def test_unsat_is_cached(self):
        # certify=False: certified runs treat proof-less cached UNSAT
        # entries as misses, and this test asserts the uncertified
        # cache semantics regardless of REPRO_CERTIFY.
        cache = ResultCache()
        a = mk_bool_var("a")
        for expect_hit in (False, True):
            solver = SmtSolver(
                options=EngineOptions.resolve(cache=cache, certify=False))
            solver.add(a, mk_not(a))
            assert solver.check() is CheckResult.UNSAT
            assert solver.stats.cache_hit is expect_hit

    def test_disk_cache_survives_process_state(self, tmp_path):
        a, b = mk_bool_var("a"), mk_bool_var("b")
        formula = mk_and(mk_or(a, b), mk_not(a))
        first = SmtSolver(options=EngineOptions.resolve(
            cache=ResultCache(disk_dir=tmp_path)))
        first.add(formula)
        assert first.check() is CheckResult.SAT

        # A brand-new cache over the same directory: memory-cold, disk-warm.
        cold = ResultCache(disk_dir=tmp_path)
        second = SmtSolver(options=EngineOptions.resolve(cache=cold))
        second.add(formula)
        assert second.check() is CheckResult.SAT
        assert cold.stats.disk_hits == 1
        assert second.model()["b"] is True

    def test_disk_key_is_independent_of_construction_order(self, tmp_path):
        """EQ, XOR and MUL order their args by creation serial, which
        follows the order the operands were built in: two processes that
        build the same formula in opposite orders still share one disk
        entry."""
        script = textwrap.dedent("""
            import json, sys
            from repro.engine import EngineOptions, ResultCache, formula_fingerprint
            from repro.smt.intervals import BoundsEnv, Interval
            from repro.smt.solver import CheckResult, SmtSolver
            from repro.smt.terms import (
                mk_and, mk_bool_var, mk_eq, mk_int, mk_int_var, mk_le,
                mk_mul, mk_xor)

            made = {}
            for name in sys.argv[2:]:
                made[name] = (mk_bool_var if name in "pq" else mk_int_var)(name)
            x, y, p, q = (made[n] for n in "xypq")
            eq, mul, xor = mk_eq(x, y), mk_mul(x, y), mk_xor(p, q)
            formula = mk_and(eq, mk_le(mk_int(4), mul), xor)
            key = formula_fingerprint(
                [formula], BoundsEnv({"x": Interval(0, 3), "y": Interval(0, 3)}))
            cache = ResultCache(disk_dir=sys.argv[1])
            solver = SmtSolver(options=EngineOptions.resolve(cache=cache, jobs=1))
            solver.set_bounds(x, 0, 3)
            solver.set_bounds(y, 0, 3)
            solver.add(formula)
            assert solver.check() is CheckResult.SAT
            print(json.dumps({
                "key": key, "disk_hits": cache.stats.disk_hits,
                "firsts": [t.args[0].name for t in (eq, mul, xor)]}))
        """)

        def run(*order):
            proc = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path), *order],
                capture_output=True, text=True, env=os.environ.copy(),
                timeout=120, check=True)
            return json.loads(proc.stdout.splitlines()[-1])

        built_first = run("x", "y", "p", "q")
        built_second = run("y", "x", "q", "p")
        # Which operand each process stores first follows its allocation
        # pattern; the key and the disk entry must not.
        assert built_first["key"] == built_second["key"]
        assert (built_first["disk_hits"], built_second["disk_hits"]) == (0, 1)

    @pytest.mark.parametrize("op", [Op.EQ, Op.XOR, Op.MUL])
    def test_fingerprint_ignores_stored_arg_order(self, op):
        """The same id-ordered term stored either way round: one key."""
        sort = BOOL if op is Op.XOR else INT
        a, b = mk_var("order_a", sort), mk_var("order_b", sort)
        result_sort = BOOL if op is Op.EQ else sort

        def formula(args):
            term = Term(op, args, None, result_sort)
            return term if result_sort is BOOL else mk_le(mk_int(0), term)

        bounds = BoundsEnv()
        assert formula_fingerprint([formula((a, b))], bounds) == \
            formula_fingerprint([formula((b, a))], bounds)

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        for i in range(4):
            solver = SmtSolver(options=EngineOptions.resolve(cache=cache))
            x = mk_int_var(f"x{i}")
            solver.set_bounds(x, 0, 7)
            solver.add(mk_le(mk_int(i), x))
            solver.check()
        assert cache.stats.evictions == 2

    @given(
        hi_a=st.integers(min_value=1, max_value=1 << 20),
        hi_b=st.integers(min_value=1, max_value=1 << 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_fingerprint_never_collides_across_bounds(self, hi_a, hi_b):
        """Same formula, different variable bounds ⇒ different cache key."""
        x = mk_int_var("x")
        formula = mk_le(mk_int(1), x)
        key_a = formula_fingerprint(
            [formula], BoundsEnv({"x": Interval(0, hi_a)}))
        key_b = formula_fingerprint(
            [formula], BoundsEnv({"x": Interval(0, hi_b)}))
        assert (key_a == key_b) == (hi_a == hi_b)

    @given(c=st.integers(min_value=0, max_value=1 << 16))
    @settings(max_examples=40, deadline=None)
    def test_fingerprint_tracks_formula_structure(self, c):
        x = mk_int_var("x")
        bounds = BoundsEnv({"x": Interval(0, 1 << 20)})
        base = formula_fingerprint([mk_le(mk_int(c), x)], bounds)
        shifted = formula_fingerprint([mk_le(mk_int(c + 1), x)], bounds)
        flipped = formula_fingerprint([mk_le(x, mk_int(c))], bounds)
        assert base != shifted and base != flipped


# ----- cross-validation against the hand-written baselines -------------------


@pytest.mark.parametrize("scheduler,encode", [
    ("prio", encode_prio_baseline),
    ("rr", encode_rr_baseline),
    ("fq", encode_fq_baseline),
])
def test_engine_matches_baselines(scheduler, encode):
    """Parallel + cached + incremental answers == hand-written baseline."""
    ctx = encode(n_queues=N, horizon=T, capacity=CAP, max_arrivals=ARR)
    engine_backend = SmtBackend(
        SCHEDULERS[scheduler](N), steps=T, config=CONFIG,
        jobs=2, cache=ResultCache(), incremental=True,
    )
    deq0 = engine_backend.deq_count("ibs[0]")
    deq1 = engine_backend.deq_count("ibs[1]")
    pairs = [
        (mk_le(mk_int(3), ctx.total_deq(0)), mk_le(mk_int(3), deq0)),
        (mk_le(mk_int(T + 1), ctx.total_deq(0) + ctx.total_deq(1)),
         mk_le(mk_int(T + 1), deq0 + deq1)),
        (mk_and(mk_le(mk_int(3), ctx.total_deq(1)),
                mk_le(ctx.total_deq(0), mk_int(0))),
         mk_and(mk_le(mk_int(3), deq1), mk_le(deq0, mk_int(0)))),
    ]
    for base_query, buffy_query in pairs:
        base_solver = ctx.solver()
        base_solver.add(base_query)
        base = base_solver.check()
        assert base is not CheckResult.UNKNOWN
        got = engine_backend.find_trace(buffy_query).status
        assert got is not Status.UNKNOWN
        assert (got is Status.SATISFIED) == (base is CheckResult.SAT), \
            f"{scheduler}: engine disagrees with baseline"
