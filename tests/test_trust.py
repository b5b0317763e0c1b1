"""Trust-layer tests: DRAT proof checking, unsat cores, certified
answers, and the chaos hooks that attack all three.

The contract under test: a certified run (``certify=True`` /
``REPRO_CERTIFY=1``) never reports UNSAT/VERIFIED unless the
independent checker in :mod:`repro.trust.drat` accepts a proof derived
from the solver's own run — and a corrupted proof, a corrupted cache
entry or a crashed portfolio worker degrades the answer (or heals the
pool) instead of producing a wrong or missing verdict.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.facade import analyze
from repro.analysis.result import EXIT_CERTIFICATION, Verdict
from repro.backends.smt_backend import SmtBackend, Status
from repro.compiler.symexec import EncodeConfig
from repro.engine.cache import ResultCache
from repro.engine.options import EngineOptions
from repro.engine.parallel import PortfolioPool
from repro.netmodels.schedulers import fq_buggy, round_robin, strict_priority
from repro.runtime.budget import Budget, BudgetExhausted, ExhaustionReason
from repro.runtime.chaos import ChaosConfig, ChaosMonkey, inject_faults
from repro.smt.cnf import CNF
from repro.smt.sat.cdcl import CDCLSolver, SatResult
from repro.smt.solver import CheckResult, SmtSolver
from repro.smt.terms import (
    mk_bool_var,
    mk_eq,
    mk_int,
    mk_int_var,
    mk_le,
    mk_not,
    mk_or,
)
from repro.trust import Certificate, DratChecker, DratError, ProofLog, check_drat
from repro.trust import drat
from tests.conftest import PollBudget

N, T = 2, 4
CONFIG = EncodeConfig(buffer_capacity=5, arrivals_per_step=2)

SCHEDULERS = {
    "prio": strict_priority,
    "rr": round_robin,
    "fq": fq_buggy,
}


def pigeonhole(n: int) -> CNF:
    """PHP(n, n-1): n pigeons, n-1 holes — UNSAT, needs real search."""
    cnf = CNF()

    def var(p: int, h: int) -> int:
        return (p - 1) * (n - 1) + h

    cnf.num_vars = n * (n - 1)
    for p in range(1, n + 1):
        cnf.add_clause([var(p, h) for h in range(1, n)])
    for h in range(1, n):
        for p1 in range(1, n + 1):
            for p2 in range(p1 + 1, n + 1):
                cnf.add_clause([-var(p1, h), -var(p2, h)])
    return cnf


def solve_with_proof(cnf: CNF, assumptions=()):
    proof = ProofLog()
    solver = CDCLSolver(cnf.num_vars, proof=proof)
    solver.add_cnf(cnf)
    result = solver.solve(assumptions=list(assumptions))
    return solver, result, proof


# ----- the checker itself ----------------------------------------------------


class TestDratChecker:
    def test_accepts_real_cdcl_refutation(self):
        cnf = pigeonhole(4)
        _, result, proof = solve_with_proof(cnf)
        assert result is SatResult.UNSAT
        assert len(proof) > 0
        # Must not raise.
        check_drat(cnf.num_vars, cnf.clauses, list(proof.steps))

    def test_rejects_mutated_proof(self):
        cnf = pigeonhole(4)
        _, result, proof = solve_with_proof(cnf)
        assert result is SatResult.UNSAT
        # A unit over a fresh variable is never RUP: no clause mentions
        # it, so assuming its negation cannot conflict.  Prepend it so
        # it sits before the refutation point.
        steps = [("a", (cnf.num_vars + 1,))] + list(proof.steps)
        with pytest.raises(DratError):
            check_drat(cnf.num_vars, cnf.clauses, steps)

    def test_rejects_proof_against_mutated_cnf(self):
        cnf = pigeonhole(4)
        _, result, proof = solve_with_proof(cnf)
        assert result is SatResult.UNSAT
        # Dropping a pigeon's at-least-one clause makes the formula SAT;
        # a sound checker cannot accept any refutation of it.
        weakened = [c for c in cnf.clauses if len(c) != 3][1:]
        with pytest.raises(DratError):
            check_drat(cnf.num_vars, weakened, list(proof.steps))

    def test_rejects_truncated_proof(self):
        cnf = pigeonhole(5)
        _, result, proof = solve_with_proof(cnf)
        steps = [s for s in proof.steps if s[0] == "a"]
        assert result is SatResult.UNSAT and len(steps) > 1
        with pytest.raises(DratError):
            check_drat(cnf.num_vars, cnf.clauses, list(proof.steps)[:1])

    def test_deletions_replay(self):
        # PHP(8) needs enough conflicts to trigger clause-database
        # reductions, so the log contains real "d" steps; the checker
        # must still replay to refutation.
        cnf = pigeonhole(8)
        _, result, proof = solve_with_proof(cnf)
        assert result is SatResult.UNSAT
        assert any(step[0] == "d" for step in proof.steps)
        check_drat(cnf.num_vars, cnf.clauses, list(proof.steps))

    def test_unknown_deletion_is_ignored(self):
        # Deleting a clause that was never added only weakens the
        # clause set further — sound to ignore, and the proof must
        # still check.
        cnf = pigeonhole(4)
        _, result, proof = solve_with_proof(cnf)
        assert result is SatResult.UNSAT
        steps = [("d", (1, 2))] + list(proof.steps)
        check_drat(cnf.num_vars, cnf.clauses, steps)

    def test_core_certification(self):
        # UNSAT only under assumptions: the empty clause is never
        # derived; the final core must propagate to a conflict instead.
        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause([-a, -b])
        _, result, proof = solve_with_proof(cnf, assumptions=[a, b])
        assert result is SatResult.UNSAT
        check_drat(cnf.num_vars, cnf.clauses, list(proof.steps), core=(a, b))
        with pytest.raises(DratError):
            check_drat(cnf.num_vars, cnf.clauses, list(proof.steps), core=(a,))

    def test_certificate_wrapper_catches_errors(self):
        cnf = pigeonhole(4)
        _, _, proof = solve_with_proof(cnf)
        good = Certificate(
            num_vars=cnf.num_vars, clauses=list(cnf.clauses),
            steps=list(proof.steps),
        )
        assert good.verify() and good.verified and good.error is None
        bad = Certificate(
            num_vars=cnf.num_vars, clauses=list(cnf.clauses),
            steps=[("a", (cnf.num_vars + 1,))] + list(proof.steps),
        )
        assert not bad.verify() and not bad.verified
        assert bad.error


# ----- the checker's bulk loader ----------------------------------------------

_CHK_VARS = 6
_chk_literal = st.integers(min_value=-(_CHK_VARS + 3),
                           max_value=_CHK_VARS + 3).filter(bool)
_chk_clauses = st.lists(st.lists(_chk_literal, max_size=5), max_size=30)


def _recorded_class(made: list):
    """A checker record class that appends every instance to ``made``."""

    class Recorded(drat._CClause):
        __slots__ = ()

        def __init__(self, lits):
            super().__init__(lits)
            made.append(self)

    return Recorded


@pytest.fixture
def records(monkeypatch):
    """Every checker record made while the test runs, in creation order."""
    made = []
    monkeypatch.setattr(drat, "_CClause", _recorded_class(made))
    return made


def _checker_state(chk: DratChecker) -> dict:
    return {
        "num_vars": chk.num_vars,
        "refuted": chk.refuted,
        "value": list(chk._value),
        "trail": list(chk._trail),
        "qhead": chk._qhead,
        "watches": {lit: [(r.lits, r.watch, r.deleted) for r in recs]
                    for lit, recs in chk._watches.items()},
    }


def _reference_add(chk: DratChecker, lits) -> None:
    """Install one clause the way the checker did before bulk loading."""
    clause = tuple(lits)
    for lit in clause:
        if lit == 0:
            raise DratError("0 is not a valid literal")
        chk._ensure_vars(abs(lit))
    rec = drat._CClause(clause)
    if chk._by_key is None:
        chk._recs.append(rec)
    else:
        chk._by_key.setdefault(tuple(sorted(clause)), []).append(rec)
    if chk.refuted:
        return
    distinct = tuple(dict.fromkeys(clause))
    if any(-l in distinct for l in distinct):
        return  # tautology
    if any(chk._val(l) > 0 for l in distinct):
        return  # true at the root
    free = [l for l in distinct if chk._val(l) == 0]
    if not free:
        chk.refuted = True
    elif len(free) == 1:
        chk._assign(free[0])
        if chk._propagate():
            chk.refuted = True
    else:
        rec.watch = (free[0], free[1])
        chk._watches.setdefault(free[0], []).append(rec)
        chk._watches.setdefault(free[1], []).append(rec)


def _load_one_by_one(chk: DratChecker, clauses, budget=None) -> None:
    """The per-clause loading loop the bulk loader replaces."""
    for i, clause in enumerate(clauses):
        if budget is not None and (i & 0xFFF) == 0xFFF:
            budget.checkpoint("DRAT check: loading CNF")
        _reference_add(chk, clause)


def _raised(load):
    try:
        load()
    except (DratError, BudgetExhausted) as exc:
        return type(exc).__name__, str(exc)
    return None


class TestCheckerBulkLoad:
    @settings(max_examples=300, deadline=None)
    @given(_chk_clauses, st.none() | st.tuples(st.integers(min_value=0),
                                                st.integers(min_value=0)))
    def test_bulk_load_equals_clause_by_clause(self, clauses, zero):
        clauses = [list(c) for c in clauses]
        if zero is not None and clauses:
            clause = clauses[zero[0] % len(clauses)]
            clause.insert(zero[1] % (len(clause) + 1), 0)
        bulk, ref = DratChecker(_CHK_VARS), DratChecker(_CHK_VARS)
        assert (_raised(lambda: bulk.add_clauses(clauses))
                == _raised(lambda: _load_one_by_one(ref, clauses)))
        assert _checker_state(bulk) == _checker_state(ref)
        assert ([r.lits for r in bulk._recs]
                == [r.lits for r in ref._recs])

    @settings(max_examples=200, deadline=None)
    @given(_chk_clauses, st.data())
    def test_lazy_index_retires_the_same_instances(self, clauses, data):
        made = []
        with mock.patch.object(drat, "_CClause", _recorded_class(made)):
            lazy = DratChecker(_CHK_VARS)
            lazy.add_clauses(clauses)
            lazy_recs = list(made)
            made.clear()
            # An unknown deletion first builds the (empty) index, so
            # every later addition goes straight into it: the eager
            # index the lazy one must reproduce.
            eager = DratChecker(_CHK_VARS)
            eager.delete_clause(())
            _load_one_by_one(eager, clauses)
            eager_recs = list(made)
            made.clear()
            ops = data.draw(st.lists(st.one_of(
                st.tuples(st.just("orig"), st.integers(min_value=0),
                          st.randoms(use_true_random=False)),
                st.tuples(st.just("unknown"), st.lists(_chk_literal,
                                                       max_size=4)),
                st.tuples(st.just("add"), st.lists(_chk_literal,
                                                   max_size=4)),
            ), max_size=40))
            for op in ops:
                if op[0] == "orig":
                    if not clauses:
                        continue
                    # A repeated key, possibly with its literals permuted.
                    lits = list(clauses[op[1] % len(clauses)])
                    op[2].shuffle(lits)
                    lazy.delete_clause(lits)
                    eager.delete_clause(lits)
                elif op[0] == "unknown":
                    lazy.delete_clause(op[1])
                    eager.delete_clause(op[1])
                else:
                    lazy.add_clause(op[1])
                    eager.add_clause(op[1])
            lazy_recs += made[0::2]
            eager_recs += made[1::2]
        assert ([r.deleted for r in lazy_recs]
                == [r.deleted for r in eager_recs])
        assert _checker_state(lazy) == _checker_state(eager)

    @pytest.mark.parametrize("polls", [1, 2])
    def test_budget_runs_out_at_the_same_clause(self, records, polls):
        rng = random.Random(polls)
        clauses = [[rng.choice([1, -1]) * v
                    for v in rng.sample(range(1, 301), rng.randint(2, 3))]
                   for _ in range(2 * 4096 + 10)]
        bulk, ref = DratChecker(300), DratChecker(300)
        with pytest.raises(BudgetExhausted):
            bulk.add_clauses(clauses, PollBudget(polls))
        loaded = len(records)
        with pytest.raises(BudgetExhausted):
            _load_one_by_one(ref, clauses, PollBudget(polls))
        assert loaded == len(records) - loaded == polls * 4096 - 1
        assert _checker_state(bulk) == _checker_state(ref)

    def test_check_drat_loads_the_cnf_in_one_call(self):
        cnf = pigeonhole(4)
        _, result, proof = solve_with_proof(cnf)
        assert result is SatResult.UNSAT
        with mock.patch.object(DratChecker, "add_clauses", autospec=True,
                               side_effect=DratChecker.add_clauses) as bulk:
            check_drat(cnf.num_vars, cnf.clauses, list(proof.steps))
        # One call for the CNF, then one per proof addition.
        (first, *steps) = bulk.call_args_list
        assert list(first.args[1]) == cnf.clauses
        assert len(steps) == sum(1 for k, _ in proof.steps if k == "a")


class TestCertificationBudget:
    """A deadline that runs out inside the proof check answers UNKNOWN."""

    @staticmethod
    def _late_clock(monkeypatch):
        """A budget whose deadline passes once the checker starts loading."""
        now = [0.0]
        load = DratChecker.add_clauses

        def late_load(self, clauses, budget=None):
            now[0] = 100.0
            return load(self, clauses, budget)

        monkeypatch.setattr(DratChecker, "add_clauses", late_load)
        return Budget(deadline_seconds=10.0, clock=lambda: now[0])

    @staticmethod
    def _wide_unsat(solver: SmtSolver) -> None:
        # Over 4096 clauses, so the checker polls the budget while loading.
        x = mk_bool_var("x")
        for i in range(4200):
            solver.add(mk_or(mk_bool_var(f"a{i}"), mk_bool_var(f"b{i}")))
        solver.add(x)
        solver.add(mk_not(x))

    @pytest.mark.parametrize("incremental", [False, True])
    def test_solver_answers_unknown_deadline(self, monkeypatch, incremental):
        budget = self._late_clock(monkeypatch)
        solver = SmtSolver(incremental=incremental, budget=budget,
                           options=EngineOptions.resolve(certify=True))
        self._wide_unsat(solver)
        assert solver.check() is CheckResult.UNKNOWN
        assert solver.last_report.reason is ExhaustionReason.DEADLINE
        assert solver.certificate is None
        assert solver.last_report.proofs_failed == 0

    def test_batch_certificate_reports_the_deadline(self, monkeypatch):
        budget = self._late_clock(monkeypatch)
        solver = SmtSolver(incremental=True, budget=budget,
                           options=EngineOptions(jobs=2, certify=True))
        self._wide_unsat(solver)
        monkeypatch.setattr(
            SmtSolver, "check",
            lambda *args: pytest.fail("answered outside the batch"))
        answers = solver.check_each(
            [mk_bool_var("goal0"), mk_bool_var("goal1")])
        for result, report, _ in answers:
            assert result is CheckResult.UNKNOWN
            assert report.reason is ExhaustionReason.DEADLINE
            assert report.proofs_failed == 0


# ----- certified answers on the seed machines --------------------------------


class TestCertifiedAnswers:
    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    def test_seed_machine_proofs_check(self, name):
        """Real pipeline proofs (3 seed machines) pass the checker."""
        checked = SCHEDULERS[name](N)
        backend = SmtBackend(checked, T, config=CONFIG, certify=True, jobs=1)
        deq0 = backend.deq_count("ibs[0]")
        deq1 = backend.deq_count("ibs[1]")
        impossible = mk_le(mk_int(T + 1), deq0 + deq1)
        result = backend.find_trace(impossible)
        # Certification happened (a rejected proof would be UNKNOWN).
        assert result.status is Status.UNSATISFIABLE

    def test_oneshot_certificate_exposed(self):
        solver = SmtSolver(options=EngineOptions.resolve(certify=True))
        x = mk_bool_var("x")
        solver.add(x)
        solver.add(mk_not(x))
        assert solver.check() is CheckResult.UNSAT
        cert = solver.certificate
        assert cert is not None and cert.verified

    def test_incremental_certificate_across_calls(self):
        solver = SmtSolver(incremental=True,
                           options=EngineOptions.resolve(certify=True))
        a, b, c = mk_bool_var("a"), mk_bool_var("b"), mk_bool_var("c")
        solver.add(mk_or(mk_not(a), mk_not(b)))
        assert solver.check(a, b, c) is CheckResult.UNSAT
        assert solver.certificate is not None and solver.certificate.verified
        assert solver.check(a, c) is CheckResult.SAT
        assert solver.check(b, a) is CheckResult.UNSAT
        assert solver.certificate is not None and solver.certificate.verified

    def test_sat_answers_have_no_certificate(self):
        solver = SmtSolver(options=EngineOptions.resolve(certify=True))
        solver.add(mk_bool_var("x"))
        assert solver.check() is CheckResult.SAT
        assert solver.certificate is None


# ----- unsat cores -----------------------------------------------------------


class TestUnsatCores:
    def test_core_is_minimal_on_hand_built_formula(self):
        a, b, c = mk_bool_var("a"), mk_bool_var("b"), mk_bool_var("c")
        solver = SmtSolver(incremental=True)
        solver.add(mk_or(mk_not(a), mk_not(b)))
        assert solver.check(a, b, c) is CheckResult.UNSAT
        core = solver.unsat_core()
        assert {t.name for t in core} == {"a", "b"}
        # Minimality: dropping any core member flips the verdict to SAT.
        remaining = {"a": a, "b": b, "c": c}
        for member in list(core):
            kept = [t for n, t in remaining.items() if n != member.name]
            assert solver.check(*kept) is CheckResult.SAT

    def test_core_requires_unsat_and_incremental(self):
        solver = SmtSolver(incremental=True)
        solver.add(mk_bool_var("x"))
        assert solver.check() is CheckResult.SAT
        with pytest.raises(RuntimeError):
            solver.unsat_core()
        oneshot = SmtSolver()
        x = mk_bool_var("x")
        oneshot.add(x)
        oneshot.add(mk_not(x))
        assert oneshot.check() is CheckResult.UNSAT
        with pytest.raises(RuntimeError):
            oneshot.unsat_core()

    def test_dafny_explain_vc(self):
        from repro.backends.dafny import DafnyBackend, StateView
        from repro.compiler.symexec import SymbolicMachine

        checked = strict_priority(N)
        backend = DafnyBackend(checked, config=CONFIG)
        machine = SymbolicMachine(checked, CONFIG)
        for _ in range(2):
            machine.exec_step()
        view = StateView(machine)
        labels = view.buffer_labels()
        # Total dequeues over 2 steps cannot exceed 2 * arrivals budget;
        # a generous bound is certainly verified.
        total = view.deq_p(labels[0])
        goal = mk_le(total, mk_int(100))
        core = backend.explain_vc(machine, goal)
        assert isinstance(core, list)
        # An unverified goal has no core.
        bad_goal = mk_le(total, mk_int(-1))
        with pytest.raises(ValueError):
            backend.explain_vc(machine, bad_goal)

    def test_mc_bound_core(self):
        from repro.backends.mc import ModelChecker

        checked = strict_priority(N)
        mc = ModelChecker(checked, config=CONFIG)
        core = mc.bound_core(
            lambda view: mk_le(view.deq_p("ibs[0]"), mk_int(100)), 2
        )
        assert isinstance(core, list)
        with pytest.raises(ValueError):
            mc.bound_core(
                lambda view: mk_le(view.deq_p("ibs[0]"), mk_int(-1)), 2
            )


# ----- chaos: proof corruption ----------------------------------------------


class TestProofCorruptionChaos:
    def _proved_analysis(self, certify, **chaos):
        checked = strict_priority(N)

        def possible_total(bk):
            # The negation ("more than T dequeues in T steps") is UNSAT
            # only after real CDCL search (~100 conflicts), so the
            # certificate genuinely depends on the logged proof — a
            # UP-refutable query would certify regardless of the log.
            total = bk.deq_count("ibs[0]") + bk.deq_count("ibs[1]")
            return mk_le(total, mk_int(T))

        if chaos:
            with inject_faults(**chaos) as monkey:
                outcome = analyze(
                    checked, possible_total, backend="smt", steps=T,
                    config=CONFIG, prove=True, certify=certify, jobs=1,
                )
            return outcome, monkey
        return analyze(
            checked, possible_total, backend="smt", steps=T,
            config=CONFIG, prove=True, certify=certify, jobs=1,
        ), None

    def test_corrupted_proof_downgrades_to_undecided(self):
        outcome, monkey = self._proved_analysis(
            True, seed=3, proof_corrupt_rate=1.0
        )
        assert monkey.log.proofs_corrupted >= 1
        assert outcome.verdict is Verdict.UNDECIDED
        assert outcome.report is not None
        assert outcome.report.reason is ExhaustionReason.CERTIFICATION_FAILED
        assert outcome.exit_code == EXIT_CERTIFICATION

    def test_same_run_without_corruption_is_proved(self):
        outcome, _ = self._proved_analysis(True)
        assert outcome.verdict is Verdict.PROVED
        assert outcome.exit_code == 0

    @pytest.mark.parametrize("incremental", [False, True])
    def test_corrupted_proof_fails_certification_on_both_paths(
            self, incremental):
        # The bogus step must be replayed before this check's own steps:
        # once they derive the empty clause the checker accepts anything.
        solver = SmtSolver(
            incremental=incremental,
            options=EngineOptions(jobs=1, certify=True))
        solver._chaos = ChaosMonkey(ChaosConfig(proof_corrupt_rate=1.0))
        x, y = mk_int_var("corrupt_x"), mk_int_var("corrupt_y")
        solver.set_bounds(x, 2, 60)
        solver.set_bounds(y, 2, 60)
        solver.add(mk_eq(x * y, mk_int(3001)))
        assert solver.check() is CheckResult.UNKNOWN
        assert solver.last_report.reason is (
            ExhaustionReason.CERTIFICATION_FAILED)
        assert solver.certificate is None
        assert solver._chaos.log.proofs_corrupted == 1

    def test_corruption_without_certify_goes_unnoticed(self):
        # Without certify=True no proof is logged or checked, so the
        # corruption hook never fires — the baseline answer stands.
        outcome, monkey = self._proved_analysis(
            False, seed=3, proof_corrupt_rate=1.0
        )
        assert outcome.verdict is Verdict.PROVED
        assert monkey.log.proofs_corrupted == 0


# ----- chaos: worker crashes and the supervised pool -------------------------


class TestSupervisedPool:
    def test_crashed_worker_is_respawned_and_query_retried(self):
        cnf = pigeonhole(5)
        pool = PortfolioPool(jobs=2)
        try:
            baseline, _ = pool.solve_portfolio(cnf, [None])
            assert baseline.verdict is SatResult.UNSAT
            # Crash each slot's worker exactly once: the supervisor must
            # respawn and the retried query must reach the same verdict.
            result, _ = pool.solve_portfolio(
                cnf, [None, None], chaos=(1.0, 11, 1)
            )
            assert result.verdict is baseline.verdict
            assert pool.last_respawned >= 1
            assert pool.last_quarantined == 0
        finally:
            pool.close()

    def test_worker_death_holding_result_lock_is_recovered(self):
        # A worker that dies abruptly can die *while its queue feeder
        # thread holds the shared result pipe's write lock* (the feeder
        # takes it for every message; os._exit / OOM-kill can strike
        # between send_bytes and the release).  Every surviving
        # worker's answers then block behind the dead holder.  Simulate
        # the dead holder by seizing the lock from the parent: the
        # supervisor must notice the silence, rebuild the transport
        # (fresh queues, fresh workers), and still answer — not hang,
        # not quarantine the innocent query.
        cnf = pigeonhole(4)
        pool = PortfolioPool(jobs=2)
        try:
            baseline, _ = pool.solve_portfolio(cnf, [None])
            assert baseline.verdict is SatResult.UNSAT
            pool.hang_seconds = 1.0  # keep the stall window short
            pool._results._wlock.acquire()  # the "dead" lock holder
            result, _ = pool.solve_portfolio(cnf, [None])
            assert result.verdict is baseline.verdict
            assert pool.last_respawned >= 1
            assert pool.last_quarantined == 0
        finally:
            pool.close()

    def test_repeatedly_crashing_query_is_quarantined(self):
        cnf = pigeonhole(4)
        pool = PortfolioPool(jobs=2)
        try:
            result, _ = pool.solve_portfolio(
                cnf, [None, None], chaos=(1.0, 11, 99)
            )
            assert result.verdict is SatResult.UNKNOWN
            assert result.reason == "quarantined"
            assert pool.last_quarantined >= 1
        finally:
            pool.close()

    def test_pool_survives_quarantine_and_answers_next_query(self):
        cnf = pigeonhole(4)
        pool = PortfolioPool(jobs=2)
        try:
            quarantined, _ = pool.solve_portfolio(
                cnf, [None, None], chaos=(1.0, 5, 99)
            )
            assert quarantined.reason == "quarantined"
            healthy, _ = pool.solve_portfolio(cnf, [None, None])
            assert healthy.verdict is SatResult.UNSAT
        finally:
            pool.close()

    def test_certified_parallel_unsat_ships_checkable_proof(self):
        cnf = pigeonhole(5)
        pool = PortfolioPool(jobs=2)
        try:
            result, _ = pool.solve_portfolio(cnf, [None, None], certify=True)
            assert result.verdict is SatResult.UNSAT
            cert = Certificate(
                num_vars=cnf.num_vars, clauses=list(cnf.clauses),
                steps=list(result.proof or []),
                core=tuple(result.core or ()),
            )
            assert cert.verify(), cert.error
        finally:
            pool.close()


# ----- cache hardening -------------------------------------------------------


class TestCacheHardening:
    def _entry(self):
        from repro.engine.cache import CacheEntry

        return CacheEntry(verdict="unsat", cnf_vars=3, cnf_clauses=5)

    def test_roundtrip_with_checksum(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        cache.put("ab" * 32, self._entry())
        fresh = ResultCache(disk_dir=tmp_path)
        hit = fresh.get("ab" * 32)
        assert hit is not None and hit.verdict == "unsat"
        assert fresh.stats.corrupt_entries == 0

    def test_truncated_entry_is_a_miss_and_deleted(self, tmp_path):
        cache = ResultCache(disk_dir=tmp_path)
        key = "cd" * 32
        cache.put(key, self._entry())
        path = cache._disk_path(key)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        fresh = ResultCache(disk_dir=tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.corrupt_entries == 1
        assert not path.exists()

    def test_tampered_payload_fails_checksum(self, tmp_path):
        import json

        cache = ResultCache(disk_dir=tmp_path)
        key = "ef" * 32
        cache.put(key, self._entry())
        path = cache._disk_path(key)
        data = json.loads(path.read_text())
        data["verdict"] = "sat"  # flip the answer, keep the old checksum
        path.write_text(json.dumps(data))
        fresh = ResultCache(disk_dir=tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.corrupt_entries == 1
        assert not path.exists()

    def test_chaos_cache_corruption_degrades_to_miss(self, tmp_path):
        key = "09" * 32
        with inject_faults(seed=1, cache_corrupt_rate=1.0) as monkey:
            cache = ResultCache(disk_dir=tmp_path)
            cache.put(key, self._entry())
        assert monkey.log.cache_corrupted >= 1
        fresh = ResultCache(disk_dir=tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.corrupt_entries == 1
