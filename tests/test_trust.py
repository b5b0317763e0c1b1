"""Trust-layer tests: hinted (LRAT) proof checking, unsat cores, certified
answers, and the chaos hooks that attack all three.

The contract under test: a certified run (``certify=True`` /
``REPRO_CERTIFY=1``) never reports UNSAT/VERIFIED unless the
independent checker in :mod:`repro.trust.drat` accepts a proof derived
from the solver's own run — and a corrupted proof, a corrupted cache
entry or a crashed portfolio worker degrades the answer (or heals the
pool) instead of producing a wrong or missing verdict.
"""

import pytest

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
from repro.trust import Certificate, LratChecker, LratError, ProofLog, check_lrat
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


def _root_chain(n: int, order: str) -> CNF:
    """x1 -> ... -> xn at the root, refuted by -xn; ``order`` decides
    whether loading cuts the implications or propagation walks them."""
    cnf = CNF()
    z = cnf.new_var()
    xs = [cnf.new_var() for _ in range(n)]
    chain = [[-a, z, b] if order == "cut-wide" else [-a, b]
             for a, b in zip(xs, xs[1:])]
    if order == "units-first":  # each implication is cut to a unit
        clauses = [[xs[0]]] + chain + [[-xs[-1]]]
    elif order == "cut-wide":  # z goes, then x1 propagates them
        clauses = [[-z]] + chain + [[xs[0]], [-xs[-1]]]
    elif order == "conflict":  # x1 propagates into a root conflict
        clauses = chain + [[-xs[-1], -xs[0]], [xs[0]]]
    else:  # propagation walks the chain from the last unit
        clauses = chain + [[-xs[-1]], [xs[0]]]
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


class TestRootChains:
    """Root units and cut originals are logged on first citation, and
    a chain of them as deep as the root trail must not recurse."""

    @pytest.mark.parametrize("order", ["units-first", "cut-wide",
                                       "propagated", "conflict"])
    def test_deep_root_chain_is_refuted(self, order):
        cnf = _root_chain(3000, order)
        proof = ProofLog()
        solver = CDCLSolver(cnf.num_vars, proof=proof)
        assert not solver.add_cnf(cnf)
        assert check_cnf(cnf, proof.steps).refuted
        assert sum(len(step[3]) for step in proof.steps) >= 3000

    def test_unused_cut_originals_are_never_logged(self):
        cnf = CNF()
        a, b, c, d = (cnf.new_var() for _ in range(4))
        for clause in ([-a], [a, b, c], [a, c, d], [-b], [-c, -d]):
            cnf.add_clause(clause)
        proof = ProofLog()
        solver = CDCLSolver(cnf.num_vars, proof=proof)
        assert solver.add_cnf(cnf)
        # Both wide clauses lost `a`; neither is cited yet.
        assert len(proof) == 0
        assert solver.solve() is SatResult.SAT


def check_cnf(cnf: CNF, steps, core=(), budget=None):
    """Check ``steps`` against every clause of ``cnf``, by position."""
    return check_lrat(dict(enumerate(cnf.clauses)), steps, core=core,
                      budget=budget)


class TestDratChecker:
    def test_accepts_real_cdcl_refutation(self):
        cnf = pigeonhole(4)
        _, result, proof = solve_with_proof(cnf)
        assert result is SatResult.UNSAT
        assert len(proof) > 0
        checker = check_cnf(cnf, proof.steps)
        assert checker.refuted and checker.last == ()
        # The certificate keeps only the originals the hints cite.
        cert = Certificate.of(cnf.num_vars, cnf.clauses, proof.steps)
        assert cert.verify()
        assert 0 < len(cert.clauses) <= len(cnf.clauses)
        assert all(cnf.clauses[pos] == lits
                   for pos, lits in cert.clauses.items())

    def test_rejects_mutated_proof(self):
        cnf = pigeonhole(4)
        _, result, proof = solve_with_proof(cnf)
        assert result is SatResult.UNSAT
        # A unit over a fresh variable is never RUP: no clause mentions
        # it, so no hint can conflict.  Prepend it so it sits before
        # the refutation point.
        steps = [("a", 0, (cnf.num_vars + 1,), ())] + list(proof.steps)
        with pytest.raises(LratError, match="without a conflict"):
            check_cnf(cnf, steps)

    def test_rejects_proof_against_mutated_cnf(self):
        cnf = pigeonhole(4)
        _, result, proof = solve_with_proof(cnf)
        assert result is SatResult.UNSAT
        # Dropping a pigeon's at-least-one clause makes the formula SAT;
        # a sound checker cannot accept any refutation of it.
        weakened = [c for c in cnf.clauses if len(c) != 3][1:]
        with pytest.raises(LratError):
            check_lrat(Certificate.of(cnf.num_vars, weakened,
                                      proof.steps).clauses, proof.steps)
        # Nor one that cites a clause the CNF no longer has.
        cited = Certificate.of(cnf.num_vars, cnf.clauses,
                               proof.steps).clauses
        del cited[min(cited)]
        with pytest.raises(LratError, match="names no live clause"):
            check_lrat(cited, proof.steps)

    def test_rejects_truncated_proof(self):
        cnf = pigeonhole(5)
        _, result, proof = solve_with_proof(cnf)
        steps = [s for s in proof.steps if s[0] == "a"]
        assert result is SatResult.UNSAT and len(steps) > 1
        with pytest.raises(LratError):
            check_cnf(cnf, list(proof.steps)[:1])
        with pytest.raises(LratError, match="empty clause"):
            check_cnf(cnf, list(proof.steps)[:-1])

    def test_deletions_replay(self):
        # PHP(8) needs enough conflicts to trigger clause-database
        # reductions, so the log contains real "d" steps; the checker
        # must still replay to refutation, and forget what they delete.
        cnf = pigeonhole(8)
        _, result, proof = solve_with_proof(cnf)
        assert result is SatResult.UNSAT
        deleted = {step[1] for step in proof.steps if step[0] == "d"}
        assert deleted
        checker = check_cnf(cnf, proof.steps)
        assert checker.refuted
        assert not deleted & set(checker.clauses)

    def test_unknown_deletion_is_ignored(self):
        # Deleting a clause that was never added only weakens the
        # clause set further — sound to ignore, and the proof must
        # still check.
        cnf = pigeonhole(4)
        _, result, proof = solve_with_proof(cnf)
        assert result is SatResult.UNSAT
        steps = [("d", 10 ** 6)] + list(proof.steps)
        assert check_cnf(cnf, steps).refuted

    def test_core_certification(self):
        # UNSAT only under assumptions: the empty clause is never
        # derived; the final step must be the negated core instead.
        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause([-a, -b])
        _, result, proof = solve_with_proof(cnf, assumptions=[a, b])
        assert result is SatResult.UNSAT
        checker = check_cnf(cnf, proof.steps, core=(a, b))
        assert not checker.refuted and set(checker.last) == {-a, -b}
        with pytest.raises(LratError, match="does not refute the core"):
            check_cnf(cnf, proof.steps, core=(a,))

    def test_certificate_wrapper_catches_errors(self):
        cnf = pigeonhole(4)
        _, _, proof = solve_with_proof(cnf)
        good = Certificate.of(cnf.num_vars, cnf.clauses, proof.steps)
        assert good.verify() and good.verified and good.error is None
        bad = Certificate.of(
            cnf.num_vars, cnf.clauses,
            [("a", 0, (cnf.num_vars + 1,), ())] + list(proof.steps),
        )
        assert not bad.verify() and not bad.verified
        assert bad.error

    @staticmethod
    def _chain(n: int):
        """A CNF x1, x1 -> x2, ..., -> xn, -xn and its n-step proof:
        unit x(k+1) from unit xk and the implication, then the empty
        clause."""
        clauses = [[1]] + [[-k, k + 1] for k in range(1, n)] + [[-n]]
        steps = [("a", 1, (2,), (~0, ~1))]
        for k in range(2, n):
            steps.append(("a", k, (k + 1,), (k - 1, ~k)))
        steps.append(("a", n, (), (n - 1, ~n)))
        return dict(enumerate(clauses)), steps

    @staticmethod
    def _replay_one_by_one(checker, clauses, steps, budget):
        """The per-step replay the checker's polling must match."""
        checker.add_originals(clauses)
        for i, step in enumerate(steps):
            if i % 256 == 0:
                budget.checkpoint("proof check: replaying hints")
            checker.add(*step[1:])

    @pytest.mark.parametrize("polls", [1, 2])
    def test_budget_runs_out_at_the_same_step(self, polls):
        clauses, steps = self._chain(2 * 256 + 10)
        assert check_lrat(clauses, steps).refuted
        checker, ref = LratChecker(), LratChecker()
        with pytest.raises(BudgetExhausted):
            check_lrat(clauses, steps, budget=PollBudget(polls),
                       checker=checker)
        with pytest.raises(BudgetExhausted):
            self._replay_one_by_one(ref, clauses, steps, PollBudget(polls))
        accepted = (polls - 1) * 256
        assert checker.last_id == ref.last_id == accepted
        assert checker.clauses == ref.clauses == {
            **{~pos: tuple(c) for pos, c in clauses.items()},
            **{s[1]: s[2] for s in steps[:accepted]}}
        assert not checker.refuted


def _mutants(proof, cnf):
    """(name, mutated steps) pairs, each of which must be rejected."""
    steps = list(proof.steps)
    adds = [i for i, s in enumerate(steps) if s[0] == "a"]
    out = []
    # A dropped hint, at every position of every chain.
    for i in adds:
        kind, cid, lits, hints = steps[i]
        for j in range(len(hints)):
            dropped = hints[:j] + hints[j + 1:]
            out.append((f"drop {j} of step {cid}",
                        steps[:i] + [(kind, cid, lits, dropped)]
                        + steps[i + 1:]))
    # Two swapped ids: consecutive additions trade their ids.
    i, j = adds[0], adds[1]
    a, b = steps[i], steps[j]
    swapped = list(steps)
    swapped[i] = (a[0], b[1], a[2], a[3])
    swapped[j] = (b[0], a[1], b[2], b[3])
    out.append(("swapped ids", swapped))
    # A cited deleted clause, and a cited future id.
    for i in adds:
        derived = [h for h in steps[i][3] if h > 0]
        if derived:
            out.append(("cites deleted",
                        steps[:i] + [("d", derived[0])] + steps[i:]))
            kind, cid, lits, hints = steps[i]
            future = tuple(cid + 1 if h == derived[0] else h for h in hints)
            out.append(("cites future",
                        steps[:i] + [(kind, cid, lits, future)]
                        + steps[i + 1:]))
            break
    # A bogus unit with a real (but not unit) hint.
    first = cnf.clauses[0]
    out.append(("bogus unit",
                [("a", 0, (first[0],), (~0,))] + steps))
    # A truncated proof.
    out.append(("truncated", steps[:adds[-1]]))
    return out


class TestHintMutations:
    """Every corruption of a real CDCL proof must be rejected."""

    @pytest.mark.parametrize("n", [4, 5])
    def test_every_mutant_of_a_refutation_is_rejected(self, n):
        cnf = pigeonhole(n)
        _, result, proof = solve_with_proof(cnf)
        assert result is SatResult.UNSAT
        check_cnf(cnf, proof.steps)
        mutants = _mutants(proof, cnf)
        names = {name.split(" of ")[0].split(" ")[0] for name, _ in mutants}
        assert names == {"drop", "swapped", "cites", "bogus", "truncated"}
        for name, steps in mutants:
            with pytest.raises(LratError):
                check_cnf(cnf, steps)
                pytest.fail(f"accepted mutant: {name}")

    def test_a_core_the_final_step_does_not_refute_is_rejected(self):
        cnf = CNF()
        a, b, c = cnf.new_var(), cnf.new_var(), cnf.new_var()
        cnf.add_clause([-a, -b])
        cnf.add_clause([-c, a])
        _, result, proof = solve_with_proof(cnf, assumptions=[c, b])
        assert result is SatResult.UNSAT
        check_cnf(cnf, proof.steps, core=(c, b))
        for core in [(b,), (c,), (a, b), (b, c, a), (-c, b)]:
            with pytest.raises(LratError, match="does not refute the core"):
                check_cnf(cnf, proof.steps, core=core)

    def test_lrat_text_round_trips(self):
        # The standard LRAT rendering replays against the DIMACS CNF:
        # parsed back, it gives the same steps and the checker accepts.
        cnf = pigeonhole(6)
        _, result, proof = solve_with_proof(cnf)
        assert result is SatResult.UNSAT
        m = len(cnf.clauses)
        parsed = CNF.from_dimacs(cnf.to_dimacs())
        assert parsed.clauses == cnf.clauses

        def ref(n: int) -> int:
            return ~(n - 1) if n <= m else n - m

        steps = []
        for line in proof.to_lrat(m).splitlines():
            nums = line.split()
            if nums[1] == "d":
                steps.extend(("d", ref(int(x))) for x in nums[2:-1])
                continue
            values = [int(x) for x in nums]
            cut = values.index(0, 1)
            steps.append(("a", ref(values[0]), tuple(values[1:cut]),
                          tuple(ref(h) for h in values[cut + 1:-1])))
        assert steps == list(proof.steps)
        assert check_cnf(parsed, steps).refuted


class TestCertificationBudget:
    """A deadline that runs out inside the proof check answers UNKNOWN."""

    @staticmethod
    def _late_clock(monkeypatch):
        """A budget whose deadline passes once the checker starts."""
        now = [0.0]
        load = LratChecker.add_originals

        def late_load(self, cited):
            now[0] = 100.0
            return load(self, cited)

        monkeypatch.setattr(LratChecker, "add_originals", late_load)
        return Budget(deadline_seconds=10.0, clock=lambda: now[0])

    @staticmethod
    def _wide_unsat(solver: SmtSolver) -> None:
        # Over 4096 clauses, none of which the refutation needs: the
        # checker polls the budget at its first step regardless.
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

    def test_corrupted_proof_fails_on_the_pool_path(self, monkeypatch):
        monkeypatch.setattr(
            SmtSolver, "_solve_sequential",
            lambda *args: pytest.fail("solved outside the pool"))
        solver = SmtSolver(options=EngineOptions(jobs=2, certify=True))
        solver._chaos = ChaosMonkey(ChaosConfig(proof_corrupt_rate=1.0))
        x, y = mk_int_var("corrupt_px"), mk_int_var("corrupt_py")
        solver.set_bounds(x, 2, 60)
        solver.set_bounds(y, 2, 60)
        solver.add(mk_eq(x * y, mk_int(3001)))
        assert solver.check() is CheckResult.UNKNOWN
        assert solver.last_report.reason is (
            ExhaustionReason.CERTIFICATION_FAILED)
        assert solver._chaos.log.proofs_corrupted == 1

    def test_corrupted_proof_fails_on_the_live_checker(self):
        # The second certification of an incremental session feeds the
        # live checker only its new steps, the corrupted one first.
        solver = SmtSolver(incremental=True,
                           options=EngineOptions(jobs=1, certify=True))
        x, y = mk_int_var("corrupt_lx"), mk_int_var("corrupt_ly")
        solver.set_bounds(x, 2, 60)
        solver.set_bounds(y, 2, 60)
        g1, g2 = mk_bool_var("corrupt_g1"), mk_bool_var("corrupt_g2")
        for g in (g1, g2):
            solver.add(mk_or(mk_not(g), mk_eq(x * y, mk_int(3001))))
        assert solver.check(g1) is CheckResult.UNSAT
        assert solver.certificate.verified
        live = solver._session.checker
        assert live is not None
        solver._chaos = ChaosMonkey(ChaosConfig(proof_corrupt_rate=1.0))
        assert solver.check(g2) is CheckResult.UNKNOWN
        assert solver.last_report.reason is (
            ExhaustionReason.CERTIFICATION_FAILED)
        assert solver._chaos.log.proofs_corrupted == 1
        assert solver._session.checker is None
        # Without the corruption the same answer certifies again.
        solver._chaos = None
        assert solver.check(g2) is CheckResult.UNSAT
        assert solver.certificate.verified

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
            cert = Certificate.of(cnf.num_vars, cnf.clauses,
                                  result.proof or [], result.core or ())
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
