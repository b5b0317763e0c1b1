"""Tests for the CDCL and DPLL SAT engines."""

import copy
import heapq
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.budget import Budget, BudgetExhausted, ExhaustionReason
from repro.smt.cnf import CNF, check_assignment
from repro.smt.sat import cdcl
from repro.smt.sat.cdcl import (
    CDCLConfig,
    CDCLSolver,
    SatResult,
    _luby,
    solve_cnf,
)
from repro.smt.sat.dpll import DPLLSolver, solve_cnf_dpll
from repro.trust import check_lrat
from repro.trust.proof import ProofLog
from tests.conftest import PollBudget


def brute_force_sat(cnf: CNF) -> bool:
    for bits in itertools.product([False, True], repeat=cnf.num_vars):
        if check_assignment(cnf, [False] + list(bits)):
            return True
    return False


def random_cnf(rng: random.Random, n_vars: int, n_clauses: int) -> CNF:
    cnf = CNF(num_vars=n_vars)
    for _ in range(n_clauses):
        clause = [
            rng.choice([1, -1]) * rng.randint(1, n_vars) for _ in range(3)
        ]
        cnf.add_clause(clause)
    return cnf


def pigeonhole(pigeons: int, holes: int) -> CNF:
    cnf = CNF()
    var = {
        (p, h): cnf.new_var()
        for p in range(pigeons)
        for h in range(holes)
    }
    for p in range(pigeons):
        cnf.add_clause([var[(p, h)] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var[(p1, h)], -var[(p2, h)]])
    return cnf


class TestLuby:
    def test_prefix(self):
        # The canonical Luby sequence.
        expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert [_luby(i) for i in range(1, 16)] == expected


class TestCDCLBasics:
    def test_empty_formula_sat(self):
        solver = CDCLSolver(0)
        assert solver.solve() is SatResult.SAT

    def test_unit_propagation(self):
        solver = CDCLSolver(3)
        solver.add_clause([1])
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        assert solver.solve() is SatResult.SAT
        model = solver.model()
        assert model[1] and model[2] and model[3]

    def test_trivial_unsat(self):
        solver = CDCLSolver(1)
        solver.add_clause([1])
        assert not solver.add_clause([-1]) or solver.solve() is SatResult.UNSAT

    def test_empty_clause_unsat(self):
        solver = CDCLSolver(1)
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve() is SatResult.UNSAT

    def test_model_satisfies(self):
        cnf = CNF(num_vars=4)
        cnf.add_clauses([[1, 2], [-1, 3], [-3, -2, 4]])
        result, model, _ = solve_cnf(cnf)
        assert result is SatResult.SAT
        assert check_assignment(cnf, model)

    def test_pigeonhole_unsat(self):
        result, _, stats = solve_cnf(pigeonhole(5, 4))
        assert result is SatResult.UNSAT
        assert stats.conflicts > 0

    def test_pigeonhole_sat(self):
        result, model, _ = solve_cnf(pigeonhole(4, 4))
        assert result is SatResult.SAT

    def test_conflict_budget_unknown(self):
        config = CDCLConfig(max_conflicts=1)
        result, _, _ = solve_cnf(pigeonhole(6, 5), config)
        assert result is SatResult.UNKNOWN

    def test_solver_reusable_after_solve(self):
        solver = CDCLSolver(2)
        solver.add_clause([1, 2])
        assert solver.solve() is SatResult.SAT
        assert solver.solve() is SatResult.SAT


class TestAssumptions:
    def test_unsat_under_assumptions(self):
        solver = CDCLSolver(3)
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        assert solver.solve(assumptions=[1, -3]) is SatResult.UNSAT
        core = solver.unsat_assumptions()
        assert set(core) <= {1, -3}
        assert len(core) >= 1

    def test_sat_after_unsat_assumptions(self):
        solver = CDCLSolver(3)
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        assert solver.solve(assumptions=[1, -3]) is SatResult.UNSAT
        assert solver.solve(assumptions=[1]) is SatResult.SAT
        assert solver.model()[3]

    def test_assumption_already_satisfied(self):
        solver = CDCLSolver(2)
        solver.add_clause([1])
        assert solver.solve(assumptions=[1, 2]) is SatResult.SAT

    def test_contradictory_assumptions(self):
        solver = CDCLSolver(1)
        assert solver.solve(assumptions=[1, -1]) is SatResult.UNSAT

    def test_unsat_assumptions_do_not_pollute_phase_saving(self):
        # Regression: an UNSAT solve under assumptions used to leave
        # the assumption-forced polarities in the saved-phase array, so
        # a later plain solve() could pick a different model than a
        # fresh solver on the same clauses.
        clauses = [[-1, 2]]
        polluted = CDCLSolver(2)
        for c in clauses:
            polluted.add_clause(c)
        assert polluted.solve(assumptions=[1, -2]) is SatResult.UNSAT
        assert polluted.solve() is SatResult.SAT

        fresh = CDCLSolver(2)
        for c in clauses:
            fresh.add_clause(c)
        assert fresh.solve() is SatResult.SAT
        assert polluted.model() == fresh.model()

    def test_phase_snapshot_covers_vars_added_during_solve(self):
        # Variables created after the snapshot was taken (e.g. by a
        # clause added mid-session) must keep their phases on restore.
        solver = CDCLSolver(2)
        solver.add_clause([-1, 2])
        assert solver.solve(assumptions=[1, -2]) is SatResult.UNSAT
        solver.new_var()
        solver.add_clause([3])
        assert solver.solve() is SatResult.SAT
        assert solver.model()[3]


@pytest.mark.parametrize("config", [
    CDCLConfig(),
    CDCLConfig(use_vsids=False),
    CDCLConfig(use_restarts=False),
    CDCLConfig(use_phase_saving=False),
    CDCLConfig(use_minimization=False),
])
def test_feature_toggles_preserve_answers(config):
    """Every CDCL configuration must agree with brute force."""
    rng = random.Random(7)
    for _ in range(60):
        cnf = random_cnf(rng, rng.randint(3, 8), rng.randint(2, 30))
        expected = brute_force_sat(cnf)
        result, model, _ = solve_cnf(cnf, config)
        assert (result is SatResult.SAT) == expected
        if model is not None:
            assert check_assignment(cnf, model)


def test_dpll_agrees_with_brute_force():
    rng = random.Random(13)
    for _ in range(60):
        cnf = random_cnf(rng, rng.randint(3, 7), rng.randint(2, 25))
        expected = brute_force_sat(cnf)
        result, model = solve_cnf_dpll(cnf)
        assert (result is SatResult.SAT) == expected
        if model is not None:
            assert check_assignment(cnf, model)


def test_dpll_decision_budget():
    solver = DPLLSolver(max_decisions=1)
    if solver.add_cnf(pigeonhole(6, 5)):
        assert solver.solve() in (SatResult.UNKNOWN, SatResult.UNSAT)


@given(st.integers(min_value=0, max_value=9999))
@settings(max_examples=200, deadline=None)
def test_random_3sat_cdcl_vs_brute(seed):
    rng = random.Random(seed)
    cnf = random_cnf(rng, rng.randint(2, 7), rng.randint(1, 20))
    expected = brute_force_sat(cnf)
    result, model, _ = solve_cnf(cnf)
    assert (result is SatResult.SAT) == expected
    if model is not None:
        assert check_assignment(cnf, model)


def test_learned_clause_db_reduction_stress():
    """Force enough conflicts to trigger DB reduction and still be correct."""
    # A hard-ish unsat instance keeps the learnt DB busy.
    result, _, stats = solve_cnf(pigeonhole(7, 6))
    assert result is SatResult.UNSAT
    assert stats.learned > 0


def test_eliminate_normalizes_resolvents_against_root_units():
    """BVE resolvents must be re-filtered against the root assignment.

    Eliminating vars 5 and 6 yields the unit resolvents [7] and [8];
    eliminating var 9 next produces the resolvent [-7, -8, 3, 4], whose
    first two literals are already false at level 0.  An unfiltered
    attach watches two false literals, so the clause never wakes
    propagation and the search can return a bogus SAT.  (Regression
    test for a wrong-SAT found on the Figure-6 T=5 instance.)
    """
    clauses = [
        [7, 5], [7, -5],            # eliminate 5 -> unit [7]
        [8, 6], [8, -6],            # eliminate 6 -> unit [8]
        [9, -7, -8, 3], [-9, 4],    # eliminate 9 -> [-7, -8, 3, 4]
        [-3, 10], [-3, -10],        # eliminate 10 -> unit [-3]
        [-4, 11], [-4, -11],        # eliminate 11 -> unit [-4]
    ]
    cnf = CNF(num_vars=11)
    for c in clauses:
        cnf.add_clause(c)
    ref_result, _ = solve_cnf_dpll(cnf)
    assert ref_result is SatResult.UNSAT

    # Subsume/vivify off so elimination alone drives the derivation.
    config = CDCLConfig(
        use_inprocessing=True, use_subsume=False, use_vivify=False
    )
    solver = CDCLSolver(cnf.num_vars, config)
    for c in clauses:
        assert solver.add_clause(c)
    if solver._inprocess(set(), None):
        assert solver.solve() is SatResult.UNSAT


def test_inprocessing_never_attaches_clauses_with_dead_watches():
    """Regression: BVE resolvents built from a strengthened parent.

    In one inprocessing round, subsumption first derives the root units
    1 and 3, then strengthens [6,5,-1,-3,7] to [5,-1,-3,7] — whose
    literals -1/-3 are already false.  Eliminating variable 5 next
    resolves that clause against [-5,8]; unfixed, the resolvent
    [-1,-3,7,8] was attached watching the two false literals, so no
    assignment could ever wake it and the constraint was silently lost
    (observed as a bogus SAT on the Figure-6 T=5 instance).  Vars 7/8
    are frozen, mimicking solve-under-assumptions, so the resolvent's
    live literals stay unassigned through the round.
    """
    clauses = [[1, 2], [1, -2], [3, 4], [3, -4],
               [5, -6, -1, -3, 7], [6, 5, -1, -3, 7], [-5, 8]]
    config = CDCLConfig(use_inprocessing=True, use_vivify=False)
    solver = CDCLSolver(8, config)
    for c in clauses:
        assert solver.add_clause(c)
    assert solver._inprocess({7, 8}, None)
    # Watch invariant: an unsatisfied alive clause must never watch two
    # false literals — their falsification visits already happened, so
    # propagation would never examine the clause again.
    vals = solver._vals
    for cid in range(len(solver._c_start)):
        if solver._c_dead[cid]:
            continue
        idxs = solver._clause_idxs(cid)
        if any(vals[q] > 0 for q in idxs):
            continue  # root-satisfied: watches are irrelevant
        assert not (vals[idxs[0]] < 0 and vals[idxs[1]] < 0), (
            f"clause {solver._clause_lits(cid)} attached with two false"
            " watches: invisible to propagation"
        )
    assert solver.solve([-7, -8]) is SatResult.UNSAT


# ----- where inprocessing rounds run ------------------------------------------


def _solver(cnf: CNF, config=None, proof=None) -> CDCLSolver:
    solver = CDCLSolver(cnf.num_vars, config, proof=proof)
    assert solver.add_cnf(cnf)
    return solver


def _solve_recording_rounds(solver: CDCLSolver):
    """Solve, returning (result, [(stats, learnt clauses) at each round])."""
    rounds = []
    inprocess = solver._inprocess

    def spy(frozen, budget):
        assert not solver._trail_lim  # rounds run at the root
        rounds.append((solver.stats.snapshot(), solver._n_learnt))
        return inprocess(frozen, budget)

    solver._inprocess = spy
    return solver.solve(), rounds


def _settles_like_no_inprocessing(cnf: CNF) -> None:
    ok = CDCLSolver(cnf.num_vars).add_cnf(cnf)
    if not ok:
        return
    got = _solver(cnf)
    want = _solver(cnf, CDCLConfig(use_inprocessing=False))
    result = got.solve()
    assert result is want.solve()
    if got.stats.restarts:
        return  # past the first restart: a round may have run
    assert got.stats.inprocessings == 0
    assert got.stats == want.stats
    if result is SatResult.SAT:
        assert got.model() == want.model()


class TestFirstRound:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=60),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_a_solve_settling_before_the_first_restart_runs_no_round(
            self, n_vars, n_clauses, seed):
        _settles_like_no_inprocessing(
            random_cnf(random.Random(seed), n_vars, n_clauses))

    def test_a_short_refutation_runs_no_round(self):
        cnf = pigeonhole(6, 5)
        solver = _solver(cnf)
        assert solver.solve() is SatResult.UNSAT
        assert 0 < solver.stats.conflicts < solver.config.restart_base
        _settles_like_no_inprocessing(cnf)

    @pytest.mark.parametrize("config", [
        CDCLConfig(),
        CDCLConfig(restart_base=10, inprocess_interval=30),
    ])
    def test_first_round_runs_in_place_at_the_first_restart(self, config):
        solver = _solver(pigeonhole(7, 6), config)
        result, rounds = _solve_recording_rounds(solver)
        assert result is SatResult.UNSAT
        (first, learnts), *later = rounds
        # Luby's first unit: the first restart comes once restart_base
        # conflicts are reached, and the round follows it with the
        # search's learnt clauses still in place (none reduced yet).
        assert first.conflicts >= config.restart_base
        assert first.restarts == 1 and first.deleted == 0
        assert learnts == first.learned > 0
        assert first.inprocessings == 0
        # Later rounds keep the interval.
        marks = [first.conflicts] + [s.conflicts for s, _ in later]
        assert all(b - a >= config.inprocess_interval
                   for a, b in zip(marks, marks[1:]))
        assert solver.stats.inprocessings == len(rounds)

    def test_without_restarts_exactly_one_round_runs(self):
        config = CDCLConfig(use_restarts=False)
        solver = _solver(pigeonhole(7, 6), config)
        result, rounds = _solve_recording_rounds(solver)
        assert result is SatResult.UNSAT
        ((at_round, learnts),) = rounds
        assert at_round.conflicts >= config.restart_base
        assert learnts == at_round.learned > 0
        assert solver.stats.restarts == 0
        assert solver.stats.conflicts > config.restart_base

    def test_certified_unsat_after_an_in_place_first_round(self):
        cnf = pigeonhole(7, 6)
        proof = ProofLog()
        solver = _solver(cnf, proof=proof)
        assert solver.solve() is SatResult.UNSAT
        assert solver.stats.inprocessings >= 1
        assert solver.stats.eliminated and solver.stats.subsumed
        check_lrat(dict(enumerate(cnf.clauses)), proof.steps)

    def test_budget_running_out_during_the_first_round_gives_unknown(self):
        cnf = pigeonhole(7, 6)
        solver = _solver(cnf)
        budget = Budget()
        budget.start()
        vivify = solver._vivify

        def cancel_mid_round(round_budget, ticks):
            budget.cancel()
            return vivify(round_budget, ticks)

        solver._vivify = cancel_mid_round
        assert solver.solve(budget=budget) is SatResult.UNKNOWN
        assert solver.stats.inprocessings == 1
        assert solver.exhaust_report is not None
        assert solver.exhaust_report.reason is ExhaustionReason.CANCELLED

        state = solver.checkpoint_state()
        resumed = _solver(cnf)
        resumed.restore_state(state)
        assert resumed.solve() is SatResult.UNSAT
        assert solver.solve() is SatResult.UNSAT


# ----- vivification ------------------------------------------------------------

def _unit_closure(clauses, units):
    """Literals unit propagation makes true, or None on a conflict."""
    true = set()
    for lit in units:
        if -lit in true:
            return None
        true.add(lit)
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            if any(lit in true for lit in clause):
                continue
            free = [lit for lit in clause if -lit not in true]
            if not free:
                return None
            if len(free) == 1:
                true.add(free[0])
                changed = True
    return true


def _reference_vivify(others, lits):
    """The clause vivification shortens ``lits`` to, or None to keep it.

    Trials every literal, the last one included, against unit
    propagation over ``others`` (every other live clause and the root
    units).
    """
    assumed, trial, shrunk = [], [], False
    for lit in lits:
        true = _unit_closure(others, trial)
        if lit in true:
            assumed.append(lit)
            shrunk = True
            break
        if -lit in true:
            shrunk = True
            continue
        trial.append(-lit)
        assumed.append(lit)
        if _unit_closure(others, trial) is None:
            shrunk = len(assumed) < len(lits)
            break
    return assumed if shrunk and len(assumed) < len(lits) else None


def _vivify_outcomes(solver: CDCLSolver, ticks: int):
    """Run one vivification pass, returning (clause, expected, actual).

    ``actual`` is the literals the solver shortened the clause to, or
    None when it kept it.  Also asserts that no trial assumes the
    negation of the clause's last literal.
    """
    outcomes = []
    detach, enqueue = solver._detach, solver._enqueue
    replace = solver._replace_clause_detached

    def spy_detach(cid):
        lits = solver._clause_lits(cid)
        if not any(solver._lit_value(l) > 0 for l in lits):
            others = [solver._clause_lits(c)
                      for c in range(len(solver._c_start))
                      if c != cid and not solver._c_dead[c]]
            others += [[l] for l in solver._to_signed(solver._trail)]
            outcomes.append([lits, _reference_vivify(others, lits), None])
        detach(cid)

    def spy_enqueue(lit, reason=-1):
        if solver._trail_lim:
            assert solver._to_signed([lit ^ 1]) != outcomes[-1][0][-1:]
        return enqueue(lit, reason)

    def spy_replace(cid, keep, hints):
        outcomes[-1][2] = solver._to_signed(keep)
        return replace(cid, keep, hints)

    solver._detach = spy_detach
    solver._enqueue = spy_enqueue
    solver._replace_clause_detached = spy_replace
    try:
        solver._vivify(None, ticks)
    finally:
        del solver._detach, solver._enqueue, solver._replace_clause_detached
    return outcomes


_clause = st.lists(
    st.tuples(st.integers(1, 8), st.booleans()),
    min_size=2, max_size=5, unique_by=lambda t: t[0],
).map(lambda lits: [v if pos else -v for v, pos in lits])


class TestVivify:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_clause, min_size=1, max_size=30))
    def test_outcomes_match_trialling_every_literal(self, clauses):
        cnf = CNF(num_vars=8)
        for clause in clauses:
            cnf.add_clause(clause)
        solver = CDCLSolver(cnf.num_vars)
        if not solver.add_cnf(cnf):
            return
        for lits, expected, actual in _vivify_outcomes(solver, 10**9):
            assert actual == expected, lits

    def test_outcomes_cover_kept_and_shortened_clauses(self):
        rng = random.Random(3)
        kept = shortened = 0
        for _ in range(40):
            cnf = CNF(num_vars=8)
            for _ in range(rng.randint(10, 30)):
                cnf.add_clause([rng.choice([1, -1]) * v for v in
                                rng.sample(range(1, 9), rng.randint(2, 5))])
            solver = CDCLSolver(cnf.num_vars)
            if not solver.add_cnf(cnf):
                continue
            for _, expected, actual in _vivify_outcomes(solver, 10**9):
                assert actual == expected
                kept += actual is None
                shortened += actual is not None
        assert kept and shortened

    @pytest.mark.parametrize("effort,floor,ticks", [
        (cdcl.VIVIFY_EFFORT, cdcl.VIVIFY_FLOOR, 120_000),
        (0.05, 50, 120_000),
        (1.0, 0, 120_000),
        (1.0, 0, 300),  # the cap binds
    ])
    def test_round_stays_within_its_share_of_the_search(
            self, monkeypatch, effort, floor, ticks):
        monkeypatch.setattr(cdcl, "VIVIFY_EFFORT", effort)
        monkeypatch.setattr(cdcl, "VIVIFY_FLOOR", floor)
        config = CDCLConfig(inprocess_interval=30, restart_base=10,
                            vivify_ticks=ticks)
        solver = _solver(pigeonhole(7, 6), config)
        rounds = []  # [search props, ticks given, props at last clause, spent]
        last_end = [0]
        inprocess, vivify, detach = (
            solver._inprocess, solver._vivify, solver._detach)

        def spy_inprocess(frozen, budget):
            rounds.append([solver.stats.propagations - last_end[0],
                           None, None, None])
            try:
                return inprocess(frozen, budget)
            finally:
                last_end[0] = solver.stats.propagations

        def spy_vivify(budget, given_ticks):
            rounds[-1][1] = given_ticks
            start = solver.stats.propagations
            try:
                return vivify(budget, given_ticks)
            finally:
                rounds[-1][2] = (rounds[-1][2] or start) - start
                rounds[-1][3] = solver.stats.propagations - start

        def spy_detach(cid):
            if rounds and rounds[-1][1] is not None and rounds[-1][3] is None:
                rounds[-1][2] = solver.stats.propagations
            detach(cid)

        solver._inprocess = spy_inprocess
        solver._vivify = spy_vivify
        solver._detach = spy_detach
        assert solver.solve() is SatResult.UNSAT
        assert len(rounds) >= 10
        binding = 0
        for searched, given_ticks, before_last, spent in rounds:
            limit = min(ticks, max(floor, int(effort * searched)))
            assert given_ticks == limit
            # Checked between clauses: only the last clause may overrun.
            assert before_last <= limit
            binding += spent > limit
        assert sum(r[3] for r in rounds) == solver.stats.vivify_propagations
        if floor < 100:
            assert binding  # the budget, not the clause count, ended rounds


# ----- the bulk clause loader -------------------------------------------------

#: Everything loading can touch, compared between the two loaders.
_LOAD_STATE = (
    "num_vars", "_ar", "_c_start", "_c_size", "_c_learnt", "_c_lbd",
    "_c_act", "_c_dead", "_watches", "_bins", "_vals", "_trail",
    "_trail_lim", "_qhead", "_level", "_reason", "_activity", "_phase",
    "_seen", "_eliminated", "_elim_stack", "_heap", "_heap_act", "_n_irr",
    "_n_learnt", "_free_lits", "_ok", "stats", "_c_pid", "_units",
    "_elim_pids",
)

_BULK_VARS = 6


def _load_state(solver: CDCLSolver) -> dict:
    state = {name: copy.deepcopy(getattr(solver, name))
             for name in _LOAD_STATE}
    state["proof"] = list(solver.proof.steps)
    return state


def _add_one_by_one(solver: CDCLSolver, clauses, start: int = 0):
    """The per-clause loading loop the bulk loader replaces."""
    for i in range(start, len(clauses)):
        if solver.budget is not None and (i & 0xFFF) == 0xFFF:
            solver.budget.checkpoint("loading CNF into CDCL")
        if not solver._add_clause(clauses[i], ~i):  # original number i
            return False
    return True


def _outcome(load):
    try:
        return load()
    except (ValueError, BudgetExhausted) as exc:
        return type(exc).__name__, str(exc)


_literal = st.integers(min_value=-(_BULK_VARS + 3),
                       max_value=_BULK_VARS + 3).filter(bool)
#: Units, duplicates, tautologies, literals above num_vars and the
#: empty clause all come up; ``zero`` optionally plants a literal 0.
_bulk_case = st.fixed_dictionaries({
    "clauses": st.lists(st.lists(_literal, max_size=5), max_size=30),
    "start": st.integers(min_value=0, max_value=30),
    "zero": st.none() | st.tuples(st.integers(min_value=0),
                                  st.integers(min_value=0)),
    "setup": st.sampled_from(["fresh", "preamble", "eliminated",
                              "off-root"]),
})


def _bulk_solver(setup: str) -> CDCLSolver:
    """Two calls with the same ``setup`` build identical solvers."""
    solver = CDCLSolver(_BULK_VARS, proof=ProofLog())
    if setup in ("preamble", "off-root"):
        for clause in ([1, 2, 3], [-1], [4, -5], [2, -3, 6]):
            solver.add_clause(clause)
        if setup == "off-root":
            # A SAT answer under an assumption stays above the root.
            assert solver.solve([5]) is SatResult.SAT
            assert solver._trail_lim
    elif setup == "eliminated":
        rng = random.Random(0)
        solver = CDCLSolver(8, proof=ProofLog())
        for _ in range(20):
            solver.add_clause([rng.choice([1, -1]) * rng.randint(1, 8)
                               for _ in range(3)])
        # Too few conflicts to reach a restart: run the round at the
        # root directly, as the first restart would.
        assert solver._inprocess(set(), None)
        assert solver._elim_stack  # every variable was eliminated
        assert solver.solve() is SatResult.SAT
        solver.backtrack_to_root()
    return solver


class TestBulkLoad:
    @settings(max_examples=300, deadline=None)
    @given(_bulk_case)
    def test_bulk_load_equals_clause_by_clause(self, case):
        clauses = [list(c) for c in case["clauses"]]
        if case["zero"] is not None and clauses:
            at, pos = case["zero"]
            clause = clauses[at % len(clauses)]
            clause.insert(pos % (len(clause) + 1), 0)
        start = min(case["start"], len(clauses))
        bulk = _bulk_solver(case["setup"])
        ref = _bulk_solver(case["setup"])
        got = _outcome(lambda: bulk.add_clauses(clauses, start))
        want = _outcome(lambda: _add_one_by_one(ref, clauses, start))
        assert got == want
        assert _load_state(bulk) == _load_state(ref)
        if isinstance(want, tuple):  # raised: both stopped at one clause
            stop = next(i for i in range(start, len(clauses))
                        if 0 in clauses[i])
            assert bulk.load_stopped_at == stop

    def test_add_cnf_loads_through_the_bulk_loader(self):
        cnf = pigeonhole(4, 3)
        solver = CDCLSolver()
        with mock.patch.object(CDCLSolver, "add_clause") as per_clause:
            assert solver.add_cnf(cnf)
        per_clause.assert_not_called()
        assert solver.num_vars == cnf.num_vars
        assert solver._n_irr == len(cnf.clauses)

    @pytest.mark.parametrize("polls", [1, 2, 3])
    def test_budget_runs_out_at_the_same_clause(self, polls):
        rng = random.Random(polls)
        clauses = [[rng.choice([1, -1]) * v
                    for v in rng.sample(range(1, 301), rng.randint(2, 3))]
                   for _ in range(3 * 4096 + 10)]
        bulk = CDCLSolver(300, proof=ProofLog(), budget=PollBudget(polls))
        ref = CDCLSolver(300, proof=ProofLog(), budget=PollBudget(polls))
        with pytest.raises(BudgetExhausted):
            bulk.add_clauses(clauses)
        with pytest.raises(BudgetExhausted):
            _add_one_by_one(ref, clauses)
        assert bulk.load_stopped_at == polls * 4096 - 1
        assert bulk._n_irr == bulk.load_stopped_at
        assert _load_state(bulk) == _load_state(ref)

    def test_interrupted_incremental_load_resumes_where_it_stopped(self):
        from repro.smt.intervals import BoundsEnv, Interval
        from repro.smt.solver import _Session

        def session(budget):
            inc = _Session(BoundsEnv(default=Interval(0, 1)),
                           None, budget, proof=ProofLog())
            cnf = inc.blaster.cnf
            rng = random.Random(7)
            for _ in range(300):
                cnf.new_var()
            for _ in range(5000):
                cnf.add_clause([rng.choice([1, -1]) * v for v in
                                rng.sample(range(2, 302), 2)])
            return inc

        interrupted = session(PollBudget(1))
        with pytest.raises(BudgetExhausted):
            interrupted.load_clauses()
        assert interrupted.loaded_clauses == 4095
        interrupted.sat.budget = None
        interrupted.load_clauses()
        whole = session(None)
        whole.load_clauses()
        # 5000 clauses after the blaster's unit for its constant-true var.
        assert interrupted.loaded_clauses == whole.loaded_clauses == 5001
        assert _load_state(interrupted.sat) == _load_state(whole.sat)

    def test_growing_the_variables_builds_the_pushed_heap(self):
        solver = _solver(pigeonhole(5, 4))
        assert solver.solve() is SatResult.UNSAT
        assert any(a > 0 for a in solver._activity)
        pushed = list(solver._heap)
        first = solver.num_vars + 1
        for v in range(first, first + 7):
            heapq.heappush(pushed, (0.0, v))
        solver._ensure_vars(first + 6)
        assert solver._heap == pushed
        assert len(solver._vals) == 2 * solver.num_vars + 2
        assert len(solver._watches) == len(solver._bins) == len(solver._vals)
