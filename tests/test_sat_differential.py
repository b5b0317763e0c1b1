"""Hypothesis differential tests: arena CDCL vs the DPLL reference.

The clause-arena CDCL (watched literals, LBD reduction, inprocessing)
is checked against the naive DPLL solver on random CNFs:

* SAT/UNSAT agreement on every instance;
* every SAT model actually satisfies the formula;
* every UNSAT answer carries a hinted (LRAT) proof the independent
  checker replays (the ``--certify`` path), with inprocessing both on
  and off, and logging that proof never changes the search.

Unit propagation settles most of the small random CNFs without a
conflict, so they never reach a restart, where inprocessing rounds
run.  Every test therefore also draws random 3-SAT at the phase
transition (about 4.26 clauses per variable), which needs conflicts,
learning, the aggressive setup's rounds and, under the eager-reduction
setup, learned-clause deletions.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt.cnf import CNF, check_assignment
from repro.smt.sat.cdcl import CDCLConfig, CDCLSolver, SatResult, solve_cnf
from repro.smt.sat.dpll import solve_cnf_dpll
from repro.trust import check_lrat
from repro.trust.proof import ProofLog

# Small enough for DPLL, large enough to exercise learning, reduction,
# and (with the aggressive configs below) inprocessing.
cnf_shapes = st.tuples(
    st.integers(min_value=1, max_value=12),    # variables
    st.integers(min_value=1, max_value=55),    # clauses
    st.integers(min_value=0, max_value=2**32 - 1),  # rng seed
)

#: Inprocessing forced to run every few conflicts so these tiny
#: instances actually exercise elimination/subsumption/vivification.
AGGRESSIVE = CDCLConfig(
    use_inprocessing=True,
    inprocess_interval=4,
    reduce_base=8,
    restart_base=4,
)
PLAIN = CDCLConfig(use_inprocessing=False)
#: Learned-clause reduction at every conflict with no glue kept, so
#: every learned clause longer than two literals is a deletion
#: candidate: proof deletions on every instance that learns a few,
#: whichever path the search takes.
REDUCING = CDCLConfig(use_inprocessing=False, reduce_base=1, reduce_inc=0,
                      lbd_keep=0)

#: Configurations every differential test runs.
SETUPS = [AGGRESSIVE, PLAIN, REDUCING]


def _random_cnf(n_vars: int, n_clauses: int, seed: int) -> CNF:
    rng = random.Random(seed)
    cnf = CNF(num_vars=n_vars)
    for _ in range(n_clauses):
        width = rng.randint(1, 3)
        cnf.add_clause([
            rng.choice([1, -1]) * rng.randint(1, n_vars)
            for _ in range(width)
        ])
    return cnf


def _random_3sat(n_vars: int, seed: int) -> CNF:
    """Random 3-SAT at the satisfiability threshold (ratio 4.26)."""
    rng = random.Random(seed)
    cnf = CNF(num_vars=n_vars)
    for _ in range(round(4.26 * n_vars)):
        cnf.add_clause([
            rng.choice([1, -1]) * v
            for v in rng.sample(range(1, n_vars + 1), 3)
        ])
    return cnf


#: 10-20 variables keep DPLL cheap at the threshold.
threshold_shapes = st.tuples(
    st.integers(min_value=10, max_value=20),   # variables
    st.integers(min_value=0, max_value=2**32 - 1),  # rng seed
)
random_cnfs = st.one_of(
    cnf_shapes.map(lambda shape: _random_cnf(*shape)),
    threshold_shapes.map(lambda shape: _random_3sat(*shape)),
)


@settings(max_examples=120, deadline=None)
@given(random_cnfs)
def test_cdcl_agrees_with_dpll(cnf):
    ref_result, _ = solve_cnf_dpll(cnf)
    for config in SETUPS:
        result, model, _ = solve_cnf(cnf, config)
        assert result is ref_result, (
            f"verdict mismatch vs DPLL ({config=})"
        )
        if result is SatResult.SAT:
            assert check_assignment(cnf, model), "model does not satisfy CNF"


@settings(max_examples=60, deadline=None)
@given(random_cnfs)
def test_unsat_answers_carry_checkable_drat_proofs(cnf):
    ref_result, _ = solve_cnf_dpll(cnf)
    if ref_result is not SatResult.UNSAT:
        return
    for config in SETUPS:
        proof = ProofLog()
        solver = CDCLSolver(cnf.num_vars, config, proof=proof)
        ok = solver.add_cnf(cnf)
        result = solver.solve() if ok else SatResult.UNSAT
        assert result is SatResult.UNSAT
        # The independent checker must accept the refutation — with
        # inprocessing on, this covers elimination/strengthening steps.
        check_lrat(dict(enumerate(cnf.clauses)), proof.steps)


@settings(max_examples=60, deadline=None)
@given(random_cnfs, st.integers(min_value=1, max_value=20))
def test_proof_logging_does_not_move_the_search(cnf, pivot):
    """With inprocessing every 4 conflicts, a proof-logging solver makes
    exactly the search a plain one makes, and its refutations (root or
    under an assumption) pass the hint checker."""
    lit = ((pivot - 1) % cnf.num_vars) + 1
    clauses = dict(enumerate(cnf.clauses))
    proof = ProofLog()
    logged = CDCLSolver(cnf.num_vars, AGGRESSIVE, proof=proof)
    plain = CDCLSolver(cnf.num_vars, AGGRESSIVE)
    ok = logged.add_cnf(cnf)
    assert plain.add_cnf(cnf) is ok
    for assumptions in ([lit], [], [-lit]):
        if not ok:
            break
        result = logged.solve(assumptions)
        assert plain.solve(assumptions) is result
        assert logged.stats == plain.stats
        assert logged.unsat_assumptions() == plain.unsat_assumptions()
        if result is SatResult.UNSAT:
            core = logged.unsat_assumptions() if logged._ok else ()
            check_lrat(clauses, proof.steps, core=core)
    if not logged._ok:
        check_lrat(clauses, proof.steps)


@settings(max_examples=40, deadline=None)
@given(random_cnfs, st.integers(min_value=1, max_value=20))
def test_agreement_under_assumptions(cnf, pivot):
    """UNSAT-under-assumptions vs DPLL on the strengthened formula."""
    lit = ((pivot - 1) % cnf.num_vars) + 1
    strengthened = CNF(num_vars=cnf.num_vars)
    for clause in cnf.clauses:
        strengthened.add_clause(clause)
    strengthened.add_clause([lit])
    ref_result, _ = solve_cnf_dpll(strengthened)

    solver = CDCLSolver(cnf.num_vars, AGGRESSIVE)
    if not solver.add_cnf(cnf):
        # Root-level conflict while loading: the base formula is
        # already UNSAT, so the strengthened one must be too.
        assert ref_result is SatResult.UNSAT
        return
    result = solver.solve([lit])
    assert result is ref_result
    if result is SatResult.SAT:
        model = solver.model()
        assert check_assignment(strengthened, model)
    else:
        assert lit in solver.unsat_assumptions() or solver._ok is False


def test_threshold_3sat_learns_and_deletes():
    """Guard: the threshold instances reach learning and proof deletions.

    A fixed-seed sample from ``threshold_shapes``, solved under every
    setup with a proof log; the proof tests above are what check that
    no step cites a clause after its deletion.
    """
    rng = random.Random(0)
    conflicts = learned = deletions = reduced = 0
    for _ in range(20):
        cnf = _random_3sat(rng.randint(10, 20), rng.randrange(2**32))
        for config in SETUPS:
            proof = ProofLog()
            solver = CDCLSolver(cnf.num_vars, config, proof=proof)
            if not solver.add_cnf(cnf):
                continue
            solver.solve()
            conflicts += solver.stats.conflicts
            learned += solver.stats.learned
            deletions += sum(1 for step in proof.steps if step[0] == "d")
            reduced += solver.stats.deleted
    assert conflicts > 0 and learned > 0 and deletions > 0
    # Reduction, not a root-satisfied learnt met by chance, is what
    # keeps deletions in every DRAT replay above.
    assert reduced > 0


def test_aggressive_setup_still_runs_inprocessing_rounds():
    """Guard: the differential tests above must keep reaching inprocessing.

    Drawn from the same ranges as ``threshold_shapes``.  Rounds run at
    restarts, which the tiny ``cnf_shapes`` instances never reach.
    """
    rng = random.Random(0)
    rounds = eliminated = 0
    for _ in range(20):
        cnf = _random_3sat(rng.randint(10, 20), rng.randrange(2**32))
        _, _, stats = solve_cnf(cnf, AGGRESSIVE)
        rounds += stats.inprocessings
        eliminated += stats.eliminated
    assert rounds >= 1 and eliminated >= 1
