"""Graceful degradation under resource budgets and injected faults.

The resource-governance contract, end to end: every back end, given a
budget that is too small or a solver that misbehaves, must return a
*structured partial result* (or a typed exception carrying one) — never
hang, never leak a raw exception, never fabricate an answer.
"""

import time

import pytest

from repro import Budget, BudgetExhausted, EncodeConfig
from repro.analysis.queries import starvation
from repro.backends import (
    DafnyBackend,
    FPerfBackend,
    HoudiniSynthesizer,
    MCStatus,
    ModelChecker,
    NetworkBackend,
    SmtBackend,
    Status,
    VCStatus,
)
from repro.netmodels.schedulers import fq_buggy
from repro.runtime import ExhaustionReason, ResourceReport, inject_faults
from repro.smt.sat.cdcl import CDCLConfig
from repro.smt.solver import CheckResult, SmtSolver
from repro.smt.terms import mk_and, mk_eq, mk_int, mk_int_var, mk_le

CONFIG = EncodeConfig(buffer_capacity=4, arrivals_per_step=2)
HORIZON = 4


def _starve(backend):
    return starvation(backend, "ibs[0]")


def _bounded_backlog(view):
    return mk_le(view.backlog_p("ibs[0]"), mk_int(CONFIG.buffer_capacity))


class TestSolverUnknownContract:
    """Satellite: SmtSolver.check() UNKNOWN handling."""

    def _hard_solver(self, budget=None, sat_config=None, escalation=None):
        solver = SmtSolver(sat_config=sat_config, budget=budget,
                           escalation=escalation)
        xs = [mk_int_var(f"q{i}") for i in range(8)]
        for x in xs:
            solver.set_bounds(x.name, 0, 50)
        acc = xs[0]
        for x in xs[1:]:
            acc = acc * x
        solver.add(mk_le(mk_int(10**6), acc))
        return solver

    def test_model_raises_clear_error_after_unknown(self):
        solver = self._hard_solver(budget=Budget(max_conflicts=5))
        assert solver.check() is CheckResult.UNKNOWN
        with pytest.raises(RuntimeError) as excinfo:
            solver.model()
        msg = str(excinfo.value)
        assert "UNKNOWN" in msg
        assert "conflicts" in msg        # names the exhausted resource
        assert "stale" in msg

    def test_stats_recorded_for_exhausted_run(self):
        solver = self._hard_solver(budget=Budget(max_conflicts=5))
        solver.check()
        assert solver.stats.encode_seconds > 0
        assert solver.stats.cnf_clauses > 0
        assert solver.last_report.conflicts >= 5

    def test_budget_refuses_calls_beyond_cap(self):
        solver = SmtSolver(budget=Budget(max_solver_calls=1))
        solver.add(mk_le(mk_int(0), mk_int(1)))
        assert solver.check() is CheckResult.SAT      # the Nth call runs
        assert solver.check() is CheckResult.UNKNOWN  # call N+1 refused
        assert solver.last_report.reason is ExhaustionReason.SOLVER_CALLS
        assert "refused before encoding" in solver.last_report.message

    def test_escalation_retries_per_call_cap(self):
        from repro.runtime import EscalationPolicy

        solver = self._hard_solver(
            sat_config=CDCLConfig(max_conflicts=3),
            escalation=EscalationPolicy(max_attempts=3),
        )
        result = solver.check()
        # Whatever the final verdict, all rungs of the ladder must run
        # when every attempt exhausts its per-call cap.
        if result is CheckResult.UNKNOWN:
            assert solver.stats.attempts == 3
            assert solver.last_report.attempts == 3
        else:
            assert solver.stats.attempts >= 2


class TestBackendPartialResults:
    """Satellite: tiny budgets yield structured partial results."""

    def test_smt_backend_unknown_with_report(self):
        # Inprocessing is disabled so the instance genuinely needs
        # conflicts: variable elimination alone can crack this fixture
        # without ever charging the conflict budget.  The query is a
        # refutation (FQ always serves a backlogged victim eventually):
        # uncapped it takes ~400 conflicts at this horizon, where the
        # max_service=1 trace is found within a handful.
        backend = SmtBackend(fq_buggy(2), HORIZON + 2, config=CONFIG,
                             sat_config=CDCLConfig(use_inprocessing=False),
                             budget=Budget(max_conflicts=20))
        result = backend.find_trace(
            starvation(backend, "ibs[0]", max_service=0))
        assert result.status is Status.UNKNOWN
        assert not result.complete
        assert result.resource_report.reason is ExhaustionReason.CONFLICTS
        assert result.resource_report.conflicts >= 20

    def test_dafny_per_vc_isolation(self):
        backend = DafnyBackend(fq_buggy(2), config=CONFIG,
                               budget=Budget(max_conflicts=20))
        report = backend.verify_monolithic(
            3, queries=[("b0", _bounded_backlog),
                        ("b1", lambda v: mk_le(v.backlog_p("ibs[1]"),
                                               mk_int(CONFIG.buffer_capacity)))]
        )
        # Both VCs were attempted (no abort after the first UNKNOWN)...
        assert [vc.name for vc in report.vcs] == ["b0", "b1"]
        # ...and each undecided VC carries its own resource report.
        assert not report.complete
        for vc in report.unknown():
            assert vc.resource_report is not None

    def test_fperf_best_so_far(self):
        backend = FPerfBackend(fq_buggy(2), HORIZON, config=CONFIG,
                               budget=Budget(max_conflicts=15))
        result = backend.synthesize_by_generalization(
            starvation(backend.backend, "ibs[0]")
        )
        assert not result.complete
        assert result.resource_report is not None

    def test_mc_reports_safe_prefix(self):
        checker = ModelChecker(fq_buggy(2), config=CONFIG,
                               budget=Budget(max_conflicts=40))
        result = checker.bmc(_bounded_backlog, 4)
        assert result.status is MCStatus.UNKNOWN
        assert not result.complete
        assert result.resource_report is not None
        # The budget allowed at least the initial state to be checked.
        assert result.safe_until is not None and result.safe_until >= 0

    def test_houdini_partial_invariants_on_exception(self):
        synth = HoudiniSynthesizer(fq_buggy(2), config=CONFIG,
                                   budget=Budget(max_conflicts=10))
        with pytest.raises(BudgetExhausted) as excinfo:
            synth.synthesize()
        partial = excinfo.value.partial
        assert partial is not None
        assert not partial.complete
        assert partial.invariant            # surviving candidate subset
        assert partial.resource_report is not None

    def test_network_backend_unknown_with_report(self):
        # A refutation that takes ~230 conflicts uncapped: the victim is
        # backlogged at every step yet never served.
        horizon = 5
        backend = NetworkBackend({"fq": fq_buggy(2)}, [], horizon,
                                 default_config=CONFIG,
                                 budget=Budget(max_conflicts=20))
        result = backend.find_trace(mk_and(
            *[mk_le(mk_int(1), backend.backlog("fq", "ibs[0]", t))
              for t in range(horizon)],
            mk_eq(backend.deq_count("fq", "ibs[0]"), mk_int(0)),
        ))
        assert result.status is Status.UNKNOWN
        assert result.resource_report is not None

    def test_unroll_exhaustion_is_remembered_not_raised(self):
        budget = Budget(deadline_seconds=0.0)
        budget.start()  # deadline already passed when unrolling starts
        backend = SmtBackend(fq_buggy(2), HORIZON, config=CONFIG,
                             budget=budget)
        result = backend.check_assertions()
        assert result.status is Status.UNKNOWN
        assert result.resource_report.reason is ExhaustionReason.DEADLINE


class TestFaultInjectionAcceptance:
    """Acceptance: all six back ends survive injected faults with
    structured partial results and zero unhandled exceptions."""

    CHAOS = dict(seed=42, unknown_rate=0.4, fault_rate=0.4)

    def _run_all_backends(self):
        """Run each back end once; return its (structured) outcome."""
        outcomes = {}

        backend = SmtBackend(fq_buggy(2), 3, config=CONFIG)
        outcomes["smt"] = backend.find_trace(_starve(backend))

        dafny = DafnyBackend(fq_buggy(2), config=CONFIG)
        outcomes["dafny"] = dafny.verify_monolithic(
            2, queries=[("b0", _bounded_backlog)]
        )

        fperf = FPerfBackend(fq_buggy(2), 3, config=CONFIG)
        outcomes["fperf"] = fperf.synthesize_by_generalization(
            starvation(fperf.backend, "ibs[0]")
        )

        checker = ModelChecker(fq_buggy(2), config=CONFIG)
        outcomes["mc"] = checker.bmc(_bounded_backlog, 2)

        try:
            synth = HoudiniSynthesizer(fq_buggy(2), config=CONFIG)
            outcomes["houdini"] = synth.synthesize(max_iterations=8)
        except BudgetExhausted as exc:   # typed, carrying the partial
            outcomes["houdini"] = exc.partial

        net = NetworkBackend({"fq": fq_buggy(2)}, [], 2,
                             default_config=CONFIG)
        outcomes["network"] = net.find_trace(
            mk_le(mk_int(1), net.backlog("fq", "ibs[0]"))
        )
        return outcomes

    def test_all_backends_survive_chaos(self):
        # Any exception other than the typed BudgetExhausted handled
        # above fails this test — that is the acceptance criterion.
        with inject_faults(**self.CHAOS) as monkey:
            outcomes = self._run_all_backends()
        assert len(outcomes) == 6
        assert monkey.log.unknowns + monkey.log.faults > 0
        for name, outcome in outcomes.items():
            assert outcome is not None, name

    def test_chaos_schedule_replays_exactly(self):
        with inject_faults(**self.CHAOS) as first:
            self._run_all_backends()
        with inject_faults(**self.CHAOS) as second:
            self._run_all_backends()
        assert first.log.schedule == second.log.schedule

    def test_all_unknown_still_structured(self):
        with inject_faults(seed=7, unknown_rate=1.0):
            outcomes = self._run_all_backends()
        assert outcomes["smt"].status is Status.UNKNOWN
        assert all(vc.status is VCStatus.UNKNOWN
                   for vc in outcomes["dafny"].vcs)
        assert not outcomes["fperf"].complete
        assert outcomes["mc"].status is MCStatus.UNKNOWN
        assert not outcomes["houdini"].complete
        assert outcomes["network"].status is Status.UNKNOWN


@pytest.mark.slow
class TestDeadlineAcceptance:
    """Acceptance: a wall-clock budget on the Figure-6 T=6 monolithic
    encoding halts within 1.5x the deadline with a populated report."""

    def test_fig6_t6_monolithic_halts_within_deadline(self):
        deadline = 2.0
        config = EncodeConfig(buffer_capacity=5, arrivals_per_step=2)
        backend = DafnyBackend(fq_buggy(2), config=config,
                               budget=Budget(deadline_seconds=deadline))

        def total_work(view):
            deq = view.deq_p("ibs[0]") + view.deq_p("ibs[1]")
            enq = view.enq_p("ibs[0]") + view.enq_p("ibs[1]")
            return mk_le(deq, enq)

        t0 = time.monotonic()
        report = backend.verify_monolithic(
            6, queries=[("total_work", total_work)]
        )
        elapsed = time.monotonic() - t0

        assert elapsed <= 1.5 * deadline, (
            f"run took {elapsed:.2f}s against a {deadline}s deadline"
        )
        assert not report.complete
        (vc,) = report.unknown()
        inner = vc.resource_report
        assert isinstance(inner, ResourceReport)
        assert inner.reason is ExhaustionReason.DEADLINE
        assert inner.elapsed_seconds >= deadline
        assert inner.deadline_seconds == deadline
        assert "deadline" in inner.describe()
