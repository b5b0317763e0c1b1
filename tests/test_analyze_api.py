"""The unified result vocabulary and the ``repro.analyze()`` facade.

Covers the api_redesign satellite: one frozen ``AnalysisOutcome`` per
analysis, exit codes derived from ``Verdict`` in exactly one place,
``.outcome()`` conversion on every back-end result type, and the
normalized constructor signatures.
"""

import warnings

import pytest

import repro
from repro import AnalysisOutcome, Verdict
from repro.analysis.result import BUDGET_REASONS, EXIT_ERROR, verdict_for_unknown
from repro.backends.dafny import DafnyBackend
from repro.backends.fperf import FPerfBackend
from repro.backends.houdini import HoudiniSynthesizer
from repro.backends.mc import MCStatus, ModelChecker
from repro.backends.smt_backend import SmtBackend, Status
from repro.compiler.symexec import EncodeConfig
from repro.netmodels.schedulers import fq_fixed, round_robin, strict_priority
from repro.runtime.budget import Budget, ExhaustionReason, ResourceReport
from repro.smt.terms import mk_and, mk_int, mk_le

CONFIG = EncodeConfig(buffer_capacity=4, arrivals_per_step=2)


def conservation(view):
    return mk_and(*[
        (view.deq_p(label) + view.backlog_p(label)).eq(view.enq_p(label))
        for label in view.buffer_labels()
    ])


# ----- Verdict / AnalysisOutcome ---------------------------------------------


class TestVerdict:
    def test_exit_codes_are_the_cli_contract(self):
        assert Verdict.PROVED.exit_code == 0
        assert Verdict.VIOLATED.exit_code == 1
        assert Verdict.UNDECIDED.exit_code == 2
        assert Verdict.EXHAUSTED.exit_code == 3
        assert EXIT_ERROR == 4

    def test_cli_reuses_verdict_exit_codes(self):
        from repro import cli

        assert cli.EXIT_PROVED == Verdict.PROVED.exit_code
        assert cli.EXIT_VIOLATED == Verdict.VIOLATED.exit_code
        assert cli.EXIT_UNKNOWN == Verdict.UNDECIDED.exit_code
        assert cli.EXIT_BUDGET == Verdict.EXHAUSTED.exit_code

    def test_verdict_is_not_a_boolean(self):
        with pytest.raises(TypeError):
            bool(Verdict.PROVED)
        with pytest.raises(TypeError):
            if Verdict.VIOLATED:  # pragma: no cover - must raise
                pass

    def test_verdict_for_unknown_classifies_reports(self):
        assert verdict_for_unknown(None) is Verdict.UNDECIDED
        for reason in BUDGET_REASONS:
            report = ResourceReport(reason=reason, message="spent")
            assert verdict_for_unknown(report) is Verdict.EXHAUSTED
        for reason in (ExhaustionReason.INJECTED, ExhaustionReason.FAULT):
            injected = ResourceReport(reason=reason, message="chaos")
            assert verdict_for_unknown(injected) is Verdict.UNDECIDED

    def test_outcome_is_frozen(self):
        outcome = AnalysisOutcome(verdict=Verdict.PROVED)
        with pytest.raises(Exception):
            outcome.verdict = Verdict.VIOLATED
        assert outcome.ok and outcome.exit_code == 0
        assert "proved" in outcome.describe()


# ----- .outcome() on every back-end result type ------------------------------


class TestOutcomeConversions:
    def test_outcome_stats_use_unified_schema(self):
        """outcome.stats carries the flat schema from repro.smt.stats —
        every SatStats counter and every SolverStats scalar, under the
        same names the metrics families use."""
        from repro.smt.stats import SatStats, SolverStats

        backend = SmtBackend(strict_priority(2), steps=3, config=CONFIG)
        found = backend.find_trace(
            mk_le(mk_int(1), backend.deq_count("ibs[0]")))
        stats = found.outcome().stats
        for key in SatStats().as_dict():
            assert key in stats, key
        for key in ("encode_seconds", "solve_seconds", "cnf_vars",
                    "cnf_clauses", "attempts", "cache_hit"):
            assert key in stats, key
        assert set(SolverStats().as_dict()) <= set(stats)

    def test_smt_verification_result(self):
        backend = SmtBackend(strict_priority(2), steps=3, config=CONFIG)
        found = backend.find_trace(
            mk_le(mk_int(1), backend.deq_count("ibs[0]")))
        outcome = found.outcome()
        assert outcome.verdict is Verdict.PROVED
        assert outcome.witness is found.counterexample
        assert outcome.stats["horizon"] == 3
        absent = backend.find_trace(
            mk_le(mk_int(100), backend.deq_count("ibs[0]")))
        assert absent.outcome().verdict is Verdict.VIOLATED

    def test_smt_exhausted_result(self):
        backend = SmtBackend(
            strict_priority(2), steps=3, config=CONFIG,
            budget=Budget(max_solver_calls=0),
        )
        result = backend.find_trace(
            mk_le(mk_int(1), backend.deq_count("ibs[0]")))
        assert result.status is Status.UNKNOWN
        outcome = result.outcome()
        assert outcome.verdict is Verdict.EXHAUSTED
        assert outcome.exit_code == 3
        assert outcome.report is not None

    def test_dafny_report(self):
        backend = DafnyBackend(fq_fixed(2), config=CONFIG)
        report = backend.verify_monolithic(
            3, queries=[("conservation", conservation)])
        assert report.outcome().verdict is Verdict.PROVED

    def test_mc_result(self):
        mc = ModelChecker(round_robin(2), config=CONFIG)
        bmc = mc.bmc(conservation, k=3)
        assert bmc.status is not MCStatus.VIOLATED
        assert bmc.outcome().verdict is Verdict.PROVED
        kind = mc.k_induction(conservation, k=1)
        assert kind.outcome().verdict is Verdict.PROVED

    def test_houdini_result(self):
        houdini = HoudiniSynthesizer(strict_priority(2), config=CONFIG)
        result = houdini.synthesize()
        outcome = result.outcome()
        assert isinstance(outcome, AnalysisOutcome)
        assert outcome.verdict in (Verdict.PROVED, Verdict.VIOLATED)

    def test_fperf_synthesis_result(self):
        fperf = FPerfBackend(round_robin(2), steps=3, config=CONFIG)
        target = mk_le(mk_int(1), fperf.backend.deq_count("ibs[0]"))
        synth = fperf.synthesize_by_generalization(target)
        outcome = synth.outcome()
        assert outcome.verdict is Verdict.PROVED
        assert outcome.witness is synth.workload


# ----- the analyze() facade --------------------------------------------------


class TestAnalyzeFacade:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            repro.analyze(strict_priority(2), backend="z3")

    def test_smt_find_trace_with_callable_query(self):
        outcome = repro.analyze(
            strict_priority(2),
            lambda bk: mk_le(mk_int(1), bk.deq_count("ibs[0]")),
            steps=3, config=CONFIG,
        )
        assert outcome.verdict is Verdict.PROVED
        assert outcome.witness is not None

    def test_smt_prove(self):
        outcome = repro.analyze(
            strict_priority(2),
            lambda bk: mk_le(mk_int(0), bk.deq_count("ibs[0]")),
            steps=3, config=CONFIG, prove=True,
        )
        assert outcome.verdict is Verdict.PROVED

    def test_accepts_raw_source(self):
        source = """\
fifo(in buffer ib, out buffer ob){
  move-p(ib, ob, 1);
}
"""
        outcome = repro.analyze(
            source, lambda bk: mk_le(mk_int(1), bk.deq_count("ib")),
            steps=3, config=CONFIG,
        )
        assert outcome.verdict is Verdict.PROVED

    def test_dafny_and_mc_backends(self):
        for backend in ("dafny", "mc"):
            outcome = repro.analyze(
                round_robin(2), conservation, backend=backend,
                steps=3, config=CONFIG,
            )
            assert outcome.verdict is Verdict.PROVED, backend

    def test_mc_requires_query(self):
        with pytest.raises(ValueError, match="requires a property"):
            repro.analyze(round_robin(2), backend="mc", config=CONFIG)

    def test_fperf_requires_query(self):
        with pytest.raises(ValueError, match="requires a query"):
            repro.analyze(round_robin(2), backend="fperf", config=CONFIG)

    def test_houdini_backend(self):
        outcome = repro.analyze(
            strict_priority(2), backend="houdini", steps=3, config=CONFIG,
        )
        assert outcome.verdict in (Verdict.PROVED, Verdict.VIOLATED)

    def test_budget_exhaustion_maps_to_exit_3(self):
        outcome = repro.analyze(
            strict_priority(2),
            lambda bk: mk_le(mk_int(1), bk.deq_count("ibs[0]")),
            steps=3, config=CONFIG, budget=Budget(max_solver_calls=0),
        )
        assert outcome.verdict is Verdict.EXHAUSTED
        assert outcome.exit_code == 3

    def test_engine_knobs_reach_the_solver(self):
        from repro.engine import ResultCache

        cache = ResultCache()
        query = lambda bk: mk_le(mk_int(1), bk.deq_count("ibs[0]"))
        first = repro.analyze(strict_priority(2), query, steps=3,
                              config=CONFIG, jobs=2, cache=cache)
        second = repro.analyze(strict_priority(2), query, steps=3,
                               config=CONFIG, jobs=2, cache=cache)
        assert first.verdict is second.verdict is Verdict.PROVED
        assert cache.stats.hits >= 1
        assert second.stats["cache_hit"]

    def test_exported_from_package_root(self):
        assert repro.analyze is not None
        assert repro.Verdict is Verdict
        assert repro.AnalysisOutcome is AnalysisOutcome


# ----- normalized constructors ---------------------------------------------


class TestConstructorShims:
    """The normalized ``(program, steps)`` spelling; the legacy
    ``checked=``/``horizon=`` keywords are gone (an unknown keyword is a
    ``TypeError``)."""

    def test_modern_spelling_is_warning_free(self):
        program = strict_priority(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            backend = SmtBackend(program, steps=3, config=CONFIG)
        assert backend.program is program

    def test_backends_require_a_program(self):
        with pytest.raises(TypeError):
            SmtBackend(steps=3)
        with pytest.raises(TypeError):
            DafnyBackend()
