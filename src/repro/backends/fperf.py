"""FPerf-style back end: workload synthesis for performance queries.

FPerf "synthesizes a set of conditions on the input traffic, a.k.a.
workload, that will satisfy the query" (§6.1).  This back end
reproduces that capability over the Buffy pipeline with two search
strategies:

* :meth:`FPerfBackend.synthesize_by_generalization` — find a concrete
  witness trace with the SMT back end, take its exact workload
  characterization, then greedily *generalize* (drop or loosen atoms)
  while the sufficiency check ``W ∧ ¬query UNSAT`` keeps passing.
  Each loosening costs one solver call; the result is a local minimum
  of the condition set.

* :meth:`FPerfBackend.synthesize_by_enumeration` — guess-and-check
  (the SyGuS-style loop of §5): enumerate small conjunctions from the
  atom grammar in cost order, prune candidates against cached
  counterexample traces, and verify survivors with the solver.

A synthesized workload ``W`` satisfies, over the bounded horizon:

* *feasibility* — some admissible trace satisfies ``W``;
* *sufficiency* — every admissible trace satisfying ``W`` satisfies
  the query.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from ..analysis.workloads import (
    Atom,
    BurstGE,
    BurstLE,
    RateGE,
    RateLE,
    Workload,
    exact_characterization,
)
from ..backends.smt_backend import SmtBackend, Status
from ..buffers.packets import Packet
from ..compiler.symexec import EncodeConfig
from ..lang.checker import CheckedProgram
from ..obs import METRICS, TRACER
from ..runtime.budget import Budget, ResourceReport
from ..smt.sat.cdcl import CDCLConfig
from ..smt.terms import Term, mk_not


@dataclass
class SynthesisStats:
    candidates_tried: int = 0
    solver_calls: int = 0
    pruned_by_examples: int = 0
    elapsed_seconds: float = 0.0


@dataclass
class SynthesisResult:
    workload: Optional[Workload]
    witness: Optional[list[dict[str, list[Packet]]]]
    stats: SynthesisStats = field(default_factory=SynthesisStats)
    # False when the search stopped early on budget exhaustion; the
    # workload (if any) is then a best-so-far: still *sufficient* —
    # every returned workload passed that check — just not maximally
    # generalized.
    complete: bool = True
    resource_report: Optional[ResourceReport] = None

    @property
    def ok(self) -> bool:
        return self.workload is not None

    def outcome(self):
        """Convert to the uniform :class:`repro.analysis.result.AnalysisOutcome`."""
        from ..analysis.result import AnalysisOutcome, Verdict, verdict_for_unknown

        if self.workload is not None:
            verdict = Verdict.PROVED
        elif not self.complete:
            verdict = verdict_for_unknown(self.resource_report)
        else:
            # The search space was exhausted without a sufficient
            # workload: a definitive negative within the grammar.
            verdict = Verdict.VIOLATED
        return AnalysisOutcome(
            verdict=verdict,
            witness=self.workload,
            report=self.resource_report,
            stats={
                "candidates_tried": self.stats.candidates_tried,
                "solver_calls": self.stats.solver_calls,
                "pruned_by_examples": self.stats.pruned_by_examples,
                "elapsed_seconds": self.stats.elapsed_seconds,
            },
        )


class FPerfBackend:
    """Workload synthesis for a Buffy program and a query.

    A thin strategy layer over :class:`SmtBackend`; the normalized
    keyword tail (``chaos`` / ``solver_factory`` / ``jobs`` / ``cache``
    / ``incremental``) is forwarded to it.  Synthesis issues dozens to
    thousands of queries against the *same* unrolled machine, so the
    inner back end runs incrementally by default: one shared encoding,
    every query as check-time assumptions.
    """

    def __init__(
        self,
        program: Optional[CheckedProgram] = None,
        steps: Optional[int] = None,
        config: Optional[EncodeConfig] = None,
        sat_config: Optional[CDCLConfig] = None,
        budget: Optional[Budget] = None,
        escalation=None,
        *,
        validate_models: bool = True,
        chaos=None,
        solver_factory=None,
        jobs: Optional[int] = None,
        cache=None,
        incremental: Optional[bool] = None,
        certify: Optional[bool] = None,
    ):
        self.budget = budget
        self.backend = SmtBackend(
            program, steps, config=config, sat_config=sat_config,
            validate_models=validate_models, budget=budget,
            escalation=escalation, chaos=chaos,
            solver_factory=solver_factory, jobs=jobs, cache=cache,
            incremental=True if incremental is None else incremental,
            certify=certify,
        )
        self.program = self.backend.program
        self.horizon = self.backend.horizon
        self.machine = self.backend.machine
        self.labels = self.machine.input_buffer_labels()
        # Report from the most recent UNKNOWN solver answer (if any).
        self._last_report: Optional[ResourceReport] = None

    # ----- budget plumbing ------------------------------------------------------

    def _budget_report(self, where: str) -> Optional[ResourceReport]:
        """A report when the budget is spent, else None (loop-top check)."""
        if self.budget is None:
            return None
        reason = self.budget.exhausted()
        if reason is None:
            return None
        return self.budget.report(reason, where)

    # ----- solver-side checks --------------------------------------------------

    def _feasible(self, workload: Workload, stats: SynthesisStats) -> bool:
        stats.solver_calls += 1
        if METRICS.enabled:
            METRICS.counter_inc(
                "repro_vcs_total", backend="fperf", status="feasible")
        encoded = workload.encode(self.machine, self.horizon)
        with TRACER.span("cegis-iter", kind="feasible",
                         atoms=len(workload.atoms)):
            result = self.backend.find_trace(encoded)
        if result.status is Status.UNKNOWN:
            # Undecided is not feasible-for-sure; remember why.
            self._last_report = result.resource_report
            return False
        self._last_report = None
        return result.status is Status.SATISFIED

    def _sufficient(self, workload: Workload, query: Term,
                    stats: SynthesisStats):
        """UNSAT(W ∧ ¬query) ⇒ sufficient.  Returns (ok, counterexample).

        An UNKNOWN answer is treated conservatively as "not proven
        sufficient" (with ``self._last_report`` set), never as a
        refutation — so budget exhaustion can only shrink the result,
        not corrupt it.
        """
        stats.solver_calls += 1
        if METRICS.enabled:
            METRICS.counter_inc(
                "repro_vcs_total", backend="fperf", status="sufficient")
        encoded = workload.encode(self.machine, self.horizon)
        with TRACER.span("cegis-iter", kind="sufficient",
                         atoms=len(workload.atoms)):
            result = self.backend.find_trace(
                mk_not(query), extra_assumptions=[encoded]
            )
        if result.status is Status.UNKNOWN:
            self._last_report = result.resource_report
            return False, None
        self._last_report = None
        if result.status is Status.UNSATISFIABLE:
            return True, None
        return False, result.counterexample

    # ----- strategy 1: generalize from a witness ------------------------------------

    def synthesize_by_generalization(
        self, query: Term, loosen_rates: bool = True
    ) -> SynthesisResult:
        """Witness → exact characterization → greedy generalization."""
        t0 = time.perf_counter()
        stats = SynthesisStats()

        stats.solver_calls += 1
        witness_result = self.backend.find_trace(query)
        if witness_result.status is Status.UNKNOWN:
            stats.elapsed_seconds = time.perf_counter() - t0
            return SynthesisResult(
                None, None, stats, complete=False,
                resource_report=witness_result.resource_report,
            )
        if witness_result.status is not Status.SATISFIED:
            stats.elapsed_seconds = time.perf_counter() - t0
            return SynthesisResult(None, None, stats)
        witness = witness_result.counterexample.workload()

        workload = exact_characterization(witness, self.labels)
        ok, _ = self._sufficient(workload, query, stats)
        if not ok:
            stats.elapsed_seconds = time.perf_counter() - t0
            if self._last_report is not None:
                # Undecided, not refuted: a partial result with the
                # witness but no proven workload.
                return SynthesisResult(
                    None, witness, stats, complete=False,
                    resource_report=self._last_report,
                )
            # The exact characterization fixes arrival counts but not
            # e.g. havoc choices; if the query can still fail, no
            # arrival-count workload can be sufficient.
            return SynthesisResult(None, witness, stats)

        # Greedily drop atoms while sufficiency holds.  On budget
        # exhaustion the best-so-far workload — already proven
        # sufficient — is returned with ``complete=False``.
        atoms = list(workload.atoms)
        for atom in list(atoms):
            report = self._budget_report("FPerf generalization loop")
            if report is not None:
                stats.elapsed_seconds = time.perf_counter() - t0
                return SynthesisResult(
                    Workload(tuple(atoms)), witness, stats,
                    complete=False, resource_report=report,
                )
            candidate = Workload(tuple(a for a in atoms if a is not atom))
            stats.candidates_tried += 1
            ok, _ = self._sufficient(candidate, query, stats)
            if ok:
                atoms = list(candidate.atoms)
        workload = Workload(tuple(atoms))

        if loosen_rates:
            workload = self._fold_rates(workload, query, stats)
            report = self._budget_report("FPerf rate folding")
            if report is not None:
                stats.elapsed_seconds = time.perf_counter() - t0
                return SynthesisResult(
                    workload, witness, stats,
                    complete=False, resource_report=report,
                )

        stats.elapsed_seconds = time.perf_counter() - t0
        return SynthesisResult(workload, witness, stats)

    def _fold_rates(self, workload: Workload, query: Term,
                    stats: SynthesisStats) -> Workload:
        """Replace runs of per-step burst atoms with rate atoms when valid."""
        by_label: dict[tuple, list] = {}
        for atom in workload.atoms:
            if isinstance(atom, (BurstGE, BurstLE)):
                key = (atom.label, isinstance(atom, BurstGE))
                by_label.setdefault(key, []).append(atom)
        current = workload
        for (label, is_ge), atoms in by_label.items():
            if self._budget_report("FPerf rate folding") is not None:
                return current
            if len(atoms) < 2:
                continue
            start = min(a.step for a in atoms)
            bound = (
                min(a.count for a in atoms) if is_ge
                else max(a.count for a in atoms)
            )
            rate_atom: Atom = (
                RateGE(label, bound, start) if is_ge else RateLE(label, bound, start)
            )
            folded = tuple(
                a for a in current.atoms if a not in atoms
            ) + (rate_atom,)
            candidate = Workload(folded)
            stats.candidates_tried += 1
            ok, _ = self._sufficient(candidate, query, stats)
            if ok:
                current = candidate
        return current

    # ----- strategy 2: enumerative guess-and-check ---------------------------------------

    def atom_grammar(self, max_rate: Optional[int] = None) -> list[Atom]:
        """All atoms in the bounded grammar (the SyGuS search space)."""
        max_rate = max_rate or self.machine.config.arrivals_per_step
        atoms: list[Atom] = []
        for label in self.labels:
            for rate in range(0, max_rate + 1):
                for start in (0, 1):
                    atoms.append(RateGE(label, rate, start))
                    atoms.append(RateLE(label, rate, start))
            for step in range(self.horizon):
                for count in range(0, max_rate + 1):
                    atoms.append(BurstGE(label, step, count))
                    atoms.append(BurstLE(label, step, count))
        return atoms

    def synthesize_by_enumeration(
        self,
        query: Term,
        max_atoms: int = 2,
        max_candidates: int = 5000,
        grammar: Optional[Sequence[Atom]] = None,
    ) -> SynthesisResult:
        """Enumerate small conjunctions; prune with cached bad examples."""
        t0 = time.perf_counter()
        stats = SynthesisStats()
        atoms = list(grammar) if grammar is not None else self.atom_grammar()
        bad_examples: list[list[dict[str, list[Packet]]]] = []

        candidates: Iterable[Workload] = (
            Workload(combo)
            for size in range(1, max_atoms + 1)
            for combo in itertools.combinations(atoms, size)
        )
        for workload in itertools.islice(candidates, max_candidates):
            report = self._budget_report("FPerf enumeration loop")
            if report is not None:
                stats.elapsed_seconds = time.perf_counter() - t0
                return SynthesisResult(
                    None, None, stats, complete=False, resource_report=report
                )
            stats.candidates_tried += 1
            # A candidate consistent with a known bad trace cannot be
            # sufficient; skip it without a solver call.
            if any(workload.holds(example) for example in bad_examples):
                stats.pruned_by_examples += 1
                continue
            ok, counterexample = self._sufficient(workload, query, stats)
            if not ok:
                if counterexample is not None:
                    bad_examples.append(counterexample.workload())
                continue
            if self._feasible(workload, stats):
                stats.elapsed_seconds = time.perf_counter() - t0
                return SynthesisResult(workload, None, stats)
        stats.elapsed_seconds = time.perf_counter() - t0
        return SynthesisResult(None, None, stats)
