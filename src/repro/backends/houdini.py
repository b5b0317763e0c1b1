"""Houdini-style inference of interface specifications (§5 future work).

The paper: "we plan to explore techniques to synthesize interface
specifications at the boundary of Buffy programs [...] We will use
guess-and-check techniques [...] Specifically, we would like to use the
Houdini algorithm with Dafny to iteratively refine guesses of interface
specifications."

This module implements that plan over our Dafny-style back end:

1. a *grammar* generates candidate invariant conjuncts over the
   program's persistent state — buffer-statistic conservation laws,
   monotonicity and sign facts, capacity bounds, list-length bounds,
   and bound templates for integer globals;
2. candidates falsified by the *initial* state are dropped (the
   initial machine is ground, so this is plain evaluation);
3. the **Houdini loop**: assume the conjunction of all surviving
   candidates over a havocked pre-state, execute one symbolic step,
   and ask the solver for a state where some candidate fails to
   re-establish itself.  Each counterexample *evaluates* every
   candidate's post-state term and removes the falsified ones; the
   loop repeats until the conjunction is inductive (UNSAT).

The result is the unique maximal inductive subset of the candidates —
an automatically synthesized interface specification usable with
:meth:`repro.backends.dafny.DafnyBackend.verify_modular` and with
k-induction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..buffers.symbolic import SymbolicList
from ..compiler.symexec import EncodeConfig, SymbolicMachine
from ..lang.checker import CheckedProgram
from ..obs import METRICS, TRACER
from ..runtime.budget import (
    Budget,
    BudgetExhausted,
    ExhaustionReason,
    ResourceReport,
)
from ..smt.sat.cdcl import CDCLConfig
from ..smt.solver import CheckResult, SmtSolver, governed_check
from ..smt.terms import Term, evaluate, free_vars, mk_and, mk_int, mk_le, mk_not
from .base import AnalysisBackend
from .dafny import StateView


@dataclass(frozen=True)
class Candidate:
    """A named invariant conjunct, as a generator over a state view."""

    name: str
    build: Callable[[StateView], Term]


@dataclass
class HoudiniResult:
    invariant: list[Candidate]
    dropped: list[tuple[str, str]]  # (name, reason)
    iterations: int = 0
    solver_calls: int = 0
    elapsed_seconds: float = 0.0
    # False when the loop stopped on budget exhaustion: the invariant
    # set is then an over-approximation (not yet proven inductive) and
    # ``resource_report`` says what ran out.  The same partial result
    # rides on the raised :class:`BudgetExhausted` as ``exc.partial``.
    complete: bool = True
    resource_report: Optional[ResourceReport] = None

    def names(self) -> list[str]:
        return [c.name for c in self.invariant]

    def outcome(self):
        """Convert to the uniform :class:`repro.analysis.result.AnalysisOutcome`."""
        from ..analysis.result import AnalysisOutcome, Verdict, verdict_for_unknown

        if not self.complete:
            verdict = verdict_for_unknown(self.resource_report)
        elif self.invariant:
            verdict = Verdict.PROVED
        else:
            # Every candidate was falsified: no invariant exists in
            # the grammar, a definitive negative answer.
            verdict = Verdict.VIOLATED
        return AnalysisOutcome(
            verdict=verdict,
            witness=self.as_invariant() if self.invariant else None,
            report=self.resource_report,
            stats={
                "invariants": len(self.invariant),
                "dropped": len(self.dropped),
                "iterations": self.iterations,
                "solver_calls": self.solver_calls,
                "elapsed_seconds": self.elapsed_seconds,
            },
        )

    def as_invariant(self) -> Callable[[StateView], Term]:
        """The synthesized conjunction, usable with verify_modular."""
        candidates = list(self.invariant)

        def invariant(view: StateView) -> Term:
            if not candidates:
                return mk_and()
            return mk_and(*[c.build(view) for c in candidates])

        return invariant


def default_grammar(
    machine: SymbolicMachine,
    int_global_bounds: Sequence[int] = (0, 1, 2, 4, 8),
) -> list[Candidate]:
    """Candidate conjuncts for a program's persistent state.

    Mirrors the paper's "grammars with suitably expressive predicates
    on buffers that can capture interface specifications of interest
    for performance analysis".
    """
    candidates: list[Candidate] = []
    for label in machine._all_buffer_labels():
        candidates.append(Candidate(
            f"conserve[{label}]",
            lambda v, l=label: (v.deq_p(l) + v.backlog_p(l)).eq(v.enq_p(l)),
        ))
        candidates.append(Candidate(
            f"deq_le_enq[{label}]",
            lambda v, l=label: mk_le(v.deq_p(l), v.enq_p(l)),
        ))
        candidates.append(Candidate(
            f"deq_nonneg[{label}]",
            lambda v, l=label: mk_le(mk_int(0), v.deq_p(l)),
        ))
        candidates.append(Candidate(
            f"drop_nonneg[{label}]",
            lambda v, l=label: mk_le(mk_int(0), v.drop_p(l)),
        ))
        capacity = machine.config.buffer_capacity
        candidates.append(Candidate(
            f"backlog_le_cap[{label}]",
            lambda v, l=label, c=capacity: mk_le(v.backlog_p(l), mk_int(c)),
        ))
        # A deliberately-false candidate family Houdini must reject:
        candidates.append(Candidate(
            f"never_dequeues[{label}]",
            lambda v, l=label: v.deq_p(l).eq(mk_int(0)),
        ))
    for name, value in machine.globals_.items():
        if isinstance(value, SymbolicList):
            candidates.append(Candidate(
                f"listlen_le_cap[{name}]",
                lambda v, n=name: mk_le(v.list_(n).len_term(),
                                        mk_int(v.list_(n).capacity)),
            ))
            candidates.append(Candidate(
                f"listlen_nonneg[{name}]",
                lambda v, n=name: mk_le(mk_int(0), v.list_(n).len_term()),
            ))
            continue
        if isinstance(value, Term) and value.sort.value == "Int":
            for bound in int_global_bounds:
                candidates.append(Candidate(
                    f"{name}_ge_0",
                    lambda v, n=name: mk_le(mk_int(0), v.global_(n)),
                ))
                candidates.append(Candidate(
                    f"{name}_le_{bound}",
                    lambda v, n=name, b=bound: mk_le(v.global_(n), mk_int(b)),
                ))
    # Deduplicate by name (the bound loop above repeats the >=0 fact).
    seen: set[str] = set()
    unique: list[Candidate] = []
    for cand in candidates:
        if cand.name not in seen:
            seen.add(cand.name)
            unique.append(cand)
    return unique


class HoudiniSynthesizer(AnalysisBackend):
    """Infers the maximal inductive subset of candidate invariants.

    Normalized constructor: ``HoudiniSynthesizer(program, *,
    budget=..., chaos=..., solver_factory=..., jobs=..., cache=...)``.
    Every Houdini round re-queries the *same* one-step transition
    system, so by default all rounds share one incremental solver: the
    machine is bit-blasted once and each round's candidate conjunction
    rides as check-time assumptions.
    """

    def __init__(
        self,
        program: Optional[CheckedProgram] = None,
        config: Optional[EncodeConfig] = None,
        sat_config: Optional[CDCLConfig] = None,
        value_range: tuple[int, int] = (-1, 63),
        stat_bound: int = 1 << 10,
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
        if program is None:
            raise TypeError("HoudiniSynthesizer requires a program")
        super().__init__(
            program,
            sat_config=sat_config, validate_models=validate_models,
            budget=budget, escalation=escalation, chaos=chaos,
            solver_factory=solver_factory, jobs=jobs, cache=cache,
            incremental=incremental, certify=certify,
        )
        self.config = config or EncodeConfig()
        self.value_range = value_range
        self.stat_bound = stat_bound

    def _default_incremental(self) -> bool:
        # Every round re-queries the same one-step transition system.
        return True

    def synthesize(
        self,
        candidates: Optional[Sequence[Candidate]] = None,
        max_iterations: int = 64,
    ) -> HoudiniResult:
        """Run the Houdini loop to the maximal inductive subset.

        Raises :class:`BudgetExhausted` when the budget runs out
        mid-loop; the exception's ``partial`` attribute carries a
        ``HoudiniResult`` with ``complete=False`` whose invariant set is
        the surviving (not yet proven inductive) candidates.
        """
        t0 = time.perf_counter()
        dropped: list[tuple[str, str]] = []

        # ---- stage 0: build the one-step transition with pre/post terms.
        machine = SymbolicMachine(self.program, self.config,
                                  budget=self.budget)
        if candidates is None:
            candidates = default_grammar(machine)
        machine.havoc_state(
            value_range=self.value_range, stat_bound=self.stat_bound
        )
        pre_view = StateView(machine)
        pre_terms = {c.name: c.build(pre_view) for c in candidates}
        try:
            machine.exec_step()
        except BudgetExhausted as exc:
            raise self._exhausted(
                exc.report, list(candidates), dropped, 0, 0, t0
            ) from None
        post_view = StateView(machine)
        post_terms = {c.name: c.build(post_view) for c in candidates}

        # ---- stage 1: drop candidates false in the (ground) initial state.
        init_machine = SymbolicMachine(self.program, self.config)
        init_view = StateView(init_machine)
        surviving: list[Candidate] = []
        for cand in candidates:
            term = cand.build(init_view)
            values = {
                v.name: (False if v.sort.value == "Bool" else 0)
                for v in free_vars(term)
            }
            if evaluate(term, values) is True:
                surviving.append(cand)
            else:
                dropped.append((cand.name, "false at init"))

        # ---- stage 2: the Houdini loop.
        iterations = 0
        solver_calls = 0
        # With the (default) incremental engine the machine is encoded
        # once and every round's candidate conjunction rides as
        # check-time assumptions on the same solver.
        shared = self._machine_solver(machine) if self._incremental() else None
        while surviving and iterations < max_iterations:
            iterations += 1
            solver = shared or self._machine_solver(machine)
            pre = mk_and(*[pre_terms[c.name] for c in surviving])
            neg_post = mk_not(
                mk_and(*[post_terms[c.name] for c in surviving])
            )
            solver_calls += 1
            if METRICS.enabled:
                METRICS.counter_inc(
                    "repro_vcs_total", backend="houdini", status="round")
            with TRACER.span("houdini-round", round=iterations,
                             candidates=len(surviving)) as sp:
                result, report = governed_check(solver, pre, neg_post)
                sp.set("result", result.value)
            if result is CheckResult.UNSAT:
                break  # inductive!
            if result is CheckResult.UNKNOWN:
                if report is None:
                    report = ResourceReport(
                        reason=ExhaustionReason.FAULT,
                        message="solver returned UNKNOWN during Houdini",
                    )
                raise self._exhausted(
                    report, surviving, dropped,
                    iterations, solver_calls, t0,
                )
            model = solver.model()
            still: list[Candidate] = []
            for cand in surviving:
                if model.eval(post_terms[cand.name]) is True:
                    still.append(cand)
                else:
                    dropped.append((cand.name, f"falsified (iter {iterations})"))
            assert len(still) < len(surviving), "Houdini must make progress"
            surviving = still

        return HoudiniResult(
            invariant=surviving,
            dropped=dropped,
            iterations=iterations,
            solver_calls=solver_calls,
            elapsed_seconds=time.perf_counter() - t0,
        )

    def _exhausted(
        self,
        report: ResourceReport,
        surviving: list[Candidate],
        dropped: list[tuple[str, str]],
        iterations: int,
        solver_calls: int,
        t0: float,
    ) -> BudgetExhausted:
        """A typed exhaustion exception carrying the partial result."""
        partial = HoudiniResult(
            invariant=list(surviving),
            dropped=list(dropped),
            iterations=iterations,
            solver_calls=solver_calls,
            elapsed_seconds=time.perf_counter() - t0,
            complete=False,
            resource_report=report,
        )
        return BudgetExhausted(report, partial=partial)
