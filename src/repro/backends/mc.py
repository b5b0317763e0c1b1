"""Model-checking back end: transition-system IR, BMC and k-induction.

§4 of the paper: "To use a symbolic model checker, Buffy can transform
the program into a transition system as the IR [...] we plan to
translate a program into a system of Constrained Horn Clauses (CHC)".

This module provides:

* :class:`TransitionSystem` — one Buffy time step as a symbolic
  transition relation over the program's persistent state (built with
  the structured-havoc machinery);
* :meth:`ModelChecker.bmc` — bounded model checking of a state
  property: search for a violation within ``k`` steps from the initial
  state;
* :meth:`ModelChecker.k_induction` — unbounded proof attempts: if the
  property holds in the first ``k`` states (base) and ``k`` consecutive
  property states are always followed by a property state (step), the
  property holds at *every* horizon — strictly stronger than the
  paper's bounded analyses;
* :func:`to_chc` — export the init/trans/property encoding as
  SMT-LIB2 Horn clauses for an external Spacer-style engine.

The safety property is a function over :class:`~repro.backends.dafny.StateView`.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..backends.dafny import StateView
from ..compiler.symexec import EncodeConfig, SymbolicMachine
from ..lang.checker import CheckedProgram
from ..obs import METRICS, TRACER, phase_scope
from ..runtime.budget import Budget, BudgetExhausted, ResourceReport
from ..smt.sat.cdcl import CDCLConfig
from ..smt.smtlib import term_to_smtlib
from ..smt.solver import CheckResult, SmtSolver, governed_check
from ..smt.terms import Term, free_vars, mk_and, mk_not
from .base import AnalysisBackend

Property = Callable[[StateView], Term]


class MCStatus(enum.Enum):
    SAFE_BOUNDED = "safe-bounded"    # BMC: no violation within the bound
    PROVED = "proved"                # k-induction: safe at every horizon
    VIOLATED = "violated"
    UNKNOWN = "unknown"


@dataclass
class MCResult:
    status: MCStatus
    bound: int
    violation_step: Optional[int] = None
    elapsed_seconds: float = 0.0
    solver_calls: int = 0
    # BMC under a budget: the deepest step proven violation-free before
    # the run stopped — the partial result of an exhausted search.
    safe_until: Optional[int] = None
    resource_report: Optional[ResourceReport] = None

    @property
    def ok(self) -> bool:
        return self.status in (MCStatus.SAFE_BOUNDED, MCStatus.PROVED)

    @property
    def complete(self) -> bool:
        return self.status is not MCStatus.UNKNOWN

    def outcome(self):
        """Convert to the uniform :class:`repro.analysis.result.AnalysisOutcome`."""
        from ..analysis.result import AnalysisOutcome, Verdict, verdict_for_unknown

        if self.status is MCStatus.UNKNOWN:
            verdict = verdict_for_unknown(self.resource_report)
        elif self.status is MCStatus.VIOLATED:
            verdict = Verdict.VIOLATED
        else:  # SAFE_BOUNDED / PROVED both answer the asked query positively
            verdict = Verdict.PROVED
        return AnalysisOutcome(
            verdict=verdict,
            witness=self.violation_step,
            report=self.resource_report,
            stats={
                "bound": self.bound,
                "solver_calls": self.solver_calls,
                "safe_until": self.safe_until,
                "elapsed_seconds": self.elapsed_seconds,
            },
        )


class _BmcSession:
    """One incremental solver tracking a monotonically growing machine.

    BMC extends the same machine step after step; instead of
    re-encoding the whole unrolling per depth, new bounds and
    assumptions are synced into a shared solver and each depth's goal
    rides as a check-time assumption.
    """

    def __init__(self, solver: SmtSolver, machine: SymbolicMachine):
        self.solver = solver
        self.machine = machine
        self._bounds_seen: set[str] = set()
        self._synced = 0

    def sync(self) -> None:
        for name, (lo, hi) in self.machine.bounds.items():
            if name not in self._bounds_seen:
                self.solver.set_bounds(name, lo, hi)
                self._bounds_seen.add(name)
        for assumption in self.machine.assumptions[self._synced:]:
            self.solver.add(assumption)
        self._synced = len(self.machine.assumptions)


class ModelChecker(AnalysisBackend):
    """BMC and k-induction for a Buffy program's step transition system.

    Normalized constructor: ``ModelChecker(program, *, budget=...,
    chaos=..., solver_factory=..., jobs=..., cache=...)``.  BMC shares
    one incremental solver across depths by default (the unrolling is
    encoded once, growing step by step).
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
            raise TypeError("ModelChecker requires a program")
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
        # BMC grows one unrolling monotonically — encode it once.
        return True

    def _machine(self) -> SymbolicMachine:
        return SymbolicMachine(self.program, self.config, budget=self.budget)

    def _check(
        self, machine: SymbolicMachine, formula: Term,
        session: Optional[_BmcSession] = None,
    ) -> tuple[CheckResult, Optional[ResourceReport]]:
        if session is not None:
            session.sync()
            return governed_check(session.solver, formula)
        return governed_check(self._machine_solver(machine), formula)

    # ----- bounded model checking --------------------------------------------

    def bmc(self, prop: Property, k: int) -> MCResult:
        """Search for a property violation within ``k`` steps of init.

        Under a budget an exhausted run returns UNKNOWN carrying the
        deepest step already proven safe (``safe_until``) — a usable
        partial result — plus the :class:`ResourceReport`.
        """
        t0 = time.perf_counter()
        machine = self._machine()
        session = (
            _BmcSession(self._new_solver(), machine)
            if self._incremental() else None
        )
        calls = 0
        safe_until: Optional[int] = None
        for step in range(k + 1):
            goal = mk_not(prop(StateView(machine)))
            calls += 1
            if METRICS.enabled:
                METRICS.counter_inc(
                    "repro_vcs_total", backend="mc", status="bound")
            with TRACER.span("bmc-bound", bound=step) as sp, \
                    phase_scope(bound=step):
                result, report = self._check(machine, goal, session)
                sp.set("result", result.value)
            if result is CheckResult.SAT:
                return MCResult(
                    MCStatus.VIOLATED, k, violation_step=step,
                    elapsed_seconds=time.perf_counter() - t0,
                    solver_calls=calls, safe_until=safe_until,
                )
            if result is CheckResult.UNKNOWN:
                return MCResult(
                    MCStatus.UNKNOWN, k,
                    elapsed_seconds=time.perf_counter() - t0,
                    solver_calls=calls, safe_until=safe_until,
                    resource_report=report,
                )
            safe_until = step
            if step < k:
                try:
                    machine.exec_step()
                except BudgetExhausted as exc:
                    return MCResult(
                        MCStatus.UNKNOWN, k,
                        elapsed_seconds=time.perf_counter() - t0,
                        solver_calls=calls, safe_until=safe_until,
                        resource_report=exc.report,
                    )
        return MCResult(
            MCStatus.SAFE_BOUNDED, k,
            elapsed_seconds=time.perf_counter() - t0, solver_calls=calls,
            safe_until=safe_until,
        )

    def bound_core(self, prop: Property, k: int) -> list[Term]:
        """Which machine assumptions make depth-``k`` safety non-vacuous.

        Unrolls ``k`` steps and asks for a violation of ``prop`` at the
        final state, passing every machine assumption (arrival bounds,
        havoc constraints) as a *check-time assumption*.  On UNSAT (the
        bound is safe) the solver's unsat core names the assumptions
        the safety argument actually used.  An **empty** core flags a
        vacuous bound: the negated property is unsatisfiable on its own
        (e.g. contradictory variable bounds), so a deeper search could
        never find a violation either.  Raises :class:`ValueError` when
        the depth is not safe (SAT or UNKNOWN).
        """
        machine = self._machine()
        for _ in range(k):
            machine.exec_step()
        solver = self._new_solver(incremental=True)
        for name, (lo, hi) in machine.bounds.items():
            solver.set_bounds(name, lo, hi)
        solver.add(mk_not(prop(StateView(machine))))
        result = solver.check(*machine.assumptions)
        if result is not CheckResult.UNSAT:
            raise ValueError(
                f"depth {k} is not safe (check() answered {result.value});"
                " no unsat core exists"
            )
        return solver.unsat_core()

    # ----- k-induction -----------------------------------------------------------

    def k_induction(self, prop: Property, k: int = 1,
                    bmc_first: bool = True) -> MCResult:
        """Try to prove ``prop`` at every horizon with k-induction."""
        t0 = time.perf_counter()
        calls = 0

        if bmc_first:
            base = self.bmc(prop, k)
            calls += base.solver_calls
            if base.status is not MCStatus.SAFE_BOUNDED:
                base.elapsed_seconds = time.perf_counter() - t0
                base.solver_calls = calls
                return base

        # Inductive step: havoc a state, assume prop for k consecutive
        # states, check prop after one more step.
        machine = self._machine()
        machine.havoc_state(
            value_range=self.value_range, stat_bound=self.stat_bound
        )
        try:
            for _ in range(k):
                machine.assumptions.append(prop(StateView(machine)))
                machine.exec_step()
        except BudgetExhausted as exc:
            return MCResult(
                MCStatus.UNKNOWN, k,
                elapsed_seconds=time.perf_counter() - t0,
                solver_calls=calls, resource_report=exc.report,
            )
        goal = mk_not(prop(StateView(machine)))
        calls += 1
        result, report = self._check(machine, goal)
        elapsed = time.perf_counter() - t0
        if result is CheckResult.UNSAT:
            return MCResult(MCStatus.PROVED, k, elapsed_seconds=elapsed,
                            solver_calls=calls)
        if result is CheckResult.SAT:
            # The induction step failed — inconclusive, not a violation.
            return MCResult(MCStatus.UNKNOWN, k, elapsed_seconds=elapsed,
                            solver_calls=calls)
        return MCResult(MCStatus.UNKNOWN, k, elapsed_seconds=elapsed,
                        solver_calls=calls, resource_report=report)

    def prove_with_increasing_k(self, prop: Property,
                                max_k: int = 4) -> MCResult:
        """Retry k-induction with growing ``k`` until proved or exhausted."""
        last = MCResult(MCStatus.UNKNOWN, 0)
        total = 0.0
        calls = 0
        for k in range(1, max_k + 1):
            result = self.k_induction(prop, k)
            total += result.elapsed_seconds
            calls += result.solver_calls
            if result.status in (MCStatus.PROVED, MCStatus.VIOLATED):
                result.elapsed_seconds = total
                result.solver_calls = calls
                return result
            last = result
            if result.resource_report is not None:
                break  # budget spent: growing k further cannot help
        last.elapsed_seconds = total
        last.solver_calls = calls
        return last


def to_chc(
    checked: CheckedProgram,
    prop: Property,
    config: Optional[EncodeConfig] = None,
    value_range: tuple[int, int] = (-1, 63),
    stat_bound: int = 1 << 10,
) -> str:
    """Emit init/trans/property as SMT-LIB2 Horn clauses (Spacer input).

    The state predicate ``Inv`` ranges over the program's havocked
    persistent state; three rules encode initiation, consecution and
    the property, in the standard CHC safety format.
    """
    # Transition: havoc pre-state, run a step; post-state values are the
    # machine's state terms afterwards.
    machine = SymbolicMachine(checked, config or EncodeConfig())
    machine.havoc_state(value_range=value_range, stat_bound=stat_bound, tag="s")
    pre_terms = _state_terms(machine)
    pre_vars = [v for t in pre_terms for v in free_vars(t)]
    prop_pre = prop(StateView(machine))
    machine.exec_step()
    post_terms = _state_terms(machine)
    side = mk_and(*machine.assumptions) if machine.assumptions else None

    # Fresh-variable names for the step's nondeterminism (arrivals/havocs).
    aux_vars = []
    seen = {id(v) for v in pre_vars}
    for t in post_terms:
        for v in free_vars(t):
            if id(v) not in seen:
                seen.add(id(v))
                aux_vars.append(v)
    if side is not None:
        for v in free_vars(side):
            if id(v) not in seen:
                seen.add(id(v))
                aux_vars.append(v)

    lines = ["(set-logic HORN)"]
    sorts = " ".join(t.sort.value for t in pre_terms)
    lines.append(f"(declare-fun Inv ({sorts}) Bool)")

    def quantify(vars_, body: str) -> str:
        if not vars_:
            return body
        decls = " ".join(
            f"({_safe(v.name)} {v.sort.value})" for v in vars_
        )
        return f"(forall ({decls}) {body})"

    init_machine = SymbolicMachine(checked, config or EncodeConfig())
    init_terms = _state_terms(init_machine)
    init_args = " ".join(term_to_smtlib(t) for t in init_terms)
    lines.append(f"(assert (Inv {init_args}))")

    pre_args = " ".join(term_to_smtlib(t) for t in pre_terms)
    post_args = " ".join(term_to_smtlib(t) for t in post_terms)
    guard = f"(Inv {pre_args})"
    if side is not None:
        guard = f"(and {guard} {term_to_smtlib(side)})"
    rule = f"(=> {guard} (Inv {post_args}))"
    lines.append(
        "(assert "
        + quantify(pre_vars + aux_vars, rule)
        + ")"
    )
    bad = f"(=> (and (Inv {pre_args}) (not {term_to_smtlib(prop_pre)})) false)"
    lines.append("(assert " + quantify(pre_vars, bad) + ")")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def _safe(name: str) -> str:
    import re

    if re.match(r"^[A-Za-z_][A-Za-z0-9_.!]*$", name) and "." not in name:
        return name
    return "|" + name.replace("|", "_") + "|"


def _state_terms(machine: SymbolicMachine) -> list[Term]:
    """The persistent-state tuple of a machine, as an ordered term list."""
    from ..buffers.symbolic import SymbolicList, SymbolicListBuffer

    out: list[Term] = []
    for label in machine._all_buffer_labels():
        buf = machine._buffer_by_label(label)
        if isinstance(buf, SymbolicListBuffer):
            out.extend(buf.flows)
            out.extend(buf.sizes)
            out.append(buf.length)
        else:
            out.extend(buf.counts)
        stats = buf.stats
        out.extend([stats.enq_p, stats.deq_p, stats.drop_p])

    def add_value(value) -> None:
        if isinstance(value, SymbolicList):
            out.extend(value.elems)
            out.append(value.length)
        elif isinstance(value, list):
            for v in value:
                add_value(v)
        elif isinstance(value, Term):
            out.append(value)

    for name in sorted(machine.globals_):
        add_value(machine.globals_[name])
    return out
