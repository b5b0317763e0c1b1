"""SMT back end: bounded verification and trace synthesis (§4, "Back-end
for Z3 and FPerf").

Given a checked Buffy program and a time horizon ``T``, the back end
unrolls the program ``T`` steps through the symbolic executor and asks
the SMT substrate either

* :meth:`SmtBackend.check_assertions` — do all ``assert``s hold on
  every admissible trace? (a violation yields a decoded, replayable
  counterexample), or
* :meth:`SmtBackend.find_trace` — synthesize concrete input traffic
  satisfying an arbitrary query over monitors/buffer statistics (the
  FPerf-style usage), or
* :meth:`SmtBackend.prove` — validity of a query on all traces.

Counterexamples decode into per-step packet arrivals plus havoc values,
which :mod:`repro.analysis.traces` can replay through the concrete
interpreter — every symbolic result is cross-checked executably.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..buffers.packets import Packet
from ..compiler.symexec import EncodeConfig, Obligation, SymbolicMachine
from ..lang.checker import CheckedProgram
from ..obs import METRICS, TRACER, phase_scope
from ..runtime.budget import Budget, BudgetExhausted, ResourceReport
from ..smt.model import Model
from ..smt.sat.cdcl import CDCLConfig
from ..smt.solver import CheckResult, SmtSolver, SolverStats, governed_check
from ..smt.terms import Term, mk_not, mk_or
from .base import AnalysisBackend


class Status(enum.Enum):
    PROVED = "proved"          # no admissible trace violates the property
    VIOLATED = "violated"      # a counterexample trace exists
    SATISFIED = "satisfied"    # find_trace: a witness trace exists
    UNSATISFIABLE = "unsat"    # find_trace: no admissible trace matches
    UNKNOWN = "unknown"


@dataclass
class CounterexampleTrace:
    """A decoded trace: per-step arrivals plus havoc choices."""

    horizon: int
    arrivals: list[dict[str, list[Packet]]]
    havocs: dict[tuple, object] = field(default_factory=dict)
    violated: list[str] = field(default_factory=list)
    model: Optional[Model] = None

    def workload(self) -> list[dict[str, list[Packet]]]:
        """Arrivals in the shape ``Interpreter.run`` expects."""
        return self.arrivals

    def total_arrivals(self, label: Optional[str] = None) -> int:
        total = 0
        for step in self.arrivals:
            for key, packets in step.items():
                if label is None or key == label:
                    total += len(packets)
        return total

    def describe(self) -> str:
        lines = [f"counterexample over {self.horizon} steps"]
        for t, step in enumerate(self.arrivals):
            parts = [
                f"{key}+{len(packets)}"
                for key, packets in sorted(step.items())
                if packets
            ]
            lines.append(f"  t={t}: " + (", ".join(parts) if parts else "(idle)"))
        for name in self.violated:
            lines.append(f"  violates: {name}")
        return "\n".join(lines)


@dataclass
class VerificationResult:
    status: Status
    horizon: int
    counterexample: Optional[CounterexampleTrace] = None
    solver_stats: Optional[SolverStats] = None
    elapsed_seconds: float = 0.0
    resource_report: Optional[ResourceReport] = None

    @property
    def ok(self) -> bool:
        return self.status is Status.PROVED

    @property
    def complete(self) -> bool:
        """False when the analysis stopped early (budget/fault)."""
        return self.status is not Status.UNKNOWN

    def outcome(self):
        """Convert to the uniform :class:`repro.analysis.result.AnalysisOutcome`."""
        # Lazy import: repro.analysis imports the back ends at package
        # init, so the reverse edge must not run at module import time.
        from ..analysis.result import AnalysisOutcome, Verdict, verdict_for_unknown

        if self.status is Status.UNKNOWN:
            verdict = verdict_for_unknown(self.resource_report)
        else:
            verdict = {
                Status.PROVED: Verdict.PROVED,
                Status.VIOLATED: Verdict.VIOLATED,
                # find_trace: the requested witness exists / provably cannot.
                Status.SATISFIED: Verdict.PROVED,
                Status.UNSATISFIABLE: Verdict.VIOLATED,
            }[self.status]
        stats: dict[str, object] = {
            "horizon": self.horizon,
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self.solver_stats is not None:
            # The unified flat schema from repro.smt.stats — the same
            # names the metrics families and `repro stats` report.
            stats.update(self.solver_stats.as_dict())
        return AnalysisOutcome(
            verdict=verdict,
            witness=self.counterexample,
            report=self.resource_report,
            stats=stats,
        )


class SmtBackend(AnalysisBackend):
    """Bounded (unrolled) symbolic analysis of one Buffy program.

    Normalized constructor: ``SmtBackend(program, steps, *, budget=...,
    chaos=..., solver_factory=..., jobs=..., cache=..., incremental=...)``.
    With ``incremental=True`` one solver (and one bit-blasted encoding of
    the unrolled machine) is shared across all queries; each query's
    formulas are passed as check-time assumptions so the shared encoding
    is never polluted.
    """

    def __init__(
        self,
        program: Optional[CheckedProgram] = None,
        steps: Optional[int] = None,
        config: Optional[EncodeConfig] = None,
        sat_config: Optional[CDCLConfig] = None,
        validate_models: bool = True,
        budget: Optional[Budget] = None,
        escalation=None,
        *,
        chaos=None,
        solver_factory=None,
        jobs: Optional[int] = None,
        cache=None,
        incremental: Optional[bool] = None,
        certify: Optional[bool] = None,
    ):
        if program is None or steps is None:
            raise TypeError("SmtBackend requires a program and a horizon")
        if steps <= 0:
            raise ValueError("horizon must be positive")
        super().__init__(
            program, steps,
            sat_config=sat_config, validate_models=validate_models,
            budget=budget, escalation=escalation, chaos=chaos,
            solver_factory=solver_factory, jobs=jobs, cache=cache,
            incremental=incremental, certify=certify,
        )
        self.horizon = steps
        self.config = config or EncodeConfig()
        self.machine = SymbolicMachine(program, self.config, budget=budget)
        self._shared_solver: Optional[SmtSolver] = None
        # Budget exhaustion during unrolling is remembered, not raised:
        # every later query then answers UNKNOWN with this report.
        self._unroll_report: Optional[ResourceReport] = None
        try:
            for _ in range(steps):
                self.machine.exec_step()
        except BudgetExhausted as exc:
            self._unroll_report = exc.report

    # ----- query helpers ----------------------------------------------------

    def deq_count(self, label: str, step: int = -1) -> Term:
        """Cumulative packets dequeued from buffer ``label`` by end of ``step``."""
        return self.machine.snapshots[step].deq_p[label]

    def drop_count(self, label: str, step: int = -1) -> Term:
        return self.machine.snapshots[step].drop_p[label]

    def enq_count(self, label: str, step: int = -1) -> Term:
        return self.machine.snapshots[step].enq_p[label]

    def backlog(self, label: str, step: int = -1) -> Term:
        return self.machine.snapshots[step].backlog_p[label]

    def monitor(self, name: str, step: int = -1):
        return self.machine.snapshots[step].monitors[name]

    # ----- solving -----------------------------------------------------------------

    def _solver(self) -> SmtSolver:
        if self._incremental():
            if self._shared_solver is None:
                self._shared_solver = self._machine_solver(self.machine)
            return self._shared_solver
        return self._machine_solver(self.machine)

    def _exhausted_result(
        self, report: Optional[ResourceReport], elapsed: float,
        solver: Optional[SmtSolver] = None,
    ) -> VerificationResult:
        return VerificationResult(
            Status.UNKNOWN, self.horizon,
            solver_stats=solver.stats if solver else None,
            elapsed_seconds=elapsed, resource_report=report,
        )

    def check_assertions(
        self, extra_assumptions: Sequence[Term] = ()
    ) -> VerificationResult:
        """Do the program's ``assert``s hold on every admissible trace?"""
        t0 = time.perf_counter()
        if self._unroll_report is not None:
            return self._exhausted_result(self._unroll_report, 0.0)
        obligations = self.machine.obligations
        if not obligations:
            return VerificationResult(Status.PROVED, self.horizon)
        solver = self._solver()
        # Query formulas ride as check-time assumptions (conjoined for
        # this one call) so a shared incremental solver stays clean.
        goal = mk_or(*[mk_not(ob.formula) for ob in obligations])
        if METRICS.enabled:
            METRICS.counter_inc(
                "repro_vcs_total", backend="smt", status="asserts")
        with TRACER.span("vc", vc="asserts", backend="smt",
                         obligations=len(obligations)) as sp, \
                phase_scope(vc="asserts"):
            result, report = governed_check(solver, *extra_assumptions, goal)
            sp.set("result", result.value)
        elapsed = time.perf_counter() - t0
        if result is CheckResult.UNKNOWN:
            return self._exhausted_result(report, elapsed, solver)
        if result is CheckResult.UNSAT:
            return VerificationResult(
                Status.PROVED, self.horizon,
                solver_stats=solver.stats, elapsed_seconds=elapsed,
            )
        trace = self.decode_trace(solver.model())
        trace.violated = [
            ob.describe()
            for ob in obligations
            if solver.model().eval(ob.formula) is False
        ]
        return VerificationResult(
            Status.VIOLATED, self.horizon, counterexample=trace,
            solver_stats=solver.stats, elapsed_seconds=elapsed,
        )

    def find_trace(
        self,
        query: Term,
        extra_assumptions: Sequence[Term] = (),
    ) -> VerificationResult:
        """Synthesize input traffic satisfying ``query`` (FPerf-style)."""
        t0 = time.perf_counter()
        if self._unroll_report is not None:
            return self._exhausted_result(self._unroll_report, 0.0)
        solver = self._solver()
        if METRICS.enabled:
            METRICS.counter_inc(
                "repro_vcs_total", backend="smt", status="trace-query")
        with TRACER.span("vc", vc="find-trace", backend="smt") as sp, \
                phase_scope(vc="find-trace"):
            result, report = governed_check(solver, *extra_assumptions, query)
            sp.set("result", result.value)
        elapsed = time.perf_counter() - t0
        if result is CheckResult.UNKNOWN:
            return self._exhausted_result(report, elapsed, solver)
        if result is CheckResult.UNSAT:
            return VerificationResult(
                Status.UNSATISFIABLE, self.horizon,
                solver_stats=solver.stats, elapsed_seconds=elapsed,
            )
        trace = self.decode_trace(solver.model())
        return VerificationResult(
            Status.SATISFIED, self.horizon, counterexample=trace,
            solver_stats=solver.stats, elapsed_seconds=elapsed,
        )

    def prove(self, query: Term,
              extra_assumptions: Sequence[Term] = ()) -> VerificationResult:
        """Is ``query`` valid on every admissible trace?"""
        result = self.find_trace(mk_not(query), extra_assumptions)
        mapping = {
            Status.SATISFIED: Status.VIOLATED,
            Status.UNSATISFIABLE: Status.PROVED,
            Status.UNKNOWN: Status.UNKNOWN,
        }
        return VerificationResult(
            mapping[result.status],
            self.horizon,
            counterexample=result.counterexample,
            solver_stats=result.solver_stats,
            elapsed_seconds=result.elapsed_seconds,
            resource_report=result.resource_report,
        )

    # ----- decoding --------------------------------------------------------------------

    def decode_trace(self, model: Model) -> CounterexampleTrace:
        arrivals: list[dict[str, list[Packet]]] = [
            {} for _ in range(self.horizon)
        ]
        for av in self.machine.arrival_vars:
            present = model.eval(av.present)
            if not present:
                continue
            packet = Packet(
                flow=int(model.eval(av.flow)),
                size=int(model.eval(av.size)),
            )
            arrivals[av.step].setdefault(av.buffer, []).append(packet)
        havocs = {
            (hv.step, hv.name, hv.occurrence): model.eval(hv.var)
            for hv in self.machine.havoc_vars
        }
        return CounterexampleTrace(
            horizon=self.horizon,
            arrivals=arrivals,
            havocs=havocs,
            model=model,
        )
