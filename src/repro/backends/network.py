"""SMT analysis of composed program networks.

The composition analogue of :class:`repro.backends.smt_backend.SmtBackend`:
unrolls a :class:`~repro.compiler.composition.SymbolicNetwork` for a
bounded horizon and offers the same check / find-trace / decode
interface over the union of all member programs' constraints.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ..buffers.packets import Packet
from ..compiler.composition import Connection, SymbolicNetwork
from ..compiler.symexec import EncodeConfig
from ..lang.checker import CheckedProgram
from ..runtime.budget import Budget, BudgetExhausted, ResourceReport
from ..smt.model import Model
from ..smt.sat.cdcl import CDCLConfig
from ..smt.solver import CheckResult, SmtSolver, governed_check
from ..smt.terms import Term, mk_not, mk_or
from .base import AnalysisBackend
from .smt_backend import CounterexampleTrace, Status, VerificationResult


class NetworkBackend(AnalysisBackend):
    """Bounded symbolic analysis of a composed network of Buffy programs.

    Carries the same normalized keyword tail as the other back ends
    (``budget`` / ``chaos`` / ``solver_factory`` / ``jobs`` / ``cache``
    / ``incremental``).
    """

    def __init__(
        self,
        programs: dict[str, CheckedProgram] = None,
        connections: Sequence[Connection] = (),
        steps: Optional[int] = None,
        configs: Optional[dict[str, EncodeConfig]] = None,
        default_config: Optional[EncodeConfig] = None,
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
    ):
        if steps is None or steps <= 0:
            raise ValueError("horizon must be positive")
        super().__init__(
            programs, steps,
            sat_config=sat_config, validate_models=validate_models,
            budget=budget, escalation=escalation, chaos=chaos,
            solver_factory=solver_factory, jobs=jobs, cache=cache,
            incremental=incremental,
        )
        self.horizon = steps
        self._shared_solver: Optional[SmtSolver] = None
        self.network = SymbolicNetwork(
            programs, connections, configs=configs, default_config=default_config
        )
        for machine in self.network.machines.values():
            machine.budget = budget
        # As in SmtBackend: exhaustion during unrolling is remembered,
        # and every later query answers UNKNOWN with this report.
        self._unroll_report: Optional[ResourceReport] = None
        try:
            for _ in range(steps):
                self.network.exec_step()
        except BudgetExhausted as exc:
            self._unroll_report = exc.report

    # ----- query helpers -----------------------------------------------------

    def deq_count(self, program: str, label: str, step: int = -1) -> Term:
        return self.network.machine(program).snapshots[step].deq_p[label]

    def drop_count(self, program: str, label: str, step: int = -1) -> Term:
        return self.network.machine(program).snapshots[step].drop_p[label]

    def enq_count(self, program: str, label: str, step: int = -1) -> Term:
        return self.network.machine(program).snapshots[step].enq_p[label]

    def backlog(self, program: str, label: str, step: int = -1) -> Term:
        return self.network.machine(program).snapshots[step].backlog_p[label]

    def monitor(self, program: str, name: str, step: int = -1):
        return self.network.machine(program).snapshots[step].monitors[name]

    # ----- solving ------------------------------------------------------------------

    def _solver(self) -> SmtSolver:
        if self._incremental() and self._shared_solver is not None:
            return self._shared_solver
        solver = self._new_solver()
        for name, (lo, hi) in self.network.bounds.items():
            solver.set_bounds(name, lo, hi)
        for assumption in self.network.assumptions:
            solver.add(assumption)
        if self._incremental():
            self._shared_solver = solver
        return solver

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
        t0 = time.perf_counter()
        if self._unroll_report is not None:
            return self._exhausted_result(self._unroll_report, 0.0)
        obligations = self.network.obligations
        if not obligations:
            return VerificationResult(Status.PROVED, self.horizon)
        solver = self._solver()
        goal = mk_or(*[mk_not(ob.formula) for ob in obligations])
        result, report = governed_check(solver, *extra_assumptions, goal)
        elapsed = time.perf_counter() - t0
        if result is CheckResult.UNKNOWN:
            return self._exhausted_result(report, elapsed, solver)
        if result is CheckResult.UNSAT:
            return VerificationResult(Status.PROVED, self.horizon,
                                      solver_stats=solver.stats,
                                      elapsed_seconds=elapsed)
        trace = self.decode_trace(solver.model())
        trace.violated = [
            ob.describe() for ob in obligations
            if solver.model().eval(ob.formula) is False
        ]
        return VerificationResult(Status.VIOLATED, self.horizon,
                                  counterexample=trace,
                                  solver_stats=solver.stats,
                                  elapsed_seconds=elapsed)

    def find_trace(
        self, query: Term, extra_assumptions: Sequence[Term] = ()
    ) -> VerificationResult:
        t0 = time.perf_counter()
        if self._unroll_report is not None:
            return self._exhausted_result(self._unroll_report, 0.0)
        solver = self._solver()
        result, report = governed_check(solver, *extra_assumptions, query)
        elapsed = time.perf_counter() - t0
        if result is CheckResult.UNKNOWN:
            return self._exhausted_result(report, elapsed, solver)
        if result is CheckResult.UNSAT:
            return VerificationResult(Status.UNSATISFIABLE, self.horizon,
                                      solver_stats=solver.stats,
                                      elapsed_seconds=elapsed)
        return VerificationResult(Status.SATISFIED, self.horizon,
                                  counterexample=self.decode_trace(solver.model()),
                                  solver_stats=solver.stats,
                                  elapsed_seconds=elapsed)

    def prove(self, query: Term,
              extra_assumptions: Sequence[Term] = ()) -> VerificationResult:
        result = self.find_trace(mk_not(query), extra_assumptions)
        mapping = {
            Status.SATISFIED: Status.VIOLATED,
            Status.UNSATISFIABLE: Status.PROVED,
            Status.UNKNOWN: Status.UNKNOWN,
        }
        return VerificationResult(
            mapping[result.status], self.horizon,
            counterexample=result.counterexample,
            solver_stats=result.solver_stats,
            elapsed_seconds=result.elapsed_seconds,
            resource_report=result.resource_report,
        )

    # ----- decoding -------------------------------------------------------------------

    def decode_trace(self, model: Model) -> CounterexampleTrace:
        """Decode external arrivals per (program, buffer) and havocs."""
        arrivals: list[dict[str, list[Packet]]] = [
            {} for _ in range(self.horizon)
        ]
        for name, machine in self.network.machines.items():
            for av in machine.arrival_vars:
                if not model.eval(av.present):
                    continue
                packet = Packet(
                    flow=int(model.eval(av.flow)),
                    size=int(model.eval(av.size)),
                )
                key = f"{name}.{av.buffer}"
                arrivals[av.step].setdefault(key, []).append(packet)
        havocs = {}
        for name, machine in self.network.machines.items():
            for hv in machine.havoc_vars:
                havocs[(name, hv.step, hv.name, hv.occurrence)] = model.eval(hv.var)
        return CounterexampleTrace(
            horizon=self.horizon, arrivals=arrivals, havocs=havocs, model=model
        )
