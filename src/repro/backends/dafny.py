"""Dafny-style back end: an annotation checker over Buffy programs (§4/§6).

Dafny verifies an imperative program by discharging one verification
condition (VC) per assertion, given user-supplied annotations (loop
invariants, requires/ensures).  This module reproduces that workflow
on top of our SMT substrate, in the two regimes the paper's case
studies contrast:

* **Monolithic** (:meth:`DafnyBackend.verify_monolithic`) — the §6.1
  regime: no invariants are available, so the per-step program is
  *inlined* and the timestep loop *unrolled* to horizon ``T``; every
  assert becomes its own VC over the full unrolling.  Figure 6 shows —
  and the bench ``bench_fig6_dafny_scaling.py`` reproduces — that
  verification time grows exponentially in ``T``.

* **Modular** (:meth:`DafnyBackend.verify_modular`) — the §6.2/§5
  regime: the user supplies an *interface specification* (an inductive
  invariant over the program's persistent state).  Verification then
  needs only three T-independent VCs: initiation, consecution (one
  symbolic step from a havocked state assumed to satisfy the
  invariant — the paper's "structured havoc"), and the property check.

Procedure contracts (``requires`` / ``ensures``) are checked by
:meth:`DafnyBackend.verify_procedure`.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..buffers.symbolic import SymbolicList
from ..compiler.symexec import EncodeConfig, SymbolicMachine, _Executor
from ..lang.ast import Procedure
from ..lang.checker import CheckedProgram
from ..lang.types import ArrayType, BoolType, BufferType, IntType, ListType
from ..obs import METRICS, TRACER
from ..runtime.budget import (
    Budget,
    BudgetExhausted,
    ExhaustionReason,
    ResourceReport,
)
from ..smt.sat.cdcl import CDCLConfig, SatResult
from ..smt.solver import CheckResult, SmtSolver, governed_check
from ..smt.terms import TRUE, Term, mk_and, mk_not
from .base import AnalysisBackend


class VCStatus(enum.Enum):
    VERIFIED = "verified"
    FAILED = "failed"      # a model violating the VC exists
    UNKNOWN = "unknown"


@dataclass
class VCResult:
    """One discharged verification condition."""

    name: str
    status: VCStatus
    elapsed_seconds: float
    cnf_vars: int = 0
    cnf_clauses: int = 0
    resource_report: Optional[ResourceReport] = None


@dataclass
class DafnyReport:
    """Aggregate result of a verification run.

    Under a :class:`repro.runtime.Budget` individual VCs may come back
    UNKNOWN (with :attr:`VCResult.resource_report` populated) while the
    rest of the run keeps going — per-VC failure isolation.  ``ok`` is
    then False and :attr:`complete` distinguishes "a VC failed" from
    "a VC was not decided".
    """

    vcs: list[VCResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(vc.status is VCStatus.VERIFIED for vc in self.vcs)

    @property
    def complete(self) -> bool:
        """True when every VC was actually decided (no UNKNOWNs)."""
        return all(vc.status is not VCStatus.UNKNOWN for vc in self.vcs)

    @property
    def elapsed_seconds(self) -> float:
        return sum(vc.elapsed_seconds for vc in self.vcs)

    def failed(self) -> list[VCResult]:
        return [vc for vc in self.vcs if vc.status is not VCStatus.VERIFIED]

    def unknown(self) -> list[VCResult]:
        return [vc for vc in self.vcs if vc.status is VCStatus.UNKNOWN]

    def outcome(self):
        """Convert to the uniform :class:`repro.analysis.result.AnalysisOutcome`."""
        from ..analysis.result import AnalysisOutcome, Verdict, verdict_for_unknown

        failed = [vc for vc in self.vcs if vc.status is VCStatus.FAILED]
        unknown = self.unknown()
        if failed:
            verdict = Verdict.VIOLATED
        elif unknown:
            verdict = verdict_for_unknown(unknown[0].resource_report)
        else:
            verdict = Verdict.PROVED
        report = unknown[0].resource_report if unknown else None
        return AnalysisOutcome(
            verdict=verdict,
            witness=[vc.name for vc in failed] or None,
            report=report,
            stats={
                "vcs": len(self.vcs),
                "failed": len(failed),
                "unknown": len(unknown),
                "elapsed_seconds": self.elapsed_seconds,
            },
        )


class StateView:
    """Convenience accessors for writing invariants/queries over a machine."""

    def __init__(self, machine: SymbolicMachine):
        self._machine = machine

    def global_(self, name: str):
        return self._machine.globals_[name]

    def list_(self, name: str) -> SymbolicList:
        value = self._machine.globals_[name]
        if not isinstance(value, SymbolicList):
            raise TypeError(f"{name!r} is not a list")
        return value

    def _buf(self, label: str):
        return self._machine._buffer_by_label(label)

    def backlog_p(self, label: str) -> Term:
        return self._buf(label).backlog_p()

    def deq_p(self, label: str) -> Term:
        return self._buf(label).stats.deq_p

    def enq_p(self, label: str) -> Term:
        return self._buf(label).stats.enq_p

    def drop_p(self, label: str) -> Term:
        return self._buf(label).stats.drop_p

    def buffer_labels(self) -> list[str]:
        return self._machine._all_buffer_labels()


Invariant = Callable[[StateView], Term]
Query = Callable[[StateView], Term]


class DafnyBackend(AnalysisBackend):
    """Annotation-checker verification of a Buffy program.

    Normalized constructor: ``DafnyBackend(program, *, budget=...,
    chaos=..., solver_factory=..., jobs=..., cache=...)``.  All VCs
    sharing one symbolic machine are discharged against **one**
    incremental solver (the machine is bit-blasted once, each negated
    goal rides as a check-time assumption), and with ``jobs > 1``
    independent VCs of a machine are additionally farmed out across the
    worker pool.
    """

    def __init__(
        self,
        program: Optional[CheckedProgram] = None,
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
        if program is None:
            raise TypeError("DafnyBackend requires a program")
        super().__init__(
            program,
            sat_config=sat_config, validate_models=validate_models,
            budget=budget, escalation=escalation, chaos=chaos,
            solver_factory=solver_factory, jobs=jobs, cache=cache,
            incremental=incremental, certify=certify,
        )
        self.config = config or EncodeConfig()

    def _default_incremental(self) -> bool:
        # Many VCs share one machine encoding — reuse it by default.
        return True

    # ----- VC discharge -----------------------------------------------------

    def _discharge(self, name: str, target, goal: Term) -> VCResult:
        """Check ``assumptions => goal``; a model of the negation fails it.

        ``target`` is a prepared solver (shared across a machine's VCs)
        or, for the legacy spelling, a :class:`SymbolicMachine`.  A
        budget exhaustion or solver fault marks *this* VC UNKNOWN and
        the caller continues with the remaining VCs (an already-spent
        budget makes those refuse quickly rather than hang).
        """
        t0 = time.perf_counter()
        if isinstance(target, SymbolicMachine):
            solver = self._machine_solver(target)
        else:
            solver = target
        # The negated goal is a check-time assumption, not an assertion,
        # so the shared incremental encoding stays goal-free.
        with TRACER.span("vc", vc=name, backend="dafny") as sp:
            result, report = governed_check(solver, mk_not(goal))
            sp.set("result", result.value)
        elapsed = time.perf_counter() - t0
        status = {
            CheckResult.UNSAT: VCStatus.VERIFIED,
            CheckResult.SAT: VCStatus.FAILED,
            CheckResult.UNKNOWN: VCStatus.UNKNOWN,
        }[result]
        if METRICS.enabled:
            METRICS.counter_inc(
                "repro_vcs_total", backend="dafny", status=status.value)
        return VCResult(
            name,
            status,
            elapsed,
            cnf_vars=solver.stats.cnf_vars,
            cnf_clauses=solver.stats.cnf_clauses,
            resource_report=report,
        )

    def _discharge_all(
        self, machine: SymbolicMachine,
        named_goals: Sequence[tuple[str, Term]],
    ) -> list[VCResult]:
        """Discharge every VC of one machine against one shared encoding.

        With ``jobs > 1`` (and no chaos/custom factory intercepting the
        solver) the independent VCs are solved concurrently on the
        worker pool — the CNF ships once, each worker checks a
        different negated goal under assumptions.
        """
        named_goals = list(named_goals)
        if not named_goals:
            return []
        jobs = self.options.jobs
        if (
            len(named_goals) > 1 and jobs > 1
            and self.solver_factory is None and not self._chaos_active()
        ):
            results = self._discharge_parallel(machine, named_goals, jobs)
            if results is not None:
                return results
        solver = self._machine_solver(machine)
        return [
            self._discharge(name, solver, goal) for name, goal in named_goals
        ]

    def _discharge_parallel(
        self, machine: SymbolicMachine,
        named_goals: list[tuple[str, Term]], jobs: int,
    ) -> Optional[list[VCResult]]:
        """Batch-discharge independent VCs across the process pool.

        Each VC is first looked up in the result cache (keyed on the
        machine's assumptions + the negated goal + bounds); only misses
        are bit-blasted and shipped to the pool.  Returns None (caller
        falls back to the shared sequential path) when the pool is
        unavailable or a model fails validation.
        """
        from ..engine.cache import CacheEntry, formula_fingerprint
        from ..engine.parallel import PoolUnavailable, get_pool
        from ..smt.bitblast import BitBlaster
        from ..smt.intervals import BoundsEnv
        from ..smt.model import Model

        t0 = time.perf_counter()
        bounds = BoundsEnv()
        for var, (lo, hi) in machine.bounds.items():
            bounds.set(var, lo, hi)
        cache = self.options.cache
        certify = self.options.certify
        keys: list[Optional[str]] = [None] * len(named_goals)
        done: dict[int, VCResult] = {}
        if cache is not None:
            memo: dict[Term, bytes] = {}
            base = list(machine.assumptions)
            for idx, (name, goal) in enumerate(named_goals):
                key = formula_fingerprint(base + [mk_not(goal)], bounds, memo)
                keys[idx] = key
                hit = cache.get(key)
                if hit is None:
                    continue
                if hit.verdict == "unsat":
                    if certify:
                        # A cached VERIFIED carries no proof; a certified
                        # run must re-derive (and re-check) it.
                        continue
                    done[idx] = VCResult(
                        name, VCStatus.VERIFIED, 0.0,
                        cnf_vars=hit.cnf_vars, cnf_clauses=hit.cnf_clauses,
                    )
                elif hit.assignment is not None:
                    # A SAT hit is trusted only after its assignment
                    # re-validates against this VC's own terms.
                    model = Model(dict(hit.assignment))
                    if model.eval(mk_not(goal)) is True and all(
                        model.eval(a) is True for a in machine.assumptions
                    ):
                        done[idx] = VCResult(
                            name, VCStatus.FAILED, 0.0,
                            cnf_vars=hit.cnf_vars,
                            cnf_clauses=hit.cnf_clauses,
                        )
        misses = [i for i in range(len(named_goals)) if i not in done]
        if not misses:
            return [done[i] for i in range(len(named_goals))]
        blaster = BitBlaster(bounds=bounds, budget=self.budget)
        try:
            for assumption in machine.assumptions:
                blaster.assert_formula(assumption)
            goal_lits = [
                blaster.literal_for(mk_not(named_goals[i][1]))
                for i in misses
            ]
        except BudgetExhausted as exc:
            return [
                done.get(i) or VCResult(
                    named_goals[i][0], VCStatus.UNKNOWN, 0.0,
                    resource_report=exc.report,
                )
                for i in range(len(named_goals))
            ]
        if self.budget is not None:
            for _ in misses:
                self.budget.charge_solver_call()
        try:
            pool = get_pool(jobs)
            with TRACER.span("vc-batch", backend="dafny",
                             vcs=len(misses), jobs=jobs):
                slots = pool.solve_many(
                    blaster.cnf, [[lit] for lit in goal_lits],
                    config=self.sat_config, budget=self.budget,
                    certify=certify,
                )
        except PoolUnavailable:
            return None
        elapsed = time.perf_counter() - t0
        per_vc = elapsed / max(1, len(misses))
        for idx, slot in zip(misses, slots):
            name, goal = named_goals[idx]
            if slot is None or slot.error is not None:
                return None  # worker died: redo sequentially
            if slot.verdict is SatResult.SAT:
                assignment = blaster.varmap.decode(slot.model)
                model = Model(assignment)
                if self.validate_models and (
                    model.eval(mk_not(goal)) is not True
                    or any(model.eval(a) is not True
                           for a in machine.assumptions)
                ):
                    return None  # refuse an unvalidated parallel model
                status = VCStatus.FAILED
                report = None
            elif slot.verdict is SatResult.UNSAT:
                report = (
                    self._certify_slot(blaster, slot, name) if certify
                    else None
                )
                status = (
                    VCStatus.UNKNOWN if report is not None
                    else VCStatus.VERIFIED
                )
            else:
                status = VCStatus.UNKNOWN
                report = self._slot_report(slot)
            if cache is not None and keys[idx] is not None and (
                status is not VCStatus.UNKNOWN
            ):
                cache.put(keys[idx], CacheEntry(
                    verdict="unsat" if status is VCStatus.VERIFIED else "sat",
                    assignment=dict(assignment)
                    if status is VCStatus.FAILED else None,
                    cnf_vars=blaster.cnf.num_vars,
                    cnf_clauses=len(blaster.cnf.clauses),
                ))
            done[idx] = VCResult(
                name, status, per_vc,
                cnf_vars=blaster.cnf.num_vars,
                cnf_clauses=len(blaster.cnf.clauses),
                resource_report=report,
            )
        results = [done[i] for i in range(len(named_goals))]
        if METRICS.enabled:
            for vc in results:
                METRICS.counter_inc(
                    "repro_vcs_total", backend="dafny",
                    status=vc.status.value)
        return results

    def _certify_slot(self, blaster, slot, name: str) -> Optional[ResourceReport]:
        """Check one parallel UNSAT slot's DRAT certificate.

        Returns None when the certificate checks; otherwise a
        CERTIFICATION_FAILED report, or the budget's report when the
        check ran out of budget — the caller downgrades the VC to
        UNKNOWN rather than report an unverified VERIFIED.
        """
        from ..trust import Certificate

        cert = Certificate(
            num_vars=blaster.cnf.num_vars,
            clauses=list(blaster.cnf.clauses),
            steps=list(slot.proof or []),
            core=tuple(slot.core or ()),
        )
        try:
            with TRACER.span("proof-check", vc=name, steps=len(cert.steps)):
                ok = cert.verify(self.budget)
        except BudgetExhausted as exc:
            return exc.report
        if METRICS.enabled:
            METRICS.counter_inc("repro_trust_proofs_checked_total")
        if ok:
            return None
        if METRICS.enabled:
            METRICS.counter_inc("repro_trust_proofs_failed_total")
        return ResourceReport(
            reason=ExhaustionReason.CERTIFICATION_FAILED,
            message=f"VC {name!r}: UNSAT answer failed proof check:"
                    f" {cert.error}",
        )

    def explain_vc(self, machine: SymbolicMachine, goal: Term) -> list[Term]:
        """Which of ``machine``'s assumptions a verified ``goal`` uses.

        Discharges ``assumptions => goal`` on one incremental solver
        with every machine assumption passed as a *check-time
        assumption* rather than an assertion; on UNSAT (VC verified)
        the solver's unsat core names exactly the assumptions the
        refutation touched.  An empty list means the goal is valid on
        its own.  Raises :class:`ValueError` when the VC is not
        verified (SAT: a counterexample exists; UNKNOWN: undecided).
        """
        solver = self._new_solver(incremental=True)
        for var, (lo, hi) in machine.bounds.items():
            solver.set_bounds(var, lo, hi)
        solver.add(mk_not(goal))
        result = solver.check(*machine.assumptions)
        if result is not CheckResult.UNSAT:
            raise ValueError(
                f"VC is not verified (check() answered {result.value});"
                " no unsat core exists"
            )
        return solver.unsat_core()

    def _slot_report(self, slot) -> Optional[ResourceReport]:
        from ..runtime.budget import ExhaustionReason

        if slot.reason is None:
            return None
        reason = ExhaustionReason(slot.reason)
        if self.budget is not None:
            return self.budget.report(reason, "parallel VC discharge")
        return ResourceReport(reason=reason, message="parallel VC discharge")

    def _exhausted_vc(self, name: str, exc: BudgetExhausted) -> VCResult:
        """A VC whose *encoding* (symbolic unrolling) ran out of budget."""
        return VCResult(
            name, VCStatus.UNKNOWN, 0.0, resource_report=exc.report
        )

    # ----- monolithic (unroll + inline) regime ------------------------------------

    def verify_monolithic(
        self,
        horizon: int,
        queries: Sequence[tuple[str, Query]] = (),
        include_asserts: bool = True,
    ) -> DafnyReport:
        """Unroll ``horizon`` steps and discharge one VC per obligation.

        Without loop invariants an annotation checker must see the loop
        bodies unrolled and the scheduler method inlined — this is the
        transformation §6.1 describes, and the per-VC formulas grow
        with the horizon.
        """
        machine = SymbolicMachine(self.program, self.config,
                                  budget=self.budget)
        report = DafnyReport()
        try:
            for _ in range(horizon):
                machine.exec_step()
        except BudgetExhausted as exc:
            # Could not even finish encoding: report one UNKNOWN VC so
            # callers see a structured partial result, not an exception.
            report.vcs.append(self._exhausted_vc("unroll", exc))
            return report
        named_goals: list[tuple[str, Term]] = []
        if include_asserts:
            for ob in machine.obligations:
                named_goals.append((ob.describe(), ob.formula))
        view = StateView(machine)
        for name, query in queries:
            named_goals.append((name, query(view)))
        report.vcs.extend(self._discharge_all(machine, named_goals))
        return report

    # ----- modular (invariant-annotated) regime --------------------------------------

    def verify_modular(
        self,
        invariant: Invariant,
        queries: Sequence[tuple[str, Query]] = (),
        value_range: tuple[int, int] = (-1, 63),
        stat_bound: int = 1 << 10,
    ) -> DafnyReport:
        """Check that ``invariant`` is inductive and implies the queries.

        Three T-independent VCs (the §5 modular-analysis workflow):

        1. ``init``      — the initial state satisfies the invariant;
        2. ``preserve``  — one arbitrary step from any invariant state
                           re-establishes the invariant (structured havoc);
        3. one VC per query — the invariant implies it.
        """
        report = DafnyReport()

        # (1) initiation: the freshly initialized machine has no
        # variables in its state, so the invariant must be valid as-is.
        init_machine = SymbolicMachine(self.program, self.config)
        init_goal = invariant(StateView(init_machine))
        report.vcs.append(self._discharge("init", init_machine, init_goal))

        # (2) consecution: havoc state, assume the invariant, run one step.
        step_machine = SymbolicMachine(self.program, self.config,
                                       budget=self.budget)
        step_machine.havoc_state(value_range=value_range, stat_bound=stat_bound)
        step_machine.assumptions.append(invariant(StateView(step_machine)))
        try:
            step_machine.exec_step()
        except BudgetExhausted as exc:
            report.vcs.append(self._exhausted_vc("preserve", exc))
            return report
        post = invariant(StateView(step_machine))
        report.vcs.append(self._discharge("preserve", step_machine, post))

        # (3) property: invariant implies each query at the boundary.
        for name, query in queries:
            query_machine = SymbolicMachine(self.program, self.config)
            query_machine.havoc_state(
                value_range=value_range, stat_bound=stat_bound
            )
            view = StateView(query_machine)
            query_machine.assumptions.append(invariant(view))
            report.vcs.append(
                self._discharge(f"query:{name}", query_machine, query(view))
            )
        return report

    # ----- procedure contracts ---------------------------------------------------------

    def verify_procedure(
        self,
        name: str,
        value_range: tuple[int, int] = (-1, 63),
        stat_bound: int = 1 << 10,
    ) -> DafnyReport:
        """Check a procedure's body against its requires/ensures contract."""
        proc = self._find_procedure(name)
        machine = SymbolicMachine(self.program, self.config)
        machine.havoc_state(value_range=value_range, stat_bound=stat_bound)
        env = self._havoc_params(machine, proc, value_range)
        executor = _Executor(machine, env)
        for pre in proc.requires:
            machine.assumptions.append(executor.eval(pre))
        executor.exec_cmd(proc.body, TRUE)
        report = DafnyReport()
        named_goals = [(ob.describe(), ob.formula) for ob in machine.obligations]
        named_goals += [
            (f"{name}.ensures[{i}]", executor.eval(post))
            for i, post in enumerate(proc.ensures)
        ]
        report.vcs.extend(self._discharge_all(machine, named_goals))
        return report

    def _find_procedure(self, name: str) -> Procedure:
        for proc in self.program.program.procedures:
            if proc.name == name:
                return proc
        raise KeyError(f"no procedure {name!r} in {self.program.name}")

    def _havoc_params(self, machine: SymbolicMachine, proc: Procedure,
                      value_range: tuple[int, int]) -> dict:
        from ..smt.terms import mk_bool_var, mk_int_var

        env: dict = {}
        for i, param in enumerate(proc.params):
            label = f"{machine.prefix}.{proc.name}.arg.{param.name}"
            if isinstance(param.type, IntType):
                var = mk_int_var(label)
                machine.bounds[var.name] = value_range
                env[param.name] = var
            elif isinstance(param.type, BoolType):
                env[param.name] = mk_bool_var(label)
            elif isinstance(param.type, (ListType, BufferType, ArrayType)):
                value = machine._default_value(param.type, label)
                value = machine._havoc_value(value, label, value_range)
                if isinstance(value, SymbolicList):
                    pass  # already havocked in place by _havoc_value
                env[param.name] = value
            else:  # pragma: no cover - checker prevents
                raise TypeError(f"unsupported parameter type {param.type}")
        return env
