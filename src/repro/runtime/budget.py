"""Resource budgets and structured exhaustion reporting.

Every solver call in the repository can run under a :class:`Budget`: a
wall-clock deadline plus caps on conflicts, learned clauses (the CDCL
memory proxy) and solver invocations.  The budget is checked
*cooperatively* — the CDCL search loop, the bit-blaster, interval
inference and the symbolic executor all poll it at natural safepoints —
so a hard formula can no longer hang an analysis: the pipeline stops
within one safepoint interval of the deadline and reports **UNKNOWN**
together with a :class:`ResourceReport` saying exactly which resource
ran out and what had been spent.

Layering: this module is the bottom of the runtime layer and imports
nothing from the rest of the package, so :mod:`repro.smt` can depend
on it without cycles.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


class ExhaustionReason(enum.Enum):
    """Why a governed computation stopped early."""

    DEADLINE = "deadline"            # wall-clock deadline passed
    CONFLICTS = "conflicts"          # CDCL conflict cap reached
    MEMORY = "memory"                # learned-clause (memory) cap reached
    SOLVER_CALLS = "solver-calls"    # per-budget solver-invocation cap
    CANCELLED = "cancelled"          # Budget.cancel() was called
    INJECTED = "injected"            # chaos harness returned UNKNOWN
    FAULT = "fault"                  # solver raised an (injected) fault
    QUARANTINED = "quarantined"      # query killed 2 portfolio workers
    CERTIFICATION_FAILED = "certification_failed"  # UNSAT proof rejected


@dataclass
class ResourceReport:
    """Structured account of an exhausted (or faulted) solver run.

    Propagated with every UNKNOWN result so callers can distinguish
    "the query is beyond the decision procedure" (never the case for
    this complete pipeline) from "a resource ran out", and render the
    spend to users.
    """

    reason: ExhaustionReason
    message: str = ""
    elapsed_seconds: float = 0.0
    deadline_seconds: Optional[float] = None
    conflicts: int = 0
    max_conflicts: Optional[int] = None
    learned_clauses: int = 0
    max_learned_clauses: Optional[int] = None
    solver_calls: int = 0
    max_solver_calls: Optional[int] = None
    attempts: int = 1
    # Result-cache counters (repro.engine.cache), when a cache was used.
    cache_hits: int = 0
    cache_misses: int = 0
    # Portfolio slots cooperatively cancelled in the last parallel solve
    # (losers of a first-wins race, or survivors of a timed-out one).
    cancelled_slots: int = 0
    # Pool supervision (repro.engine.parallel): workers respawned after
    # dying/hanging, and queries quarantined after repeated worker loss.
    workers_respawned: int = 0
    quarantined_queries: int = 0
    # Trust layer (repro.trust): LRAT certificates checked and rejected.
    proofs_checked: int = 0
    proofs_failed: int = 0

    def describe(self) -> str:
        """Human-readable rendering (used by the CLI)."""
        lines = [f"resource budget exhausted: {self.reason.value}"]
        if self.message:
            lines.append(f"  where: {self.message}")

        def cap(limit: Optional[object]) -> str:
            return "unbounded" if limit is None else str(limit)

        if self.deadline_seconds is not None or self.elapsed_seconds:
            deadline = (
                "unbounded" if self.deadline_seconds is None
                else f"{self.deadline_seconds:g}s"
            )
            lines.append(
                f"  wall clock: {self.elapsed_seconds:.2f}s of {deadline}"
            )
        lines.append(f"  conflicts: {self.conflicts} of {cap(self.max_conflicts)}")
        lines.append(
            f"  learned clauses: {self.learned_clauses}"
            f" of {cap(self.max_learned_clauses)}"
        )
        lines.append(
            f"  solver calls: {self.solver_calls}"
            f" of {cap(self.max_solver_calls)}"
        )
        if self.attempts > 1:
            lines.append(f"  escalation attempts: {self.attempts}")
        if self.cache_hits or self.cache_misses:
            lines.append(
                f"  result cache: {self.cache_hits} hits,"
                f" {self.cache_misses} misses"
            )
        if self.cancelled_slots:
            lines.append(
                f"  parallel portfolio: {self.cancelled_slots}"
                " worker slots cancelled"
            )
        if self.workers_respawned or self.quarantined_queries:
            lines.append(
                f"  pool supervision: {self.workers_respawned} workers"
                f" respawned, {self.quarantined_queries} queries quarantined"
            )
        if self.proofs_checked or self.proofs_failed:
            lines.append(
                f"  certification: {self.proofs_checked} proofs checked,"
                f" {self.proofs_failed} rejected"
            )
        return "\n".join(lines)


class SolverFault(RuntimeError):
    """A solver invocation failed (injected or infrastructural).

    Back ends treat a fault like an UNKNOWN answer for the one query it
    hit — failure isolation, not abortion of the whole analysis.
    """


class BudgetExhausted(SolverFault):
    """A governed computation ran out of budget.

    Carries the :class:`ResourceReport` and, when the raiser had made
    partial progress (e.g. Houdini's surviving invariant subset), that
    partial result.
    """

    def __init__(self, report: ResourceReport, partial: object = None):
        super().__init__(report.describe())
        self.report = report
        self.partial = partial


class Budget:
    """A cooperative resource budget shared along one solve path.

    All limits are optional; an unlimited budget never exhausts.  The
    wall clock starts at the first :meth:`start` call (the solver and
    the symbolic executor both call it), so a budget can be built ahead
    of time without the deadline ticking.

    Budgets nest: :meth:`slice` creates a child whose spend propagates
    to the parent and which is additionally exhausted whenever the
    parent is — used to give one verification condition or one
    escalation attempt a bounded share of the overall budget.
    """

    def __init__(
        self,
        deadline_seconds: Optional[float] = None,
        max_conflicts: Optional[int] = None,
        max_learned_clauses: Optional[int] = None,
        max_solver_calls: Optional[int] = None,
        parent: Optional["Budget"] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.deadline_seconds = deadline_seconds
        self.max_conflicts = max_conflicts
        self.max_learned_clauses = max_learned_clauses
        self.max_solver_calls = max_solver_calls
        self.parent = parent
        self._clock = clock
        self._started_at: Optional[float] = None
        self._cancelled = False
        self.conflicts = 0
        self.learned_clauses = 0
        self.solver_calls = 0

    # ----- lifecycle --------------------------------------------------------

    def start(self) -> "Budget":
        """Start the wall clock (idempotent)."""
        if self._started_at is None:
            self._started_at = self._clock()
        if self.parent is not None:
            self.parent.start()
        return self

    @property
    def started(self) -> bool:
        return self._started_at is not None

    def cancel(self) -> None:
        """Request cooperative cancellation of everything on this budget."""
        self._cancelled = True

    def elapsed_seconds(self) -> float:
        if self._started_at is None:
            return 0.0
        return self._clock() - self._started_at

    def remaining_seconds(self) -> Optional[float]:
        """Seconds until the deadline, or None when no deadline is set."""
        if self.deadline_seconds is None:
            return None
        return max(0.0, self.deadline_seconds - self.elapsed_seconds())

    # ----- spend accounting -------------------------------------------------

    def charge_conflicts(self, n: int = 1) -> None:
        self.conflicts += n
        if self.parent is not None:
            self.parent.charge_conflicts(n)

    def charge_learned(self, n: int = 1) -> None:
        self.learned_clauses += n
        if self.parent is not None:
            self.parent.charge_learned(n)

    def charge_solver_call(self) -> None:
        self.solver_calls += 1
        if self.parent is not None:
            self.parent.charge_solver_call()

    # ----- exhaustion -------------------------------------------------------

    def exhausted(self) -> Optional[ExhaustionReason]:
        """The reason this budget (or an ancestor) is spent, else None."""
        if self._cancelled:
            return ExhaustionReason.CANCELLED
        if (
            self.deadline_seconds is not None
            and self._started_at is not None
            and self.elapsed_seconds() >= self.deadline_seconds
        ):
            return ExhaustionReason.DEADLINE
        if self.max_conflicts is not None and self.conflicts >= self.max_conflicts:
            return ExhaustionReason.CONFLICTS
        if (
            self.max_learned_clauses is not None
            and self.learned_clauses >= self.max_learned_clauses
        ):
            return ExhaustionReason.MEMORY
        if (
            self.max_solver_calls is not None
            and self.solver_calls > self.max_solver_calls
        ):
            return ExhaustionReason.SOLVER_CALLS
        if self.parent is not None:
            return self.parent.exhausted()
        return None

    def checkpoint(self, context: str = "") -> None:
        """Raise :class:`BudgetExhausted` if the budget is spent.

        The cooperative-cancellation primitive: hot loops call this at
        safepoints with a short ``context`` naming the pipeline stage.
        """
        reason = self.exhausted()
        if reason is not None:
            raise BudgetExhausted(self.report(reason, context))

    def report(self, reason: ExhaustionReason,
               message: str = "", attempts: int = 1) -> ResourceReport:
        """Snapshot the spend into a :class:`ResourceReport`."""
        return ResourceReport(
            reason=reason,
            message=message,
            elapsed_seconds=self.elapsed_seconds(),
            deadline_seconds=self.deadline_seconds,
            conflicts=self.conflicts,
            max_conflicts=self.max_conflicts,
            learned_clauses=self.learned_clauses,
            max_learned_clauses=self.max_learned_clauses,
            solver_calls=self.solver_calls,
            max_solver_calls=self.max_solver_calls,
            attempts=attempts,
        )

    # ----- nesting ----------------------------------------------------------

    def slice(
        self,
        deadline_seconds: Optional[float] = None,
        max_conflicts: Optional[int] = None,
        max_learned_clauses: Optional[int] = None,
        max_solver_calls: Optional[int] = None,
    ) -> "Budget":
        """A child budget: tighter (or equal) limits, spend shared upward."""
        remaining = self.remaining_seconds()
        if deadline_seconds is None:
            deadline_seconds = remaining
        elif remaining is not None:
            deadline_seconds = min(deadline_seconds, remaining)
        child = Budget(
            deadline_seconds=deadline_seconds,
            max_conflicts=max_conflicts,
            max_learned_clauses=max_learned_clauses,
            max_solver_calls=max_solver_calls,
            parent=self,
            clock=self._clock,
        )
        if self.started:
            child.start()
        return child

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        caps = {
            "deadline": self.deadline_seconds,
            "conflicts": self.max_conflicts,
            "learned": self.max_learned_clauses,
            "calls": self.max_solver_calls,
        }
        parts = [f"{k}={v}" for k, v in caps.items() if v is not None]
        return f"Budget({', '.join(parts) or 'unlimited'})"
