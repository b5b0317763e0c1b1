"""One result vocabulary for every back end: :class:`AnalysisOutcome`.

The six back ends keep their rich, back-end-specific result types
(``DafnyReport`` knows VCs, ``MCResult`` knows induction bounds, ...),
but each converts to this one frozen dataclass via ``.outcome()`` so
callers — the CLI, the :func:`repro.analyze` facade, scripts — can
branch on a single four-way :class:`Verdict` instead of five status
enums, and derive process exit codes in exactly one place
(:attr:`Verdict.exit_code`).

Verdict semantics:

* ``PROVED`` — the property holds (or the requested object was found:
  a synthesized workload/invariant counts as the analysis succeeding);
* ``VIOLATED`` — a counterexample exists / the property is refuted /
  the requested object provably does not exist;
* ``UNDECIDED`` — no answer, and not for lack of resources (an
  injected fault, a disabled feature);
* ``EXHAUSTED`` — no answer because a resource budget ran out
  (deadline, conflict/memory/solver-call caps, cancellation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from ..runtime.budget import ExhaustionReason, ResourceReport

#: Exhaustion reasons that mean "a resource ran out" (exit code 3), as
#: opposed to injected/infrastructural unknowns (exit code 2).
BUDGET_REASONS = frozenset({
    ExhaustionReason.DEADLINE,
    ExhaustionReason.CONFLICTS,
    ExhaustionReason.MEMORY,
    ExhaustionReason.SOLVER_CALLS,
    ExhaustionReason.CANCELLED,
})


class Verdict(enum.Enum):
    """The four-way answer of any analysis."""

    PROVED = "proved"
    VIOLATED = "violated"
    UNDECIDED = "undecided"
    EXHAUSTED = "exhausted"

    @property
    def exit_code(self) -> int:
        """Process exit code — the CLI contract, defined exactly once."""
        return _EXIT_CODES[self]

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError(
            "Verdict is not a boolean; compare against Verdict.PROVED"
        )


_EXIT_CODES = {
    Verdict.PROVED: 0,
    Verdict.VIOLATED: 1,
    Verdict.UNDECIDED: 2,
    Verdict.EXHAUSTED: 3,
}

#: Exit code for usage/input errors (no Verdict exists for these).
EXIT_ERROR = 4

#: Exit code for "an answer was produced but failed certification": a
#: certified run (``analyze(certify=True)`` / ``--certify``) refused an
#: UNSAT/VERIFIED claim because its LRAT certificate did not check.
EXIT_CERTIFICATION = 5

#: Exit code for "a durable batch finished with deadlettered jobs": a
#: ``repro batch run``/``resume`` exhausted a job's retry budget (or hit
#: a permanent error) and parked it in the deadletter state for operator
#: attention.  Dominates every per-job exit code in the batch summary.
EXIT_DEADLETTER = 6


def verdict_for_unknown(report: Optional[ResourceReport]) -> Verdict:
    """Classify an UNKNOWN answer by its resource report."""
    if report is not None and report.reason in BUDGET_REASONS:
        return Verdict.EXHAUSTED
    return Verdict.UNDECIDED


@dataclass(frozen=True)
class AnalysisOutcome:
    """The uniform result of any analysis.

    ``witness`` is the verdict's evidence, when one exists: a
    counterexample trace for VIOLATED verification, a synthesized
    workload or invariant for PROVED synthesis, etc.  ``stats`` carries
    back-end-specific numbers (solver calls, bounds reached, VC counts)
    without widening the type.
    """

    verdict: Verdict
    witness: Any = None
    report: Optional[ResourceReport] = None
    stats: Mapping[str, Any] = field(default_factory=dict)
    # A repro.obs.TelemetrySnapshot when the analysis ran with telemetry
    # enabled (repro.analyze(telemetry=True) or the CLI's --trace /
    # --metrics); None otherwise.  Typed as Any to keep this module
    # import-light.
    telemetry: Any = None

    @property
    def ok(self) -> bool:
        return self.verdict is Verdict.PROVED

    @property
    def exit_code(self) -> int:
        if (
            self.report is not None
            and self.report.reason is ExhaustionReason.CERTIFICATION_FAILED
        ):
            return EXIT_CERTIFICATION
        return self.verdict.exit_code

    def describe(self) -> str:
        """One-paragraph human rendering (verdict + spend)."""
        lines = [f"verdict: {self.verdict.value}"]
        for key, value in self.stats.items():
            lines.append(f"  {key}: {value}")
        if self.report is not None:
            lines.append(self.report.describe())
        return "\n".join(lines)
