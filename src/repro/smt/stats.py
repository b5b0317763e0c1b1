"""The one solver-statistics schema.

Historically the SAT core (:mod:`repro.smt.sat.cdcl`) and the SMT
front end (:mod:`repro.smt.solver`) each grew their own counter
dataclass, and every consumer — ``outcome.stats``, the metrics
registry, the ``repro stats`` CLI, the portfolio workers' wire format —
picked fields ad hoc.  This module is now the single source of truth:

* :class:`SatStats` — per-search CDCL counters.  Field names double as
  the metrics family names (``repro_cdcl_<field>_total``) and the
  positional wire format for cross-process marshalling.
* :class:`SolverStats` — one ``check()``'s aggregate view: encode/solve
  timing, CNF size, escalation attempts, cache outcome, plus the
  per-call and lifetime :class:`SatStats`.

Both expose :meth:`as_dict`, the uniform flat schema that
``outcome.stats``, ``outcome.telemetry`` metrics, and ``repro stats``
all derive from.  The classes remain importable from their historical
homes (``repro.smt.sat.cdcl.SatStats``, ``repro.smt.solver.SolverStats``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Sequence


@dataclass
class SatStats:
    """Counters exposed for benchmarks, telemetry, and tests.

    Field order is part of the cross-process wire format —
    :meth:`to_tuple`/:meth:`from_tuple` marshal these counters through
    the portfolio workers, so new fields must be appended, not
    inserted.  Field *names* are part of the metrics schema — each one
    is exported as the ``repro_cdcl_<name>_total`` counter family.
    """

    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    restarts: int = 0
    learned: int = 0
    deleted: int = 0
    minimized_lits: int = 0
    inprocessings: int = 0
    subsumed: int = 0
    strengthened: int = 0
    eliminated: int = 0
    vivified_lits: int = 0
    vivify_propagations: int = 0

    def snapshot(self) -> "SatStats":
        return SatStats(**vars(self))

    def diff(self, earlier: "SatStats") -> "SatStats":
        """Per-call view: this snapshot minus an ``earlier`` one."""
        return SatStats(**{
            k: v - getattr(earlier, k) for k, v in vars(self).items()
        })

    def as_dict(self) -> dict[str, int]:
        """Flat name→count mapping (the uniform telemetry schema)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_tuple(self) -> tuple:
        """Positional wire form (field order) for worker marshalling."""
        return tuple(getattr(self, f.name) for f in fields(self))

    @classmethod
    def from_tuple(cls, values: Sequence) -> "SatStats":
        """Inverse of :meth:`to_tuple`; tolerates shorter (older) tuples."""
        names = [f.name for f in fields(cls)]
        return cls(**dict(zip(names, values)))


@dataclass
class SolverStats:
    """Aggregate statistics from the last ``check()`` call.

    ``sat`` is always the *per-call* view — on an incremental session it
    is the delta attributable to this check, not the session's running
    totals.  ``sat_lifetime`` carries the cumulative counters of the
    underlying CDCL solver (identical to ``sat`` on one-shot paths).
    """

    encode_seconds: float = 0.0
    solve_seconds: float = 0.0
    cnf_vars: int = 0
    cnf_clauses: int = 0
    attempts: int = 1
    sat: SatStats = field(default_factory=SatStats)
    sat_lifetime: SatStats = field(default_factory=SatStats)
    cache_hit: bool = False

    def as_dict(self) -> dict[str, object]:
        """The uniform flat schema consumed by ``outcome.stats``.

        Scalar fields appear under their own names; the per-call SAT
        counters are inlined (``conflicts``, ``decisions``, ...) so
        consumers never reach through the nested dataclass.
        """
        out: dict[str, object] = {
            "encode_seconds": self.encode_seconds,
            "solve_seconds": self.solve_seconds,
            "cnf_vars": self.cnf_vars,
            "cnf_clauses": self.cnf_clauses,
            "attempts": self.attempts,
            "cache_hit": self.cache_hit,
        }
        out.update(self.sat.as_dict())
        return out
