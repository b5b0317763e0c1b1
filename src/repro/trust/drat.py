"""Independent hinted (LRAT) proof checker.

This is the read side of the trust layer.  Every addition in the
solver's proof log names the clauses that make it a reverse unit
propagation (RUP) consequence, so :class:`LratChecker` never searches:
it assumes the negation of the added clause, then walks the hints in
order.  Each hinted clause must be unit under the assignment so far
(its one open literal joins the assignment) and the last one must be
falsified.  Checking costs the size of the hints, not of the CNF: only
the original clauses the proof cites are ever read.  The checker shares
no code with :mod:`repro.smt.sat.cdcl`, so a bug in the solver cannot
hide in the checker.

Soundness argument (why an accepted proof really refutes the CNF):

* Let C be an accepted addition with hints h1..hk, and A0 the negation
  of C.  Under A(i-1), every open literal of hi but one is false, so
  any assignment that extends A(i-1) and satisfies hi sets that literal
  true: A(i) is forced.  hk is falsified by A(k-1), so no assignment
  that satisfies h1..hk falsifies C.  C is implied by its hints.  (A
  tautological C is implied by anything and needs no hints.)
* A hint names either an original clause, read by its position from
  the certificate's copy of the CNF, or an earlier accepted addition.
  Ids must increase and deleted ids are forgotten, so a hint can never
  name a clause accepted later.  By induction, every accepted clause is
  implied by the original CNF.
* An accepted empty clause therefore certifies unsatisfiability.  An
  UNSAT-under-assumptions answer is certified by a final addition equal
  to the negated core: the CNF implies that at least one core literal
  is false.

Deletions only shrink the clause map, so they cannot make a bad proof
pass; an unknown deletion is ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

if TYPE_CHECKING:  # duck-typed, mirroring the solver's Budget handling
    from ...runtime.budget import Budget


class LratError(Exception):
    """A proof failed to verify (bad step, missing refutation, bad core)."""


class LratChecker:
    """Replays a hinted proof over an id → clause map.

    Originals live under ``~pos`` (their position in the CNF's clause
    list), derived clauses under their positive proof ids.  A checker
    can be kept alive and fed incrementally (newly cited originals,
    then new steps) across many certifications of one growing formula.
    """

    def __init__(self):
        self.clauses: dict[int, tuple[int, ...]] = {}
        #: True once the empty clause was accepted.
        self.refuted = False
        self.last_id = 0
        #: The clause of the most recent accepted addition.
        self.last: Optional[tuple[int, ...]] = None

    def add_originals(self, cited: Mapping[int, Sequence[int]]) -> None:
        """Install original clauses, keyed by their CNF positions."""
        for pos, lits in cited.items():
            clause = tuple(lits)
            if 0 in clause:
                raise LratError("0 is not a valid literal")
            self.clauses[~pos] = clause

    def add(self, cid: int, lits: Iterable[int],
            hints: Sequence[int]) -> None:
        """Accept derived clause ``cid`` if its hints make it RUP.

        Raises :class:`LratError` otherwise: the rejection path for
        corrupted or bogus proofs.
        """
        clause = tuple(lits)
        self._rup(cid, clause, hints)
        if cid <= self.last_id:
            raise LratError(f"step {cid}: id is not above {self.last_id}")
        self.clauses[cid] = clause
        self.last_id = cid
        self.last = clause
        if not clause:
            self.refuted = True

    def delete(self, cid: int) -> None:
        self.clauses.pop(cid, None)

    def _rup(self, cid: int, clause: tuple[int, ...],
             hints: Sequence[int]) -> None:
        true: set[int] = set()
        for lit in clause:
            if not lit:
                raise LratError("0 is not a valid literal")
            if lit in true:
                return  # a tautology
            true.add(-lit)
        clauses = self.clauses
        final = len(hints) - 1
        for i, h in enumerate(hints):
            hinted = clauses.get(h)
            if hinted is None:
                raise LratError(f"step {cid}: hint {h} names no live clause")
            unit = 0
            for lit in hinted:
                if lit in true:
                    raise LratError(f"step {cid}: hint {h} is satisfied")
                if -lit not in true:
                    if unit and unit != lit:
                        raise LratError(f"step {cid}: hint {h} is not unit")
                    unit = lit
            if not unit:
                if i != final:
                    raise LratError(
                        f"step {cid}: hint {h} conflicts before the last hint")
                return
            true.add(unit)
        raise LratError(
            f"step {cid}: hints end without a conflict: {list(clause)}")

    def apply(self, steps: Iterable[tuple],
              budget: Optional["Budget"] = None) -> None:
        """Replay proof steps; ``budget`` is polled every 256 steps,
        starting with the first."""
        for i, step in enumerate(steps):
            if budget is not None and not i & 0xFF:
                budget.checkpoint("proof check: replaying hints")
            if step[0] == "a":
                self.add(step[1], step[2], step[3])
            elif step[0] == "d":
                self.delete(step[1])
            else:
                raise LratError(f"unknown proof step kind {step[0]!r}")


def check_lrat(
    clauses: Mapping[int, Sequence[int]],
    steps: Sequence[tuple],
    core: Sequence[int] = (),
    budget: Optional["Budget"] = None,
    checker: Optional[LratChecker] = None,
) -> LratChecker:
    """Replay a proof against cited originals; raise LratError on failure.

    ``clauses`` maps CNF positions to the original clauses the steps
    cite.  With an empty ``core`` the proof must derive the empty
    clause; with a core its last addition must be the negated core.  A
    live ``checker`` that already accepted a prefix of the proof is fed
    only ``clauses`` and ``steps``, the parts that came after it.
    """
    if checker is None:
        checker = LratChecker()
    checker.add_originals(clauses)
    checker.apply(steps, budget)
    if core:
        if checker.last is None or set(checker.last) != {-l for l in core}:
            raise LratError("the final step does not refute the core")
    elif not checker.refuted:
        raise LratError("proof does not derive the empty clause")
    return checker


@dataclass
class Certificate:
    """A replayable refutation attached to an UNSAT answer.

    ``clauses`` maps CNF positions to the original clauses the proof
    cites (as the bit-blaster emitted them, so the certificate does not
    depend on the solver's own simplifications), ``steps`` is the
    solver's hinted proof log, and ``core`` holds the assumption
    literals of an UNSAT-under-assumptions answer (empty for root
    unsatisfiability).
    """

    num_vars: int
    clauses: dict = field(default_factory=dict)
    steps: list = field(default_factory=list)
    core: tuple = ()
    verified: bool = False
    error: Optional[str] = None

    @classmethod
    def of(cls, num_vars: int, cnf_clauses: Sequence[Sequence[int]],
           steps: Sequence[tuple], core: Sequence[int] = ()
           ) -> "Certificate":
        """The certificate of ``steps`` against a CNF's clause list:
        only the originals the hints cite are kept."""
        cited = {}
        n = len(cnf_clauses)
        for step in steps:
            if step[0] == "a":
                for h in step[3]:
                    if h < 0 and ~h < n:
                        cited[~h] = cnf_clauses[~h]
        return cls(num_vars, cited, list(steps), tuple(core))

    def verify(self, budget: Optional["Budget"] = None,
               checker: Optional[LratChecker] = None) -> bool:
        """Run the independent checker; records verified/error in place.

        ``checker``, when given, is a live checker that already accepted
        everything before this certificate's steps.
        """
        try:
            check_lrat(self.clauses, self.steps, core=self.core,
                       budget=budget, checker=checker)
        except LratError as exc:
            self.verified = False
            self.error = str(exc)
            return False
        self.verified = True
        self.error = None
        return True
