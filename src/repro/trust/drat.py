"""Independent DRAT proof checker (reverse unit propagation).

This is the read side of the trust layer: given the *original* CNF and
the solver's clausal proof log, :class:`DratChecker` replays every
addition by the RUP criterion — assume the negation of the clause,
unit-propagate, and require a conflict — and every deletion by
retiring the clause from propagation.  The checker shares no code with
:mod:`repro.smt.sat.cdcl`; it is a from-scratch two-watched-literal
propagator, so a bug in the solver cannot hide in the checker.

Soundness argument (why an accepted proof really refutes the CNF):

* Every accepted addition is RUP with respect to the clauses currently
  alive plus the persistent root assignments, and is therefore entailed
  by them.
* Root assignments are themselves unit-propagation consequences of
  clauses alive at the time they were derived.
* Deletions only *remove* clauses, so by induction everything the
  checker ever uses is entailed by the original CNF.  An accepted empty
  clause (or a core whose assumption yields a root conflict) therefore
  certifies unsatisfiability (under those assumptions).

Deletions never threaten soundness, only completeness — and since we
generate the proofs ourselves, the solver guarantees (reasons on the
final trail are locked, hence alive at end-of-log) make its own proofs
checkable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from ..obs import TRACER

if TYPE_CHECKING:  # duck-typed, mirroring the solver's Budget handling
    from ...runtime.budget import Budget


class DratError(Exception):
    """A proof failed to verify (bad step, missing refutation, bad core)."""


class _CClause:
    __slots__ = ("lits", "watch", "deleted")

    def __init__(self, lits: tuple[int, ...]):
        self.lits = lits
        # The two currently watched literals, or None when the clause is
        # permanently satisfied/refuted at the root and never watched.
        self.watch: Optional[tuple[int, int]] = None
        self.deleted = False


class DratChecker:
    """Replays a clausal proof by reverse unit propagation.

    The checker keeps one *persistent* partial assignment: the root-level
    unit-propagation closure of the clauses added so far.  RUP checks and
    core queries push temporary assumptions on top of it and always undo
    back to the root, so a checker instance can be kept alive and fed
    incrementally (new clauses, then new proof steps) across many
    certifications of one growing formula.
    """

    def __init__(self, num_vars: int = 0):
        self.num_vars = 0
        #: True once the clause set is refuted at the root level.
        self.refuted = False
        self._value: list[int] = [0]   # 1-indexed: +1 true, -1 false, 0 free
        self._watches: dict[int, list[_CClause]] = {}
        # Deletion index (sorted literals -> records, oldest first),
        # built on the first deletion from ``_recs``, every record in
        # insertion order; most proofs never delete.
        self._recs: list[_CClause] = []
        self._by_key: Optional[dict[tuple[int, ...], list[_CClause]]] = None
        self._trail: list[int] = []
        self._qhead = 0
        self._ensure_vars(num_vars)

    # ----- assignment machinery ---------------------------------------------

    def _ensure_vars(self, n: int) -> None:
        while self.num_vars < n:
            self.num_vars += 1
            self._value.append(0)

    def _val(self, lit: int) -> int:
        v = self._value[abs(lit)]
        return v if lit > 0 else -v

    def _assign(self, lit: int) -> None:
        self._value[abs(lit)] = 1 if lit > 0 else -1
        self._trail.append(lit)

    def _propagate(self) -> bool:
        """Propagate queued assignments; True iff a conflict was found."""
        value = self._value
        watches = self._watches
        trail = self._trail
        qhead = self._qhead
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            watchers = watches.get(false_lit)
            if not watchers:
                continue
            keep: list[_CClause] = []
            i = 0
            n = len(watchers)
            while i < n:
                rec = watchers[i]
                i += 1
                if rec.deleted:
                    continue  # retired: drop from the watch list lazily
                w0, w1 = rec.watch
                if w0 == false_lit:
                    w0, w1 = w1, w0
                v0 = value[w0] if w0 > 0 else -value[-w0]
                if v0 > 0:
                    rec.watch = (w0, w1)
                    keep.append(rec)
                    continue
                for q in rec.lits:
                    if q != w0 and q != false_lit and (
                            value[q] if q > 0 else -value[-q]) >= 0:
                        rec.watch = (w0, q)
                        watches.setdefault(q, []).append(rec)
                        break
                else:
                    rec.watch = (w0, false_lit)
                    keep.append(rec)
                    if v0 < 0:
                        # Conflict: restore the remaining watchers and stop.
                        keep.extend(r for r in watchers[i:] if not r.deleted)
                        watches[false_lit] = keep
                        self._qhead = len(trail)
                        return True
                    if v0 == 0:
                        if w0 > 0:
                            value[w0] = 1
                        else:
                            value[-w0] = -1
                        trail.append(w0)
            watches[false_lit] = keep
        self._qhead = qhead
        return False

    def _undo_to(self, saved: int) -> None:
        for lit in self._trail[saved:]:
            self._value[abs(lit)] = 0
        del self._trail[saved:]
        self._qhead = saved

    # ----- queries ----------------------------------------------------------

    def _rup(self, clause: tuple[int, ...]) -> bool:
        """Is ``clause`` a reverse-unit-propagation consequence?"""
        if self.refuted:
            return True  # anything follows from a refuted clause set
        saved = len(self._trail)
        conflict = False
        for lit in clause:
            v = self._val(lit)
            if v > 0:
                # The clause is satisfied at the root: its negation is
                # immediately contradictory.
                conflict = True
                break
            if v == 0:
                self._assign(-lit)
        if not conflict:
            conflict = self._propagate()
        self._undo_to(saved)
        return conflict

    def assumptions_conflict(self, lits: Iterable[int]) -> bool:
        """Do these assumption literals propagate to a conflict?

        The final check for an UNSAT-under-assumptions certificate: the
        core is genuine iff asserting it on top of the (replayed) clause
        set refutes by unit propagation alone.  Temporary, like RUP.
        """
        if self.refuted:
            return True
        saved = len(self._trail)
        conflict = False
        for lit in lits:
            self._ensure_vars(abs(lit))
            v = self._val(lit)
            if v < 0:
                conflict = True
                break
            if v == 0:
                self._assign(lit)
        if not conflict:
            conflict = self._propagate()
        self._undo_to(saved)
        return conflict

    # ----- clause set maintenance -------------------------------------------

    def add_clause(self, lits: Iterable[int], check: bool = False) -> None:
        """Install a clause; with ``check=True`` verify it is RUP first.

        Raises :class:`DratError` when a checked clause is not RUP —
        that is the rejection path for corrupted or bogus proofs.
        """
        clause = tuple(lits)
        if check:
            for lit in clause:
                if lit == 0:
                    raise DratError("0 is not a valid literal")
                self._ensure_vars(abs(lit))
            if not self._rup(clause):
                raise DratError(f"proof step is not RUP: {list(clause)}")
        self.add_clauses((clause,))

    def add_clauses(self, clauses: Iterable[Sequence[int]],
                    budget: Optional["Budget"] = None) -> None:
        """Install clauses unchecked, in one pass with local bindings.

        Every clause gets a record for later deletions.  Duplicate
        literals count once; a tautology or a clause true at the root is
        never watched, a unit extends the root assignment, and a clause
        false at the root refutes the set.  ``budget`` is polled before
        clause ``i`` whenever ``i & 0xFFF == 0xFFF``.
        """
        value = self._value
        watches = self._watches
        recs = self._recs if self._by_key is None else None
        nvals = len(value)
        for i, lits in enumerate(clauses):
            if budget is not None and (i & 0xFFF) == 0xFFF:
                budget.checkpoint("DRAT check: loading CNF")
            clause = tuple(lits)
            for lit in clause:
                v = lit if lit > 0 else -lit
                if v >= nvals:
                    self._ensure_vars(v)
                    nvals = len(value)
                elif not v:
                    raise DratError("0 is not a valid literal")
            rec = _CClause(clause)
            if recs is not None:
                recs.append(rec)
            else:
                self._by_key.setdefault(tuple(sorted(clause)), []).append(rec)
            if self.refuted:
                continue
            # Unwatched when a literal is true at the root or the clause
            # is a tautology; otherwise its distinct free literals decide.
            free: list[int] = []
            for lit in clause:
                v = value[lit] if lit > 0 else -value[-lit]
                if v > 0 or (not v and -lit in free):
                    break
                if not v and lit not in free:
                    free.append(lit)
            else:
                if len(free) > 1:
                    rec.watch = (free[0], free[1])
                    watches.setdefault(free[0], []).append(rec)
                    watches.setdefault(free[1], []).append(rec)
                elif free:
                    # Unit under the root assignment: extend the
                    # persistent closure; once true it needs no watch.
                    self._assign(free[0])
                    if self._propagate():
                        self.refuted = True
                else:
                    self.refuted = True  # all literals false at the root

    def delete_clause(self, lits: Iterable[int]) -> None:
        """Retire one instance of the clause from propagation.

        The most recently added live instance goes, whether the index
        was built just now or kept since an earlier deletion.  Unknown
        deletions are ignored: removing clauses can only weaken the
        set, so leniency here cannot make an invalid proof pass.
        """
        if self._by_key is None:
            self._by_key = {}
            for rec in self._recs:
                self._by_key.setdefault(tuple(sorted(rec.lits)), []).append(rec)
            self._recs = []
        key = tuple(sorted(lits))
        recs = self._by_key.get(key)
        if not recs:
            return
        rec = recs.pop()
        if not recs:
            del self._by_key[key]
        rec.deleted = True

    def apply_step(self, step: tuple[str, tuple[int, ...]]) -> None:
        kind, lits = step
        if kind == "a":
            self.add_clause(lits, check=True)
        elif kind == "d":
            self.delete_clause(lits)
        else:
            raise DratError(f"unknown proof step kind {kind!r}")

    def apply_steps(self, steps: Iterable[tuple[str, tuple[int, ...]]],
                    budget: Optional["Budget"] = None) -> None:
        """Replay proof steps; ``budget`` is polled every 256 steps."""
        for i, step in enumerate(steps):
            if budget is not None and (i & 0xFF) == 0xFF:
                budget.checkpoint("DRAT check: replaying proof")
            self.apply_step(step)


def check_drat(
    num_vars: int,
    clauses: Sequence[Sequence[int]],
    steps: Sequence[tuple[str, tuple[int, ...]]],
    core: Sequence[int] = (),
    budget: Optional["Budget"] = None,
    checker: Optional[DratChecker] = None,
) -> DratChecker:
    """Replay a proof against the original CNF; raise DratError on failure.

    With an empty ``core`` the proof must derive the empty clause; with
    a core the replayed clause set must refute under those assumption
    literals by unit propagation alone.  Returns the checker (its state
    can answer further assumption queries on the same formula).  A live
    ``checker`` that already holds a prefix of the CNF and proof is fed
    only ``clauses`` and ``steps``, the parts that came after it.
    """
    if checker is None:
        checker = DratChecker(num_vars)
    with TRACER.span("drat-load", clauses=len(clauses)):
        checker.add_clauses(clauses, budget)
    with TRACER.span("drat-replay", steps=len(steps)):
        checker.apply_steps(steps, budget)
    if core:
        if not checker.assumptions_conflict(core):
            raise DratError(
                "assumption core does not propagate to a conflict"
            )
    elif not checker.refuted:
        raise DratError("proof does not derive the empty clause")
    return checker


@dataclass
class Certificate:
    """A replayable refutation attached to an UNSAT answer.

    ``clauses`` is the original CNF (pre-solver, so the certificate does
    not depend on the solver's own simplifications), ``steps`` the
    solver's proof log, and ``core`` the assumption literals for
    UNSAT-under-assumptions answers (empty for root unsatisfiability).
    """

    num_vars: int
    clauses: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    core: tuple = ()
    verified: bool = False
    error: Optional[str] = None

    def verify(self, budget: Optional["Budget"] = None,
               checker: Optional[DratChecker] = None) -> bool:
        """Run the independent checker; records verified/error in place.

        ``checker``, when given, is a live checker that already accepted
        everything before this certificate's clauses and steps.
        """
        try:
            check_drat(
                self.num_vars, self.clauses, self.steps,
                core=self.core, budget=budget, checker=checker,
            )
        except DratError as exc:
            self.verified = False
            self.error = str(exc)
            return False
        self.verified = True
        self.error = None
        return True
