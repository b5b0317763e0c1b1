"""Proof hints: how :class:`~repro.smt.sat.cdcl.CDCLSolver` writes LRAT.

With a proof log (``--certify``) the solver logs every clause it
derives with hints: the ids of the clauses whose unit propagation, in
order, refutes the clause's negation.  The methods here read those
hints off the solver's state and log the steps the hints need; they
do nothing without a proof log.

* A derivation is a walk of the implication graph back from the clause
  the trail falsifies (:meth:`ProofHints._hints`): every variable at a
  decision level is expanded through its reason, cited after the
  reasons it depends on.  This is the cone conflict analysis and
  minimization resolved, read back from the trail, so the search never
  depends on the log.
* A root-level variable is cited by its unit clause.  Units the solver
  asserts are logged when asserted; one that root propagation implied
  is logged the first time a hint needs it (:meth:`ProofHints._unit_id`),
  from its reason and the units of the reason's other literals.
* An original is cited as ``~pos``, its position in the clause list
  given to the loaders.  One that loading cut (a literal false at the
  root) is logged, as derived from the original and the units of the
  cut literals, on its first citation (:meth:`ProofHints._cite`).

The mixin works on the solver's own arrays (``_ar``, ``_c_start``,
``_c_size``, ``_level``, ``_reason``, ``_vals``, ``_seen``) and on its
proof bookkeeping: ``_c_pid`` (the proof id of each arena clause),
``_units`` (variable → unit id), ``_cut`` (cut originals: a tuple while
pending, then the logged id) and ``proof``.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class ProofHints:
    """LRAT hint bookkeeping for :class:`~repro.smt.sat.cdcl.CDCLSolver`."""

    def _unit_id(self, v: int) -> int:
        """Proof id of the unit clause fixing root-level variable ``v``.

        Memoized per variable (root assignments are never undone); a
        unit not logged yet is logged now, by :meth:`_settle`.
        """
        if v not in self._units:
            self._settle([v])
        return self._cite(self._units[v])

    def _cite(self, pid: int) -> int:
        """The id a hint uses for clause ``pid``: a cut original is
        logged, on its first citation, by :meth:`_settle`."""
        cut = self._cut.get(pid)
        if cut is None:
            return pid
        if type(cut) is not int:
            self._settle([pid])
            cut = self._cut[pid]
        return cut

    def _settle(self, stack: list[int]) -> None:
        """Log the steps that citing the items on ``stack`` needs.

        An item ``v > 0`` is a root-level variable whose unit root
        propagation implied: it is derived from its reason and the
        units of the reason's other literals.  An item ``~pos`` is an
        original that loading cut (see :meth:`_original_id`): it is
        derived from the original and the units of the cut literals.
        Dependencies are logged first, iteratively: either kind of
        chain can be as deep as the root trail.
        """
        units = self._units
        cut = self._cut  # a tuple while pending, then the logged id
        reason = self._reason
        ar = self._ar
        starts = self._c_start
        sizes = self._c_size
        c_pid = self._c_pid
        proof = self.proof
        while stack:
            item = stack[-1]
            if item > 0:
                pid = units.get(item)
                if pid is not None:
                    if type(cut.get(pid)) is tuple:
                        stack.append(pid)  # a cut original's unit
                    else:
                        stack.pop()
                    continue
                r = reason[item]
                if r < 0:
                    raise RuntimeError(f"root unit {item} has no proof id")
                s = starts[r]
                others = [q >> 1 for q in ar[s:s + sizes[r]]
                          if q >> 1 != item]
                todo = [c_pid[r]] if type(cut.get(c_pid[r])) is tuple else []
            else:
                pending = cut.get(item)
                if type(pending) is not tuple:
                    stack.pop()
                    continue
                others = pending[1]
                todo = []
            for w in others:
                pid = units.get(w)
                if pid is None or type(cut.get(pid)) is tuple:
                    todo.append(w)
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            hints = []
            for w in others:
                pid = units[w]
                hints.append(cut.get(pid, pid))
            if item > 0:
                pid = c_pid[r]
                hints.append(cut.get(pid, pid))
                lit = item if self._vals[item + item] > 0 else -item
                units[item] = proof.add((lit,), hints)
            else:
                hints.append(item)
                cut[item] = proof.add(pending[0], hints)

    def _hints(self, skip: Iterable[int], confl: int,
               final: bool = False) -> list[int]:
        """Hints deriving a clause over the variables in ``skip`` whose
        negation, with the trail, falsifies clause ``confl``.

        Walks the implication graph back from ``confl``: every other
        variable at a decision level is expanded through its reason,
        which is cited after the reasons it depends on; a root-level
        variable is cited by its unit, first.  ``confl`` comes last.
        For the ``final`` step no later hint can reuse a unit, so root
        variables without one are expanded through their reasons too.
        """
        level = self._level
        reason = self._reason
        ar = self._ar
        starts = self._c_start
        sizes = self._c_size
        c_pid = self._c_pid
        cut = self._cut
        units = self._units
        seen = self._seen  # analysis scratch, all clear between uses
        marked = list(skip)
        for u in marked:
            seen[u] = 1
        roots: list[int] = []
        chain: list[int] = []
        stack = [[confl, starts[confl]]]
        try:
            while stack:
                frame = stack[-1]
                cid, k = frame
                end = starts[cid] + sizes[cid]
                while k < end:
                    u = ar[k] >> 1
                    k += 1
                    if seen[u]:
                        continue
                    seen[u] = 1
                    marked.append(u)
                    r = reason[u]
                    if not level[u] and (not final or r < 0 or u in units):
                        roots.append(u)
                        continue
                    if r < 0:
                        raise RuntimeError(f"decision {u} outside the clause")
                    frame[1] = k
                    stack.append([r, starts[r]])
                    break
                else:
                    stack.pop()
                    pid = c_pid[cid]
                    chain.append(pid if pid not in cut else self._cite(pid))
        finally:
            for u in marked:
                seen[u] = 0
        hints = []
        for u in roots:
            pid = units.get(u)
            hints.append(pid if pid is not None and pid not in cut
                         else self._unit_id(u))
        hints += chain
        return hints

    def _refute(self, confl: int) -> None:
        """Log the empty clause: ``confl`` is falsified at the root."""
        if self.proof is not None:
            self.proof.add((), self._hints((), confl, final=True)
                           if not self._trail_lim else ())

    def _refute_unit(self, q: int, pid: int) -> None:
        """Log the empty clause: unit ``pid`` asserts ``q``, false at the root."""
        if self.proof is not None:
            u = q >> 1
            self.proof.add((), (self._unit_id(u), self._cite(pid))
                           if not self._level[u] else ())

    def _retire(self, cid: int) -> None:
        """Proof side of removing a clause: log the root units it is the
        reason for while it can still be cited, then the deletion of a
        learned clause (irredundant deletions are never logged)."""
        reason = self._reason
        level = self._level
        for q in self._clause_idxs(cid):
            u = q >> 1
            if reason[u] == cid and not level[u]:
                self._unit_id(u)
        if self._c_learnt[cid]:
            self.proof.delete(self._c_pid[cid])

    def _original_id(self, lits: Sequence[int], kept: list[int],
                     pid: int) -> int:
        """Proof id of clause ``pid`` as loading kept it.

        ``kept`` is what is left of ``lits`` (literal indices) after
        dropping duplicates and literals false at the root.  A clause
        that lost a literal is derived from ``pid`` and the units of
        those literals: an original keeps its id and is logged only if
        a hint cites it (:meth:`_cite`), anything else (a clause coming
        back from elimination) is logged now, and so is the empty
        clause, the refutation.
        """
        if kept and len(kept) == len(lits):
            return pid
        vals = self._vals
        gone = [-lit if lit < 0 else lit for lit in dict.fromkeys(lits)
                if vals[(lit + lit) if lit > 0 else (1 - lit - lit)] < 0]
        if kept and not gone:
            return pid  # only duplicates went
        if kept and pid < 0 and pid not in self._cut:
            self._cut[pid] = (self._to_signed(kept), gone)
            return pid
        hints = [self._unit_id(u) for u in gone]
        hints.append(self._cite(pid))
        return self.proof.add(self._to_signed(kept), hints)

    def _log_core(self, failed: int) -> None:
        """Log the negated core, the step that ends an UNSAT answer
        under assumptions: the core's assumptions imply ``-failed``."""
        core = self._conflict_assumptions
        u = -failed if failed < 0 else failed
        if not self._level[u]:
            hints = [self._unit_id(u)]
        elif self._reason[u] < 0:
            hints = []  # -failed is itself assumed: a tautology
        else:
            hints = self._hints([-l if l < 0 else l for l in core],
                                self._reason[u])
        self.proof.add([-l for l in core], hints)
