"""In-memory hinted (LRAT-style) proof log.

:class:`ProofLog` is the write side of the trust layer.  The CDCL
solver appends every clause it derives as an addition step that names
the clauses making it a reverse-unit-propagation (RUP) consequence,
every learned clause it drops as a deletion step, and the empty clause
(or, under assumptions, the negated core) that ends a refutation.  The
log is append-only, picklable (portfolio workers ship their steps back
to the parent) and deliberately knows nothing about checking: the read
side lives in :mod:`repro.trust.drat`, which must stay independent of
the solver.

Clause ids: a derived clause gets the next positive id; an original
clause is cited as ``~pos``, the bitwise complement of its position in
the CNF's clause list (so ``-1`` is clause 0).  Positions stay valid
while an incremental CNF grows, which is why originals and derived
clauses do not share one numbering until :meth:`ProofLog.to_lrat`
renders the log for a fixed CNF.
"""

from __future__ import annotations

from typing import Iterable, Union

#: ("a", id, lits, hints) adds clause ``id``; ("d", id) deletes it.
Step = Union[tuple[str, int, tuple[int, ...], tuple[int, ...]],
             tuple[str, int]]


class ProofLog:
    """Append-only sequence of hinted proof steps."""

    __slots__ = ("steps", "next_id")

    def __init__(self):
        self.steps: list[Step] = []
        self.next_id = 1

    def add(self, lits: Iterable[int], hints: Iterable[int]) -> int:
        """Record a derived clause and the hints that make it RUP; returns its id."""
        cid = self.next_id
        self.next_id = cid + 1
        self.steps.append(("a", cid, tuple(lits), tuple(hints)))
        return cid

    def delete(self, cid: int) -> None:
        """Record the deletion of derived clause ``cid``."""
        self.steps.append(("d", cid))

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def to_lrat(self, num_clauses: int) -> str:
        """Standard LRAT text for a CNF of ``num_clauses`` clauses.

        Originals keep their DIMACS numbering (position + 1) and derived
        clause ``i`` becomes ``num_clauses + i``, so the text replays
        against the CNF's DIMACS file in any LRAT checker.
        """
        def ref(cid: int) -> int:
            return ~cid + 1 if cid < 0 else num_clauses + cid

        lines = []
        last = num_clauses
        for step in self.steps:
            if step[0] == "a":
                _, cid, lits, hints = step
                last = ref(cid)
                lines.append(" ".join(
                    [str(last), *map(str, lits), "0",
                     *(str(ref(h)) for h in hints), "0"]))
            else:
                lines.append(f"{last} d {ref(step[1])} 0")
        return "\n".join(lines) + ("\n" if lines else "")
