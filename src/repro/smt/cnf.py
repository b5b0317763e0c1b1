"""Conjunctive normal form representation and DIMACS I/O.

Literals follow the DIMACS convention: variables are positive integers
``1..num_vars``; a literal is ``v`` (positive) or ``-v`` (negated).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, TextIO


@dataclass
class CNF:
    """A CNF formula: a clause database plus a variable counter."""

    num_vars: int = 0
    clauses: list[list[int]] = field(default_factory=list)

    def new_var(self) -> int:
        """Allocate a fresh variable and return it (as a positive literal)."""
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause, dropping duplicate literals and tautologies."""
        clause: list[int] = []
        n = self.num_vars
        for lit in lits:
            if not lit or not -n <= lit <= n:
                if lit == 0:
                    raise ValueError("0 is not a valid DIMACS literal")
                raise ValueError(f"literal {lit} references unallocated variable")
            if -lit in clause:
                return  # tautology: p or not p
            if lit not in clause:
                clause.append(lit)
        self.clauses.append(clause)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        for cl in clauses:
            self.add_clause(cl)

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[list[int]]:
        return iter(self.clauses)

    # ----- DIMACS ---------------------------------------------------------

    def to_dimacs(self, out: Optional[TextIO] = None) -> str:
        """Serialize as DIMACS CNF; returns the text if ``out`` is None."""
        buf = out if out is not None else io.StringIO()
        buf.write(f"p cnf {self.num_vars} {len(self.clauses)}\n")
        for clause in self.clauses:
            buf.write(" ".join(map(str, clause)))
            buf.write(" 0\n")
        if out is None:
            return buf.getvalue()  # type: ignore[union-attr]
        return ""

    @classmethod
    def from_dimacs(cls, text: str) -> "CNF":
        """Parse DIMACS CNF text (comments and header tolerated)."""
        cnf = cls()
        declared_vars = 0
        pending: list[int] = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith(("c", "%")):
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise ValueError(f"malformed DIMACS header: {line!r}")
                declared_vars = int(parts[2])
                cnf.num_vars = declared_vars
                continue
            for tok in line.split():
                lit = int(tok)
                if lit == 0:
                    cnf.num_vars = max(cnf.num_vars, *(abs(p) for p in pending), 0) \
                        if pending else cnf.num_vars
                    cnf.clauses.append(pending)
                    pending = []
                else:
                    cnf.num_vars = max(cnf.num_vars, abs(lit))
                    pending.append(lit)
        if pending:
            cnf.clauses.append(pending)
        return cnf


def check_assignment(cnf: CNF, assignment: Sequence[bool]) -> bool:
    """Check a full assignment against a CNF.

    ``assignment[v]`` is the value of variable ``v`` (index 0 unused).
    """
    if len(assignment) < cnf.num_vars + 1:
        raise ValueError("assignment too short for CNF")
    for clause in cnf.clauses:
        if not any(assignment[l] if l > 0 else not assignment[-l] for l in clause):
            return False
    return True
