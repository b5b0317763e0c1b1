"""Scheduler-agnostic machinery for the FPerf-style baseline encodings.

§2.2 of the paper: "there are 100s of lines of code creating additional
scheduler-agnostic constraints that model the internal operations of
the packet queues and lists".  This module is our equivalent of that
layer: explicit per-time-step variables for queue occupancy, arrivals,
dequeue decisions and pointer-list slots, with hand-written transition
constraints — the "before" picture that Buffy's language abstractions
replace.

The per-scheduler logic lives in ``fperf_fq.py`` / ``fperf_rr.py`` /
``fperf_prio.py``; their line counts are the FPerf column of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..smt.solver import SmtSolver
from ..smt.terms import (
    FALSE,
    TRUE,
    ZERO,
    Term,
    mk_and,
    mk_bool_to_int,
    mk_bool_var,
    mk_eq,
    mk_implies,
    mk_int,
    mk_int_var,
    mk_ite,
    mk_le,
    mk_lt,
    mk_min,
    mk_not,
    mk_or,
    mk_sum,
)


@dataclass
class BaselineContext:
    """Shared state for one baseline encoding instance.

    Creates the scheduler-agnostic variables and constraints:

    * ``arr[q][t]``        — arrival count for queue ``q`` at step ``t``;
    * ``cnt[q][t]``        — queue occupancy at the *start* of step ``t``;
    * ``cnt_mid[q][t]``    — occupancy after the arrival flush;
    * ``deq[q][t]``        — does queue ``q`` transmit at step ``t``;
    * ``cdeq[q][t]``       — cumulative dequeues of ``q`` through ``t``.

    The scheduler-specific encoding must constrain ``deq`` and may add
    whatever internal state it needs (e.g. pointer lists).
    """

    n_queues: int
    horizon: int
    capacity: int = 8
    max_arrivals: int = 2
    name: str = "baseline"
    constraints: list[Term] = field(default_factory=list)
    bounds: dict[str, tuple[int, int]] = field(default_factory=dict)
    _fresh: int = 0

    def __post_init__(self) -> None:
        n, T = self.n_queues, self.horizon
        self.arr = [[self._int(f"arr_q{q}_t{t}", 0, self.max_arrivals)
                     for t in range(T)] for q in range(n)]
        self.cnt = [[self._int(f"cnt_q{q}_t{t}", 0, self.capacity)
                     for t in range(T + 1)] for q in range(n)]
        self.cnt_mid = [[self._int(f"cntmid_q{q}_t{t}", 0, self.capacity)
                         for t in range(T)] for q in range(n)]
        self.deq = [[mk_bool_var(f"{self.name}_deq_q{q}_t{t}")
                     for t in range(T)] for q in range(n)]
        self.cdeq = [[self._int(f"cdeq_q{q}_t{t}", 0, T)
                      for t in range(T + 1)] for q in range(n)]
        self.drops = [[self._int(f"drop_q{q}_t{t}", 0, self.max_arrivals)
                       for t in range(T)] for q in range(n)]
        self._agnostic_constraints()

    # ----- variable helpers -------------------------------------------------

    def _int(self, suffix: str, lo: int, hi: int) -> Term:
        var = mk_int_var(f"{self.name}_{suffix}")
        self.bounds[var.name] = (lo, hi)
        return var

    def fresh_int(self, tag: str, lo: int, hi: int) -> Term:
        self._fresh += 1
        return self._int(f"{tag}_f{self._fresh}", lo, hi)

    def add(self, constraint: Term) -> None:
        self.constraints.append(constraint)

    # ----- scheduler-agnostic transition constraints ------------------------------

    def _agnostic_constraints(self) -> None:
        n, T = self.n_queues, self.horizon
        for q in range(n):
            self.add(mk_eq(self.cnt[q][0], ZERO))
            self.add(mk_eq(self.cdeq[q][0], ZERO))
            for t in range(T):
                # Arrival flush with tail drop at capacity.
                admitted = mk_min(
                    self.arr[q][t],
                    mk_int(self.capacity) - self.cnt[q][t],
                )
                self.add(
                    mk_eq(self.cnt_mid[q][t], self.cnt[q][t] + admitted)
                )
                self.add(
                    mk_eq(self.drops[q][t], self.arr[q][t] - admitted)
                )
                # A queue can transmit only when it has a packet.
                self.add(
                    mk_implies(
                        self.deq[q][t], mk_lt(ZERO, self.cnt_mid[q][t])
                    )
                )
                took = mk_bool_to_int(self.deq[q][t])
                self.add(
                    mk_eq(self.cnt[q][t + 1], self.cnt_mid[q][t] - took)
                )
                self.add(
                    mk_eq(self.cdeq[q][t + 1], self.cdeq[q][t] + took)
                )
            # At most one queue transmits per step (single output link).
        for t in range(T):
            for q1 in range(n):
                for q2 in range(q1 + 1, n):
                    self.add(
                        mk_not(mk_and(self.deq[q1][t], self.deq[q2][t]))
                    )

    # ----- solving -----------------------------------------------------------------

    def solver(self) -> SmtSolver:
        solver = SmtSolver()
        for name, (lo, hi) in self.bounds.items():
            solver.set_bounds(name, lo, hi)
        for constraint in self.constraints:
            solver.add(constraint)
        return solver

    def total_deq(self, q: int, t: Optional[int] = None) -> Term:
        return self.cdeq[q][self.horizon if t is None else t]


class BaselineList:
    """A pointer list encoded FPerf-style: one variable per slot per step.

    Slot variables hold queue ids, ``-1`` marks empty; ``length``
    tracks occupancy.  Every mutation is a fresh copy of all slot
    variables related to the previous copy by hand-written
    implications — exactly the Figure-1 style of modeling.
    """

    def __init__(self, ctx: BaselineContext, name: str, capacity: int,
                 max_value: int):
        self.ctx = ctx
        self.name = name
        self.capacity = capacity
        self.max_value = max_value
        self.elems = [
            ctx.fresh_int(f"{name}_e{i}", -1, max_value)
            for i in range(capacity)
        ]
        self.length = ctx.fresh_int(f"{name}_len", 0, capacity)
        ctx.add(mk_eq(self.length, ZERO))
        for elem in self.elems:
            ctx.add(mk_eq(elem, mk_int(-1)))

    def _next(self, tag: str) -> "BaselineList":
        clone = object.__new__(BaselineList)
        clone.ctx = self.ctx
        clone.name = self.name
        clone.capacity = self.capacity
        clone.max_value = self.max_value
        clone.elems = [
            self.ctx.fresh_int(f"{self.name}_{tag}_e{i}", -1, self.max_value)
            for i in range(self.capacity)
        ]
        clone.length = self.ctx.fresh_int(f"{self.name}_{tag}_len",
                                          0, self.capacity)
        return clone

    def has(self, value: Term) -> Term:
        hits = [
            mk_and(mk_lt(mk_int(i), self.length), mk_eq(self.elems[i], value))
            for i in range(self.capacity)
        ]
        return mk_or(*hits)

    def empty(self) -> Term:
        return mk_eq(self.length, ZERO)

    def head(self) -> Term:
        return mk_ite(self.empty(), mk_int(-1), self.elems[0])

