"""Symbolic buffer and list models over SMT terms.

These are the "plug-in buffer models at various precision levels" of
§3.  Each model maintains its state as SMT *terms* (not variables):
mutations build ``ite`` terms guarded by the symbolic execution's path
guard, so no merging pass is needed and the encoding stays a pure
dataflow DAG.  Fresh variables appear only where the paper's method
introduces nondeterminism — input traffic and ``havoc``.

* :class:`SymbolicList` — bounded FIFO of ints (``new_queues`` /
  ``old_queues`` pointer lists).
* :class:`SymbolicListBuffer` — packet-list precision (FPerf-style):
  every slot tracks a flow id and a size.
* :class:`SymbolicCounterBuffer` — count precision (CCAC-style):
  per-flow packet counters, intra-buffer order abstracted away;
  packet sizes are a per-model constant ``unit_size``.

Both buffer models share the interface the symbolic executor consumes:
``backlog_p`` / ``backlog_b`` / ``enqueue`` / ``dequeue_packets`` /
``dequeue_bytes`` plus cumulative statistics terms (``deq_p`` etc.)
that back monitors and queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..smt.terms import (
    FALSE,
    ONE,
    TRUE,
    ZERO,
    Term,
    mk_and,
    mk_bool_to_int,
    mk_eq,
    mk_int,
    mk_ite,
    mk_le,
    mk_lt,
    mk_max,
    mk_min,
    mk_not,
    mk_or,
    mk_sum,
)


def gite(guard: Term, then: Term, els: Term) -> Term:
    """Guarded update: ``ite(guard, then, els)``."""
    return mk_ite(guard, then, els)


def _has_room(length: Term, hi: int, capacity: int) -> Term:
    """``length < capacity``, which is ``TRUE`` while ``hi < capacity``."""
    if hi < capacity:
        return TRUE
    return mk_lt(length, mk_int(capacity))


class SymbolicList:
    """A bounded FIFO list of integers with ``-1`` as the empty sentinel.

    Semantics match the concrete interpreter: ``pop_front`` on an empty
    list returns ``-1`` and leaves the list unchanged; ``push_back`` on
    a full list is a no-op but raises the ``overflowed`` flag, which
    back ends may assert never fires (capacity adequacy check).

    ``hi`` is a static (plain-int) upper bound on ``length``: slots at
    index ``hi`` and above still hold the ``-1`` constant, so every slot
    loop stops there.
    """

    def __init__(self, capacity: int, name: str = "list"):
        if capacity <= 0:
            raise ValueError("list capacity must be positive")
        self.capacity = capacity
        self.name = name
        self.elems: list[Term] = [mk_int(-1)] * capacity
        self.length: Term = ZERO
        self.overflowed: Term = FALSE
        self.hi = 0

    def push_back(self, value: Term, guard: Term) -> None:
        has_room = _has_room(self.length, self.hi, self.capacity)
        can = mk_and(guard, has_room)
        self.overflowed = mk_or(
            self.overflowed, mk_and(guard, mk_not(has_room))
        )
        for i in range(min(self.hi + 1, self.capacity)):
            at_slot = mk_and(can, mk_eq(self.length, mk_int(i)))
            self.elems[i] = gite(at_slot, value, self.elems[i])
        self.length = self.length + mk_bool_to_int(can)
        if guard is not FALSE:
            self.hi = min(self.hi + 1, self.capacity)

    def pop_front(self, guard: Term) -> Term:
        nonempty = mk_lt(ZERO, self.length)
        result = gite(nonempty, self.elems[0], mk_int(-1))
        do_pop = mk_and(guard, nonempty)
        for i in range(self.hi):
            nxt = self.elems[i + 1] if i + 1 < self.capacity else mk_int(-1)
            self.elems[i] = gite(do_pop, nxt, self.elems[i])
        self.length = self.length - mk_bool_to_int(do_pop)
        return result

    def has(self, value: Term) -> Term:
        hits = [
            mk_and(mk_lt(mk_int(i), self.length), mk_eq(self.elems[i], value))
            for i in range(self.hi)
        ]
        return mk_or(*hits) if hits else FALSE

    def havoc(self, prefix: str, value_range: tuple[int, int],
              bounds: dict[str, tuple[int, int]]) -> None:
        """Replace contents with fresh variables (structured havoc, §6.1).

        The list keeps its fixed shape — ``capacity`` slots plus a
        length in ``[0, capacity]`` — which is exactly the "sequences of
        fixed shape and size with integer havoc variables inside" the
        paper needed to make Dafny analysis tractable.
        """
        from ..smt.terms import mk_int_var

        self.elems = []
        for i in range(self.capacity):
            var = mk_int_var(f"{prefix}.elem{i}")
            bounds[var.name] = value_range
            self.elems.append(var)
        length = mk_int_var(f"{prefix}.len")
        bounds[length.name] = (0, self.capacity)
        self.length = length
        self.overflowed = FALSE
        self.hi = self.capacity

    def empty(self) -> Term:
        return mk_eq(self.length, ZERO)

    def len_term(self) -> Term:
        return self.length


@dataclass
class SymbolicPacket:
    """A symbolic packet: flow/size terms plus the guard under which it exists.

    ``bulk`` is set by the counter model's bulk transfers: the packet
    then stands for ``bulk`` identical packets of the same class.
    """

    flow: Term
    size: Term
    present: Term
    bulk: Optional[Term] = None


@dataclass
class BufferStatTerms:
    """Cumulative statistics as terms (monitor observables)."""

    enq_p: Term = ZERO
    enq_b: Term = ZERO
    deq_p: Term = ZERO
    deq_b: Term = ZERO
    drop_p: Term = ZERO
    drop_b: Term = ZERO


class SymbolicBufferModel:
    """Interface shared by the two symbolic precision levels."""

    name: str
    stats: BufferStatTerms

    def backlog_p(self, fieldname: Optional[str] = None,
                  value: Optional[Term] = None) -> Term:
        raise NotImplementedError

    def backlog_b(self, fieldname: Optional[str] = None,
                  value: Optional[Term] = None) -> Term:
        raise NotImplementedError

    def enqueue(self, packet: SymbolicPacket) -> None:
        raise NotImplementedError

    def dequeue_packets(self, count: Term, guard: Term) -> list[SymbolicPacket]:
        raise NotImplementedError

    def dequeue_bytes(self, count: Term, guard: Term) -> list[SymbolicPacket]:
        raise NotImplementedError

    def drain_all(self, guard: Term) -> list[SymbolicPacket]:
        return self.dequeue_packets(mk_int(self.max_drain()), guard)

    def max_drain(self) -> int:
        """Static bound on how many packets one drain can yield."""
        raise NotImplementedError


class SymbolicListBuffer(SymbolicBufferModel):
    """Packet-list precision: slots of (flow, size) with a length term.

    ``hi`` is a static (plain-int) upper bound on ``length``: slots at
    index ``hi`` and above still hold the empty constants (flow ``-1``,
    size ``0``), so every slot loop stops there.
    """

    def __init__(self, capacity: int, name: str = "buffer"):
        if capacity <= 0:
            raise ValueError("buffer capacity must be positive")
        self.capacity = capacity
        self.name = name
        self.flows: list[Term] = [mk_int(-1)] * capacity
        self.sizes: list[Term] = [ZERO] * capacity
        self.length: Term = ZERO
        self.hi = 0
        self.stats = BufferStatTerms()

    def max_drain(self) -> int:
        return self.capacity

    # ----- queries ----------------------------------------------------------

    def _slot_matches(self, i: int, fieldname: Optional[str],
                      value: Optional[Term]) -> Term:
        in_range = mk_lt(mk_int(i), self.length)
        if fieldname is None:
            return in_range
        if fieldname == "flow":
            return mk_and(in_range, mk_eq(self.flows[i], value))
        if fieldname == "size":
            return mk_and(in_range, mk_eq(self.sizes[i], value))
        raise ValueError(f"unknown packet field {fieldname!r}")

    def backlog_p(self, fieldname=None, value=None) -> Term:
        if fieldname is None:
            return self.length
        return mk_sum(
            [mk_bool_to_int(self._slot_matches(i, fieldname, value))
             for i in range(self.hi)]
        )

    def backlog_b(self, fieldname=None, value=None) -> Term:
        return mk_sum(
            [mk_ite(self._slot_matches(i, fieldname, value), self.sizes[i], ZERO)
             for i in range(self.hi)]
        )

    # ----- mutation ------------------------------------------------------------

    def enqueue(self, packet: SymbolicPacket) -> None:
        has_room = _has_room(self.length, self.hi, self.capacity)
        can = mk_and(packet.present, has_room)
        dropped = mk_and(packet.present, mk_not(has_room))
        for i in range(min(self.hi + 1, self.capacity)):
            at_slot = mk_and(can, mk_eq(self.length, mk_int(i)))
            self.flows[i] = gite(at_slot, packet.flow, self.flows[i])
            self.sizes[i] = gite(at_slot, packet.size, self.sizes[i])
        self.length = self.length + mk_bool_to_int(can)
        if packet.present is not FALSE:
            self.hi = min(self.hi + 1, self.capacity)
        self.stats.enq_p = self.stats.enq_p + mk_bool_to_int(can)
        self.stats.enq_b = self.stats.enq_b + gite(can, packet.size, ZERO)
        self.stats.drop_p = self.stats.drop_p + mk_bool_to_int(dropped)
        self.stats.drop_b = self.stats.drop_b + gite(dropped, packet.size, ZERO)

    def _shift_out(self, k: Term, n: int) -> None:
        """Remove the first ``k`` packets (0 <= k <= n <= hi) by shifting."""
        for i in range(self.hi):
            flow_i = mk_int(-1)
            size_i = ZERO
            # Select element i+k via an ite chain over the possible shifts,
            # highest shift first so lower (more likely) shifts end up
            # outermost.  Sources at hi and above are the empty constants,
            # which the base case already is.
            for shift in range(min(n, self.hi - 1 - i), -1, -1):
                cond = mk_eq(k, mk_int(shift))
                flow_i = gite(cond, self.flows[i + shift], flow_i)
                size_i = gite(cond, self.sizes[i + shift], size_i)
            self.flows[i] = flow_i
            self.sizes[i] = size_i
        self.length = self.length - k

    def _take(self, k: Term, kmax: int, guard: Term) -> list[SymbolicPacket]:
        """Dequeue the first ``k`` packets, where ``k <= kmax`` always."""
        n = min(kmax, self.hi)
        taken = [
            SymbolicPacket(
                flow=self.flows[j],
                size=self.sizes[j],
                present=mk_and(guard, mk_lt(mk_int(j), k)),
            )
            for j in range(n)
        ]
        bytes_taken = mk_sum(
            [gite(p.present, p.size, ZERO) for p in taken]
        )
        actual_k = gite(guard, k, ZERO)
        self._shift_out(actual_k, n)
        self.stats.deq_p = self.stats.deq_p + actual_k
        self.stats.deq_b = self.stats.deq_b + bytes_taken
        return taken

    def havoc(self, prefix: str, flow_range: tuple[int, int],
              size_range: tuple[int, int], stat_bound: int,
              bounds: dict[str, tuple[int, int]]) -> None:
        """Replace contents and statistics with fresh bounded variables."""
        from ..smt.terms import mk_int_var

        self.flows = []
        self.sizes = []
        for i in range(self.capacity):
            flow = mk_int_var(f"{prefix}.flow{i}")
            size = mk_int_var(f"{prefix}.size{i}")
            bounds[flow.name] = flow_range
            bounds[size.name] = size_range
            self.flows.append(flow)
            self.sizes.append(size)
        length = mk_int_var(f"{prefix}.len")
        bounds[length.name] = (0, self.capacity)
        self.length = length
        self.hi = self.capacity
        self.stats = _havoc_stats(prefix, stat_bound, bounds)

    def dequeue_packets(self, count: Term, guard: Term) -> list[SymbolicPacket]:
        k = mk_min(mk_max(count, ZERO), self.length)
        kmax = max(count.value, 0) if count.is_const else self.hi
        return self._take(k, kmax, guard)

    def dequeue_bytes(self, count: Term, guard: Term) -> list[SymbolicPacket]:
        # k = number of whole head packets whose cumulative size fits in count.
        budget = mk_max(count, ZERO)
        prefix = ZERO
        k = ZERO
        fits_so_far = TRUE
        for j in range(self.hi):
            prefix = prefix + gite(
                mk_lt(mk_int(j), self.length), self.sizes[j], ZERO
            )
            fits_so_far = mk_and(
                fits_so_far,
                mk_lt(mk_int(j), self.length),
                mk_le(prefix, budget),
            )
            k = k + mk_bool_to_int(fits_so_far)
        return self._take(k, self.hi, guard)


def _havoc_stats(prefix: str, stat_bound: int,
                 bounds: dict[str, tuple[int, int]]) -> BufferStatTerms:
    from ..smt.terms import mk_int_var

    stats = BufferStatTerms()
    for attr in ("enq_p", "enq_b", "deq_p", "deq_b", "drop_p", "drop_b"):
        var = mk_int_var(f"{prefix}.{attr}")
        bounds[var.name] = (0, stat_bound)
        setattr(stats, attr, var)
    return stats


class SymbolicCounterBuffer(SymbolicBufferModel):
    """Count precision: per-flow packet counters (CCAC-style).

    * Intra-buffer packet order is abstracted away; dequeues drain
      flow classes in ascending id order (matching
      :class:`repro.buffers.concrete.CounterBuffer`).
    * All packets share the constant ``unit_size`` bytes, so byte
      backlogs are derived from packet counts (CCAC's token-bucket
      reasoning is in these units).
    """

    def __init__(self, n_flows: int, capacity: Optional[int] = None,
                 name: str = "buffer", unit_size: int = 1):
        if n_flows <= 0:
            raise ValueError("counter model needs at least one flow class")
        self.n_flows = n_flows
        self.capacity = capacity
        self.name = name
        self.unit_size = unit_size
        self.counts: list[Term] = [ZERO] * n_flows
        self.stats = BufferStatTerms()

    def max_drain(self) -> int:
        if self.capacity is None:
            raise ValueError(
                f"counter buffer {self.name!r} needs a capacity to be drained"
            )
        return self.capacity

    def total(self) -> Term:
        return mk_sum(self.counts)

    def backlog_p(self, fieldname=None, value=None) -> Term:
        if fieldname is None:
            return self.total()
        if fieldname != "flow":
            raise ValueError(
                f"counter model only tracks the 'flow' field, not {fieldname!r}"
            )
        return mk_sum(
            [
                gite(mk_eq(value, mk_int(f)), self.counts[f], ZERO)
                for f in range(self.n_flows)
            ]
        )

    def backlog_b(self, fieldname=None, value=None) -> Term:
        return self.backlog_p(fieldname, value) * mk_int(self.unit_size)

    def enqueue(self, packet: SymbolicPacket) -> None:
        has_room = (
            TRUE
            if self.capacity is None
            else mk_lt(self.total(), mk_int(self.capacity))
        )
        can = mk_and(packet.present, has_room)
        dropped = mk_and(packet.present, mk_not(has_room))
        for f in range(self.n_flows):
            inc = mk_bool_to_int(mk_and(can, mk_eq(packet.flow, mk_int(f))))
            self.counts[f] = self.counts[f] + inc
        self.stats.enq_p = self.stats.enq_p + mk_bool_to_int(can)
        self.stats.enq_b = self.stats.enq_b + gite(
            can, mk_int(self.unit_size), ZERO
        )
        self.stats.drop_p = self.stats.drop_p + mk_bool_to_int(dropped)
        self.stats.drop_b = self.stats.drop_b + gite(
            dropped, mk_int(self.unit_size), ZERO
        )

    def havoc(self, prefix: str, stat_bound: int,
              bounds: dict[str, tuple[int, int]]) -> None:
        """Replace per-flow counters and statistics with fresh variables."""
        from ..smt.terms import mk_int_var

        cap = self.capacity if self.capacity is not None else stat_bound
        self.counts = []
        for f in range(self.n_flows):
            var = mk_int_var(f"{prefix}.count{f}")
            bounds[var.name] = (0, cap)
            self.counts.append(var)
        self.stats = _havoc_stats(prefix, stat_bound, bounds)

    def dequeue_packets(self, count: Term, guard: Term) -> list[SymbolicPacket]:
        k = gite(guard, mk_min(mk_max(count, ZERO), self.total()), ZERO)
        remaining = k
        out: list[SymbolicPacket] = []
        for f in range(self.n_flows):
            take = mk_min(remaining, self.counts[f])
            self.counts[f] = self.counts[f] - take
            remaining = remaining - take
            out.append(
                SymbolicPacket(
                    flow=mk_int(f),
                    size=mk_int(self.unit_size),
                    present=mk_lt(ZERO, take),
                    bulk=take,
                )
            )
        self.stats.deq_p = self.stats.deq_p + k
        self.stats.deq_b = self.stats.deq_b + k * mk_int(self.unit_size)
        return out

    def dequeue_bytes(self, count: Term, guard: Term) -> list[SymbolicPacket]:
        if self.unit_size != 1:
            raise ValueError(
                "counter-model dequeue_bytes requires unit_size == 1"
                " (division-free encoding); rescale your byte budgets"
            )
        return self.dequeue_packets(count, guard)

    def enqueue_bulk(self, flow: int, count: Term) -> None:
        """Receive ``count`` packets of one class (counter→counter moves)."""
        if self.capacity is None:
            accepted = mk_max(count, ZERO)
        else:
            room = mk_int(self.capacity) - self.total()
            accepted = mk_min(mk_max(count, ZERO), mk_max(room, ZERO))
        dropped = mk_max(count, ZERO) - accepted
        self.counts[flow] = self.counts[flow] + accepted
        self.stats.enq_p = self.stats.enq_p + accepted
        self.stats.enq_b = self.stats.enq_b + accepted * mk_int(self.unit_size)
        self.stats.drop_p = self.stats.drop_p + dropped
        self.stats.drop_b = self.stats.drop_b + dropped * mk_int(self.unit_size)
