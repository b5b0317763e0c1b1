"""Tests for the symbolic buffer and list models.

Strategy: drive the symbolic models with *constant* guards and values,
evaluate the resulting terms under an empty assignment, and compare
against a plain Python reference — randomized with hypothesis.  The
bounded-model properties below go further: operations built on fresh
variables, evaluated under random assignments, plus structural checks
of the static occupancy bound ``hi``.
"""

import ast
import random
from collections import deque
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers.base import BufferStats
from repro.buffers.concrete import ListBuffer
from repro.buffers.packets import Packet
from repro.buffers.symbolic import (
    SymbolicCounterBuffer,
    SymbolicList,
    SymbolicListBuffer,
    SymbolicPacket,
)
from repro.smt.terms import (
    FALSE,
    TRUE,
    ZERO,
    evaluate,
    mk_bool,
    mk_bool_var,
    mk_int,
    mk_int_var,
)


def val(term):
    return evaluate(term, {})


class TestSymbolicList:
    def test_push_pop_fifo(self):
        lst = SymbolicList(4)
        lst.push_back(mk_int(7), TRUE)
        lst.push_back(mk_int(9), TRUE)
        assert val(lst.len_term()) == 2
        assert val(lst.pop_front(TRUE)) == 7
        assert val(lst.pop_front(TRUE)) == 9
        assert val(lst.empty()) is True

    def test_pop_empty_sentinel(self):
        lst = SymbolicList(2)
        assert val(lst.pop_front(TRUE)) == -1
        assert val(lst.len_term()) == 0

    def test_guarded_push_noop(self):
        lst = SymbolicList(2)
        lst.push_back(mk_int(1), FALSE)
        assert val(lst.len_term()) == 0

    def test_has(self):
        lst = SymbolicList(3)
        lst.push_back(mk_int(2), TRUE)
        assert val(lst.has(mk_int(2))) is True
        assert val(lst.has(mk_int(5))) is False

    def test_overflow_flag(self):
        lst = SymbolicList(1)
        lst.push_back(mk_int(1), TRUE)
        assert val(lst.overflowed) is False
        lst.push_back(mk_int(2), TRUE)
        assert val(lst.overflowed) is True
        assert val(lst.len_term()) == 1

    @given(st.lists(st.one_of(
        st.tuples(st.just("push"), st.integers(0, 5)),
        st.tuples(st.just("pop"), st.just(0)),
    ), max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_random_ops_match_deque(self, ops):
        lst = SymbolicList(6)
        ref: deque = deque()
        for op, arg in ops:
            if op == "push":
                lst.push_back(mk_int(arg), TRUE)
                if len(ref) < 6:
                    ref.append(arg)
            else:
                got = val(lst.pop_front(TRUE))
                expected = ref.popleft() if ref else -1
                assert got == expected
        assert val(lst.len_term()) == len(ref)
        for value in range(6):
            assert val(lst.has(mk_int(value))) == (value in ref)


def pkt(flow, size=1, present=True):
    return SymbolicPacket(mk_int(flow), mk_int(size), mk_bool(present))


class TestSymbolicListBuffer:
    def test_enqueue_dequeue(self):
        buf = SymbolicListBuffer(4)
        buf.enqueue(pkt(0, 2))
        buf.enqueue(pkt(1, 3))
        assert val(buf.backlog_p()) == 2
        assert val(buf.backlog_b()) == 5
        out = buf.dequeue_packets(mk_int(1), TRUE)
        taken = [(val(p.flow), val(p.size)) for p in out if val(p.present)]
        assert taken == [(0, 2)]
        assert val(buf.backlog_p()) == 1

    def test_absent_packet_ignored(self):
        buf = SymbolicListBuffer(2)
        buf.enqueue(pkt(0, present=False))
        assert val(buf.backlog_p()) == 0

    def test_capacity_drop_stats(self):
        buf = SymbolicListBuffer(1)
        buf.enqueue(pkt(0))
        buf.enqueue(pkt(1))
        assert val(buf.backlog_p()) == 1
        assert val(buf.stats.drop_p) == 1
        assert val(buf.stats.enq_p) == 1

    def test_filtered_backlog(self):
        buf = SymbolicListBuffer(4)
        buf.enqueue(pkt(0, 2))
        buf.enqueue(pkt(1, 4))
        buf.enqueue(pkt(0, 6))
        assert val(buf.backlog_p("flow", mk_int(0))) == 2
        assert val(buf.backlog_b("flow", mk_int(0))) == 8
        assert val(buf.backlog_p("size", mk_int(4))) == 1

    def test_dequeue_bytes_whole_packets(self):
        buf = SymbolicListBuffer(4)
        buf.enqueue(pkt(0, 3))
        buf.enqueue(pkt(1, 3))
        out = buf.dequeue_bytes(mk_int(5), TRUE)
        taken = [val(p.flow) for p in out if val(p.present)]
        assert taken == [0]
        assert val(buf.backlog_p()) == 1

    def test_guarded_dequeue_noop(self):
        buf = SymbolicListBuffer(2)
        buf.enqueue(pkt(0))
        buf.dequeue_packets(mk_int(1), FALSE)
        assert val(buf.backlog_p()) == 1
        assert val(buf.stats.deq_p) == 0

    @given(st.lists(st.one_of(
        st.tuples(st.just("enq"), st.integers(0, 2), st.integers(1, 3)),
        st.tuples(st.just("deq"), st.integers(0, 3), st.just(1)),
    ), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_random_ops_match_reference(self, ops):
        from repro.buffers.concrete import ListBuffer
        from repro.buffers.packets import Packet

        sym = SymbolicListBuffer(5)
        ref = ListBuffer(capacity=5)
        for op, a, b in ops:
            if op == "enq":
                sym.enqueue(pkt(a, b))
                ref.enqueue(Packet(flow=a, size=b))
            else:
                out = sym.dequeue_packets(mk_int(a), TRUE)
                expected = ref.dequeue_packets(a)
                got = [
                    (val(p.flow), val(p.size)) for p in out if val(p.present)
                ]
                assert got == [(p.flow, p.size) for p in expected]
        assert val(sym.backlog_p()) == ref.backlog_p()
        assert val(sym.stats.deq_p) == ref.stats.dequeued_packets
        assert val(sym.stats.drop_p) == ref.stats.dropped_packets


# ----- bounded models with symbolic structure -------------------------------

CAP = 5
SENTINEL = mk_int(-1)
STAT_BOUND = 20
_STAT_FIELDS = (
    ("enq_p", "enqueued_packets"), ("enq_b", "enqueued_bytes"),
    ("deq_p", "dequeued_packets"), ("deq_b", "dequeued_bytes"),
    ("drop_p", "dropped_packets"), ("drop_b", "dropped_bytes"),
)

#: How a guard or packet presence is built: a fresh variable or a constant.
_GUARD = st.sampled_from(["var", "var", "true", "false"])


class _Vars:
    """Fresh variables for one symbolic run, with the domain of each."""

    def __init__(self):
        self.bounds: dict[str, tuple[int, int]] = {}
        self.bools: list[str] = []

    def guard(self, kind: str, name: str):
        if kind == "true":
            return TRUE
        if kind == "false":
            return FALSE
        self.bools.append(name)
        return mk_bool_var(name)

    def int(self, name: str, lo: int, hi: int):
        self.bounds[name] = (lo, hi)
        return mk_int_var(name)

    def assignment(self, rng: random.Random) -> dict:
        asg: dict = {n: rng.random() < 0.7 for n in self.bools}
        for name, (lo, hi) in self.bounds.items():
            asg[name] = rng.randint(lo, hi)
        return asg


_BUFFER_OPS = st.lists(st.one_of(
    st.tuples(st.just("enq"), _GUARD, st.just(None)),
    st.tuples(st.just("enq"), _GUARD, st.just(None)),
    st.tuples(st.just("deq"), _GUARD, st.one_of(st.none(), st.integers(-1, 6))),
    st.tuples(st.just("deqb"), _GUARD, st.just(None)),
    st.tuples(st.just("havoc"), st.just("true"), st.just(None)),
), max_size=24)


def _check_buffer_slots(buf: SymbolicListBuffer) -> None:
    assert 0 <= buf.hi <= buf.capacity
    for i in range(buf.hi, buf.capacity):
        assert buf.flows[i] is SENTINEL
        assert buf.sizes[i] is ZERO


class TestBoundedListBuffer:
    """``SymbolicListBuffer`` against ``ListBuffer`` on symbolic inputs."""

    @staticmethod
    def _build(ops):
        """Run ``ops`` symbolically; one record of terms per operation."""
        buf = SymbolicListBuffer(CAP)
        fresh = _Vars()
        records = []
        for n, (op, guard_kind, count) in enumerate(ops):
            rec = {"op": op}
            if op == "enq":
                packet = SymbolicPacket(
                    flow=fresh.int(f"e{n}.flow", 0, 2),
                    size=fresh.int(f"e{n}.size", 1, 3),
                    present=fresh.guard(guard_kind, f"e{n}.present"),
                )
                buf.enqueue(packet)
                rec["packet"] = packet
            elif op in ("deq", "deqb"):
                guard = fresh.guard(guard_kind, f"d{n}.guard")
                if op == "deqb":
                    amount = fresh.int(f"d{n}.bytes", -1, 12)
                    rec["out"] = buf.dequeue_bytes(amount, guard)
                else:
                    amount = (fresh.int(f"d{n}.count", -1, 6)
                              if count is None else mk_int(count))
                    rec["out"] = buf.dequeue_packets(amount, guard)
                rec["guard"], rec["amount"] = guard, amount
            else:
                buf.havoc(f"h{n}", flow_range=(-1, 2), size_range=(0, 3),
                          stat_bound=STAT_BOUND, bounds=fresh.bounds)
                rec["flows"], rec["sizes"] = list(buf.flows), list(buf.sizes)
                rec["length"] = buf.length
            _check_buffer_slots(buf)
            rec["hi"], rec["len"] = buf.hi, buf.length
            rec["stats"] = {a: getattr(buf.stats, a) for a, _ in _STAT_FIELDS}
            rec["backlog_b"] = buf.backlog_b()
            rec["by_flow"] = {
                f: (buf.backlog_p("flow", mk_int(f)),
                    buf.backlog_b("flow", mk_int(f)))
                for f in (0, 1)
            }
            records.append(rec)
        return fresh, records

    @staticmethod
    def _replay(records, asg) -> None:
        def ev(term):
            return evaluate(term, asg)

        ref = ListBuffer(capacity=CAP)
        for rec in records:
            op = rec["op"]
            if op == "enq":
                packet = rec["packet"]
                if ev(packet.present):
                    ref.enqueue(Packet(flow=ev(packet.flow), size=ev(packet.size)))
            elif op in ("deq", "deqb"):
                expected = []
                if ev(rec["guard"]):
                    amount = ev(rec["amount"])
                    expected = (ref.dequeue_bytes(amount) if op == "deqb"
                                else ref.dequeue_packets(amount))
                got = [(ev(p.flow), ev(p.size)) for p in rec["out"]
                       if ev(p.present)]
                assert got == [(p.flow, p.size) for p in expected]
            else:
                ref = ListBuffer(capacity=CAP)
                for i in range(ev(rec["length"])):
                    ref.enqueue(Packet(flow=ev(rec["flows"][i]),
                                       size=ev(rec["sizes"][i])))
                ref.stats = BufferStats(**{
                    field: ev(rec["stats"][attr]) for attr, field in _STAT_FIELDS
                })
            length = ev(rec["len"])
            assert length == len(ref)
            assert length <= rec["hi"]
            for attr, field in _STAT_FIELDS:
                assert ev(rec["stats"][attr]) == getattr(ref.stats, field)
            assert ev(rec["backlog_b"]) == ref.backlog_b()
            for flow, (by_p, by_b) in rec["by_flow"].items():
                assert ev(by_p) == ref.backlog_p("flow", flow)
                assert ev(by_b) == ref.backlog_b("flow", flow)

    @given(_BUFFER_OPS, st.integers(0, 2**32))
    @settings(max_examples=80, deadline=None)
    def test_matches_concrete_under_random_assignments(self, ops, seed):
        fresh, records = self._build(ops)
        rng = random.Random(seed)
        for _ in range(8):
            self._replay(records, fresh.assignment(rng))

    def test_overflow_at_capacity_counts_drops(self):
        ops = [("enq", "var", None)] * (CAP + 2)
        fresh, records = self._build(ops)
        assert records[-1]["hi"] == CAP
        asg = {name: True for name in fresh.bools}
        asg.update({name: lo for name, (lo, _) in fresh.bounds.items()})
        self._replay(records, asg)
        assert evaluate(records[-1]["stats"]["drop_p"], asg) == 2

    def test_hi_grows_only_on_possible_arrivals(self):
        buf = SymbolicListBuffer(CAP)
        buf.enqueue(pkt(0, present=False))
        assert buf.hi == 0
        buf.enqueue(SymbolicPacket(mk_int(0), mk_int(1), mk_bool_var("hi.p")))
        assert buf.hi == 1
        buf.dequeue_packets(mk_int(1), TRUE)
        assert buf.hi == 1  # hi bounds length from above; it never shrinks
        bounds: dict = {}
        buf.havoc("hi.h", (-1, 2), (0, 3), STAT_BOUND, bounds)
        assert buf.hi == CAP


_LIST_OPS = st.lists(st.one_of(
    st.tuples(st.just("push"), _GUARD),
    st.tuples(st.just("push"), _GUARD),
    st.tuples(st.just("pop"), _GUARD),
    st.tuples(st.just("havoc"), st.just("true")),
), max_size=24)


class TestBoundedList:
    """``SymbolicList`` against a capped ``deque`` on symbolic inputs."""

    @given(_LIST_OPS, st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_matches_deque_under_random_assignments(self, ops, seed):
        lst = SymbolicList(CAP)
        fresh = _Vars()
        records = []
        for n, (op, guard_kind) in enumerate(ops):
            guard = fresh.guard(guard_kind, f"l{n}.guard")
            rec = {"op": op, "guard": guard}
            if op == "push":
                rec["value"] = fresh.int(f"l{n}.value", 0, 3)
                lst.push_back(rec["value"], guard)
            elif op == "pop":
                rec["result"] = lst.pop_front(guard)
            else:
                lst.havoc(f"l{n}.h", (0, 3), fresh.bounds)
                rec["elems"], rec["length"] = list(lst.elems), lst.length
            assert 0 <= lst.hi <= CAP
            for i in range(lst.hi, CAP):
                assert lst.elems[i] is SENTINEL
            rec["hi"], rec["len"] = lst.hi, lst.length
            rec["overflowed"] = lst.overflowed
            rec["has"] = {v: lst.has(mk_int(v)) for v in range(4)}
            records.append(rec)

        rng = random.Random(seed)
        for _ in range(4):
            asg = fresh.assignment(rng)

            def ev(term):
                return evaluate(term, asg)

            ref: deque = deque()
            overflowed = False
            for rec in records:
                active = ev(rec["guard"])
                if rec["op"] == "push" and active:
                    if len(ref) < CAP:
                        ref.append(ev(rec["value"]))
                    else:
                        overflowed = True
                elif rec["op"] == "pop" and active:
                    expected = ref.popleft() if ref else -1
                    assert ev(rec["result"]) == expected
                elif rec["op"] == "havoc":
                    ref = deque(ev(e) for e in rec["elems"][:ev(rec["length"])])
                    overflowed = False
                length = ev(rec["len"])
                assert length == len(ref)
                assert length <= rec["hi"]
                assert ev(rec["overflowed"]) == overflowed
                for value, hit in rec["has"].items():
                    assert ev(hit) == (value in ref)


# ----- the static bound on a benchmark program -------------------------------


def _link_source() -> str:
    """``LINK_SRC`` from the verdict benchmark's inputs, read statically."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "LINK_SRC" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("LINK_SRC not found in perfbench/inputs.py")


class TestOccupancyBoundStructure:
    """Counts, not timings: pin how far the slot loops reach."""

    def test_link_program_bounds_after_three_steps(self):
        from repro.compiler.symexec import EncodeConfig, SymbolicMachine
        from repro.lang import check_program, parse_program

        checked = check_program(
            parse_program(_link_source(), consts={"LIMIT": 3})
        )
        machine = SymbolicMachine(checked, EncodeConfig(buffer_capacity=8))
        for _ in range(3):
            machine.exec_step()
        ib, ob = machine.buffers["ib"], machine.buffers["ob"]
        assert (ib.capacity, ib.hi, ob.hi) == (8, 6, 3)
        _check_buffer_slots(ib)
        _check_buffer_slots(ob)
        out = ib.dequeue_packets(mk_int(1), mk_bool_var("struct.g"))
        assert len(out) == 1

    def test_one_enqueue_leaves_the_other_slots_untouched(self):
        empty = SymbolicListBuffer(8)
        buf = SymbolicListBuffer(8)
        buf.enqueue(SymbolicPacket(
            mk_int_var("struct.flow"), mk_int_var("struct.size"),
            mk_bool_var("struct.present"),
        ))
        assert buf.hi == 1
        for i in range(1, 8):
            assert buf.flows[i] is empty.flows[i] is SENTINEL
            assert buf.sizes[i] is empty.sizes[i] is ZERO


class TestSymbolicCounterBuffer:
    def test_enqueue_and_backlog(self):
        buf = SymbolicCounterBuffer(3)
        buf.enqueue(pkt(0))
        buf.enqueue(pkt(2))
        buf.enqueue(pkt(2))
        assert val(buf.backlog_p()) == 3
        assert val(buf.backlog_p("flow", mk_int(2))) == 2
        assert val(buf.backlog_b()) == 3  # unit size

    def test_dequeue_lowest_first_bulk(self):
        buf = SymbolicCounterBuffer(3)
        for flow in (2, 0, 2):
            buf.enqueue(pkt(flow))
        out = buf.dequeue_packets(mk_int(2), TRUE)
        transfers = [
            (val(p.flow), val(p.bulk)) for p in out if val(p.present)
        ]
        assert transfers == [(0, 1), (2, 1)]
        assert val(buf.backlog_p()) == 1

    def test_capacity(self):
        buf = SymbolicCounterBuffer(2, capacity=1)
        buf.enqueue(pkt(0))
        buf.enqueue(pkt(1))
        assert val(buf.backlog_p()) == 1
        assert val(buf.stats.drop_p) == 1

    def test_enqueue_bulk_with_room_limit(self):
        buf = SymbolicCounterBuffer(2, capacity=3)
        buf.enqueue_bulk(0, mk_int(5))
        assert val(buf.backlog_p()) == 3
        assert val(buf.stats.drop_p) == 2

    def test_havoc_produces_bounded_vars(self):
        bounds = {}
        buf = SymbolicCounterBuffer(2, capacity=4)
        buf.havoc("hv", stat_bound=16, bounds=bounds)
        assert all(0 <= lo <= hi for lo, hi in bounds.values())
        assert len(bounds) >= 2 + 6  # counts + stats
