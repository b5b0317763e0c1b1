"""Bit-blasting: terms over bounded integers → CNF.

The pipeline is:

1. interval analysis assigns every integer node an exact interval
   (:mod:`repro.smt.intervals`);
2. an integer node whose interval holds at most :data:`ORDER_MAX_VALUES`
   values gets an *order* encoding ``(lo, [x>=lo+1, ..., x>=hi])``
   (Tamura et al., "Compiling finite linear CSP into SAT"): a constant
   addend and negation relabel literals, sums are totalizers (Bailleux
   & Boufkhad), ITE works per position and a comparison is one AND of
   per-position literals;
3. every other integer node becomes a two's-complement bit-vector whose
   width is the interval's signed width — so arithmetic never overflows
   and the encoding is *exact*; channels convert between the two forms
   where an order-encoded node meets a binary one;
4. boolean structure is translated with Tseitin gates, with structural
   hashing so shared subformulas share circuitry;
5. integer variables get range side-constraints (``lo <= x <= hi``),
   implicit in the order encoding.

The result is a :class:`repro.smt.cnf.CNF` plus a :class:`VarMap` for
decoding SAT models back into integer/boolean assignments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

from ..obs import TRACER
from .cnf import CNF
from .intervals import BoundsEnv, Interval, infer_intervals
from .sorts import BOOL, INT
from .terms import (
    OP_ADD, OP_AND, OP_CONST, OP_EQ, OP_IMPLIES, OP_ITE, OP_LE, OP_LT, OP_MUL,
    OP_NEG, OP_NOT, OP_OR, OP_SUB, OP_VAR, OP_XOR, Term, iter_dag,
)

if TYPE_CHECKING:  # Budget stays duck-typed to avoid an import cycle
    from ..runtime.budget import Budget

#: An integer node whose interval holds at most this many values is
#: order-encoded; wider nodes stay two's-complement.
ORDER_MAX_VALUES = 16

#: An order representation ``(lo, lits)``: ``lits[i]`` is ``x >= lo+1+i``,
#: so the node's value is ``lo`` plus the number of true literals.
OrderRep = tuple[int, list[int]]


@dataclass
class VarMap:
    """Decoder from SAT models to term-level assignments."""

    bool_vars: dict[str, int] = field(default_factory=dict)  # name -> literal
    int_vars: dict[str, list[int]] = field(default_factory=dict)  # name -> LSB-first lits
    order_vars: dict[str, OrderRep] = field(default_factory=dict)  # name -> (lo, lits)

    def encodes_int(self, name: str) -> bool:
        """Whether the integer variable ``name`` is encoded (either form)."""
        return name in self.int_vars or name in self.order_vars

    def decode(self, model: Sequence[bool]) -> dict[str, Union[bool, int]]:
        """Decode a SAT model (1-indexed bool list) into var assignments."""
        out: dict[str, Union[bool, int]] = {}
        for name, lit in self.bool_vars.items():
            out[name] = _lit_value(model, lit)
        for name, bits in self.int_vars.items():
            out[name] = decode_twos_complement(
                [_lit_value(model, b) for b in bits]
            )
        for name, (lo, lits) in self.order_vars.items():
            out[name] = lo + sum(_lit_value(model, l) for l in lits)
        return out


def _lit_value(model: Sequence[bool], lit: int) -> bool:
    return model[lit] if lit > 0 else not model[-lit]


def decode_twos_complement(bits: Sequence[bool]) -> int:
    """Interpret an LSB-first bit list as a signed integer."""
    value = 0
    for i, b in enumerate(bits[:-1]):
        if b:
            value |= 1 << i
    if bits[-1]:
        value -= 1 << (len(bits) - 1)
    return value


class BitBlaster:
    """Translates hash-consed terms into CNF with Tseitin gates."""

    def __init__(self, cnf: Optional[CNF] = None, bounds: Optional[BoundsEnv] = None,
                 budget: Optional["Budget"] = None):
        self.cnf = cnf or CNF()
        self.bounds = bounds or BoundsEnv()
        self.budget = budget
        self.varmap = VarMap()
        # The constant-true literal: lets constant bits be plain literals.
        self._true = self.cnf.new_var()
        self.cnf.add_clause([self._true])
        self._bool_cache: dict[Term, int] = {}  # term -> literal
        self._bits_cache: dict[Term, list[int]] = {}  # term -> LSB-first lits
        self._order_cache: dict[Term, OrderRep] = {}
        self._gate_cache: dict[tuple, int] = {}
        self._intervals: dict[Term, Interval] = {}
        self._lits_since_check = 0
        # Observability: order-encoded nodes and the clauses the channels
        # between the two integer forms emitted, over this blaster's life.
        self.order_nodes = 0
        self.channel_clauses = 0

    # ----- public API -------------------------------------------------------

    @property
    def true_lit(self) -> int:
        return self._true

    @property
    def false_lit(self) -> int:
        return -self._true

    def assert_formula(self, formula: Term) -> None:
        """Bit-blast ``formula`` and assert it as a unit clause."""
        if formula.sort is not BOOL:
            raise TypeError("can only assert Bool terms")
        with TRACER.span("interval-inference"):
            self._intervals.update(
                infer_intervals(formula, self.bounds, budget=self.budget)
            )
        # The Tseitin span covers the whole gate-clause encoding; the
        # per-gate inner loop stays span-free (it is the hot path).
        with TRACER.span("tseitin") as sp:
            clauses_before = len(self.cnf.clauses)
            order_before = self.order_nodes
            channel_before = self.channel_clauses
            lit = self._blast_bool(formula)
            self.cnf.add_clause([lit])
            sp.set("clauses", len(self.cnf.clauses) - clauses_before)
            sp.set("order_nodes", self.order_nodes - order_before)
            sp.set("channel_clauses", self.channel_clauses - channel_before)

    def literal_for(self, formula: Term) -> int:
        """Bit-blast ``formula`` and return its literal without asserting it."""
        if formula.sort is not BOOL:
            raise TypeError("expected a Bool term")
        self._intervals.update(infer_intervals(formula, self.bounds))
        return self._blast_bool(formula)

    # ----- gate constructors --------------------------------------------------

    def _new_lit(self) -> int:
        # Safepoint: gate construction is where encoding time goes, so a
        # deadline is honored within a few thousand gates.
        self._lits_since_check += 1
        if self.budget is not None and self._lits_since_check >= 2048:
            self._lits_since_check = 0
            self.budget.checkpoint("bit-blasting")
        return self.cnf.new_var()

    def _gate_and(self, lits: Sequence[int]) -> int:
        true = self._true
        inputs = set(lits)
        inputs.discard(true)
        if -true in inputs:
            return -true
        for l in inputs:
            if -l in inputs:
                return -true
        if not inputs:
            return true
        uniq = sorted(inputs, key=abs)
        if len(uniq) == 1:
            return uniq[0]
        key = ("and", *uniq)
        cached = self._gate_cache.get(key)
        if cached is not None:
            return cached
        g = self._new_lit()
        # Distinct, non-complementary inputs and a fresh g: every clause
        # is already what CNF.add_clause would store, so append directly.
        clauses = self.cnf.clauses
        for l in uniq:
            clauses.append([-g, l])
        clauses.append([g, *[-l for l in uniq]])
        self._gate_cache[key] = g
        return g

    def _gate_or(self, lits: Sequence[int]) -> int:
        return -self._gate_and([-l for l in lits])

    def _gate_xor(self, a: int, b: int) -> int:
        if a == self._true:
            return -b
        if a == -self._true:
            return b
        if b == self._true:
            return -a
        if b == -self._true:
            return a
        if a == b:
            return -self._true
        if a == -b:
            return self._true
        # xor(-a, b) == -xor(a, b): normalize both literals to positive
        # polarity and track whether the result must be negated.
        negate = False
        if a < 0:
            a = -a
            negate = not negate
        if b < 0:
            b = -b
            negate = not negate
        norm_a, norm_b = (a, b) if a < b else (b, a)
        key = ("xor", norm_a, norm_b)
        cached = self._gate_cache.get(key)
        if cached is None:
            g = self._new_lit()
            # Two distinct positive inputs and a fresh g: no clause has a
            # duplicate or complementary literal, so append directly.
            self.cnf.clauses.extend((
                [-g, norm_a, norm_b],
                [-g, -norm_a, -norm_b],
                [g, -norm_a, norm_b],
                [g, norm_a, -norm_b],
            ))
            self._gate_cache[key] = g
            cached = g
        return -cached if negate else cached

    def _gate_iff(self, a: int, b: int) -> int:
        return -self._gate_xor(a, b)

    def _gate_ite(self, c: int, t: int, e: int) -> int:
        if c == self._true:
            return t
        if c == -self._true:
            return e
        if t == e:
            return t
        if t == self._true:
            return self._gate_or([c, e])
        if t == -self._true:
            return self._gate_and([-c, e])
        if e == self._true:
            return self._gate_or([-c, t])
        if e == -self._true:
            return self._gate_and([c, t])
        key = ("ite", c, t, e)
        cached = self._gate_cache.get(key)
        if cached is not None:
            return cached
        g = self._new_lit()
        ite = (
            [-g, -c, t],
            [-g, c, e],
            [g, -c, -t],
            [g, c, -e],
            # Redundant but propagation-helpful clauses:
            [-g, t, e],
            [g, -t, -e],
        )
        if t != -e and c != t and c != -t and c != e and c != -e:
            # c, t and e are over three distinct variables (t != e holds
            # above): no clause holds a duplicate or a tautology.
            self.cnf.clauses.extend(ite)
        else:
            self.cnf.add_clauses(ite)
        self._gate_cache[key] = g
        return g

    def _full_adder(self, a: int, b: int, cin: int) -> tuple[int, int]:
        """Returns (sum, carry-out)."""
        s1 = self._gate_xor(a, b)
        total = self._gate_xor(s1, cin)
        c1 = self._gate_and([a, b])
        c2 = self._gate_and([s1, cin])
        cout = self._gate_or([c1, c2])
        return total, cout

    # ----- integer vectors -------------------------------------------------------

    def _const_bits(self, value: int, width: int) -> list[int]:
        bits = []
        v = value & ((1 << width) - 1)
        for i in range(width):
            bits.append(self._true if (v >> i) & 1 else -self._true)
        return bits

    def _sign_extend(self, bits: list[int], width: int) -> list[int]:
        if len(bits) >= width:
            return bits[:width]
        return bits + [bits[-1]] * (width - len(bits))

    def _interval_of(self, node: Term) -> Interval:
        iv = self._intervals.get(node)
        if iv is None:  # node reached outside assert_formula (defensive)
            self._intervals.update(infer_intervals(node, self.bounds))
            iv = self._intervals[node]
        return iv

    def _width_of(self, node: Term) -> int:
        return self._interval_of(node).width_signed()

    def _int_var_bits(self, node: Term) -> list[int]:
        name = node.payload[0]  # type: ignore[index]
        existing = self.varmap.int_vars.get(name)
        if existing is not None:
            return existing
        iv = self._interval_of(node)
        width = iv.width_signed()
        bits = [self._new_lit() for _ in range(width)]
        self.varmap.int_vars[name] = bits
        # Range side constraints (skip when the width is already exact).
        lo_bits = self._const_bits(iv.lo, width)
        hi_bits = self._const_bits(iv.hi, width)
        if iv.lo != -(1 << (width - 1)):
            self.cnf.add_clause([self._signed_le(lo_bits, bits)])
        if iv.hi != (1 << (width - 1)) - 1:
            self.cnf.add_clause([self._signed_le(bits, hi_bits)])
        return bits

    def _add_vectors(self, a: list[int], b: list[int], width: int, cin: int) -> list[int]:
        a = self._sign_extend(a, width)
        b = self._sign_extend(b, width)
        out = []
        carry = cin
        for i in range(width):
            s, carry = self._full_adder(a[i], b[i], carry)
            out.append(s)
        return out

    def _neg_vector(self, a: list[int], width: int) -> list[int]:
        inv = [-x for x in self._sign_extend(a, width)]
        return self._add_vectors(inv, self._const_bits(0, width), width, self._true)

    def _mul_vectors(self, a: list[int], b: list[int], width: int) -> list[int]:
        a = self._sign_extend(a, width)
        b = self._sign_extend(b, width)
        acc = self._const_bits(0, width)
        for i in range(width):
            row = [-self._true] * i
            for j in range(width - i):
                row.append(self._gate_and([b[i], a[j]]))
            acc = self._add_vectors(acc, row, width, -self._true)
        return acc

    def _signed_lt(self, a: list[int], b: list[int]) -> int:
        width = max(len(a), len(b))
        a = self._sign_extend(a, width)
        b = self._sign_extend(b, width)
        sa, sb = a[-1], b[-1]
        # lt on magnitudes, MSB-first among bits below the sign bit.
        lt = -self._true
        for i in range(width - 1):
            bit_lt = self._gate_and([-a[i], b[i]])
            bit_eq = self._gate_iff(a[i], b[i])
            lt = self._gate_or([bit_lt, self._gate_and([bit_eq, lt])])
        same_sign = self._gate_iff(sa, sb)
        return self._gate_or(
            [
                self._gate_and([sa, -sb]),  # a negative, b non-negative
                self._gate_and([same_sign, lt]),
            ]
        )

    def _signed_le(self, a: list[int], b: list[int]) -> int:
        return -self._signed_lt(b, a)

    def _vectors_eq(self, a: list[int], b: list[int]) -> int:
        width = max(len(a), len(b))
        a = self._sign_extend(a, width)
        b = self._sign_extend(b, width)
        return self._gate_and([self._gate_iff(x, y) for x, y in zip(a, b)])

    # ----- recursive translation ----------------------------------------------------

    def _blast_bool(self, node: Term) -> int:
        cached = self._bool_cache.get(node)
        if cached is not None:
            return cached
        lit = self._compute_bool(node)
        self._bool_cache[node] = lit
        return lit

    def _compute_bool(self, node: Term) -> int:
        op = node.op
        if op is OP_CONST:
            return self._true if node.payload else -self._true
        if op is OP_VAR:
            name = node.payload[0]  # type: ignore[index]
            existing = self.varmap.bool_vars.get(name)
            if existing is not None:
                return existing
            lit = self._new_lit()
            self.varmap.bool_vars[name] = lit
            return lit
        if op is OP_NOT:
            return -self._blast_bool(node.args[0])
        if op is OP_AND:
            return self._gate_and([self._blast_bool(a) for a in node.args])
        if op is OP_OR:
            return self._gate_or([self._blast_bool(a) for a in node.args])
        if op is OP_XOR:
            return self._gate_xor(
                self._blast_bool(node.args[0]), self._blast_bool(node.args[1])
            )
        if op is OP_IMPLIES:
            return self._gate_or(
                [-self._blast_bool(node.args[0]), self._blast_bool(node.args[1])]
            )
        if op is OP_EQ:
            a, b = node.args
            if a.sort is BOOL:
                return self._gate_iff(self._blast_bool(a), self._blast_bool(b))
            if self._is_order(a) and self._is_order(b):
                ra, rb = self._blast_order(a), self._blast_order(b)
                return self._gate_and(
                    self._order_le(ra, rb) + self._order_le(rb, ra))
            return self._vectors_eq(self._blast_int(a), self._blast_int(b))
        if op is OP_LT or op is OP_LE:
            a, b = node.args
            if self._is_order(a) and self._is_order(b):
                lo, lits = self._blast_order(a)
                if op is OP_LT:  # a < b iff a + 1 <= b
                    lo += 1
                return self._gate_and(
                    self._order_le((lo, lits), self._blast_order(b)))
            if op is OP_LT:
                return self._signed_lt(self._blast_int(a), self._blast_int(b))
            return self._signed_le(self._blast_int(a), self._blast_int(b))
        raise ValueError(f"unexpected Bool operator {op}")  # pragma: no cover

    def _blast_int(self, node: Term) -> list[int]:
        cached = self._bits_cache.get(node)
        if cached is not None:
            return cached
        if node.op is not OP_CONST and self._is_order(node):
            bits = self._order_to_bits(node)
        else:
            bits = self._compute_int(node)
        self._bits_cache[node] = bits
        return bits

    def _compute_int(self, node: Term) -> list[int]:
        op = node.op
        width = self._width_of(node)
        if op is OP_CONST:
            return self._const_bits(node.payload, width)  # type: ignore[arg-type]
        if op is OP_VAR:
            return self._int_var_bits(node)
        if op is OP_ADD:
            acc = self._blast_int(node.args[0])
            for arg in node.args[1:]:
                acc = self._add_vectors(acc, self._blast_int(arg), width, -self._true)
            return self._sign_extend(acc, width)
        if op is OP_SUB:
            a = self._sign_extend(self._blast_int(node.args[0]), width)
            b = self._sign_extend(self._blast_int(node.args[1]), width)
            return self._add_vectors(a, [-x for x in b], width, self._true)
        if op is OP_NEG:
            return self._neg_vector(self._blast_int(node.args[0]), width)
        if op is OP_MUL:
            return self._mul_vectors(
                self._blast_int(node.args[0]), self._blast_int(node.args[1]), width
            )
        if op is OP_ITE:
            cond = self._blast_bool(node.args[0])
            t = self._sign_extend(self._blast_int(node.args[1]), width)
            e = self._sign_extend(self._blast_int(node.args[2]), width)
            return [self._gate_ite(cond, x, y) for x, y in zip(t, e)]
        raise ValueError(f"unexpected Int operator {op}")  # pragma: no cover

    # ----- order encoding ---------------------------------------------------------

    def _is_order(self, node: Term) -> bool:
        """Whether ``node``'s own encoding is the order one.

        A node of a small interval is, unless it is a product: that stays
        a binary multiplier, channeled into order form where a small
        parent needs it.
        """
        iv = self._interval_of(node)
        return iv.hi - iv.lo < ORDER_MAX_VALUES and node.op is not OP_MUL

    def _ge(self, rep: OrderRep, k: int) -> int:
        """The literal ``x >= k`` of an order representation."""
        lo, lits = rep
        if k <= lo:
            return self._true
        if k > lo + len(lits):
            return -self._true
        return lits[k - lo - 1]

    def _blast_order(self, node: Term) -> OrderRep:
        """The order representation of a node of a small interval."""
        cached = self._order_cache.get(node)
        if cached is not None:
            return cached
        if self._is_order(node):
            rep = self._compute_order(node)
            if node.op is not OP_CONST:
                self.order_nodes += 1
        else:
            rep = self._bits_to_order(node)
        self._order_cache[node] = rep
        return rep

    def _compute_order(self, node: Term) -> OrderRep:
        op = node.op
        if op is OP_CONST:
            return node.payload, []  # type: ignore[return-value]
        if op is OP_VAR:
            iv = self._interval_of(node)
            lits = [self._new_lit() for _ in range(iv.hi - iv.lo)]
            # x >= k+1 implies x >= k: fresh, distinct literals.
            self.cnf.clauses.extend(
                [[lits[i], -lits[i + 1]] for i in range(len(lits) - 1)])
            rep = (iv.lo, lits)
            self.varmap.order_vars[node.payload[0]] = rep  # type: ignore[index]
            return rep
        if op is OP_ADD:
            return self._order_sum([self._blast_order(a) for a in node.args])
        if op is OP_SUB:
            a = self._blast_order(node.args[0])
            b = self._blast_order(node.args[1])
            return self._order_sum([a, _order_neg(b)])
        if op is OP_NEG:
            return _order_neg(self._blast_order(node.args[0]))
        if op is OP_ITE:
            cond = self._blast_bool(node.args[0])
            t = self._blast_order(node.args[1])
            e = self._blast_order(node.args[2])
            iv = self._interval_of(node)
            return iv.lo, [self._gate_ite(cond, self._ge(t, k), self._ge(e, k))
                           for k in range(iv.lo + 1, iv.hi + 1)]
        raise ValueError(f"unexpected Int operator {op}")  # pragma: no cover

    def _order_sum(self, reps: list[OrderRep]) -> OrderRep:
        """Sum of order representations: constants shift, the rest are
        merged pairwise by totalizers."""
        shift = 0
        parts = []
        for rep in reps:
            if rep[1]:
                parts.append(rep)
            else:
                shift += rep[0]
        if not parts:
            return shift, []
        while len(parts) > 1:
            merged = [self._totalizer(parts[i], parts[i + 1])
                      for i in range(0, len(parts) - 1, 2)]
            if len(parts) % 2:
                merged.append(parts[-1])
            parts = merged
        lo, lits = parts[0]
        return lo + shift, lits

    def _totalizer(self, a: OrderRep, b: OrderRep) -> OrderRep:
        """``r = a + b`` with clauses in both directions, so every ``r >= k``
        is forced both ways by the inputs' literals."""
        true = self._true
        ge_a = [true, *a[1], -true]  # ge_a[i] is a >= lo_a + i
        ge_b = [true, *b[1], -true]
        na, nb = len(a[1]), len(b[1])
        lits = [self._new_lit() for _ in range(na + nb)]
        ge_r = [true, *lits, -true]
        clauses = []
        for i in range(na + 1):
            for j in range(nb + 1):
                if i + j:  # a >= lo_a+i and b >= lo_b+j imply r >= lo_r+i+j
                    up = [ge_r[i + j]]
                    if i:
                        up.append(-ge_a[i])
                    if j:
                        up.append(-ge_b[j])
                    clauses.append(up)
                if i + j < na + nb:  # a <= lo_a+i and b <= lo_b+j imply r <= lo_r+i+j
                    down = [-ge_r[i + j + 1]]
                    if i < na:
                        down.append(ge_a[i + 1])
                    if j < nb:
                        down.append(ge_b[j + 1])
                    clauses.append(down)
        vars_a = {abs(l) for l in a[1]}
        vars_b = {abs(l) for l in b[1]}
        if vars_a.isdisjoint(vars_b) and true not in vars_a and true not in vars_b:
            # One literal per input and a fresh output: well-formed.
            self.cnf.clauses.extend(clauses)
        else:  # shared or constant inputs (x + x, a channeled product)
            self.cnf.add_clauses(clauses)
        return a[0] + b[0], lits

    def _order_le(self, a: OrderRep, b: OrderRep) -> list[int]:
        """Literals whose conjunction is ``a <= b``: ``a >= k`` implies
        ``b >= k`` for every ``k`` from the first where ``b >= k`` can
        fail; beyond ``b``'s top the first such ``k`` implies the rest."""
        lo = max(a[0], b[0] + 1)
        hi = min(a[0] + len(a[1]), max(b[0] + len(b[1]) + 1, lo))
        return [self._gate_or([-self._ge(a, k), self._ge(b, k)])
                for k in range(lo, hi + 1)]

    def _order_to_bits(self, node: Term) -> list[int]:
        """Order → binary channel: bit ``p`` is the OR of the run gates
        ``x >= s and not x >= e+1`` over the runs ``[s, e]`` of values
        whose two's-complement bit ``p`` is set."""
        rep = self._blast_order(node)
        lo, hi = rep[0], rep[0] + len(rep[1])
        before = len(self.cnf.clauses)
        bits = []
        for p in range(self._width_of(node)):
            runs = []
            v = lo
            while v <= hi:
                if (v >> p) & 1:
                    start = v
                    while v <= hi and (v >> p) & 1:
                        v += 1
                    runs.append(self._gate_and([self._ge(rep, start),
                                                -self._ge(rep, v)]))
                else:
                    v += 1
            bits.append(self._gate_or(runs))
        self.channel_clauses += len(self.cnf.clauses) - before
        return bits

    def _bits_to_order(self, node: Term) -> OrderRep:
        """Binary → order channel, for a binary-encoded node of a small
        interval: ``x >= k`` is a comparison with the constant ``k``."""
        bits = self._blast_int(node)
        iv = self._interval_of(node)
        before = len(self.cnf.clauses)
        lits = [self._signed_le(self._const_bits(k, len(bits)), bits)
                for k in range(iv.lo + 1, iv.hi + 1)]
        self.channel_clauses += len(self.cnf.clauses) - before
        return iv.lo, lits


def _order_neg(rep: OrderRep) -> OrderRep:
    """``-x``: ``-x >= -hi+1+j`` iff not ``x >= hi-j``, a relabeling."""
    lo, lits = rep
    return -(lo + len(lits)), [-l for l in reversed(lits)]


def bitblast(
    formulas: Sequence[Term], bounds: Optional[BoundsEnv] = None
) -> tuple[CNF, VarMap]:
    """Bit-blast a conjunction of formulas; returns (CNF, decoder)."""
    blaster = BitBlaster(bounds=bounds)
    for f in formulas:
        blaster.assert_formula(f)
    return blaster.cnf, blaster.varmap
