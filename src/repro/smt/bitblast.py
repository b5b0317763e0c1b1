"""Bit-blasting: terms over bounded integers → CNF.

The pipeline is:

1. interval analysis assigns every integer node an exact interval
   (:mod:`repro.smt.intervals`);
2. every integer node becomes a two's-complement bit-vector whose width
   is the interval's signed width — so arithmetic never overflows and
   the encoding is *exact*;
3. boolean structure is translated with Tseitin gates, with structural
   hashing so shared subformulas share circuitry;
4. integer variables get range side-constraints (``lo <= x <= hi``).

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
from .terms import Op, Term, iter_dag

if TYPE_CHECKING:  # Budget stays duck-typed to avoid an import cycle
    from ..runtime.budget import Budget


@dataclass
class VarMap:
    """Decoder from SAT models to term-level assignments."""

    bool_vars: dict[str, int] = field(default_factory=dict)  # name -> literal
    int_vars: dict[str, list[int]] = field(default_factory=dict)  # name -> LSB-first lits

    def decode(self, model: Sequence[bool]) -> dict[str, Union[bool, int]]:
        """Decode a SAT model (1-indexed bool list) into var assignments."""
        out: dict[str, Union[bool, int]] = {}
        for name, lit in self.bool_vars.items():
            out[name] = _lit_value(model, lit)
        for name, bits in self.int_vars.items():
            out[name] = decode_twos_complement(
                [_lit_value(model, b) for b in bits]
            )
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
        self._gate_cache: dict[tuple, int] = {}
        self._intervals: dict[Term, Interval] = {}
        self._lits_since_check = 0

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
            lit = self._blast_bool(formula)
            self.cnf.add_clause([lit])
            sp.set("clauses", len(self.cnf.clauses) - clauses_before)

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
        name = node.name
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
        if op is Op.CONST:
            return self._true if node.value else -self._true
        if op is Op.VAR:
            name = node.name
            existing = self.varmap.bool_vars.get(name)
            if existing is not None:
                return existing
            lit = self._new_lit()
            self.varmap.bool_vars[name] = lit
            return lit
        if op is Op.NOT:
            return -self._blast_bool(node.args[0])
        if op is Op.AND:
            return self._gate_and([self._blast_bool(a) for a in node.args])
        if op is Op.OR:
            return self._gate_or([self._blast_bool(a) for a in node.args])
        if op is Op.XOR:
            return self._gate_xor(
                self._blast_bool(node.args[0]), self._blast_bool(node.args[1])
            )
        if op is Op.IMPLIES:
            return self._gate_or(
                [-self._blast_bool(node.args[0]), self._blast_bool(node.args[1])]
            )
        if op is Op.EQ:
            a, b = node.args
            if a.sort is BOOL:
                return self._gate_iff(self._blast_bool(a), self._blast_bool(b))
            return self._vectors_eq(self._blast_int(a), self._blast_int(b))
        if op is Op.LT:
            return self._signed_lt(
                self._blast_int(node.args[0]), self._blast_int(node.args[1])
            )
        if op is Op.LE:
            return self._signed_le(
                self._blast_int(node.args[0]), self._blast_int(node.args[1])
            )
        raise ValueError(f"unexpected Bool operator {op}")  # pragma: no cover

    def _blast_int(self, node: Term) -> list[int]:
        cached = self._bits_cache.get(node)
        if cached is not None:
            return cached
        bits = self._compute_int(node)
        self._bits_cache[node] = bits
        return bits

    def _compute_int(self, node: Term) -> list[int]:
        op = node.op
        width = self._width_of(node)
        if op is Op.CONST:
            return self._const_bits(node.value, width)  # type: ignore[arg-type]
        if op is Op.VAR:
            return self._int_var_bits(node)
        if op is Op.ADD:
            acc = self._blast_int(node.args[0])
            for arg in node.args[1:]:
                acc = self._add_vectors(acc, self._blast_int(arg), width, -self._true)
            return self._sign_extend(acc, width)
        if op is Op.SUB:
            a = self._sign_extend(self._blast_int(node.args[0]), width)
            b = self._sign_extend(self._blast_int(node.args[1]), width)
            return self._add_vectors(a, [-x for x in b], width, self._true)
        if op is Op.NEG:
            return self._neg_vector(self._blast_int(node.args[0]), width)
        if op is Op.MUL:
            return self._mul_vectors(
                self._blast_int(node.args[0]), self._blast_int(node.args[1]), width
            )
        if op is Op.ITE:
            cond = self._blast_bool(node.args[0])
            t = self._sign_extend(self._blast_int(node.args[1]), width)
            e = self._sign_extend(self._blast_int(node.args[2]), width)
            return [self._gate_ite(cond, x, y) for x, y in zip(t, e)]
        raise ValueError(f"unexpected Int operator {op}")  # pragma: no cover


def bitblast(
    formulas: Sequence[Term], bounds: Optional[BoundsEnv] = None
) -> tuple[CNF, VarMap]:
    """Bit-blast a conjunction of formulas; returns (CNF, decoder)."""
    blaster = BitBlaster(bounds=bounds)
    for f in formulas:
        blaster.assert_formula(f)
    return blaster.cnf, blaster.varmap
