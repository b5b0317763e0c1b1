"""Interval (bounds) analysis over the term DAG.

Buffy's language-level restrictions (§7 of the paper: bounded loops,
bounded arrays, bounded buffers) mean every integer in a compiled
program has static bounds.  This module propagates per-variable bounds
bottom-up through a formula so the bit-blaster can pick an exact finite
width for every node — making SAT-based solving *complete* for the
fragment, which is what justifies substituting Z3 with our own stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .sorts import INT
from .terms import (
    OP_ADD, OP_CONST, OP_ITE, OP_MUL, OP_NEG, OP_SUB, OP_VAR, Term, iter_dag,
)


@dataclass(frozen=True)
class Interval:
    """A closed integer interval [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def __contains__(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def width_signed(self) -> int:
        """Bits needed to represent every value in two's complement."""
        return max(signed_bits(self.lo), signed_bits(self.hi))

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        corners = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(corners), max(corners))


def signed_bits(value: int) -> int:
    """Minimal two's-complement width that represents ``value``."""
    w = 1
    while not (-(1 << (w - 1)) <= value <= (1 << (w - 1)) - 1):
        w += 1
    return w


DEFAULT_VAR_INTERVAL = Interval(-(1 << 15), (1 << 15) - 1)


class BoundsEnv:
    """Variable bounds used by the analysis and the bit-blaster.

    Bounds are keyed by variable *name*.  Unknown variables fall back to
    ``default`` (16-bit signed by default) so hand-written encodings work
    without declaring every bound, at the cost of wider bit-vectors.
    """

    def __init__(
        self,
        bounds: Optional[Mapping[str, Interval]] = None,
        default: Interval = DEFAULT_VAR_INTERVAL,
    ):
        self._bounds: dict[str, Interval] = dict(bounds or {})
        self.default = default

    def set(self, name: str, lo: int, hi: int) -> None:
        self._bounds[name] = Interval(lo, hi)

    def get(self, name: str) -> Interval:
        return self._bounds.get(name, self.default)

    def declared(self, name: str) -> bool:
        return name in self._bounds

    def items(self):
        return self._bounds.items()

    def copy(self) -> "BoundsEnv":
        return BoundsEnv(self._bounds, self.default)


def infer_intervals(root: Term, env: BoundsEnv,
                    budget=None) -> dict[Term, Interval]:
    """Map ``node -> Interval`` for every INT node under ``root``.

    ``budget`` (a :class:`repro.runtime.budget.Budget`, duck-typed) is
    polled periodically so inference over huge unrolled DAGs respects a
    wall-clock deadline.
    """
    out: dict[Term, Interval] = {}
    visited = 0
    for node in iter_dag(root):
        visited += 1
        if budget is not None and (visited & 0x1FFF) == 0x1FFF:
            budget.checkpoint("interval inference")
        if node.sort is not INT:
            continue
        out[node] = _node_interval(node, out, env)
    return out


def _node_interval(node: Term, cache: dict[Term, Interval], env: BoundsEnv) -> Interval:
    op = node.op
    if op is OP_CONST:
        v = node.payload
        return Interval(v, v)  # type: ignore[arg-type]
    if op is OP_VAR:
        return env.get(node.payload[0])  # type: ignore[index]
    args = [cache[a] for a in node.args if a.sort is INT]
    if op is OP_ADD:
        acc = args[0]
        for iv in args[1:]:
            acc = acc + iv
        return acc
    if op is OP_SUB:
        return args[0] - args[1]
    if op is OP_NEG:
        return -args[0]
    if op is OP_MUL:
        return args[0] * args[1]
    if op is OP_ITE:
        return args[0].join(args[1])  # ITE's int args are (then, else)
    raise ValueError(f"unexpected INT operator {op}")  # pragma: no cover
