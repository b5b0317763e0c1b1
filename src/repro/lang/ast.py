"""Abstract syntax for the Buffy language (Figure 3 of the paper).

A Buffy *program* describes how packets move between buffers in one
"time step".  It combines a conventional imperative core (variables,
assignments, conditionals, bounded loops) with buffer-centric
constructs:

* ``backlog-p(B)`` / ``backlog-b(B)`` — packets/bytes in a buffer,
* ``B |> f == n`` — filter a buffer by a packet-field predicate,
* ``move-p(src, dst, E)`` / ``move-b(src, dst, E)`` — move packets/bytes,
* bounded lists with ``push_back`` / ``pop_front`` / ``has`` / ``empty``.

On top of the figure's grammar the implementation carries the features
§3–§6 describe in prose: ``global`` / ``local`` / ``monitor`` (ghost)
declarations, ``assume`` / ``assert``, ``havoc`` (symbolic inputs),
procedures with optional ``requires`` / ``ensures`` contracts, and loop
``invariant`` annotations for the Dafny-style back end.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

from .types import BOOL_T, BUFFER_T, INT_T, ArrayType, BufferType, ListType, Type

Pos = Tuple[int, int]  # (line, column), 1-based


class BuffyError(Exception):
    """Base class for user-facing language errors."""

    def __init__(self, message: str, pos: Optional[Pos] = None):
        self.pos = pos
        prefix = f"{pos[0]}:{pos[1]}: " if pos else ""
        super().__init__(prefix + message)


# =============================================================================
# Expressions
# =============================================================================


@dataclass(frozen=True)
class Expr:
    """Base class for expressions.  ``pos`` is for diagnostics only."""

    pos: Optional[Pos] = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True)
class Var(Expr):
    """A reference to any named entity (scalar, list, buffer, array)."""

    name: str


@dataclass(frozen=True)
class Index(Expr):
    """Array indexing: ``ibs[i]``, ``cdeq[head]``."""

    base: Expr
    index: Expr


class BinOpKind(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "=="
    NE = "!="
    AND = "&"
    OR = "|"
    IMPLIES = "==>"


class UnOpKind(enum.Enum):
    NOT = "!"
    NEG = "-"


# The operator kinds as module globals, for hot code: on Python 3.11
# every ``BinOpKind.X`` load goes through ``enum.EnumType.__getattr__``
# (~120 ns, against ~9 ns for a global).
BINOP_ADD = BinOpKind.ADD
BINOP_SUB = BinOpKind.SUB
BINOP_MUL = BinOpKind.MUL
BINOP_LT = BinOpKind.LT
BINOP_LE = BinOpKind.LE
BINOP_GT = BinOpKind.GT
BINOP_GE = BinOpKind.GE
BINOP_EQ = BinOpKind.EQ
BINOP_NE = BinOpKind.NE
BINOP_AND = BinOpKind.AND
BINOP_OR = BinOpKind.OR
BINOP_IMPLIES = BinOpKind.IMPLIES
UNOP_NOT = UnOpKind.NOT


@dataclass(frozen=True)
class BinOp(Expr):
    kind: BinOpKind
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnOp(Expr):
    kind: UnOpKind
    operand: Expr


@dataclass(frozen=True)
class Backlog(Expr):
    """``backlog-p(B)`` (packets) or ``backlog-b(B)`` (bytes)."""

    buffer: Expr
    in_bytes: bool = False


@dataclass(frozen=True)
class FilterExpr(Expr):
    """``B |> field == value`` — the sub-buffer passing the filter."""

    buffer: Expr
    fieldname: str
    value: Expr


@dataclass(frozen=True)
class ListHas(Expr):
    """``l.has(E)``."""

    target: Expr
    item: Expr


@dataclass(frozen=True)
class ListEmpty(Expr):
    """``l.empty()``."""

    target: Expr


@dataclass(frozen=True)
class ListLen(Expr):
    """``l.len()`` — number of elements (extension used by monitors)."""

    target: Expr


# =============================================================================
# Commands
# =============================================================================


@dataclass(frozen=True)
class Cmd:
    pos: Optional[Pos] = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class Skip(Cmd):
    pass


@dataclass(frozen=True)
class Seq(Cmd):
    commands: Tuple[Cmd, ...]

    @staticmethod
    def of(*commands: Cmd) -> "Seq":
        return Seq(tuple(commands))


@dataclass(frozen=True)
class Assign(Cmd):
    """``x = E`` or ``a[i] = E``."""

    target: Expr  # Var or Index
    value: Expr


@dataclass(frozen=True)
class If(Cmd):
    cond: Expr
    then: Cmd
    els: Cmd = field(default_factory=Skip)


@dataclass(frozen=True)
class For(Cmd):
    """``for (i in lo..hi) do { body }`` — half-open, constant bounds.

    Bounds may reference program constants; the checker verifies they
    resolve to compile-time integers (§7: bounded loops only).
    ``invariants`` feed the Dafny-style back end.
    """

    var: str
    lo: Expr
    hi: Expr
    body: Cmd
    invariants: Tuple[Expr, ...] = ()


@dataclass(frozen=True)
class Move(Cmd):
    """``move-p(src, dst, E)`` / ``move-b(src, dst, E)``.

    Moves ``min(E, backlog(src))`` packets (or bytes) from the head of
    ``src`` to the tail of ``dst``; arrivals beyond ``dst``'s capacity
    are dropped (and counted in the destination's drop statistic).
    """

    src: Expr
    dst: Expr
    amount: Expr
    in_bytes: bool = False


@dataclass(frozen=True)
class PushBack(Cmd):
    """``l.push_back(E)`` (alias ``l.enq(E)``)."""

    target: Expr
    value: Expr


@dataclass(frozen=True)
class PopFront(Cmd):
    """``x = l.pop_front()``.

    Popping an empty list yields the sentinel ``-1`` and leaves the
    list unchanged (total semantics; see DESIGN.md).
    """

    var: Expr  # Var or Index, int-typed
    target: Expr


@dataclass(frozen=True)
class Assert(Cmd):
    """``assert(E)`` — a query/property check (§3, "Assumptions and queries")."""

    cond: Expr
    label: Optional[str] = None


@dataclass(frozen=True)
class Assume(Cmd):
    """``assume(E)`` — restricts the traces considered by the back ends."""

    cond: Expr


@dataclass(frozen=True)
class Havoc(Cmd):
    """``havoc x`` — give ``x`` a non-deterministic (symbolic) value.

    With optional bounds: ``havoc x in lo..hi`` (inclusive lo, exclusive
    hi), the "structured havoc" transformation of §6.1.
    """

    target: Expr  # Var or Index, int- or bool-typed
    lo: Optional[Expr] = None
    hi: Optional[Expr] = None


@dataclass(frozen=True)
class Call(Cmd):
    """Procedure call: ``name(arg, ...)``.

    Buffers, lists and arrays are passed by reference; ints and bools
    by value.  The SMT back end inlines calls; the Dafny back end can
    instead use the callee's contract (§5, modular analysis).
    """

    name: str
    args: Tuple[Expr, ...]


class VarKind(enum.Enum):
    """Declaration kinds (Figure 4 uses global/local; monitors are §3)."""

    GLOBAL = "global"   # persists across time steps
    LOCAL = "local"     # scoped to a single time step
    MONITOR = "monitor" # ghost: persists, cannot influence behaviour
    CONST = "const"     # compile-time constant
    PARAM_IN = "in"     # input buffer parameter
    PARAM_OUT = "out"   # output (write-only) buffer parameter


@dataclass(frozen=True)
class Decl(Cmd):
    """A declaration, also usable as a command for local decls."""

    name: str
    type: Type
    kind: VarKind
    init: Optional[Expr] = None


# =============================================================================
# Program structure
# =============================================================================


@dataclass(frozen=True)
class Param:
    """A buffer parameter: ``in buffer[N] ibs`` or ``out buffer ob``."""

    name: str
    type: Type  # BufferType or ArrayType of BufferType
    kind: VarKind  # PARAM_IN or PARAM_OUT

    @property
    def count(self) -> int:
        return self.type.size if isinstance(self.type, ArrayType) else 1


@dataclass(frozen=True)
class Procedure:
    """A named procedure with optional Dafny-style contracts."""

    name: str
    params: Tuple[Decl, ...]
    body: Cmd
    requires: Tuple[Expr, ...] = ()
    ensures: Tuple[Expr, ...] = ()


@dataclass(frozen=True)
class Program:
    """A Buffy program: one time step of a network component.

    * ``params`` — input and output buffers (Figure 5 schematics).
    * ``decls`` — globals, monitors and constants (locals live in the body).
    * ``body`` — the per-step command.
    * ``procedures`` — helper procedures callable from the body.
    """

    name: str
    params: Tuple[Param, ...]
    decls: Tuple[Decl, ...]
    body: Cmd
    procedures: Tuple[Procedure, ...] = ()

    def param(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"no parameter {name!r} in program {self.name!r}")

    def input_params(self) -> list[Param]:
        return [p for p in self.params if p.kind is VarKind.PARAM_IN]

    def output_params(self) -> list[Param]:
        return [p for p in self.params if p.kind is VarKind.PARAM_OUT]

    def decl(self, name: str) -> Decl:
        for d in self.decls:
            if d.name == name:
                return d
        raise KeyError(f"no declaration {name!r} in program {self.name!r}")

    def constants(self) -> dict[str, int]:
        """Compile-time constants declared in the program."""
        out: dict[str, int] = {}
        for d in self.decls:
            if d.kind is VarKind.CONST:
                if not isinstance(d.init, IntLit):
                    raise BuffyError(
                        f"constant {d.name!r} must have an integer literal initializer"
                    )
                out[d.name] = d.init.value
        return out


# =============================================================================
# Traversal helpers
# =============================================================================


def children_of(cmd: Cmd) -> Sequence[Cmd]:
    if isinstance(cmd, Seq):
        return cmd.commands
    if isinstance(cmd, If):
        return (cmd.then, cmd.els)
    if isinstance(cmd, For):
        return (cmd.body,)
    return ()


def walk_commands(cmd: Cmd):
    """Pre-order traversal over a command tree."""
    yield cmd
    for child in children_of(cmd):
        yield from walk_commands(child)


def walk_exprs(root: Expr):
    """Pre-order traversal over an expression tree."""
    yield root
    if isinstance(root, Index):
        yield from walk_exprs(root.base)
        yield from walk_exprs(root.index)
    elif isinstance(root, BinOp):
        yield from walk_exprs(root.left)
        yield from walk_exprs(root.right)
    elif isinstance(root, UnOp):
        yield from walk_exprs(root.operand)
    elif isinstance(root, Backlog):
        yield from walk_exprs(root.buffer)
    elif isinstance(root, FilterExpr):
        yield from walk_exprs(root.buffer)
        yield from walk_exprs(root.value)
    elif isinstance(root, ListHas):
        yield from walk_exprs(root.target)
        yield from walk_exprs(root.item)
    elif isinstance(root, (ListEmpty, ListLen)):
        yield from walk_exprs(root.target)


def exprs_of(cmd: Cmd) -> Sequence[Expr]:
    """Direct expressions of a single command (not recursing into children)."""
    if isinstance(cmd, Assign):
        return (cmd.target, cmd.value)
    if isinstance(cmd, If):
        return (cmd.cond,)
    if isinstance(cmd, For):
        return (cmd.lo, cmd.hi) + cmd.invariants
    if isinstance(cmd, Move):
        return (cmd.src, cmd.dst, cmd.amount)
    if isinstance(cmd, PushBack):
        return (cmd.target, cmd.value)
    if isinstance(cmd, PopFront):
        return (cmd.var, cmd.target)
    if isinstance(cmd, (Assert, Assume)):
        return (cmd.cond,)
    if isinstance(cmd, Havoc):
        out = [cmd.target]
        if cmd.lo is not None:
            out.append(cmd.lo)
        if cmd.hi is not None:
            out.append(cmd.hi)
        return tuple(out)
    if isinstance(cmd, Call):
        return cmd.args
    if isinstance(cmd, Decl) and cmd.init is not None:
        return (cmd.init,)
    return ()
