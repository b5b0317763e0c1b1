"""Hash-consed term DAG for the SMT substrate.

This module is the foundation of the Z3 stand-in: immutable, interned
terms over the Bool and Int sorts.  Hash-consing gives O(1) structural
equality (``is``), cheap memoization keyed by the term itself (terms
hash by identity), and keeps the formula DAGs produced by loop
unrolling compact.

Construction goes through the ``mk_*`` factory functions, which perform
light normalization (constant folding, flattening, unit/absorbing
elements) so that downstream passes see a somewhat canonical DAG.
There is no separate rewriting pass: the bit-blaster encodes the DAG
these factories build.

Python operators are overloaded for convenience when writing encodings
by hand (the FPerf-style baselines use this heavily)::

    x, y = mk_int_var("x"), mk_int_var("y")
    f = (x + y <= mk_int(7)) & x.eq(y)

``==`` on terms remains *identity* (terms are interned), so terms can be
used freely as dict keys; term-level equality is ``a.eq(b)`` /
``mk_eq(a, b)``.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from .sorts import BOOL, INT, Sort


class Op(enum.Enum):
    """Term operators."""

    # Leaves
    VAR = "var"
    CONST = "const"  # payload: bool or int
    # Boolean connectives
    NOT = "not"
    AND = "and"
    OR = "or"
    XOR = "xor"
    IMPLIES = "=>"
    # Polymorphic
    EQ = "="
    DISTINCT = "distinct"
    ITE = "ite"
    # Integer arithmetic
    ADD = "+"
    SUB = "-"
    NEG = "neg"
    MUL = "*"
    # Integer comparisons
    LT = "<"
    LE = "<="

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class Term:
    """An immutable, interned term.

    Do not instantiate directly; use the ``mk_*`` factories.  Because
    terms are interned, structural equality coincides with identity.
    """

    __slots__ = ("op", "args", "payload", "sort", "__weakref__")

    op: Op
    args: tuple["Term", ...]
    payload: object
    sort: Sort

    def __init__(self, op: Op, args: tuple["Term", ...], payload: object, sort: Sort):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "sort", sort)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Term objects are immutable")

    # NOTE: neither __eq__ nor __hash__ is overloaded: interning makes
    # identity equality and identity hashing (object's own, in C) correct
    # and fast, and keeps terms usable as dict/set keys.  Use ``.eq()``
    # for the logical equality predicate.

    # ----- introspection -------------------------------------------------

    @property
    def is_var(self) -> bool:
        return self.op is Op.VAR

    @property
    def is_const(self) -> bool:
        return self.op is Op.CONST

    @property
    def name(self) -> str:
        """Variable name (only valid for VAR terms).

        A variable's payload is the pair ``(name, sort value)``.
        """
        if self.op is not Op.VAR:
            raise ValueError(f"not a variable: {self!r}")
        return self.payload[0]  # type: ignore[index]

    @property
    def value(self) -> Union[bool, int]:
        """Constant value (only valid for CONST terms)."""
        if self.op is not Op.CONST:
            raise ValueError(f"not a constant: {self!r}")
        return self.payload  # type: ignore[return-value]

    # ----- operator overloading ------------------------------------------

    def eq(self, other: "TermLike") -> "Term":
        return mk_eq(self, _coerce(other, self.sort))

    def ne(self, other: "TermLike") -> "Term":
        return mk_not(mk_eq(self, _coerce(other, self.sort)))

    def ite(self, then: "TermLike", els: "TermLike") -> "Term":
        then_t = _coerce_any(then)
        els_t = _coerce(els, then_t.sort)
        return mk_ite(self, then_t, els_t)

    def __and__(self, other: "TermLike") -> "Term":
        return mk_and(self, _coerce(other, BOOL))

    def __rand__(self, other: "TermLike") -> "Term":
        return mk_and(_coerce(other, BOOL), self)

    def __or__(self, other: "TermLike") -> "Term":
        return mk_or(self, _coerce(other, BOOL))

    def __ror__(self, other: "TermLike") -> "Term":
        return mk_or(_coerce(other, BOOL), self)

    def __xor__(self, other: "TermLike") -> "Term":
        return mk_xor(self, _coerce(other, BOOL))

    def __invert__(self) -> "Term":
        return mk_not(self)

    def implies(self, other: "TermLike") -> "Term":
        return mk_implies(self, _coerce(other, BOOL))

    def __add__(self, other: "TermLike") -> "Term":
        return mk_add(self, _coerce(other, INT))

    def __radd__(self, other: "TermLike") -> "Term":
        return mk_add(_coerce(other, INT), self)

    def __sub__(self, other: "TermLike") -> "Term":
        return mk_sub(self, _coerce(other, INT))

    def __rsub__(self, other: "TermLike") -> "Term":
        return mk_sub(_coerce(other, INT), self)

    def __mul__(self, other: "TermLike") -> "Term":
        return mk_mul(self, _coerce(other, INT))

    def __rmul__(self, other: "TermLike") -> "Term":
        return mk_mul(_coerce(other, INT), self)

    def __neg__(self) -> "Term":
        return mk_neg(self)

    def __lt__(self, other: "TermLike") -> "Term":
        return mk_lt(self, _coerce(other, INT))

    def __le__(self, other: "TermLike") -> "Term":
        return mk_le(self, _coerce(other, INT))

    def __gt__(self, other: "TermLike") -> "Term":
        return mk_lt(_coerce(other, INT), self)

    def __ge__(self, other: "TermLike") -> "Term":
        return mk_le(_coerce(other, INT), self)

    # ----- printing -------------------------------------------------------

    def __repr__(self) -> str:
        return to_sexpr(self, max_depth=6)

    def __str__(self) -> str:
        return to_sexpr(self)


TermLike = Union[Term, bool, int]

# Interning table: a flat key ``(id(op), payload, id(sort), *arg ids)``
# maps to the one Term with that structure.  Identities of the Op and
# Sort members hash in C, where the members themselves would go through
# the Python-level ``Enum.__hash__``.  The sort must be part of the key:
# Python's ``False == 0`` and ``True == 1`` would otherwise collide Bool
# and Int constants.  Arg ids stay valid because the table keeps every
# term, and with it its args, alive.
_INTERN: dict = {}


def _intern(op: Op, args: tuple[Term, ...], payload: object, sort: Sort) -> Term:
    key = (id(op), payload, id(sort), *map(id, args))
    found = _INTERN.get(key)
    if found is None:
        found = _INTERN[key] = Term(op, args, payload, sort)
    return found


def intern_table_size() -> int:
    """Number of distinct live terms (diagnostics / tests)."""
    return len(_INTERN)


def _coerce(value: TermLike, sort: Sort) -> Term:
    if isinstance(value, Term):
        if value.sort is not sort:
            raise TypeError(f"expected {sort} term, got {value.sort}: {value!r}")
        return value
    if sort is BOOL:
        if isinstance(value, bool):
            return mk_bool(value)
        raise TypeError(f"cannot coerce {value!r} to Bool")
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"cannot coerce {value!r} to Int")
    return mk_int(value)


def _coerce_any(value: TermLike) -> Term:
    if isinstance(value, Term):
        return value
    if isinstance(value, bool):
        return mk_bool(value)
    if isinstance(value, int):
        return mk_int(value)
    raise TypeError(f"cannot coerce {value!r} to a term")


# ----- leaf constructors ---------------------------------------------------

_VAR_COUNTER = itertools.count()


def mk_var(name: str, sort: Sort) -> Term:
    """An interned variable.  Same (name, sort) always yields the same term."""
    if not name:
        raise ValueError("variable name must be non-empty")
    return _intern(Op.VAR, (), (name, sort.value), sort)


def mk_bool_var(name: str) -> Term:
    return mk_var(name, BOOL)


def mk_int_var(name: str) -> Term:
    return mk_var(name, INT)


def fresh_var(prefix: str, sort: Sort) -> Term:
    """A variable with a globally unique generated name."""
    return mk_var(f"{prefix}!{next(_VAR_COUNTER)}", sort)


def mk_bool(value: bool) -> Term:
    return _intern(Op.CONST, (), bool(value), BOOL)


def mk_int(value: int) -> Term:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"mk_int expects an int, got {value!r}")
    # The intern key does not hold the payload's type, so an int
    # subclass (an IntEnum, say) is stored as its plain value.
    return _intern(Op.CONST, (), int(value), INT)


TRUE = mk_bool(True)
FALSE = mk_bool(False)
ZERO = mk_int(0)
ONE = mk_int(1)


# ----- boolean constructors -------------------------------------------------


def _check(args: Sequence[Term], sort: Sort, op: str) -> None:
    for a in args:
        if not isinstance(a, Term):
            raise TypeError(f"{op}: expected Term, got {a!r}")
        if a.sort is not sort:
            raise TypeError(f"{op}: expected {sort} operand, got {a.sort}: {a!r}")


def mk_not(arg: Term) -> Term:
    _check((arg,), BOOL, "not")
    if arg.is_const:
        return mk_bool(not arg.value)
    if arg.op is Op.NOT:
        return arg.args[0]
    return _intern(Op.NOT, (arg,), None, BOOL)


def mk_and(*args: TermLike) -> Term:
    terms = [a if a.__class__ is Term and a.sort is BOOL else _coerce(a, BOOL)
             for a in args]
    out: list[Term] = []
    seen: set[Term] = set()
    for t in terms:
        for a in t.args if t.op is Op.AND else (t,):  # flatten nested ANDs
            if a is FALSE:
                return FALSE
            if a is TRUE or a in seen:
                continue
            if a.op is Op.NOT and a.args[0] in seen:
                return FALSE
            seen.add(a)
            out.append(a)
    for a in out:
        if a.op is Op.NOT and a.args[0] in seen:
            return FALSE
    if not out:
        return TRUE
    if len(out) == 1:
        return out[0]
    return _intern(Op.AND, tuple(out), None, BOOL)


def mk_or(*args: TermLike) -> Term:
    terms = [a if a.__class__ is Term and a.sort is BOOL else _coerce(a, BOOL)
             for a in args]
    out: list[Term] = []
    seen: set[Term] = set()
    for t in terms:
        for a in t.args if t.op is Op.OR else (t,):  # flatten nested ORs
            if a is TRUE:
                return TRUE
            if a is FALSE or a in seen:
                continue
            seen.add(a)
            out.append(a)
    for a in out:
        if a.op is Op.NOT and a.args[0] in seen:
            return TRUE
    if not out:
        return FALSE
    if len(out) == 1:
        return out[0]
    return _intern(Op.OR, tuple(out), None, BOOL)


#: The commutative operators whose constructors (``mk_xor``, ``mk_eq``,
#: ``mk_mul``) order their two arguments by ``id()``.  That order depends
#: on construction order and on the allocator, so anything that must be
#: stable across processes (the result cache's keys) reads these
#: arguments as unordered.
ID_ORDERED_OPS = frozenset({Op.XOR, Op.EQ, Op.MUL})


def mk_xor(a: Term, b: Term) -> Term:
    _check((a, b), BOOL, "xor")
    if a.is_const:
        return mk_not(b) if a.value else b
    if b.is_const:
        return mk_not(a) if b.value else a
    if a is b:
        return FALSE
    if id(a) > id(b):  # canonical order for commutativity
        a, b = b, a
    return _intern(Op.XOR, (a, b), None, BOOL)


def mk_implies(a: Term, b: Term) -> Term:
    _check((a, b), BOOL, "=>")
    if a is TRUE:
        return b
    if a is FALSE or b is TRUE:
        return TRUE
    if b is FALSE:
        return mk_not(a)
    if a is b:
        return TRUE
    return _intern(Op.IMPLIES, (a, b), None, BOOL)


def mk_iff(a: Term, b: Term) -> Term:
    return mk_eq(a, b)


# ----- polymorphic constructors ---------------------------------------------


def mk_eq(a: Term, b: Term) -> Term:
    if a.sort is not b.sort:
        raise TypeError(f"=: sort mismatch {a.sort} vs {b.sort}")
    if a is b:
        return TRUE
    if a.is_const and b.is_const:
        return mk_bool(a.value == b.value)
    if id(a) > id(b):
        a, b = b, a
    return _intern(Op.EQ, (a, b), None, BOOL)


def mk_distinct(*args: Term) -> Term:
    if len(args) < 2:
        return TRUE
    sort = args[0].sort
    _check(args, sort, "distinct")
    pairs = [mk_not(mk_eq(x, y)) for x, y in itertools.combinations(args, 2)]
    return mk_and(*pairs)


def mk_ite(cond: Term, then: Term, els: Term) -> Term:
    if cond.__class__ is not Term or cond.sort is not BOOL:
        _check((cond,), BOOL, "ite")
    sort = then.sort
    if sort is not els.sort:
        raise TypeError(f"ite: branch sort mismatch {sort} vs {els.sort}")
    if cond is TRUE:
        return then
    if cond is FALSE:
        return els
    if then is els:
        return then
    if sort is BOOL:
        if then is TRUE and els is FALSE:
            return cond
        if then is FALSE and els is TRUE:
            return mk_not(cond)
        # Encode boolean ite with connectives; keeps the Bool layer pure.
        return mk_and(mk_implies(cond, then), mk_implies(mk_not(cond), els))
    return _intern(Op.ITE, (cond, then, els), None, sort)


# ----- arithmetic constructors ----------------------------------------------


def mk_add(*args: TermLike) -> Term:
    terms = [a if a.__class__ is Term and a.sort is INT else _coerce(a, INT)
             for a in args]
    const = 0
    out: list[Term] = []
    for t in terms:
        for a in t.args if t.op is Op.ADD else (t,):  # flatten nested sums
            if a.op is Op.CONST:
                const += a.payload  # type: ignore[operator]
            else:
                out.append(a)
    if const != 0 or not out:
        out.append(mk_int(const))
    if len(out) == 1:
        return out[0]
    return _intern(Op.ADD, tuple(out), None, INT)


def mk_sub(a: Term, b: Term) -> Term:
    _check((a, b), INT, "-")
    if b.is_const and b.value == 0:
        return a
    if a.is_const and b.is_const:
        return mk_int(a.value - b.value)  # type: ignore[operator]
    if a is b:
        return ZERO
    return _intern(Op.SUB, (a, b), None, INT)


def mk_neg(a: Term) -> Term:
    _check((a,), INT, "neg")
    if a.is_const:
        return mk_int(-a.value)  # type: ignore[operator]
    if a.op is Op.NEG:
        return a.args[0]
    return _intern(Op.NEG, (a,), None, INT)


def mk_mul(a: Term, b: Term) -> Term:
    _check((a, b), INT, "*")
    if a.is_const and b.is_const:
        return mk_int(a.value * b.value)  # type: ignore[operator]
    for c, x in ((a, b), (b, a)):
        if c.is_const:
            if c.value == 0:
                return ZERO
            if c.value == 1:
                return x
            if c.value == -1:
                return mk_neg(x)
            return _intern(Op.MUL, (c, x), None, INT)
    if id(a) > id(b):
        a, b = b, a
    return _intern(Op.MUL, (a, b), None, INT)


def mk_lt(a: Term, b: Term) -> Term:
    _check((a, b), INT, "<")
    if a.is_const and b.is_const:
        return mk_bool(a.value < b.value)  # type: ignore[operator]
    if a is b:
        return FALSE
    return _intern(Op.LT, (a, b), None, BOOL)


def mk_le(a: Term, b: Term) -> Term:
    _check((a, b), INT, "<=")
    if a.is_const and b.is_const:
        return mk_bool(a.value <= b.value)  # type: ignore[operator]
    if a is b:
        return TRUE
    return _intern(Op.LE, (a, b), None, BOOL)


def mk_min(a: Term, b: Term) -> Term:
    """min(a, b), expressed with ite."""
    return mk_ite(mk_le(a, b), a, b)


def mk_max(a: Term, b: Term) -> Term:
    """max(a, b), expressed with ite."""
    return mk_ite(mk_le(a, b), b, a)


def mk_sum(args: Sequence[TermLike]) -> Term:
    """Sum of a possibly-empty sequence of int terms."""
    if not args:
        return ZERO
    return mk_add(*args)


def mk_bool_to_int(b: Term) -> Term:
    """1 if b else 0 — handy for counting encodings."""
    return mk_ite(b, ONE, ZERO)


# ----- traversal utilities ---------------------------------------------------


def iter_dag(root: Term) -> Iterator[Term]:
    """Post-order iteration over the DAG rooted at ``root`` (each node once)."""
    seen: set[Term] = set()
    stack: list[tuple[Term, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if node in seen:
            continue
        if expanded:
            seen.add(node)
            yield node
        else:
            stack.append((node, True))
            for arg in node.args:
                if arg not in seen:
                    stack.append((arg, False))


def free_vars(root: Term) -> list[Term]:
    """All variables occurring in ``root`` (deterministic DAG order)."""
    return [t for t in iter_dag(root) if t.op is Op.VAR]


def dag_size(root: Term) -> int:
    """Number of distinct nodes in the DAG (a proxy for formula size)."""
    return sum(1 for _ in iter_dag(root))


def substitute(root: Term, mapping: Mapping[Term, Term]) -> Term:
    """Simultaneous substitution of terms (usually variables) in ``root``."""
    cache: dict[Term, Term] = {}
    for old, new in mapping.items():
        if old.sort is not new.sort:
            raise TypeError(f"substitute: sort mismatch for {old!r} -> {new!r}")
        cache[old] = new
    for node in iter_dag(root):
        if node in cache:
            continue
        if not node.args:
            cache[node] = node
            continue
        new_args = tuple(cache[a] for a in node.args)
        if all(n is o for n, o in zip(new_args, node.args)):
            cache[node] = node
        else:
            cache[node] = rebuild(node.op, new_args, node.payload)
    return cache[root]


def rebuild(op: Op, args: tuple[Term, ...], payload: object) -> Term:
    """Re-apply a constructor for ``op`` to new args (with normalization)."""
    if op is Op.VAR:
        return mk_var(payload[0], BOOL if payload[1] == "Bool" else INT)  # type: ignore[index]
    if op is Op.CONST:
        return mk_bool(payload) if isinstance(payload, bool) else mk_int(payload)  # type: ignore[arg-type]
    builders: dict[Op, Callable[..., Term]] = {
        Op.NOT: mk_not,
        Op.AND: mk_and,
        Op.OR: mk_or,
        Op.XOR: mk_xor,
        Op.IMPLIES: mk_implies,
        Op.EQ: mk_eq,
        Op.ITE: mk_ite,
        Op.ADD: mk_add,
        Op.SUB: mk_sub,
        Op.NEG: mk_neg,
        Op.MUL: mk_mul,
        Op.LT: mk_lt,
        Op.LE: mk_le,
    }
    return builders[op](*args)


def evaluate(root: Term, assignment: Mapping[str, Union[bool, int]]) -> Union[bool, int]:
    """Evaluate a term under a full assignment of its free variables.

    Used by tests and by the Houdini back end; model validation goes
    through :meth:`repro.smt.model.Model.eval`, which keeps its memo.
    """

    def value_of(var: Term) -> Union[bool, int]:
        try:
            return assignment[var.name]
        except KeyError as exc:
            raise KeyError(f"no assignment for variable {var.name!r}") from exc

    return evaluate_memo(root, {}, value_of)


def evaluate_memo(root: Term, memo: dict[Term, Union[bool, int]],
                  value_of: Callable[[Term], Union[bool, int]]) -> Union[bool, int]:
    """Evaluate ``root``, reusing and extending ``memo`` (term -> value).

    ``value_of`` gives a variable's value.  Sub-DAGs already in the memo
    are not walked again, so one memo serves many roots over the same
    assignment.
    """
    if root in memo:
        return memo[root]
    stack = [root]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        pending = [a for a in node.args if a not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        op = node.op
        if op is Op.CONST:
            memo[node] = node.payload  # type: ignore[assignment]
        elif op is Op.VAR:
            memo[node] = value_of(node)
        else:
            memo[node] = _eval_op(op, [memo[a] for a in node.args])
    return memo[root]


def _eval_op(op: Op, vals: Sequence[Union[bool, int]]):
    if op is Op.NOT:
        return not vals[0]
    if op is Op.AND:
        return all(vals)
    if op is Op.OR:
        return any(vals)
    if op is Op.XOR:
        return bool(vals[0]) != bool(vals[1])
    if op is Op.IMPLIES:
        return (not vals[0]) or bool(vals[1])
    if op is Op.EQ:
        return vals[0] == vals[1]
    if op is Op.ITE:
        return vals[1] if vals[0] else vals[2]
    if op is Op.ADD:
        return sum(vals)
    if op is Op.SUB:
        return vals[0] - vals[1]
    if op is Op.NEG:
        return -vals[0]
    if op is Op.MUL:
        return vals[0] * vals[1]
    if op is Op.LT:
        return vals[0] < vals[1]
    if op is Op.LE:
        return vals[0] <= vals[1]
    raise ValueError(f"cannot evaluate operator {op}")  # pragma: no cover


def to_sexpr(root: Term, max_depth: Optional[int] = None) -> str:
    """Render a term as an SMT-LIB-ish s-expression (for debugging)."""

    def go(node: Term, depth: int) -> str:
        if max_depth is not None and depth > max_depth:
            return "..."
        if node.is_var:
            return node.name
        if node.is_const:
            if node.sort is BOOL:
                return "true" if node.value else "false"
            v = node.value
            return str(v) if v >= 0 else f"(- {-v})"
        parts = " ".join(go(a, depth + 1) for a in node.args)
        return f"({node.op.value} {parts})"

    return go(root, 0)
