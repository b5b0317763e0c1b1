"""Property tests for the term layer's fast paths.

The hot constructors flatten and coerce without the generic argument
checks, the intern key is a flat tuple of ids, ``Model.eval`` keeps
one memo per model, and the AND/XOR/ITE gates append their
clauses without ``CNF.add_clause``.  Each shortcut must give exactly
what the generic path gives: the same interned object, the same value,
the same stored clause.  Commutative arguments are ordered by creation
serial, so the CNF of a formula repeats from process to process.  The
two-argument ``mk_and``/``mk_or`` paths return what the n-ary loop
returns, the guarded constructors raise what ``_check`` raises, and the
hot modules name operators through the ``OP_*`` alias set.
"""

import ast
import inspect
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import bitblast, intervals, terms
from repro.smt.bitblast import BitBlaster
from repro.smt.cnf import CNF
from repro.smt.model import Model
from repro.smt.sorts import BOOL, INT
from repro.smt.terms import (
    FALSE,
    ID_ORDERED_OPS,
    TRUE,
    Op,
    Term,
    _check,
    _intern,
    evaluate,
    iter_dag,
    mk_add,
    mk_and,
    mk_bool,
    mk_bool_var,
    mk_eq,
    mk_implies,
    mk_int,
    mk_int_var,
    mk_ite,
    mk_le,
    mk_lt,
    mk_mul,
    mk_neg,
    mk_not,
    mk_or,
    mk_sub,
    mk_xor,
    rebuild,
)

INT_VARS = [mk_int_var(f"tl_x{i}") for i in range(3)]
BOOL_VARS = [mk_bool_var(f"tl_p{i}") for i in range(3)]


@st.composite
def term_dags(draw, max_depth=4):
    """A random Bool/Int term DAG over a few shared variables."""

    def int_term(depth):
        if depth == 0 or draw(st.integers(0, 4)) == 0:
            if draw(st.booleans()):
                return draw(st.sampled_from(INT_VARS))
            return mk_int(draw(st.integers(-4, 4)))
        kind = draw(st.sampled_from(["add", "sub", "mul", "neg", "ite"]))
        if kind == "add":
            return mk_add(*[int_term(depth - 1)
                            for _ in range(draw(st.integers(1, 3)))])
        if kind == "sub":
            return mk_sub(int_term(depth - 1), int_term(depth - 1))
        if kind == "mul":
            return mk_mul(int_term(depth - 1), int_term(depth - 1))
        if kind == "neg":
            return mk_neg(int_term(depth - 1))
        return mk_ite(bool_term(depth - 1), int_term(depth - 1),
                      int_term(depth - 1))

    def bool_term(depth):
        if depth == 0 or draw(st.integers(0, 4)) == 0:
            if draw(st.booleans()):
                return draw(st.sampled_from(BOOL_VARS))
            return mk_bool(draw(st.booleans()))
        kind = draw(st.sampled_from(
            ["and", "or", "not", "xor", "implies", "ite", "eq", "lt", "le"]))
        if kind in ("and", "or"):
            build = mk_and if kind == "and" else mk_or
            return build(*[bool_term(depth - 1)
                           for _ in range(draw(st.integers(1, 4)))])
        if kind == "not":
            return mk_not(bool_term(depth - 1))
        if kind == "xor":
            return mk_xor(bool_term(depth - 1), bool_term(depth - 1))
        if kind == "implies":
            return mk_implies(bool_term(depth - 1), bool_term(depth - 1))
        if kind == "ite":
            return mk_ite(bool_term(depth - 1), bool_term(depth - 1),
                          bool_term(depth - 1))
        if kind == "eq":
            if draw(st.booleans()):
                return mk_eq(bool_term(depth - 1), bool_term(depth - 1))
            return mk_eq(int_term(depth - 1), int_term(depth - 1))
        build = mk_lt if kind == "lt" else mk_le
        return build(int_term(depth - 1), int_term(depth - 1))

    if draw(st.booleans()):
        return bool_term(max_depth)
    return int_term(max_depth)


# ----- interning -------------------------------------------------------------


@given(term_dags())
@settings(max_examples=150, deadline=None)
def test_interning_is_idempotent(root):
    """Re-interning or rebuilding any node returns that very node."""
    for node in iter_dag(root):
        assert _intern(node.op, node.args, node.payload, node.sort) is node
        if node.op is not Op.CONST or node.sort is INT:
            assert rebuild(node.op, node.args, node.payload) is node


@given(term_dags())
@settings(max_examples=150, deadline=None)
def test_fast_constructors_return_the_generic_term(root):
    """mk_and/mk_ite/mk_eq/mk_add/mk_int give what the generic path interns."""
    for node in iter_dag(root):
        op, args = node.op, node.args
        if op is Op.AND:
            built = mk_and(*args)
        elif op is Op.ITE:
            built = mk_ite(*args)
        elif op is Op.EQ:
            built = mk_eq(*args)
            assert mk_eq(args[1], args[0]) is built
        elif op is Op.ADD:
            built = mk_add(*args)
        elif op is Op.CONST and node.sort is INT:
            built = mk_int(node.payload)
        else:
            continue
        assert built is node
        assert _intern(op, args, node.payload, node.sort) is built


def test_bool_and_int_constants_and_vars_stay_apart():
    # False == 0 and True == 1 in Python; only the sort keeps them apart.
    assert mk_bool(False) is not mk_int(0)
    assert mk_bool(True) is not mk_int(1)
    assert mk_int(0).sort is INT and mk_bool(False).sort is BOOL
    assert mk_int(1).payload == 1 and mk_bool(True).payload is True
    # Same name, both orders of first construction.
    assert mk_bool_var("tl_same") is not mk_int_var("tl_same")
    assert mk_int_var("tl_same2") is not mk_bool_var("tl_same2")
    assert mk_bool_var("tl_same").sort is BOOL
    assert mk_int_var("tl_same2").sort is INT


def test_id_ordered_ops_are_the_binary_constructors_that_swap():
    """ID_ORDERED_OPS names exactly the binary constructors whose stored
    argument order ignores the call order (the cache keys rely on it)."""
    x, y = INT_VARS[0], INT_VARS[1]
    p, q = BOOL_VARS[0], BOOL_VARS[1]
    built = {
        Op.XOR: (mk_xor(p, q), mk_xor(q, p)),
        Op.EQ: (mk_eq(x, y), mk_eq(y, x)),
        Op.MUL: (mk_mul(x, y), mk_mul(y, x)),
        Op.IMPLIES: (mk_implies(p, q), mk_implies(q, p)),
        Op.SUB: (mk_sub(x, y), mk_sub(y, x)),
        Op.LT: (mk_lt(x, y), mk_lt(y, x)),
        Op.LE: (mk_le(x, y), mk_le(y, x)),
    }
    swapped = {op for op, (ab, ba) in built.items() if ab is ba}
    assert swapped == ID_ORDERED_OPS


def test_terms_hash_by_identity():
    x = INT_VARS[0]
    assert hash(x) == object.__hash__(x)
    assert not hasattr(x, "_hash")
    assert x.name == "tl_x0"


# ----- Model.eval --------------------------------------------------------------


@given(st.lists(term_dags(), min_size=1, max_size=4),
       st.dictionaries(st.sampled_from([v.name for v in INT_VARS]),
                       st.integers(-5, 5)),
       st.dictionaries(st.sampled_from([v.name for v in BOOL_VARS]),
                       st.booleans()))
@settings(max_examples=150, deadline=None)
def test_model_eval_matches_evaluate(roots, ints, bools):
    """One model, several roots sharing its memo; unassigned vars default."""
    partial = {**ints, **bools}
    full = {v.name: 0 for v in INT_VARS}
    full.update({v.name: False for v in BOOL_VARS})
    full.update(partial)
    model = Model(partial)
    for root in roots + roots:
        assert model.eval(root) == evaluate(root, full)
        assert type(model.eval(root)) is type(evaluate(root, full))
    assert len(model) == len(partial)


# ----- direct gate emission ----------------------------------------------------


def _stored(num_vars: int, raw: list[list[int]]) -> list[list[int]]:
    """What CNF.add_clause stores for ``raw``."""
    ref = CNF(num_vars=num_vars)
    ref.add_clauses(raw)
    return ref.clauses


def _blaster_with_inputs(n: int) -> tuple[BitBlaster, list[int]]:
    blaster = BitBlaster()
    return blaster, [blaster.cnf.new_var() for _ in range(n)]


literal_picks = st.lists(
    st.tuples(st.integers(0, 4), st.booleans()), min_size=0, max_size=6)


def _literals(blaster: BitBlaster, inputs: list[int], picks) -> list[int]:
    # Index 4 picks the constant-true literal, so constants mix in too.
    pool = inputs + [blaster.true_lit]
    return [pool[i] if positive else -pool[i] for i, positive in picks]


@given(literal_picks)
@settings(max_examples=200, deadline=None)
def test_and_gate_clauses_are_what_add_clause_stores(picks):
    blaster, inputs = _blaster_with_inputs(4)
    lits = _literals(blaster, inputs, picks)
    before = len(blaster.cnf.clauses)
    g = blaster._gate_and(lits)
    emitted = blaster.cnf.clauses[before:]
    if not emitted:
        return
    uniq = sorted(set(lits) - {blaster.true_lit}, key=abs)
    raw = [[-g, l] for l in uniq] + [[g] + [-l for l in uniq]]
    assert emitted == _stored(blaster.cnf.num_vars, raw)


def test_and_gate_with_duplicate_and_complementary_inputs():
    blaster, (a, b, c, _) = _blaster_with_inputs(4)
    assert blaster._gate_and([a, -a, b]) == blaster.false_lit
    before = len(blaster.cnf.clauses)
    g = blaster._gate_and([b, a, b, blaster.true_lit, a])
    assert blaster.cnf.clauses[before:] == [[-g, a], [-g, b], [g, -a, -b]]
    assert blaster._gate_and([a, b]) == g  # cached, nothing emitted
    assert len(blaster.cnf.clauses) == before + 3


@given(st.tuples(st.integers(0, 4), st.booleans()),
       st.tuples(st.integers(0, 4), st.booleans()))
@settings(max_examples=150, deadline=None)
def test_xor_gate_clauses_are_what_add_clause_stores(pa, pb):
    blaster, inputs = _blaster_with_inputs(4)
    a, b = _literals(blaster, inputs, [pa, pb])
    before = len(blaster.cnf.clauses)
    out = blaster._gate_xor(a, b)
    emitted = blaster.cnf.clauses[before:]
    if not emitted:
        return
    g = abs(out)
    x, y = sorted((abs(a), abs(b)))
    raw = [[-g, x, y], [-g, -x, -y], [g, -x, y], [g, x, -y]]
    assert emitted == _stored(blaster.cnf.num_vars, raw)


@given(st.tuples(st.integers(0, 4), st.booleans()),
       st.tuples(st.integers(0, 4), st.booleans()),
       st.tuples(st.integers(0, 4), st.booleans()))
@settings(max_examples=300, deadline=None)
def test_ite_gate_clauses_are_what_add_clause_stores(pc, pt, pe):
    blaster, inputs = _blaster_with_inputs(4)
    c, t, e = _literals(blaster, inputs, [pc, pt, pe])
    before = len(blaster.cnf.clauses)
    g = blaster._gate_ite(c, t, e)
    emitted = blaster.cnf.clauses[before:]
    if not emitted or {abs(c), abs(t), abs(e)} & {blaster.true_lit}:
        return  # folded, or delegated to the AND gate
    raw = [[-g, -c, t], [-g, c, e], [g, -c, -t], [g, c, -e],
           [-g, t, e], [g, -t, -e]]
    assert emitted == _stored(blaster.cnf.num_vars, raw)


def test_ite_gate_degenerate_inputs_match_add_clause():
    """t == -e and c == +-t reach the checked path, never the direct one."""
    for pick in (lambda c, t: (c, t, -t), lambda c, t: (c, c, t),
                 lambda c, t: (c, -c, t), lambda c, t: (c, t, c),
                 lambda c, t: (c, t, -c)):
        blaster, (a, b, _, _) = _blaster_with_inputs(4)
        c, t, e = pick(a, b)
        before = len(blaster.cnf.clauses)
        g = blaster._gate_ite(c, t, e)
        raw = [[-g, -c, t], [-g, c, e], [g, -c, -t], [g, c, -e],
               [-g, t, e], [g, -t, -e]]
        emitted = blaster.cnf.clauses[before:]
        assert emitted == _stored(blaster.cnf.num_vars, raw)
        assert len(emitted) < len(raw)  # something was dropped or merged


# ----- creation order ----------------------------------------------------------


def test_commutative_args_follow_creation_order():
    x, y = mk_int_var("tl_serial_x"), mk_int_var("tl_serial_y")
    p, q = mk_bool_var("tl_serial_p"), mk_bool_var("tl_serial_q")
    assert x.serial < y.serial and p.serial < q.serial
    assert mk_eq(y, x).args == (x, y)
    assert mk_mul(y, x).args == (x, y)
    assert mk_xor(q, p).args == (p, q)
    assert mk_eq(x, y).serial > y.serial  # a new term takes a new serial


def test_cnf_repeats_across_fresh_processes():
    """Bit-blasting one instance gives one DIMACS text in every process
    (it followed the allocator while commutative args were ordered by id)."""
    script = textwrap.dedent("""
        import hashlib
        from repro.baselines.fperf_rr import encode_rr_baseline
        from repro.smt.bitblast import bitblast
        from repro.smt.intervals import BoundsEnv, Interval

        ctx = encode_rr_baseline(n_queues=2, horizon=2, capacity=8,
                                 max_arrivals=2)
        env = BoundsEnv({name: Interval(lo, hi)
                         for name, (lo, hi) in ctx.bounds.items()})
        cnf, _ = bitblast(ctx.constraints, env)
        print(hashlib.sha256(cnf.to_dimacs().encode()).hexdigest())
    """)
    env = dict(os.environ, PYTHONHASHSEED="0")
    digests = {
        subprocess.run([sys.executable, "-c", script], capture_output=True,
                       text=True, env=env, timeout=120,
                       check=True).stdout.strip()
        for _ in range(5)
    }
    assert len(digests) == 1


# ----- the Op alias set --------------------------------------------------------

HOT_MODULES = (terms, intervals, bitblast)


def test_every_op_member_has_exactly_one_public_alias():
    aliases = {name: value for name, value in vars(terms).items()
               if isinstance(value, Op) and not name.startswith("_")}
    assert aliases == {f"OP_{member.name}": member for member in Op}
    for member in Op:
        assert getattr(terms, f"OP_{member.name}") is member


@pytest.mark.parametrize("module", HOT_MODULES, ids=lambda m: m.__name__)
def test_hot_function_bodies_load_no_op_member(module):
    """Function bodies name operators through the OP_* globals: on
    Python 3.11 each ``Op.X`` load goes through ``EnumType.__getattr__``.
    Module level and class bodies may keep ``Op.X``."""
    tree = ast.parse(inspect.getsource(module))
    loads = sorted(
        f"{func.name}:{node.lineno}: Op.{node.attr}"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "Op" and node.attr in Op.__members__)
    assert loads == []


# ----- two-argument AND/OR and the guarded argument checks ---------------------


@st.composite
def bool_pairs(draw):
    """Two Bool terms that hit the two-argument paths' cases: constants,
    one term twice, a term and its complement (either order), nested
    AND/OR arguments."""
    p, q, r = BOOL_VARS

    def atom():
        return draw(st.sampled_from(
            [p, q, r, mk_not(p), mk_not(q), TRUE, FALSE,
             mk_and(p, q), mk_and(q, mk_not(r)), mk_and(p, q, r),
             mk_or(p, q), mk_or(mk_not(p), r), mk_or(p, q, r),
             mk_xor(p, r), mk_implies(q, r)]))

    a = atom()
    relation = draw(st.sampled_from(["any", "same", "not"]))
    b = atom() if relation == "any" else a if relation == "same" else mk_not(a)
    if draw(st.booleans()):
        a, b = b, a
    return a, b


@given(bool_pairs())
@settings(max_examples=300, deadline=None)
def test_two_argument_and_or_return_the_n_ary_result(pair):
    a, b = pair
    assert mk_and(a, b) is mk_and(a, b, TRUE) is mk_and(TRUE, a, b)
    assert mk_or(a, b) is mk_or(a, b, FALSE) is mk_or(FALSE, a, b)
    assert mk_and(b, a) is mk_and(b, a, TRUE)
    assert mk_or(b, a) is mk_or(b, a, FALSE)


def _type_error(build, *args):
    with pytest.raises(TypeError) as info:
        build(*args)
    return str(info.value)


GUARDED = [
    (mk_not, BOOL, 1, "not"),
    (mk_xor, BOOL, 2, "xor"),
    (mk_implies, BOOL, 2, "=>"),
    (mk_sub, INT, 2, "-"),
    (mk_neg, INT, 1, "neg"),
    (mk_mul, INT, 2, "*"),
    (mk_lt, INT, 2, "<"),
    (mk_le, INT, 2, "<="),
]


@given(st.sampled_from(GUARDED), st.integers(0, 1),
       st.sampled_from([None, "x", 1.5, 3, True, BOOL_VARS[0], INT_VARS[0],
                        mk_int(2), FALSE]))
@settings(max_examples=200, deadline=None)
def test_guarded_constructors_raise_what_check_raises(spec, position, bad):
    build, sort, arity, name = spec
    good = BOOL_VARS[1] if sort is BOOL else INT_VARS[1]
    args = [good] * arity
    args[min(position, arity - 1)] = bad
    if isinstance(bad, Term) and bad.sort is sort:
        build(*args)  # a well-sorted term passes the guard
        return
    assert _type_error(build, *args) == _type_error(_check, args, sort, name)


@pytest.mark.parametrize("bad", [None, "x", 3, INT_VARS[0], mk_int(1)])
def test_ite_and_n_ary_constructors_keep_their_errors(bad):
    p, x = BOOL_VARS[0], INT_VARS[1]
    assert (_type_error(mk_ite, bad, x, x)
            == _type_error(_check, [bad], BOOL, "ite"))
    for build, unit in ((mk_and, TRUE), (mk_or, FALSE)):
        assert (_type_error(build, bad, p) == _type_error(build, bad, p, unit)
                == _type_error(build, p, bad, unit))
