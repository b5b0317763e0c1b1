"""Tests for the term simplification pass."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt.simplify import simplify
from repro.smt.sorts import INT
from repro.smt.terms import (
    ONE,
    ZERO,
    dag_size,
    evaluate,
    free_vars,
    mk_and,
    mk_bool_to_int,
    mk_bool_var,
    mk_eq,
    mk_int,
    mk_int_var,
    mk_ite,
    mk_le,
    mk_lt,
    mk_not,
    mk_or,
    mk_sub,
)


class TestRules:
    def test_bool_to_int_comparison_collapses(self):
        c = mk_bool_var("c")
        term = mk_lt(ZERO, mk_bool_to_int(c))
        assert simplify(term) is c

    def test_bool_to_int_le_zero_is_negation(self):
        c = mk_bool_var("c")
        term = mk_le(mk_bool_to_int(c), ZERO)
        assert simplify(term) is mk_not(c)

    def test_nested_same_guard_then(self):
        c = mk_bool_var("c")
        a, b, d = mk_int_var("a"), mk_int_var("b"), mk_int_var("d")
        term = mk_ite(c, mk_ite(c, a, b), d)
        assert simplify(term) is mk_ite(c, a, d)

    def test_nested_same_guard_else(self):
        c = mk_bool_var("c")
        a, b, d = mk_int_var("a"), mk_int_var("b"), mk_int_var("d")
        term = mk_ite(c, a, mk_ite(c, b, d))
        assert simplify(term) is mk_ite(c, a, d)

    def test_constant_offset_shift(self):
        x = mk_int_var("x")
        term = mk_le(x + mk_int(2), mk_int(5))
        assert simplify(term) is mk_le(x, mk_int(3))

    def test_eq_offset_shift(self):
        x = mk_int_var("x")
        term = mk_eq(x + mk_int(4), mk_int(4))
        simplified = simplify(term)
        assert simplified is mk_eq(x, ZERO)

    def test_ite_comparison_with_const_branch(self):
        c = mk_bool_var("c")
        x = mk_int_var("x")
        # ite(c, x, 0) == 0  →  ite(c, x == 0, true)
        term = mk_eq(mk_ite(c, x, ZERO), ZERO)
        simplified = simplify(term)
        assert dag_size(simplified) <= dag_size(term)
        for cv in (False, True):
            for xv in range(-2, 3):
                env = {"c": cv, "x": xv}
                assert evaluate(term, env) == evaluate(simplified, env)

    def test_idempotent(self):
        c = mk_bool_var("c")
        term = mk_lt(ZERO, mk_bool_to_int(c) + mk_bool_to_int(mk_not(c)))
        once = simplify(term)
        assert simplify(once) is once


@st.composite
def small_formula(draw):
    x, y = mk_int_var("sx"), mk_int_var("sy")
    p = mk_bool_var("sp")

    def term(depth):
        if depth == 0:
            return draw(st.sampled_from(
                [x, y, ZERO, ONE, mk_int(draw(st.integers(-3, 3)))]
            ))
        kind = draw(st.sampled_from(["add", "sub", "ite", "b2i"]))
        if kind == "add":
            return term(depth - 1) + term(depth - 1)
        if kind == "sub":
            return mk_sub(term(depth - 1), term(depth - 1))
        if kind == "b2i":
            return mk_bool_to_int(boolean(depth - 1))
        return mk_ite(boolean(depth - 1), term(depth - 1), term(depth - 1))

    def boolean(depth):
        if depth == 0:
            return draw(st.sampled_from([p, mk_eq(ZERO, ZERO)]))
        kind = draw(st.sampled_from(["and", "or", "not", "lt", "le", "eq"]))
        if kind == "and":
            return mk_and(boolean(depth - 1), boolean(depth - 1))
        if kind == "or":
            return mk_or(boolean(depth - 1), boolean(depth - 1))
        if kind == "not":
            return mk_not(boolean(depth - 1))
        if kind == "lt":
            return mk_lt(term(depth - 1), term(depth - 1))
        if kind == "le":
            return mk_le(term(depth - 1), term(depth - 1))
        return mk_eq(term(depth - 1), term(depth - 1))

    return boolean(3)


@given(small_formula())
@settings(max_examples=120, deadline=None)
def test_simplify_preserves_semantics(formula):
    simplified = simplify(formula)
    for sx, sy in itertools.product(range(-3, 4), repeat=2):
        for sp in (False, True):
            env = {"sx": sx, "sy": sy, "sp": sp}
            assert evaluate(formula, env) == evaluate(simplified, env)


@given(small_formula())
@settings(max_examples=60, deadline=None)
def test_simplify_never_grows(formula):
    assert dag_size(simplify(formula)) <= dag_size(formula)


class TestOnCompiledFormulas:
    def test_shrinks_buffy_encodings(self):
        """The rules target guarded-execution patterns; measure on a real
        compiled formula."""
        from repro.backends.smt_backend import SmtBackend
        from repro.compiler.symexec import EncodeConfig
        from repro.netmodels.schedulers import fq_buggy
        from repro.smt.terms import mk_le as le

        backend = SmtBackend(
            fq_buggy(2), steps=3,
            config=EncodeConfig(buffer_capacity=4, arrivals_per_step=2),
        )
        query = le(mk_int(2), backend.deq_count("ibs[0]"))
        before = dag_size(query)
        after = dag_size(simplify(query))
        assert after <= before
