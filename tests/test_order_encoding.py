"""Exactness of the bit-blaster's order encoding of small-interval integers.

Every check is exhaustive over the values of small intervals: for each
assignment of the inputs, a term's encoding must admit exactly the
term's value, and a comparison's literal must be true exactly when the
comparison holds.  Outputs are read both through an order-encoded
variable and through a binary one, so the channels between the two
forms are exercised as well.
"""

import itertools

import pytest

from repro.obs import telemetry
from repro.smt.bitblast import ORDER_MAX_VALUES, BitBlaster, VarMap
from repro.smt.intervals import BoundsEnv
from repro.smt.sat.cdcl import CDCLSolver, SatResult
from repro.smt.solver import CheckResult, SmtSolver
from repro.smt.terms import (
    evaluate,
    mk_bool_var,
    mk_eq,
    mk_int,
    mk_int_var,
    mk_ite,
    mk_le,
    mk_lt,
    mk_mul,
    mk_neg,
    mk_not,
    mk_sub,
)

WIDE = (-100, 100)  # far above ORDER_MAX_VALUES: a binary output


class _Harness:
    """One bit-blaster; the CDCL is loaded once every literal exists."""

    def __init__(self, bounds: dict[str, tuple[int, int]]):
        env = BoundsEnv()
        for name, (lo, hi) in bounds.items():
            env.set(name, lo, hi)
        self.blaster = BitBlaster(bounds=env)
        self._sat = None

    def lit(self, formula) -> int:
        return self.blaster.literal_for(formula)

    def solve(self, assumptions) -> bool:
        if self._sat is None:
            cnf = self.blaster.cnf
            self._sat = CDCLSolver(cnf.num_vars)
            self._sat.add_cnf(cnf)
        result = self._sat.solve(list(assumptions))
        assert result is not SatResult.UNKNOWN
        return result is SatResult.SAT

    def decode(self) -> dict:
        return self.blaster.varmap.decode(self._sat.model())


def _inputs(spec):
    """Every assignment of ``spec`` ({var: (lo, hi)} / {var: None} for Bool)."""
    domains = [range(iv[0], iv[1] + 1) if iv else (False, True)
               for iv in spec.values()]
    for values in itertools.product(*domains):
        yield dict(zip(spec, values))


def _pin(h: _Harness, var, value) -> int:
    if isinstance(value, bool):
        lit = h.lit(var)
        return lit if value else -lit
    return h.lit(mk_eq(var, mk_int(value)))


def _check_function(term, spec, out_bounds):
    """``z = term`` admits exactly ``z = evaluate(term)`` on every input."""
    name = f"oe_out_{out_bounds[0]}_{out_bounds[1]}"
    z = mk_int_var(name)
    bounds = {v.name: iv for v, iv in spec.items() if iv}
    bounds[name] = out_bounds
    h = _Harness(bounds)
    rel = h.lit(mk_eq(z, term))
    cases = []
    for assignment in _inputs(spec):
        pins = [_pin(h, v, x) for v, x in assignment.items()]
        want = evaluate(term, {v.name: x for v, x in assignment.items()})
        cases.append((assignment, pins, want, h.lit(mk_eq(z, mk_int(want)))))
    for assignment, pins, want, z_is_want in cases:
        assert h.solve(pins + [rel]), assignment
        model = h.decode()
        assert model[name] == want, (assignment, model[name], want)
        for v, x in assignment.items():
            assert model[v.name] == x
        assert not h.solve(pins + [rel, -z_is_want]), assignment
    return h


def _check_predicate(formula, spec):
    """``formula``'s literal is true exactly where the formula holds."""
    h = _Harness({v.name: iv for v, iv in spec.items() if iv})
    lit = h.lit(formula)
    cases = [([_pin(h, v, x) for v, x in a.items()],
              evaluate(formula, {v.name: x for v, x in a.items()}))
             for a in _inputs(spec)]
    for pins, holds in cases:
        assert h.solve(pins + [lit]) is holds
        assert h.solve(pins + [-lit]) is not holds
    return h


X, Y, W = mk_int_var("oe_x"), mk_int_var("oe_y"), mk_int_var("oe_w")
P = mk_bool_var("oe_p")

SMALL_INTERVALS = [(0, 0), (0, 1), (3, 5), (-3, 3), (-5, -2), (0, 15), (-8, 7)]


# ----- variables and decoding ---------------------------------------------------


@pytest.mark.parametrize("iv", SMALL_INTERVALS)
def test_order_variable_takes_exactly_its_interval(iv):
    h = _Harness({X.name: iv})
    pins = {v: h.lit(mk_eq(X, mk_int(v))) for v in range(iv[0] - 2, iv[1] + 3)}
    assert X.name in h.blaster.varmap.order_vars
    assert X.name not in h.blaster.varmap.int_vars
    assert len(h.blaster.varmap.order_vars[X.name][1]) == iv[1] - iv[0]
    for v, lit in pins.items():
        assert h.solve([lit]) is (iv[0] <= v <= iv[1])
        if iv[0] <= v <= iv[1]:
            assert h.decode()[X.name] == v


def test_wide_variable_stays_binary():
    iv = (0, ORDER_MAX_VALUES)  # one value more than the threshold
    h = _Harness({X.name: iv})
    h.lit(mk_le(X, mk_int(3)))
    assert X.name in h.blaster.varmap.int_vars
    assert X.name not in h.blaster.varmap.order_vars


def test_varmap_decodes_order_variables():
    varmap = VarMap(bool_vars={"p": 1}, int_vars={"b": [2, 3, -4]},
                    order_vars={"x": (-2, [5, 6, 7]), "k": (4, [])})
    # model[v] is the value of variable v; index 0 is unused.
    model = [False, True, True, False, True, True, True, False]
    assert varmap.decode(model) == {"p": True, "b": 1, "x": 0, "k": 4}
    model[7] = True
    assert varmap.decode(model)["x"] == 1
    assert varmap.encodes_int("x") and varmap.encodes_int("b")
    assert not varmap.encodes_int("p")


# ----- channels -------------------------------------------------------------------


@pytest.mark.parametrize("iv", SMALL_INTERVALS)
def test_order_to_binary_channel(iv):
    # W is binary, X order-encoded: W = X needs X's two's-complement bits.
    h = _check_function(X, {X: iv}, WIDE)
    assert h.blaster.order_nodes >= 1


@pytest.mark.parametrize("ivs", [((0, 3), (0, 3)), ((-2, 2), (-1, 2)),
                                 ((-3, 1), (2, 3))])
def test_binary_to_order_channel(ivs):
    # X*Y stays a binary multiplier; its small-interval sum with 1 is
    # order-encoded and needs the product channeled into order form.
    term = mk_mul(X, Y) + 1
    for out in (WIDE, None):
        spec = {X: ivs[0], Y: ivs[1]}
        if out is None:  # an order-encoded output of exactly its range
            values = [evaluate(term, {X.name: a, Y.name: b})
                      for a, b in itertools.product(range(ivs[0][0], ivs[0][1] + 1),
                                                    range(ivs[1][0], ivs[1][1] + 1))]
            out = (min(values), max(values))
        h = _check_function(term, spec, out)
        assert h.blaster.channel_clauses > 0


# ----- arithmetic -------------------------------------------------------------------

ARITH = {
    "add": X + Y,
    "add3": X + Y + 2,
    "sub": mk_sub(X, Y),
    "rsub": mk_sub(Y, X),
    "neg": mk_neg(X),
    "const_sub": mk_sub(mk_int(4), X),
    "scale": mk_mul(mk_int(2), X),
    "neg_scale": mk_mul(mk_int(-3), Y),
    "twice": X + X,
    "cancel": X + mk_neg(X),
    "ite": mk_ite(P, X, Y),
    "ite_const": mk_ite(P, X + 1, mk_int(-1)),
    "tri": X + Y + mk_ite(P, mk_int(1), mk_int(0)),
}


@pytest.mark.parametrize("name", sorted(ARITH))
@pytest.mark.parametrize("out", ["order", "binary"])
def test_order_arithmetic_is_exact(name, out):
    spec = {X: (-2, 3), Y: (0, 3), P: None}
    term = ARITH[name]
    values = [evaluate(term, {X.name: a[X], Y.name: a[Y], P.name: a[P]})
              for a in _inputs(spec)]
    iv = (min(values), max(values)) if out == "order" else WIDE
    h = _check_function(term, spec, iv)
    assert h.blaster.order_nodes >= 1


def test_relabelings_emit_no_clauses():
    h = _Harness({X.name: (0, 4)})
    h.lit(mk_le(X, mk_int(5)))
    before = len(h.blaster.cnf.clauses)
    for term in (X + 3, mk_sub(X, mk_int(2)), mk_neg(X), mk_sub(mk_int(7), X)):
        h.blaster._blast_order(term)
    assert len(h.blaster.cnf.clauses) == before


def test_constant_comparisons_are_one_literal_or_one_and():
    h = _Harness({X.name: (0, 9)})
    x_ge = h.blaster._blast_order(X)[1]  # x_ge[i] is x >= 1+i
    before = len(h.blaster.cnf.clauses)
    assert h.lit(mk_lt(X, mk_int(5))) == -x_ge[4]
    assert h.lit(mk_le(X, mk_int(5))) == -x_ge[5]
    assert h.lit(mk_lt(mk_int(5), X)) == x_ge[5]
    assert h.lit(mk_le(X, mk_int(9))) == h.blaster.true_lit
    assert h.lit(mk_eq(X, mk_int(12))) == h.blaster.false_lit
    assert len(h.blaster.cnf.clauses) == before
    h.lit(mk_eq(X, mk_int(5)))  # x >= 5 and not x >= 6
    assert len(h.blaster.cnf.clauses) == before + 3


# ----- comparisons ------------------------------------------------------------------


@pytest.mark.parametrize("iv", [(0, 4), (-3, 2), (2, 2)])
def test_comparisons_with_constants(iv):
    for c in range(iv[0] - 2, iv[1] + 3):
        k = mk_int(c)
        for formula in (mk_lt(X, k), mk_le(X, k), mk_eq(X, k),
                        mk_lt(k, X), mk_le(k, X)):
            _check_predicate(formula, {X: iv})


@pytest.mark.parametrize("ivs", [((0, 4), (0, 4)), ((-3, 2), (1, 6)),
                                 ((0, 2), (5, 7)), ((5, 7), (0, 2)),
                                 ((-2, 2), (0, 0))])
def test_comparisons_between_small_terms(ivs):
    spec = {X: ivs[0], Y: ivs[1]}
    for formula in (mk_lt(X, Y), mk_le(X, Y), mk_eq(X, Y),
                    mk_lt(Y, X + 1), mk_not(mk_eq(X + Y, mk_int(3)))):
        _check_predicate(formula, spec)


def test_comparisons_between_small_and_wide_terms():
    spec = {X: (-3, 3), W: (-9, 8)}  # W has 18 values: binary
    for formula in (mk_lt(X, W), mk_le(W, X), mk_eq(X, W), mk_eq(X + 2, W),
                    mk_lt(mk_sub(mk_int(2), X), W)):
        h = _check_predicate(formula, spec)
        assert W.name in h.blaster.varmap.int_vars
        assert X.name in h.blaster.varmap.order_vars


# ----- incremental sessions ---------------------------------------------------------


def test_set_bounds_rejects_changes_to_an_order_encoded_variable():
    solver = SmtSolver(incremental=True)
    x = mk_int_var("oe_inc_x")
    solver.set_bounds(x, 0, 5)
    solver.add(mk_le(mk_int(2), x))
    assert solver.check() is CheckResult.SAT
    assert solver._session.blaster.varmap.order_vars.get("oe_inc_x") is not None
    solver.set_bounds(x, 0, 5)  # unchanged bounds are fine
    with pytest.raises(RuntimeError, match="already encoded"):
        solver.set_bounds(x, 0, 9)
    assert solver.check() is CheckResult.SAT
    assert 2 <= solver.model()[x] <= 5


# ----- observability ----------------------------------------------------------------


def test_tseitin_span_counts_order_nodes_and_channel_clauses():
    env = BoundsEnv()
    env.set(X.name, 0, 5)
    env.set(W.name, *WIDE)
    blaster = BitBlaster(bounds=env)
    with telemetry() as tracer:
        blaster.assert_formula(mk_le(X + 1, mk_int(4)))  # order only
        blaster.assert_formula(mk_lt(X + 1, W))  # X + 1 meets binary W
    first, second = [r.attrs for r in tracer.records if r.name == "tseitin"]
    assert first["order_nodes"] == 2 and first["channel_clauses"] == 0
    assert second["order_nodes"] == 0 and second["channel_clauses"] > 0
    assert blaster.channel_clauses == second["channel_clauses"]
