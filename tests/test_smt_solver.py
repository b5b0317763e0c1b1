"""Tests for intervals, bit-blasting and the SMT solver facade."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt.bitblast import BitBlaster, decode_twos_complement
from repro.smt.intervals import BoundsEnv, Interval, infer_intervals, signed_bits
from repro.smt.sat.cdcl import CDCLConfig
from repro.smt.solver import CheckResult, SmtSolver, is_satisfiable, prove
from repro.smt.terms import (
    evaluate,
    mk_and,
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
)


class TestIntervals:
    def test_signed_bits(self):
        assert signed_bits(0) == 1
        assert signed_bits(-1) == 1
        assert signed_bits(1) == 2
        assert signed_bits(127) == 8
        assert signed_bits(-128) == 8
        assert signed_bits(128) == 9

    def test_interval_arithmetic(self):
        a = Interval(-2, 3)
        b = Interval(1, 4)
        assert (a + b) == Interval(-1, 7)
        assert (a - b) == Interval(-6, 2)
        assert (-a) == Interval(-3, 2)
        assert (a * b) == Interval(-8, 12)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(3, 2)

    def test_join(self):
        assert Interval(0, 2).join(Interval(5, 7)) == Interval(0, 7)

    def test_infer(self):
        env = BoundsEnv({"x": Interval(0, 10), "y": Interval(-5, 5)})
        x, y = mk_int_var("x"), mk_int_var("y")
        f = mk_lt(x + y, mk_int(100))
        ivs = infer_intervals(f, env)
        assert ivs[x + y] == Interval(-5, 15)

    def test_ite_interval_is_join(self):
        env = BoundsEnv({"x": Interval(0, 3)})
        x = mk_int_var("x")
        p = mk_bool_var("p")
        t = mk_ite(p, x, mk_int(10))
        ivs = infer_intervals(mk_lt(t, mk_int(99)), env)
        assert ivs[t] == Interval(0, 10)


class TestDecoding:
    def test_twos_complement(self):
        assert decode_twos_complement([False]) == 0
        assert decode_twos_complement([True]) == -1
        assert decode_twos_complement([True, False]) == 1
        assert decode_twos_complement([False, True]) == -2
        assert decode_twos_complement([True, True, False]) == 3


class TestSolverFacade:
    def test_basic_sat_and_model(self):
        solver = SmtSolver()
        x, y = mk_int_var("x"), mk_int_var("y")
        solver.set_bounds(x, 0, 10)
        solver.set_bounds(y, -5, 5)
        solver.add(mk_mul(x, x) <= mk_int(16), x >= mk_int(3), (x + y).eq(2))
        assert solver.check() is CheckResult.SAT
        model = solver.model()
        assert model[x] * model[x] <= 16
        assert model[x] >= 3
        assert model[x] + model[y] == 2
        assert 0 <= model[x] <= 10 and -5 <= model[y] <= 5

    def test_unsat(self):
        solver = SmtSolver()
        x = mk_int_var("ux")
        solver.set_bounds(x, 0, 3)
        solver.add(mk_lt(mk_int(5), x))
        assert solver.check() is CheckResult.UNSAT

    def test_model_unavailable_after_unsat(self):
        solver = SmtSolver()
        solver.add(mk_bool_var("p"), mk_not(mk_bool_var("p")))
        assert solver.check() is CheckResult.UNSAT
        with pytest.raises(RuntimeError):
            solver.model()

    def test_push_pop(self):
        solver = SmtSolver()
        x = mk_int_var("ppx")
        solver.set_bounds(x, 0, 5)
        solver.add(mk_le(mk_int(2), x))
        solver.push()
        solver.add(mk_lt(x, mk_int(2)))
        assert solver.check() is CheckResult.UNSAT
        solver.pop()
        assert solver.check() is CheckResult.SAT

    def test_pop_without_push(self):
        with pytest.raises(RuntimeError):
            SmtSolver().pop()

    def test_assumptions_do_not_persist(self):
        solver = SmtSolver()
        p = mk_bool_var("ap")
        solver.add(mk_or(p, mk_not(p)))
        assert solver.check(mk_not(p)) is CheckResult.SAT
        assert solver.check(p) is CheckResult.SAT

    def test_non_bool_assert_rejected(self):
        with pytest.raises(TypeError):
            SmtSolver().add(mk_int(3))

    def test_check_result_not_boolean(self):
        with pytest.raises(TypeError):
            bool(CheckResult.SAT)

    def test_unknown_on_budget(self):
        # Pigeonhole-flavoured integer problem with a tiny conflict budget.
        solver = SmtSolver(sat_config=CDCLConfig(max_conflicts=1))
        xs = [mk_int_var(f"php{i}") for i in range(6)]
        for x in xs:
            solver.set_bounds(x, 0, 4)
        for i in range(6):
            for j in range(i + 1, 6):
                solver.add(mk_not(mk_eq(xs[i], xs[j])))
        assert solver.check() is CheckResult.UNKNOWN

    def test_prove_helpers(self):
        a, b = mk_int_var("pa"), mk_int_var("pb")
        bounds = {"pa": (-20, 20), "pb": (-20, 20)}
        assert prove(mk_eq(a + b, b + a), bounds)
        assert not prove(mk_eq(mk_sub(a, b), mk_sub(b, a)), bounds)
        assert is_satisfiable(mk_eq(mk_sub(a, b), mk_sub(b, a)), bounds)

    def test_range_constraints_respected(self):
        solver = SmtSolver()
        x = mk_int_var("rangex")
        solver.set_bounds(x, 3, 5)  # range narrower than its bit width
        solver.add(mk_le(mk_int(0), x))  # trivial
        assert solver.check() is CheckResult.SAT
        assert 3 <= solver.model()[x] <= 5
        solver.add(mk_lt(x, mk_int(3)))
        assert solver.check() is CheckResult.UNSAT


class TestBitBlastOps:
    """Exhaustive small-domain checks of each operation's encoding."""

    def _solve_for(self, formula, bounds):
        solver = SmtSolver()
        for name, (lo, hi) in bounds.items():
            solver.set_bounds(name, lo, hi)
        solver.add(formula)
        return solver

    @pytest.mark.parametrize("op_name", ["add", "sub", "mul", "neg"])
    def test_arith_exhaustive(self, op_name):
        x, y, z = mk_int_var("bx"), mk_int_var("by"), mk_int_var("bz")
        ops = {
            "add": (x + y, lambda a, b: a + b),
            "sub": (mk_sub(x, y), lambda a, b: a - b),
            "mul": (mk_mul(x, y), lambda a, b: a * b),
            "neg": (mk_neg(x), lambda a, b: -a),
        }
        term, fn = ops[op_name]
        bounds = {"bx": (-3, 3), "by": (-3, 3), "bz": (-20, 20)}
        for a in range(-3, 4):
            for b in range(-3, 4):
                solver = self._solve_for(
                    mk_and(x.eq(a), y.eq(b), z.eq(term)), bounds
                )
                assert solver.check() is CheckResult.SAT
                assert solver.model()[z] == fn(a, b)

    def test_comparisons_exhaustive(self):
        x, y = mk_int_var("cx"), mk_int_var("cy")
        bounds = {"cx": (-3, 3), "cy": (-3, 3)}
        for a in range(-3, 4):
            for b in range(-3, 4):
                for term, expected in (
                    (mk_lt(x, y), a < b),
                    (mk_le(x, y), a <= b),
                    (mk_eq(x, y), a == b),
                ):
                    formula = mk_and(x.eq(a), y.eq(b), term)
                    assert is_satisfiable(formula, bounds) == expected

    def test_xor_and_implies(self):
        p, q = mk_bool_var("xp"), mk_bool_var("xq")
        # xor(p, q) & (p => q) & p is unsat
        assert not is_satisfiable(mk_and(mk_xor(p, q), mk_implies(p, q), p, q))
        assert is_satisfiable(mk_and(mk_xor(p, q), mk_implies(p, q), mk_not(p)))


@st.composite
def bounded_formula(draw):
    """A random formula over x,y in [-4,4] and p, with its evaluator."""
    x, y = mk_int_var("hx"), mk_int_var("hy")
    p = mk_bool_var("hp")

    def term(depth):
        if depth == 0:
            return draw(st.sampled_from(
                [x, y, mk_int(draw(st.integers(-3, 3)))]
            ))
        kind = draw(st.sampled_from(["add", "sub", "mul", "ite", "neg"]))
        if kind == "add":
            return term(depth - 1) + term(depth - 1)
        if kind == "sub":
            return mk_sub(term(depth - 1), term(depth - 1))
        if kind == "mul":
            return mk_mul(term(depth - 1), term(depth - 1))
        if kind == "neg":
            return mk_neg(term(depth - 1))
        return mk_ite(boolean(depth - 1), term(depth - 1), term(depth - 1))

    def boolean(depth):
        if depth == 0:
            return draw(st.sampled_from([p, mk_int(0).eq(mk_int(0))]))
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

    return boolean(2)


@given(bounded_formula())
@settings(max_examples=60, deadline=None)
def test_pipeline_agrees_with_brute_force(formula):
    """Property: sat answers match exhaustive evaluation on small domains."""
    expected = any(
        evaluate(formula, {"hx": a, "hy": b, "hp": pv}) is True
        for a in range(-4, 5)
        for b in range(-4, 5)
        for pv in (False, True)
    )
    got = is_satisfiable(formula, bounds={"hx": (-4, 4), "hy": (-4, 4)})
    assert got == expected


#: Variable bounds on both sides of the order-encoding threshold
#: (bitblast.ORDER_MAX_VALUES = 16 values): the random terms then mix
#: order-encoded and binary operands, including multipliers, sums too
#: wide for the order form and comparisons of a small with a wide term.
THRESHOLD_BOUNDS = [
    {"hx": (0, 15), "hy": (0, 16)},
    {"hx": (-4, 4), "hy": (-9, 8)},
    {"hx": (-20, -3), "hy": (1, 3)},
]


@given(bounded_formula(), st.sampled_from(THRESHOLD_BOUNDS))
@settings(max_examples=200, deadline=None)
def test_pipeline_agrees_with_brute_force_across_threshold(formula, bounds):
    """Property: as above, with order-encoded and binary operands mixed."""
    (xlo, xhi), (ylo, yhi) = bounds["hx"], bounds["hy"]
    expected = any(
        evaluate(formula, {"hx": a, "hy": b, "hp": pv}) is True
        for a in range(xlo, xhi + 1)
        for b in range(ylo, yhi + 1)
        for pv in (False, True)
    )
    assert is_satisfiable(formula, bounds=bounds) == expected


# ----- one check path: a single check is a session that lives for one check --


def _parity_deck():
    """(bounds, formulas, expected) cases over bounded ints and bools."""
    x, y = mk_int_var("par_x"), mk_int_var("par_y")
    a, b, c = (mk_bool_var(f"par_{n}") for n in "abc")
    holes = {(p, h): mk_bool_var(f"par_php_{p}_{h}")
             for p in range(5) for h in range(4)}
    php = [mk_or(*[holes[p, h] for h in range(4)]) for p in range(5)] + [
        mk_or(mk_not(holes[p, h]), mk_not(holes[q, h]))
        for h in range(4) for p in range(5) for q in range(p + 1, 5)]
    wide = {"par_x": (2, 60), "par_y": (2, 60)}
    return [
        pytest.param({"par_x": (0, 10), "par_y": (0, 10)},
                     [mk_eq(mk_mul(x, y), mk_int(12)), mk_lt(x, y)],
                     CheckResult.SAT, id="int-sat"),
        pytest.param(wide, [mk_eq(mk_mul(x, y), mk_int(3001))],
                     CheckResult.UNSAT, id="int-unsat"),
        pytest.param(wide, [mk_eq(mk_mul(x, y), mk_int(3009))],
                     CheckResult.SAT, id="int-sat-wide"),
        pytest.param({}, [mk_xor(a, b), mk_implies(b, c), mk_or(a, c)],
                     CheckResult.SAT, id="bool-sat"),
        pytest.param({}, [mk_or(a, b), mk_or(a, mk_not(b)),
                          mk_or(mk_not(a), b), mk_or(mk_not(a), mk_not(b))],
                     CheckResult.UNSAT, id="bool-unsat"),
        pytest.param({"par_x": (-8, 8), "par_y": (-8, 8)},
                     [mk_le(mk_ite(a, x, mk_neg(x)), mk_sub(y, mk_int(3))),
                      mk_implies(mk_not(a), mk_lt(y, mk_int(0)))],
                     CheckResult.SAT, id="mixed-sat"),
        pytest.param({}, php, CheckResult.UNSAT, id="php-unsat"),
    ]


@pytest.mark.parametrize("bounds,formulas,expected", _parity_deck())
def test_single_check_matches_first_incremental_check(
        monkeypatch, bounds, formulas, expected):
    """A one-shot check and a fresh incremental session's first check
    build the same CNF and run the same search."""
    import repro.smt.solver as solver_mod

    sessions = []

    class Recorded(solver_mod._Session):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sessions.append(self)

    monkeypatch.setattr(solver_mod, "_Session", Recorded)
    runs = []
    for incremental in (False, True):
        solver = SmtSolver(incremental=incremental)
        for var, (lo, hi) in bounds.items():
            solver.set_bounds(var, lo, hi)
        solver.add(*formulas)
        assert solver.check() is expected
        runs.append((solver.stats, sessions[-1].blaster.cnf))
    (one, one_cnf), (inc, inc_cnf) = runs
    assert len(sessions) == 2
    assert (one.cnf_vars, one.cnf_clauses) == (inc.cnf_vars, inc.cnf_clauses)
    assert one_cnf.clauses == inc_cnf.clauses
    for field in ("conflicts", "decisions"):
        assert getattr(one.sat, field) == getattr(inc.sat, field)
    # Units propagated while loading count in the solver's lifetime
    # counters, which the per-check view of an incremental session
    # leaves out; the lifetime views match field for field.
    assert one.sat_lifetime == inc.sat_lifetime
