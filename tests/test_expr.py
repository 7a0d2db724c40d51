"""Expression kernel: parsing, canonical forms, calculus, evaluation."""

import functools
import io
import math
import random
import struct
import time
from fractions import Fraction

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # optional test dependency, like sympy in test_cross_check.py
    st = None

from liesym import (
    NAMED_FIELDS,
    DomainError,
    Expr,
    GridSpec,
    Num,
    ParseError,
    Power,
    Product,
    SampleSpec,
    SamplingError,
    Sum,
    UnboundSymbolError,
    VectorField,
    add,
    bind_expanded,
    build_instance,
    diff,
    equiv_numeric,
    eval_at,
    exceptional_exponents,
    expand,
    family_solution,
    gss_preset,
    is_zero,
    monomial,
    mul,
    num,
    onshell_remainder,
    parse,
    pow_,
    simplify,
    substitute,
    sym,
    to_callable,
    to_text,
    weak_cs_report,
)
from liesym import expr, orbits
from liesym.expr import clear_memo
from liesym.family import KEPT, PARAMETERS

from test_compiled_verdicts import measure_at, reference_measure
from test_orbits import sample_in_region

X, Y, U, A, LAM = sym("x"), sym("y"), sym("u"), sym("a"), sym("lam")


class TestParse:
    def test_difference_of_squares(self):
        e = parse("x^2 - y^2")
        assert e == Sum((pow_(X, 2), mul(num(-1), pow_(Y, 2))))

    def test_conformal_factor_text(self):
        e = parse("1 + lam^2*(x^2+y^2) + 2*lam*y")
        built = num(1) + pow_(LAM, 2) * (pow_(X, 2) + pow_(Y, 2)) + 2 * LAM * Y
        assert e == built

    def test_canonical_product_order(self):
        e = parse("x^(-1)*ux*a")
        assert e == Product((A, sym("ux"), pow_(X, -1)))

    def test_division_becomes_negative_power(self):
        assert parse("a/x") == mul(A, pow_(X, -1))

    def test_decimal_literals_exact(self):
        assert parse("1.5") == Num(Fraction(3, 2))
        assert parse("0.25*u") == mul(Num(Fraction(1, 4)), U)

    def test_unary_minus_binds_below_power(self):
        assert parse("-x^2") == mul(num(-1), pow_(X, 2))

    def test_signed_exponent(self):
        assert parse("x^-2") == pow_(X, -2)

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ParseError) as err:
            parse("x + * y")
        assert err.value.offset == 4

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse("(x + y")


if st is not None:
    # the linear forms c0 + c1*x + c2*y of TestCanonical, and the points
    # they are evaluated at
    _LINEAR_FORMS = st.tuples(*[st.integers(-3, 3)] * 3).filter(lambda c: c[1] or c[2])
    _LINEAR_COORDS = st.floats(0.3, 1.7)


class TestCanonical:
    def test_power_merge(self):
        assert parse("x*x^2") == pow_(X, 3)
        # pow_ distributes (-2x)^(1/2) over its product base; the pieces
        # fold back into one product
        half = pow_(parse("-2*x"), num(Fraction(1, 2)))
        assert mul(half, half) == parse("-2*x")

    def test_zero_coefficient_drops(self):
        assert parse("0*uxx + uyy") == sym("uyy")

    def test_symbolic_exponent_cancellation(self):
        c = parse("1 + lam^2*(x^2+y^2) + 2*lam*y")
        assert mul(pow_(c, parse("a/2")), pow_(c, parse("-a/2"))) == num(1)

    def test_power_of_power_collapses(self):
        e = pow_(pow_(X, parse("-a/4")), parse("1+4/a"))
        assert isinstance(e, Power) and e.base == X
        # exponent product stays unexpanded until expand() is applied
        assert expand(e) == pow_(X, parse("-a/4 - 1"))

    def test_exponent_zero_and_one(self):
        assert pow_(X, 0) == num(1)
        assert pow_(X, 1) == X

    def test_rational_power_folds(self):
        assert pow_(num(2), -2) == Num(Fraction(1, 4))
        assert pow_(Num(Fraction(3, 2)), 2) == Num(Fraction(9, 4))

    def test_negation_pair_of_sums_normalizes(self):
        uy = sym("uy")
        left = mul(num(-1), uy, parse("y^2 - x^2"))
        right = mul(uy, parse("x^2 - y^2"))
        assert left == right

    def test_sum_and_its_negation_merge_into_one_factor(self):
        # sign normalization turns (1+2y) into (-1-2y): the two must then
        # merge, or diff sees one factor where there are two
        assert to_text(mul(parse("-1-2*y"), parse("1+2*y"))) == "-(-1 - 2*y)^2"
        assert mul(pow_(parse("-1+2*x"), -1), parse("1-2*x")) == num(-1)
        # a sum with a constant term matches its negation; equal term
        # counts alone do not make a match
        assert parse("(1 + x)^2*(-1 - x)^3") == parse("(-1 - x)^5")
        assert len(parse("(1 + x)^2*(1 - x)^3").factors) == 2

    def test_expanded_sum_with_a_common_factor_is_sign_normalized(self):
        # -x - x^2 and x + x^2 share the factor x: the flip of a bare sum
        # negates term by term and must not factor it into a product
        left = mul(Y, expand(parse("-x*(x + 1)")))
        right = mul(num(-1), Y, expand(parse("x*(x + 1)")))
        assert left == right
        assert to_text(left) == "-y*(x + x^2)"

    if st is not None:
        # (which form, negated, exponent) per factor; two forms at most, so
        # a form and its negation meet often
        @settings(max_examples=300, deadline=None, database=None)
        @given(st.lists(_LINEAR_FORMS, min_size=1, max_size=2),
               st.lists(st.tuples(st.integers(0, 1), st.booleans(),
                                  st.sampled_from([-2, -1, 1, 2, 3])),
                        min_size=2, max_size=4),
               _LINEAR_COORDS, _LINEAR_COORDS)
        def test_products_of_linear_forms_repeat_no_base(self, form_list, factor_list, x, y):
            values = []
            parts = []
            for which, negated, k in factor_list:
                c0, c1, c2 = form_list[which % len(form_list)]
                s = -1 if negated else 1
                values.append(s * (c0 + c1 * x + c2 * y))
                form = add(num(s * c0), mul(num(s * c1), X), mul(num(s * c2), Y))
                parts.append(pow_(form, k))
            e = mul(*parts)
            if isinstance(e, Product):
                bases = [f.base if isinstance(f, Power) else f
                         for f in e.factors if not isinstance(f, Num)]
                assert len(set(bases)) == len(bases), to_text(e)
            if min(map(abs, values)) < 0.5:
                return  # too close to a pole for central differences
            env = {"x": x, "y": y}

            def check_derivative(f, name):
                d = diff(f, name)
                h = 1e-6
                approx = (eval_at(f, dict(env, **{name: env[name] + h}))
                          - eval_at(f, dict(env, **{name: env[name] - h}))) / (2 * h)
                exact = eval_at(d, env)
                scale = 1 + abs(exact) + abs(eval_at(f, env))
                assert abs(exact - approx) <= 1e-5 * scale, (to_text(f), name)
                return d

            for first in ("x", "y"):
                d = check_derivative(e, first)
                for second in ("x", "y"):
                    check_derivative(d, second)

    @pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 1, 0)])
    def test_negated_sums_merge_past_a_sum_of_equal_hash(self, order):
        # -1 - 2*x has the terms of -1 - x with other coefficients; met in
        # any order between them, it must not keep -1 - x and 1 + x apart
        # as (-1 - 2*x)^(-2)*(-1 - x)^(-2)*(1 + x)^(-2)
        factors = [pow_(parse(b), -2) for b in ("-1 - x", "-1 - 2*x", "1 + x")]
        clear_memo()
        assert mul(*(factors[i] for i in order)) == parse("(-1 - 2*x)^(-2)*(-1 - x)^(-4)")

    def test_a_sum_from_a_distributed_power_merges_with_its_negation(self):
        # P = -2*x*(-1 - x) keeps its fractional powers whole; their product
        # P^2 distributes, and its (-1 - x)^2 must merge with (1 + x)^(-1)
        p = parse("2*x*(1 + x)")
        half, three_halves = num(Fraction(1, 2)), num(Fraction(3, 2))
        e = mul(pow_(p, half), pow_(p, three_halves), pow_(parse("1 + x"), -1))
        assert e == parse("-4*x^2*(-1 - x)")

    if st is not None:
        # b^m (-b)^n with an integer exponent is (-1)^n b^(m+n) (or, at an
        # integer m, (-1)^m (-b)^(m+n)): a canonical product keeps one base
        @settings(max_examples=300, deadline=None, database=None)
        @given(st.lists(_LINEAR_FORMS, min_size=1, max_size=2),
               st.lists(st.tuples(st.integers(0, 1), st.booleans(), st.sampled_from(
                   [-2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
                    Fraction(1, 3)])), min_size=2, max_size=4),
               _LINEAR_COORDS, _LINEAR_COORDS)
        def test_no_two_bases_negate_each_other_at_an_integer_exponent(
                self, form_list, factor_list, x, y):
            parts, values = [], []
            for which, negated, k in factor_list:
                c0, c1, c2 = form_list[which % len(form_list)]
                s = -1 if negated else 1
                values.append((s * (c0 + c1 * x + c2 * y), Fraction(k)))
                form = add(num(s * c0), mul(num(s * c1), X), mul(num(s * c2), Y))
                parts.append(pow_(form, num(k)))
            e = mul(*parts)
            powers = [(f.base, f.exponent) if isinstance(f, Power) else (f, num(1))
                      for f in (e.factors if isinstance(e, Product) else (e,))
                      if not isinstance(f, Num)]
            for i, (b1, p1) in enumerate(powers):
                for b2, p2 in powers[i + 1:]:
                    integral = any(p.value.denominator == 1 for p in (p1, p2))
                    if isinstance(b1, Sum) and integral:
                        assert not is_zero(add(b1, b2)), to_text(e)
            if any(abs(v) < 0.3 or (v < 0 and k.denominator != 1) for v, k in values):
                return  # near a pole, or off the real domain
            want = math.prod(v ** k for v, k in values)
            got = eval_at(e, {"x": x, "y": y})
            assert abs(got - want) <= 1e-9 * (1 + abs(want)), to_text(e)

    def test_no_automatic_expansion(self):
        e = parse("lam^2*(x^2+y^2)")
        assert isinstance(e, Product)

    def test_idempotence_on_formulas(self):
        for text in (
            "x^2 - y^2",
            "1 + lam^2*(x^2+y^2) + 2*lam*y",
            "uxx + uyy + a/x*ux - g1*x^(r)*u^(c1) - g2*u^(c2)",
            "(x^2 - (y+lam*(x^2+y^2))^2)^(-1/4*a)",
        ):
            e = parse(text)
            assert simplify(e) == e

    def test_idempotence_random(self):
        rng = random.Random(20240811)
        for _ in range(200):
            e = _random_expr(rng, depth=4)
            s = simplify(e)
            assert simplify(s) == s

    def test_common_power_factors_out_of_sums(self):
        c = sym("c")
        e = parse("x^2") * pow_(c, -2) - parse("y^2") * pow_(c, -2)
        assert e == mul(pow_(c, -2), parse("x^2 - y^2"))

    def test_no_factoring_past_a_constant_term(self):
        e = parse("1 + lam^2*(x^2+y^2) + 2*lam*y")
        assert isinstance(e, Sum) and len(e.terms) == 3

    def test_expand_flattens_factored_forms(self):
        e = parse("vss*(-4*s + 4*x^2)")
        assert expand(e) == expand(parse("4*x^2*vss - 4*s*vss"))
        assert expand(e) != e

    def test_expand_distributes(self):
        assert expand(parse("lam*(x+y)")) == expand(parse("lam*x + lam*y"))
        assert expand(parse("(x+y)^2")) == parse("x^2 + 2*x*y + y^2")


class TestPrintRoundTrip:
    CASES = (
        "x^2 - y^2",
        "1 + 2*lam*y + lam^2*(x^2 + y^2)",
        "a*ux*x^(-1)",
        "uxx + uyy - ux*x^(-1) - 1/4*u^(-3) + 3/2*u^(-7)*x^2",
        "(x^2 - (y + lam*(x^2 + y^2))^2)^(-1/4*a)",
        "s^(1/4)",
        "-4*s*vss - 2*vs - 1/4*v^(-3)",
        "log^(a_sol) - a_sol*log*x",  # no name is reserved
    )

    @pytest.mark.parametrize("text", CASES)
    def test_fixed_forms(self, text):
        e = parse(text)
        assert parse(to_text(e)) == e

    def test_random_round_trip(self):
        rng = random.Random(99)
        for _ in range(300):
            e = _random_expr(rng, depth=4)
            assert parse(to_text(e)) == e

    def test_prints_constants_past_the_int_str_digit_limit(self):
        # 2^46656 has 14045 digits; str() refuses past 4300 by default
        big = 2 ** 46656
        text = to_text(pow_(num(2), 46656))
        assert len(text) == 14045 and text.endswith(str(big % 10 ** 30).zfill(30))
        assert to_text(pow_(num(-2), -46656)) == "1/" + text
        assert to_text(pow_(X, num(big))).startswith("x^")
        assert parse(text) == pow_(num(2), 46656)


class TestConstantPowerBound:
    """A constant integer power folds to one Num only up to FOLD_BITS bits."""

    @pytest.mark.parametrize("base,exponent", [
        (2, 10 ** 9), (-3, -10 ** 9), (Fraction(2, 3), 10 ** 400), (2, expr.FOLD_BITS + 1)])
    def test_large_power_returns_at_once_unfolded(self, base, exponent):
        t0 = time.perf_counter()
        e = pow_(num(base), exponent)
        assert time.perf_counter() - t0 < 0.5
        assert isinstance(e, Power) and e.base == num(base) and e.exponent == num(exponent)

    @pytest.mark.parametrize("base,exponent", [
        (2, 10 ** 9), (-3, -10 ** 9), (Fraction(2, 3), 10 ** 400), (2, expr.FOLD_BITS + 1)])
    def test_unfolded_power_is_a_fixed_point_and_round_trips(self, base, exponent):
        e = pow_(num(base), exponent)
        assert simplify(e) == e
        assert parse(to_text(e)) == e
        assert to_text(parse(to_text(e))) == to_text(e)

    def test_folds_up_to_the_bound(self):
        assert pow_(num(2), expr.FOLD_BITS) == num(2 ** expr.FOLD_BITS)
        assert pow_(num(Fraction(1, 2)), -expr.FOLD_BITS) == num(2 ** expr.FOLD_BITS)
        assert pow_(num(-1), 10 ** 9 + 1) == num(-1)
        assert pow_(num(-1), -10 ** 400) == num(1)

    def test_unfolded_powers_merge_by_base(self):
        big = pow_(num(2), 10 ** 9)
        assert mul(big, pow_(num(2), -10 ** 9)) == num(1)
        assert mul(big, big) == pow_(num(2), 2 * 10 ** 9)


def _random_expr(rng, depth):
    """Random canonical expression over a small positive-friendly pool."""
    symbols = [X, Y, U, sym("s"), A]
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Num(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        return rng.choice(symbols)
    kind = rng.randrange(3)
    if kind == 0:
        return mul(*(_random_expr(rng, depth - 1) for _ in range(rng.randint(2, 3))))
    if kind == 1:
        return _random_expr(rng, depth - 1) + _random_expr(rng, depth - 1)
    exponent = rng.choice([-2, -1, 2, 3, Fraction(1, 2), Fraction(-1, 2)])
    return pow_(_random_expr(rng, depth - 1), num(exponent))


class TestDiff:
    def test_polynomial(self):
        assert diff(parse("x^2 - y^2"), "x") == parse("2*x")

    def test_power_rule_symbolic_exponent(self):
        assert diff(parse("u^(c1)"), "u") == parse("c1*u^(c1-1)")

    def test_conformal_factor_in_lam(self):
        c = parse("1 + lam^2*(x^2+y^2) + 2*lam*y")
        assert diff(c, "lam") == parse("2*lam*(x^2+y^2) + 2*y")

    def test_constant_derivative_is_zero(self):
        assert diff(parse("3/2"), "x") == num(0)
        assert diff(parse("y^2"), "x") == num(0)

    def test_exponent_containing_variable_is_refused(self):
        # d(b^p)/dx needs log b once p holds x; the kernel has no logarithm
        with pytest.raises(ValueError, match="exponent y depends on y"):
            diff(pow_(X, sym("y")), "y")
        with pytest.raises(ValueError, match=r"exponent 2\*x depends on x"):
            diff(mul(Y, pow_(U, mul(2, X))), "x")
        assert diff(pow_(U, X), "y") == num(0)  # a constant in y

    def test_linearity_random(self):
        # canonical forms group factored terms; linearity is structural
        # once both routes are explicitly expanded
        rng = random.Random(4242)
        alpha = Num(Fraction(7, 3))
        for _ in range(100):
            e1 = _random_expr(rng, 3)
            e2 = _random_expr(rng, 3)
            lhs = diff(alpha * e1 + e2, "x")
            rhs = alpha * diff(e1, "x") + diff(e2, "x")
            assert expand(lhs) == expand(rhs)

    def test_against_central_differences(self):
        rng = random.Random(31337)
        h = 1e-6
        checked = 0
        while checked < 100:
            e = _random_expr(rng, 3)
            if "x" not in e.free_symbols():
                continue
            env = {name: rng.uniform(0.5, 2.0) for name in e.free_symbols()}
            d = diff(e, "x")
            try:
                exact = eval_at(d, env)
                hi = dict(env, x=env["x"] + h)
                lo = dict(env, x=env["x"] - h)
                approx = (eval_at(e, hi) - eval_at(e, lo)) / (2 * h)
            except DomainError:
                continue
            checked += 1
            assert abs(exact - approx) <= 1e-5 * (1 + abs(exact))


class TestSubstitute:
    def test_simple(self):
        assert substitute(parse("x^2 - y^2"), {"x": parse("2*x")}) == parse("4*x^2 - y^2")

    def test_power_solution_value(self):
        e = substitute(U, {"u": parse("(x^2-y^2)^(1/4)")})
        assert e == parse("(x^2-y^2)^(1/4)")

    def test_simultaneous_swap(self):
        e = parse("x + y")
        assert substitute(e, {"x": Y, "y": X}) == e
        assert substitute(parse("x - y"), {"x": Y, "y": X}) == parse("y - x")

    def test_substitute_then_eval_matches_composed_env(self):
        rng = random.Random(555)
        g = parse("1 + u^2")
        for _ in range(50):
            e = _random_expr(rng, 3)
            if "x" not in e.free_symbols():
                continue
            names = e.free_symbols() | {"u"}
            env = {n: rng.uniform(0.5, 2.0) for n in names}
            composed = dict(env)
            composed["x"] = eval_at(g, env)
            try:
                lhs = eval_at(substitute(e, {"x": g}), env)
                rhs = eval_at(e, composed)
            except DomainError:
                continue
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestEval:
    def test_conformal_factor_value(self):
        c = parse("1 + lam^2*(x^2+y^2) + 2*lam*y")
        assert eval_at(c, {"x": 1, "y": 2, "lam": 1}) == 10.0

    def test_quarter_power(self):
        e = parse("(x^2-y^2)^(1/4)")
        assert eval_at(e, {"x": 2, "y": 1}) == pytest.approx(3 ** 0.25, rel=1e-15)

    def test_fractional_power_of_negative_base(self):
        with pytest.raises(DomainError):
            eval_at(parse("x^(-1/2)"), {"x": -1.0})

    def test_integer_power_of_negative_base(self):
        assert eval_at(parse("x^3"), {"x": -2.0}) == -8.0

    def test_zero_to_negative_power(self):
        with pytest.raises(DomainError):
            eval_at(parse("x^(-1)"), {"x": 0.0})

    def test_unbound_symbol(self):
        with pytest.raises(UnboundSymbolError):
            eval_at(parse("x + y"), {"x": 1.0})

    def test_compiled_symbolic_exponent(self):
        e = pow_(X, Y)
        assert to_callable(e, ("x", "y"))(2.0, 3.0) == eval_at(e, {"x": 2.0, "y": 3.0}) == 8.0

    def test_compiled_matches_interpreter(self):
        rng = random.Random(777)
        for _ in range(50):
            e = _random_expr(rng, 3)
            names = sorted(e.free_symbols())
            fn = to_callable(e, names)
            env = {n: rng.uniform(0.5, 2.0) for n in names}
            try:
                expected = eval_at(e, env)
            except DomainError:
                with pytest.raises(DomainError):
                    fn(*(env[n] for n in names))
                continue
            assert fn(*(env[n] for n in names)) == expected

    def test_compiled_gss_family_residual_matches_interpreter(self):
        res = substitute(gss_preset().delta, family_solution(-1, 1).jet())
        fn = to_callable(res, ("x", "y"))
        for x, y in sample_in_region(1.0, 300, seed=11):
            try:
                expected = eval_at(res, {"x": x, "y": y})
            except DomainError:
                with pytest.raises(DomainError):
                    fn(x, y)
                continue
            assert fn(x, y) == expected

    def test_compiled_shares_repeated_subexpressions(self):
        # the GSS family residual is a 150-node tree with 6 distinct
        # powers among 33 occurrences; each distinct power is computed
        # once, its 5 squares call math.pow directly as _mpow, and so does
        # its other power where its base is positive
        res = substitute(gss_preset().delta, family_solution(-1, 1).jet())
        powers = set()
        stack = [res]
        while stack:
            node = stack.pop()
            if isinstance(node, Power):
                powers.add(node)
                stack += [node.base, node.exponent]
            elif isinstance(node, (Sum, Product)):
                stack += node.terms if isinstance(node, Sum) else node.factors
        fn = to_callable(res, ("x", "y"))
        calls = []

        def counting(name):
            real = fn.__globals__[name]

            def counted(b, p):
                calls.append((name, p))
                return real(b, p)
            return counted

        for name in ("_pow", "_mpow"):
            fn.__globals__[name] = counting(name)
        fn(0.6, -0.4)
        assert len(powers) == 6
        assert len(calls) == len(powers)
        assert [c for c in calls if c[1] == 2.0] == [("_mpow", 2.0)] * 5
        assert {name for name, _ in calls} == {"_mpow"}


class TestEvenPowers:
    # an integer power compiles to math.pow itself, with OverflowError and
    # ValueError handlers around the body; it must be _real_pow bit for bit
    POINTS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-200, -1e-200, 3.7, -3.7]

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_is_real_pow_bit_for_bit(self, n):
        fn = to_callable(pow_(X, num(n)), ("x",))
        assert fn.__globals__["_mpow"] is math.pow
        for x in self.POINTS:
            got, want = fn(x), expr._real_pow(x, float(n))
            assert struct.pack("<d", got) == struct.pack("<d", want), (x, got, want)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_overflow_is_a_domain_error(self, n):
        with pytest.raises(DomainError):
            expr._real_pow(1e200, float(n))
        with pytest.raises(DomainError):
            to_callable(pow_(X, num(n)), ("x",))(1e200)

    @pytest.mark.parametrize("p", [3, -2, Fraction(1, 2), Fraction(-7, 4)])
    def test_other_powers_are_real_pow_bit_for_bit(self, p):
        # an odd or negative integer power is math.pow itself, as a positive
        # even one; a fractional power is (_mpow(b, p) if b > 0.0 else
        # _pow(b, p)): math.pow itself where the base is positive, _real_pow
        # elsewhere
        fn = to_callable(pow_(X, num(p)), ("x",))
        calls = []
        fn.__globals__["_pow"] = lambda b, q: calls.append(b) or expr._real_pow(b, q)
        for x in self.POINTS:
            want = _outcome(lambda v: expr._real_pow(v, float(p)), x)
            assert _outcome(fn, x) == want, (x, p)
        assert all(not b > 0.0 for b in calls)
        integer = Fraction(p).denominator == 1
        assert len(calls) == (0 if integer else sum(not x > 0.0 for x in self.POINTS))
        assert ("_pow" in fn.__code__.co_names) != integer

    def test_a_symbolic_exponent_takes_the_same_rule(self):
        fn = to_callable(pow_(X, Y), ("x", "y"))
        for x in self.POINTS:
            for y in (0.5, -3.0, 2.0, math.inf):
                want = _outcome(expr._real_pow, x, y)
                assert _outcome(fn, x, y) == want, (x, y)

    def test_odd_and_negative_powers_keep_real_pow(self):
        # math.pow(-0.0, 3.0) is -0.0, and math.pow(0.0, -2.0) raises
        # ValueError, which is DomainError on both evaluators
        inverse_square = pow_(X, num(-2))
        assert math.copysign(1.0, to_callable(pow_(X, num(3)), ("x",))(-0.0)) == -1.0
        with pytest.raises(DomainError, match="negative power"):
            to_callable(inverse_square, ("x",))(0.0)
        with pytest.raises(DomainError, match="negative power"):
            eval_at(inverse_square, {"x": 0.0})


def _compiled(e, names, constants=None):
    """``e`` compiled alone, with ``constants`` folded in."""
    return expr._compile((e,), names, lambda ref, let: ref(e), constants)


def _outcome(fn, *args):
    """The bits of fn(*args), or DomainError."""
    try:
        return struct.pack("<d", fn(*args))
    except DomainError:
        return DomainError


if st is not None:
    # the trees of TestFoldedConstants: over the arguments x and y and the
    # constants k and j, every leaf positive; plain trees hold no constant
    _FOLD_NUM_EXPONENTS = st.sampled_from([-2, -1, 2, 3, Fraction(1, 2), Fraction(-1, 2)]).map(num)
    _FOLD_TREES = st.recursive(
        st.one_of(st.sampled_from([X, Y, sym("k"), sym("j")]),
                  st.builds(lambda n, d: Num(Fraction(n, d)),
                            st.integers(1, 6), st.integers(1, 4))),
        lambda kids: st.one_of(
            st.builds(mul, kids, kids),
            st.builds(add, kids, kids),
            st.builds(pow_, kids, st.one_of(_FOLD_NUM_EXPONENTS, st.sampled_from([
                sym("k"), mul(num(-1), sym("k")), add(sym("k"), sym("j")),
                mul(sym("k"), sym("j")), add(sym("j"), num(1))])))),
        max_leaves=8)
    _FOLD_PLAIN_TREES = st.recursive(
        st.one_of(st.sampled_from([X, Y]),
                  st.builds(lambda n, d: Num(Fraction(n, d)),
                            st.integers(-6, 6), st.integers(1, 4))),
        lambda kids: st.one_of(
            st.builds(mul, kids, kids),
            st.builds(add, kids, kids),
            st.builds(pow_, kids, _FOLD_NUM_EXPONENTS)),
        max_leaves=8)
    _FOLD_VALUES = st.builds(Fraction, st.integers(1, 12), st.integers(1, 4))
    _FOLD_COORDS = st.floats(0.5, 2.0)


class TestFoldedConstants:
    """``_compile`` with a table of exact values folds the subtrees free of
    its arguments."""

    K = sym("k")

    def test_constant_subtrees_fold_to_literals(self):
        fn = _compiled(parse("(k + 1)^2 * x + k^(1/2) * y"), ("x", "y"), {"k": Fraction(1, 4)})
        assert fn(1.0, 2.0) == 1.5625 * 1.0 + math.pow(0.25, 0.5) * 2.0
        # a term free of the arguments folds whole
        assert _compiled(parse("x + k*m"), ("x",), {"k": 2, "m": 3})(1.5) == 7.5

    def test_folded_exponent_takes_the_numeric_path(self):
        # x^(2k) at k = 1 is a square: math.pow, with no _real_pow call
        fn = _compiled(pow_(X, mul(num(2), self.K)), ("x",), {"k": 1})
        fn.__globals__["_pow"] = None
        assert fn(-3.0) == 9.0
        assert "_mpow" in fn.__code__.co_names and "_pow" not in fn.__code__.co_names

    def test_zero_coefficient_drops_the_term(self):
        # at k = 0 the term k * x^(-1) is gone, as substitute would drop it,
        # so x = 0 is no longer off the domain
        e = add(Y, mul(self.K, pow_(X, num(-1))))
        assert _compiled(e, ("x", "y"), {"k": 0})(0.0, 2.0) == 2.0
        with pytest.raises(DomainError):
            _compiled(e, ("x", "y"), {"k": 1})(0.0, 2.0)
        # a term free of the arguments that folds to 0, and a sum whose
        # every term does (x*k + y*k would be the product k*(x + y))
        assert _compiled(parse("x + k*m"), ("x",), {"k": 0, "m": 3})(1.5) == 1.5
        assert _compiled(parse("x*k + y*j"), ("x", "y"), {"k": 0, "j": 0})(1.0, 2.0) == 0.0

    def test_unit_coefficient_is_left_out(self):
        fn = _compiled(mul(self.K, X, Y), ("x", "y"), {"k": 1})
        assert fn(0.1, 0.3) == 0.1 * 0.3

    def test_a_literal_past_the_double_range_is_bound_as_inf(self):
        # 10^200 * 10^200 folds to no float: it is bound as inf, and an
        # infinite value is off the domain for every consumer
        e = add(X, mul(self.K, sym("j")))
        table = {"k": 10 ** 200, "j": 10 ** 200}
        fn = _compiled(e, ("x",), table)
        assert math.isinf(fn(1.0))
        # the grid's measure masks the node
        assert expr.to_row_kernel(e, ("x", "y"), constants=table)([1.0])(0.0) == ([], [0], 1)

    def test_a_constant_past_the_double_range_is_off_the_domain_on_both_paths(self):
        # k^(j^2 k^2) at k = 4, j = 6 is 2^1152: substituted, it is a Num the
        # compile binds as inf; folded, the measure is not finite at any point
        e = pow_(self.K, mul(pow_(sym("j"), num(2)), pow_(self.K, num(2))))
        table = {"k": Fraction(4), "j": Fraction(6)}
        assert to_callable(substitute(e, table), ("x",))(1.0) == math.inf
        row = expr.to_row_kernel(e, ("x", "y"), constants=table)([0.5, 1.0, 2.0])
        assert row(0.0) == ([], [0, 0, 0], 3)

    def test_eval_at_agrees_with_the_compile_past_the_double_range(self):
        # x^(2^1152): the exponent is past the double range, the value is
        # not, but where |x| > 1
        e = substitute(pow_(X, pow_(self.K, mul(pow_(sym("j"), num(2)), pow_(self.K, num(2))))),
                       {"k": 4, "j": 6})
        fn = to_callable(e, ("x",))
        for x, want in ((1.0, 1.0), (0.5, 0.0), (-0.5, 0.0), (-1.0, 1.0)):
            assert eval_at(e, {"x": x}) == want == fn(x)
        for value in (fn, lambda x: eval_at(e, {"x": x})):
            with pytest.raises(DomainError, match="overflow"):
                value(2.0)
        # an odd exponent keeps the sign of the base
        odd = add(e.exponent, num(1))
        assert math.copysign(1.0, eval_at(pow_(X, odd), {"x": -0.5})) == -1.0
        assert eval_at(pow_(X, odd), {"x": -1.0}) == -1.0
        with pytest.raises(DomainError, match="overflow"):
            eval_at(pow_(X, mul(num(-1), odd)), {"x": 0.5})

    @pytest.mark.parametrize("shift", [0, 1])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_an_exponent_past_the_double_range_keeps_its_parity(self, shift, sign):
        # x^(+-(k^(j^2 k^2) + shift)) at k = 4, j = 6: the exponent is
        # +-2^1152 or the odd +-(2^1152 + 1); the substituted and the folded
        # compile read eval_at's bits (-0.0 for the odd one at x = -0.5), or
        # its DomainError, at every point
        big = pow_(self.K, mul(pow_(sym("j"), num(2)), pow_(self.K, num(2))))
        e = pow_(X, mul(num(sign), add(big, num(shift))))
        table = {"k": Fraction(4), "j": Fraction(6)}
        bound = substitute(e, table)
        for fn in (to_callable(bound, ("x",)), _compiled(e, ("x",), table)):
            for x in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
                assert _outcome(fn, x) == _outcome(lambda x: eval_at(bound, {"x": x}), x), x

    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_constant_past_the_double_range_is_an_infinity_on_both_paths(self, sign):
        # x + 10^400 reads inf, as the compile binds 10^400; x * 10^400 is
        # the one difference: eval_at raises on the overflowing product
        e = add(X, num(sign * 10 ** 400))
        want = sign * math.inf
        assert eval_at(e, {"x": 1.0}) == want == to_callable(e, ("x",))(1.0)
        product = mul(num(sign * 10 ** 400), X)
        assert to_callable(product, ("x",))(1.0) == want
        with pytest.raises(DomainError, match="overflow in product"):
            eval_at(product, {"x": 1.0})

    def test_an_argument_past_the_double_range_is_off_the_domain_on_both_paths(self):
        # 10^400 is no double: eval_at converts it, the compiled x*y + 1
        # meets it at its first float operation, where no power is taken
        with pytest.raises(DomainError, match="overflow"):
            eval_at(parse("x"), {"x": 10 ** 400})
        with pytest.raises(DomainError, match="overflow") as caught:
            to_callable(parse("x*y + 1"), ("x", "y"))(10 ** 400, 1)
        assert "power" not in str(caught.value)

    def test_the_compiled_value_is_a_double_for_int_arguments(self):
        # x and x*y do no float operation on ints: the compiled x read 3 at
        # 3 and the int 10^400 at 10^400, where eval_at reads 3.0 and
        # raises DomainError
        x = to_callable(parse("x"), ("x",))
        xy = to_callable(parse("x*y"), ("x", "y"))
        for value in (x(3), xy(3, 1), eval_at(parse("x"), {"x": 3})):
            assert type(value) is float and value == 3.0
        for fn, args in ((x, (10 ** 400,)), (xy, (10 ** 400, 1))):
            with pytest.raises(DomainError, match="overflow past the double range"):
                fn(*args)

    def test_an_odd_power_keeps_the_sign_of_a_zero_on_every_evaluator(self):
        # math.pow(-0.0, 3.0) is -0.0: eval_at, the compiled function and
        # the row kernel read it
        cube = pow_(X, num(3))
        numbers, keep, off_real = expr.to_row_kernel(X, ("x", "y"), cube)([-0.0])(1.0)
        assert keep == [1] and off_real == 0
        for value in (eval_at(cube, {"x": -0.0}), to_callable(cube, ("x",))(-0.0), numbers[0]):
            assert struct.pack("<d", value) == struct.pack("<d", -0.0)

    def test_a_zero_sum_keeps_its_sign_on_both_paths(self):
        # -0.0 + -0.0 is -0.0: eval_at adds from the first term, as the
        # compiled x + y does, not from 0.0
        e = add(X, Y)
        for value in (eval_at(e, {"x": -0.0, "y": -0.0}), to_callable(e, ("x", "y"))(-0.0, -0.0)):
            assert struct.pack("<d", value) == struct.pack("<d", -0.0)

    @pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
    def test_real_pow_of_a_negative_base_to_a_non_finite_exponent(self, p):
        with pytest.raises(DomainError):
            expr._real_pow(-0.5, p)

    def test_unbound_symbol_is_named(self):
        with pytest.raises(UnboundSymbolError, match="'m'"):
            _compiled(parse("x + k*m"), ("x",), {"k": 2})

    def test_equal_text_shares_a_slot(self):
        # x^(k+1) and x^(2j) fold to the same power at k = 1, j = 1: one
        # math.pow call computes both
        e = add(pow_(X, add(self.K, num(1))), mul(num(3), pow_(X, mul(num(2), sym("j")))))
        calls = []
        fn = _compiled(e, ("x",), {"k": 1, "j": 1})
        fn.__globals__["_mpow"] = lambda b, p: calls.append(p) or math.pow(b, p)
        assert fn(1.5) == 2.25 + 3.0 * 2.25
        assert calls == [2.0]

    if st is not None:
        @settings(max_examples=200, deadline=None, database=None)
        @given(_FOLD_TREES, _FOLD_VALUES, _FOLD_VALUES, _FOLD_COORDS, _FOLD_COORDS)
        def test_agrees_with_the_substituted_tree(self, e, k, j, x, y):
            # every leaf, coefficient and point is positive, so no sum
            # cancels and the two operation orders agree to a few ulps
            table = {"k": k, "j": j}
            folded = _compiled(e, ("x", "y"), table)
            bound = to_callable(substitute(e, table), ("x", "y"))
            try:
                got, want = folded(x, y), bound(x, y)
            except DomainError:
                return
            if math.isfinite(got) and math.isfinite(want):
                assert math.isclose(got, want, rel_tol=1e-12), (to_text(e), k, j, x, y)
            clear_memo()

        @settings(max_examples=200, deadline=None, database=None)
        @given(_FOLD_PLAIN_TREES, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
        def test_bit_identical_where_nothing_folds(self, e, x, y):
            # a table of symbols the tree does not hold folds nothing: the
            # body is the one compiled without it, bit for bit, and that is
            # eval_at's outcome, the sign of a zero and DomainError
            # included, but where eval_at finds a product that overflows
            names = ("x", "y")
            folded = _outcome(_compiled(e, names, {"k": 2, "j": 3}), x, y)
            assert folded == _outcome(to_callable(e, names), x, y)
            try:
                want = struct.pack("<d", eval_at(e, {"x": x, "y": y}))
            except DomainError as exc:
                if str(exc) == "overflow in product":
                    return  # the compiled product is inf
                want = DomainError
            assert folded == want, (to_text(e), x, y)

        @settings(max_examples=200, deadline=None, database=None)
        @given(_FOLD_PLAIN_TREES)
        def test_no_table_compiles_what_an_unused_table_compiles(self, e):
            # with no table the fold walk is skipped; a table of symbols the
            # tree does not hold walks it, and the code must be the same
            names = ("x", "y")
            assert _compiled(e, names).__code__ == _compiled(e, names, {"k": 2, "j": 3}).__code__

        @settings(max_examples=200, deadline=None, database=None)
        @given(_FOLD_TREES, _FOLD_VALUES, _FOLD_VALUES, _FOLD_VALUES,
               st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
        def test_cold_and_warm_code_agree(self, e, k, j, other, x, y):
            # compiled code is kept by shape: the tree compiled from an empty
            # cache, and again once the cache holds its shape (compiled with
            # these numbers and with others) and other shapes, gives the
            # same bits, or DomainError at both
            names = ("x", "y")
            table = {"k": k, "j": j}
            expr._shape_code.cache_clear()
            cold = _outcome(_compiled(e, names, table), x, y)
            for warm_up in ({"k": other, "j": k}, table, {"k": j, "j": other}):
                _compiled(e, names, warm_up)
                _compiled(pow_(e, num(-1)), names, warm_up)
            assert _outcome(_compiled(e, names, table), x, y) == cold
            clear_memo()

        @settings(max_examples=200, deadline=None, database=None)
        @given(_FOLD_TREES, _FOLD_VALUES, _FOLD_COORDS, _FOLD_COORDS)
        def test_a_shared_slot_keeps_every_value(self, e, k, x, y):
            # with k = j, each subtree of e holding k folds to the text of
            # its copy with j: compiled in one row kernel they share those
            # slots, and each root's value is the one it has compiled alone
            twin = substitute(e, {"k": sym("j")})
            table = {"k": k, "j": k}
            row = expr.to_row_kernel(e, ("x", "y"), twin, e, constants=table)([x])
            alone = [_compiled(twin, ("x", "y"), table), _compiled(e, ("x", "y"), table),
                     _reference_measure(e, table)]
            outcomes = [_outcome(fn, x, y) for fn in alone]
            numbers, keep, off_real = row(y)
            if DomainError in outcomes:
                assert (numbers, keep, off_real) == ([], [0], 1)
            else:
                assert [struct.pack("<d", v) for v in numbers] == outcomes
            clear_memo()


def _reference_measure(e, table):
    """The reference measure of ``e`` in x and y, each term compiled alone
    with ``table`` folded in."""
    return reference_measure(e, ("x", "y"), lambda t, names: _compiled(t, names, table))


def _reference_grid(e, u, table, positive, grid):
    """The CSV text and the field of a grid, node by node: the measure of
    ``e`` (each term compiled alone) and ``u``, compiled alone, at every
    node where each expression of ``positive``, compiled alone, has a
    value > 0."""
    measure = _reference_measure(e, table)
    u_fn = _compiled(u, ("x", "y"), table)
    conditions = [_compiled(c, ("x", "y"), table) for c in positive]
    lines = [",".join(orbits.CSV_HEADER) + "\n"]
    sup, count, off_real = -1.0, 0, 0
    for y in grid.ys():
        for x in grid.xs():
            values = [_outcome(c, x, y) for c in conditions]
            if DomainError not in values and all(struct.unpack("<d", v)[0] > 0.0 for v in values):
                try:
                    res, value = measure(x, y), u_fn(x, y)
                except DomainError:
                    off_real += 1
                else:
                    lines.append(f"{x:.17g},{y:.17g},1,{value:.17g},{res:.17g}\n")
                    count += 1
                    sup = max(sup, abs(res))
                    continue
            lines.append(f"{x:.17g},{y:.17g},0,,\n")
    return "".join(lines), orbits.ResidualField(sup if count else None, count, off_real)


class TestMonomial:
    """``monomial`` reads a term, or a factor list, as its numeric
    coefficient and one (base, exponent) pair per other factor."""

    def test_reads_a_term(self):
        # in the term's own factor order, -3*y*u^(c1)*x^2*(1 + x)^(1/2)
        coeff, pairs = monomial(parse("-3*x^2*y*(1 + x)^(1/2)*u^(c1)"))
        assert coeff == -3
        assert pairs == [(Y, num(1)), (U, sym("c1")), (X, num(2)),
                         (add(X, num(1)), num(Fraction(1, 2)))]
        assert monomial(num(Fraction(5, 2))) == (Fraction(5, 2), [])
        assert monomial(X) == (1, [(X, num(1))])

    def test_reads_a_factor_list_in_order(self):
        # a factor list need not be canonical: Nums anywhere, bases repeated
        factors = [pow_(X, num(2)), num(3), X, num(Fraction(-1, 2)), pow_(X, sym("k"))]
        assert monomial(factors) == (Fraction(-3, 2), [(X, num(2)), (X, num(1)), (X, sym("k"))])

    if st is not None:
        @settings(max_examples=200, deadline=None, database=None)
        @given(st.one_of(_FOLD_TREES, _FOLD_PLAIN_TREES))
        def test_every_canonical_term_is_rebuilt(self, e):
            for t in e.terms if isinstance(e, Sum) else (e,):
                coeff, pairs = monomial(t)
                assert mul(num(coeff), *(pow_(b, p) for b, p in pairs)) == t, to_text(t)
                assert len({b for b, _ in pairs}) == len(pairs), to_text(t)

        @settings(max_examples=200, deadline=None, database=None)
        @given(st.lists(st.one_of(_FOLD_TREES, _FOLD_PLAIN_TREES,
                                  st.builds(lambda n, d: num(Fraction(n, d)),
                                            st.integers(-6, 6), st.integers(1, 4))),
                        max_size=6))
        def test_the_coefficient_of_a_flat_list_is_the_product_of_its_nums(self, drawn):
            flat = [f for e in drawn for f in (e.factors if isinstance(e, Product) else (e,))]
            coeff, pairs = monomial(flat)
            assert coeff == math.prod(f.value for f in flat if isinstance(f, Num))
            assert len(pairs) == sum(not isinstance(f, Num) for f in flat)
            assert mul(num(coeff), *(pow_(b, p) for b, p in pairs)) == mul(*flat)


def _nodes(e):
    """Every node of a tree, e first."""
    yield e
    kids = (e.terms if isinstance(e, Sum) else e.factors if isinstance(e, Product)
            else (e.base, e.exponent) if isinstance(e, Power) else ())
    for kid in kids:
        yield from _nodes(kid)


class TestTermBuilders:
    """``_term`` and ``_sum_of`` build every Product and Sum node; the
    printer reads terms through ``_strip_coeff`` and builds none."""

    if st is not None:
        @settings(max_examples=200, deadline=None, database=None)
        @given(st.one_of(_FOLD_TREES, _FOLD_PLAIN_TREES))
        def test_every_canonical_node_is_rebuilt(self, e):
            for node in _nodes(e):
                if isinstance(node, Sum):
                    terms = [t for t in node.terms if not isinstance(t, Num)]
                    const = sum((t.value for t in node.terms if isinstance(t, Num)), Fraction(0))
                    assert expr._sum_of(terms, const) == node, to_text(node)
                elif not isinstance(node, Num):
                    assert expr._term(*expr._strip_coeff(node)) == node, to_text(node)

    def test_printing_canonicalizes_nothing(self, monkeypatch):
        # the report's stages print their remainders and constraints, whose
        # later negative terms print from their factors, not from their
        # canonicalized negations
        report = weak_cs_report(gss_preset(), n_samples=4)

        def refuse(*args):
            raise AssertionError("printing canonicalized an expression")

        monkeypatch.setattr(expr, "_canonical_product", refuse)
        monkeypatch.setattr(expr, "_canonical_sum", refuse)
        stages = [s.to_dict() for s in report.stages]
        monkeypatch.undo()
        pairs = []
        for stage, d in zip(report.stages, stages):
            pairs.append((d["remainder"], stage.stats.remainder))
            pairs += [(c["constraint"], e)
                      for c, e in zip(d["constraints"], stage.system.constraints)]
        assert any(" - " in text for text, _ in pairs)
        assert all(parse(text) == e for text, e in pairs)


def _kernel_grid(e, u, table, positive, grid):
    sink = io.StringIO()
    kernel = expr.to_row_kernel(e, ("x", "y"), u, positive=positive, constants=table)
    field = orbits._grid_field(kernel, grid, sink)
    return sink.getvalue(), field


class TestRowKernel:
    """``to_row_kernel``: slots of x alone are worked once per column, of y
    alone once per row, the rest once per admitted node, and every node
    reads as it does compiled alone."""

    def test_slots_are_hoisted_by_the_arguments_they_read(self):
        e = add(pow_(X, num(Fraction(1, 2))), pow_(Y, num(Fraction(1, 3))),
                pow_(add(X, Y), num(Fraction(1, 5))))
        # (x - 2)^2 > 0 admits every column but x = 2
        kernel = expr.to_row_kernel(e, ("x", "y"), positive=(pow_(add(X, num(-2)), num(2)),),
                                    constants={})
        calls = []
        kernel.__globals__["_mpow"] = lambda b, p: calls.append(p) or math.pow(b, p)
        xs, ys = [1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0]
        row = kernel(xs)
        for y in ys:
            row(y)
        assert calls.count(0.5) == len(xs)
        assert calls.count(1 / 3) == len(ys)
        assert calls.count(0.2) == (len(xs) - 1) * len(ys)  # admitted nodes only

    def test_a_hoisted_slot_off_the_domain_masks_its_column_or_row(self):
        # x^(1/2) leaves the real domain at x < 0, (y - 1)^(-1) at y = 1:
        # only the admitted nodes of that column or row are counted, and the
        # others of the row are still worked
        e = add(pow_(X, num(Fraction(1, 2))), pow_(add(Y, num(-1)), num(-1)), mul(X, Y))
        below_seven = add(num(7), mul(num(-1), X), mul(num(-1), Y))  # x + y < 7
        row = expr.to_row_kernel(e, ("x", "y"), X, positive=(below_seven,))([-1.0, 1.0, 4.0])
        measure = reference_measure(e, ("x", "y"))
        assert row(2.0) == ([1.0, measure(1.0, 2.0), 4.0, measure(4.0, 2.0)], [0, 1, 1], 1)
        assert row(1.0) == ([], [0, 0, 0], 3)
        assert row(3.0) == ([1.0, measure(1.0, 3.0)], [0, 1, 0], 1)

    def test_zero_to_a_negative_power_masks_its_column(self):
        # x^(-1) at x = 0.0 is math.pow(0.0, -1.0), which raises ValueError:
        # in a slot of x alone it masks the column, and (x + y)^(-1) in a
        # slot of both arguments masks the node where x + y is 0
        e = add(pow_(X, num(-1)), pow_(add(X, Y), num(-1)))
        measure = reference_measure(e, ("x", "y"))
        row = expr.to_row_kernel(e, ("x", "y"), X)([-1.0, 0.0, 1.0])
        assert row(2.0) == ([-1.0, measure(-1.0, 2.0), 1.0, measure(1.0, 2.0)], [1, 0, 1], 1)
        assert row(1.0) == ([1.0, measure(1.0, 1.0)], [0, 0, 1], 2)
        assert row(-1.0) == ([-1.0, measure(-1.0, -1.0)], [1, 0, 0], 2)

    def test_a_constant_slot_off_the_domain_masks_every_admitted_node(self):
        e = add(X, Y, pow_(num(-2), num(Fraction(1, 2))))
        row = expr.to_row_kernel(e, ("x", "y"), positive=(add(num(3), mul(num(-1), X)),))(
            [1.0, 2.0, 3.0])
        assert row(1.0) == ([], [0, 0, 0], 2)

    if st is not None:
        @settings(max_examples=200, deadline=None, database=None)
        @given(_FOLD_TREES, _FOLD_TREES, _FOLD_VALUES, _FOLD_VALUES,
               st.sampled_from([pow_(X, num(Fraction(1, 2))), pow_(Y, num(Fraction(-1, 2))),
                                pow_(add(X, num(Fraction(-1, 2))), num(-1)),
                                pow_(mul(sym("k"), Y), sym("j"))]),
               st.integers(1, 6), st.integers(1, 6), st.floats(-3.0, 4.0),
               st.sampled_from([(), (pow_(Y, num(Fraction(-1, 2))),),
                                (pow_(add(X, num(Fraction(-1, 2))), num(-1)), X), None]))
        def test_matches_the_per_node_loop(self, e, u, k, j, leaving, nx, ny, cut, more):
            # the leaving term reads x alone or y alone and leaves the real
            # domain on some columns or rows of the grid; the conditions
            # mask the nodes with x - y >= cut, and the ones drawn into
            # ``more`` have no value on some columns or rows, or are u
            # itself (None), whose slots they share
            residual = add(e, leaving)
            table = {"k": k, "j": j, "c": cut}
            positive = (add(sym("c"), mul(num(-1), X), Y), *((u,) if more is None else more))
            grid = GridSpec(-1.0, 2.0, -1.0, 2.0, nx, ny)
            assert (_kernel_grid(residual, u, table, positive, grid)
                    == _reference_grid(residual, u, table, positive, grid)), (
                to_text(residual), to_text(u), k, j, nx, ny, cut, more)
            clear_memo()


class TestArgumentsNamedLikeBuiltins:
    """The compiled code reaches every builtin it calls through a name of
    its own, so an argument may be named like one: the parser takes any
    name of letters, digits and underscores."""

    NAMES = [("abs", "max"), ("len", "enumerate"), ("OverflowError", "ValueError")]

    @pytest.mark.parametrize("names", NAMES, ids=["-".join(n) for n in NAMES])
    def test_cancellation(self, names):
        # the draw loop of the measure, at a box of one point
        x, y = map(sym, names)
        assert measure_at(parse(f"{names[0]} + 1"), names[:1], (2.0,)) == 1.0
        assert measure_at(add(x, y), names, (2.0, -3.0)) == 0.25
        with pytest.raises(SamplingError, match="retry budget"):
            measure_at(pow_(x, num(2)), names, (1e200, 0.0))

    @pytest.mark.parametrize("names", NAMES, ids=["-".join(n) for n in NAMES])
    def test_row_kernel(self, names):
        # x^(1/2) masks the column x = -1, which y > 0 admits
        x, y = map(sym, names)
        kernel = expr.to_row_kernel(add(pow_(x, num(Fraction(1, 2))), y), names, positive=(y,))
        assert kernel([-1.0, 4.0])(1.0) == ([1.0], [0, 1], 1)
        assert kernel([-1.0, 4.0])(-1.0) == ([], [0, 0], 0)


class TestEquivNumeric:
    def test_difference_of_squares_identity(self):
        assert equiv_numeric(parse("x^2 - y^2"), parse("(x-y)*(x+y)"))

    def test_inequivalent_with_witness(self):
        res = equiv_numeric(parse("x + y"), parse("x - y"))
        assert not res.equivalent
        assert res.witness is not None
        assert set(res.witness) == {"x", "y"}

    def test_resamples_through_domain_errors(self):
        # x - 1 is negative on part of the default box; sampling retries
        e1 = parse("(x - 1)^(1/2)")
        spec = SampleSpec(count=16, seed=3, intervals={"x": (0.5, 2.0)})
        res = equiv_numeric(e1, e1, spec)
        assert res.equivalent and res.samples == 16

    def test_acceptance_predicate(self):
        spec = SampleSpec(count=8, seed=1, positive=(parse("x - 1"),))
        assert equiv_numeric(parse("x"), parse("x"), spec).equivalent

    def test_an_expand_zero_difference_is_not_compiled(self, monkeypatch):
        # (x+1)^2 - (x^2 + 2x + 1) is not a structural 0 until expanded
        def refused(*args, **kwargs):
            raise AssertionError("an expand-zero difference was compiled")

        monkeypatch.setattr(expr, "_walk", refused)
        res = equiv_numeric(parse("(x+1)^2"), parse("x^2 + 2*x + 1"), SampleSpec(count=5))
        assert (res.equivalent, res.samples, res.witness) == (True, 5, None)


_BODIES = (expr._canonical_pow, expr._canonical_product, expr._canonical_sum, expr._derivative)


def _cache_infos():
    return {body.__name__: body.cache_info() for body in _BODIES}


def _values(e, points):
    fn = to_callable(e, ("x", "y"))
    out = []
    for x, y in points:
        try:
            out.append(fn(x, y))
        except DomainError:
            out.append("DomainError")
    return out


if st is not None:
    # the trees of TestMemo: over x, y, u and a, with any sign of leaf
    _MEMO_TREES = st.recursive(
        st.one_of(st.sampled_from([X, Y, U, A]),
                  st.builds(lambda n, d: Num(Fraction(n, d)),
                            st.integers(-6, 6), st.integers(1, 4))),
        lambda kids: st.one_of(
            st.builds(mul, kids, kids),
            st.builds(add, kids, kids),
            st.builds(pow_, kids, _FOLD_NUM_EXPONENTS)),
        max_leaves=8)


class TestMemo:
    @staticmethod
    def _gss_family():
        jet = family_solution(-1, 1).jet()
        return jet, substitute(gss_preset().delta, jet)

    def test_cold_and_warm_construction_agree(self):
        clear_memo()
        cold_jet, cold_res = self._gss_family()
        clear_memo()
        # warm the table with neighbouring work before building again
        family_solution(-1, 2).jet()
        substitute(gss_preset().delta, family_solution(Fraction(-1, 2), 1).jet())
        warm_jet, warm_res = self._gss_family()
        clear_memo()
        assert warm_jet == cold_jet
        assert warm_res == cold_res
        assert to_text(warm_res) == to_text(cold_res)
        points = sample_in_region(1.0, 200, seed=5)
        for name in cold_jet:
            assert _values(warm_jet[name], points) == _values(cold_jet[name], points)
        assert _values(warm_res, points) == _values(cold_res, points)

    def test_second_jet_runs_no_constructor_body(self):
        sol = family_solution(Fraction(-5, 3), Fraction(2, 3))
        clear_memo()
        first = sol.jet()
        misses = {name: info.misses for name, info in _cache_infos().items()}
        second = sol.jet()
        after = {name: info.misses for name, info in _cache_infos().items()}
        clear_memo()
        assert after == misses
        assert all(second[k] is first[k] for k in first)

    def test_jet_runs_each_body_once_per_distinct_call(self):
        sol = family_solution(Fraction(-5, 3), Fraction(2, 3))
        clear_memo()  # also zeroes the counts
        sol.jet()
        infos = _cache_infos()
        clear_memo()
        # each run stores its one entry: no body ran twice on one key
        assert all(info.misses == info.currsize > 0 for info in infos.values()), infos

    def test_clear_memo_empties_the_table(self):
        diff(add(mul(X, pow_(Y, 2)), X), "x")
        assert all(info.currsize for info in _cache_infos().values())
        clear_memo()
        assert not any(info.currsize for info in _cache_infos().values())

    def test_a_body_that_raises_stores_nothing(self):
        e = pow_(X, Y)  # the parser takes numeric exponents only
        clear_memo()
        for _ in range(2):
            with pytest.raises(ValueError):
                diff(e, "y")
        info = expr._derivative.cache_info()
        clear_memo()
        assert (info.misses, info.currsize) == (2, 0)

    def test_a_hit_returns_the_built_object(self):
        clear_memo()
        built = pow_(X, 2)
        assert pow_(X, 2) is built
        assert pow_(X, num(2)) is built  # the key is the argument after as_expr
        info = expr._canonical_pow.cache_info()
        clear_memo()
        assert (info.misses, info.hits) == (1, 2)

    def test_float_arguments_key_as_their_decimal(self):
        clear_memo()
        assert mul(0.1, X) == mul(Fraction(1, 10), X)
        assert mul(Fraction(0.1), X) != mul(0.1, X)
        clear_memo()

    if st is not None:
        @settings(max_examples=150, deadline=None, database=None)
        @given(_MEMO_TREES, _MEMO_TREES, _FOLD_NUM_EXPONENTS)
        def test_cold_and_warm_agree_on_generated_trees(self, e1, e2, p):
            ops = (lambda: mul(e1, e2), lambda: add(e1, e2), lambda: pow_(e1, p),
                   lambda: pow_(e1, e2), lambda: diff(e1, "x"),
                   lambda: diff(mul(e1, e2), "y"))
            cold = []
            for op in ops:
                clear_memo()
                cold.append(op())
            clear_memo()
            simplify(e1), simplify(e2), diff(e2, "x"), diff(add(e1, e2), "y")
            for _ in range(2):
                warm = [op() for op in ops]
                assert warm == cold
                assert [to_text(w) for w in warm] == [to_text(c) for c in cold]
            clear_memo()


# the claims workload's draw of a and r (perfbench/workloads.py)
_CLAIMS_A = sorted({Fraction(p, q) for p in (*range(-8, 0), *range(1, 9)) for q in (1, 2, 3)})
_CLAIMS_R = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))


# the kept derivations that are flat sums whose terms share no base:
# substituting the numbers alone already leaves them expanded
_EXPANDED_BY_SUBSTITUTION = ("reduction.symbolic_invariance_remainder",
                             "reduction.symbolic_reduction", "reduction.symbolic_odes[0]",
                             "reduction.symbolic_odes[1]")


@functools.cache
def _kept_derivations() -> tuple[tuple[str, Expr], ...]:
    """(name, derivation) for every expanded sum of family.KEPT, the
    derivations the CLI binds through ``bind_expanded``: a derivation of
    a field is taken of each named field, and a tuple's items one by one."""
    kept = []
    for name, derive in KEPT.items():
        if derive.__wrapped__.__code__.co_argcount:
            results = {f"{name}({f})": derive(vf()) for f, vf in NAMED_FIELDS.items()}
        else:
            results = {name: derive()}
        for label, result in results.items():
            items = ({f"{label}[{i}]": e for i, e in enumerate(result)}
                     if isinstance(result, tuple) else {label: result})
            kept += [(k, e) for k, e in items.items() if isinstance(e, Expr) and e == expand(e)]
    return tuple(kept)


if st is not None:
    _FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))

    @st.composite
    def _bind_instances(draw):
        """Exact instances, weighted toward the degenerate values: r = 0,
        c1 = c2, c1 in {0, 1}, a zero gamma, gamma2 = -gamma1, and c1 off
        the exponent pair."""
        a = draw(st.builds(lambda p, q: Fraction(p, q),
                           st.integers(1, 8) | st.integers(-8, -1), st.integers(1, 3)))
        r = draw(st.sampled_from(_CLAIMS_R) | _FRACTIONS)
        c1, c2 = exceptional_exponents(a, r)
        c1 = draw(st.sampled_from((c1, c2, Fraction(0), Fraction(1), c1 + Fraction(1, 10)))
                  | _FRACTIONS)
        c2 = draw(st.sampled_from((c2, c1, c2 - Fraction(1, 3))) | _FRACTIONS)
        g1 = draw(st.just(Fraction(0)) | _FRACTIONS)
        g2 = draw(st.sampled_from((Fraction(0), -g1)) | _FRACTIONS)
        return build_instance(a, r, c1, c2, g1, g2)


class TestBindExpanded:
    """``bind_expanded(e, numbers)`` is ``expand(substitute(e, numbers))``:
    the same tree and the same text, for every kept derivation."""

    @staticmethod
    def _check(inst):
        numbers = inst.numbers()
        for name, e in _kept_derivations():
            got = bind_expanded(e, numbers)
            want = expand(substitute(e, numbers))
            assert got == want, (name, inst)
            assert to_text(got) == to_text(want), (name, inst)
            if name in _EXPANDED_BY_SUBSTITUTION:
                assert substitute(e, numbers) == want, (name, inst)
                assert to_text(substitute(e, numbers)) == to_text(want), (name, inst)

    def test_claims_draw_binds_through_the_plan(self):
        # 36 a x 5 r x 5 exponent pairs x 3 pairs of gammas x every kept derivation:
        # on the exponent pair, c1 + 1/10, c2 - 1/3, c1 = 1 and c1 = c2
        rng = random.Random(11)
        names = tuple(PARAMETERS)
        plans = {name: expr._bind_plan(e, names) for name, e in _kept_derivations()}
        for a in _CLAIMS_A:
            for r in _CLAIMS_R:
                c1, c2 = exceptional_exponents(a, r)
                g1, g2 = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
                          for _ in range(2))
                for pair in ((c1, c2), (c1 + Fraction(1, 10), c2), (c1, c2 - Fraction(1, 3)),
                             (Fraction(1), c2), (c1, c1)):
                    for gammas in ((g1, g2), (0, g2), (g1, 0)):
                        inst = build_instance(a, r, *pair, *gammas)
                        self._check(inst)
                        # none of them leaves the plan for the general route
                        for plan in plans.values():
                            assert expr._bind_terms(plan, inst.numbers()) is not None
            clear_memo()

    def test_each_kept_derivation_has_a_plan(self):
        # so no CLI command binds through the general route
        for name, e in _kept_derivations():
            assert expr._bind_plan(e, tuple(PARAMETERS)) is not None, name
        assert set(_EXPANDED_BY_SUBSTITUTION) <= dict(_kept_derivations()).keys()

    def test_a_power_of_a_sum_takes_the_general_route(self):
        # xi1 = (x^2 + y^2)^(1/2): the remainder holds powers of that sum
        field = VectorField(pow_(add(pow_(X, 2), pow_(Y, 2)), Fraction(1, 2)), num(0), num(0))
        remainder = onshell_remainder(field)
        assert expr._bind_plan(remainder, tuple(PARAMETERS)) is None
        for inst in (gss_preset(), build_instance(1, 0, 5, 5, 1, 1),
                     build_instance(Fraction(5, 3), 1, Fraction(47, 10), Fraction(17, 5), 2, -3)):
            got = bind_expanded(remainder, inst.numbers())
            want = expand(inst.bind(remainder))
            assert got == want
            assert to_text(got) == to_text(want)

    def test_a_binding_without_a_number_takes_the_general_route(self):
        # the plan reads each e, but 0^-1 and a fractional power of a
        # number (the constructors keep 9^(1/2) a power) bind to no number
        inverse = add(mul(pow_(A, -1), X), pow_(Y, pow_(LAM, 2)), mul(A, LAM, X, Y))
        root = add(pow_(Y, pow_(LAM, Fraction(1, 2))), mul(A, X))
        for e, numbers, planned in ((inverse, {"a": 0, "lam": 4}, False),
                                    (inverse, {"a": 2, "lam": -3}, True),
                                    (root, {"a": 2, "lam": 9}, False),
                                    (root, {"a": 2, "lam": 0}, False)):
            plan = expr._bind_plan(e, tuple(numbers))
            assert plan is not None
            values = {k: Fraction(v) for k, v in numbers.items()}
            assert (expr._bind_terms(plan, values) is not None) == planned
            got = bind_expanded(e, numbers)
            want = expand(substitute(e, numbers))
            assert got == want
            assert to_text(got) == to_text(want)

    def test_numbers_bind_as_substitute_binds_them(self):
        e = onshell_remainder(NAMED_FIELDS["X"]())
        numbers = gss_preset().numbers()
        for bindings in ({sym(k): num(v) for k, v in numbers.items()},
                         {**numbers, "gamma1": 0.1},  # a float reads as its decimal
                         {**numbers, "gamma2": add(LAM, 1)}):  # an expression
            got = bind_expanded(e, bindings)
            assert got == expand(substitute(e, bindings))
            assert to_text(got) == to_text(expand(substitute(e, bindings)))

    def test_a_kept_plan_builds_nothing_through_the_constructors(self):
        e = onshell_remainder(NAMED_FIELDS["Y"]())
        numbers = build_instance(Fraction(5, 3), 1, Fraction(23, 5), Fraction(17, 5), 2, -3).numbers()
        first = bind_expanded(e, numbers)
        plans = expr._bind_plan.cache_info().currsize
        clear_memo()  # leaves the plans
        assert expr._bind_plan.cache_info().currsize == plans
        again = bind_expanded(e, numbers)
        assert again == first
        assert not any(info.currsize for info in _cache_infos().values())

    if st is not None:
        @settings(max_examples=200, deadline=None, database=None)
        @given(_bind_instances())
        def test_random_instances_bind_as_expand_of_substitute(self, inst):
            self._check(inst)
