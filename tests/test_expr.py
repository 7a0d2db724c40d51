"""Expression kernel: parsing, canonical forms, calculus, evaluation."""

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
    DomainError,
    Num,
    ParseError,
    Power,
    Product,
    SampleSpec,
    Sum,
    UnboundSymbolError,
    add,
    diff,
    equiv_numeric,
    eval_at,
    expand,
    family_solution,
    gss_preset,
    is_zero,
    mul,
    num,
    parse,
    pow_,
    sample_in_region,
    simplify,
    substitute,
    sym,
    to_callable,
    to_text,
)
from liesym import expr
from liesym.expr import clear_memo

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


class TestCanonical:
    def test_power_merge(self):
        assert parse("x*x^2") == pow_(X, 3)

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

    @pytest.mark.skipif(st is None, reason="hypothesis is not installed")
    def test_products_of_linear_forms_repeat_no_base(self):
        coeff = st.integers(-3, 3)
        forms = st.tuples(coeff, coeff, coeff).filter(lambda c: c[1] or c[2])
        # (which form, negated, exponent) per factor; two forms at most, so
        # a form and its negation meet often
        factors = st.tuples(st.integers(0, 1), st.booleans(),
                            st.sampled_from([-2, -1, 1, 2, 3]))
        coords = st.floats(0.3, 1.7)

        @settings(max_examples=300, deadline=None, database=None)
        @given(st.lists(forms, min_size=1, max_size=2),
               st.lists(factors, min_size=2, max_size=4), coords, coords)
        def check(form_list, factor_list, x, y):
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

        check()

    @pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 1, 0)])
    def test_negated_sums_merge_past_a_sum_of_equal_hash(self, order):
        # the term pairs of -1 - x and -1 - 2*x hash alike (hash(-1) ==
        # hash(-2)); with -1 - 2*x met between them, -1 - x and 1 + x were
        # both kept: (-1 - 2*x)^(-2)*(-1 - x)^(-2)*(1 + x)^(-2)
        factors = [pow_(parse(b), -2) for b in ("-1 - x", "-1 - 2*x", "1 + x")]
        clear_memo()
        assert mul(*(factors[i] for i in order)) == parse("(-1 - 2*x)^(-2)*(-1 - x)^(-4)")

    @pytest.mark.skipif(st is None, reason="hypothesis is not installed")
    def test_no_two_bases_negate_each_other_at_an_integer_exponent(self):
        # b^m (-b)^n with an integer exponent is (-1)^n b^(m+n) (or, at an
        # integer m, (-1)^m (-b)^(m+n)): a canonical product keeps one base
        coeff = st.integers(-3, 3)
        forms = st.tuples(coeff, coeff, coeff).filter(lambda c: c[1] or c[2])
        exponents = st.sampled_from([-2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-1, 2),
                                     Fraction(3, 2), Fraction(1, 3)])
        factors = st.tuples(st.integers(0, 1), st.booleans(), exponents)
        coords = st.floats(0.3, 1.7)

        @settings(max_examples=300, deadline=None, database=None)
        @given(st.lists(forms, min_size=1, max_size=2),
               st.lists(factors, min_size=2, max_size=4), coords, coords)
        def check(form_list, factor_list, x, y):
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

        check()

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
        # once, and its 5 squares call math.pow directly as _mpow
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
        assert [c for c in calls if c[0] == "_mpow"] == [("_mpow", 2.0)] * 5


class TestEvenPowers:
    # a positive even integer power compiles to math.pow itself, with one
    # OverflowError handler around the body; it must be _real_pow bit for bit
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

    def test_odd_and_negative_powers_keep_real_pow(self):
        # math.pow(-0.0, 3.0) is -0.0 and math.pow(0.0, -2.0) raises ValueError
        assert math.copysign(1.0, to_callable(pow_(X, num(3)), ("x",))(-0.0)) == 1.0
        with pytest.raises(DomainError):
            to_callable(pow_(X, num(-2)), ("x",))(0.0)


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

    def test_unit_coefficient_is_left_out(self):
        fn = _compiled(mul(self.K, X, Y), ("x", "y"), {"k": 1})
        assert fn(0.1, 0.3) == 0.1 * 0.3

    def test_a_literal_that_would_overflow_stays_unfolded(self):
        # 10^200 * 10^200 folds to no float: the product is formed per call,
        # and an infinite value is off the domain for every consumer
        e = add(X, mul(self.K, sym("j")))
        fn = _compiled(e, ("x",), {"k": 10 ** 200, "j": 10 ** 200})
        assert math.isinf(fn(1.0))
        with pytest.raises(DomainError):
            expr.to_cancellation(e, ("x",), constants={"k": 10 ** 200, "j": 10 ** 200})(1.0)

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
            # body is the one compiled without it, bit for bit, and each
            # finite value is eval_at's (eval_at sums from 0.0, so a zero
            # sum may differ in sign)
            names = ("x", "y")
            folded = _outcome(_compiled(e, names, {"k": 2, "j": 3}), x, y)
            assert folded == _outcome(to_callable(e, names), x, y)
            try:
                want = eval_at(e, {"x": x, "y": y})
            except DomainError:
                return
            if folded is not DomainError and math.isfinite(want):
                assert struct.unpack("<d", folded)[0] == want

        @settings(max_examples=200, deadline=None, database=None)
        @given(_FOLD_PLAIN_TREES)
        def test_no_table_compiles_what_an_unused_table_compiles(self, e):
            # with no table the fold walk is skipped; a table of symbols the
            # tree does not hold walks it, and the code must be the same
            names = ("x", "y")
            assert _compiled(e, names).__code__ == _compiled(e, names, {"k": 2, "j": 3}).__code__

        @settings(max_examples=200, deadline=None, database=None)
        @given(_FOLD_TREES, _FOLD_VALUES, _FOLD_COORDS, _FOLD_COORDS)
        def test_a_shared_slot_keeps_every_value(self, e, k, x, y):
            # with k = j, each subtree of e holding k folds to the text of
            # its copy with j: compiled in one body they share those slots,
            # and each root's value is the one it has compiled alone
            twin = substitute(e, {"k": sym("j")})
            table = {"k": k, "j": k}
            shared = expr.to_cancellation(e, ("x", "y"), twin, e, constants=table)
            alone = [expr.to_cancellation(e, ("x", "y"), constants=table),
                     _compiled(twin, ("x", "y"), table), _compiled(e, ("x", "y"), table)]
            outcomes = [_outcome(fn, x, y) for fn in alone]
            if DomainError in outcomes:
                with pytest.raises(DomainError):
                    shared(x, y)
            else:
                assert [struct.pack("<d", v) for v in shared(x, y)] == outcomes
            clear_memo()


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
        spec = SampleSpec(count=8, seed=1, accept=lambda env: env["x"] > 1.0)
        assert equiv_numeric(parse("x"), parse("x"), spec).equivalent


_BODIES = ("_canonical_pow", "_canonical_product", "_canonical_sum", "_derivative")


def _record_body_runs(monkeypatch):
    """Swap each memoized function's body for one that logs its arguments."""
    runs = []
    for name in _BODIES:
        def logged(*args, _body=getattr(expr, name), _name=name):
            runs.append((_name, args))
            return _body(*args)
        monkeypatch.setattr(expr, name, logged)
    return runs


def _values(e, points):
    fn = to_callable(e, ("x", "y"))
    out = []
    for x, y in points:
        try:
            out.append(fn(x, y))
        except DomainError:
            out.append("DomainError")
    return out


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

    def test_second_jet_runs_no_constructor_body(self, monkeypatch):
        sol = family_solution(Fraction(-5, 3), Fraction(2, 3))
        clear_memo()
        first = sol.jet()
        runs = _record_body_runs(monkeypatch)
        second = sol.jet()
        clear_memo()
        assert runs == []
        assert all(second[k] is first[k] for k in first)

    def test_jet_runs_each_body_once_per_distinct_call(self, monkeypatch):
        sol = family_solution(Fraction(-5, 3), Fraction(2, 3))
        clear_memo()
        runs = _record_body_runs(monkeypatch)
        sol.jet()
        clear_memo()
        assert {name for name, _ in runs} == set(_BODIES)
        assert len(runs) == len(set(runs))

    def test_clear_memo_empties_the_table(self):
        mul(X, pow_(Y, 2))
        assert expr._MEMO
        clear_memo()
        assert not expr._MEMO

    def test_float_arguments_key_as_their_decimal(self):
        clear_memo()
        assert mul(0.1, X) == mul(Fraction(1, 10), X)
        assert mul(Fraction(0.1), X) != mul(0.1, X)
        clear_memo()

    @pytest.mark.skipif(st is None, reason="hypothesis is not installed")
    def test_cold_and_warm_agree_on_generated_trees(self):
        leaf = st.one_of(
            st.sampled_from([X, Y, U, A]),
            st.builds(lambda n, d: Num(Fraction(n, d)),
                      st.integers(-6, 6), st.integers(1, 4)))
        exponents = st.sampled_from([-2, -1, 2, 3, Fraction(1, 2), Fraction(-1, 2)]).map(num)
        trees = st.recursive(leaf, lambda kids: st.one_of(
            st.builds(mul, kids, kids),
            st.builds(add, kids, kids),
            st.builds(pow_, kids, exponents)), max_leaves=8)

        @settings(max_examples=150, deadline=None, database=None)
        @given(trees, trees, exponents)
        def check(e1, e2, p):
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

        check()
