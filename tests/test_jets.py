"""Total derivatives, second prolongation, characteristic, the jet point
draw and the sampled remainder."""

import math
import random
from fractions import Fraction

import pytest

from liesym import (
    OrderOverflowError,
    VectorField,
    add,
    build_instance,
    diff,
    exceptional_exponents,
    expand,
    is_zero,
    mul,
    apply_prolonged,
    characteristic,
    eval_at,
    exceptional_vf,
    family_residual,
    num,
    parse,
    prolong2,
    rotation_like_vf,
    scaling_vf,
    sym,
    total_derivative,
    y_translation_vf,
)
from liesym import jets
from liesym.expr import clear_memo
from liesym.jets import (
    JET_NAMES,
    JET_RANGES,
    REFUTE_THRESHOLD,
    SampledRemainder,
    sample_jet_env,
    sample_jet_point,
    sample_remainder,
)


class TestSampleJetPoint:
    def test_matches_uniform_draw_for_draw(self):
        # the reports' bytes rest on this: the argument-list draw replaced
        # one rng.uniform call per jet name, in JET_NAMES order
        fast, reference = random.Random(77), random.Random(77)
        for _ in range(10_000):
            expected = [reference.uniform(*JET_RANGES[n]) for n in JET_NAMES]
            assert sample_jet_point(fast) == expected
        assert fast.getstate() == reference.getstate()

    def test_env_is_the_same_draw_by_name(self):
        env = sample_jet_env(random.Random(5))
        assert list(env) == list(JET_NAMES)
        assert list(env.values()) == sample_jet_point(random.Random(5))


class TestSampleRemainder:
    def test_statistics_of_the_cancellation_measure(self):
        # x^2 alone is one term: its measure is x^2 / (1 + x^2)
        def measure(x):
            return math.pow(x, 2) / (1.0 + math.pow(x, 2))

        got = sample_remainder(parse("x^2"), n_samples=30, seed=4)
        rng = random.Random(4)
        values = [measure(sample_jet_point(rng)[0]) for _ in range(30)]
        assert (got.max_abs, got.samples, got.resampled) == (max(values), 30, 0)
        assert got.mean_abs == sum(values) / 30
        assert measure(got.worst_point[0]) == got.max_abs

    @pytest.mark.parametrize("max_abs,tol,reading", [
        (0.0, 1e-9, "zero"),
        (1e-9, 1e-9, "zero"),
        (2e-9, 1e-9, "inconclusive"),
        (2e-9, 1e-8, "zero"),
        (REFUTE_THRESHOLD * 0.999, 1e-9, "inconclusive"),
        (REFUTE_THRESHOLD, 1e-9, "nonzero"),
        (318.0, 1e-9, "nonzero"),
    ])
    def test_classify_bounds_are_inclusive(self, max_abs, tol, reading):
        sampled = SampledRemainder(parse("x"), max_abs, max_abs, [1.0] * 8, 1, 0)
        assert sampled.classify(tol) == reading


class TestTotalDerivative:
    def test_of_u(self):
        assert total_derivative(parse("u"), "x") == parse("ux")
        assert total_derivative(parse("u"), "y") == parse("uy")

    def test_rotation_generator_consequence(self):
        assert total_derivative(parse("y*ux + x*uy"), "x") == parse(
            "y*uxx + uy + x*uxy")

    def test_explicit_coordinate_factor(self):
        assert total_derivative(parse("x^2*u"), "y") == parse("x^2*uy")

    def test_order_overflow(self):
        with pytest.raises(OrderOverflowError):
            total_derivative(parse("uxx"), "x")


class TestProlong2:
    def test_rotation_coefficients(self):
        p = prolong2(rotation_like_vf())
        assert p.phi_x == parse("-uy")
        assert p.phi_y == parse("-ux")
        assert p.phi_xx == parse("-2*uxy")
        assert p.phi_xy == parse("-(uxx + uyy)")
        assert p.phi_yy == parse("-2*uxy")

    def test_translation_is_trivial(self):
        p = prolong2(y_translation_vf())
        zero = num(0)
        assert (p.phi_x, p.phi_y, p.phi_xx, p.phi_xy, p.phi_yy) == (
            zero, zero, zero, zero, zero)

    def test_constant_xi_zero_phi_trivial(self):
        p = prolong2(VectorField(parse("3"), parse("-2"), parse("0")))
        for coeff in (p.phi_x, p.phi_y, p.phi_xx, p.phi_xy, p.phi_yy):
            assert coeff == num(0)

    def test_scaling_weights(self):
        p = prolong2(scaling_vf())
        assert p.phi_x == parse("-(a/2+1)*ux")
        assert p.phi_y == parse("-(a/2+1)*uy")
        assert p.phi_xx == parse("-(a/2+2)*uxx")
        assert p.phi_yy == parse("-(a/2+2)*uyy")

    def test_exceptional_first_order_coefficients(self):
        p = prolong2(exceptional_vf())
        assert p.phi_x == parse("-2*y*ux - a*y*ux + 2*x*uy")
        assert expand(p.phi_x) == expand(parse("-(a+2)*y*ux + 2*x*uy"))
        # polynomial of degree at most 2 in the base coordinates
        for coeff in (p.phi_x, p.phi_y):
            assert coeff.free_symbols() <= {"a", "x", "y", "u", "ux", "uy"}

    def test_linearity_in_the_field(self):
        vf1 = exceptional_vf()
        vf2 = scaling_vf()
        p1, p2, p12 = prolong2(vf1), prolong2(vf2), prolong2(vf1 + vf2)
        assert expand(p12.phi_x) == expand(p1.phi_x + p2.phi_x)
        assert expand(p12.phi_y) == expand(p1.phi_y + p2.phi_y)
        assert expand(p12.phi_xx) == expand(p1.phi_xx + p2.phi_xx)
        assert expand(p12.phi_xy) == expand(p1.phi_xy + p2.phi_xy)
        assert expand(p12.phi_yy) == expand(p1.phi_yy + p2.phi_yy)

    def test_mixed_coefficient_route_agreement(self):
        # phi_xy computed via D_y phi_x must equal the D_x phi_y route
        for vf in (exceptional_vf(), scaling_vf(), rotation_like_vf()):
            p = prolong2(vf)
            dx = lambda e: total_derivative(e, "x")
            other = (dx(p.phi_y)
                     - parse("uxy") * dx(vf.xi1)
                     - parse("uyy") * dx(vf.xi2))
            assert expand(p.phi_xy) == expand(other)

    def test_rejects_jet_symbols_in_components(self):
        with pytest.raises(ValueError):
            VectorField(parse("ux"), parse("0"), parse("0"))


class TestCharacteristic:
    def test_rotation(self):
        q = characteristic(rotation_like_vf())
        assert q == parse("-(y*ux + x*uy)")

    def test_exceptional(self):
        q = characteristic(exceptional_vf())
        assert q == parse("-a*y*u - 2*x*y*ux + (x^2-y^2)*uy")

    def test_y_translation(self):
        assert characteristic(y_translation_vf()) == parse("-uy")

    def test_scaling(self):
        assert characteristic(scaling_vf()) == parse("-(a/2)*u - x*ux - y*uy")


def _every_name(pvf, target):
    """Reference: one term for each of the eight names, zero or not."""
    return add(*[mul(coeff, diff(target, name))
                 for name, coeff in pvf.coefficients().items()])


_FIELDS = {
    "X": exceptional_vf,
    "Xprime": scaling_vf,
    "Y": rotation_like_vf,
    "dy": y_translation_vf,
    "zero-xi2": lambda: VectorField(parse("x*y"), num(0), parse("a*u")),
}


def _exceptional_instance(a, r=1):
    return build_instance(a, r, *exceptional_exponents(a, r), Fraction(-3, 2), Fraction(1, 4))


class TestApplyProlonged:
    @pytest.mark.parametrize("a", [Fraction(-1), Fraction(-5, 3), Fraction(2, 3), Fraction(3)],
                             ids=["-1", "-5/3", "2/3", "3"])
    @pytest.mark.parametrize("field", sorted(_FIELDS))
    def test_skipping_zero_coefficients_keeps_the_expression(self, field, a):
        pvf = prolong2(_FIELDS[field]().bind(a=a))
        delta = _exceptional_instance(a).delta
        applied = apply_prolonged(pvf, delta)
        clear_memo()
        assert applied == _every_name(pvf, delta)

    @pytest.mark.parametrize("field", sorted(_FIELDS))
    def test_only_nonzero_coefficients_are_differentiated(self, field, monkeypatch):
        pvf = prolong2(_FIELDS[field]().bind(a=Fraction(-5, 3)))
        delta = _exceptional_instance(Fraction(-5, 3)).delta
        names = []

        def logged(e, wrt):
            names.append(wrt)
            return diff(e, wrt)

        monkeypatch.setattr(jets, "diff", logged)
        apply_prolonged(pvf, delta)
        expected = [n for n, c in pvf.coefficients().items() if not is_zero(c)]
        assert names == expected
        if field == "dy":
            assert names == ["y"]
        if field == "Y":
            assert "u" not in names and len(names) == 7

    def test_y_translation_annihilates_y_free_residual(self):
        delta = family_residual(-1, 2, -7, -3, parse("-3/2"), parse("1/4"))
        assert apply_prolonged(prolong2(y_translation_vf()), delta) == num(0)

    def test_rotation_on_residual_numeric_form(self):
        # hand-derived closed form of the prolonged rotation on the residual
        a, r, c1, c2, g1, g2 = map(sym, ("a", "r", "c1", "c2", "g1", "g2"))
        delta = family_residual(a, r, c1, c2, g1, g2)
        applied = apply_prolonged(prolong2(rotation_like_vf()), delta)
        hand = parse("-4*uxy - a*y*x^(-2)*ux - a*x^(-1)*uy - g1*r*x^(r-1)*y*u^(c1)")
        rng = random.Random(2718)
        for _ in range(100):
            env = sample_jet_env(rng)
            env.update({n: rng.uniform(0.5, 2.0) for n in ("a", "r", "c1", "c2", "g1", "g2")})
            lhs, rhs = eval_at(applied, env), eval_at(hand, env)
            assert abs(lhs - rhs) <= 1e-10 * (1 + max(abs(lhs), abs(rhs)))

    def test_flow_oracle(self):
        """First-order flow of all eight jet coordinates reproduces the
        directional derivative given by the prolonged field."""
        rng = random.Random(1234)
        eps = 1e-6
        target = family_residual(-1, 2, -7, -3, parse("-3/2"), parse("1/4"))
        for vf in (exceptional_vf().bind(a=-1), rotation_like_vf()):
            p = prolong2(vf)
            coeffs = p.coefficients()
            applied = apply_prolonged(p, target)
            for _ in range(25):
                env = sample_jet_env(rng)
                moved = {
                    name: env[name] + eps * eval_at(coeffs[name], env)
                    for name in JET_NAMES
                }
                lhs = (eval_at(target, moved) - eval_at(target, env)) / eps
                rhs = eval_at(applied, env)
                assert abs(lhs - rhs) <= 1e-5 * (1 + abs(rhs))
