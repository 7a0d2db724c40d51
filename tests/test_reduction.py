"""Invariant-variable reduction, ODE split, restricted evaluation."""

import random
from fractions import Fraction

import pytest

from liesym import (
    ConstraintSystem,
    ReductionError,
    auxiliary_constraint,
    build_instance,
    candidate_profile,
    diff,
    eval_at,
    expand,
    family_residual,
    gss_preset,
    invariance_condition,
    is_zero,
    mul,
    num,
    parse,
    pow_,
    reduce_residual,
    reduce_to_invariant,
    restricted_eval,
    split_by_x2,
    sym,
    verify_ode,
    weak_cs_report,
)


def _symbolic_exceptional_residual():
    a = sym("a")
    return family_residual(
        a, 2,
        parse("1 + 8/a"), parse("1 + 4/a"),
        parse("(a/2)*(a+4)"), parse("-(a/4)*(3*a+4)"),
    )


class TestReduce:
    def test_gss_display_form(self):
        red = reduce_to_invariant(gss_preset())
        assert red == parse(
            "8*x^2*vss - 4*s*vss - 2*vs + 3/2*x^2*v^(-7) - 1/4*v^(-3)")

    def test_vss_coefficient(self):
        # chain rule gives uxx + uyy -> 4(x^2+y^2) vss with y^2 = x^2 - s
        red = reduce_to_invariant(gss_preset())
        coeff = diff(red, "vss")
        assert expand(coeff) == expand(parse("8*x^2 - 4*s"))

    def test_singular_term_is_x_free(self):
        # (a/x) ux reduces to 2a vs; no x survives from that term
        a = sym("a")
        red = reduce_residual(mul(a, pow_(sym("x"), num(-1)), sym("ux")))
        assert red == parse("2*a*vs")

    def test_wrong_r_rejected(self):
        inst = build_instance(-1, 1, -5, -3, 1, 1)
        with pytest.raises(ReductionError):
            reduce_to_invariant(inst)

    def test_matches_direct_substitution_numerically(self):
        """Substituting any concrete profile u = v(x^2 - y^2) into the
        residual agrees with the reduced equation evaluated at
        (s, x) = (x^2 - y^2, x)."""
        gss = gss_preset()
        red = reduce_to_invariant(gss)
        v = parse("s^2 + 1")
        vs, vss = diff(v, "s"), diff(diff(v, "s"), "s")
        rng = random.Random(31)
        for _ in range(50):
            x = rng.uniform(0.6, 2.0)
            y = rng.uniform(-0.5, 0.5)
            s = x * x - y * y
            if s <= 0.05:
                continue
            prof = {"s": s}
            jet = {
                "x": x, "y": y,
                "u": eval_at(v, prof),
                "ux": 2 * x * eval_at(vs, prof),
                "uy": -2 * y * eval_at(vs, prof),
                "uxx": 2 * eval_at(vs, prof) + 4 * x * x * eval_at(vss, prof),
                "uyy": -2 * eval_at(vs, prof) + 4 * y * y * eval_at(vss, prof),
                "uxy": 0.0,
            }
            lhs = eval_at(gss.delta, jet)
            rhs = eval_at(red, {
                "s": s, "x": x,
                "v": jet["u"],
                "vs": eval_at(vs, prof),
                "vss": eval_at(vss, prof),
            })
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


class TestSplit:
    def test_gss_split(self):
        ode_a, ode_b = split_by_x2(reduce_to_invariant(gss_preset()))
        assert ode_a == parse("-4*s*vss - 2*vs - 1/4*v^(-3)")
        assert ode_b == parse("8*vss + 3/2*v^(-7)")

    def test_x_free_expression_passes_through(self):
        red = parse("vss + v")
        ode_a, ode_b = split_by_x2(red)
        assert ode_a == parse("vss + v")
        assert ode_b == num(0)

    def test_leftover_x_squared_witnesses_no_proper_reduction(self):
        _, ode_b = split_by_x2(reduce_to_invariant(gss_preset()))
        assert not is_zero(ode_b)

    def test_exactness(self):
        red = reduce_to_invariant(gss_preset())
        ode_a, ode_b = split_by_x2(red)
        recombined = expand(ode_a + parse("x^2") * ode_b)
        assert recombined == red

    def test_quartic_power_rejected(self):
        with pytest.raises(ReductionError):
            split_by_x2(parse("x^4*vss + v"))

    def test_odd_power_rejected(self):
        with pytest.raises(ReductionError):
            split_by_x2(parse("x*vs + v"))


class TestCandidateProfile:
    def test_reference_values(self):
        v, g1, g2 = candidate_profile(-1)
        assert v == parse("s^(1/4)")
        assert (g1, g2) == (Fraction(-3, 2), Fraction(1, 4))

    def test_degenerate_a(self):
        v, g1, g2 = candidate_profile(-4)
        assert v == parse("s")
        assert (g1, g2) == (0, -8)

    def test_positive_a(self):
        v, g1, g2 = candidate_profile(2)
        assert v == parse("s^(-1/2)")
        assert (g1, g2) == (6, -5)

    def test_degenerate_profile_still_solves_both(self):
        c1, c2 = Fraction(-1), Fraction(0)
        inst = build_instance(-4, 2, c1, c2, 0, -8)
        ode_a, ode_b = split_by_x2(reduce_to_invariant(inst))
        v, _, _ = candidate_profile(-4)
        assert is_zero(verify_ode(ode_a, v))
        assert is_zero(verify_ode(ode_b, v))

    def test_zero_a_rejected(self):
        with pytest.raises(ValueError):
            candidate_profile(0)


class TestVerifyOde:
    def test_gss_profile_solves_both(self):
        ode_a, ode_b = split_by_x2(reduce_to_invariant(gss_preset()))
        v, _, _ = candidate_profile(-1)
        assert is_zero(verify_ode(ode_a, v))
        assert is_zero(verify_ode(ode_b, v))

    def test_wrong_exponent_leaves_residual(self):
        _, ode_b = split_by_x2(reduce_to_invariant(gss_preset()))
        assert not is_zero(verify_ode(ode_b, parse("s^(1/2)")))

    def test_symbolic_common_solution(self):
        """The strongest symbolic identity: both separated equations are
        solved by s^(-a/4) with the stated source strengths, for a kept
        symbolic throughout."""
        red = reduce_residual(_symbolic_exceptional_residual())
        ode_a, ode_b = split_by_x2(red)
        v, _, _ = candidate_profile(sym("a"))
        assert is_zero(verify_ode(ode_a, v))
        assert is_zero(verify_ode(ode_b, v))


class TestRestrictedEval:
    def test_exceptional_field_vanishes_on_shell(self):
        from liesym import apply_prolonged, exceptional_vf, prolong2

        gss = gss_preset()
        target = apply_prolonged(prolong2(exceptional_vf().bind(a=-1)), gss.delta)
        res = restricted_eval(target, ConstraintSystem((gss.delta,), ("uyy",)),
                              n_samples=100, seed=4)
        assert res.max_abs <= 1e-9

    def test_rotation_stage_pattern(self):
        gss = gss_preset()
        target = auxiliary_constraint(gss)
        cond = invariance_condition()
        stage1 = restricted_eval(target, ConstraintSystem(
            (gss.delta,), ("uyy",)), n_samples=100, seed=4)
        stage2 = restricted_eval(target, ConstraintSystem(
            (gss.delta, cond), ("uyy", "uy")), n_samples=100, seed=4)
        stage3 = restricted_eval(target, ConstraintSystem(
            (gss.delta, cond, target), ("uyy", "uy", "uxy")),
            n_samples=100, seed=4)
        assert stage1.max_abs >= 1e-2
        assert stage2.max_abs >= 1e-2
        assert stage3.max_abs <= 1e-12

    def test_elimination_order_immaterial(self):
        gss = gss_preset()
        target = auxiliary_constraint(gss)
        cond = invariance_condition()
        forward = restricted_eval(target, ConstraintSystem(
            (gss.delta, cond), ("uyy", "uy")), n_samples=100, seed=12)
        swapped = restricted_eval(target, ConstraintSystem(
            (cond, gss.delta), ("uy", "uyy")), n_samples=100, seed=12)
        assert forward.max_abs == pytest.approx(swapped.max_abs, rel=1e-9)
        assert forward.mean_abs == pytest.approx(swapped.mean_abs, rel=1e-9)

    def test_singular_coefficient_resamples(self):
        # y^(1/2)*uxx + ux is affine in uxx, but its coefficient y^(1/2)
        # leaves the real domain at y < 0, and so does the solved uxx:
        # those draws are redrawn
        system = ConstraintSystem((parse("y^(1/2)*uxx + ux"),), ("uxx",))
        assert system.restrict(sym("uxx")) == parse("-ux*y^(-1/2)")
        res = restricted_eval(sym("uxx"), system, n_samples=50, seed=2)
        assert res.resampled > 0
        assert res.samples == 50

    def test_stage_remainders_are_exact(self):
        gss = gss_preset()
        target = auxiliary_constraint(gss)
        cond = invariance_condition()
        stage1 = ConstraintSystem((gss.delta,), ("uyy",)).restrict(target)
        stage2 = ConstraintSystem((gss.delta, cond), ("uyy", "uy")).restrict(target)
        assert stage1 == parse("-4*uxy + 3*x*y*u^(-7) + ux*y*x^(-2) + uy*x^(-1)")
        assert stage2 == parse("-4*uxy + 3*x*y*u^(-7)")

    def test_elimination_order_immaterial_exactly(self):
        gss = gss_preset()
        target = auxiliary_constraint(gss)
        cond = invariance_condition()
        forward = ConstraintSystem((gss.delta, cond), ("uyy", "uy"))
        swapped = ConstraintSystem((cond, gss.delta), ("uy", "uyy"))
        assert forward.restrict(target) == swapped.restrict(target)

    def test_later_constraint_sees_earlier_solution(self):
        # the second constraint holds ux, solved by the first; the first
        # solution holds uy, solved by the second
        system = ConstraintSystem((parse("ux - uy"), parse("ux + uy - 2*x")), ("ux", "uy"))
        assert system.restrict(parse("ux*uy")) == parse("x^2")

    @pytest.mark.parametrize("constraint,symbol", [
        ("uyy^2 - ux", "uyy"),
        ("uyy*uxx + uyy^(1/2)", "uyy"),
        ("ux - uy", "uxx"),  # no uxx at all: the coefficient is 0
    ])
    def test_constraint_not_affine_in_its_symbol_rejected(self, constraint, symbol):
        system = ConstraintSystem((parse(constraint),), (symbol,))
        with pytest.raises(ReductionError):
            restricted_eval(sym("u"), system, n_samples=5)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ConstraintSystem((parse("ux"),), ("ux", "uy"))


class TestWeakCSReport:
    def test_gss_chain(self):
        rep = weak_cs_report(gss_preset(), n_samples=150, seed=42)
        assert [s.verdict for s in rep.stages] == ["nonzero", "nonzero", "zero"]
        assert rep.verdicts == (
            "not exact symmetry",
            "not proper conditional symmetry",
            "weak conditional symmetry confirmed via separated ODEs",
        )
        assert rep.confirmed
        assert rep.split_exact
        assert not rep.degenerate_split
        assert is_zero(rep.residual_a) and is_zero(rep.residual_b)
        # the exceptional field context line: admitted on the residual manifold
        assert rep.exceptional_onshell.max_abs <= 1e-9

    def test_degenerate_gamma1(self):
        inst = build_instance(-1, 2, -7, -3, 0, Fraction(1, 4))
        rep = weak_cs_report(inst, n_samples=60, seed=3)
        assert rep.degenerate_split
        assert rep.ode_b == parse("8*vss")
        assert not rep.confirmed  # s^(1/4) does not satisfy vss = 0

    def test_non_exceptional_context(self):
        bad = build_instance(-1, 2, "-6.9", -3, Fraction(-3, 2), Fraction(1, 4))
        rep = weak_cs_report(bad, n_samples=60, seed=3)
        assert rep.exceptional_onshell.max_abs >= 1e-3
        assert not rep.instance.is_exceptional

    def test_differential_consequences_flag(self):
        # the CLI's --consequences adds nothing: the last stage is the jet
        # of an invariant solution, where the invariance condition and its
        # total derivatives vanish identically
        from liesym import total_derivative

        rep = weak_cs_report(gss_preset(), n_samples=60, seed=8)
        assert rep.stages[2].verdict == "zero"
        assert len(rep.stages[2].system.constraints) == 6
        cond = invariance_condition()
        for q in (cond, total_derivative(cond, "x"), total_derivative(cond, "y")):
            assert is_zero(rep.stages[2].system.restrict(q))

    def test_wrong_gammas_fail_in_stage_three(self):
        # exceptional exponents, but gammas off the profile's: the ODEs
        # are not solved and the invariant-solution jet leaves A nonzero
        inst = build_instance(-1, 2, -7, -3, 7, -3)
        rep = weak_cs_report(inst, n_samples=60, seed=3)
        assert inst.is_exceptional
        assert [s.verdict for s in rep.stages] == ["nonzero", "nonzero", "nonzero"]
        assert rep.stages[2].stats.remainder == parse("-17*x*y*(x^2 - y^2)^(-7/4)")
        assert not rep.confirmed

    def test_wrong_r_rejected(self):
        with pytest.raises(ReductionError):
            weak_cs_report(build_instance(1, 0, 5, 5, 1, 1))

    def test_report_serializes(self):
        import json

        rep = weak_cs_report(gss_preset(), n_samples=40, seed=1)
        text = json.dumps(rep.to_dict())
        assert "weak conditional symmetry confirmed" in text
