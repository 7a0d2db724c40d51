"""Invariant-variable reduction, ODE split, restricted evaluation."""

import random
from fractions import Fraction

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # optional test dependency, as in test_expr.py
    st = None

from liesym import (
    ConstraintSystem,
    ReductionError,
    add,
    apply_prolonged,
    auxiliary_constraint,
    base_solution,
    build_instance,
    candidate_profile,
    check_onshell_symmetry,
    diff,
    eval_at,
    exceptional_exponents,
    exceptional_vf,
    expand,
    family_residual,
    gss_preset,
    invariance_condition,
    is_zero,
    mul,
    num,
    parse,
    pow_,
    prolong2,
    reduce_residual,
    reduce_to_invariant,
    restricted_eval,
    rotation_like_vf,
    split_by_x2,
    sym,
    symbolic_auxiliary,
    symbolic_invariance_remainder,
    symbolic_residual,
    to_text,
    verify_ode,
    weak_cs_report,
)
from liesym.expr import clear_memo, substitute


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
        with pytest.raises(ValueError, match="requires r = 2"):
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
        assert rep.exceptional_onshell.max_onshell_residual <= 1e-9

    @pytest.mark.parametrize("params", [
        (-1, 2, -7, -3, Fraction(-3, 2), Fraction(1, 4)),
        (-1, 2, 1340, 900, 1, 1),  # not exceptional; terms overflow at some draws
    ], ids=["gss", "overflow"])
    def test_stage_one_is_the_check_of_y(self, params):
        inst = build_instance(*params)
        rep = weak_cs_report(inst, n_samples=40, seed=9)
        y_check = check_onshell_symmetry(rotation_like_vf(), inst, n_samples=40, seed=9)
        stage = rep.stages[0].stats
        assert stage.remainder == y_check.remainder
        assert (stage.max_abs, stage.resampled) == (y_check.max_onshell_residual,
                                                    y_check.resampled)
        assert rep.exceptional_onshell == check_onshell_symmetry(
            exceptional_vf(), inst, n_samples=40, seed=9)

    def test_degenerate_gamma1(self):
        inst = build_instance(-1, 2, -7, -3, 0, Fraction(1, 4))
        rep = weak_cs_report(inst, n_samples=60, seed=3)
        assert rep.degenerate_split
        assert rep.ode_b == parse("8*vss")
        assert not rep.confirmed  # s^(1/4) does not satisfy vss = 0

    def test_non_exceptional_context(self):
        bad = build_instance(-1, 2, "-6.9", -3, Fraction(-3, 2), Fraction(1, 4))
        rep = weak_cs_report(bad, n_samples=60, seed=3)
        assert rep.exceptional_onshell.max_onshell_residual >= 1e-3
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
        with pytest.raises(ValueError, match="requires r = 2"):
            weak_cs_report(build_instance(1, 0, 5, 5, 1, 1))

    def test_report_serializes(self):
        import json

        rep = weak_cs_report(gss_preset(), n_samples=40, seed=1)
        text = json.dumps(rep.to_dict())
        assert "weak conditional symmetry confirmed" in text


def _solution_system(a):
    jet = base_solution(a).jet()
    return ConstraintSystem(tuple(add(sym(n), mul(num(-1), v)) for n, v in jet.items()),
                            tuple(jet))


def _per_instance_routes(inst):
    """The routes weak-cs and reduce took before their derivations were
    kept: prolong the rotation, apply it to the instance's residual,
    restrict that on each stage's constraints, and reduce the instance's
    residual."""
    target = apply_prolonged(prolong2(rotation_like_vf()), inst.delta)
    return (
        target,
        ConstraintSystem((inst.delta,), ("uyy",)).restrict(target),
        ConstraintSystem((inst.delta, invariance_condition()), ("uyy", "uy")).restrict(target),
        _solution_system(inst.a).restrict(target),
        reduce_residual(inst.delta),
    )


def _assert_routes_agree(inst):
    rep = weak_cs_report(inst, n_samples=3, seed=5)
    kept = (auxiliary_constraint(inst), *(s.stats.remainder for s in rep.stages),
            reduce_to_invariant(inst))
    names = ("A", "residual", "residual+invariance", "invariant-solution", "reduced")
    for name, got, want in zip(names, kept, _per_instance_routes(inst)):
        assert got == want, (name, inst.params_text())
    assert rep.reduced == kept[-1]


class TestKeptDerivations:
    """weak-cs and reduce bind derivations kept over symbolic parameters;
    node for node, that must be what the per-instance routes build.  The
    invariant-solution stage substitutes the instance's own jet into the
    bound A: restricted over symbolic a instead and then bound, it is not
    the same expression (see test_stage_three_is_not_kept)."""

    A_VALUES = sorted({Fraction(p, q) for p in (*range(-8, 0), *range(1, 9)) for q in (1, 2, 3)})

    def test_every_a_with_profile_perturbed_and_random_gammas(self):
        assert len(self.A_VALUES) == 36
        rng = random.Random(16)
        for a in self.A_VALUES:
            c1, c2 = exceptional_exponents(a, 2)
            _, g1, g2 = candidate_profile(a)
            random_gammas = [Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
                             for _ in range(2)]
            for params in ((c1, c2, g1, g2), (c1 + Fraction(1, 10), c2, g1, g2),
                           (c1, c2, *random_gammas)):
                _assert_routes_agree(build_instance(a, 2, *params))
            clear_memo()  # as between two commands

    @pytest.mark.parametrize("params", [
        (-1, 2, -7, -3, Fraction(-3, 2), Fraction(1, 4)),  # GSS
        (-1, 2, 1340, 900, 1, 1),  # the overflow golden; expand leaves x^1340 alone
        (Fraction(1, 10), 2, 81, 41, Fraction(41, 200), Fraction(-43, 400)),
    ], ids=["gss", "overflow", "c1-81"])
    def test_named_instances(self, params):
        _assert_routes_agree(build_instance(*params))

    if st is not None:
        rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)

        @settings(max_examples=40, deadline=None)
        @given(rationals.filter(bool), rationals, rationals, rationals, rationals)
        def test_random_rationals(self, a, c1, c2, g1, g2):
            _assert_routes_agree(build_instance(a, 2, c1, c2, g1, g2))

    def test_stage_three_is_not_kept(self):
        # expand distributes an integer power of a sum only up to 16, so a
        # stage-3 remainder restricted over symbolic a and then bound keeps
        # (x^2 - y^2)^335 whole, where the instance's jet gives two terms
        # in (x^2 - y^2)^334
        inst = build_instance(-1, 2, 1340, 900, 1, 1)
        symbolic = _solution_system(sym("a")).restrict(symbolic_auxiliary())
        bound = expand(inst.bind(symbolic))
        per_instance = weak_cs_report(inst, n_samples=3).stages[2].stats.remainder
        assert to_text(bound) == "-3*x*y*(x^2 - y^2)^(-7/4) - 2*x*y*(x^2 - y^2)^335"
        assert to_text(per_instance) == ("-3*x*y*(x^2 - y^2)^(-7/4) - 2*y*x^3*(x^2 - y^2)^334"
                                         " + 2*x*y^3*(x^2 - y^2)^334")


A_VALUES = TestKeptDerivations.A_VALUES


def _profile_instance(a):
    """The exceptional r = 2 instance at a with the profile's source strengths."""
    return build_instance(a, 2, *exceptional_exponents(a, 2), *candidate_profile(a)[1:])


class TestRestrictionShortcuts:
    """weak-cs and reduce restrict nothing per op.  Each shortcut below
    must build, node for node, what the general restriction builds."""

    @staticmethod
    def _assert_stage_three_substitutes(inst):
        # each jet constraint is s - v with v free of every jet symbol, so
        # restrict solves s = v with coefficient 1 and its re-substitution
        # changes nothing: substituting the jet is the restriction
        rep = weak_cs_report(inst, n_samples=3, seed=5)
        stage = rep.stages[2]
        assert stage.system == _solution_system(inst.a)
        assert stage.stats.remainder == stage.system.restrict(auxiliary_constraint(inst)), \
            inst.params_text()

    def test_stage_three_on_every_workload_a(self):
        assert len(A_VALUES) == 36
        for a in A_VALUES:
            self._assert_stage_three_substitutes(_profile_instance(a))
            clear_memo()

    @pytest.mark.parametrize("params", [
        (-1, 2, 1340, 900, 1, 1),  # the large-exponent instance of test_stage_three_is_not_kept
        (-4, 2, -1, 0, 0, -8),  # c2 = 0 and gamma1 = 0
        (-8, 2, 0, Fraction(1, 2), 12, -40),  # c1 = 0
        (-1, 2, -7, -3, 0, Fraction(1, 4)),  # gamma1 = 0
        (-1, 2, -7, -3, 7, -3),  # off-profile gammas
    ], ids=["c1-1340", "a-4", "a-8", "gamma1-0", "off-profile"])
    def test_stage_three_on_named_instances(self, params):
        self._assert_stage_three_substitutes(build_instance(*params))

    if st is not None:
        rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)

        @settings(max_examples=40, deadline=None)
        @given(st.sampled_from([*A_VALUES, Fraction(-4), Fraction(-8)]), rationals,
               rationals, rationals.filter(bool), rationals, st.booleans())
        def test_stage_three_on_random_instances(self, a, c1, c2, g1, g2, zero_gamma1):
            self._assert_stage_three_substitutes(
                build_instance(a, 2, c1, c2, 0 if zero_gamma1 else g1, g2))

    def test_stage_two_chains_from_stage_one(self):
        # the oracle: the symbolic A restricted by the residual and the
        # invariance condition together, as stage 2 was derived before
        oracle = ConstraintSystem((symbolic_residual(), invariance_condition()),
                                  ("uyy", "uy")).restrict(symbolic_auxiliary())
        assert symbolic_invariance_remainder() == oracle
        assert to_text(oracle) == "-4*uxy - gamma1*r*y*u^(c1)*x^(-1 + r)"

    if st is not None:
        @settings(max_examples=60, deadline=None)
        @given(rationals.filter(bool), rationals, rationals, rationals, rationals, rationals)
        def test_bound_derivations_are_expanded(self, a, r, c1, c2, g1, g2):
            inst = build_instance(a, r, c1, c2, g1, g2)
            stage_two = inst.bind(symbolic_invariance_remainder())
            assert expand(stage_two) == stage_two
            at_r_two = build_instance(a, 2, c1, c2, g1, g2)
            reduced = reduce_to_invariant(at_r_two)
            assert expand(reduced) == reduced

    def test_no_restriction_per_op(self, monkeypatch):
        weak_cs_report(gss_preset(), n_samples=3)  # derives what is kept
        calls = []
        restrict = ConstraintSystem.restrict

        def counting(self, target):
            calls.append(self)
            return restrict(self, target)

        monkeypatch.setattr(ConstraintSystem, "restrict", counting)
        inst = _profile_instance(Fraction(5, 3))
        for field in (rotation_like_vf(), exceptional_vf()):
            check_onshell_symmetry(field, inst, n_samples=3)
        assert weak_cs_report(inst, n_samples=3).confirmed
        reduce_to_invariant(inst)
        assert calls == []

    @staticmethod
    def _assert_profile_binds(a):
        symbolic = candidate_profile(sym("a"))
        v, g1, g2 = candidate_profile(a)
        assert v == substitute(symbolic[0], {"a": a})
        assert [num(g1), num(g2)] == [substitute(g, {"a": a}) for g in symbolic[1:]]
        assert isinstance(g1, Fraction) and isinstance(g2, Fraction)

    def test_numeric_profile_is_the_symbolic_one_bound(self):
        for a in (*A_VALUES, Fraction(-4), Fraction(-8), Fraction(-4, 3)):
            self._assert_profile_binds(a)

    if st is not None:
        @settings(max_examples=60, deadline=None)
        @given(st.fractions(min_value=-50, max_value=50, max_denominator=50).filter(bool))
        def test_numeric_profile_on_random_a(self, a):
            self._assert_profile_binds(a)
