"""Finite group action, closed-form solutions, region geometry, grids."""

import math
import random
from fractions import Fraction

import pytest

from liesym import (
    GridSpec,
    SampleSpec,
    SingularPointError,
    base_solution,
    build_instance,
    conformal_factor,
    equiv_numeric,
    eval_at,
    family_solution,
    flow_generator_check,
    gss_preset,
    is_zero,
    map_point,
    parse,
    region,
    residual_grid,
    sample_in_region,
    scaling_invariance_residual,
    sym,
    transform_solution,
)


def _itoi(x, y, lam):
    """Composition oracle: inversion, y-translation by lam, inversion."""
    r2 = x * x + y * y
    x1, y1 = x / r2, y / r2
    y1 += lam
    r2 = x1 * x1 + y1 * y1
    return x1 / r2, y1 / r2


class TestConformalFactor:
    def test_identity_at_zero(self):
        assert conformal_factor(1.0, 1.0, 0.0) == 1.0

    def test_reference_value(self):
        assert conformal_factor(1.0, 2.0, 1.0) == 10.0

    def test_vanishes_on_axis_point(self):
        # C(0, y, lam) = (1 + lam y)^2, zero exactly at y = -1/lam
        assert conformal_factor(0.0, -1.0, 1.0) == 0.0
        assert conformal_factor(0.0, -2.0, 0.5) == 0.0


class TestMapPoint:
    def test_identity_at_zero(self):
        assert map_point(1.0, 2.0, 0.0) == (1.0, 2.0)

    def test_reference_point(self):
        xt, yt = map_point(1.0, 2.0, 1.0)
        assert xt == pytest.approx(0.1, abs=1e-15)
        assert yt == pytest.approx(0.7, abs=1e-15)

    def test_singular_point_raises(self):
        with pytest.raises(SingularPointError):
            map_point(0.0, -1.0, 1.0)

    def test_composition_reference(self):
        p1 = map_point(*map_point(1.0, 0.5, 0.2), 0.3)
        p2 = map_point(1.0, 0.5, 0.5)
        assert p1[0] == pytest.approx(p2[0], abs=1e-12)
        assert p1[1] == pytest.approx(p2[1], abs=1e-12)

    def test_matches_inversion_translation_inversion(self):
        rng = random.Random(321)
        for _ in range(200):
            x, y = rng.uniform(0.2, 1.5), rng.uniform(-1.0, 1.0)
            lam = rng.uniform(-0.6, 0.6)
            if abs(conformal_factor(x, y, lam)) < 0.05:
                continue
            xt, yt = map_point(x, y, lam)
            xo, yo = _itoi(x, y, lam)
            assert xt == pytest.approx(xo, rel=1e-12, abs=1e-12)
            assert yt == pytest.approx(yo, rel=1e-12, abs=1e-12)

    def test_group_law_random(self):
        rng = random.Random(55)
        done = 0
        while done < 200:
            x, y = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
            l1, l2 = rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)
            if abs(conformal_factor(x, y, l1)) < 0.05:
                continue
            mid = map_point(x, y, l1)
            if abs(conformal_factor(*mid, l2)) < 0.05:
                continue
            if abs(conformal_factor(x, y, l1 + l2)) < 0.05:
                continue
            done += 1
            once = map_point(x, y, l1 + l2)
            twice = map_point(*mid, l2)
            scale = 1 + abs(once[0]) + abs(once[1])
            assert abs(twice[0] - once[0]) <= 1e-12 * scale
            assert abs(twice[1] - once[1]) <= 1e-12 * scale


class TestBaseSolution:
    def test_reference_value(self):
        sol = base_solution(-1)
        assert eval_at(sol.expr, {"x": 2.0, "y": 1.0}) == pytest.approx(3 ** 0.25)

    def test_wedge_domain(self):
        sol = base_solution(-1)
        assert sol.domain(2.0, 1.0)
        assert not sol.domain(1.0, 2.0)
        assert not sol.domain(1.0, 1.0)  # boundary excluded

    def test_integer_exponent_extends_to_plane(self):
        sol = base_solution(-4, extended=True)
        assert sol.expr == parse("x^2 - y^2")
        assert sol.domain(1.0, 2.0)

    def test_negative_integer_exponent_avoids_lines(self):
        sol = base_solution(4, extended=True)
        assert sol.domain(1.0, 2.0)
        assert not sol.domain(1.0, 1.0)

    def test_zero_a_rejected(self):
        with pytest.raises(ValueError):
            base_solution(0)
        with pytest.raises(ValueError):
            family_solution(0, 1)

    def test_restricted_is_default(self):
        assert not base_solution(-4).domain(1.0, 2.0)

    def test_solves_gss_at_point(self):
        sol = base_solution(-1)
        jet = sol.jet()
        env = {name: eval_at(e, {"x": 2.0, "y": 1.0}) for name, e in jet.items()}
        env.update({"x": 2.0, "y": 1.0})
        assert abs(eval_at(gss_preset().delta, env)) <= 1e-10


class TestFamilySolution:
    def test_lambda_zero_recovers_base(self):
        for a in (-1, -2, 1, sym("a")):
            assert family_solution(a, 0).expr == base_solution(a).expr

    def test_reference_point_inside(self):
        sol = family_solution(-1, 1)
        assert sol.domain(0.5, -0.5)
        assert eval_at(sol.expr, {"x": 0.5, "y": -0.5}) == pytest.approx(0.25 ** 0.25)

    def test_lens_is_excluded(self):
        sol = family_solution(-1, 1)
        assert not sol.domain(0.0, -0.5)

    def test_negative_lambda_mirror(self):
        pos, neg = family_solution(-1, 1), family_solution(-1, -1)
        assert pos.domain(0.5, -0.5) == neg.domain(0.5, 0.5)
        v1 = eval_at(pos.expr, {"x": 0.5, "y": -0.5})
        v2 = eval_at(neg.expr, {"x": 0.5, "y": 0.5})
        assert v1 == pytest.approx(v2, rel=1e-14)


class TestTransformSolution:
    def test_identity_at_lambda_zero(self):
        for a in (-1, 2, sym("a")):
            base = base_solution(a)
            assert transform_solution(base, 0).expr == base.expr

    def test_collapses_to_family_expression(self):
        for a in (-1, -2, 1, Fraction(3, 2), sym("a")):
            for lam in (Fraction(3, 10), 1):
                pushed = transform_solution(base_solution(a), lam)
                assert pushed.expr == family_solution(a, lam).expr

    def test_equiv_numeric_in_region(self):
        for a in (-1, -2, 1):
            for lam in (0.3, 1.0):
                pushed = transform_solution(base_solution(a), Fraction(str(lam)))
                fam = family_solution(a, Fraction(str(lam)))
                geo = region(lam)
                spec = SampleSpec(
                    count=64, rel_tol=1e-12, seed=17,
                    intervals={
                        "x": (geo.center2[0] - geo.radius, geo.center1[0] + geo.radius),
                        "y": (geo.center1[1] - geo.radius, geo.center1[1] + geo.radius),
                    },
                    accept=lambda env, g=geo: g.membership(env["x"], env["y"]),
                )
                assert equiv_numeric(pushed.expr, fam.expr, spec)

    def test_two_half_steps_equal_one_step(self):
        base = base_solution(-1)
        once = transform_solution(base, Fraction(1))
        twice = transform_solution(
            transform_solution(base, Fraction(1, 2)), Fraction(1, 2))
        geo = region(1.0)
        spec = SampleSpec(
            count=64, rel_tol=1e-9, seed=23,
            intervals={
                "x": (geo.center2[0] - geo.radius, geo.center1[0] + geo.radius),
                "y": (geo.center1[1] - geo.radius, geo.center1[1] + geo.radius),
            },
            accept=lambda env: geo.membership(env["x"], env["y"])
            and twice.domain(env["x"], env["y"]),
        )
        assert equiv_numeric(once.expr, twice.expr, spec)

    def test_domain_is_pullback(self):
        pushed = transform_solution(base_solution(-1), Fraction(1))
        geo = region(1.0)
        rng = random.Random(77)
        for _ in range(500):
            x = rng.uniform(-1.3, 1.3)
            y = rng.uniform(-1.3, 0.3)
            assert pushed.domain(x, y) == geo.membership(x, y)


class TestRegion:
    def test_geometry_at_unit_lambda(self):
        geo = region(1.0)
        assert geo.center1 == (0.5, -0.5)
        assert geo.center2 == (-0.5, -0.5)
        assert geo.radius == pytest.approx(1 / math.sqrt(2))

    def test_radius_scales_inversely(self):
        assert region(2.0).radius == pytest.approx(region(1.0).radius / 2)

    def test_boundary_excluded(self):
        geo = region(1.0)
        # rightmost point of circle 1: argument of the power base is 0
        x = geo.center1[0] + geo.radius
        y = geo.center1[1]
        assert not geo.membership(x, y)

    def test_nonpositive_lambda_rejected(self):
        for lam in (0.0, -1.0):
            with pytest.raises(ValueError):
                region(lam)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_algebraic_membership_equals_disk_xor(self, lam):
        geo = region(lam)
        rng = random.Random(int(lam * 100))
        span = 1.3 * (geo.center1[0] + geo.radius)
        mismatches = 0
        for _ in range(10_000):
            x = rng.uniform(-span, span)
            y = rng.uniform(geo.center1[1] - 1.3 * geo.radius,
                            geo.center1[1] + 1.3 * geo.radius)
            if geo.membership(x, y) != geo.xor_disks(x, y):
                mismatches += 1
        assert mismatches == 0

    def test_sample_in_region_respects_membership(self):
        geo = region(1.0)
        for x, y in sample_in_region(1.0, 100, seed=3):
            assert geo.membership(x, y)


class TestResidualGrid:
    def test_base_solution_grid(self):
        field = residual_grid(gss_preset(), base_solution(-1),
                              GridSpec(1.0, 2.0, -0.5, 0.5, 50, 50))
        assert field.n_in_domain == 2500
        assert field.sup_norm <= 1e-10

    def test_family_solution_grid(self):
        geo = region(1.0)
        grid = GridSpec(geo.center2[0] - geo.radius, geo.center1[0] + geo.radius,
                        geo.center1[1] - geo.radius, geo.center1[1] + geo.radius,
                        100, 100)
        field = residual_grid(gss_preset(), family_solution(-1, 1), grid)
        assert field.n_in_domain > 5000
        assert field.sup_norm <= 1e-9

    def test_perturbed_source_strength_detected(self):
        inst = build_instance(-1, 2, -7, -3, Fraction(-3, 2) + Fraction(1, 1000),
                              Fraction(1, 4))
        field = residual_grid(inst, base_solution(-1),
                              GridSpec(1.0, 2.0, -0.5, 0.5, 25, 25))
        assert field.sup_norm > 1e-5

    def test_masking_and_empty_domain(self):
        sol = base_solution(-1)
        field = residual_grid(gss_preset(), sol, GridSpec(0.1, 0.4, 1.0, 2.0, 3, 3))
        assert field.n_in_domain == 0
        assert field.sup_norm is None
        assert field.us == [None] * 9 and field.residuals == [None] * 9

    def test_row_major_order(self):
        sol = base_solution(-1)
        field = residual_grid(gss_preset(), sol, GridSpec(1.0, 2.0, -0.5, 0.5, 2, 2))
        coords = [(x, y) for y in field.grid.ys() for x in field.grid.xs()]
        assert coords == [(1.0, -0.5), (2.0, -0.5), (1.0, 0.5), (2.0, 0.5)]
        assert field.us == [eval_at(sol.expr, {"x": x, "y": y}) for x, y in coords]
        assert len(field.residuals) == 4 and None not in field.residuals

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(2.0, 1.0, 0.0, 1.0, 5, 5)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 0.0, 1.0, 0, 5)


class TestFlowGenerator:
    def test_map_derivatives_at_reference_point(self):
        check = flow_generator_check((1.0, 2.0))
        assert check.dx_exact == -4.0
        assert check.dy_exact == -3.0
        assert check.max_error <= 1e-6

    def test_vanishing_on_axis(self):
        check = flow_generator_check((1.3, 0.0))
        assert check.dx_fd == pytest.approx(0.0, abs=1e-9)

    def test_solution_value_moves_with_characteristic(self):
        check = flow_generator_check((2.0, 1.0), base_solution(-1))
        assert check.du_exact is not None
        assert abs(check.du_fd - check.du_exact) <= 1e-6

    def test_many_points(self):
        rng = random.Random(808)
        sol = base_solution(-1)
        for _ in range(50):
            x = rng.uniform(0.8, 2.0)
            y = rng.uniform(-0.6, 0.6)
            if x * x - y * y <= 0.05:
                continue
            check = flow_generator_check((x, y), sol)
            assert check.max_error <= 1e-6

    def test_step_validation(self):
        with pytest.raises(ValueError):
            flow_generator_check((1.0, 0.5), h=1e-2)


class TestScalingInvariance:
    def test_structurally_zero_symbolic(self):
        assert is_zero(scaling_invariance_residual(sym("a")))

    @pytest.mark.parametrize("a", [-1, 2, Fraction(-5, 3)])
    def test_structurally_zero_numeric(self, a):
        assert is_zero(scaling_invariance_residual(a))
