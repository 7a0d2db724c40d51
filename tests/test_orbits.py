"""Finite group action, closed-form solutions, region geometry, grids."""

import io
import math
import random
from fractions import Fraction

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # optional test dependency, as in test_expr.py
    st = None

from liesym import (
    DomainError,
    GridSpec,
    SampleSpec,
    SingularPointError,
    Sym,
    base_solution,
    build_instance,
    candidate_profile,
    conformal_factor,
    diff,
    equiv_numeric,
    eval_at,
    exceptional_exponents,
    expand,
    family_expr,
    family_solution,
    generator_remainder,
    gss_preset,
    is_zero,
    map_point,
    map_point_exprs,
    mul,
    num,
    parse,
    pow_,
    region,
    residual_grid,
    sample_in_region,
    scaling_invariance_residual,
    scaling_vf,
    solution_residual,
    substitute,
    sym,
    symbolic_family_residual,
    to_callable,
    transform_solution,
)
from liesym import orbits
from liesym.expr import clear_memo, to_cancellation


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
        sink = io.StringIO()
        field = residual_grid(gss_preset(), sol, GridSpec(0.1, 0.4, 1.0, 2.0, 3, 3), sink)
        assert field.n_in_domain == 0
        assert field.sup_norm is None
        rows = sink.getvalue().splitlines()[1:]
        assert len(rows) == 9 and all(row.endswith(",0,,") for row in rows)

    def test_row_major_order(self):
        sol = base_solution(-1)
        sink = io.StringIO()
        residual_grid(gss_preset(), sol, GridSpec(1.0, 2.0, -0.5, 0.5, 2, 2), sink)
        rows = [line.split(",") for line in sink.getvalue().splitlines()[1:]]
        coords = [(float(row[0]), float(row[1])) for row in rows]
        assert coords == [(1.0, -0.5), (2.0, -0.5), (1.0, 0.5), (2.0, 0.5)]
        assert [float(row[3]) for row in rows] == [
            eval_at(sol.expr, {"x": x, "y": y}) for x, y in coords]
        assert all(row[2] == "1" and row[4] != "" for row in rows)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(2.0, 1.0, 0.0, 1.0, 5, 5)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 0.0, 1.0, 0, 5)


def _profile_instance(a):
    """r = 2 with the exceptional pair and the profile gammas: the
    instances the family solves."""
    _, g1, g2 = candidate_profile(a)
    return build_instance(a, 2, *exceptional_exponents(a, 2), g1, g2)


def _solution(a, lam):
    return base_solution(a) if lam is None else family_solution(a, lam)


def _per_instance_residual(inst, sol):
    """The oracle: the solution's own jet, derived for this solution alone,
    substituted into the instance's residual."""
    return substitute(inst.delta, sol.jet())


def _grid_for(lam, n):
    """The CLI's default grid: the wedge box for the base solution (lam
    None or 0), else the bounding box of the two disks, mirrored in y for
    lam < 0."""
    if not lam:
        return GridSpec(1.0, 2.0, -0.5, 0.5, n, n)
    x_lo, x_hi, y_lo, y_hi = region(abs(float(lam))).bounding_box()
    if lam < 0:
        y_lo, y_hi = -y_hi, -y_lo
    return GridSpec(x_lo, x_hi, y_lo, y_hi, n, n)


def _grid_rows(inst, sol, grid):
    """(field, CSV rows) of a grid."""
    sink = io.StringIO()
    field = residual_grid(inst, sol, grid, sink)
    return field, [row.split(",") for row in sink.getvalue().splitlines()[1:]]


def _node_oracle(inst, sol):
    """(measure, u) at a node, or None where the node is masked off the
    real domain, from the solution's own jet: each of the five PDE terms
    is substituted and compiled on its own, and the measure is their sum
    over 1 + the largest, as a grid measures the kept residual."""
    jet = sol.jet()
    a, r, c1, c2, g1, g2 = map(num, inst.numbers().values())
    terms = [jet["uxx"], jet["uyy"], mul(a, pow_(sym("x"), num(-1)), jet["ux"]),
             mul(num(-1), g1, pow_(sym("x"), r), pow_(jet["u"], c1)),
             mul(num(-1), g2, pow_(jet["u"], c2))]
    fns = [to_callable(e, ("x", "y")) for e in (sol.expr, *terms)]

    def node(x, y):
        try:
            u, *values = (fn(x, y) for fn in fns)
        except DomainError:
            return None
        measure = sum(values, 0.0) / (1.0 + max(map(abs, values)))
        return (measure, u) if math.isfinite(measure) and math.isfinite(u) else None

    return node


def _assert_grids_agree(inst, sol, grid):
    """The grid, compiled from the kept residual with the numbers folded
    in, and the node oracle from the solution's own jet give the same
    verdict at the CLI's tolerance, the same mask, u within 1e-12 relative
    and residuals within 1e-12 relative (1e-14 absolute at roundoff-level
    nodes) at every node; (grid, oracle) sup norms."""
    field, rows = _grid_rows(inst, sol, grid)
    oracle = _node_oracle(inst, sol)
    oracle_sup = None
    for row in rows:
        x, y = float(row[0]), float(row[1])
        want = oracle(x, y) if sol.domain(x, y) else None
        assert row[2] == ("0" if want is None else "1"), row
        if want is None:
            continue
        assert math.isclose(float(row[3]), want[1], rel_tol=1e-12), row
        assert math.isclose(float(row[4]), want[0], rel_tol=1e-12, abs_tol=1e-14), (row, want)
        oracle_sup = max(abs(want[0]), oracle_sup or 0.0)
    within = [sup is not None and sup <= 1e-9 for sup in (field.sup_norm, oracle_sup)]
    assert within[0] == within[1]
    return field.sup_norm, oracle_sup


class TestKeptFamilyResidual:
    """``solution_residual`` binds one residual derived over symbolic a and
    lam; where the family solves the instance it is structurally the
    residual of the solution's own jet.  A grid compiles that kept
    residual with the numbers folded in, and measures it over the five
    terms of the PDE."""

    A_VALUES = sorted({Fraction(p, q) for p in (*range(-8, 0), *range(1, 9)) for q in (1, 2, 3)})
    LAMBDAS = sorted({Fraction(p, q) for p in range(1, 7) for q in range(1, 7)})

    def test_every_profile_instance_and_lambda(self):
        assert (len(self.A_VALUES), len(self.LAMBDAS)) == (36, 23)
        for a in self.A_VALUES:
            inst = _profile_instance(a)
            for lam in self.LAMBDAS:
                sol = family_solution(a, lam)
                assert solution_residual(inst, sol) == _per_instance_residual(inst, sol), (a, lam)
            clear_memo()

    @pytest.mark.parametrize("lam", [None, 0, -1, Fraction(-1, 3), 20])
    def test_gss(self, lam):
        sol = _solution(-1, lam)
        assert solution_residual(gss_preset(), sol) == _per_instance_residual(gss_preset(), sol)

    @pytest.mark.parametrize("a", [-1, Fraction(-5, 3), Fraction(7, 2), sym("a")])
    def test_base_is_the_family_at_lambda_zero(self, a):
        base, family = base_solution(a), family_solution(a, 0)
        assert base.expr == family.expr == family_expr(a, 0)
        assert base.lam == family.lam == 0
        inst = gss_preset() if isinstance(a, Sym) else _profile_instance(a)
        assert solution_residual(inst, base) == solution_residual(inst, family)
        assert solution_residual(inst, base) == _per_instance_residual(inst, base)

    if st is not None:
        rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)

        @settings(max_examples=60, deadline=None)
        @given(rationals.filter(bool),
               st.fractions(min_value=-40, max_value=40, max_denominator=9))
        def test_random_profile_rationals(self, a, lam):
            inst = _profile_instance(a)
            sol = family_solution(a, lam)
            assert solution_residual(inst, sol) == _per_instance_residual(inst, sol)
            clear_memo()

    def test_pushforward_keeps_its_own_jet(self):
        pushed = transform_solution(base_solution(-1), Fraction(1, 2))
        assert pushed.lam is None
        assert solution_residual(gss_preset(), pushed) == _per_instance_residual(
            gss_preset(), pushed)

    def test_the_instance_of_the_changed_digits(self):
        # the family does not solve this instance: its kept residual is a
        # different expression, with the same mask and verdict, and the sup
        # the README quotes
        inst = build_instance(Fraction(1, 3), 2, Fraction(251, 10), 13,
                              Fraction(13, 18), Fraction(-5, 12))
        sol = family_solution(inst.a, 1)
        assert solution_residual(inst, sol) != _per_instance_residual(inst, sol)
        assert _assert_grids_agree(inst, sol, _grid_for(1, 24)) == (
            0.05555774840367221, 0.055557748403672114)

    def test_folded_grid_against_the_bound_path(self):
        # every profile a at lam 0, 1/2, 1 and 3: the grid compiled with the
        # numbers folded in masks the nodes that the bound residual of
        # solution_residual masks, its u is within 1e-12 of the bound u,
        # and its sup is at roundoff
        for a in self.A_VALUES:
            inst = _profile_instance(a)
            for lam in (0, Fraction(1, 2), 1, 3):
                sol = family_solution(a, lam)
                field, rows = _grid_rows(inst, sol, _grid_for(lam, 24))
                bound = to_cancellation(solution_residual(inst, sol), ("x", "y"), sol.expr)
                for row in rows:
                    x, y = float(row[0]), float(row[1])
                    try:
                        want = bound(x, y) if sol.domain(x, y) else None
                    except DomainError:
                        want = None
                    assert row[2] == ("0" if want is None else "1"), (a, lam, row)
                    if want is not None:
                        assert math.isclose(float(row[3]), want[1], rel_tol=1e-12), (a, lam, row)
                assert field.n_in_domain > 0 and field.sup_norm <= 1e-13, (a, lam)
            clear_memo()

    def test_random_non_profile_instances(self):
        rng = random.Random(2024)
        values = [Fraction(p, q) for p in range(-9, 10) for q in (1, 2, 3, 10)]
        for _ in range(40):
            a = rng.choice([v for v in values if v])
            c1, c2 = exceptional_exponents(a, 2)
            if rng.random() < 0.5:  # the exceptional pair, other gammas
                params = (a, 2, c1, c2, rng.choice(values), rng.choice(values))
            else:  # a perturbed pair, or another r
                params = (a, rng.choice((0, 1, 2, 3)), c1 + rng.choice(values), c2,
                          rng.choice(values), rng.choice(values))
            lam = rng.choice((None, 0, Fraction(1, 2), 1, Fraction(-1, 3), 4))
            inst = build_instance(*params)
            _assert_grids_agree(inst, _solution(a, lam), _grid_for(lam, 12))
            clear_memo()

    @pytest.mark.parametrize("sol_a,lam", [(2, Fraction(1, 2)), (Fraction(-5, 3), None),
                                           (Fraction(1, 3), -1), (-1, 3)])
    def test_solution_a_apart_from_instance_a(self, sol_a, lam):
        # the kept residual gives the solution's exponent its own symbol, so
        # a library call still grids the solution it is handed
        inst = gss_preset()
        sol = _solution(sol_a, lam)
        field, _ = _grid_rows(inst, sol, _grid_for(lam, 12))
        if sol_a != -1:
            assert field.sup_norm > 1e-3
        _assert_grids_agree(inst, sol, _grid_for(lam, 12))

    def test_symbolic_residual_is_over_a_lam_and_the_solution_a(self):
        free = symbolic_family_residual().free_symbols()
        assert {"a", "a_sol", "lam", "x", "y"} <= free
        assert not free & {"u", "ux", "uy", "uxx", "uxy", "uyy"}


class TestFlowGenerator:
    """d/dlam at lam = 0 of the finite action against its generator X,
    exactly."""

    @staticmethod
    def _map_rates():
        return [expand(substitute(diff(e, "lam"), {"lam": num(0)}))
                for e in map_point_exprs(sym("lam"))]

    def test_map_derivatives_at_reference_point(self):
        rates = self._map_rates()
        assert rates == [parse("-2*x*y"), parse("x^2 - y^2")]
        assert [eval_at(e, {"x": 1.0, "y": 2.0}) for e in rates] == [-4.0, -3.0]

    def test_vanishing_on_axis(self):
        assert is_zero(substitute(self._map_rates()[0], {"y": num(0)}))

    def test_solution_value_moves_with_characteristic(self):
        assert is_zero(generator_remainder(base_solution(-1)))
        assert is_zero(generator_remainder(family_solution(-1, Fraction(1, 2))))
        assert is_zero(generator_remainder(base_solution(sym("a"))))

    def test_many_exponents(self):
        for a in (-1, 2, Fraction(1, 3), Fraction(-5, 3), 6, -4):
            assert is_zero(generator_remainder(base_solution(a))), a
            assert is_zero(generator_remainder(family_solution(a, Fraction(2, 3)))), a

    def test_another_generator_leaves_a_remainder(self, monkeypatch):
        # the identity holds for any u, by the chain rule, once the point
        # map and the weight C^(-a/2) generate X; against the scaling field
        # X' in place of X it fails
        monkeypatch.setattr(orbits, "exceptional_vf", scaling_vf)
        remainder = generator_remainder(base_solution(-1))
        assert not is_zero(remainder)
        assert abs(eval_at(remainder, {"x": 2.0, "y": 1.0})) > 1.0


class TestScalingInvariance:
    def test_structurally_zero_symbolic(self):
        assert is_zero(scaling_invariance_residual(sym("a")))

    @pytest.mark.parametrize("a", [-1, 2, Fraction(-5, 3)])
    def test_structurally_zero_numeric(self, a):
        assert is_zero(scaling_invariance_residual(a))
