"""Finite group action, closed-form solutions, region geometry, grids."""

import io
import json
import math
import random
from fractions import Fraction

import pytest

try:
    from hypothesis import example, given, settings
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
    scaling_invariance_residual,
    scaling_vf,
    substitute,
    sym,
    symbolic_family_residual,
    to_callable,
    to_text,
    transform_solution,
)
from liesym import orbits
from liesym.expr import clear_memo, to_cancellation, to_predicate


def sample_in_region(lam, count, seed):
    """``count`` seeded points inside the two-disk region of ``lam``, drawn
    x, then y, by ``rng.uniform`` from its bounding box, the points
    outside it redrawn."""
    geo = region(lam)
    x_lo, x_hi, y_lo, y_hi = geo.bounding_box()
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        point = rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi)
        if geo.membership(*point):
            points.append(point)
    return points


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


class TestGroupLawExact:
    """The finite action is a one-parameter group, exactly: mapping by l2
    and then by l1 is mapping by l1 + l2.  With x~ = x / C(l2) and
    y~ = B(l2) / C(l2), where B(lam) = y + lam (x^2 + y^2), each identity
    is one of the composition's, cleared of its denominators C(l2)^k."""

    L1, L2 = sym("l1"), sym("l2")
    X = sym("x")

    @staticmethod
    def c(lam):
        return substitute(orbits._C_EXPR, {"lam": lam})

    @staticmethod
    def b(lam):
        return substitute(orbits._B_EXPR, {"lam": lam})

    def test_the_mapped_radius(self):
        # x~^2 + y~^2 = rho^2 / C(l2)
        l2 = self.L2
        assert expand(self.X**2 + self.b(l2)**2 - orbits._RHO2 * self.c(l2)) == num(0)

    def test_the_conformal_factor_composes(self):
        # C(l1)(x~, y~) = C(l1 + l2) / C(l2), so x~ / C(l1)(x~, y~) = x / C(l1 + l2)
        l1, l2 = self.L1, self.L2
        c2, b2 = self.c(l2), self.b(l2)
        lhs = c2**2 + l1**2 * (self.X**2 + b2**2) + 2 * l1 * b2 * c2
        assert expand(lhs - c2 * self.c(l1 + l2)) == num(0)

    def test_the_y_numerator_composes(self):
        # B(l1)(x~, y~) = B(l1 + l2) / C(l2), so the mapped y is B / C at l1 + l2
        l1, l2 = self.L1, self.L2
        c2, b2 = self.c(l2), self.b(l2)
        lhs = b2 * c2 + l1 * (self.X**2 + b2**2)
        assert expand(lhs - self.b(l1 + l2) * c2) == num(0)


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
                    positive=fam.conditions(),
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
            positive=(*family_solution(-1, Fraction(1)).conditions(), *twice.conditions()),
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

    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize("lam", [1 / 3, 0.5, 1.0, 2.0])
    def test_xor_mismatches_counts_the_draws_of_rng_uniform(self, lam, seed):
        # the two descriptions agree on the true geometry, where the count
        # reads 0 whatever the draws; widened disks disagree on a band of
        # points, so the count sees the draw order and formula
        geo = region(lam)
        geo = geo._replace(radius=1.05 * geo.radius)
        x_lo, x_hi, y_lo, y_hi = geo.xor_check_box()
        rng = random.Random(seed)
        expected = 0
        for _ in range(2000):
            x = rng.uniform(x_lo, x_hi)
            y = rng.uniform(y_lo, y_hi)
            expected += geo.membership(x, y) != geo.xor_disks(x, y)
        assert geo.xor_mismatches(2000, seed) == expected > 0

    def test_sample_in_region_respects_membership(self):
        # the test helper's points, which test_expr.py evaluates at, lie in
        # the region by both of its descriptions
        geo = region(1.0)
        for x, y in sample_in_region(1.0, 100, seed=3):
            assert geo.membership(x, y) and geo.xor_disks(x, y)


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


def solution_residual(inst, sol):
    """The instance's residual on the solution's jet, as an expression in x
    and y: the instance's numbers and the solution's own bound into its
    kept residual in one substitution.  ``residual_grid`` compiles that
    residual with the same numbers folded in; this bound form is the
    reference that folding is tested against."""
    residual, _, own = orbits._kept_residual(sol)
    return inst.bind(residual, **own)


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
        # the family at lam != 0 pushed, and the base's pushforward pushed again
        for sol, lam in ((family_solution(-1, Fraction(1, 2)), Fraction(1, 3)),
                         (transform_solution(base_solution(-1), 2), Fraction(-1, 2))):
            pushed = transform_solution(sol, lam)
            assert pushed.lam is None
            residual, u, own = orbits._kept_residual(pushed)
            assert (u, own) == (pushed.expr, {})
            assert solution_residual(gss_preset(), pushed) == _per_instance_residual(
                gss_preset(), pushed), lam

    def test_the_bases_pushforward_binds_the_kept_residual(self):
        for lam in (Fraction(1, 2), 2, Fraction(1, 3)):
            pushed = transform_solution(base_solution(-1), lam)
            assert orbits._kept_residual(pushed) == (
                symbolic_family_residual(), orbits.symbolic_family_solution(),
                {"a_sol": -1, "lam": lam})
            assert solution_residual(gss_preset(), pushed) == _per_instance_residual(
                gss_preset(), pushed), lam

    @pytest.mark.parametrize("inst_a,a,lam,solves", [
        (-1, -1, Fraction(1, 2), True),
        (-1, -1, 2, True),
        (Fraction(-5, 3), Fraction(-5, 3), Fraction(1, 3), True),
        (Fraction(7, 2), Fraction(7, 2), 1, True),
        (-1, Fraction(7, 2), 1, False),  # the solution's a apart from the instance's
        (Fraction(7, 2), -1, Fraction(1, 2), False),
    ])
    @pytest.mark.parametrize("pushed_from", ["base", "half-way-family"])
    def test_pushforward_grid(self, inst_a, a, lam, solves, pushed_from):
        # the base's pushforward grids the kept family residual on C > 0
        # too; the family at lam/2 pushed by lam/2 (the family at lam, by
        # the group law) compiles its own jet in the symbolic residual with
        # the numbers folded in: the five PDE terms, as the oracle
        inst = gss_preset() if inst_a == -1 else _profile_instance(inst_a)
        if pushed_from == "base":
            pushed = transform_solution(base_solution(a), lam)
        else:
            pushed = transform_solution(family_solution(a, Fraction(lam) / 2), Fraction(lam) / 2)
            assert pushed.lam is None
        grid = _grid_for(lam, 24)
        sup, _ = _assert_grids_agree(inst, pushed, grid)
        assert (sup <= 1e-13) == solves
        assert residual_grid(inst, pushed, grid).n_in_domain > 100

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
                measure = to_cancellation(solution_residual(inst, sol), ("x", "y"))
                u = to_callable(sol.expr, ("x", "y"))
                for row in rows:
                    x, y = float(row[0]), float(row[1])
                    try:
                        want = (measure(x, y), u(x, y)) if sol.domain(x, y) else None
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


def _closure_domain(lam):
    """The reference: the family's domain as the float test liesym made
    before its domain became expressions (the base solution's at 0)."""
    lam = float(lam)

    def inside(x, y):
        b = y + lam * (x * x + y * y)
        return (x - b) * (x + b) > 0.0

    return inside


# the instance and the lam (None: the base solution) of each grid of
# tests/test_cli.py::TestGoldenBytes
GOLDEN_GRIDS = [(gss_preset, 1, 120), (gss_preset, None, 90),
                (lambda: _profile_instance(Fraction(7, 2)), Fraction(1, 3), 24)]
# the lam of the benchmark's family grids: p/q with p, q in 1..6
BENCHMARK_LAMBDAS = sorted({Fraction(p, q) for p in range(1, 7) for q in range(1, 7)})


class TestDomainAsData:
    """A solution's domain is where every expression of ``positive`` is
    > 0: for the family and the base solution the kept base of the
    family's power, with lam bound, for a pushforward C and the old
    conditions pulled back."""

    LAM = sym("lam")

    def test_the_condition_is_the_kept_base(self):
        base = orbits.symbolic_family_solution().base
        for sol in (base_solution(-1), family_solution(Fraction(7, 2), Fraction(1, 3)),
                    family_solution(sym("a"), -2)):
            assert sol.positive == (base,)

    def test_the_condition_is_the_two_disk_region(self):
        # x^2 - (y + lam (x^2 + y^2))^2 = -lam^2 D1 D2, where D1 and D2 are
        # < 0 inside the disks of radius^2 1/(2 lam^2) about
        # (+-1/(2 lam), -1/(2 lam)): it is > 0 inside exactly one of them
        s = orbits.symbolic_family_solution().base
        d1, d2 = (parse(f"(x {sign} 1/(2*lam))^2 + (y + 1/(2*lam))^2 - 1/(2*lam^2)")
                  for sign in "-+")
        assert expand(s + self.LAM**2 * d1 * d2) == num(0)

    def test_the_pulled_back_base_condition_is_the_family_condition(self):
        # x~^2 - y~^2 = (x^2 - (y + lam (x^2 + y^2))^2) / C^2
        xt, yt = map_point_exprs(self.LAM)
        c = parse("1 + lam^2*(x^2 + y^2) + 2*lam*y")
        pulled = substitute(parse("x^2 - y^2"), {"x": xt, "y": yt})
        assert expand(c**2 * pulled - orbits.symbolic_family_solution().base) == num(0)

    def test_a_pushforward_is_c_and_the_pulled_back_conditions(self):
        pushed = transform_solution(base_solution(-1), Fraction(1, 2))
        c = parse("1 + 1/4*(x^2 + y^2) + y")
        assert pushed.conditions() == (c, parse("x^2 - (y + 1/2*(x^2 + y^2))^2"))
        # two pushes compose to one: C > 0 but at one point, so the domain of
        # the pushforward of the pushforward is the family's at 1/2 + 1/3
        twice = transform_solution(pushed, Fraction(1, 3))
        family = family_solution(-1, Fraction(5, 6))
        assert len(twice.positive) == 3
        x_lo, x_hi, y_lo, y_hi = region(5 / 6).bounding_box()
        rng = random.Random(3)
        for _ in range(500):
            x, y = rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi)
            assert twice.domain(x, y) == family.domain(x, y), (x, y)

    @staticmethod
    def _assert_the_closure(inst, lam, n):
        """``domain`` and the grid's in_domain column equal the closure at
        every node of the CLI's default grid, and no node is masked off the
        real domain."""
        sol = _solution(inst.a, lam)
        inside = _closure_domain(lam or 0)
        field, rows = _grid_rows(inst, sol, _grid_for(lam, n))
        assert field.n_masked_off_real == 0
        for row in rows:
            x, y = float(row[0]), float(row[1])
            assert sol.domain(x, y) == inside(x, y) == (row[2] == "1"), (lam, n, row)
        return sum(row[2] == "1" for row in rows)

    @pytest.mark.parametrize("instance,lam,n", GOLDEN_GRIDS,
                             ids=["gss-family-120", "gss-base-90", "a7_2-family-24"])
    def test_golden_grids(self, instance, lam, n):
        assert self._assert_the_closure(instance(), lam, n) > 0

    def test_benchmark_lambdas(self):
        for lam in BENCHMARK_LAMBDAS:
            self._assert_the_closure(gss_preset(), lam, 24)

    @pytest.mark.parametrize("lam", [Fraction(1), Fraction(1, 2), Fraction(-1), Fraction(5, 6)])
    def test_odd_default_grids(self, lam):
        # an odd grid has nodes on the disks' tangents, where the
        # condition is 0 or a few ulps from it
        tangent = 0
        for n in range(3, 40, 2):
            self._assert_the_closure(gss_preset(), lam, n)
            grid = _grid_for(lam, n)
            for x in grid.xs():
                for y in grid.ys():
                    b = y + float(lam) * (x * x + y * y)
                    tangent += abs((x - b) * (x + b)) < 1e-13
        assert tangent > 0


class TestKeptPushforward:
    """A transform of a base solution with a numeric a is the family
    member ``family_expr(a, lam)`` on the conditions of the pushforward
    kept over symbolic a and lam (``symbolic_pushforward``), with lam
    bound; its expr and its bound conditions are node for node what
    pushing the solution and pulling back its conditions build
    (``orbits._pushforward``), which every other solution still takes."""

    # lam = 0, negative, tiny, huge and past the region's own limits
    LAMBDAS = [Fraction(0), Fraction(2, 3), Fraction(-2, 3), Fraction(7, 3), Fraction(-5),
               Fraction(10**9), Fraction(1, 10**9), Fraction(1e-320), Fraction(1e200),
               Fraction(5e153)]

    @staticmethod
    def _assert_bound_is_pushed(a, lam):
        base = base_solution(a)
        pushed = transform_solution(base, lam)
        assert type(pushed) is orbits.ClosedFormSolution
        assert pushed.lam == lam and pushed.a == base.a
        assert pushed.positive is orbits.symbolic_pushforward()[1]
        u, positive = orbits._pushforward(base, lam)
        assert pushed.expr == u
        assert to_text(pushed.expr) == to_text(u)
        assert pushed.conditions() == positive
        assert [to_text(p) for p in pushed.conditions()] == [to_text(p) for p in positive]
        assert pushed.label == f"pushforward(lam={float(lam)}) of base"
        clear_memo()

    def test_kept_pushforward_is_the_kept_family_solution(self):
        # the identity every structural match of transform is an instance of
        u, positive = orbits.symbolic_pushforward()
        assert u == orbits.symbolic_family_solution()
        assert to_text(positive[0]) == "1 + 2*lam*y + lam^2*(x^2 + y^2)"
        assert positive[1] == orbits._S_EXPR

    def test_every_profile_a_and_lambda(self):
        for a in (*TestKeptFamilyResidual.A_VALUES, Fraction(1340), Fraction(-1340)):
            for lam in self.LAMBDAS:
                self._assert_bound_is_pushed(a, lam)

    def test_other_solutions_are_pushed(self):
        for sol in (base_solution(sym("a")), family_solution(-1, Fraction(1, 2)),
                    transform_solution(base_solution(-1), 1)):
            pushed = transform_solution(sol, Fraction(1, 3))
            assert type(pushed) is orbits.ClosedFormSolution, sol.label
            assert pushed.lam is None, sol.label
            u, positive = orbits._pushforward(sol, Fraction(1, 3))
            assert (pushed.expr, pushed.positive) == (u, positive)

    def test_the_family_at_lambda_zero_is_the_base(self):
        pushed = transform_solution(family_solution(Fraction(5, 3), 0), 2)
        assert pushed.lam == 2 and pushed.a == Fraction(5, 3)
        u, positive = orbits._pushforward(base_solution(Fraction(5, 3)), 2)
        assert pushed.expr == u
        assert pushed.conditions() == positive
        assert pushed.label == "pushforward(lam=2.0) of family(lam=0.0)"

    def test_it_is_the_family_member(self):
        # the very tree the family builds, and the family's kept residual
        for a, lam in ((Fraction(3, 2), Fraction(2, 3)), (-1, -5), (Fraction(-5, 3), 0)):
            pushed, family = transform_solution(base_solution(a), lam), family_solution(a, lam)
            assert pushed.expr is family.expr
            assert orbits._kept_residual(pushed) == orbits._kept_residual(family)

    def test_a_failed_identity_takes_the_pushed_route(self, monkeypatch):
        # were the kept pushforward not the kept family solution, a
        # transform would push the base solution as it pushes any other,
        # and the CLI's per-op comparison would still decide the match
        from test_cli import run_cli

        monkeypatch.setattr(orbits, "symbolic_family_solution", lambda: orbits._S_EXPR)
        base = base_solution(Fraction(3, 2))
        pushed = transform_solution(base, Fraction(2, 3))
        assert pushed.lam is None
        assert (pushed.expr, pushed.positive) == orbits._pushforward(base, Fraction(2, 3))
        argv = ["transform", "--a=3/2", "--lambda=2/3", "--x=0.1", "--y=-2"]
        code, out, err = run_cli(argv)
        report = json.loads(out)
        assert code == 0, err
        assert report["structural_match"] is True
        assert report["transformed_expr"] == to_text(pushed.expr)

        real = orbits._pushforward
        monkeypatch.setattr(orbits, "_pushforward", lambda sol, lam: (
            mul(num(2), real(sol, lam)[0]), real(sol, lam)[1]))
        code, out, err = run_cli(argv)
        report = json.loads(out)
        assert code == 1, err
        assert report["structural_match"] is False
        assert report["equiv"]["equivalent"] is False

    if st is not None:
        @settings(max_examples=80, deadline=None, database=None)
        @given(st.fractions(min_value=-1340, max_value=1340, max_denominator=12).filter(bool),
               st.fractions(min_value=-40, max_value=40, max_denominator=9)
               | st.sampled_from(LAMBDAS))
        @example(Fraction(1340), Fraction(1e-320))
        @example(Fraction(-1340), Fraction(1e200))
        @example(Fraction(5, 3), Fraction(-2, 3))
        @example(Fraction(2), Fraction(0))
        def test_random_bound_pushforward_is_pushed(self, a, lam):
            self._assert_bound_is_pushed(a, lam)


class TestTransformPointDomain:
    """Transform's point test is the family's domain and C > 0, also
    within a few ulps of the two circles, where a test of the conditions
    with lam substituted reads other digits."""

    LAMBDAS = [Fraction(1, 3), Fraction(2, 3), Fraction(1), Fraction(7, 3), Fraction(5),
               Fraction(100), Fraction(1, 100)]
    A = Fraction(3, 2)

    @staticmethod
    def _near_circles(lam, n, rng):
        """n points, alternately on each circle, moved off it radially by a
        relative offset of at most 1e-15."""
        lam = float(lam)
        half, radius = 1.0 / (2.0 * lam), 1.0 / (math.sqrt(2.0) * abs(lam))
        for i in range(n):
            t = rng.uniform(0.0, 2.0 * math.pi)
            stretch = 1.0 + rng.uniform(-1e-15, 1e-15)
            yield ((half if i % 2 else -half) + radius * math.cos(t) * stretch,
                   -half + radius * math.sin(t) * stretch)

    def _want(self, lam):
        family = family_solution(self.A, lam)
        return lambda x, y: family.domain(x, y) and conformal_factor(x, y, float(lam)) > 0

    def test_near_the_circles(self):
        rng = random.Random(5)
        substituted_differs = 0
        for lam in (*self.LAMBDAS, *(-lam for lam in self.LAMBDAS)):
            pushed = transform_solution(base_solution(self.A), lam)
            want = self._want(lam)
            substituted = to_predicate(pushed.conditions(), ("x", "y"))
            for x, y in self._near_circles(lam, 1500, rng):
                assert pushed.domain(x, y) == want(x, y), (lam, x, y)
                substituted_differs += substituted(x, y) != want(x, y)
            clear_memo()
        # the sweep reaches the points where the two tests part
        assert substituted_differs > 0

    def test_the_cli_near_the_circles(self):
        # the report's in_domain, and its u exactly where it is true
        from test_cli import run_cli

        rng = random.Random(6)
        off_the_tree = 0  # admitted points where the bound tree has no value
        for lam in (Fraction(7, 3), Fraction(-5)):
            want = self._want(lam)
            tree = family_expr(self.A, lam)
            for x, y in self._near_circles(lam, 40, rng):
                code, out, err = run_cli(["transform", f"--a={self.A}", f"--lambda={lam}",
                                          f"--x={x!r}", f"--y={y!r}", "--samples=0"])
                assert code == 0, err
                point = json.loads(out)["point"]
                assert point["in_domain"] == want(x, y), (lam, x, y)
                assert ("u" in point) == point["in_domain"]
                if point["in_domain"]:
                    try:
                        assert point["u"] == eval_at(tree, {"x": x, "y": y})
                    except DomainError:
                        off_the_tree += 1
                        assert point["u"] > 1e5
        assert off_the_tree > 0

    def test_a_point_the_substituted_test_admitted(self):
        from test_cli import run_cli

        x, y = 0.19835805917658106, -0.0016154131764279794
        code, out, err = run_cli(["transform", "--a=3/2", "--lambda=-5", f"--x={x!r}",
                                  f"--y={y!r}"])
        assert code == 0, err
        point = json.loads(out)["point"]
        assert point["in_domain"] is False and "u" not in point
        assert family_solution(Fraction(3, 2), -5).domain(x, y) is False


class TestLazyClosedForm:
    """The family and the base solution build ``family_expr(a, lam)`` on
    the first read of ``expr``; a residual grid compiles the kept family
    solution and never reads it."""

    @staticmethod
    def _counting(monkeypatch):
        calls = []
        real = orbits.family_expr

        def counted(a, lam):
            calls.append((a, lam))
            return real(a, lam)

        monkeypatch.setattr(orbits, "family_expr", counted)
        return calls

    @pytest.mark.parametrize("argv", [
        ["--solution", "family", "--lambda=1/3"],
        ["--solution", "family"],
        ["--solution", "family", "--lambda=-2"],
        ["--solution", "base"],
    ], ids=["family-third", "family-default", "family-negative", "base"])
    def test_a_grid_never_builds_it(self, argv, monkeypatch):
        from test_cli import run_cli

        symbolic_family_residual()  # kept for the process, built before counting
        calls = self._counting(monkeypatch)
        code, _, err = run_cli(["residual-grid", "--preset", "gss", *argv,
                                "--nx", "12", "--ny", "12"])
        assert code == 0, err
        assert calls == []

    @pytest.mark.parametrize("a,lam", [(-1, 1), (Fraction(7, 2), Fraction(1, 3)),
                                       (Fraction(-5, 3), -2), (sym("a"), 2)])
    def test_first_read_builds_family_expr(self, a, lam, monkeypatch):
        calls = self._counting(monkeypatch)
        sols = [family_solution(a, lam), base_solution(a)]
        assert calls == []
        first = [s.expr for s in sols]
        assert calls == [(sols[0].a, sols[0].lam), (sols[1].a, 0)]
        assert first == [family_expr(a, lam), family_expr(a, 0)]
        assert all(s.expr is e for s, e in zip(sols, first))
        assert sols[0].jet()["u"] is first[0]
        assert len(calls) == 2  # later reads build nothing

    def test_the_bases_pushforward_builds_it_on_first_read(self, monkeypatch):
        calls = self._counting(monkeypatch)
        pushed = transform_solution(base_solution(Fraction(7, 2)), Fraction(1, 3))
        assert calls == []
        assert pushed.expr is family_expr(Fraction(7, 2), Fraction(1, 3))
        assert calls[0] == (Fraction(7, 2), Fraction(1, 3))

    def test_a_pushforward_needs_its_expr(self):
        # the family at lam != 0 pushed, and a pushforward pushed again
        for sol, lam in ((family_solution(-1, 1), 2),
                         (transform_solution(base_solution(-1), 2), Fraction(1, 3))):
            pushed = transform_solution(sol, lam)
            assert pushed.lam is None and "expr" in vars(pushed)
            assert pushed.expr == orbits._pushforward(sol, lam)[0]
        with pytest.raises(TypeError):
            orbits.ClosedFormSolution(None, (), "bare", -1)


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
