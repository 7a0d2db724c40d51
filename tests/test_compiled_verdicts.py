"""Sampled verdicts evaluate compiled expressions: they never walk a tree
at a sample, and they redraw a point where a compiled value is not
finite, where the tree walk raises DomainError on an overflowing
product."""

import math
import random

import pytest

from liesym import (
    ConstraintSystem,
    DomainError,
    SampleSpec,
    SamplingError,
    auxiliary_constraint,
    check_onshell_symmetry,
    equiv_numeric,
    eval_at,
    exceptional_vf,
    family,
    family_solution,
    gss_preset,
    invariance_condition,
    parse,
    region,
    restricted_eval,
    to_callable,
    weak_cs_report,
)
from liesym import cli, expr, reduction
from liesym.expr import normalized_sum
from liesym.family import solve_uyy
from liesym.jets import sample_jet_env

from test_cli import run_cli


@pytest.fixture
def no_tree_walks(monkeypatch):
    def refuse(e, env):
        raise AssertionError("a sampled verdict walked an expression tree")

    for module in (expr, family, reduction):
        monkeypatch.setattr(module, "eval_at", refuse)


class TestNoTreeWalkPerSample:
    def test_check_onshell_symmetry(self, no_tree_walks):
        assert check_onshell_symmetry(exceptional_vf(), gss_preset(), n_samples=30).admitted

    def test_compiled_uyy_is_solve_uyy(self):
        # the tree-walking solve_uyy is the reference for the compiled one
        gss = gss_preset()
        env = check_onshell_symmetry(exceptional_vf(), gss, n_samples=30).worst_point
        assert env["uyy"] == solve_uyy(gss, env)

    @pytest.mark.parametrize("simultaneous", [False, True], ids=["sequential", "simultaneous"])
    def test_restricted_eval(self, no_tree_walks, simultaneous):
        gss = gss_preset()
        system = ConstraintSystem((gss.delta, invariance_condition()), ("uyy", "uy"))
        res = restricted_eval(auxiliary_constraint(gss), system, n_samples=30,
                              simultaneous=simultaneous)
        assert res.samples == 30 and res.max_abs >= 1e-2

    @pytest.mark.parametrize("simultaneous", [False, True], ids=["sequential", "simultaneous"])
    def test_restricted_eval_solves_symbols_outside_jet_space(self, no_tree_walks, simultaneous):
        res = restricted_eval(parse("s"), ConstraintSystem((parse("s - x^2"),), ("s",)),
                              n_samples=30, simultaneous=simultaneous)
        assert 0.25 <= res.mean_abs <= res.max_abs <= 4.0

    def test_weak_cs_report_with_consequences(self, no_tree_walks):
        rep = weak_cs_report(gss_preset(), n_samples=20, include_consequences=True)
        assert rep.confirmed

    def test_equiv_numeric(self, no_tree_walks):
        assert equiv_numeric(parse("(x + y)^2"), parse("x^2 + 2*x*y + y^2"),
                             SampleSpec(count=30))


class TestNonFiniteRule:
    def test_overflowing_product_raises_only_in_the_tree_walk(self):
        e = parse("x^150 * y^150")
        with pytest.raises(DomainError, match="overflow in product"):
            eval_at(e, {"x": 100.0, "y": 100.0})
        assert to_callable(e, ("x", "y"))(100.0, 100.0) == math.inf
        # below the overflow both give the same double
        assert to_callable(e, ("x", "y"))(10.0, 10.0) == eval_at(e, {"x": 10.0, "y": 10.0})

    @pytest.mark.parametrize("values", [
        [math.inf, 1.0], [1.0, -math.inf], [math.nan], [math.inf, -math.inf],
        [1e308, 1e308],  # finite terms whose sum overflows
    ])
    def test_normalized_sum_refuses_non_finite(self, values):
        with pytest.raises(DomainError):
            normalized_sum(values)

    def test_equiv_numeric_redraws_infinite_sides(self):
        # both sides overflow to inf at every draw: without the rule the
        # comparison inf - inf never fails and x+y "equals" x+y+z
        x, y, z = (1e308, 1.5e308), (1e308, 1.5e308), (1e300, 2e300)
        spec = SampleSpec(count=20, intervals={"x": x, "y": y, "z": z})
        with pytest.raises(SamplingError):
            equiv_numeric(parse("x + y"), parse("x + y + z"), spec)

    @pytest.mark.parametrize("simultaneous", [False, True], ids=["sequential", "simultaneous"])
    @pytest.mark.parametrize("target,constraint", [
        # x^665 and u^1340 are finite on the jet box, their product often
        # is not: compiled it is inf, eval_at raises DomainError
        ("x^665 * u^1340", "uyy - ux"),   # in the target
        ("uyy + 1", "uyy * x^665 * u^1340 + ux"),  # in the coefficient of uyy
    ], ids=["target", "coefficient"])
    def test_restricted_eval_redraws_where_the_tree_walk_raises(
            self, target, constraint, simultaneous):
        target, constraint = parse(target), parse(constraint)
        res = restricted_eval(target, ConstraintSystem((constraint,), ("uyy",)),
                              n_samples=40, seed=5, simultaneous=simultaneous)

        rng = random.Random(5)
        values, redraws = [], 0
        while len(values) < 40:
            env = sample_jet_env(rng)
            try:
                b = eval_at(constraint, {**env, "uyy": 0.0})
                coeff = eval_at(constraint, {**env, "uyy": 1.0}) - b
                if abs(coeff) < 1e-6:
                    raise DomainError("singular")
                values.append(abs(eval_at(target, {**env, "uyy": -b / coeff})))
            except DomainError:
                redraws += 1
        assert redraws > 0
        assert (res.max_abs, res.resampled) == (max(values), redraws)
        assert res.mean_abs == sum(values) / 40


class TestResidualGridMasksNonFinite:
    ARGV = ["residual-grid", "--a=-1", "--r=665", "--c1=1340", "--c2=2", "--gamma1=1",
            "--gamma2=1", "--solution", "base", "--nx", "4", "--ny", "3"]

    def test_nan_nodes_are_masked(self):
        # at x = 2 the terms x^665 u^1340 overflow; their normalized sum
        # used to be written as nan and skipped by the sup
        code, out, _ = run_cli(self.ARGV)
        cut = out.index('{\n  "command"')
        rows = out[:cut].splitlines()[1:]
        assert code == 1
        assert "nan" not in out
        assert [r.split(",")[2] for r in rows] == ["1", "1", "1", "0"] * 3
        assert all(r.startswith("2,") for r in rows if r.split(",")[2] == "0")
        assert '"in_domain_nodes": 9' in out[cut:]
        assert '"sup_residual": 1.0' in out[cut:]


class TestTransformNegativeLambda:
    def test_sampled_equivalence_is_reported(self):
        code, out, _ = run_cli(["transform", "--a=-1", "--lambda=-1", "--samples", "30"])
        assert code == 0
        assert '"equiv": {\n    "equivalent": true,\n    "samples": 30\n  }' in out

    def test_sampled_equivalence_can_fail(self, monkeypatch):
        # a family with the wrong exponent has the same region: the
        # sampled check must tell it apart at lam < 0 too
        real = cli.family_solution
        monkeypatch.setattr(cli, "family_solution", lambda a, lam: real(2 * a, lam))
        code, out, _ = run_cli(["transform", "--a=-1", "--lambda=-1", "--samples", "30"])
        assert code == 1
        assert '"equivalent": false' in out

    @pytest.mark.parametrize("lam", [-1.0, -1 / 3, -2.5])
    def test_mirrored_region_is_the_family_domain(self, lam):
        domain = family_solution(-1, lam).domain
        geo = region(-lam)
        x_lo, x_hi, y_lo, y_hi = geo.bounding_box()
        rng = random.Random(0)
        inside = 0
        for _ in range(2000):
            x, y = rng.uniform(x_lo, x_hi), rng.uniform(-y_hi, -y_lo)
            assert geo.membership(x, -y) == domain(x, y)
            inside += domain(x, y)
        assert inside > 500
        # and no point of the domain lies outside the mirrored box
        span = 3 * max(map(abs, geo.bounding_box()))
        for _ in range(2000):
            x, y = rng.uniform(-span, span), rng.uniform(-span, span)
            if domain(x, y):
                assert x_lo <= x <= x_hi and -y_hi <= y <= -y_lo
