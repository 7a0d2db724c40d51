"""Sampled verdicts evaluate compiled expressions: they never walk a tree
at a sample, and they redraw a point where a compiled value is not
finite, where the tree walk raises DomainError on an overflowing
product."""

import math
import random
from fractions import Fraction

import pytest

from liesym import (
    ConstraintSystem,
    DomainError,
    GridSpec,
    SampleSpec,
    SamplingError,
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
    substitute,
    symbolic_auxiliary,
    to_callable,
    weak_cs_report,
)
from liesym import cli, expr, reduction
from liesym.expr import Sum, add, sym, to_cancellation, to_row_kernel
from liesym.family import NAMED_FIELDS, build_instance
from liesym.jets import JET_NAMES, apply_prolonged, prolong2, sample_jet_point

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

    def test_restricted_eval(self, no_tree_walks):
        gss = gss_preset()
        system = ConstraintSystem((gss.delta, invariance_condition()), ("uyy", "uy"))
        res = restricted_eval(gss.bind(symbolic_auxiliary()), system, n_samples=30)
        assert res.samples == 30 and res.max_abs >= 1e-2

    def test_restricted_eval_solves_symbols_outside_jet_space(self, no_tree_walks):
        res = restricted_eval(parse("s"), ConstraintSystem((parse("s - x^2"),), ("s",)),
                              n_samples=30)
        assert res.remainder == parse("x^2")
        assert 0.25 <= res.mean_abs <= res.max_abs <= 4.0

    def test_weak_cs_report_with_consequences(self, no_tree_walks):
        code, out, _ = run_cli(["weak-cs", "--preset", "gss", "--samples", "20",
                                "--consequences"])
        assert code == 0 and '"include_consequences": true' in out

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
        names = [f"v{i}" for i in range(len(values))]
        measure = to_cancellation(add(*map(sym, names)), names)
        with pytest.raises(DomainError):
            measure(*values)

    def test_equiv_numeric_redraws_infinite_sides(self):
        # x + y overflows to inf at every draw, but the difference of the
        # two sides cancels to -z before any sampling: its measure is about
        # -1 at every draw, all 20 are drawn and the worst is the witness
        x, y, z = (1e308, 1.5e308), (1e308, 1.5e308), (1e300, 2e300)
        spec = SampleSpec(count=20, intervals={"x": x, "y": y, "z": z})
        res = equiv_numeric(parse("x + y"), parse("x + y + z"), spec)
        assert (res.equivalent, res.samples, sorted(res.witness)) == (False, 20, ["x", "y", "z"])
        # a difference that does not cancel: it expands to 2*x*y, which
        # overflows at every draw, so every point is redrawn until the
        # budget runs out
        big = (1e200, 1.5e200)
        spec = SampleSpec(count=20, intervals={"x": big, "y": big})
        with pytest.raises(SamplingError):
            equiv_numeric(parse("(x + y)^2"), parse("x^2 + y^2"), spec)

    @pytest.mark.parametrize("target,constraint", [
        # x^665 and u^1340 are finite on the jet box, their product often
        # is not: compiled it is inf, eval_at raises DomainError
        ("x^665 * u^1340", "uyy - ux"),   # in the target
        ("uyy + 1", "uyy * x^665 * u^1340 + ux"),  # in the coefficient of uyy
    ], ids=["target", "coefficient"])
    def test_restricted_eval_redraws_where_the_tree_walk_raises(self, target, constraint):
        target, constraint = parse(target), parse(constraint)
        system = ConstraintSystem((constraint,), ("uyy",))
        res = restricted_eval(target, system, n_samples=40, seed=5)

        # the reference walks each term's tree: the cancellation measure of
        # the remainder, at the same draws
        remainder = system.restrict(target)
        rng = random.Random(5)
        values, redraws = [], 0
        while len(values) < 40:
            env = dict(zip(JET_NAMES, sample_jet_point(rng)))
            try:
                values.append(abs(normalized_sum(term_values(
                    remainder, lambda t: eval_at(t, env)))))
            except DomainError:
                redraws += 1
        assert redraws > 0
        assert (res.max_abs, res.resampled) == (max(values), redraws)
        assert res.mean_abs == sum(values) / 40


def normalized_sum(values):
    """The loop that ``to_cancellation`` compiles, kept as its reference."""
    total = 0.0
    scale = 0.0
    for value in values:
        total += value
        scale = max(scale, abs(value))
    result = total / (1.0 + scale)
    if not math.isfinite(result):
        raise DomainError("non-finite cancellation sum")
    return result


def term_values(e, value):
    """The residual's terms, each evaluated on its own by ``value``: those
    of a Sum, else the residual itself."""
    return [value(t) for t in (e.terms if isinstance(e, Sum) else (e,))]


class TestCancellationMeasure:
    # (a, r, c1, c2, gamma1, gamma2), field: the X and Xprime residuals at
    # a = -2 and a = -4, r = 1 are products with one sum factor, each
    # measured as one term
    CASES = [
        ((-1, 2, -7, -3, "-3/2", "1/4"), "X"),
        ((-1, 2, -7, -3, "-3/2", "1/4"), "Xprime"),
        ((-1, 2, -7, -3, "-3/2", "1/4"), "Y"),
        ((-1, 2, "-69/10", -3, "-3/2", "1/4"), "X"),
        ((-2, 2, -3, -1, 1, 1), "X"),
        ((-2, 2, "-29/10", -1, 1, 1), "X"),
        ((-4, 1, "-1/2", 0, 1, 1), "Xprime"),
        ((-4, 1, "-2/5", 0, 1, 1), "Xprime"),
        ((-1, 665, 1340, 2, 1, 1), "X"),
    ]

    @pytest.mark.parametrize("params,field", CASES)
    def test_is_the_reference_loop_bit_for_bit(self, params, field):
        inst = build_instance(*params)
        residual = apply_prolonged(prolong2(NAMED_FIELDS[field]().bind(a=inst.a)), inst.delta)
        measure = to_cancellation(residual, JET_NAMES)
        delta = to_callable(inst.delta, JET_NAMES)
        uyy = JET_NAMES.index("uyy")
        rng = random.Random(5)
        compared = 0
        for _ in range(40):
            point = sample_jet_point(rng)
            point[uyy] = 0.0
            try:
                point[uyy] = -delta(*point)  # on shell
            except DomainError:
                continue
            try:
                want = normalized_sum(term_values(
                    residual, lambda t: to_callable(t, JET_NAMES)(*point)))
            except DomainError:
                with pytest.raises(DomainError):
                    measure(*point)
                continue
            assert measure(*point) == want
            compared += 1
        assert compared >= 10

    @pytest.mark.parametrize("params,field,status", [
        ((-2, 2, -3, -1, 1, 1), "X", "admitted"),
        ((-2, 2, "-29/10", -1, 1, 1), "X", "refuted"),
        ((-4, 1, "-1/2", 0, 1, 1), "Xprime", "admitted"),
        ((-4, 1, "-2/5", 0, 1, 1), "Xprime", "refuted"),
    ])
    def test_product_shaped_residuals_keep_their_verdicts(self, params, field, status):
        verdict = check_onshell_symmetry(NAMED_FIELDS[field](), build_instance(*params))
        assert verdict.status == status
        if status == "admitted":
            assert verdict.stats.max_abs <= 5e-16
        else:
            assert verdict.stats.max_abs >= 0.025


class TestResidualGridSharedBody:
    # residual_grid evaluates u and the measure in one row kernel; over the
    # 60 grids of test_cli's TestResidualGrid::test_exceptional_family_grids
    # it must give what separately compiled u and measure give, node by node
    @pytest.mark.parametrize("a", ["1/3", "1/2", "1", "3/2", "2", "5/2", "3", "4", "6",
                                   "-1", "-2", "-5/3"])
    def test_is_u_and_measure_compiled_apart(self, a):
        a = Fraction(a)
        k = -a / 4
        inst = build_instance(a, 2, 1 + 8 / a, 1 + 4 / a, 8 * k * (k - 1),
                              2 * a * k - 4 * k * (k - 1))

        def outcome(fn, *point):
            try:
                return fn(*point)
            except DomainError:
                return DomainError

        for lam in ("1/3", "1/2", "1", "2", "3"):
            sol = family_solution(inst.a, Fraction(lam))
            residual = substitute(inst.delta, sol.jet())
            u_fn = to_callable(sol.expr, ("x", "y"))
            measure = to_cancellation(residual, ("x", "y"))
            grid = GridSpec(*region(float(Fraction(lam))).bounding_box(), 24, 24)
            # no condition: the kernel admits every node, and each one is compared
            row = to_row_kernel(residual, ("x", "y"), sol.expr)(grid.xs())
            in_domain = 0
            for y in grid.ys():
                numbers, keep, off_real = row(y)
                kept = []
                for x, flag in zip(grid.xs(), keep):
                    want = outcome(measure, x, y)
                    u = outcome(u_fn, x, y)
                    if DomainError in (want, u):
                        assert flag == 0, (lam, x, y)
                        continue
                    assert flag == 1, (lam, x, y)
                    kept += [u, want]
                    in_domain += sol.domain(x, y)
                assert numbers == kept, (lam, y)
                assert off_real == len(keep) - sum(keep)
            assert in_domain > 0


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
        # the wedge admits the three masked nodes: they left the real
        # domain by overflow
        assert '"masked_off_real_nodes": 3' in out[cut:]
        # measured over the five terms of the PDE
        assert '"sup_residual": 1.625' in out[cut:]


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
