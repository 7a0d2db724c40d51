"""Residual family, exceptional exponent gate, on-shell verdicts."""

import io
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # optional test dependency, as in test_expr.py
    st = None

from liesym import (
    NAMED_FIELDS,
    ConstraintSystem,
    UnboundSymbolError,
    VectorField,
    add,
    apply_prolonged,
    build_instance,
    candidate_profile,
    check_onshell_symmetry,
    eval_at,
    exceptional_exponents,
    exceptional_vf,
    expand,
    family_residual,
    gss_preset,
    is_zero,
    mul,
    num,
    onshell_remainder,
    parse,
    prolong2,
    rotation_like_vf,
    scaling_vf,
    sym,
    y_translation_vf,
)
from liesym import cli, expr, family, jets, orbits, reduction
from liesym.cli import run
from liesym.expr import clear_memo
from liesym.family import KEPT
from liesym.jets import JET_NAMES, sample_jet_point


class TestExceptionalExponents:
    @pytest.mark.parametrize("a, r, c1, c2", [
        (-1, 2, -7, -3),
        (4, 2, 3, 2),
        (4, 0, 2, 2),
        (2, 0, 3, 3),
    ])
    def test_pairs(self, a, r, c1, c2):
        assert exceptional_exponents(a, r) == (c1, c2)

    def test_exact_rational(self):
        c1, c2 = exceptional_exponents(3, 1)
        assert c1 == Fraction(3) and c2 == Fraction(7, 3)
        # defining relations hold exactly
        assert 3 * (c1 - 1) == 2 * (1 + 2)
        assert 3 * (c2 - 1) == 4

    def test_zero_a_rejected(self):
        with pytest.raises(ValueError):
            exceptional_exponents(0, 2)


class TestBuildInstance:
    def test_gss_form(self):
        inst = build_instance(-1, 2, -7, -3, -1.5, 0.25)
        assert inst.is_exceptional
        assert inst.gamma1 == Fraction(-3, 2)
        assert inst.delta == parse(
            "uxx + uyy - x^(-1)*ux + 3/2*x^2*u^(-7) - 1/4*u^(-3)")

    def test_generic_exceptional(self):
        assert build_instance(2, 0, 3, 3, 1, 1).is_exceptional

    def test_off_by_one_exponent(self):
        assert not build_instance(-1, 2, -6, -3, 1, 1).is_exceptional

    def test_decimal_exactness(self):
        # -6.9 is read as the decimal -69/10, not a nearby binary float
        inst = build_instance(-1, 2, "-6.9", -3, 1, 1)
        assert inst.c1 == Fraction(-69, 10)
        assert not inst.is_exceptional

    def test_zero_a_rejected(self):
        with pytest.raises(ValueError):
            build_instance(0, 2, 1, 1, 1, 1)

    def test_residual_matches_template(self):
        inst = build_instance(2, 1, 4, 3, 5, 7)
        template = parse("uxx + uyy + a/x*ux - g1*x^(r)*u^(c1) - g2*u^(c2)")
        bound = family_residual(2, 1, 4, 3, 5, 7)
        assert inst.delta == bound
        env = dict(zip(JET_NAMES, sample_jet_point(random.Random(0))))
        env_t = dict(env, a=2.0, r=1.0, c1=4.0, c2=3.0, g1=5.0, g2=7.0)
        assert eval_at(inst.delta, env) == pytest.approx(eval_at(template, env_t))


class TestPreset:
    def test_gss_values(self):
        gss = gss_preset()
        assert (gss.a, gss.r, gss.c1, gss.c2) == (-1, 2, -7, -3)
        assert gss.gamma1 == Fraction(-3, 2)
        assert gss.gamma2 == Fraction(1, 4)
        assert gss.is_exceptional

    def test_gammas_match_power_profile_formulas(self):
        a = Fraction(-1)
        assert gss_preset().gamma1 == (a / 2) * (a + 4)
        assert gss_preset().gamma2 == (-a / 4) * (3 * a + 4)


class TestNamedFields:
    def test_exceptional_components(self):
        vf = exceptional_vf().bind(a=-1)
        env = {"x": 1.0, "y": 2.0, "u": 1.0}
        assert eval_at(vf.xi1, env) == 4.0
        assert eval_at(vf.xi2, env) == 3.0
        assert eval_at(vf.phi, env) == 2.0

    def test_scaling_components(self):
        vf = scaling_vf().bind(a=-1)
        env = {"x": 1.0, "y": 1.0, "u": 2.0}
        assert (eval_at(vf.xi1, env), eval_at(vf.xi2, env), eval_at(vf.phi, env)) == (1, 1, 1)

    def test_rotation_annihilates_invariant(self):
        vf = rotation_like_vf()
        env = {"x": 1.0, "y": 2.0}
        assert (eval_at(vf.xi1, env), eval_at(vf.xi2, env)) == (2.0, 1.0)

        def apply_to(f):
            from liesym import diff, mul, add
            return add(mul(vf.xi1, diff(f, "x")), mul(vf.xi2, diff(f, "y")))

        assert apply_to(parse("x^2 - y^2")) == parse("0")
        assert apply_to(parse("x^2 + y^2")) == parse("4*x*y")


class TestOnShell:
    def test_uyy_elimination_consistency(self):
        # the residual restricted to its own manifold is exactly zero
        gss = gss_preset()
        assert is_zero(ConstraintSystem((gss.delta,), ("uyy",)).restrict(gss.delta))

    def test_exceptional_field_admitted_on_gss(self):
        verdict = check_onshell_symmetry(exceptional_vf(), gss_preset(),
                                         n_samples=200, seed=42)
        assert verdict.admitted
        assert verdict.stats.max_abs <= 1e-9
        assert verdict.stats.samples == 200

    def test_perturbed_exponent_refuted(self):
        bad = build_instance(-1, 2, "-6.9", -3, -1.5, 0.25)
        verdict = check_onshell_symmetry(exceptional_vf(), bad,
                                         n_samples=200, seed=42)
        assert not verdict.admitted
        assert verdict.status == "refuted"
        assert verdict.stats.max_abs >= 1e-3

    def test_y_translation_always_admitted(self):
        for inst in (gss_preset(), build_instance(2, 1, 5, 3, 1, 2)):
            verdict = check_onshell_symmetry(y_translation_vf(), inst,
                                             n_samples=50, seed=7)
            assert verdict.admitted

    def test_exceptional_gate_random_instances(self):
        """Exponents from the defining relations admit both X and the
        scaling; perturbing either exponent by 0.1 flips the verdict."""
        rng = random.Random(20240501)
        for _ in range(50):
            a = rng.choice([-1, 1]) * rng.uniform(0.25, 3.0)
            r = rng.uniform(-1.0, 2.5)
            c1, c2 = exceptional_exponents(str(a), str(r))
            inst = build_instance(str(a), str(r), c1, c2, 1, 1)
            ok = check_onshell_symmetry(exceptional_vf(), inst,
                                        n_samples=40, seed=5)
            assert ok.admitted, f"a={a}, r={r}: {ok.stats.max_abs}"
            oks = check_onshell_symmetry(scaling_vf(), inst, n_samples=40, seed=5)
            assert oks.admitted

        # perturbations refute (spot-check a few instances)
        for a, r in ((-1.5, 2.0), (2.0, 1.0), (0.5, 0.0)):
            c1, c2 = exceptional_exponents(str(a), str(r))
            for bad in (
                build_instance(str(a), str(r), c1 + Fraction(1, 10), c2, 1, 1),
                build_instance(str(a), str(r), c1, c2 + Fraction(1, 10), 1, 1),
            ):
                verdict = check_onshell_symmetry(exceptional_vf(), bad,
                                                 n_samples=40, seed=5)
                assert verdict.stats.max_abs >= 1e-3
                assert not verdict.admitted

    def test_inconclusive_band(self, monkeypatch):
        # a refuted field looks inconclusive when the refutation threshold
        # is pushed above the observed residual, and the exact witness does
        # not refute it: d/dx leaves -a*ux/x^2 at r = 0, which vanishes at
        # ux = 0.  (X off the pair reads a nonzero number there, refuted.)
        monkeypatch.setattr(jets, "REFUTE_THRESHOLD", 1e6)
        bad = build_instance(-1, 0, "-6.9", -3, -1.5, 0.25)
        verdict = check_onshell_symmetry(VectorField(num(1), num(0), num(0)), bad,
                                         n_samples=50, seed=42)
        assert verdict.stats.remainder == parse("ux*x^(-2)")
        assert verdict.status == "inconclusive"
        assert not verdict.admitted

    def test_deterministic_for_fixed_seed(self):
        v1 = check_onshell_symmetry(exceptional_vf(), gss_preset(), 50, seed=9)
        v2 = check_onshell_symmetry(exceptional_vf(), gss_preset(), 50, seed=9)
        assert v1.stats.max_abs == v2.stats.max_abs
        assert v1.to_dict()["worst_point"] == v2.to_dict()["worst_point"]


class TestExactRemainders:
    """The on-shell remainder of every named field over the benchmark's
    exceptional instances: a in p/q with p in +-1..8 and q in 1..3, and
    r in {0, 1/2, 1, 2, 3}.  X, X' and dy are admitted exactly, Y is not."""

    A_VALUES = sorted({Fraction(p, q) for p in (*range(-8, 0), *range(1, 9)) for q in (1, 2, 3)})
    R_VALUES = (0, Fraction(1, 2), 1, 2, 3)

    def test_named_fields_over_the_benchmark_instances(self):
        assert len(self.A_VALUES) == 36
        for a in self.A_VALUES:
            for r in self.R_VALUES:
                inst = build_instance(a, r, *exceptional_exponents(a, r), Fraction(-3, 2), 7)
                for name, vf in NAMED_FIELDS.items():
                    remainder = check_onshell_symmetry(vf(), inst, n_samples=1).stats.remainder
                    assert is_zero(remainder) == (name != "Y"), (a, r, name)

    def test_x_and_its_scaling_come_together(self):
        # over symbolic parameters the remainder of X is 2y times that of
        # X', so X is admitted exactly where the scaling of weight -a/2 is
        x_remainder = onshell_remainder(exceptional_vf())
        scaled = mul(num(-2), sym("y"), onshell_remainder(scaling_vf()))
        assert is_zero(expand(add(x_remainder, scaled)))
        assert not is_zero(x_remainder)

    def test_admitted_field_reads_exactly_zero(self):
        verdict = check_onshell_symmetry(exceptional_vf(), gss_preset())
        assert is_zero(verdict.stats.remainder)
        assert (verdict.stats.max_abs, verdict.stats.resampled) == (0.0, 0)
        assert "uyy" not in verdict.to_dict()["worst_point"]

    def test_refuted_instance_of_the_claims_draw(self):
        # a perturbed c1 at r = 0.  Measured as the unrestricted residual
        # at a point with uyy solved on shell, it read 6.3e-4 (inconclusive):
        # the terms that cancel on the manifold set that measure's scale
        inst = build_instance(Fraction(1, 3), 0, Fraction(131, 10), 13, Fraction(-2, 3), -8)
        verdict = check_onshell_symmetry(exceptional_vf(), inst, seed=313694)
        assert verdict.stats.remainder == parse("-1/45*y*u^(131/10)")
        assert verdict.status == "refuted" and verdict.stats.max_abs > 0.9


def _per_instance_remainder(vf, inst):
    """The route check-symmetry took before the symbolic remainder was kept:
    prolong the field bound at the instance's a, apply it to the
    instance's residual and restrict that to the residual manifold."""
    target = apply_prolonged(prolong2(vf.bind(a=inst.a)), inst.delta)
    return ConstraintSystem((inst.delta,), ("uyy",)).restrict(target)


def _assert_routes_agree(inst):
    for name, vf in NAMED_FIELDS.items():
        kept = check_onshell_symmetry(vf(), inst, n_samples=1).stats.remainder
        assert kept == _per_instance_remainder(vf(), inst), (name, inst.params_text())


class TestSymbolicRemainder:
    """check-symmetry substitutes an instance's numbers into the field's
    remainder over symbolic parameters; that must be, node for node, the
    remainder the per-instance restriction builds."""

    A_VALUES = TestExactRemainders.A_VALUES
    R_VALUES = TestExactRemainders.R_VALUES

    def test_benchmark_instances_and_perturbations(self):
        for a in self.A_VALUES:
            for r in self.R_VALUES:
                c1, c2 = exceptional_exponents(a, r)
                for shift in (0, Fraction(1, 10)):
                    _assert_routes_agree(build_instance(a, r, c1 + shift, c2, Fraction(-3, 2), 7))
            clear_memo()

    @pytest.mark.parametrize("params", [
        (-1, 2, -7, -3, Fraction(-3, 2), Fraction(1, 4)),  # GSS
        (-1, 665, 1340, 2, 1, 1),  # powers that overflow at most draws
        (-1, 2, -7, -3, 0, Fraction(1, 4)),
        (-1, 2, -7, -3, Fraction(-3, 2), 0),
        (3, 1, 0, 1, 2, 5),
        (3, 1, 1, 0, 2, 5),
        (Fraction(2, 3), 0, 1, 1, -1, 1),
        (Fraction(2, 3), 0, 7, 7, -1, 1),
        (4, 0, 2, 2, 1, 1),
        (-5, 0, Fraction(1, 5), Fraction(1, 5), 1, 0),
        (Fraction(-7, 2), Fraction(1, 2), Fraction(3, 7), Fraction(-1, 7), 0, 0),
    ], ids=["gss", "overflow", "gamma1-zero", "gamma2-zero", "c1-zero-c2-one",
            "c1-one-c2-zero", "c-one", "c1-equals-c2", "exceptional-c1-equals-c2",
            "c1-equals-c2-gamma2-zero", "both-gammas-zero"])
    def test_named_instances(self, params):
        _assert_routes_agree(build_instance(*params))

    if st is not None:
        rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)

        @settings(max_examples=60, deadline=None)
        @given(rationals.filter(bool), rationals, rationals, rationals, rationals, rationals)
        def test_random_rationals(self, a, r, c1, c2, g1, g2):
            _assert_routes_agree(build_instance(a, r, c1, c2, g1, g2))

    @pytest.mark.parametrize("name", ["r", "c1", "c2", "gamma1", "gamma2", "b"])
    def test_a_field_symbol_is_never_bound_to_a_parameter(self, name):
        # only a is a parameter of a named field: any other symbol of the
        # field stays unbound, as it did before the remainder was kept
        field = VectorField(sym(name), num(0), num(0))
        with pytest.raises(UnboundSymbolError, match=name):
            check_onshell_symmetry(field, gss_preset(), n_samples=5)

    @pytest.mark.parametrize("name", ["r", "c1", "c2", "gamma1", "gamma2"])
    def test_a_field_symbol_naming_a_parameter_raises_before_binding(self, name):
        # name * d/dy leaves the residual, which holds no y, unchanged: bound
        # to the instance's number the remainder would be a structural 0
        # and admit the field
        field = VectorField(num(0), sym(name), num(0))
        with pytest.raises(UnboundSymbolError, match=name):
            check_onshell_symmetry(field, gss_preset(), n_samples=5)


class TestRemainderCache:
    """The derivations kept across commands are those of ``family.KEPT``:
    one remainder per field, one entry each for the derivations of weak-cs
    and reduce, one family residual and solution for every grid, one
    pushforward for every transform, and the four named fields."""

    def test_the_table_lists_every_cache_of_its_modules(self):
        # no kept derivation carries a cache of its own, and every public
        # cache of the modules that derive them is in the table
        caches = {fn for module in (family, reduction, orbits) for name, fn in vars(module).items()
                  if not name.startswith("_") and hasattr(fn, "cache_info")}
        assert caches == set(KEPT.values())
        assert set(NAMED_FIELDS.values()) <= caches
        for name, fn in KEPT.items():
            module, _, attr = name.partition(".")
            assert getattr(sys.modules[f"liesym.{module}"], attr) is fn, name
            assert not hasattr(fn.__wrapped__, "cache_info"), name

    def test_empty_after_import(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = ("import liesym.cli; from liesym.family import KEPT; "
                "print({name: fn.cache_info().currsize for name, fn in KEPT.items()})")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == f"{dict.fromkeys(KEPT, 0)}\n"

    def test_each_derived_once_over_every_verdict_command(self):
        # check-symmetry of every field (on the exponent pair and off it),
        # reduce (on the profile and off it), weak-cs, transform and both
        # grids at many a and lam, each a command of its own
        commands = []
        for a in ("-8", "-3", "-5/3", "-1", "-1/3", "1/2", "2/3", "2", "7/2", "8"):
            c1, c2 = exceptional_exponents(Fraction(a), 2)
            _, g1, g2 = candidate_profile(Fraction(a))
            flags = [f"--a={a}", "--r=2", f"--c1={c1}", f"--c2={c2}", f"--gamma1={g1}"]
            lams = ("1/3", "1", "-2", "0", "1e-9")
            commands += [
                *(["check-symmetry", *flags, f"--gamma2={g2}", "--field", name, "--samples", "5"]
                  for name in NAMED_FIELDS),
                ["check-symmetry", f"--a={a}", "--r=2", f"--c1={c1 + 1}", f"--c2={c2}",
                 f"--gamma1={g1}", f"--gamma2={g2}", "--samples", "5"],
                ["reduce", *flags, f"--gamma2={g2}"],
                ["reduce", *flags, f"--gamma2={g2 + 1}"],
                ["weak-cs", *flags, f"--gamma2={g2}", "--samples", "5"],
                *(["transform", f"--a={a}", f"--lambda={lam}", "--samples", "5"] for lam in lams),
                ["residual-grid", *flags, f"--gamma2={g2}", "--solution", "base",
                 "--nx", "4", "--ny", "4"],
                *(["residual-grid", *flags, f"--gamma2={g2}", "--solution", "family",
                   f"--lambda={lam}", "--nx", "4", "--ny", "4"] for lam in lams[:4])]
        for fn in (*KEPT.values(), expr._bind_plan):
            fn.cache_clear()
        for argv in commands:
            assert run(argv, out=io.StringIO(), err=io.StringIO()) in (0, 1), argv
        # every entry is used, and built on its first command only: a
        # second miss on one key, or a plan evicted and read again, would
        # count more misses than entries
        for name, fn in KEPT.items():
            info = fn.cache_info()
            assert info.currsize and info.misses == info.currsize, (name, info)
        info = expr._bind_plan.cache_info()
        assert info.currsize and info.misses == info.currsize, info
        # the remainders are keyed by the named fields alone
        assert onshell_remainder.cache_info().currsize == len(NAMED_FIELDS)

    def test_a_warm_transform_pushes_nothing(self, monkeypatch):
        assert run(["transform", "--a=3/2", "--lambda=2/3"],
                   out=io.StringIO(), err=io.StringIO()) == 0
        calls = []

        def spy(name):
            real = getattr(orbits, name)
            monkeypatch.setattr(orbits, name, lambda *args: calls.append(name) or real(*args))

        spy("_pushforward")
        spy("map_point_exprs")
        for argv in (["--a=3/2", "--lambda=2/3"], ["--a=-5/3", "--lambda=-7", "--x=0.1", "--y=-2"],
                     ["--a=2", "--lambda=0", "--x=0.5", "--y=0.1"], ["--a=-1", "--lambda=1e200"]):
            assert run(["transform", *argv], out=io.StringIO(), err=io.StringIO()) == 0, argv
        assert calls == []

    def test_a_warm_transform_without_a_point_binds_no_condition(self, monkeypatch):
        pushed = []
        bound = []

        def recorded(sol, lam):
            pushed.append(orbits.transform_solution(sol, lam))
            return pushed[-1]

        real = orbits.ClosedFormSolution.conditions
        monkeypatch.setattr(cli, "transform_solution", recorded)
        monkeypatch.setattr(orbits.ClosedFormSolution, "conditions",
                            lambda sol: bound.append(sol) or real(sol))
        for argv in (["--a=3/2", "--lambda=2/3"], ["--a=3/2", "--lambda=2/3", "--samples=0"],
                     ["--a=3/2", "--lambda=2/3", "--x=0.1", "--y=-2"]):
            assert run(["transform", *argv], out=io.StringIO(), err=io.StringIO()) == 0, argv
        # the pushforward's conditions are the kept pair itself, with or
        # without a point: its domain compiles them with lam bound; and a
        # structural match draws nothing, so the family's are not bound either
        assert all(p.positive is orbits.symbolic_pushforward()[1] for p in pushed)
        assert bound == []
        assert all("expr" in vars(p) for p in pushed)

    def test_a_warm_transform_expands_nothing(self, monkeypatch):
        # the pushed and the family tree are one object, so the sampled
        # equivalence check returns before it subtracts them
        from test_cli import strip_timestamp

        argvs = [["transform", "--a=3/2", "--lambda=2/3", "--samples=16"],
                 ["transform", "--a=-5/3", "--lambda=-7", "--x=0.1", "--y=-2"],
                 ["transform", "--a=-1", "--lambda=1e200"]]
        cold = []
        for argv in argvs:
            out = io.StringIO()
            assert run(argv, out=out, err=io.StringIO()) == 0, argv
            cold.append(strip_timestamp(out.getvalue()))
        calls = []
        real = expr.expand
        monkeypatch.setattr(expr, "expand", lambda e: calls.append(e) or real(e))
        for argv, report in zip(argvs, cold):
            out = io.StringIO()
            assert run(argv, out=out, err=io.StringIO()) == 0, argv
            assert strip_timestamp(out.getvalue()) == report
        assert calls == []

    @pytest.mark.parametrize("name", sorted(NAMED_FIELDS))
    def test_named_field_built_once(self, name):
        first = NAMED_FIELDS[name]()
        clear_memo()  # as between two commands
        assert NAMED_FIELDS[name]() is first

    def test_equal_field_gets_the_kept_result(self):
        first = onshell_remainder(exceptional_vf())
        clear_memo()  # as between two commands
        assert onshell_remainder(exceptional_vf()) is first
        assert onshell_remainder(scaling_vf()) is not first


class TestLazyResidual:
    """An instance assembles its numeric residual only when it is read."""

    def test_check_of_a_named_field_never_reads_the_residual(self, monkeypatch):
        for vf in NAMED_FIELDS.values():
            onshell_remainder(vf())  # the kept remainders are built from a residual
        calls = []

        def counted(*params):
            calls.append(params)
            return family_residual(*params)

        monkeypatch.setattr(family, "family_residual", counted)
        instance_flags = (["--preset", "gss"],
                          ["--a=3", "--r=1", "--c1=7/3", "--c2=7/3", "--gamma1=2", "--gamma2=5"])
        for flags in instance_flags:
            for name in NAMED_FIELDS:
                code = run(["check-symmetry", *flags, "--field", name, "--samples", "5"],
                           out=io.StringIO(), err=io.StringIO())
                assert code in (0, 1), (flags, name)
        assert calls == []
        assert gss_preset().delta is not None
        assert len(calls) == 1

    def test_residual_is_built_once_from_the_six_numbers(self):
        params = (Fraction(-5, 3), Fraction(1, 2), Fraction(16, 5), Fraction(-7, 5), 2, -1)
        inst = build_instance(*params)
        first = inst.delta
        assert first == family_residual(*params)
        assert inst.delta is first
