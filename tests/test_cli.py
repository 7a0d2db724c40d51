"""CLI surface: reports, exit codes, determinism, CSV artifacts."""

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import pytest

from liesym import (GridSpec, base_solution, candidate_profile, eval_at, exceptional_exponents,
                    expr, family_solution, gss_preset, mul, region, sym)
from liesym import cli
from liesym.cli import _print_report, build_parser, emit_csv, run
from liesym.family import PARAMETERS
from liesym.orbits import CSV_HEADER
from test_readme import COMMANDS as README_COMMANDS


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def memo_size():
    """Entries held by the caches that clear_memo() empties."""
    return sum(body.cache_info().currsize for body in (
        expr._canonical_pow, expr._canonical_product, expr._canonical_sum, expr._derivative))


def workload_argvs(workload):
    """Every command line of the benchmark's op list for ``workload``
    (perfbench/workloads.py at seed 11 and one second of work)."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)  # workloads imports its sibling oracle
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return [op["argv"] for op in workloads.generate(workload, 11, 1, "csv")]


def parse_outcome(parse, argv, capsys):
    """(namespace fields or exit code, stdout, stderr) of one parse."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            parsed = vars(parse(argv))
    except SystemExit as exc:
        parsed = int(exc.code or 0)
    return parsed, capsys.readouterr().out, err.getvalue()


def json_report(text):
    """Parse the JSON object that ends a CLI output stream."""
    start = text.index('{\n  "command"')
    return json.loads(text[start:])


def strip_timestamp(text):
    return "\n".join(
        line for line in text.splitlines() if '"timestamp"' not in line)


def read_csv_sup_norm(source):
    """Recompute the sup-norm from an emitted CSV stream."""
    reader = csv.reader(source)
    header = next(reader)
    if tuple(header) != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header!r}")
    sup = None
    for row in reader:
        if row[2] == "1":
            r = abs(float(row[4]))
            if sup is None or r > sup:
                sup = r
    return sup


class TestExponents:
    def test_gss_parameters(self):
        code, out, _ = run_cli(["exponents", "--a", "-1", "--r", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["c1"] == -7.0
        assert report["c2"] == -3.0
        assert report["c1_exact"] == "-7"

    def test_fractional_output(self):
        code, out, _ = run_cli(["exponents", "--a", "3", "--r", "1"])
        assert code == 0
        report = json.loads(out)
        assert report["c2_exact"] == "7/3"

    def test_zero_a_is_usage_error(self):
        code, _, err = run_cli(["exponents", "--a", "0", "--r", "2"])
        assert code == 2
        assert "nonzero" in err


class TestCheckSymmetry:
    def test_gss_admitted_exit_zero(self):
        code, out, _ = run_cli(
            ["check-symmetry", "--preset", "gss", "--field", "X",
             "--samples", "200"])
        assert code == 0
        report = json.loads(out)
        assert report["admitted"] is True
        assert report["max_onshell_residual"] <= 1e-9

    def test_perturbed_exponent_exit_one(self):
        code, out, _ = run_cli(
            ["check-symmetry", "--a", "-1", "--r", "2", "--c1", "-6.9",
             "--c2", "-3", "--gamma1", "-1.5", "--gamma2", "0.25",
             "--samples", "200"])
        assert code == 1
        report = json.loads(out)
        assert report["status"] == "refuted"
        assert report["max_onshell_residual"] >= 1e-3

    def test_claims_draw_refutation_at_r_zero(self):
        # read inconclusive (6.3e-4) before the check restricted the field
        # applied to the residual exactly to the residual manifold
        code, out, _ = run_cli(
            ["check-symmetry", "--a=1/3", "--r=0", "--c1=131/10", "--c2=13",
             "--gamma1=-2/3", "--gamma2=-8", "--field=X", "--seed=313694"])
        assert code == 1
        assert json.loads(out)["status"] == "refuted"

    def test_rotation_field_refuted(self):
        code, out, _ = run_cli(
            ["check-symmetry", "--preset", "gss", "--field", "Y"])
        assert code == 1

    # exceptional instances: GSS, and two more (a, r) with the pair's exponents
    EXCEPTIONAL = [
        (Fraction(-1), Fraction(2), Fraction(-7), Fraction(-3), Fraction(-3, 2), Fraction(1, 4)),
        (Fraction(7, 2), Fraction(2), Fraction(23, 7), Fraction(15, 7), Fraction(105, 8),
         Fraction(-203, 16)),
        (Fraction(-5, 3), Fraction(1), Fraction(-13, 5), Fraction(-7, 5), Fraction(2), Fraction(-3)),
    ]

    @pytest.mark.parametrize("field", ["X", "Xprime"])
    @pytest.mark.parametrize("param", ["c1", "c2", "r"])
    def test_an_exponent_off_the_pair_is_refuted_however_close(self, field, param):
        # off the pair by 10^-12 or less, the remainder's sampled measure
        # lies below the tolerance: at its witness point it reads a nonzero
        # number, such as -3/2*10^-12 for X at c1 = -7.000000000001
        for params in self.EXCEPTIONAL:
            assert exceptional_exponents(*params[:2]) == params[2:4]
            for k in (1, 6, 9, 12, 15):
                for offset in (Fraction(1, 10**k), Fraction(-1, 10**k)):
                    values = dict(zip(PARAMETERS, params))
                    values[param] += offset
                    code, out, _ = run_cli(["check-symmetry", f"--field={field}",
                                            *(f"--{n}={v}" for n, v in values.items())])
                    assert (code, json.loads(out)["status"]) == (1, "refuted"), values

    def test_named_fields_on_the_pair_keep_their_reading(self):
        # the claims workload's exceptional instances: X, X' and dy leave a
        # structural 0 and Y a remainder that sampling refutes, so none of
        # them reaches the witness
        from test_expr import _CLAIMS_A, _CLAIMS_R

        rng = random.Random(11)
        statuses = {"X": "admitted", "Xprime": "admitted", "Y": "refuted", "dy": "admitted"}
        for a in _CLAIMS_A:
            for r in _CLAIMS_R:
                c1, c2 = exceptional_exponents(a, r)
                g1, g2 = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
                          for _ in range(2))
                flags = [f"--a={a}", f"--r={r}", f"--c1={c1}", f"--c2={c2}", f"--gamma1={g1}",
                         f"--gamma2={g2}"]
                for field, status in statuses.items():
                    code, out, _ = run_cli(["check-symmetry", *flags, f"--field={field}"])
                    assert json.loads(out)["status"] == status, (flags, field)
                    assert code == (status != "admitted"), (flags, field)

    def test_missing_instance_flags(self):
        code, _, err = run_cli(["check-symmetry", "--field", "X"])
        assert code == 2

    def test_a_coefficient_past_the_double_range_is_off_the_domain(self):
        # every flag is a double, but the remainder holds a coefficient of
        # about -1e310: it is bound as -inf, every point is redrawn and the
        # budget runs out, which is exit 1, not a usage error
        code, out, err = run_cli(
            ["check-symmetry", "--a=-1", "--r=2", "--c1=10000000000", "--c2=-3",
             "--gamma1=1e300", "--gamma2=1", "--samples=20"])
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "retry budget" in err


class TestTransform:
    def test_structural_and_numeric_match(self):
        code, out, _ = run_cli(
            ["transform", "--a", "-1", "--lambda", "1",
             "--x", "0.5", "--y", "-0.5"])
        assert code == 0
        report = json.loads(out)
        assert report["structural_match"] is True
        assert report["equiv"]["equivalent"] is True
        assert report["point"]["u"] == pytest.approx(0.25 ** 0.25)
        assert report["point"]["mapped"] == [pytest.approx(1.0), pytest.approx(0.0)]

    def test_a_two_matches_structurally(self):
        # the pushforward holds C^(-1) next to the bare factor -C; the two
        # bases are negations of each other and must merge
        code, out, _ = run_cli(["transform", "--a=2", "--lambda=1"])
        assert code == 0
        report = json.loads(out)
        assert report["structural_match"] is True
        assert report["transformed_expr"] == report["family_expr"]

    def test_a_structural_match_compiles_nothing(self, monkeypatch):
        # the difference of the two sides is 0, so nothing is sampled
        def refuse(*args, **kwargs):
            raise AssertionError("compiled a structural match")

        monkeypatch.setattr(expr, "_walk", refuse)
        code, out, _ = run_cli(["transform", "--a=-1", "--lambda=1"])
        assert code == 0
        assert json.loads(out)["equiv"] == {"equivalent": True, "samples": 64}

    @pytest.mark.parametrize("lam", ["1e-160", "-1e-160", "1e-154", "1e-200", "1e-320",
                                     "5e+153", "1e+160", "1e+200"])
    def test_a_structural_match_needs_no_region_guard(self, lam):
        # region() refuses these lambda, where x^2 + y^2 leaves the double
        # range inside its box; transform draws nothing from a structural
        # match, so it builds no box and makes none of those checks
        code, out, err = run_cli(["transform", "--a=-1", f"--lambda={lam}"])
        assert code == 0, err
        report = json.loads(out)
        assert report["structural_match"] is True
        assert report["equiv"] == {"equivalent": True, "samples": 64}

    @pytest.mark.parametrize("lam,x", [("1", "1e200"), ("1e-200", "1e200")])
    def test_a_point_whose_map_overflows_is_a_usage_error(self, lam, x):
        # C overflows to inf (lambda 1) or reads nan (lambda^2 underflows to
        # 0 while x^2 overflows); the mapped point has no finite value either
        code, out, err = run_cli(["transform", "--a=-1", f"--lambda={lam}",
                                  f"--x={x}", "--y=0", "--samples", "0"])
        assert (code, out) == (2, "")
        assert err == ("error: --x=1e+200 --y=0.0: the conformal factor or the mapped "
                       "point overflows the double range\n")

    def test_a_point_where_u_overflows_is_a_usage_error(self):
        # C and the mapped point are finite and the point is in the domain,
        # but u at a = -8 squares a base of about 4.4e199; at a = -5 it is
        # about 3.6e249 and the command exits 0
        point = ["--lambda=1e-100", "--x=1e100", "--y=-5e99", "--samples", "0"]
        code, out, err = run_cli(["transform", "--a=-8", *point])
        assert (code, out) == (2, "")
        assert err == ("error: --x=1e+100 --y=-5e+99: u overflows the double range "
                       "at this point\n")
        code, out, err = run_cli(["transform", "--a=-5", *point])
        assert code == 0, err
        point = json.loads(out)["point"]
        assert point["in_domain"] is True and point["u"] == pytest.approx(3.558136e249)

    @pytest.mark.parametrize("lam", ["1", "1/2", "1/3", "-1", "5/2", "7/3", "1/10"])
    def test_sampled_draws_accept_where_the_family_domain_holds(self, lam):
        # transform samples where the family's conditions, lam substituted,
        # are > 0; the family's domain folds lam at compile time instead
        lam = Fraction(lam)
        family = family_solution(-1, lam)
        conditions = expr.to_predicate(family.conditions(), ("x", "y"))
        x_lo, x_hi, y_lo, y_hi = cli._family_box(lam)
        rng = random.Random(7)
        inside = 0
        for _ in range(100_000):
            x, y = rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi)
            assert conditions(x, y) == family.domain(x, y), (x, y)
            inside += conditions(x, y)
        assert 0 < inside < 100_000


class TestResidualGrid:
    def test_csv_artifact_and_round_trip(self, tmp_path):
        csv_path = tmp_path / "field.csv"
        code, out, _ = run_cli(
            ["residual-grid", "--preset", "gss", "--solution", "family",
             "--lambda", "1", "--nx", "30", "--ny", "30",
             "--output", str(csv_path)])
        assert code == 0
        report = json.loads(out)
        assert report["within_tolerance"] is True
        with open(csv_path) as fh:
            recomputed = read_csv_sup_norm(fh)
        assert recomputed == report["sup_residual"]

    def test_stdout_trailer_mode(self):
        code, out, _ = run_cli(
            ["residual-grid", "--preset", "gss", "--solution", "base",
             "--nx", "5", "--ny", "5"])
        assert code == 0
        assert out.startswith("x,y,in_domain,u,residual\n")
        report = json_report(out)
        assert report["in_domain_nodes"] == 25

    def test_exceptional_family_at_a_two(self):
        # a canonical product that repeated a base made uyy wrong here:
        # sup ~1 and exit 1 at every lambda
        code, out, _ = run_cli(
            ["residual-grid", "--a=2", "--r=2", "--c1=5", "--c2=3", "--gamma1=6",
             "--gamma2=-5", "--solution", "family", "--lambda", "1",
             "--nx", "24", "--ny", "24"])
        assert code == 0
        report = json_report(out)
        assert report["in_domain_nodes"] > 0
        assert report["sup_residual"] <= 1e-9

    def test_a_column_at_x_zero_is_masked(self):
        # the base solution's domain leaves out the column x = 0, and the
        # kernel still works that column's slots of x alone (x^2 and a
        # constant times it here) before the first row: the column is
        # masked, not counted off the real domain, and the rest is written.
        # A slot of x alone that takes 0 to a negative power there is
        # tested in TestRowKernel
        code, out, _ = run_cli(["residual-grid", "--preset", "gss", "--solution", "base",
                                "--x-min=-1", "--x-max=1", "--y-min=-0.5", "--y-max=0.5",
                                "--nx", "3", "--ny", "3"])
        assert code == 0
        cut = out.index('{\n  "command"')
        assert hashlib.sha256(out[:cut].encode()).hexdigest() == (
            "3d84cb9a3546f57feb247450026bdf28a048343eb9d23991d744932bb2ac14e8")
        report = json_report(out)
        assert (report["in_domain_nodes"], report["masked_off_real_nodes"]) == (6, 0)

    def test_gss_family_grid_at_200(self):
        # the grid measures the residual over the five terms of the PDE;
        # measured as a single term its roundoff read 1.99e-8, above the
        # tolerance
        code, out, _ = run_cli(["residual-grid", "--preset", "gss", "--solution", "family",
                                "--nx", "200", "--ny", "200"])
        assert code == 0
        assert json_report(out)["sup_residual"] <= 1e-14

    @pytest.mark.parametrize("a", ["1/3", "1/2", "1", "3/2", "2", "5/2", "3", "4", "6",
                                   "-1", "-2", "-5/3"])
    def test_exceptional_family_grids(self, a):
        # the base solution's instance at r = 2: c1 = 1 + 8/a, c2 = 1 + 4/a,
        # gamma1 = 8k(k - 1) and gamma2 = 2ak - 4k(k - 1) with k = -a/4
        a = Fraction(a)
        k = -a / 4
        instance = [f"--a={a}", "--r=2", f"--c1={1 + 8 / a}", f"--c2={1 + 4 / a}",
                    f"--gamma1={8 * k * (k - 1)}", f"--gamma2={2 * a * k - 4 * k * (k - 1)}"]
        for lam in ("1/3", "1/2", "1", "2", "3"):
            code, out, _ = run_cli(["residual-grid", *instance, "--solution", "family",
                                    f"--lambda={lam}", "--nx", "24", "--ny", "24"])
            report = json_report(out)
            assert code == 0, (lam, report["sup_residual"])
            assert report["in_domain_nodes"] > 0 and report["sup_residual"] <= 1e-14

    def test_overflow_masks_are_counted(self):
        # from lambda of about 1e87 the terms of the GSS family residual
        # overflow at every node the region admits: the report counts those
        # nodes apart, and the exit code stays that of a grid with no
        # in-domain node
        argv = ["residual-grid", "--preset", "gss", "--solution", "family",
                "--nx", "20", "--ny", "20"]
        code, out, _ = run_cli([*argv, "--lambda", "1e88"])
        report = json_report(out)
        assert code == 1
        assert report["in_domain_nodes"] == 0 and report["sup_residual"] is None
        assert report["masked_off_real_nodes"] == 256
        code, out, _ = run_cli([*argv, "--lambda", "1e85"])
        report = json_report(out)
        assert code == 0
        assert (report["in_domain_nodes"], report["masked_off_real_nodes"]) == (256, 0)

    def test_a_condition_without_a_value_admits_no_node(self):
        # at |x| of 1e160, x^2 overflows in the base solution's condition
        # x^2 - y^2: a node is admitted only where every condition has a
        # value, so none is admitted and none is counted off the real
        # domain (the float test x*x - y*y read inf > 0 and counted all 9)
        code, out, _ = run_cli(["residual-grid", "--preset", "gss", "--solution", "base",
                                "--x-min=1e160", "--x-max=2e160", "--y-min=-1", "--y-max=1",
                                "--nx", "3", "--ny", "3"])
        report = json_report(out)
        assert code == 1
        assert (report["in_domain_nodes"], report["masked_off_real_nodes"]) == (0, 0)

    def test_node_count_is_bounded(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the grid was evaluated")

        monkeypatch.setattr(cli, "residual_grid", refuse)
        code, out, err = run_cli(["residual-grid", "--preset", "gss",
                                  "--nx", "100000", "--ny", "100000"])
        assert code == 2 and out == ""
        assert err == "error: grid of 100000 x 100000 nodes exceeds 1000000 nodes\n"
        with pytest.raises(ValueError):
            GridSpec(1.0, 2.0, -0.5, 0.5, 1001, 1000)
        assert GridSpec(1.0, 2.0, -0.5, 0.5, 1000, 1000).nx == 1000

    @pytest.mark.parametrize("box", [
        ["--x-min=-1e308", "--x-max=1e308", "--y-min=0", "--y-max=1"],
        ["--x-min=0", "--x-max=1", "--y-min=-1e308", "--y-max=1e308"]], ids=["x", "y"])
    def test_a_span_past_the_double_range_is_a_usage_error(self, box, tmp_path):
        # x_max - x_min overflows: the nodes would read inf and nan
        csv_path = tmp_path / "field.csv"
        code, out, err = run_cli(["residual-grid", "--preset", "gss", *box,
                                  "--nx", "3", "--ny", "2", "--output", str(csv_path)])
        assert (code, out) == (2, "")
        assert err == "error: grid extents must have a span within the double range\n"
        assert not csv_path.exists()

    def test_the_default_family_box_keeps_the_region_guard(self):
        # unlike transform, the grid evaluates x^2 + y^2 at its nodes
        code, out, err = run_cli(["residual-grid", "--preset", "gss", "--solution", "family",
                                  "--lambda=1e-160", "--nx", "3", "--ny", "3"])
        assert (code, out) == (2, "")
        assert "needs lam of at least about 1.5e-154" in err

    @pytest.mark.parametrize("lam", ["-1", "-1/3", "0"])
    def test_family_default_grid_at_nonpositive_lambda(self, lam):
        code, out, err = run_cli(
            ["residual-grid", "--preset", "gss", "--solution", "family",
             f"--lambda={lam}", "--nx", "24", "--ny", "24"])
        assert code == 0, err
        report = json_report(out)
        assert report["in_domain_nodes"] > 0
        grid = report["grid"]
        box = (grid["x_min"], grid["x_max"], grid["y_min"], grid["y_max"])
        if lam == "0":  # the family at lambda = 0 is the base solution
            assert box == (1.0, 2.0, -0.5, 0.5)
        else:  # the |lambda| region mirrored in y
            x_lo, x_hi, y_lo, y_hi = region(-float(Fraction(lam))).bounding_box()
            assert box == (x_lo, x_hi, -y_hi, -y_lo)

    def test_lambda_with_the_base_solution_is_a_usage_error(self):
        # the base solution has no lambda: one given used to be ignored
        for argv in (["--preset", "gss", "--solution", "base", "--lambda=2"],
                     ["--preset", "gss", "--lambda=1"]):
            code, out, err = run_cli(["residual-grid", *argv, "--nx", "4", "--ny", "4"])
            assert (code, out) == (2, "")
            assert err == "error: --lambda given with --solution base\n"

    def test_family_lambda_defaults_to_one(self):
        argv = ["residual-grid", "--preset", "gss", "--solution", "family", "--nx", "6", "--ny", "6"]
        code, out, _ = run_cli(argv)
        assert code == 0 and json_report(out)["solution"] == "family(lam=1.0)"
        assert strip_timestamp(out) == strip_timestamp(run_cli([*argv, "--lambda=1"])[1])

    def test_masked_nodes_empty_fields(self):
        sink = io.StringIO()
        emit_csv(gss_preset(), base_solution(-1), GridSpec(0.5, 2.0, 0.0, 1.8, 4, 4), sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "x,y,in_domain,u,residual"
        masked = [ln for ln in lines[1:] if ",0,," in ln]
        assert masked and all(ln.endswith(",0,,") for ln in masked)

    def test_two_by_two_grid_rows(self):
        sink = io.StringIO()
        field = emit_csv(gss_preset(), base_solution(-1), GridSpec(1.0, 2.0, -0.4, 0.4, 2, 2),
                         sink)
        assert len(sink.getvalue().splitlines()) == 5  # header + 4 nodes
        assert field.n_in_domain == 4

    def test_seventeen_significant_digits(self):
        sol = base_solution(-1)
        sink = io.StringIO()
        field = emit_csv(gss_preset(), sol, GridSpec(1.0, 2.0, -0.4, 0.4, 2, 2), sink)
        rows = [line.split(",") for line in sink.getvalue().splitlines()[1:]]
        # every number round-trips exactly
        assert [float(row[3]) for row in rows] == [
            eval_at(sol.expr, {"x": float(row[0]), "y": float(row[1])}) for row in rows]
        assert max(abs(float(row[4])) for row in rows) == field.sup_norm


class TestRegion:
    def test_geometry_and_xor_check(self):
        code, out, _ = run_cli(["region", "--lambda", "1", "--samples", "10000"])
        assert code == 0
        report = json.loads(out)
        assert report["center1"] == [0.5, -0.5]
        assert report["center2"] == [-0.5, -0.5]
        assert report["xor_check"]["mismatches"] == 0

    def test_point_membership(self):
        code, out, _ = run_cli(
            ["region", "--lambda", "1", "--x", "0.5", "--y", "-0.5"])
        assert code == 0
        assert json.loads(out)["point"]["member"] is True

    def test_nonpositive_lambda_rejected(self):
        code, _, err = run_cli(["region", "--lambda", "0"])
        assert code == 2


class TestReduce:
    def test_gss_exit_zero(self):
        code, out, _ = run_cli(["reduce", "--preset", "gss"])
        assert code == 0
        report = json.loads(out)
        assert report["profile_solves_both"] is True
        assert report["residual_a"] == "0"
        assert report["gammas_match_profile"] is True

    def test_mismatched_gammas_exit_one(self):
        code, out, _ = run_cli(
            ["reduce", "--a", "-1", "--r", "2", "--c1", "-7", "--c2", "-3",
             "--gamma1", "1", "--gamma2", "1"])
        assert code == 1
        assert json.loads(out)["profile_solves_both"] is False


class TestWeakCS:
    def test_gss_chain_exit_zero(self):
        code, out, _ = run_cli(
            ["weak-cs", "--preset", "gss", "--samples", "100"])
        assert code == 0
        report = json.loads(out)
        assert report["confirmed"] is True
        assert [s["verdict"] for s in report["stages"]] == [
            "nonzero", "nonzero", "zero"]

    def test_degenerate_instance_exit_one(self):
        code, out, _ = run_cli(
            ["weak-cs", "--a", "-1", "--r", "2", "--c1", "-7", "--c2", "-3",
             "--gamma1", "0", "--gamma2", "0.25", "--samples", "60"])
        assert code == 1
        assert json.loads(out)["anti_reduction"]["degenerate_split"] is True

    def test_wrong_gammas_fail_in_stage_three(self):
        # the exceptional exponents of a = -1 with gammas off the profile's
        code, out, _ = run_cli(
            ["weak-cs", "--a=-1", "--r=2", "--c1=-7", "--c2=-3", "--gamma1=7",
             "--gamma2=-3", "--samples", "60"])
        report = json.loads(out)
        assert code == 1
        assert report["is_exceptional"] is True
        assert report["stages"][2]["verdict"] == "nonzero"
        assert report["stages"][2]["remainder"] != "0"
        assert report["confirmed"] is False

    @pytest.mark.parametrize("instance", [
        ["--preset", "gss"],
        # not exceptional, and its terms overflow at some draws
        ["--a=-1", "--r=2", "--c1=1340", "--c2=900", "--gamma1=1", "--gamma2=1"],
    ], ids=["gss", "overflow"])
    def test_reads_what_check_symmetry_reads(self, instance):
        # stage 1 restricts Y applied to the residual to the residual
        # manifold, as check-symmetry --field Y does, and both sample it
        # with the same sampler; the context line is check-symmetry of X
        tail = ["--samples", "40", "--seed", "9"]
        weak = json.loads(run_cli(["weak-cs", *instance, *tail])[1])
        y_code, y_out, _ = run_cli(["check-symmetry", *instance, "--field", "Y", *tail])
        x_out = run_cli(["check-symmetry", *instance, "--field", "X", *tail])[1]
        y, x = json.loads(y_out), json.loads(x_out)
        stage = weak["stages"][0]
        assert (y_code, y["status"], stage["verdict"]) == (1, "refuted", "nonzero")
        assert (stage["max_abs"], stage["samples"], stage["resampled"]) == (
            y["max_onshell_residual"], y["sample_count"], y["resampled"])
        assert weak["exceptional_field_onshell_max"] == x["max_onshell_residual"]

    def test_consequences_flag_changes_only_its_echo(self):
        argv = ["weak-cs", "--preset", "gss", "--samples", "60"]
        plain = json.loads(run_cli(argv)[1])
        flagged = json.loads(run_cli(argv + ["--consequences"])[1])
        assert (plain.pop("include_consequences"), flagged.pop("include_consequences")) == (
            False, True)
        plain.pop("timestamp"), flagged.pop("timestamp")
        assert plain == flagged


class TestContract:
    SUBCOMMANDS = (
        ["exponents", "--a", "-1", "--r", "2"],
        ["check-symmetry", "--preset", "gss", "--samples", "60"],
        ["transform", "--a", "-1", "--lambda", "1", "--samples", "16"],
        ["residual-grid", "--preset", "gss", "--nx", "6", "--ny", "6"],
        ["region", "--lambda", "1", "--samples", "500"],
        ["reduce", "--preset", "gss"],
        ["weak-cs", "--preset", "gss", "--samples", "60"],
    )

    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda a: a[0])
    def test_deterministic_modulo_timestamp(self, argv):
        code1, out1, _ = run_cli(argv)
        code2, out2, _ = run_cli(argv)
        assert code1 == code2
        assert strip_timestamp(out1) == strip_timestamp(out2)
        assert out1.count('"timestamp"') == 1

    def test_import_loads_no_module_a_command_does_not_use(self):
        # every command starts a fresh process: the records are plain
        # classes, the timestamp comes from time, and the CSV reader is a
        # test helper, so none of these is loaded
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = ("import sys, liesym.cli; "
                "print(sorted({'dataclasses', 'inspect', 'datetime', 'csv'} & set(sys.modules)))")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "[]\n"

    def test_timestamp_is_utc_iso_8601(self):
        _, out, _ = run_cli(["exponents", "--a", "-1", "--r", "2"])
        stamp = json.loads(out)["timestamp"]
        assert stamp.endswith("+00:00")
        assert datetime.fromisoformat(stamp).utcoffset().total_seconds() == 0

    @pytest.mark.parametrize("ns,text", [
        (1_760_000_000_000_000_000, "2025-10-09T08:53:20+00:00"),
        (1_760_000_000_000_000_999, "2025-10-09T08:53:20+00:00"),
        (1_760_000_000_000_001_000, "2025-10-09T08:53:20.000001+00:00"),
        (1_760_000_000_123_456_789, "2025-10-09T08:53:20.123456+00:00"),
        (1_760_000_059_999_999_999, "2025-10-09T08:54:19.999999+00:00"),
    ], ids=["whole-second", "below-a-microsecond", "one-microsecond", "fraction", "last"])
    def test_timestamp_leaves_out_a_zero_fraction(self, monkeypatch, ns, text):
        # what datetime's isoformat gives for the same UTC time
        monkeypatch.setattr(time, "time_ns", lambda: ns)
        _, out, _ = run_cli(["exponents", "--a", "-1", "--r", "2"])
        stamp = json.loads(out)["timestamp"]
        assert stamp == text
        seconds, micros = divmod(ns // 1000, 10 ** 6)
        assert stamp == datetime.fromtimestamp(seconds, timezone.utc).replace(
            microsecond=micros).isoformat()

    def test_unknown_flag_exits_two(self):
        code, _, _ = run_cli(["exponents", "--a", "-1", "--r", "2", "--bogus"])
        assert code == 2

    @pytest.mark.parametrize("argv,flag,value,read", [
        (["exponents", "--r", "2"], "--a", "-1/3", lambda rep: rep["a_exact"] == "-1/3"),
        (["region", "--lambda", "1", "--y", "0"], "--x", "-1e-3",
         lambda rep: rep["point"]["x"] == -0.001),
    ], ids=["fraction", "exponent-form"])
    def test_a_negative_fraction_or_exponent_form_needs_the_equals_form(self, argv, flag,
                                                                       value, read):
        # argparse reads -1/3 and -1e-3 after a space as flags, not values;
        # -0.5 and -2 look like negative numbers to it and parse either way
        code, out, err = run_cli([*argv, flag, value])
        assert code == 2 and out == ""
        assert f"argument {flag}: expected one argument" in err
        code, out, err = run_cli([*argv, f"{flag}={value}"])
        assert code == 0, err
        assert read(json_report(out))

    def test_unknown_subcommand_exits_two(self):
        code, _, _ = run_cli(["no-such-command"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["residual-grid", "--preset", "gss", "--solution", "family", "--x-min", "1",
         "--x-max", "inf", "--y-min", "-0.5", "--y-max", "0.5", "--nx", "3", "--ny", "2"],
        ["transform", "--lambda", "1", "--x", "nan", "--y", "0", "--samples", "0"],
        ["check-symmetry", "--preset", "gss", "--samples", "10", "--tol=-inf"],
    ], ids=["x-max-inf", "x-nan", "tol-inf"])
    def test_non_finite_flags_exit_two(self, argv):
        code, out, err = run_cli(argv)
        assert code == 2
        assert "NaN" not in out and "inf" not in out
        assert "not a finite number" in err  # argparse's own message

    @pytest.mark.parametrize("tol", ["10", "1e-3", "-1e-12"])
    @pytest.mark.parametrize("argv", [
        ["check-symmetry", "--preset", "gss", "--field", "Y", "--samples", "10"],
        ["residual-grid", "--a=-1", "--r=2", "--c1=-7", "--c2=-3", "--gamma1=7",
         "--gamma2=-3", "--nx", "5", "--ny", "5"],
    ], ids=["check-symmetry", "residual-grid"])
    def test_tolerance_at_the_refutation_threshold_exits_two(self, argv, tol):
        # --tol 10 read Y, which is no symmetry of GSS, as admitted (max
        # 1.62), and passed the grid of a wrong instance (sup 1.04)
        code, out, err = run_cli([*argv, f"--tol={tol}"])
        assert code == 2 and out == ""
        assert "must be at least 0 and below 0.001" in err

    def test_tolerance_just_below_the_refutation_threshold(self):
        assert run_cli(["check-symmetry", "--preset", "gss", "--samples", "10",
                        "--tol=9.99e-4"])[0] == 0
        assert run_cli(["check-symmetry", "--preset", "gss", "--field", "Y", "--samples", "10",
                        "--tol=0"])[0] == 1

    @pytest.mark.parametrize("argv,message", [
        (["residual-grid", "--preset", "gss", "--x-min", "1.5"],
         "--x-min given without --x-max, --y-min, --y-max"),
        (["residual-grid", "--preset", "gss", "--x-min", "1", "--x-max", "2", "--y-max", "1"],
         "--x-min, --x-max, --y-max given without --y-min"),
        (["transform", "--lambda", "1", "--x", "0.5", "--samples", "0"],
         "--x given without --y"),
        (["region", "--lambda", "1", "--y", "0.2"], "--y given without --x"),
    ], ids=["grid-one-bound", "grid-three-bounds", "transform-x", "region-y"])
    def test_partial_flag_set_exits_two(self, argv, message, monkeypatch):
        # the given flags were dropped without a word: the grid took its
        # default box, transform and region reported no point
        def refuse(*args):
            raise AssertionError("the grid was evaluated")

        monkeypatch.setattr(cli, "residual_grid", refuse)
        assert run_cli(argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command,message", [
        ("reduce", "reduction requires r = 2, got r = {r}"),
        ("weak-cs", "the reduction chain requires r = 2, got {r}"),
    ], ids=["reduce", "weak-cs"])
    @pytest.mark.parametrize("r,c1", [("3", "11"), ("0", "5")], ids=["r3", "r0"])
    def test_reduction_off_r_two_exits_two(self, command, message, r, c1):
        # the reduction is defined at r = 2 only, so another r is a usage
        # error, as a = 0 is; it exited 1, the refuted/inconclusive code
        argv = [command, "--a=1", f"--r={r}", f"--c1={c1}", "--c2=5", "--gamma1=1",
                "--gamma2=1"]
        assert run_cli(argv) == (2, "", f"error: {message.format(r=r)}\n")

    @pytest.mark.parametrize("command", ["check-symmetry", "residual-grid", "reduce",
                                         "weak-cs"])
    @pytest.mark.parametrize("flags,named", [
        (["--c1=5"], "--c1"),
        (["--gamma2=1", "--a=2"], "--a, --gamma2"),
    ], ids=["c1", "a-and-gamma2"])
    def test_preset_with_parameter_flags_exits_two(self, command, flags, named):
        # the preset silently won: check-symmetry --preset gss --c1=5
        # reported "c1": "-7" as admitted, a verdict on an instance the
        # flags did not ask for
        assert run_cli([command, "--preset", "gss", *flags]) == (
            2, "", f"error: --preset given with {named}\n")

    @pytest.mark.parametrize("argv", [
        ["exponents", "--a=1e400", "--r=2"],
        ["exponents", "--a=1e-400", "--r=2"],
        ["check-symmetry", "--a=-1", "--r=2", "--c1=-7", "--c2=-3", "--gamma1=1e400",
         "--gamma2=1", "--samples", "5"],
        ["residual-grid", "--preset", "gss", "--solution", "family", "--lambda=1e400",
         "--nx", "3", "--ny", "3"],
        ["exponents", "--a=1e10000000", "--r=2"],  # refused before Fraction builds it
        ["exponents", "--a=1e-320", "--r=2"],  # a is subnormal, c1 ~ 8e320 is not a double
    ], ids=["a-huge", "a-tiny", "gamma1-huge", "lambda-huge", "a-ten-million-digits",
            "c1-overflows"])
    def test_decimals_past_the_double_range_exit_two(self, argv):
        # an uncaught OverflowError used to exit 1, which reads as "refuted"
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert "error:" in err and "Traceback" not in err

    REGION_COMMANDS = {
        "region": ["region", "--samples", "2000"],
        "transform": ["transform", "--samples", "64"],
        "residual-grid": ["residual-grid", "--preset", "gss", "--solution", "family",
                          "--nx", "20", "--ny", "20"],
    }

    # transform draws nothing from its structural match, so it refuses no
    # lam for the region (TestTransform); it still reads 3e-154 as the others
    @pytest.mark.parametrize("command,lam,code", [
        (command, lam, code) for command in sorted(REGION_COMMANDS)
        for lam, code in [("1e-154", 2), ("1e-200", 2), ("1e-320", 2), ("3e-154", 0)]
        if command != "transform" or code == 0])
    def test_lambda_too_small_for_the_region_exits_two(self, command, lam, code):
        # where x^2 + y^2 overflows inside the region's box, membership
        # reads inf: region would count mismatches of a true identity and
        # the grid mask every node, each exiting 1 as if refuted
        self._assert_region_exit(command, lam, code)

    # each lam is written as its float's repr, which the error line prints
    @pytest.mark.parametrize("lam", ["5e+153", "1e+160", "1e+200"])
    @pytest.mark.parametrize("command", ["region", "residual-grid"])
    def test_lambda_too_large_for_the_region_exits_two(self, command, lam):
        # where the region's radius squared is subnormal, x^2 + y^2
        # underflows inside its box: region counted mismatches of a true
        # identity, exiting 1
        self._assert_region_exit(command, lam, 2)

    # not residual-grid: from lam of about 1e87 on, the terms of the GSS
    # family residual overflow at every node, so the grid masks them all
    @pytest.mark.parametrize("command", ["region", "transform"])
    def test_lambda_just_below_the_underflow_keeps_the_region(self, command):
        self._assert_region_exit(command, "4.7e+153", 0)

    def _assert_region_exit(self, command, lam, code):
        got, out, err = run_cli([*self.REGION_COMMANDS[command], f"--lambda={lam}"])
        assert got == code
        if code == 2:
            assert out == ""
            assert err.startswith("error:") and f"got {lam}" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("command,target,reason", [
        (["residual-grid", "--preset", "gss", "--solution", "family", "--nx", "20",
          "--ny", "20"], "missing/field.csv", "No such file or directory"),
        (["residual-grid", "--preset", "gss", "--nx", "20", "--ny", "20"], ".",
         "Is a directory"),
        (["check-symmetry", "--preset", "gss", "--samples", "10"], "missing/report.json",
         "No such file or directory"),
    ], ids=["grid-missing-directory", "grid-directory", "check-symmetry-missing-directory"])
    def test_unwritable_output_exits_two(self, command, target, reason, tmp_path, monkeypatch):
        # an OSError escaped as a traceback with exit 1, which reads as
        # "refuted"; the grid was evaluated before its CSV file was opened
        def refuse(*args):
            raise AssertionError("the grid was evaluated")

        monkeypatch.setattr(cli, "residual_grid", refuse)
        path = tmp_path / target
        code, out, err = run_cli([*command, "--output", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and reason in err and repr(str(path)) in err
        assert "Traceback" not in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
    @pytest.mark.parametrize("argv", [
        ["residual-grid", "--preset", "gss", "--nx", "5", "--ny", "5"],
        ["exponents", "--a", "-1", "--r", "2"],
    ], ids=["residual-grid", "exponents"])
    def test_failed_output_write_exits_two(self, argv):
        code, out, err = run_cli([*argv, "--output", "/dev/full"])
        assert code == 2 and out == ""
        assert err == "error: [Errno 28] No space left on device\n"
        assert os.path.exists("/dev/full")  # a failed run removes only a file it created

    def test_report_refuses_non_json_numbers(self):
        with pytest.raises(ValueError):
            _print_report({"command": "probe", "value": float("nan")}, io.StringIO(), None)

    @pytest.mark.parametrize("argv", [
        ["check-symmetry", "--preset", "gss", "--samples", "0"],
        ["weak-cs", "--preset", "gss", "--samples", "0"],
        ["weak-cs", "--preset", "gss", "--samples", "-1"],
        ["region", "--lambda", "1", "--samples", "-3"],
        ["transform", "--lambda", "1", "--samples", "-2"],
        ["residual-grid", "--preset", "gss", "--nx", "0"],
        ["residual-grid", "--preset", "gss", "--ny", "-1"],
    ], ids=["check-symmetry-0", "weak-cs-0", "weak-cs-neg", "region-neg", "transform-neg",
            "nx-0", "ny-neg"])
    def test_counts_out_of_range_exit_two(self, argv):
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert "error:" in err and "must be at least" in err

    def test_counts_not_integers_exit_two(self):
        code, _, err = run_cli(["region", "--lambda", "1", "--samples", "1.5"])
        assert code == 2
        assert "not an integer" in err

    @pytest.mark.parametrize("argv", [
        ["check-symmetry", "--preset", "gss", "--tol", "10"],
        ["check-symmetry", "--preset", "gss", "--no-such-flag"],
        ["no-such-command"],
    ], ids=["bad-tol", "unknown-flag", "unknown-command"])
    def test_usage_errors_go_to_the_err_stream(self, argv, capsys):
        # run(argv, out, err) wrote argparse's usage errors to sys.stderr,
        # so a caller that passed err got exit 2 with no error text
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: liesym") and "error:" in err
        assert capsys.readouterr() == ("", "")

    def test_zero_samples_skips_sampling(self):
        code, out, _ = run_cli(["region", "--lambda", "1", "--samples", "0"])
        assert code == 0
        assert "xor_check" not in json.loads(out)
        code, out, _ = run_cli(["transform", "--lambda", "1", "--samples", "0"])
        assert code == 0
        assert json.loads(out)["equiv"] is None

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    class Parsed(Exception):
        """Raised by a handler in place of running the command: carries
        the namespace ``run`` parsed."""

    def parsed_by_run(self, argv, monkeypatch):
        def capture(args, out):
            raise self.Parsed(dict(vars(args)))

        for command in cli._HANDLERS:
            monkeypatch.setitem(cli._HANDLERS, command, capture)
        with pytest.raises(self.Parsed) as caught:
            run_cli(argv)
        return caught.value.args[0]

    @pytest.mark.parametrize("argv", [
        *SUBCOMMANDS, *(argv for argv, _ in README_COMMANDS)], ids=" ".join)
    def test_one_parse_pass_reads_the_two_pass_namespace(self, argv, monkeypatch):
        # run reads a command line that starts with a command with that
        # command's own parser, which the top-level pass hands it all to
        assert self.parsed_by_run(argv, monkeypatch) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize("workload", ["claims", "grid-sweep", "grid-large"])
    def test_one_parse_pass_reads_the_benchmark_lines(self, workload, monkeypatch):
        argvs = workload_argvs(workload)
        assert len(argvs) > 4
        for argv in argvs:
            assert self.parsed_by_run(argv, monkeypatch) == vars(
                build_parser().parse_args(argv)), argv

    @pytest.mark.parametrize("argv,code", [
        (["check-symmetry", "--preset", "gss", "--bogus"], 2),
        (["transform", "--a=-1", "--samples", "0"], 2),
        (["check-symmetry", "--preset", "gss", "--field", "Z"], 2),
        (["check-symmetry", "--preset", "gss", "--samples", "0"], 2),
        (["exponents", "--r", "2", "--a", "-1/3"], 2),
        ([], 2),
        (["no-such-command"], 2),
        (["check-symmetry", "--help"], 0),
        (["--version"], 0),
    ], ids=["unknown-flag", "missing-lambda", "unknown-field", "zero-samples",
            "fraction-after-a-space", "no-argument", "unknown-command", "command-help",
            "version"])
    def test_parse_exits_keep_their_code_and_text(self, argv, code, capsys):
        # each path exits as the two-pass parse does, with the same text,
        # but for an unknown flag, whose usage line is now the command's
        two_pass = parse_outcome(build_parser().parse_args, argv, capsys)
        one_pass = parse_outcome(cli._parse, argv, capsys)
        assert run_cli(argv) == (code, "", one_pass[2])
        assert capsys.readouterr().out == one_pass[1]
        assert one_pass[0] == two_pass[0] == code
        if "--bogus" not in argv:
            assert one_pass[1:] == two_pass[1:]
            return
        top, command = build_parser(), build_parser().commands["check-symmetry"]
        assert two_pass[2] == (f"{top.format_usage()}"
                               f"liesym: error: unrecognized arguments: --bogus\n")
        assert one_pass[2] == (f"{command.format_usage()}"
                               f"liesym check-symmetry: error: unrecognized arguments: --bogus\n")

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["check-first", "transform-first"])
    def test_consecutive_commands_match_lone_runs(self, order):
        commands = (["check-symmetry", "--preset", "gss", "--samples", "40"],
                    ["transform", "--a", "-1", "--lambda", "1", "--samples", "16"])
        expected = {}
        for i, argv in enumerate(commands):
            build_parser.cache_clear()
            code, out, _ = run_cli(argv)
            expected[i] = (code, strip_timestamp(out))
        build_parser.cache_clear()
        for i in order:
            code, out, _ = run_cli(commands[i])
            assert (code, strip_timestamp(out)) == expected[i]

    @pytest.mark.parametrize("argv,code", [
        (["reduce", "--preset", "gss"], 0),
        (["reduce", "--a", "-1", "--r", "2", "--c1", "-7", "--c2", "-3",
          "--gamma1", "1", "--gamma2", "1"], 1),
        # builds the pushed and the family solution, then refuses the point
        # whose map overflows: a residual grid builds no expression before
        # its usage error
        (["transform", "--a=-1", "--lambda=1", "--x=1e200", "--y=0", "--samples", "0"], 2),
    ], ids=["exit-0", "exit-1", "exit-2"])
    def test_memo_empty_after_command(self, argv, code, monkeypatch):
        sizes = []
        real_clear = cli.clear_memo

        def clear():
            sizes.append(memo_size())
            real_clear()

        monkeypatch.setattr(cli, "clear_memo", clear)
        assert run_cli(argv)[0] == code
        assert sizes and sizes[-1] > 0  # the command did memoize something
        assert memo_size() == 0

    def test_memo_empty_after_escaping_exception(self, monkeypatch):
        def boom(args, out):
            mul(sym("x"), sym("y"))
            assert memo_size()
            raise RuntimeError("handler failed")

        monkeypatch.setitem(cli._HANDLERS, "reduce", boom)
        with pytest.raises(RuntimeError):
            run_cli(["reduce", "--preset", "gss"])
        assert memo_size() == 0

    @pytest.mark.parametrize("argv,key,value", [
        (["exponents", "--a", "-1", "--r", "2"], "c1", -7.0),
        (["check-symmetry", "--preset", "gss", "--samples", "10"], "admitted", True),
        (["transform", "--lambda", "1", "--samples", "4"], "structural_match", True),
        (["residual-grid", "--preset", "gss", "--nx", "3", "--ny", "3"],
         "within_tolerance", True),
        (["region", "--lambda", "1", "--samples", "10"], "radius", pytest.approx(2 ** -0.5)),
        (["reduce", "--preset", "gss"], "profile_solves_both", True),
        (["weak-cs", "--preset", "gss", "--samples", "10"], "confirmed", True),
    ], ids=["exponents", "check-symmetry", "transform", "residual-grid", "region",
            "reduce", "weak-cs"])
    def test_output_file_receives_report(self, argv, key, value, tmp_path):
        path = tmp_path / "output"
        code, out, _ = run_cli([*argv, "--output", str(path)])
        assert code == 0
        if argv[0] == "residual-grid":
            # --output is the CSV; stdout holds the report and nothing else
            assert path.read_text().startswith("x,y,in_domain,u,residual\n")
            report = json.loads(out)
        else:
            assert out == ""
            report = json.loads(path.read_text())  # one JSON document only
        assert report["command"] == argv[0]
        assert report[key] == value


class TestGoldenBytes:
    """sha256 of the CSV and of the report (minus its timestamp line) of
    three grids, recorded before the compiled evaluator shared its
    subexpressions and the CSV writer formatted rows directly; both
    changes must keep every byte.  The two family grids were re-recorded
    when the cancellation measure began to split a residual that is a
    product with one sum factor over that sum: their residual column and
    sup changed, and the third grid went from exit 1 to exit 0.  All three
    were re-recorded when grids began to compile the kept family residual
    with the numbers folded in and to measure it over the five terms of
    the PDE, and reports began to count the nodes masked off the real
    domain: the mask is the same, the residual column changed at roundoff
    level, the family grids' u column in its last digits, and the GSS
    base grid's sup went from 0.0 (its bound residual had collapsed to a
    structural 0) to 1.4e-16.  The same bytes must come out
    after another command ran in the same process: nothing memoized or
    parsed for one command may leak into the next."""

    CASES = [
        (["residual-grid", "--preset", "gss", "--solution", "family", "--lambda", "1",
          "--nx", "120", "--ny", "120"], 0,
         "8be25dfdcce0a700d6b6e8104d6b3c37e4a74b9dc75adcd44fc2aad262c32f67",
         "eeb2dd5231649ab386dd78b56b8894faff965645d866727c8f43c14e59791120"),
        (["residual-grid", "--preset", "gss", "--solution", "base", "--nx", "90", "--ny", "90"], 0,
         "1e09bf41aa30efe38dbf282e9a300136869c4071852e77ac031077d5b9abfb6b",
         "a16922a929b493237d774d6da7e64ebf13b4f364fc0a24491933c13208b425f5"),
        (["residual-grid", "--a=7/2", "--r=2", "--c1=23/7", "--c2=15/7", "--gamma1=105/8",
          "--gamma2=-203/16", "--solution", "family", "--lambda=1/3", "--nx", "24", "--ny", "24"], 0,
         "03a2310103fdd45bf8abadad40c73a8adee301b7fe06e19e1071c952e6f80a17",
         "4ab6c2e1711699a0ae0e66a570c7b1fe93bb33ed0791589645bc707556df3190"),
    ]

    @pytest.mark.parametrize("argv,code,csv_sha,report_sha", CASES,
                             ids=["gss-family-120", "gss-base-90", "a7_2-family-24"])
    def test_csv_and_report_bytes(self, argv, code, csv_sha, report_sha):
        self._check(argv, code, csv_sha, report_sha)

    @pytest.mark.parametrize("argv,code,csv_sha,report_sha", CASES,
                             ids=["gss-family-120", "gss-base-90", "a7_2-family-24"])
    def test_bytes_after_unrelated_command(self, argv, code, csv_sha, report_sha):
        assert run_cli(["weak-cs", "--preset", "gss", "--samples", "60"])[0] == 0
        self._check(argv, code, csv_sha, report_sha)

    # orbits.symbolic_family_residual keeps the family residual across
    # commands: grid other instances at the cases' lam first, so each case
    # folds its own numbers into the residual kept from those grids, and
    # its second run again.  (a, lam, gamma1 shifted off the profile)
    WARM_UP_GRIDS = [("-5/3", "1", False), ("2/3", "1/3", False), ("7/2", "1", True),
                     ("-1", "0", True), ("3", "0", False), ("1", "-1", True)]

    @pytest.mark.parametrize("argv,code,csv_sha,report_sha", CASES,
                             ids=["gss-family-120", "gss-base-90", "a7_2-family-24"])
    def test_bytes_after_family_grid_warm_up(self, argv, code, csv_sha, report_sha):
        for a, lam, shifted in self.WARM_UP_GRIDS:
            c1, c2 = exceptional_exponents(Fraction(a), 2)
            _, g1, g2 = candidate_profile(Fraction(a))
            if shifted:
                g1 += 1
            assert run_cli(["residual-grid", f"--a={a}", "--r=2", f"--c1={c1}", f"--c2={c2}",
                            f"--gamma1={g1}", f"--gamma2={g2}", "--solution", "family",
                            f"--lambda={lam}", "--nx", "8", "--ny", "8"])[0] == int(shifted)
        for _ in range(2):
            self._check(argv, code, csv_sha, report_sha)

    # sha256 of the report minus its timestamp line for the commands that
    # sample, recorded before the sampling loops shared one sampler: each
    # must keep its draw order, accumulation order and resample counts.
    # The two weak-cs digests were re-recorded when the stages became exact
    # remainders: each stage reports its remainder, stage 3 is the jet of
    # the invariant solution, and --consequences adds nothing but its echo.
    # The two check-symmetry digests were re-recorded when the check began
    # to sample the exact on-shell remainder: an admitted field reads 0.0,
    # a refuted one its remainder's measure, and worst_point has no uyy
    SAMPLING_CASES = [
        (["check-symmetry", "--preset", "gss", "--field", "X"], 0,
         "b5c958593599c0196d9d46a730778d4d793db9aa2a6590c5d2f614c646890340"),
        (["check-symmetry", "--a", "-1", "--r", "2", "--c1", "-6.9", "--c2", "-3",
          "--gamma1", "-1.5", "--gamma2", "0.25"], 1,
         "40f215cdc1d5cdae5e742dca58d70cd3c8f8245fcae4b8cce76a474e29560b02"),
        (["transform", "--a", "-1", "--lambda", "1", "--x", "0.5", "--y", "-0.5"], 0,
         "5784efbe5ddb57b4169db1852131dfa5a5b381bfda33022cfe1c819ed348d29c"),
        (["region", "--lambda", "1", "--samples", "10000"], 0,
         "d9f46cdf8d0380b1cfcc64a0fac151d3ade40e9818bf66083c522b7f406e01d4"),
        (["weak-cs", "--preset", "gss"], 0,
         "e348bc67afd96ca07a6384d923bd8dc410fce92ccf656c121da18f1b56faf7f7"),
        (["weak-cs", "--preset", "gss", "--consequences"], 0,
         "ec28ab84d55d06bea237d3c2e1505f6766c51e55f540b8c2fcf2844c5b7f91e9"),
        # the claims workload's median op: Y refuted on GSS, at the default
        # draw and at another count and seed
        (["check-symmetry", "--preset", "gss", "--field", "Y"], 1,
         "df4bf3dbb9942752c90174d2f3713c4f12203788c946defebae368426a097531"),
        (["check-symmetry", "--preset", "gss", "--field", "Y", "--samples", "333", "--seed", "9"], 1,
         "3ecd29b13a93efbdc0df8d29deafd02c35fb1ec7db3b5d39e72c8738f30f29fc"),
        # recorded before the kept derivations were bound through a plan of
        # their terms (expr.bind_expanded): reduce at GSS and at the a = 7/2
        # profile instance; Xprime refuted off the exponent pair (c1 + 1/10);
        # X admitted at r = 0 and c1 = c2, where x^r drops out and the two
        # source terms of the remainder merge
        (["reduce", "--preset", "gss"], 0,
         "e831dc59c04fedb7c7ef322e2377ffb0664a8c7ce5038f5ce24a8860eafe96a5"),
        (["reduce", "--a=7/2", "--r=2", "--c1=23/7", "--c2=15/7", "--gamma1=105/8",
          "--gamma2=-203/16"], 0,
         "e561d47081311b76ce200ff12501cae15da5a311e12edec674fc6db6fbdd1243"),
        (["check-symmetry", "--a=5/3", "--r=1", "--c1=47/10", "--c2=17/5", "--gamma1=7/2",
          "--gamma2=-3", "--field=Xprime", "--seed=4242"], 1,
         "acaab02cd6e0f9dfcfa9ea6a0184c6d4730d65e0f042ff2c45e7cd091945671b"),
        (["check-symmetry", "--a=1", "--r=0", "--c1=5", "--c2=5", "--gamma1=1", "--gamma2=1",
          "--field=X"], 0,
         "53e092ff359e28531b00a2c865cf7eb28e4a37fa5e5166a6cfe1443d819560de"),
        # recorded before the weak-cs report held its anti-reduction as one
        # field: off the profile, where all three stages read nonzero (exit
        # 1), and the degenerate split at gamma1 = 0 (exit 0)
        (["weak-cs", "--a=11/3", "--r=2", "--c1=-29/2", "--c2=15/11", "--gamma1=2",
          "--gamma2=-3"], 1,
         "1e570e0cbf3c4828ab36c74809aa91c6539fdbd643059f565b40cf895084527c"),
        (["weak-cs", "--a=-4", "--r=2", "--c1=-1", "--c2=0", "--gamma1=0", "--gamma2=-8"], 0,
         "a86ad1f4d9cc758aa2ac557e17f144189d3faab8464817b632b7dbc079262a5e"),
        # recorded before a verdict held its sampled remainder and weak-cs
        # stage 1 became the check of Y: c1 a millionth off GSS's -7, where
        # X's remainder measures 2.39e-4, between the tolerance and the
        # refutation threshold, and weak-cs reads nonzero, nonzero and
        # inconclusive (exit 1).  The check-symmetry digest was re-recorded
        # when the check began to substitute such a remainder exactly at its
        # witness point: it reads -3/2000000 there, so the status went from
        # inconclusive to refuted, and every other byte is unchanged (exit 1)
        (["check-symmetry", "--a=-1", "--r=2", "--c1=-7.000001", "--c2=-3", "--gamma1=-3/2",
          "--gamma2=1/4", "--field=X"], 1,
         "8dc2be70dee9d59ea8a384bab6331278b866d3318fc1ac1837aee2df23b66832"),
        (["weak-cs", "--a=-1", "--r=2", "--c1=-7.000001", "--c2=-3", "--gamma1=-3/2",
          "--gamma2=1/4"], 1,
         "56716c4ddadee9d56aa2d6998df9808175ca493ce60f1e0e8da5467363e2f194"),
    ]
    SAMPLING_IDS = [
        "check-symmetry-gss", "check-symmetry-refuted", "transform", "region",
        "weak-cs", "weak-cs-consequences", "check-symmetry-Y", "check-symmetry-Y-333-seed-9",
        "reduce-gss", "reduce-a7_2", "check-symmetry-Xprime-moved", "check-symmetry-X-r0",
        "weak-cs-a11_3-off-profile", "weak-cs-degenerate-split",
        "check-symmetry-X-refuted-millionth", "weak-cs-inconclusive"]

    @pytest.mark.parametrize("argv,code,report_sha", SAMPLING_CASES, ids=SAMPLING_IDS)
    def test_sampling_report_bytes(self, argv, code, report_sha):
        got, out, _ = run_cli(argv)
        assert got == code
        assert hashlib.sha256(strip_timestamp(out).encode()).hexdigest() == report_sha

    # family.onshell_remainder keeps each named field's symbolic remainder
    # across commands: check X at nine other values of a first, so a case
    # that checks X (check-symmetry, weak-cs) binds its own numbers into
    # the remainder kept from those commands, and its second run again
    WARM_UP_A = ["-3", "-2", "-5/3", "-1/2", "1/2", "2/3", "1", "2", "3"]

    @pytest.mark.parametrize("argv,code,report_sha", SAMPLING_CASES, ids=SAMPLING_IDS)
    def test_sampling_report_bytes_after_warm_up(self, argv, code, report_sha):
        for a in self.WARM_UP_A:
            c1, c2 = exceptional_exponents(Fraction(a), 2)
            assert run_cli(["check-symmetry", f"--a={a}", "--r=2", f"--c1={c1}", f"--c2={c2}",
                            "--gamma1=1", "--gamma2=1", "--samples", "20"])[0] == 0
        for _ in range(2):
            got, out, _ = run_cli(argv)
            assert got == code
            assert hashlib.sha256(strip_timestamp(out).encode()).hexdigest() == report_sha

    # sha256 of the report minus its timestamp line, recorded before
    # transform bound a pushforward kept over symbolic a and lambda and
    # reduce bound the separated ODEs and their residuals kept at r = 2: a
    # point in the domain at a negative lambda, the identity at lambda 0,
    # a lambda past the region's limits, and an instance off the profile
    KEPT_CASES = [
        (["transform", "--a=5/3", "--lambda=-2/3", "--x=0.3", "--y=0.4"], 0,
         "110e477be2ad306ec17c08e7425949727605912f8878c66710b90dd8d0e3a473"),
        (["transform", "--a=2", "--lambda=0", "--x=0.5", "--y=0.1"], 0,
         "507a7d70b1091afe90e584ca67660c33ecc826fb74bcee4a450884b12faf3a72"),
        (["transform", "--a=-1", "--lambda=1e200"], 0,
         "db402c387f4b5ff0142ea62fc1f38a6d12e143b82c38664a9035561ea04ddafa"),
        (["reduce", "--a=11/3", "--r=2", "--c1=-29/2", "--c2=15/11", "--gamma1=2",
          "--gamma2=-3"], 1,
         "d543b62a5d78493d0c04633a9bf95ec60f8ec542ba9f82f21b7bc42b5696a865"),
    ]
    KEPT_IDS = ["transform-point-negative-lambda", "transform-lambda-0", "transform-1e200",
                "reduce-off-profile"]

    @pytest.mark.parametrize("argv,code,report_sha", KEPT_CASES, ids=KEPT_IDS)
    def test_kept_derivation_report_bytes(self, argv, code, report_sha):
        got, out, _ = run_cli(argv)
        assert got == code
        assert hashlib.sha256(strip_timestamp(out).encode()).hexdigest() == report_sha

    @pytest.mark.parametrize("argv,code,report_sha", KEPT_CASES, ids=KEPT_IDS)
    def test_kept_derivation_report_bytes_after_warm_up(self, argv, code, report_sha):
        # the kept derivations built and bound by other numbers first
        for warm in (["transform", "--a=3/2", "--lambda=2/3", "--x=0.1", "--y=-2"],
                     ["transform", "--a=-7", "--lambda=-1e-9"], ["reduce", "--preset", "gss"],
                     ["weak-cs", "--preset", "gss", "--samples", "20"]):
            assert run_cli(warm)[0] == 0, warm
        for _ in range(2):
            got, out, _ = run_cli(argv)
            assert got == code
            assert hashlib.sha256(strip_timestamp(out).encode()).hexdigest() == report_sha

    # sha256 of the report minus its timestamp line where eval_at raised
    # DomainError on an overflowing product at some draws, recorded
    # before the sampled verdicts evaluated compiled expressions (whose
    # products overflow to inf instead): redrawing every point with a
    # non-finite value must redraw exactly those points.  The weak-cs
    # digest was re-recorded with the exact stages: the remainder is finite
    # at draws where the residual itself overflowed, so fewer are redrawn.
    # The check-symmetry digests were re-recorded with the exact on-shell
    # remainder, which dy makes 0: it redraws no point (it redrew 20).
    # The weak-cs digest was re-recorded again with the cancellation
    # measure, which reads about 1 where |remainder| read up to 3.5e298;
    # the same points are redrawn
    OVERFLOW_INSTANCE = ["--a=-1", "--r=665", "--c1=1340", "--c2=2", "--gamma1=1", "--gamma2=1"]
    # (argv, exit code, whether any point is redrawn, report digest)
    OVERFLOW_CASES = [
        (["check-symmetry", *OVERFLOW_INSTANCE, "--samples", "40", "--field", "X"], 1, True,
         "9930fdb325368c0a826469538f3695f9214db2ddaafed3f0456f124baf8db729"),
        (["check-symmetry", *OVERFLOW_INSTANCE, "--samples", "40", "--field", "Xprime"], 1, True,
         "4989b085d550539c1512468958dbaa2f93cb89c8f8859ebbee426a136fea9330"),
        (["check-symmetry", *OVERFLOW_INSTANCE, "--samples", "40", "--field", "Y"], 1, True,
         "4262a346ac9b454602e654cbb91fe2d1cbb469abb4cac5176d02664cd41f2cb0"),
        (["check-symmetry", *OVERFLOW_INSTANCE, "--samples", "40", "--field", "dy"], 0, False,
         "70f8dfc9940fa9a2646e1f3179e0a79d8875c9200509a7444127a393c2bc10ee"),
        (["weak-cs", "--a=-1", "--r=2", "--c1=1340", "--c2=900", "--gamma1=1", "--gamma2=1",
          "--samples", "40"], 1, True,
         "4bdc2c628edba0225ae24468420ab882cb56e4a2bfddf48124c22ecb8b3c5abb"),
    ]

    @pytest.mark.parametrize("argv,code,redraws,report_sha", OVERFLOW_CASES, ids=[
        "check-symmetry-X", "check-symmetry-Xprime", "check-symmetry-Y",
        "check-symmetry-dy", "weak-cs"])
    def test_overflow_report_bytes(self, argv, code, redraws, report_sha):
        got, out, _ = run_cli(argv)
        assert got == code
        assert ('"resampled": 0' not in out) == redraws
        assert hashlib.sha256(strip_timestamp(out).encode()).hexdigest() == report_sha

    @staticmethod
    def _check(argv, code, csv_sha, report_sha):
        got, out, _ = run_cli(argv)
        cut = out.index('{\n  "command"')
        assert got == code
        assert hashlib.sha256(out[:cut].encode()).hexdigest() == csv_sha
        assert hashlib.sha256(strip_timestamp(out[cut:]).encode()).hexdigest() == report_sha
