"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import io
import random
from fractions import Fraction

from liesym import (
    ConstraintSystem,
    GridSpec,
    SampleSpec,
    apply_prolonged,
    auxiliary_constraint,
    base_solution,
    build_instance,
    candidate_profile,
    conformal_factor,
    equiv_numeric,
    eval_at,
    exceptional_vf,
    expand,
    family_residual,
    family_solution,
    flow_generator_check,
    gss_preset,
    invariance_condition,
    is_zero,
    map_point,
    parse,
    prolong2,
    reduce_residual,
    region,
    residual_grid,
    restricted_eval,
    rotation_like_vf,
    scaling_invariance_residual,
    split_by_x2,
    sym,
    transform_solution,
    verify_ode,
    check_onshell_symmetry,
)
from liesym.cli import run as run_cli
from liesym.jets import sample_jet_env


def report(name, ok):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def in_region_spec(lam, count, seed, rel_tol, extra_accept=None):
    geo = region(lam)

    def accept(env):
        if not geo.membership(env["x"], env["y"]):
            return False
        return extra_accept is None or extra_accept(env["x"], env["y"])

    return SampleSpec(
        count=count, rel_tol=rel_tol, seed=seed,
        intervals={
            "x": (geo.center2[0] - geo.radius, geo.center1[0] + geo.radius),
            "y": (geo.center1[1] - geo.radius, geo.center1[1] + geo.radius),
        },
        accept=accept,
    )


def test_01_exceptional_symmetry_admitted():
    gss = gss_preset()
    good = check_onshell_symmetry(exceptional_vf(), gss, n_samples=200, tol=1e-9, seed=42)
    bad_inst = build_instance(-1, 2, "-6.9", -3, Fraction(-3, 2), Fraction(1, 4))
    bad = check_onshell_symmetry(exceptional_vf(), bad_inst, n_samples=200, tol=1e-9, seed=42)
    ok = (
        good.admitted
        and good.max_onshell_residual <= 1e-9
        and not bad.admitted
        and bad.max_onshell_residual >= 1e-3
    )
    report("01 exceptional symmetry admitted & exponent gate", ok)


def test_02_prolongation_oracle():
    p = prolong2(rotation_like_vf())
    structural = (
        p.phi_x == parse("-uy")
        and p.phi_y == parse("-ux")
        and p.phi_xx == parse("-2*uxy")
        and p.phi_xy == parse("-(uxx + uyy)")
        and p.phi_yy == parse("-2*uxy")
    )
    a, r, c1, c2, g1, g2 = map(sym, ("a", "r", "c1", "c2", "g1", "g2"))
    applied = apply_prolonged(prolong2(rotation_like_vf()),
                              family_residual(a, r, c1, c2, g1, g2))
    hand = parse("-4*uxy - a*y*x^(-2)*ux - a*x^(-1)*uy - g1*r*x^(r-1)*y*u^(c1)")
    rng = random.Random(271828)
    numeric = True
    for _ in range(100):
        env = sample_jet_env(rng)
        env.update({n: rng.uniform(0.5, 2.0)
                    for n in ("a", "r", "c1", "c2", "g1", "g2")})
        lhs, rhs = eval_at(applied, env), eval_at(hand, env)
        if abs(lhs - rhs) > 1e-10 * (1 + max(abs(lhs), abs(rhs))):
            numeric = False
            break
    report("02 prolongation oracle", structural and numeric)


def test_03_group_action_closes_on_solutions():
    gss = gss_preset()
    base = base_solution(-1)
    ok = True
    for lam in (Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(2)):
        pushed = transform_solution(base, lam)
        geo = region(float(lam))
        grid = GridSpec(
            geo.center2[0] - geo.radius, geo.center1[0] + geo.radius,
            geo.center1[1] - geo.radius, geo.center1[1] + geo.radius,
            100, 100)
        field = residual_grid(gss, pushed, grid)
        if field.sup_norm is None or field.sup_norm > 1e-9:
            ok = False
            break
    report("03 group action closes on solutions", ok)


def test_04_family_identity():
    ok = True
    for a in (-1, -2, 1):
        for lam in (Fraction(3, 10), Fraction(1)):
            pushed = transform_solution(base_solution(a), lam)
            fam = family_solution(a, lam)
            spec = in_region_spec(float(lam), count=64, seed=404, rel_tol=1e-12)
            if not equiv_numeric(pushed.expr, fam.expr, spec):
                ok = False
    report("04 transported base solution equals the family expression", ok)


def test_05_group_law():
    rng = random.Random(1001)
    done = 0
    ok = True
    while done < 1000:
        x = rng.uniform(-1.5, 1.5)
        y = rng.uniform(-1.5, 1.5)
        l1 = rng.uniform(-0.7, 0.7)
        l2 = rng.uniform(-0.7, 0.7)
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
        if (abs(twice[0] - once[0]) > 1e-12 * scale
                or abs(twice[1] - once[1]) > 1e-12 * scale):
            ok = False
            break
    report("05 one-parameter group law", ok)


def test_06_flow_generator():
    rng = random.Random(606)
    sol = base_solution(-1)
    ok = True
    checked = 0
    while checked < 50:
        x = rng.uniform(0.8, 2.0)
        y = rng.uniform(-0.6, 0.6)
        if x * x - y * y <= 0.05:
            continue
        checked += 1
        check = flow_generator_check((x, y), sol, h=1e-5)
        if check.max_error > 1e-6:
            ok = False
            break
    report("06 finite action differentiates to the generator", ok)


def test_07_anti_reduction():
    gss = gss_preset()
    from liesym import reduce_to_invariant

    red = reduce_to_invariant(gss)
    ode_a, ode_b = split_by_x2(red)
    split_exact = expand(ode_a + parse("x^2") * ode_b) == red

    a = sym("a")
    sym_red = reduce_residual(family_residual(
        a, 2, parse("1 + 8/a"), parse("1 + 4/a"),
        parse("(a/2)*(a+4)"), parse("-(a/4)*(3*a+4)")))
    sym_a, sym_b = split_by_x2(sym_red)
    profile, _, _ = candidate_profile(a)
    symbolic_zero = is_zero(verify_ode(sym_a, profile)) and is_zero(
        verify_ode(sym_b, profile))
    report("07 anti-reduction split and symbolic common solution",
           split_exact and symbolic_zero)


def test_08_weak_conditional_symmetry_chain():
    gss = gss_preset()
    target = auxiliary_constraint(gss)
    cond = invariance_condition()
    stage1 = restricted_eval(target, ConstraintSystem(
        (gss.delta,), ("uyy",)), n_samples=200, seed=42)
    stage2 = restricted_eval(target, ConstraintSystem(
        (gss.delta, cond), ("uyy", "uy")), n_samples=200, seed=42)
    stage3 = restricted_eval(target, ConstraintSystem(
        (gss.delta, cond, target), ("uyy", "uy", "uxy")),
        n_samples=200, seed=42)
    ok = (stage1.max_abs >= 1e-2
          and stage2.max_abs >= 1e-2
          and stage3.max_abs <= 1e-12)
    report("08 weak conditional symmetry stage pattern", ok)


def test_09_region_geometry():
    ok = True
    for lam in (0.5, 1.0, 2.0):
        geo = region(lam)
        rng = random.Random(int(10 * lam))
        span = 1.3 * (geo.center1[0] + geo.radius)
        for _ in range(10_000):
            x = rng.uniform(-span, span)
            y = rng.uniform(geo.center1[1] - 1.3 * geo.radius,
                            geo.center1[1] + 1.3 * geo.radius)
            if geo.membership(x, y) != geo.xor_disks(x, y):
                ok = False
                break
    report("09 two-disk region geometry", ok)


def test_10_scaling_invariance_of_base_solution():
    residual = scaling_invariance_residual(sym("a"))
    report("10 base solution invariant under the scaling field",
           is_zero(residual))


def test_11_cli_determinism_and_exit_codes():
    def run(argv):
        out = io.StringIO()
        code = run_cli(argv, out=out, err=io.StringIO())
        body = "\n".join(line for line in out.getvalue().splitlines()
                         if '"timestamp"' not in line)
        return code, body

    subcommands = (
        ["exponents", "--a", "-1", "--r", "2"],
        ["check-symmetry", "--preset", "gss", "--samples", "100"],
        ["transform", "--a", "-1", "--lambda", "1", "--samples", "32"],
        ["residual-grid", "--preset", "gss", "--nx", "8", "--ny", "8"],
        ["region", "--lambda", "1", "--samples", "2000"],
        ["reduce", "--preset", "gss"],
        ["weak-cs", "--preset", "gss", "--samples", "100"],
    )
    ok = True
    for argv in subcommands:
        code1, body1 = run(argv)
        code2, body2 = run(argv)
        if body1 != body2 or code1 != code2 or code1 != 0:
            ok = False
            break
    if ok:
        refuted, _ = run(["check-symmetry", "--a", "-1", "--r", "2",
                          "--c1", "-6.9", "--c2", "-3",
                          "--gamma1", "-1.5", "--gamma2", "0.25"])
        usage, _ = run(["check-symmetry", "--preset", "gss", "--bogus"])
        ok = refuted == 1 and usage == 2
    report("11 CLI determinism and exit-code contract", ok)
