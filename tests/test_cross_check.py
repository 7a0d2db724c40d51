"""Differential checks of the expression kernel against sympy.

sympy is not a dependency of the package; these tests run only where it
happens to be installed and give an independent route to the same
numbers: evaluation, differentiation, expansion, and the closed-form
solution residuals.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from liesym import (  # noqa: E402
    DomainError,
    Num,
    Power,
    Product,
    Sum,
    Sym,
    diff,
    eval_at,
    expand,
    gss_preset,
    is_zero,
    mul,
    num,
    parse,
    pow_,
    simplify,
    sym,
)


def to_sympy(e, syms):
    if isinstance(e, Num):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Sym):
        return syms[e.name]
    if isinstance(e, Sum):
        return sympy.Add(*[to_sympy(t, syms) for t in e.terms])
    if isinstance(e, Product):
        return sympy.Mul(*[to_sympy(f, syms) for f in e.factors])
    if isinstance(e, Power):
        return sympy.Pow(to_sympy(e.base, syms), to_sympy(e.exponent, syms))
    raise TypeError(e)


def positive_symbols(e):
    return {n: sympy.Symbol(n, positive=True) for n in e.free_symbols()}


def random_expr(rng, depth):
    pool = [sym("x"), sym("y"), sym("u"), sym("s"), sym("a")]
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.35:
            return Num(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        return rng.choice(pool)
    kind = rng.randrange(3)
    if kind == 0:
        return mul(*(random_expr(rng, depth - 1) for _ in range(2)))
    if kind == 1:
        return random_expr(rng, depth - 1) + random_expr(rng, depth - 1)
    exponent = rng.choice([-2, -1, 2, 3, Fraction(1, 2), Fraction(-3, 2)])
    return pow_(random_expr(rng, depth - 1), num(exponent))


def agree(mine, theirs, env, syms, rel=1e-9):
    try:
        lhs = eval_at(mine, env)
    except DomainError:
        return True  # negative base under a fractional power: skip point
    rhs = float(theirs.evalf(subs={syms[n]: env[n] for n in env if n in syms}))
    return abs(lhs - rhs) <= rel * (1 + max(abs(lhs), abs(rhs)))


class TestAgainstSympy:
    def test_random_values_and_derivatives(self):
        rng = random.Random(987654)
        for _ in range(120):
            e = random_expr(rng, 3)
            syms = positive_symbols(e)
            if not syms:
                continue
            se = to_sympy(e, syms)
            wrt = rng.choice(sorted(syms))
            d = diff(e, wrt)
            sd = sympy.diff(se, syms[wrt])
            for _ in range(3):
                env = {n: rng.uniform(0.5, 2.0) for n in syms}
                assert agree(e, se, env, syms)
                assert agree(d, sd, env, syms)

    def test_canonicalization_preserves_value(self):
        rng = random.Random(24680)
        for _ in range(120):
            e = random_expr(rng, 3)
            forms = (simplify(e), expand(e), simplify(expand(e)))
            env = {n: rng.uniform(0.5, 2.0) for n in e.free_symbols()}
            try:
                ref = eval_at(e, env)
            except DomainError:
                continue
            for f in forms:
                assert eval_at(f, env) == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_gss_residual_on_family_solution(self):
        # independent route to criterion 3's claim, at one grid of points
        x, y = sympy.symbols("x y", real=True)
        lam = sympy.Rational(1)
        b = y + lam * (x**2 + y**2)
        u = (x**2 - b**2) ** sympy.Rational(1, 4)
        residual = (
            sympy.diff(u, x, 2) + sympy.diff(u, y, 2)
            + (-1 / x) * sympy.diff(u, x)
            + sympy.Rational(3, 2) * x**2 * u**-7
            - sympy.Rational(1, 4) * u**-3
        )
        gss = gss_preset()
        from liesym import family_solution, substitute

        sol = family_solution(-1, Fraction(1))
        mine = substitute(gss.delta, sol.jet())
        rng = random.Random(13)
        checked = 0
        while checked < 25:
            px = rng.uniform(-1.1, 1.1)
            py = rng.uniform(-1.1, 0.2)
            if not sol.domain(px, py):
                continue
            checked += 1
            sym_val = float(residual.evalf(subs={x: px, y: py}))
            my_val = eval_at(mine, {"x": px, "y": py})
            assert my_val == pytest.approx(sym_val, abs=1e-7)
            assert abs(my_val) <= 1e-7

    def test_reduced_equation_matches_sympy_route(self):
        # substitute a concrete smooth profile u = (x^2-y^2)^2 + 1 into the
        # residual with sympy and compare against the reduced expression
        x, y = sympy.symbols("x y", positive=True)
        u_prof = (x**2 - y**2) ** 2 + 1
        delta_prof = (
            sympy.diff(u_prof, x, 2) + sympy.diff(u_prof, y, 2)
            + (-1 / x) * sympy.diff(u_prof, x)
            + sympy.Rational(3, 2) * x**2 * u_prof**-7
            - sympy.Rational(1, 4) * u_prof**-3
        )

        from liesym import reduce_to_invariant

        red = reduce_to_invariant(gss_preset())
        rng = random.Random(29)
        for _ in range(25):
            px = rng.uniform(0.8, 1.8)
            py = rng.uniform(-0.4, 0.4)
            sv = px * px - py * py
            theirs = float(delta_prof.evalf(subs={x: px, y: py}))
            mine = eval_at(red, {
                "x": px, "s": sv,
                "v": sv * sv + 1, "vs": 2 * sv, "vss": 2.0,
            })
            assert mine == pytest.approx(theirs, rel=1e-9)

    def test_printed_forms_reparse_in_sympy(self):
        # the text format is close enough to sympy's to serve as a bridge
        for text in (
            "x^2 - y^2",
            "1 + 2*lam*y + lam^2*(x^2 + y^2)",
            "-4*s*vss - 2*vs - 1/4*v^(-3)",
        ):
            e = parse(text)
            syms = positive_symbols(e)
            bridged = sympy.sympify(
                text.replace("^", "**"), locals=dict(syms))
            assert sympy.simplify(to_sympy(e, syms) - bridged) == 0

    @pytest.mark.parametrize("a", ["-1", "1/3"], ids=["gss", "a=1/3"])
    def test_stage_remainders_are_sympys_elimination(self, a):
        # stage 1 solves the residual for uyy, stage 2 also the invariance
        # condition for uy; sympy solves the same equations on its own
        from liesym import (ConstraintSystem, auxiliary_constraint, build_instance,
                            invariance_condition)

        a = Fraction(a)
        k = -a / 4  # the profile gammas in the form the grid tests use
        inst = build_instance(a, 2, 1 + 8 / a, 1 + 4 / a, 8 * k * (k - 1),
                              2 * a * k - 4 * k * (k - 1))
        target = auxiliary_constraint(inst)
        cond = invariance_condition()
        names = ("x", "y", "u", "ux", "uy", "uxx", "uxy", "uyy")
        syms = {n: sympy.Symbol(n, positive=n in ("x", "u")) for n in names}
        uyy = sympy.solve(to_sympy(inst.delta, syms), syms["uyy"])
        uy = sympy.solve(to_sympy(cond, syms), syms["uy"])
        assert len(uyy) == 1 and len(uy) == 1
        stage1 = to_sympy(target, syms).subs(syms["uyy"], uyy[0])
        stage2 = stage1.subs(syms["uy"], uy[0])
        for system, theirs in (
                (ConstraintSystem((inst.delta,), ("uyy",)), stage1),
                (ConstraintSystem((inst.delta, cond), ("uyy", "uy")), stage2)):
            mine = to_sympy(system.restrict(target), syms)
            assert sympy.simplify(mine - theirs) == 0
            assert not is_zero(system.restrict(target))

    @pytest.mark.parametrize("field", ["X", "Xprime"])
    def test_onshell_remainder_is_sympys_substitution(self, field):
        # the perturbed r = 0 instance of the claims draw: check-symmetry's
        # exact remainder against sympy's own uyy substitution and expand
        from liesym import (NAMED_FIELDS, apply_prolonged, build_instance,
                            check_onshell_symmetry, prolong2)

        inst = build_instance(Fraction(1, 3), 0, Fraction(131, 10), 13, Fraction(-2, 3), -8)
        vf = NAMED_FIELDS[field]()
        mine = check_onshell_symmetry(vf, inst, n_samples=1).remainder
        target = apply_prolonged(prolong2(vf.bind(a=inst.a)), inst.delta)
        names = ("x", "y", "u", "ux", "uy", "uxx", "uxy", "uyy")
        syms = {n: sympy.Symbol(n, positive=n in ("x", "u")) for n in names}
        uyy = sympy.solve(to_sympy(inst.delta, syms), syms["uyy"])
        assert len(uyy) == 1
        theirs = sympy.expand(to_sympy(target, syms).subs(syms["uyy"], uyy[0]))
        assert sympy.expand(to_sympy(mine, syms) - theirs) == 0
        assert theirs != 0


class TestSymbolicRemainderDerivesThePair:
    """The kept on-shell remainder over symbolic a, r, c1, c2, gamma1,
    gamma2 shows where the exceptional pair comes from: X and X' leave one
    coefficient on y·gamma1·u^c1·x^r and one on y·gamma2·u^c2 (without the
    y for X'), and solving them for c1 and c2 gives the pair."""

    @pytest.mark.parametrize("field", ["X", "Xprime"])
    def test_coefficients_solve_to_the_exceptional_pair(self, field):
        from liesym import NAMED_FIELDS, exceptional_exponents, onshell_remainder

        remainder = onshell_remainder(NAMED_FIELDS[field]())
        syms = {n: sympy.Symbol(n) for n in remainder.free_symbols()}
        x, y, u, a, r, c1, c2, g1, g2 = sympy.symbols("x y u a r c1 c2 gamma1 gamma2")
        theirs = sympy.expand(to_sympy(remainder, syms))
        scale = y if field == "X" else 1
        m1, m2 = scale * g1 * u ** c1 * x ** r, scale * g2 * u ** c2
        k1, k2 = theirs.coeff(m1), theirs.coeff(m2)
        assert sympy.expand(theirs - k1 * m1 - k2 * m2) == 0
        assert k1.free_symbols == {a, r, c1} and k2.free_symbols == {a, c2}
        (root1,), (root2,) = sympy.solve(k1, c1), sympy.solve(k2, c2)
        assert sympy.simplify(root1 - (1 + 2 * (r + 2) / a)) == 0
        assert sympy.simplify(root2 - (1 + 4 / a)) == 0
        for av, rv in ((-1, 2), (Fraction(1, 3), 0), (3, Fraction(1, 2)), (Fraction(-8, 3), 3)):
            pair = tuple(Fraction(str(root.subs({a: sympy.Rational(str(av)),
                                                 r: sympy.Rational(str(rv))})))
                         for root in (root1, root2))
            assert pair == exceptional_exponents(av, rv)

    def test_rotation_remainder_holds_uxy(self):
        # Y leaves -4*uxy whatever the parameters are, so it is never zero
        from liesym import diff, onshell_remainder, rotation_like_vf

        remainder = onshell_remainder(rotation_like_vf())
        assert "uxy" in remainder.free_symbols()
        assert diff(remainder, "uxy") == num(-4)
