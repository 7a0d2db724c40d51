"""Invariant-variable reduction and the weak-conditional-symmetry chain.

Substituting u = v(s) with s = x^2 - y^2 into the r = 2 residual leaves
one power of x^2 behind:

    8 x^2 vss - 4 s vss + 2 a vs - g1 x^2 v^c1 - g2 v^c2 = 0

so the hyperbolic rotation Y is not a proper conditional symmetry; but
collecting powers of x^2 splits the equation into two ODEs that share
the profile v = s^(-a/4) when g1 = (a/2)(a+4) and g2 = -(a/4)(3a+4).
The module also restricts the prolonged rotation applied to the residual
exactly to three nested constraint manifolds (the residual alone; plus the
invariance condition; the jet of the invariant solution), reproducing
the nonzero / nonzero / zero pattern that defines the weak conditional
symmetry, and reports the two routes together.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import ReductionError
from .expr import (
    ZERO,
    Expr,
    Num,
    Power,
    Product,
    Sum,
    Sym,
    add,
    as_expr,
    bind_expanded,
    diff,
    eval_at,  # noqa: F401  (unused: perfbench/tracing.py patches reduction.eval_at)
    expand,
    is_zero,
    monomial,
    mul,
    num,
    pow_,
    substitute,
    sym,
    to_text,
)
from .family import (
    PDEInstance,
    SymmetryVerdict,
    check_onshell_symmetry,
    exceptional_vf,
    kept,
    nonzero_a,
    onshell_remainder,
    rotation_like_vf,
    symbolic_residual,
)
from .jets import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    UX,
    UY,
    X,
    Y,
    ConstraintSystem,
    SampledRemainder,
    apply_prolonged,
    prolong2,
    sample_remainder,
)
from .orbits import base_solution

_S = sym("s")
_V = sym("v")
_VS = sym("vs")
_VSS = sym("vss")

# chain rule for u = v(x^2 - y^2)
_JET_SUBSTITUTION = {
    "u": _V,
    "ux": mul(num(2), X, _VS),
    "uy": mul(num(-2), Y, _VS),
    "uxx": add(mul(num(2), _VS), mul(num(4), pow_(X, num(2)), _VSS)),
    "uyy": add(mul(num(-2), _VS), mul(num(4), pow_(Y, num(2)), _VSS)),
}


def _replace_even_y(e: Expr, replacement: Expr) -> Expr:
    """Rewrite y^(2k) -> replacement^k; any odd power of y is an error."""
    if "y" not in e.free_symbols():
        return e
    if isinstance(e, Sym):
        raise ReductionError("odd power of y survives the reduction")
    if isinstance(e, Power):
        if e.base == Y:
            p = e.exponent
            if isinstance(p, Num) and p.value.denominator == 1 and p.value.numerator % 2 == 0:
                return pow_(replacement, Num(p.value / 2))
            raise ReductionError(f"cannot rewrite y power {to_text(e)}")
        return pow_(_replace_even_y(e.base, replacement),
                    _replace_even_y(e.exponent, replacement))
    if isinstance(e, Sum):
        return add(*[_replace_even_y(t, replacement) for t in e.terms])
    if isinstance(e, Product):
        return mul(*[_replace_even_y(f, replacement) for f in e.factors])
    raise ReductionError(f"cannot rewrite y inside {to_text(e)}")


def reduce_residual(delta: Expr) -> Expr:
    """Substitute u = v(x^2 - y^2), rewrite y^2 = x^2 - s, expand.

    The result is in (s, v, vs, vss, x), linear in x^2 for the family's
    residuals.
    """
    e = substitute(delta, _JET_SUBSTITUTION)
    e = _replace_even_y(e, add(pow_(X, num(2)), mul(num(-1), _S)))
    return expand(e)


@kept
def symbolic_reduction() -> Expr:
    """``reduce_residual`` of the symbolic family residual:
    ``-4*s*vss - gamma1*v^(c1)*x^(r) - gamma2*v^(c2) + 2*a*vs + 8*vss*x^2``."""
    return reduce_residual(symbolic_residual())


@kept
def symbolic_auxiliary() -> Expr:
    """The auxiliary constraint A, added on top of the invariance
    condition: the prolonged rotation applied to the symbolic family
    residual, which ``inst.bind`` binds to an instance."""
    return apply_prolonged(prolong2(rotation_like_vf()), symbolic_residual())


@kept
def symbolic_invariance_remainder() -> Expr:
    """The stage-1 remainder ``onshell_remainder(Y)`` restricted by the
    invariance condition alone, solved for uy:
    ``-4*uxy - gamma1*r*y*u^(c1)*x^(-1 + r)``, the restriction of
    ``symbolic_auxiliary()`` to the residual and the invariance condition."""
    return ConstraintSystem((invariance_condition(),), ("uy",)).restrict(
        onshell_remainder(rotation_like_vf()))


def reduce_to_invariant(inst: PDEInstance) -> Expr:
    """Reduction of an r = 2 instance to the invariant variable: the kept
    ``symbolic_reduction()`` with the instance's numbers bound by
    ``bind_expanded``.  Another r raises ValueError: the reduction is not
    defined there."""
    if inst.r != 2:
        raise ValueError(f"reduction requires r = 2, got r = {inst.r}")
    return bind_expanded(symbolic_reduction(), inst.numbers())


def split_by_x2(red: Expr) -> tuple[Expr, Expr]:
    """Collect the reduced residual by powers of w = x^2.

    Returns (ode_a, ode_b) with  reduced = ode_a + x^2 * ode_b.  Any
    x-power other than 0 or 2 in a term means the residual is not
    linear in w and the split fails.
    """
    terms = red.terms if isinstance(red, Sum) else (red,)
    part_a: list[Expr] = []
    part_b: list[Expr] = []
    for t in terms:
        coeff, pairs = monomial(t)
        exps = dict(pairs)
        x_power = exps.pop(X, ZERO)
        stripped = mul(num(coeff), *(pow_(b, e) for b, e in exps.items()))
        if not isinstance(x_power, Num) or "x" in stripped.free_symbols():
            raise ReductionError(
                f"x entangled beyond a plain power in term {to_text(t)}")
        if x_power == ZERO:
            part_a.append(t)
        elif x_power == num(2):
            part_b.append(stripped)
        else:
            raise ReductionError(
                f"term {to_text(t)} carries x^{to_text(x_power)}; residual is not "
                "linear in x^2")
    return add(*part_a), add(*part_b)


@kept
def symbolic_odes() -> tuple[Expr, Expr]:
    """``split_by_x2`` of ``symbolic_reduction()`` at r = 2:
    ``(-4*s*vss - gamma2*v^(c2) + 2*a*vs, -gamma1*v^(c1) + 8*vss)``."""
    return split_by_x2(expand(substitute(symbolic_reduction(), {"r": num(2)})))


@kept
def symbolic_ode_residuals() -> tuple[Expr, Expr]:
    """``verify_ode`` of each of ``symbolic_odes()`` against the profile
    ``candidate_profile(a)`` with a symbolic: the residual of ode_a is
    ``-a*s^(-1 - 1/4*a) - gamma2*s^(-1/4*a*c2) - 3/4*a^2*s^(-1 - 1/4*a)``."""
    profile = candidate_profile(sym("a"))[0]
    return tuple(verify_ode(ode, profile) for ode in symbolic_odes())


class AntiReduction(NamedTuple):
    """The anti-reduction route of an r = 2 instance: the reduced
    residual, its two separated ODEs, the power profile with its source
    strengths, and each ODE's residual on that profile."""

    reduced: Expr
    ode_a: Expr
    ode_b: Expr
    profile: Expr
    gamma1: Fraction
    gamma2: Fraction
    residual_a: Expr
    residual_b: Expr

    @property
    def solved(self) -> bool:
        """Whether the profile solves both ODEs: both residuals are a
        structural 0."""
        return is_zero(self.residual_a) and is_zero(self.residual_b)


def anti_reduction(inst: PDEInstance) -> AntiReduction:
    """Reduce an r = 2 instance, split it by powers of x^2 and verify the
    profile ``candidate_profile(inst.a)`` against both ODEs: the kept
    ``symbolic_reduction()``, ``symbolic_odes()`` and
    ``symbolic_ode_residuals()`` with the instance's numbers bound by
    ``bind_expanded``.  Another r raises ValueError."""
    reduced = reduce_to_invariant(inst)
    numbers = inst.numbers()
    ode_a, ode_b = (bind_expanded(ode, numbers) for ode in symbolic_odes())
    residual_a, residual_b = (bind_expanded(res, numbers) for res in symbolic_ode_residuals())
    return AntiReduction(reduced, ode_a, ode_b, *candidate_profile(inst.a), residual_a, residual_b)


def candidate_profile(a) -> tuple[Expr, object, object]:
    """Common profile v = s^(-a/4) with the matching source strengths
    g1 = (a/2)(a+4), g2 = -(a/4)(3a+4).

    Numeric ``a`` gives exact rational strengths; a symbolic ``a`` gives
    them as expressions.
    """
    symbolic = isinstance(a, Expr)
    a = as_expr(a if symbolic else nonzero_a(a))
    v = pow_(_S, mul(Num(Fraction(-1, 4)), a))
    g1 = mul(Num(Fraction(1, 2)), a, add(a, num(4)))
    g2 = mul(Num(Fraction(-1, 4)), a, add(mul(num(3), a), num(4)))
    return (v, g1, g2) if symbolic else (v, g1.value, g2.value)


def verify_ode(ode: Expr, v_expr: Expr) -> Expr:
    """Substitute a profile v(s) and its s-derivatives into an ODE
    residual; a true solution leaves the structural zero."""
    vs = diff(v_expr, "s")
    return expand(substitute(ode, {"v": v_expr, "vs": vs, "vss": diff(vs, "s")}))


# ---------------------------------------------------------------------------
# restricted evaluation on constraint manifolds


def restricted_eval(target: Expr, system: ConstraintSystem, n_samples: int = DEFAULT_SAMPLES,
                    seed: int = DEFAULT_SEED) -> SampledRemainder:
    """Sample a target on the manifold cut out by the constraints: its
    exact remainder (``ConstraintSystem.restrict``) goes to
    ``sample_remainder``."""
    return sample_remainder(system.restrict(target), n_samples, seed)


def invariance_condition() -> Expr:
    """First-order invariance condition of the rotation field: y ux + x uy."""
    return add(mul(Y, UX), mul(X, UY))


# ---------------------------------------------------------------------------
# the combined report


class StageResult(NamedTuple):
    name: str
    system: ConstraintSystem
    stats: SampledRemainder

    @property
    def verdict(self) -> str:
        return self.stats.classify()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "constraints": self.system.describe(),
            "remainder": to_text(self.stats.remainder),
            "max_abs": self.stats.max_abs,
            "mean_abs": self.stats.mean_abs,
            "samples": self.stats.samples,
            "resampled": self.stats.resampled,
            "verdict": self.verdict,
        }


class WeakCSReport(NamedTuple):
    """``weak_cs_report``'s result: ``route`` is the ``anti_reduction`` it
    ran, and the degenerate split (gamma1 = 0) is read off ``instance``."""

    instance: PDEInstance
    stages: tuple[StageResult, ...]
    exceptional_onshell: SymmetryVerdict
    route: AntiReduction
    split_exact: bool
    verdicts: tuple[str, ...]
    confirmed: bool

    def to_dict(self) -> dict:
        return {
            "instance": self.instance.params_text(),
            "is_exceptional": self.instance.is_exceptional,
            "exceptional_field_onshell_max": self.exceptional_onshell.stats.max_abs,
            "stages": [s.to_dict() for s in self.stages],
            "anti_reduction": {
                "reduced": to_text(self.route.reduced),
                "ode_a": to_text(self.route.ode_a),
                "ode_b": to_text(self.route.ode_b),
                "profile": to_text(self.route.profile),
                "residual_a": to_text(self.route.residual_a),
                "residual_b": to_text(self.route.residual_b),
                "split_exact": self.split_exact,
                "degenerate_split": self.instance.gamma1 == 0,
            },
            "verdicts": list(self.verdicts),
            "confirmed": self.confirmed,
        }


def weak_cs_report(inst: PDEInstance, n_samples: int = DEFAULT_SAMPLES,
                   seed: int = DEFAULT_SEED) -> WeakCSReport:
    """Run the full weak-conditional-symmetry argument on an instance.

    The auxiliary constraint A, the prolonged rotation applied to the
    residual, is restricted exactly to three nested manifolds: the residual
    manifold, then adding the invariance condition, then the 2-jet of the
    invariant solution (x^2 - y^2)^(-a/4), where A vanishes when the
    system {residual, invariance, A} is compatible.  Stage 1 is the check
    of Y, ``check_onshell_symmetry(rotation_like_vf(), ...)``, whose
    sampled remainder the stage holds.  The second stage binds the kept
    ``symbolic_invariance_remainder()`` by ``bind_expanded``; the third
    substitutes the instance's numbers and jet into the kept symbolic A in
    one substitution and expands, which is the restriction to the jet's
    constraints ``u - u(x, y)``, ..., each solved with coefficient 1.
    Both are sampled here, and each stage's verdict is its sampled
    remainder's ``classify()``, which reads "zero" only on a structural 0,
    so stage 1 reads what the check of Y reads.  The anti-reduction route
    follows (``anti_reduction``, kept as the report's ``route``): reduce,
    split by powers of x^2, and verify the power profile against both
    separated ODEs, each bound from its kept derivation.  An instance with
    r other than 2 raises ValueError.
    """
    if inst.r != 2:
        raise ValueError(f"the reduction chain requires r = 2, got {inst.r}")

    delta = inst.delta
    jet = base_solution(inst.a).jet()
    solution = ConstraintSystem(
        tuple(add(sym(n), mul(num(-1), v)) for n, v in jet.items()), tuple(jet))
    y_check = check_onshell_symmetry(rotation_like_vf(), inst, n_samples, seed=seed)
    stages = [StageResult("residual", ConstraintSystem((delta,), ("uyy",)), y_check.stats)]
    for name, system, remainder in (
        ("residual+invariance", ConstraintSystem((delta, invariance_condition()), ("uyy", "uy")),
         bind_expanded(symbolic_invariance_remainder(), inst.numbers())),
        ("invariant-solution", solution, expand(inst.bind(symbolic_auxiliary(), **jet))),
    ):
        stages.append(StageResult(name, system, sample_remainder(remainder, n_samples, seed)))

    # context: the exceptional field on the same residual manifold
    x_check = check_onshell_symmetry(exceptional_vf(), inst, n_samples, seed=seed)

    route = anti_reduction(inst)
    split_exact = expand(add(route.ode_a, mul(pow_(X, num(2)), route.ode_b))) == route.reduced

    verdicts = []
    if stages[0].verdict == "nonzero":
        verdicts.append("not exact symmetry")
    if stages[1].verdict == "nonzero":
        verdicts.append("not proper conditional symmetry")
    if stages[2].verdict == "zero" and route.solved and split_exact:
        verdicts.append("weak conditional symmetry confirmed via separated ODEs")
    confirmed = len(verdicts) == 3
    return WeakCSReport(
        instance=inst,
        stages=tuple(stages),
        exceptional_onshell=x_check,
        route=route,
        split_exact=split_exact,
        verdicts=tuple(verdicts),
        confirmed=confirmed,
    )
