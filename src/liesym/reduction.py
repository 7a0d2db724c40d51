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

import functools
from fractions import Fraction
from typing import NamedTuple

from .errors import ReductionError
from .expr import (
    Expr,
    Num,
    Power,
    Product,
    Sum,
    Sym,
    add,
    as_expr,
    diff,
    eval_at,  # noqa: F401  (unused: perfbench/tracing.py patches reduction.eval_at)
    expand,
    is_zero,
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


# The kept derivations below serve every weak-cs and reduce command, and
# only the numbers of the instance differ between two of them.  Each is
# built once over the symbols of family.PARAMETERS, takes no argument and so
# keeps one entry, and is bound to an instance by substitution, as
# family.onshell_remainder is for check-symmetry; nothing is derived at
# import.  The reduction and the stage-2 remainder are sums of monomials
# with no base common to every term, so binding them leaves them expanded.
# The invariant-solution stage is not kept: restricted over symbolic a, its
# remainder is structurally different from the per-instance one (expand
# leaves an integer power above 16 of a sum alone, so a kept remainder
# bound at c1 = 1340 reads -2*x*y*(x^2 - y^2)^335, where substituting the
# instance's own jet gives two terms).
@functools.cache
def symbolic_reduction() -> Expr:
    """``reduce_residual`` of the symbolic family residual:
    ``-4*s*vss - gamma1*v^(c1)*x^(r) - gamma2*v^(c2) + 2*a*vs + 8*vss*x^2``."""
    return reduce_residual(symbolic_residual())


@functools.cache
def symbolic_auxiliary() -> Expr:
    """The prolonged rotation applied to the symbolic family residual."""
    return apply_prolonged(prolong2(rotation_like_vf()), symbolic_residual())


@functools.cache
def symbolic_invariance_remainder() -> Expr:
    """The stage-1 remainder ``onshell_remainder(Y)`` restricted by the
    invariance condition alone, solved for uy:
    ``-4*uxy - gamma1*r*y*u^(c1)*x^(-1 + r)``, the restriction of
    ``symbolic_auxiliary()`` to the residual and the invariance condition."""
    return ConstraintSystem((invariance_condition(),), ("uy",)).restrict(
        onshell_remainder(rotation_like_vf()))


def reduce_to_invariant(inst: PDEInstance) -> Expr:
    """Reduction of an r = 2 instance to the invariant variable: the kept
    ``symbolic_reduction()`` with the instance's numbers bound.  Another r
    raises ValueError: the reduction is not defined there."""
    if inst.r != 2:
        raise ValueError(f"reduction requires r = 2, got r = {inst.r}")
    return inst.bind(symbolic_reduction())


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
        factors = t.factors if isinstance(t, Product) else (t,)
        x_power = Fraction(0)
        rest: list[Expr] = []
        for f in factors:
            if isinstance(f, Power) and f.base == X and isinstance(f.exponent, Num):
                x_power = f.exponent.value
            elif f == X:
                x_power = Fraction(1)
            else:
                rest.append(f)
        stripped = mul(*rest) if rest else num(1)
        if "x" in stripped.free_symbols():
            raise ReductionError(
                f"x entangled beyond a plain power in term {to_text(t)}")
        if x_power == 0:
            part_a.append(t)
        elif x_power == 2:
            part_b.append(stripped)
        else:
            raise ReductionError(
                f"term {to_text(t)} carries x^{x_power}; residual is not "
                "linear in x^2")
    return add(*part_a), add(*part_b)


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


def auxiliary_constraint(inst: PDEInstance) -> Expr:
    """The prolonged rotation applied to the residual (the constraint
    added on top of the invariance condition): the kept
    ``symbolic_auxiliary()`` with the instance's numbers bound."""
    return inst.bind(symbolic_auxiliary())


# ---------------------------------------------------------------------------
# the combined report


class StageResult(NamedTuple):
    name: str
    system: ConstraintSystem
    stats: SampledRemainder
    verdict: str

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
    instance: PDEInstance
    stages: tuple[StageResult, ...]
    exceptional_onshell: SymmetryVerdict
    reduced: Expr
    ode_a: Expr
    ode_b: Expr
    profile: Expr
    residual_a: Expr
    residual_b: Expr
    split_exact: bool
    degenerate_split: bool
    verdicts: tuple[str, ...]
    confirmed: bool

    def to_dict(self) -> dict:
        return {
            "instance": self.instance.params_text(),
            "is_exceptional": self.instance.is_exceptional,
            "exceptional_field_onshell_max": self.exceptional_onshell.max_onshell_residual,
            "stages": [s.to_dict() for s in self.stages],
            "anti_reduction": {
                "reduced": to_text(self.reduced),
                "ode_a": to_text(self.ode_a),
                "ode_b": to_text(self.ode_b),
                "profile": to_text(self.profile),
                "residual_a": to_text(self.residual_a),
                "residual_b": to_text(self.residual_b),
                "split_exact": self.split_exact,
                "degenerate_split": self.degenerate_split,
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
    system {residual, invariance, A} is compatible.  The first two
    remainders are kept derivations bound to the instance (the first is
    what ``check-symmetry --field Y`` samples, the second restricts it by
    the invariance condition); the third substitutes the instance's jet
    into the bound A and expands, which is the restriction to the jet's
    constraints ``u - u(x, y)``, ..., each solved with coefficient 1.
    Each remainder is sampled for its verdict.  The anti-reduction route
    follows: reduce, split by powers of x^2, and verify the power profile
    against both separated ODEs.  An instance with r other than 2 raises
    ValueError.
    """
    if inst.r != 2:
        raise ValueError(f"the reduction chain requires r = 2, got {inst.r}")

    delta = inst.delta
    profile, _g1, _g2 = candidate_profile(inst.a)
    jet = base_solution(inst.a).jet()
    solution = ConstraintSystem(
        tuple(add(sym(n), mul(num(-1), v)) for n, v in jet.items()), tuple(jet))
    stage_systems = (
        ("residual", ConstraintSystem((delta,), ("uyy",)),
         expand(inst.bind(onshell_remainder(rotation_like_vf())))),
        ("residual+invariance", ConstraintSystem((delta, invariance_condition()), ("uyy", "uy")),
         inst.bind(symbolic_invariance_remainder())),
        ("invariant-solution", solution, expand(substitute(auxiliary_constraint(inst), jet))),
    )
    stages = []
    for name, system, remainder in stage_systems:
        stats = sample_remainder(remainder, n_samples, seed)
        stages.append(StageResult(name, system, stats, stats.classify()))

    # context: the exceptional field on the same residual manifold
    x_check = check_onshell_symmetry(exceptional_vf(), inst, n_samples, seed=seed)

    reduced = reduce_to_invariant(inst)
    ode_a, ode_b = split_by_x2(reduced)
    residual_a = verify_ode(ode_a, profile)
    residual_b = verify_ode(ode_b, profile)
    split_exact = expand(add(ode_a, mul(pow_(X, num(2)), ode_b))) == reduced
    degenerate = inst.gamma1 == 0

    verdicts = []
    if stages[0].verdict == "nonzero":
        verdicts.append("not exact symmetry")
    if stages[1].verdict == "nonzero":
        verdicts.append("not proper conditional symmetry")
    odes_solved = is_zero(residual_a) and is_zero(residual_b)
    if stages[2].verdict == "zero" and odes_solved and split_exact:
        verdicts.append("weak conditional symmetry confirmed via separated ODEs")
    confirmed = len(verdicts) == 3
    return WeakCSReport(
        instance=inst,
        stages=tuple(stages),
        exceptional_onshell=x_check,
        reduced=reduced,
        ode_a=ode_a,
        ode_b=ode_b,
        profile=profile,
        residual_a=residual_a,
        residual_b=residual_b,
        split_exact=split_exact,
        degenerate_split=degenerate,
        verdicts=tuple(verdicts),
        confirmed=confirmed,
    )
