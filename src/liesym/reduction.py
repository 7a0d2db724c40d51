"""Invariant-variable reduction and the weak-conditional-symmetry chain.

Substituting u = v(s) with s = x^2 - y^2 into the r = 2 residual leaves
one power of x^2 behind:

    8 x^2 vss - 4 s vss + 2 a vs - g1 x^2 v^c1 - g2 v^c2 = 0

so the hyperbolic rotation Y is not a proper conditional symmetry; but
collecting powers of x^2 splits the equation into two ODEs that share
the profile v = s^(-a/4) when g1 = (a/2)(a+4) and g2 = -(a/4)(3a+4).
The module also restricts the prolonged rotation applied to the residual
exactly to three constraint manifolds (the residual alone; plus the
invariance condition; the jet of the invariant solution), reproducing
the nonzero / nonzero / zero pattern that defines the weak conditional
symmetry, and reports the two routes together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ReductionError
from .expr import (
    Expr,
    Num,
    Power,
    Product,
    RejectionSampler,
    Sum,
    Sym,
    add,
    diff,
    eval_at,  # noqa: F401  (unused: perfbench/tracing.py patches reduction.eval_at)
    expand,
    is_zero,
    mul,
    num,
    pow_,
    substitute,
    sym,
    to_callable,
    to_text,
)
from .family import PDEInstance, exceptional_vf, rotation_like_vf
from .jets import JET_NAMES, UX, UY, X, Y, apply_prolonged, prolong2, sample_jet_point

_S = sym("s")
_V = sym("v")
_VS = sym("vs")
_VSS = sym("vss")
_X = X
_Y = Y

# chain rule for u = v(x^2 - y^2)
_JET_SUBSTITUTION = {
    "u": _V,
    "ux": mul(num(2), _X, _VS),
    "uy": mul(num(-2), _Y, _VS),
    "uxx": add(mul(num(2), _VS), mul(num(4), pow_(_X, num(2)), _VSS)),
    "uyy": add(mul(num(-2), _VS), mul(num(4), pow_(_Y, num(2)), _VSS)),
}


def _replace_even_y(e: Expr, replacement: Expr) -> Expr:
    """Rewrite y^(2k) -> replacement^k; any odd power of y is an error."""
    if "y" not in e.free_symbols():
        return e
    if isinstance(e, Sym):
        raise ReductionError("odd power of y survives the reduction")
    if isinstance(e, Power):
        if e.base == _Y:
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
    e = _replace_even_y(e, add(pow_(_X, num(2)), mul(num(-1), _S)))
    return expand(e)


def reduce_to_invariant(inst: PDEInstance) -> Expr:
    """Reduction of an r = 2 instance to the invariant variable."""
    if inst.r != 2:
        raise ReductionError(f"reduction requires r = 2, got r = {inst.r}")
    return reduce_residual(inst.delta)


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
            if isinstance(f, Power) and f.base == _X and isinstance(f.exponent, Num):
                x_power = f.exponent.value
            elif f == _X:
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
    if isinstance(a, Expr):
        v = pow_(_S, mul(Num(Fraction(-1, 4)), a))
        g1 = mul(Num(Fraction(1, 2)), a, add(a, num(4)))
        g2 = mul(Num(Fraction(-1, 4)), a, add(mul(num(3), a), num(4)))
        return v, g1, g2
    a = num(a).value
    if a == 0:
        raise ValueError("parameter a must be nonzero")
    v = pow_(_S, Num(-a / 4))
    return v, (a / 2) * (a + 4), (-a / 4) * (3 * a + 4)


def verify_ode(ode: Expr, v_expr: Expr) -> Expr:
    """Substitute a profile v(s) and its s-derivatives into an ODE
    residual; a true solution leaves the structural zero."""
    vs = diff(v_expr, "s")
    return expand(substitute(ode, {"v": v_expr, "vs": vs, "vss": diff(vs, "s")}))


# ---------------------------------------------------------------------------
# restricted evaluation on constraint manifolds


@dataclass(frozen=True)
class ConstraintSystem:
    """Ordered constraints, each affine in its elimination symbol."""

    constraints: tuple[Expr, ...]
    eliminations: tuple[str, ...]

    def __post_init__(self):
        if len(self.constraints) != len(self.eliminations):
            raise ValueError("one elimination symbol per constraint")

    def describe(self) -> list[dict[str, str]]:
        return [
            {"constraint": to_text(c), "solve_for": s}
            for c, s in zip(self.constraints, self.eliminations)
        ]

    def restrict(self, target: Expr) -> Expr:
        """The target on the manifold, exactly.  In order, each constraint
        with the earlier solutions substituted in is solved for its symbol
        s as ``s = -c|_{s=0} * (dc/ds)^(-1)``; the solutions, free of every
        solved symbol, are substituted into the target, which is expanded
        once.  A coefficient dc/ds that is 0 or still holds s raises
        ReductionError: the constraint is not affine in s."""
        solved: dict[str, Expr] = {}
        for c, s in zip(self.constraints, self.eliminations):
            c = substitute(c, solved)
            coeff = diff(c, s)
            if is_zero(coeff) or s in coeff.free_symbols():
                raise ReductionError(f"constraint {to_text(c)} is not affine in {s}")
            value = mul(num(-1), substitute(c, {s: num(0)}), pow_(coeff, num(-1)))
            solved = {k: substitute(v, {s: value}) for k, v in solved.items()}
            solved[s] = value
        return expand(substitute(target, solved))


@dataclass(frozen=True)
class RestrictedEvalResult:
    remainder: Expr
    max_abs: float
    mean_abs: float
    samples: int
    resampled: int

    def to_dict(self) -> dict:
        return {
            "remainder": to_text(self.remainder),
            "max_abs": self.max_abs,
            "mean_abs": self.mean_abs,
            "samples": self.samples,
            "resampled": self.resampled,
        }


def restricted_eval(target: Expr, system: ConstraintSystem, n_samples: int = 200,
                    seed: int = 42) -> RestrictedEvalResult:
    """Evaluate a target on the manifold cut out by the constraints.

    The exact remainder (``ConstraintSystem.restrict``) is compiled once
    over the jet coordinates and |remainder| is sampled at random jet
    points; a point where the value is not finite or off the real domain
    is redrawn.  Returns the remainder with the statistics of the
    accepted values.
    """
    remainder = system.restrict(target)
    fn = to_callable(remainder, JET_NAMES)

    def evaluate(point):
        value = abs(fn(*point))
        return value if math.isfinite(value) else None

    samples = RejectionSampler(n_samples, seed, sample_jet_point, evaluate)
    max_abs = 0.0
    total = 0.0
    for value in samples:
        total += value
        max_abs = max(max_abs, value)
    return RestrictedEvalResult(remainder, max_abs, total / n_samples, n_samples,
                                samples.resampled)


def invariance_condition() -> Expr:
    """First-order invariance condition of the rotation field: y ux + x uy."""
    return add(mul(_Y, UX), mul(_X, UY))


def auxiliary_constraint(inst: PDEInstance) -> Expr:
    """The prolonged rotation applied to the residual (the constraint
    added on top of the invariance condition)."""
    return apply_prolonged(prolong2(rotation_like_vf()), inst.delta)


def invariant_solution_jet(profile: Expr) -> ConstraintSystem:
    """The 2-jet of the invariant solution u0 = v(x^2 - y^2) of a profile
    v(s): the constraints ``name - (the derivative of u0)``, each solved
    for its jet name."""
    u0 = substitute(profile, {"s": add(pow_(_X, num(2)), mul(num(-1), pow_(_Y, num(2))))})
    ux, uy = diff(u0, "x"), diff(u0, "y")
    jet = {"u": u0, "ux": ux, "uy": uy,
           "uxx": diff(ux, "x"), "uxy": diff(ux, "y"), "uyy": diff(uy, "y")}
    return ConstraintSystem(tuple(add(sym(n), mul(num(-1), v)) for n, v in jet.items()),
                            tuple(jet))


# ---------------------------------------------------------------------------
# the combined report

_NONZERO_FLOOR = 1e-2
_ZERO_CEILING = 1e-9


def _stage_verdict(result: RestrictedEvalResult) -> str:
    if result.max_abs >= _NONZERO_FLOOR:
        return "nonzero"
    if result.max_abs <= _ZERO_CEILING:
        return "zero"
    return "inconclusive"


@dataclass(frozen=True)
class StageResult:
    name: str
    system: ConstraintSystem
    stats: RestrictedEvalResult
    verdict: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "constraints": self.system.describe(),
            **self.stats.to_dict(),
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class WeakCSReport:
    instance: PDEInstance
    stages: tuple[StageResult, ...]
    exceptional_onshell: RestrictedEvalResult
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
            "exceptional_field_onshell_max": self.exceptional_onshell.max_abs,
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


def weak_cs_report(inst: PDEInstance, n_samples: int = 200, seed: int = 42) -> WeakCSReport:
    """Run the full weak-conditional-symmetry argument on an instance.

    The auxiliary constraint A, the prolonged rotation applied to the
    residual, is restricted exactly to three manifolds: the residual
    manifold, then adding the invariance condition, then the 2-jet of the
    invariant solution (x^2 - y^2)^(-a/4), where A vanishes when the
    system {residual, invariance, A} is compatible.  Each remainder is
    sampled for its verdict.  The anti-reduction route follows: reduce,
    split by powers of x^2, and verify the power profile against both
    separated ODEs.
    """
    if inst.r != 2:
        raise ReductionError(f"the reduction chain requires r = 2, got {inst.r}")

    delta = inst.delta
    target = auxiliary_constraint(inst)
    profile, _g1, _g2 = candidate_profile(inst.a)
    residual = ConstraintSystem((delta,), ("uyy",))
    systems = {
        "residual": residual,
        "residual+invariance": ConstraintSystem((delta, invariance_condition()), ("uyy", "uy")),
        "invariant-solution": invariant_solution_jet(profile),
    }
    stages = []
    for name, system in systems.items():
        stats = restricted_eval(target, system, n_samples=n_samples, seed=seed)
        stages.append(StageResult(name, system, stats, _stage_verdict(stats)))

    # context: the exceptional field on the same residual manifold
    x_target = apply_prolonged(prolong2(exceptional_vf().bind(a=inst.a)), delta)
    x_stats = restricted_eval(x_target, residual, n_samples=n_samples, seed=seed)

    reduced = reduce_to_invariant(inst)
    ode_a, ode_b = split_by_x2(reduced)
    residual_a = verify_ode(ode_a, profile)
    residual_b = verify_ode(ode_b, profile)
    split_exact = expand(add(ode_a, mul(pow_(_X, num(2)), ode_b))) == reduced
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
        exceptional_onshell=x_stats,
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
