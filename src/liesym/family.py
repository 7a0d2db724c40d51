"""The quasi-linear residual family and its distinguished vector fields.

Residual form:

    delta = uxx + uyy + (a/x) ux - g1 x^r u^c1 - g2 u^c2      (a != 0)

The pair of exponent relations c1 = 1 + 2(r+2)/a, c2 = 1 + 4/a singles
out the instances that admit the exceptional field
X = 2xy d/dx + (y^2 - x^2) d/dy - a y u d/du.  The r = 2, a = -1 member
is the Grad-Schlueter-Shafranov form used as the "gss" preset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .expr import (
    Expr,
    Num,
    RejectionSampler,
    add,
    as_expr,
    eval_at,
    mul,
    num,
    pow_,
    sym,
    to_callable,
    to_cancellation,
)
from .jets import (
    JET_NAMES,
    VectorField,
    apply_prolonged,
    prolong2,
    sample_jet_env,
)

_X = sym("x")
_Y = sym("y")
_U = sym("u")
_UX = sym("ux")
_UXX = sym("uxx")
_UYY = sym("uyy")
_A = sym("a")


def family_residual(a, r, c1, c2, gamma1, gamma2) -> Expr:
    """Assemble the residual; arguments may be numbers or expressions,
    so the same builder serves numeric instances and symbolic work."""
    a, r, c1, c2, gamma1, gamma2 = map(as_expr, (a, r, c1, c2, gamma1, gamma2))
    return add(
        _UXX,
        _UYY,
        mul(a, pow_(_X, num(-1)), _UX),
        mul(num(-1), gamma1, pow_(_X, r), pow_(_U, c1)),
        mul(num(-1), gamma2, pow_(_U, c2)),
    )


def exceptional_exponents(a, r) -> tuple[Fraction, Fraction]:
    """Exponent pair admitting the exceptional symmetry, exact in
    rational arithmetic: c1 = 1 + 2(r+2)/a and c2 = 1 + 4/a."""
    a = num(a).value
    r = num(r).value
    if a == 0:
        raise ValueError("parameter a must be nonzero")
    return 1 + 2 * (r + 2) / a, 1 + Fraction(4) / a


@dataclass(frozen=True)
class PDEInstance:
    a: Fraction
    r: Fraction
    c1: Fraction
    c2: Fraction
    gamma1: Fraction
    gamma2: Fraction
    delta: Expr

    @property
    def is_exceptional(self) -> bool:
        ec1, ec2 = exceptional_exponents(self.a, self.r)
        return self.c1 == ec1 and self.c2 == ec2

    def params_text(self) -> dict[str, str]:
        """The parameters as exact strings, in the order reports print them."""
        return {name: str(getattr(self, name))
                for name in ("a", "r", "c1", "c2", "gamma1", "gamma2")}


def build_instance(a, r, c1, c2, gamma1, gamma2) -> PDEInstance:
    a = num(a).value
    if a == 0:
        raise ValueError("parameter a must be nonzero")
    r, c1, c2, gamma1, gamma2 = (num(v).value for v in (r, c1, c2, gamma1, gamma2))
    delta = family_residual(a, r, c1, c2, gamma1, gamma2)
    return PDEInstance(a, r, c1, c2, gamma1, gamma2, delta)


def gss_preset() -> PDEInstance:
    """Grad-Schlueter-Shafranov form: a=-1, r=2, exceptional exponents
    (-7, -3), source strengths gamma1=-3/2, gamma2=1/4 matching the
    closed-form power solution."""
    return build_instance(-1, 2, -7, -3, Fraction(-3, 2), Fraction(1, 4))


PRESETS = {"gss": gss_preset}


def exceptional_vf() -> VectorField:
    """X = 2xy d/dx + (y^2 - x^2) d/dy - a y u d/du, with a symbolic."""
    return VectorField(
        mul(num(2), _X, _Y),
        add(pow_(_Y, num(2)), mul(num(-1), pow_(_X, num(2)))),
        mul(num(-1), _A, _Y, _U),
    )


def scaling_vf() -> VectorField:
    """X' = x d/dx + y d/dy - (a/2) u d/du, with a symbolic."""
    return VectorField(_X, _Y, mul(Num(Fraction(-1, 2)), _A, _U))


def rotation_like_vf() -> VectorField:
    """Y = y d/dx + x d/dy, the hyperbolic rotation annihilating x^2 - y^2."""
    return VectorField(_Y, _X, Num(Fraction(0)))


def y_translation_vf() -> VectorField:
    return VectorField(Num(Fraction(0)), Num(Fraction(1)), Num(Fraction(0)))


NAMED_FIELDS = {
    "X": exceptional_vf,
    "Xprime": scaling_vf,
    "Y": rotation_like_vf,
    "dy": y_translation_vf,
}


@dataclass(frozen=True)
class SymmetryVerdict:
    admitted: bool
    status: str  # "admitted" | "refuted" | "inconclusive"
    max_onshell_residual: float
    sample_count: int
    worst_point: dict[str, float]  # the jet point, in JET_NAMES order
    resampled: int

    def to_dict(self) -> dict:
        return {
            "admitted": self.admitted,
            "status": self.status,
            "max_onshell_residual": self.max_onshell_residual,
            "sample_count": self.sample_count,
            "resampled": self.resampled,
            "worst_point": self.worst_point,
        }


def solve_uyy(inst: PDEInstance, env: dict[str, float]) -> float:
    """uyy has unit coefficient in the residual, so solving delta = 0 for
    it is division-free: uyy = -(delta with uyy set to 0)."""
    probe = dict(env)
    probe["uyy"] = 0.0
    return -eval_at(inst.delta, probe)


def check_onshell_symmetry(
    vf: VectorField,
    inst: PDEInstance,
    n_samples: int = 200,
    tol: float = 1e-9,
    seed: int = 42,
    refute_threshold: float = 1e-3,
) -> SymmetryVerdict:
    """Decide numerically whether a field is a symmetry on the solution
    manifold of an instance.

    At each seeded random jet point, uyy is eliminated through the
    residual (as in ``solve_uyy``) and the prolonged field applied to
    the residual is evaluated there by ``to_cancellation``, since its
    terms cancel catastrophically when the symmetry holds.  Both are
    compiled once; a point where the solved uyy or the measure is not
    finite is redrawn.  All samples below ``tol`` means admitted; at
    least one above ``refute_threshold`` means refuted; anything in
    between is reported as inconclusive.
    """
    measure = to_cancellation(apply_prolonged(prolong2(vf.bind(a=inst.a)), inst.delta), JET_NAMES)
    delta_fn = to_callable(inst.delta, JET_NAMES)
    uyy_slot = JET_NAMES.index("uyy")

    def evaluate(env):
        point = [env[n] for n in JET_NAMES]
        point[uyy_slot] = 0.0
        uyy = -delta_fn(*point)
        if not math.isfinite(uyy):
            return None
        env["uyy"] = point[uyy_slot] = uyy
        return env, abs(measure(*point))

    samples = RejectionSampler(n_samples, seed, sample_jet_env, evaluate)
    worst = None
    worst_val = -1.0
    for env, rel in samples:
        if rel > worst_val:
            worst_val = rel
            worst = env
    if worst_val <= tol:
        status = "admitted"
    elif worst_val >= refute_threshold:
        status = "refuted"
    else:
        status = "inconclusive"
    return SymmetryVerdict(
        admitted=status == "admitted",
        status=status,
        max_onshell_residual=worst_val,
        sample_count=n_samples,
        worst_point=worst,
        resampled=samples.resampled,
    )
