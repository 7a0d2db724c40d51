"""The quasi-linear residual family and its distinguished vector fields.

Residual form:

    delta = uxx + uyy + (a/x) ux - g1 x^r u^c1 - g2 u^c2      (a != 0)

The pair of exponent relations c1 = 1 + 2(r+2)/a, c2 = 1 + 4/a singles
out the instances that admit the exceptional field
X = 2xy d/dx + (y^2 - x^2) d/dy - a y u d/du.  The r = 2, a = -1 member
is the Grad-Schlueter-Shafranov form used as the "gss" preset.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .expr import (
    Expr,
    Num,
    add,
    as_expr,
    eval_at,  # noqa: F401  (unused: perfbench/tracing.py patches family.eval_at)
    expand,
    mul,
    num,
    pow_,
    substitute,
    sym,
)
from .jets import (
    JET_NAMES,
    REFUTE_THRESHOLD,
    ConstraintSystem,
    VectorField,
    apply_prolonged,
    prolong2,
    sample_remainder,
)

_X = sym("x")
_Y = sym("y")
_U = sym("u")
_UX = sym("ux")
_UXX = sym("uxx")
_UYY = sym("uyy")
_A = sym("a")

PARAMETERS = ("a", "r", "c1", "c2", "gamma1", "gamma2")
# the symbols a named field may hold: a point of (x, y, u) and the parameter a
_FIELD_SYMBOLS = frozenset(("x", "y", "u", "a"))


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
        return {name: str(getattr(self, name)) for name in PARAMETERS}


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
    worst_point: dict[str, float]  # the jet point but uyy, in JET_NAMES order
    resampled: int
    remainder: Expr  # the field applied to the residual, on the residual manifold

    def to_dict(self) -> dict:
        return {
            "admitted": self.admitted,
            "status": self.status,
            "max_onshell_residual": self.max_onshell_residual,
            "sample_count": self.sample_count,
            "resampled": self.resampled,
            "worst_point": self.worst_point,
        }


_STATUS = {"zero": "admitted", "nonzero": "refuted", "inconclusive": "inconclusive"}


def _onshell(vf: VectorField, delta: Expr) -> Expr:
    """The prolonged field applied to a residual, restricted exactly to the
    residual manifold: ``ConstraintSystem.restrict`` solves the residual
    for uyy and substitutes the solution."""
    target = apply_prolonged(prolong2(vf), delta)
    return ConstraintSystem((delta,), ("uyy",)).restrict(target)


# Every check of a named field restricts the same field again, and only the
# numbers of the instance differ.  The field is frozen and hashed by
# structure and the remainder is immutable, so a hit returns what the body
# would build; the CLI's four named fields take four entries whatever a is.
@functools.lru_cache(maxsize=8)
def onshell_remainder(vf: VectorField) -> Expr:
    """The field's on-shell remainder over symbolic parameters: the
    prolonged field applied to delta and restricted to delta = 0, with
    delta the family residual in the symbols a, r, c1, c2, gamma1, gamma2.
    For X it is, expanded,
    ``y*gamma1*u^c1*x^r*(a*c1 - a - 2*r - 4) + y*gamma2*u^c2*(a*c2 - a - 4)``.
    A symbol of the field named like a parameter is that parameter.  The
    last 8 results are kept."""
    return _onshell(vf, family_residual(*map(sym, PARAMETERS)))


def check_onshell_symmetry(
    vf: VectorField,
    inst: PDEInstance,
    n_samples: int = 200,
    tol: float = 1e-9,
    seed: int = 42,
) -> SymmetryVerdict:
    """Decide whether a field is a symmetry on the solution manifold of an
    instance.

    The prolonged field applied to the residual is restricted exactly to
    the residual manifold.  A field in x, y, u and a takes its symbolic
    ``onshell_remainder`` with the instance's six numbers substituted and
    expanded once; any other field is restricted on the instance's own
    residual, so that a symbol of the field is never bound to a parameter
    of the same name.  ``sample_remainder`` samples the remainder's
    cancellation measure; a remainder that reads zero (every sample at
    most ``tol``) admits the field, one that reads nonzero (a sample at or
    above REFUTE_THRESHOLD) refutes it, and anything in between is
    inconclusive.  The remainder holds no uyy, so the worst point is
    reported without it.  ``tol`` must lie in [0, REFUTE_THRESHOLD): a
    larger one would admit a field that a sample refutes.
    """
    if not 0 <= tol < REFUTE_THRESHOLD:
        raise ValueError(f"tol must be at least 0 and below {REFUTE_THRESHOLD:g}, got {tol!r}")
    if (vf.xi1.free_symbols() | vf.xi2.free_symbols() | vf.phi.free_symbols()) <= _FIELD_SYMBOLS:
        remainder = expand(substitute(onshell_remainder(vf),
                                      {name: getattr(inst, name) for name in PARAMETERS}))
    else:
        remainder = _onshell(vf.bind(a=inst.a), inst.delta)
    sampled = sample_remainder(remainder, n_samples, seed)
    status = _STATUS[sampled.classify(tol)]
    return SymmetryVerdict(
        admitted=status == "admitted",
        status=status,
        max_onshell_residual=sampled.max_abs,
        sample_count=sampled.samples,
        worst_point={n: v for n, v in zip(JET_NAMES, sampled.worst_point) if n != "uyy"},
        resampled=sampled.resampled,
        remainder=sampled.remainder,
    )
