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
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import UnboundSymbolError
from .expr import (
    Expr,
    Num,
    add,
    as_expr,
    bind_expanded,
    eval_at,  # noqa: F401  (unused: perfbench/tracing.py patches family.eval_at)
    mul,
    num,
    pow_,
    substitute,
    sym,
)
from .jets import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    JET_NAMES,
    U,
    UX,
    UXX,
    UYY,
    X,
    Y,
    ConstraintSystem,
    SampledRemainder,
    VectorField,
    apply_prolonged,
    prolong2,
    sample_remainder,
)

_A = sym("a")

PARAMETERS = ("a", "r", "c1", "c2", "gamma1", "gamma2")

# The kept derivations.  Every check-symmetry, weak-cs, reduce, transform
# and residual-grid command repeats the same symbolic work, and two commands
# differ only in the instance's numbers.  So each derivation is built once
# over the symbols of PARAMETERS (and a_sol, lam for the solutions), and a
# command binds its numbers into the result: an expanded sum through
# expr.bind_expanded, the others by substitution or compilation.  The named
# fields are kept with them, so a check looks its remainder up without
# rebuilding its field.  A derivation takes no argument, or a field compared
# and hashed by its components, and its result is immutable, so a hit
# returns what the body would build.  clear_memo leaves the table, nothing is
# derived at import, and the last 8 results of each are kept.  Weak-cs stage
# 3 is not kept: over symbolic a its remainder holds an integer power above
# 16 of a sum, which expand leaves alone, and off the exponent pair binding
# the numbers into symbolic_auxiliary() before the jet differs from binding
# both at once (at a = 11/3, c1 = -29/2: 2 terms against 3), so stage 3
# substitutes the numbers and the jet in one substitution.
KEPT: dict[str, Callable] = {}


def kept(derive: Callable) -> Callable:
    """Keep ``derive``'s results across commands, registered in KEPT under
    ``"module.name"``: ``functools.lru_cache(maxsize=8)(derive)``."""
    cached = functools.lru_cache(maxsize=8)(derive)
    KEPT[f"{derive.__module__.rpartition('.')[2]}.{derive.__name__}"] = cached
    return cached


def family_residual(a, r, c1, c2, gamma1, gamma2) -> Expr:
    """Assemble the residual; arguments may be numbers or expressions,
    so the same builder serves numeric instances and symbolic work."""
    a, r, c1, c2, gamma1, gamma2 = map(as_expr, (a, r, c1, c2, gamma1, gamma2))
    return add(
        UXX,
        UYY,
        mul(a, pow_(X, num(-1)), UX),
        mul(num(-1), gamma1, pow_(X, r), pow_(U, c1)),
        mul(num(-1), gamma2, pow_(U, c2)),
    )


def symbolic_residual() -> Expr:
    """The family residual in the symbols of PARAMETERS, from which the
    kept derivations are built once for every instance."""
    return family_residual(*map(sym, PARAMETERS))


def nonzero_a(a) -> Fraction:
    """A numeric parameter a as an exact rational; a = 0 raises ValueError,
    as the family, its exponent pair and its solutions all need a != 0."""
    a = num(a).value
    if a == 0:
        raise ValueError("parameter a must be nonzero")
    return a


def exceptional_exponents(a, r) -> tuple[Fraction, Fraction]:
    """Exponent pair admitting the exceptional symmetry, exact in
    rational arithmetic: c1 = 1 + 2(r+2)/a and c2 = 1 + 4/a."""
    a = nonzero_a(a)
    r = num(r).value
    return 1 + 2 * (r + 2) / a, 1 + Fraction(4) / a


class PDEInstance:
    """One member of the family: its six exact numbers."""

    def __init__(self, a: Fraction, r: Fraction, c1: Fraction, c2: Fraction,
                 gamma1: Fraction, gamma2: Fraction):
        self.a = a
        self.r = r
        self.c1 = c1
        self.c2 = c2
        self.gamma1 = gamma1
        self.gamma2 = gamma2

    def __repr__(self):
        return f"PDEInstance({', '.join(f'{k}={v!r}' for k, v in self.numbers().items())})"

    @functools.cached_property
    def delta(self) -> Expr:
        """The instance's residual, assembled on first read: a check of a
        named field binds a kept remainder and never reads it."""
        return family_residual(self.a, self.r, self.c1, self.c2, self.gamma1, self.gamma2)

    def numbers(self) -> dict[str, Fraction]:
        """The instance's six numbers, keyed by the symbols of PARAMETERS."""
        return {name: getattr(self, name) for name in PARAMETERS}

    def bind(self, e: Expr, **more) -> Expr:
        """Substitute the instance's six numbers for the symbols of
        PARAMETERS in an expression derived over ``symbolic_residual()``,
        and each value of ``more`` for the symbol its keyword names, in one
        substitution."""
        return substitute(e, {**self.numbers(), **more})

    @property
    def is_exceptional(self) -> bool:
        ec1, ec2 = exceptional_exponents(self.a, self.r)
        return self.c1 == ec1 and self.c2 == ec2

    def params_text(self) -> dict[str, str]:
        """The parameters as exact strings, in the order reports print them."""
        return {name: str(v) for name, v in self.numbers().items()}


def build_instance(a, r, c1, c2, gamma1, gamma2) -> PDEInstance:
    a = nonzero_a(a)
    r, c1, c2, gamma1, gamma2 = (num(v).value for v in (r, c1, c2, gamma1, gamma2))
    return PDEInstance(a, r, c1, c2, gamma1, gamma2)


def gss_preset() -> PDEInstance:
    """Grad-Schlueter-Shafranov form: a=-1, r=2, exceptional exponents
    (-7, -3), source strengths gamma1=-3/2, gamma2=1/4 matching the
    closed-form power solution."""
    return build_instance(-1, 2, -7, -3, Fraction(-3, 2), Fraction(1, 4))


PRESETS = {"gss": gss_preset}


@kept
def exceptional_vf() -> VectorField:
    """X = 2xy d/dx + (y^2 - x^2) d/dy - a y u d/du, with a symbolic."""
    return VectorField(
        mul(num(2), X, Y),
        add(pow_(Y, num(2)), mul(num(-1), pow_(X, num(2)))),
        mul(num(-1), _A, Y, U),
    )


@kept
def scaling_vf() -> VectorField:
    """X' = x d/dx + y d/dy - (a/2) u d/du, with a symbolic."""
    return VectorField(X, Y, mul(Num(Fraction(-1, 2)), _A, U))


@kept
def rotation_like_vf() -> VectorField:
    """Y = y d/dx + x d/dy, the hyperbolic rotation annihilating x^2 - y^2."""
    return VectorField(Y, X, Num(Fraction(0)))


@kept
def y_translation_vf() -> VectorField:
    return VectorField(Num(Fraction(0)), Num(Fraction(1)), Num(Fraction(0)))


NAMED_FIELDS = {
    "X": exceptional_vf,
    "Xprime": scaling_vf,
    "Y": rotation_like_vf,
    "dy": y_translation_vf,
}


class SymmetryVerdict(NamedTuple):
    """``check_onshell_symmetry``'s reading of a field on an instance:
    ``stats`` is the ``SampledRemainder`` it is read from, whose remainder
    holds no uyy, so ``to_dict`` reports the worst point without it, and
    ``status`` is its ``classify()`` as "admitted", "refuted" or
    "inconclusive"."""

    stats: SampledRemainder

    @property
    def status(self) -> str:
        return _STATUS[self.stats.classify()]

    @property
    def admitted(self) -> bool:
        return self.status == "admitted"

    def to_dict(self) -> dict:
        return {
            "admitted": self.admitted,
            "status": self.status,
            "max_onshell_residual": self.stats.max_abs,
            "sample_count": self.stats.samples,
            "resampled": self.stats.resampled,
            "worst_point": {n: v for n, v in zip(JET_NAMES, self.stats.worst_point)
                            if n != "uyy"},
        }


_STATUS = {"zero": "admitted", "nonzero": "refuted", "inconclusive": "inconclusive"}


@kept
def onshell_remainder(vf: VectorField) -> Expr:
    """The field's on-shell remainder over symbolic parameters: the
    prolonged field applied to delta and restricted to delta = 0, with
    delta the family residual in the symbols a, r, c1, c2, gamma1, gamma2.
    For X it is, expanded,
    ``y*gamma1*u^c1*x^r*(a*c1 - a - 2*r - 4) + y*gamma2*u^c2*(a*c2 - a - 4)``.
    ``ConstraintSystem.restrict`` solves delta for uyy and substitutes the
    solution.  A symbol of the field named like a parameter is that
    parameter.  Kept (``kept``): one entry per field."""
    delta = symbolic_residual()
    return ConstraintSystem((delta,), ("uyy",)).restrict(apply_prolonged(prolong2(vf), delta))


def check_onshell_symmetry(
    vf: VectorField,
    inst: PDEInstance,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> SymmetryVerdict:
    """Decide whether a field is a symmetry on the solution manifold of an
    instance.

    The field's symbolic ``onshell_remainder``, the prolonged field
    applied to the residual and restricted exactly to the residual
    manifold, is bound to the instance's six numbers by ``bind_expanded``,
    which reads the kept remainder's terms once and builds each expanded
    binding from that reading.
    Of the parameters only a may be a symbol of the field: one named r,
    c1, c2, gamma1 or gamma2 raises UnboundSymbolError before anything is
    bound, so that it never takes the instance's number.  Any other extra
    symbol stays unbound, and compiling the remainder raises
    UnboundSymbolError unless the remainder is a structural 0.
    ``sample_remainder`` samples the remainder's cancellation measure, and
    the verdict's status is that ``SampledRemainder``'s ``classify()``: a
    structural 0 admits the field, a "nonzero" reading refutes it, and an
    "inconclusive" one leaves it inconclusive.
    """
    field_symbols = vf.xi1.free_symbols() | vf.xi2.free_symbols() | vf.phi.free_symbols()
    clash = sorted(field_symbols.intersection(PARAMETERS[1:]))
    if clash:
        raise UnboundSymbolError(f"field symbols {clash} name parameters other than a "
                                 f"and are not bound")
    remainder = bind_expanded(onshell_remainder(vf), inst.numbers())
    return SymmetryVerdict(sample_remainder(remainder, n_samples, seed))
