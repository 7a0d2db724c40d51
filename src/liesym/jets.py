"""Second-order jet space over one dependent variable u(x, y).

Provides total derivatives, the second prolongation of point vector
fields, the characteristic, application of a prolonged field to a
target expression in jet coordinates, and the exact restriction of an
expression to a constraint manifold.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .errors import OrderOverflowError, ReductionError
from .expr import (
    Expr,
    Num,
    add,
    as_expr,
    diff,
    expand,
    is_zero,
    mul,
    num,
    pow_,
    seeded_generator,
    substitute,
    sym,
    to_measure_loop,
    to_text,
)

X = sym("x")
Y = sym("y")
U = sym("u")
UX = sym("ux")
UY = sym("uy")
UXX = sym("uxx")
UXY = sym("uxy")
UYY = sym("uyy")

JET_NAMES = ("x", "y", "u", "ux", "uy", "uxx", "uxy", "uyy")
SECOND_ORDER_NAMES = frozenset(("uxx", "uxy", "uyy"))
DERIVATIVE_NAMES = frozenset(("ux", "uy", "uxx", "uxy", "uyy"))


# Sampling box used by every randomized jet-space check: x away from the
# singular axis, u positive for fractional powers.
JET_RANGES = {
    "x": (0.5, 2.0),
    "y": (-0.8, 0.8),
    "u": (0.5, 2.0),
    "ux": (-1.0, 1.0),
    "uy": (-1.0, 1.0),
    "uxx": (-1.0, 1.0),
    "uxy": (-1.0, 1.0),
    "uyy": (-1.0, 1.0),
}


_JET_BOXES = tuple((lo, hi - lo) for lo, hi in (JET_RANGES[n] for n in JET_NAMES))


def sample_jet_point(rng: random.Random) -> list[float]:
    """One jet point as an argument list in JET_NAMES order.

    Each coordinate is ``lo + (hi - lo) * rng.random()``, the formula of
    ``random.Random.uniform``, so the draws and the generator state match
    ``rng.uniform`` over the same ranges bit for bit."""
    return [lo + span * rng.random() for lo, span in _JET_BOXES]


class VectorField:
    """Point vector field xi1 d/dx + xi2 d/dy + phi d/du.

    Components are expressions in (x, y, u) and instance parameters;
    jet derivative symbols are not allowed.  Fields are equal, and hash
    alike, by their components.
    """

    __slots__ = ("xi1", "xi2", "phi")

    def __init__(self, xi1: Expr, xi2: Expr, phi: Expr):
        for comp in (xi1, xi2, phi):
            bad = comp.free_symbols() & DERIVATIVE_NAMES
            if bad:
                raise ValueError(
                    f"not a point vector field: component {comp!r} "
                    f"contains jet symbols {sorted(bad)}")
        self.xi1 = xi1
        self.xi2 = xi2
        self.phi = phi

    def __eq__(self, other):
        return (isinstance(other, VectorField)
                and (self.xi1, self.xi2, self.phi) == (other.xi1, other.xi2, other.phi))

    def __hash__(self):
        return hash((self.xi1, self.xi2, self.phi))

    def __repr__(self):
        return f"VectorField({self.xi1!r}, {self.xi2!r}, {self.phi!r})"

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(
            add(self.xi1, other.xi1),
            add(self.xi2, other.xi2),
            add(self.phi, other.phi),
        )

    def bind(self, **params) -> "VectorField":
        """Substitute parameter values (e.g. a=-1) into all components."""
        table = {k: as_expr(v) for k, v in params.items()}
        return VectorField(
            substitute(self.xi1, table),
            substitute(self.xi2, table),
            substitute(self.phi, table),
        )


class ProlongedVF(NamedTuple):
    """Second prolongation: coefficients on ux, uy, uxx, uxy, uyy."""

    base: VectorField
    phi_x: Expr
    phi_y: Expr
    phi_xx: Expr
    phi_xy: Expr
    phi_yy: Expr

    def coefficients(self) -> dict[str, Expr]:
        return {
            "x": self.base.xi1, "y": self.base.xi2, "u": self.base.phi,
            "ux": self.phi_x, "uy": self.phi_y,
            "uxx": self.phi_xx, "uxy": self.phi_xy, "uyy": self.phi_yy,
        }


def total_derivative(e: Expr, direction: str) -> Expr:
    """Total derivative D_x or D_y on expressions of jet order <= 1.

    Raises OrderOverflowError when the input already holds second-order
    symbols: the result would need third-order coordinates, which are
    not in the alphabet.
    """
    overflow = e.free_symbols() & SECOND_ORDER_NAMES
    if overflow:
        raise OrderOverflowError(
            f"total derivative of order-2 expression (contains {sorted(overflow)})")
    if direction == "x":
        return add(
            diff(e, "x"),
            mul(UX, diff(e, "u")),
            mul(UXX, diff(e, "ux")),
            mul(UXY, diff(e, "uy")),
        )
    if direction == "y":
        return add(
            diff(e, "y"),
            mul(UY, diff(e, "u")),
            mul(UXY, diff(e, "ux")),
            mul(UYY, diff(e, "uy")),
        )
    raise ValueError(f"direction must be 'x' or 'y', got {direction!r}")


def characteristic(vf: VectorField) -> Expr:
    """Evolutionary representative Q = phi - xi1*ux - xi2*uy."""
    return add(vf.phi, -mul(vf.xi1, UX), -mul(vf.xi2, UY))


def prolong2(vf: VectorField) -> ProlongedVF:
    """Second prolongation via the recursive total-derivative formulas
    (Olver 1986, ch. 2)."""
    dx, dy = (lambda e: total_derivative(e, "x")), (lambda e: total_derivative(e, "y"))
    phi_x = add(dx(vf.phi), -mul(UX, dx(vf.xi1)), -mul(UY, dx(vf.xi2)))
    phi_y = add(dy(vf.phi), -mul(UX, dy(vf.xi1)), -mul(UY, dy(vf.xi2)))
    phi_xx = add(dx(phi_x), -mul(UXX, dx(vf.xi1)), -mul(UXY, dx(vf.xi2)))
    # the D_x phi_y route must agree; equality of the two is a test
    phi_xy = add(dy(phi_x), -mul(UXX, dy(vf.xi1)), -mul(UXY, dy(vf.xi2)))
    phi_yy = add(dy(phi_y), -mul(UXY, dy(vf.xi1)), -mul(UYY, dy(vf.xi2)))
    return ProlongedVF(vf, phi_x, phi_y, phi_xx, phi_xy, phi_yy)


def apply_prolonged(pvf: ProlongedVF, target: Expr) -> Expr:
    """Apply the prolonged field to an expression in jet coordinates.

    A name whose coefficient is zero is not differentiated: its term
    would be zero, which the sum drops anyway."""
    parts = [
        mul(coeff, diff(target, name))
        for name, coeff in pvf.coefficients().items()
        if not is_zero(coeff)
    ]
    return add(*parts)


class ConstraintSystem:
    """Ordered constraints, each affine in its elimination symbol."""

    __slots__ = ("constraints", "eliminations")

    def __init__(self, constraints: tuple[Expr, ...], eliminations: tuple[str, ...]):
        if len(constraints) != len(eliminations):
            raise ValueError("one elimination symbol per constraint")
        self.constraints = constraints
        self.eliminations = eliminations

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


# a sample whose measure reaches this reads nonzero
REFUTE_THRESHOLD = 1e-3

# the sample count and seed of every sampled verdict, in the library and
# the CLI, and residual-grid's tolerance on its sup residual
DEFAULT_SAMPLES = 200
DEFAULT_SEED = 42
DEFAULT_TOL = 1e-9

# the exact points at which a remainder that sampling cannot refute is read:
# W on x^2 = y^2, and W' inside the wedge x > |y|, in the jet box, on
# x^2 - y^2 = 1, where every power of x^2 - y^2 folds
_WITNESSES = ({"x": 1, "y": 1, "u": 1, "ux": 0, "uy": 0, "uxx": 0, "uxy": 1},
              {"x": Fraction(5, 4), "y": Fraction(3, 4), "u": 1, "ux": 0, "uy": 0, "uxx": 0,
               "uxy": 1})


class SampledRemainder(NamedTuple):
    """A remainder and the statistics of its sampled cancellation measure."""

    remainder: Expr
    max_abs: float
    mean_abs: float
    worst_point: list[float]  # in JET_NAMES order
    samples: int
    resampled: int

    def classify(self) -> str:
        """The remainder's reading: "zero" for a structural 0, "nonzero"
        when a sample reaches REFUTE_THRESHOLD.  Any other remainder is
        substituted exactly at the two witness points, both with u = 1,
        ux = uy = uxx = 0 and uxy = 1: W at x = y = 1, and W' at x = 5/4,
        y = 3/4, where x^2 - y^2 = 1.  A nonzero number at either reads
        "nonzero", anything else "inconclusive".  So a remainder that is
        not a structural 0 never reads "zero", however small its sampled
        measure."""
        if is_zero(self.remainder):
            return "zero"
        if self.max_abs >= REFUTE_THRESHOLD:
            return "nonzero"
        values = (substitute(self.remainder, point) for point in _WITNESSES)
        return "nonzero" if any(isinstance(v, Num) and v.value for v in values) else "inconclusive"


def sample_remainder(remainder: Expr, n_samples: int = DEFAULT_SAMPLES,
                     seed: int = DEFAULT_SEED) -> SampledRemainder:
    """Sample a remainder in jet coordinates, such as the expanded result
    of ``ConstraintSystem.restrict``.  The magnitude of its
    cancellation measure, over its terms if it is a Sum and else over it
    as one term, is compiled with its draw loop
    (``to_measure_loop``) and taken at ``n_samples`` seeded points of the
    jet box, each drawn as ``sample_jet_point`` draws one; a point off
    the real domain or where the measure is not finite is redrawn.

    A structural ``0`` measures ``0.0`` at every point, so it is neither
    compiled nor sampled: its statistics are all ``0.0``, with no redraw,
    and its worst point is the first draw, the point where a sampled
    maximum of ``0.0`` is first reached."""
    if is_zero(remainder):
        first = sample_jet_point(seeded_generator(n_samples, seed))
        return SampledRemainder(remainder, 0.0, 0.0, first, n_samples, 0)
    max_abs, total, worst, resampled = to_measure_loop(remainder, JET_NAMES,
                                                       _JET_BOXES)(n_samples, seed)
    return SampledRemainder(remainder, max_abs, total / n_samples, worst, n_samples, resampled)
