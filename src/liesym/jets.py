"""Second-order jet space over one dependent variable u(x, y).

Provides total derivatives, the second prolongation of point vector
fields, the characteristic, and application of a prolonged field to a
target expression in jet coordinates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import OrderOverflowError
from .expr import Expr, add, as_expr, diff, mul, substitute, sym

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


def sample_jet_env(rng: random.Random) -> dict[str, float]:
    return {name: rng.uniform(*JET_RANGES[name]) for name in JET_NAMES}


@dataclass(frozen=True)
class VectorField:
    """Point vector field xi1 d/dx + xi2 d/dy + phi d/du.

    Components are expressions in (x, y, u) and instance parameters;
    jet derivative symbols are not allowed.
    """

    xi1: Expr
    xi2: Expr
    phi: Expr

    def __post_init__(self):
        for comp in (self.xi1, self.xi2, self.phi):
            bad = comp.free_symbols() & DERIVATIVE_NAMES
            if bad:
                raise ValueError(
                    f"not a point vector field: component {comp!r} "
                    f"contains jet symbols {sorted(bad)}")

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


@dataclass(frozen=True)
class ProlongedVF:
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
    """Second prolongation via the recursive total-derivative formulas."""
    dx, dy = (lambda e: total_derivative(e, "x")), (lambda e: total_derivative(e, "y"))
    phi_x = add(dx(vf.phi), -mul(UX, dx(vf.xi1)), -mul(UY, dx(vf.xi2)))
    phi_y = add(dy(vf.phi), -mul(UX, dy(vf.xi1)), -mul(UY, dy(vf.xi2)))
    phi_xx = add(dx(phi_x), -mul(UXX, dx(vf.xi1)), -mul(UXY, dx(vf.xi2)))
    # the D_x phi_y route must agree; equality of the two is a test
    phi_xy = add(dy(phi_x), -mul(UXX, dy(vf.xi1)), -mul(UXY, dy(vf.xi2)))
    phi_yy = add(dy(phi_y), -mul(UXY, dy(vf.xi1)), -mul(UYY, dy(vf.xi2)))
    return ProlongedVF(vf, phi_x, phi_y, phi_xx, phi_xy, phi_yy)


def apply_prolonged(pvf: ProlongedVF, target: Expr) -> Expr:
    """Apply the prolonged field to an expression in jet coordinates."""
    parts = [
        mul(coeff, diff(target, name))
        for name, coeff in pvf.coefficients().items()
    ]
    return add(*parts)
