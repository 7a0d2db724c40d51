"""Finite group action of the exceptional symmetry and the closed-form
solution family it generates.

The one-parameter map

    C(x, y, lam) = 1 + lam^2 (x^2 + y^2) + 2 lam y
    (x, y) -> ( x / C,  (y + lam (x^2 + y^2)) / C )
    u -> C^(-a/2) u(x~, y~)

sends solutions to solutions.  Applied to the power solution
(x^2 - y^2)^(-a/4) it yields [x^2 - (y + lam (x^2+y^2))^2]^(-a/4),
valid on the symmetric difference of two disks of radius 1/(sqrt(2) lam)
centered at (+-1/(2 lam), -1/(2 lam)).
"""

from __future__ import annotations

import marshal
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import BinaryIO, Callable, NoReturn

from .errors import DomainError, SingularPointError, WorkerError
from .expr import (
    Expr,
    Num,
    RejectionSampler,
    add,
    as_expr,
    diff,
    eval_at,
    mul,
    num,
    pow_,
    substitute,
    sym,
    to_callable,  # noqa: F401  (unused: perfbench/tracing.py patches orbits.to_callable)
    to_cancellation,
)
from .family import PDEInstance, scaling_vf
from .jets import characteristic

_X = sym("x")
_Y = sym("y")
_LAM = sym("lam")

# x^2 + y^2 and the conformal factor as expressions (lam symbolic)
_RHO2 = add(pow_(_X, num(2)), pow_(_Y, num(2)))
_C_EXPR = add(num(1), mul(pow_(_LAM, num(2)), _RHO2), mul(num(2), _LAM, _Y))
_B_EXPR = add(_Y, mul(_LAM, _RHO2))  # y + lam (x^2 + y^2)


def conformal_factor(x: float, y: float, lam: float) -> float:
    return 1.0 + lam * lam * (x * x + y * y) + 2.0 * lam * y


def map_point(x: float, y: float, lam: float) -> tuple[float, float]:
    """Finite transformation of the base plane; singular where C = 0."""
    c = conformal_factor(x, y, lam)
    if c == 0.0:
        raise SingularPointError(f"conformal factor vanishes at ({x}, {y})")
    return x / c, (y + lam * (x * x + y * y)) / c


def map_point_exprs(lam) -> tuple[Expr, Expr]:
    """(x~, y~) as expressions; lam may be numeric or symbolic."""
    table = {"lam": as_expr(lam)}
    c_inv = pow_(substitute(_C_EXPR, table), num(-1))
    return (
        mul(_X, c_inv),
        mul(substitute(_B_EXPR, table), c_inv),
    )


@dataclass(frozen=True)
class RegionGeometry:
    """Validity region of the transformed solution: union of two open
    disks minus their closed intersection (inside exactly one)."""

    lam: float
    center1: tuple[float, float]
    center2: tuple[float, float]
    radius: float

    def membership(self, x: float, y: float) -> bool:
        # algebraic form: (x - (y + lam rho^2)) (x + (y + lam rho^2)) > 0
        b = y + self.lam * (x * x + y * y)
        return (x - b) * (x + b) > 0.0

    def xor_disks(self, x: float, y: float) -> bool:
        in1 = math.hypot(x - self.center1[0], y - self.center1[1]) < self.radius
        in2 = math.hypot(x - self.center2[0], y - self.center2[1]) < self.radius
        return in1 != in2

    def bounding_box(self) -> tuple[float, float, float, float]:
        """(x_min, x_max, y_min, y_max) of the two disks, in GridSpec order."""
        return (self.center2[0] - self.radius, self.center1[0] + self.radius,
                self.center1[1] - self.radius, self.center1[1] + self.radius)

    def xor_check_box(self) -> tuple[float, float, float, float]:
        """(x_min, x_max, y_min, y_max) of the box ``region --samples``
        draws from: the bounding box widened by a fifth, symmetric in x."""
        span = 1.2 * (self.center1[0] + self.radius)
        return (-span, span,
                self.center1[1] - 1.2 * self.radius, self.center1[1] + 1.2 * self.radius)


def region(lam: float) -> RegionGeometry:
    """The two-disk geometry of lam > 0.

    Raises ValueError where x^2 + y^2 overflows at the far corner of the
    xor-check box (lam below about 1.5e-154): ``membership`` would read
    inf there and disagree with the two disks, which do not overflow."""
    if not lam > 0:
        raise ValueError(f"region geometry needs lam > 0, got {lam!r}")
    half = 1.0 / (2.0 * lam)
    geo = RegionGeometry(
        lam=lam,
        center1=(half, -half),
        center2=(-half, -half),
        radius=1.0 / (math.sqrt(2.0) * lam),
    )
    x_far, _, y_far, _ = geo.xor_check_box()
    if math.isinf(x_far * x_far + y_far * y_far):
        raise ValueError(f"region geometry needs lam of at least about 1.5e-154, "
                         f"got {lam!r}: x^2 + y^2 overflows inside the region's box")
    return geo


@dataclass(frozen=True)
class ClosedFormSolution:
    """Solution expression in (x, y) with an explicit membership test."""

    expr: Expr
    domain: Callable[[float, float], bool]
    label: str
    a: object  # Fraction for numeric instances, Expr when kept symbolic

    def jet(self) -> dict[str, Expr]:
        """u and its derivatives up to second order, symbolically."""
        u = self.expr
        ux, uy = diff(u, "x"), diff(u, "y")
        return {
            "u": u, "ux": ux, "uy": uy,
            "uxx": diff(ux, "x"), "uxy": diff(ux, "y"), "uyy": diff(uy, "y"),
        }


def _power_exponent(a) -> Expr:
    return mul(Num(Fraction(-1, 4)), as_expr(a))


def base_solution(a, extended: bool = False) -> ClosedFormSolution:
    """The power solution (x^2 - y^2)^(-a/4).

    Default domain is the open wedge |x| > |y|.  When -a/4 is an
    integer the expression continues analytically: pass ``extended``
    to widen the domain to the whole plane (positive integer exponent)
    or the plane minus the lines x = +-y (negative integer exponent).
    """
    if not isinstance(a, Expr) and num(a).value == 0:
        raise ValueError("parameter a must be nonzero")
    expr = pow_(add(pow_(_X, num(2)), mul(num(-1), pow_(_Y, num(2)))), _power_exponent(a))
    domain: Callable[[float, float], bool] = lambda x, y: x * x - y * y > 0.0
    if extended and not isinstance(a, Expr):
        exponent = -num(a).value / 4
        if exponent.denominator == 1 and exponent > 0:
            domain = lambda x, y: True
        elif exponent.denominator == 1:
            domain = lambda x, y: x * x != y * y
    return ClosedFormSolution(expr, domain, "base", a if isinstance(a, Expr) else num(a).value)


def family_solution(a, lam) -> ClosedFormSolution:
    """[x^2 - (y + lam (x^2 + y^2))^2]^(-a/4) on its two-disk region.

    lam = 0 degenerates to the base solution; lam < 0 keeps the
    algebraic membership test (the geometry is the lam > 0 picture
    mirrored in y).
    """
    if not isinstance(a, Expr) and num(a).value == 0:
        raise ValueError("parameter a must be nonzero")
    lam_expr = as_expr(lam)
    b = substitute(_B_EXPR, {"lam": lam_expr})
    expr = pow_(add(pow_(_X, num(2)), mul(num(-1), pow_(b, num(2)))), _power_exponent(a))
    if isinstance(lam, Expr):
        raise TypeError("family_solution needs a numeric lam for its domain")
    lam_f = float(lam)
    if lam_f == 0.0:
        domain = base_solution(a).domain
    else:
        def domain(x, y, _l=lam_f):
            bb = y + _l * (x * x + y * y)
            return (x - bb) * (x + bb) > 0.0
    return ClosedFormSolution(expr, domain, f"family(lam={lam_f})",
                              a if isinstance(a, Expr) else num(a).value)


def transform_solution(sol: ClosedFormSolution, lam) -> ClosedFormSolution:
    """Push a solution along the finite group action.

    Returns C^(-a/2) * u(x~, y~) simplified; for the base power solution
    this collapses symbolically to the lam-family expression.  The new
    domain is the preimage of the old one under the point map, inside
    C > 0.
    """
    xt, yt = map_point_exprs(lam)
    prefactor = pow_(
        substitute(_C_EXPR, {"lam": as_expr(lam)}),
        mul(Num(Fraction(-1, 2)), as_expr(sol.a)),
    )
    expr = mul(prefactor, substitute(sol.expr, {"x": xt, "y": yt}))

    if isinstance(lam, Expr):
        raise TypeError("transform_solution needs a numeric lam for its domain")
    lam_f = float(lam)
    old_domain = sol.domain

    def domain(x, y, _l=lam_f):
        c = conformal_factor(x, y, _l)
        if c <= 0.0:
            return False
        return old_domain(x / c, (y + _l * (x * x + y * y)) / c)

    return ClosedFormSolution(expr, domain, f"pushforward(lam={lam_f}) of {sol.label}", sol.a)


# ---------------------------------------------------------------------------
# residual grids

# a residual field holds every node in memory and writes one CSV row per
# node, so GridSpec refuses larger grids
MAX_GRID_NODES = 1_000_000


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("grid extents must have positive span")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid needs at least one node per axis")
        if self.nx * self.ny > MAX_GRID_NODES:
            raise ValueError(f"grid of {self.nx} x {self.ny} nodes exceeds "
                             f"{MAX_GRID_NODES} nodes")

    def xs(self) -> list[float]:
        return _linspace(self.x_min, self.x_max, self.nx)

    def ys(self) -> list[float]:
        return _linspace(self.y_min, self.y_max, self.ny)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


@dataclass(frozen=True)
class ResidualField:
    """Pointwise residual of an instance on a solution over a grid.

    ``us`` and ``residuals`` hold one entry per node, row-major (y outer,
    then x, over ``grid.ys()`` and ``grid.xs()``).  ``residual`` at each
    in-domain node is the residual's ``to_cancellation`` measure: its
    terms cancel on a true solution but grow without bound toward the
    region boundary.  Nodes outside the solution's domain, and nodes
    where u or the residual leaves the real domain or the residual is
    not finite, are masked: both entries are None.
    """

    grid: GridSpec
    us: list[float | None]
    residuals: list[float | None]
    sup_norm: float | None
    n_in_domain: int


def residual_grid(inst: PDEInstance, sol: ClosedFormSolution, grid: GridSpec) -> ResidualField:
    """Evaluate the instance residual on a closed-form solution.

    Derivatives of the solution are taken symbolically, so any nonzero
    residual is a genuine failure of the solution, not discretization
    error.  A grid of FORK_MIN_NODES nodes or more is evaluated in row
    blocks (``in_row_blocks``); the field is the same for any block count.
    """
    # one body returns (measure, u): the slots u shares with the residual
    # are computed once per node
    measure_and_u = to_cancellation(substitute(inst.delta, sol.jet()), ("x", "y"), sol.expr)
    domain = sol.domain
    xs = grid.xs()
    ys = grid.ys()

    def evaluate(rows: range, us: list, residuals: list) -> tuple[float | None, int]:
        """Append the nodes of ``rows`` to the two lists; return the sup of
        |residual| over their in-domain nodes and the count of those."""
        sup = None
        count = 0
        for j in rows:
            y = ys[j]
            for x in xs:
                if not domain(x, y):
                    us.append(None)
                    residuals.append(None)
                    continue
                try:
                    res, u_val = measure_and_u(x, y)
                except DomainError:
                    # numerically outside the real domain (boundary roundoff),
                    # or a term too large to be finite
                    us.append(None)
                    residuals.append(None)
                    continue
                us.append(u_val)
                residuals.append(res)
                count += 1
                if sup is None or abs(res) > sup:
                    sup = abs(res)
        return sup, count

    us: list[float | None] = []
    residuals: list[float | None] = []
    sup = None
    count = 0

    def merge(block_sup: float | None, block_count: int) -> None:
        nonlocal sup, count
        count += block_count
        if block_sup is not None and (sup is None or block_sup > sup):
            sup = block_sup

    # a child's block goes through its file as one marshal record per row
    # (marshal keeps every float bit for bit), each after its length, so
    # this process holds one row of it at a time
    def spool(rows: range, fh) -> None:
        for j in rows:
            row_us: list[float | None] = []
            row_residuals: list[float | None] = []
            row_sup, row_count = evaluate(range(j, j + 1), row_us, row_residuals)
            record = marshal.dumps((row_us, row_residuals, row_sup, row_count))
            fh.write(len(record).to_bytes(4, "little") + record)

    def unspool(fh) -> None:
        while size := fh.read(4):
            row_us, row_residuals, row_sup, row_count = marshal.loads(
                fh.read(int.from_bytes(size, "little")))
            us.extend(row_us)
            residuals.extend(row_residuals)
            merge(row_sup, row_count)

    in_row_blocks(grid.ny, grid.nx * grid.ny,
                  lambda rows: merge(*evaluate(rows, us, residuals)), spool, unspool)
    return ResidualField(grid, us, residuals, sup, count)


# Grids of at least this many nodes are worked in row blocks, one per CPU
# this process may use.  On a 2-core host forking a child breaks even at
# about 5,000 to 10,000 nodes, depending on the other core's load; the
# margin keeps the README's 100x100 grid and every small grid in one
# process.
FORK_MIN_NODES = 20_000
# the block count of such a grid: one where this process cannot fork
ROW_BLOCKS = (len(os.sched_getaffinity(0))
              if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1)


def in_row_blocks(ny: int, nodes: int, own: Callable[[range], None],
                  spool: Callable[[range, BinaryIO], None],
                  unspool: Callable[[BinaryIO], None]) -> None:
    """Work the rows ``range(ny)`` of a grid of ``nodes`` nodes, in
    contiguous blocks and in row order.

    ``own(rows)`` works a block in this process.  A grid below
    FORK_MIN_NODES nodes is one block, ``own(range(ny))``.  A larger one
    is split into ROW_BLOCKS blocks (at most one per row): this process
    works the first while each later block runs in a forked child as
    ``spool(rows, fh)``, which writes into an unlinked temporary file.
    ``unspool(fh)`` then reads each file back here, in block order, from
    its start.  A block whose child cannot be started is worked by
    ``own`` in its turn.  A child that fails raises WorkerError.  However
    this returns, every child has been reaped and every file closed.
    """
    n = 1 if nodes < FORK_MIN_NODES else min(ROW_BLOCKS, ny)
    bounds = [ny * i // n for i in range(n + 1)]
    blocks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if n == 1:
        own(blocks[0])
        return
    children = []  # [rows, pid, spool file]; pid None once reaped or never forked
    try:
        for rows in blocks[1:]:
            children.append([rows, *_fork_block(rows, spool)])
        own(blocks[0])
        for child in children:
            rows, pid, fh = child
            if pid is None:
                own(rows)
                continue
            _, status = os.waitpid(pid, 0)
            child[1] = None
            code = os.waitstatus_to_exitcode(status)
            fh.seek(0)
            if code != 0:
                why = fh.read(2000).decode(errors="replace") if code == 1 else f"exit status {code}"
                raise WorkerError(f"rows {rows.start}-{rows.stop - 1} of the grid failed "
                                  f"in a worker process: {why}")
            unspool(fh)
    finally:
        for child in children:
            _, pid, fh = child
            if pid is not None:  # left unread after an error here or in another block
                import signal
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            if fh is not None:
                fh.close()


def _fork_block(rows: range, spool) -> tuple[int | None, BinaryIO | None]:
    """Start a child working ``rows`` into a fresh spool file; (pid, file),
    or (None, None) where the file or the child cannot be made."""
    import tempfile  # only grids that fork pay for the import

    try:
        fh = tempfile.TemporaryFile()
    except OSError:
        return None, None
    try:
        pid = os.fork()
    except OSError:
        fh.close()
        return None, None
    if pid == 0:
        _child(rows, spool, fh)
    return pid, fh


def _child(rows: range, spool, fh: BinaryIO) -> NoReturn:
    """Work one block in a forked child and leave through os._exit, never
    by unwinding: that would run the parent's ``finally`` blocks and flush
    the buffers it holds.  A failure is reported as the spool's text with
    exit status 1."""
    status = 1
    try:
        spool(rows, fh)
        fh.flush()
        status = 0
    except BaseException as exc:  # anything, KeyboardInterrupt too, ends in os._exit
        fh.seek(0)
        fh.truncate()
        fh.write(f"{type(exc).__name__}: {exc}".encode(errors="replace"))
        fh.flush()
    finally:
        os._exit(status)


# ---------------------------------------------------------------------------
# infinitesimal consistency of the finite action


@dataclass(frozen=True)
class FlowCheck:
    point: tuple[float, float]
    h: float
    dx_fd: float
    dx_exact: float
    dy_fd: float
    dy_exact: float
    du_fd: float | None
    du_exact: float | None
    max_error: float

    def passed(self, tol: float = 1e-6) -> bool:
        return self.max_error <= tol


def flow_generator_check(
    point: tuple[float, float],
    sol: ClosedFormSolution | None = None,
    h: float = 1e-5,
) -> FlowCheck:
    """Differentiate the finite action in lam at lam = 0 and compare with
    the generator.

    Base points flow with d(x~)/dlam = -2xy and d(y~)/dlam = x^2 - y^2;
    the value of the pushed-forward solution at a fixed point moves with
    the characteristic Q = -a y u - 2xy ux + (x^2 - y^2) uy evaluated on
    the solution jet.
    """
    if not 0.0 < h <= 1e-3:
        raise ValueError("step h must lie in (0, 1e-3]")
    x, y = point
    xp, yp = map_point(x, y, h)
    xm, ym = map_point(x, y, -h)
    dx_fd = (xp - xm) / (2.0 * h)
    dy_fd = (yp - ym) / (2.0 * h)
    dx_exact = -2.0 * x * y
    dy_exact = x * x - y * y
    errors = [abs(dx_fd - dx_exact), abs(dy_fd - dy_exact)]

    du_fd = du_exact = None
    if sol is not None:
        if isinstance(sol.a, Expr):
            raise TypeError("flow check needs a solution with numeric a")
        a = float(sol.a)

        def pushed(lam: float) -> float:
            c = conformal_factor(x, y, lam)
            xt, yt = map_point(x, y, lam)
            return c ** (-a / 2.0) * eval_at(sol.expr, {"x": xt, "y": yt})

        du_fd = (pushed(h) - pushed(-h)) / (2.0 * h)
        jet = sol.jet()
        env = {"x": x, "y": y}
        u_val = eval_at(jet["u"], env)
        ux_val = eval_at(jet["ux"], env)
        uy_val = eval_at(jet["uy"], env)
        du_exact = -a * y * u_val - 2.0 * x * y * ux_val + (x * x - y * y) * uy_val
        errors.append(abs(du_fd - du_exact))

    return FlowCheck(
        point=(x, y), h=h,
        dx_fd=dx_fd, dx_exact=dx_exact,
        dy_fd=dy_fd, dy_exact=dy_exact,
        du_fd=du_fd, du_exact=du_exact,
        max_error=max(errors),
    )


def scaling_invariance_residual(a) -> Expr:
    """Characteristic of the scaling field evaluated on the jet of the
    power solution; identically zero (structurally, after explicit
    expansion) for symbolic a."""
    vf = scaling_vf() if isinstance(a, Expr) else scaling_vf().bind(a=num(a).value)
    q = characteristic(vf)
    jet = base_solution(a).jet()
    return substitute(q, {"u": jet["u"], "ux": jet["ux"], "uy": jet["uy"]})


def sample_in_region(lam: float, count: int, seed: int) -> list[tuple[float, float]]:
    """Seeded rejection sampling of points inside the two-disk region."""
    geo = region(lam)
    x_lo, x_hi, y_lo, y_hi = geo.bounding_box()
    return list(RejectionSampler(
        count, seed,
        lambda rng: (rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi)),
        lambda point: point if geo.membership(*point) else None))
