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

import functools
import math
import os
import struct
import sys
from fractions import Fraction
from typing import BinaryIO, Callable, NamedTuple, NoReturn

from .errors import DomainError, SingularPointError, WorkerError
from .expr import (
    Expr,
    Num,
    RejectionSampler,
    add,
    as_expr,
    diff,
    eval_at,  # noqa: F401  (unused: perfbench/tracing.py patches orbits.eval_at)
    expand,
    mul,
    num,
    pow_,
    substitute,
    sym,
    to_callable,  # noqa: F401  (unused: perfbench/tracing.py patches orbits.to_callable)
    to_cancellation,
)
from .family import PDEInstance, exceptional_vf, nonzero_a, scaling_vf, symbolic_residual
from .jets import X, Y, characteristic

_LAM = sym("lam")
# the exponent parameter of the solution in symbolic_family_residual, apart
# from the residual's own a
_A_SOL = sym("a_sol")

# x^2 + y^2 and the conformal factor as expressions (lam symbolic)
_RHO2 = add(pow_(X, num(2)), pow_(Y, num(2)))
_C_EXPR = add(num(1), mul(pow_(_LAM, num(2)), _RHO2), mul(num(2), _LAM, Y))
_B_EXPR = add(Y, mul(_LAM, _RHO2))  # y + lam (x^2 + y^2)


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
        mul(X, c_inv),
        mul(substitute(_B_EXPR, table), c_inv),
    )


class RegionGeometry(NamedTuple):
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
    inf there and disagree with the two disks, which do not overflow.
    Raises ValueError too where the radius squared is subnormal (lam above
    about 4.7e153): x^2 + y^2 underflows across the box, and
    ``membership`` would lose the digits the disks keep."""
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
    if geo.radius * geo.radius < sys.float_info.min:
        raise ValueError(f"region geometry needs lam of at most about 4.7e153, "
                         f"got {lam!r}: x^2 + y^2 underflows inside the region's box")
    return geo


class ClosedFormSolution(NamedTuple):
    """Solution expression in (x, y) with an explicit membership test.

    ``lam`` is set where ``expr`` is ``family_expr(a, lam)``: the family
    and, at lam = 0, the base solution."""

    expr: Expr
    domain: Callable[[float, float], bool]
    label: str
    a: object  # Fraction for numeric instances, Expr when kept symbolic
    lam: Fraction | None = None

    def jet(self) -> dict[str, Expr]:
        """u and its derivatives up to second order, symbolically."""
        return _jet(self.expr)


def _jet(u: Expr) -> dict[str, Expr]:
    ux, uy = diff(u, "x"), diff(u, "y")
    return {
        "u": u, "ux": ux, "uy": uy,
        "uxx": diff(ux, "x"), "uxy": diff(ux, "y"), "uyy": diff(uy, "y"),
    }


def family_expr(a, lam) -> Expr:
    """[x^2 - (y + lam (x^2 + y^2))^2]^(-a/4); a and lam may be numeric or
    symbolic.  At lam = 0 it is the power solution (x^2 - y^2)^(-a/4)."""
    b = substitute(_B_EXPR, {"lam": as_expr(lam)})
    return pow_(add(pow_(X, num(2)), mul(num(-1), pow_(b, num(2)))),
                mul(Num(Fraction(-1, 4)), as_expr(a)))


def _solution_a(a):
    return a if isinstance(a, Expr) else nonzero_a(a)


def _wedge(x: float, y: float) -> bool:
    return x * x - y * y > 0.0


def base_solution(a) -> ClosedFormSolution:
    """The power solution (x^2 - y^2)^(-a/4) on the open wedge |x| > |y|."""
    a = _solution_a(a)
    return ClosedFormSolution(family_expr(a, 0), _wedge, "base", a, Fraction(0))


def family_solution(a, lam) -> ClosedFormSolution:
    """``family_expr(a, lam)`` on its two-disk region.

    lam = 0 degenerates to the base solution; lam < 0 keeps the
    algebraic membership test (the geometry is the lam > 0 picture
    mirrored in y).
    """
    a = _solution_a(a)
    if isinstance(lam, Expr):
        raise TypeError("family_solution needs a numeric lam for its domain; "
                        "family_expr builds the expression alone")
    lam_f = float(lam)
    if lam_f == 0.0:
        domain = _wedge
    else:
        def domain(x, y, _l=lam_f):
            bb = y + _l * (x * x + y * y)
            return (x - bb) * (x + bb) > 0.0
    return ClosedFormSolution(family_expr(a, lam), domain, f"family(lam={lam_f})",
                              a, num(lam).value)


def _pushed_expr(sol: ClosedFormSolution, lam) -> Expr:
    """C^(-a/2) * u(x~, y~); lam may be numeric or symbolic."""
    xt, yt = map_point_exprs(lam)
    prefactor = pow_(
        substitute(_C_EXPR, {"lam": as_expr(lam)}),
        mul(Num(Fraction(-1, 2)), as_expr(sol.a)),
    )
    return mul(prefactor, substitute(sol.expr, {"x": xt, "y": yt}))


def transform_solution(sol: ClosedFormSolution, lam) -> ClosedFormSolution:
    """Push a solution along the finite group action.

    Returns C^(-a/2) * u(x~, y~) simplified; for the base power solution
    this collapses symbolically to the lam-family expression.  The new
    domain is the preimage of the old one under the point map, inside
    C > 0.
    """
    if isinstance(lam, Expr):
        raise TypeError("transform_solution needs a numeric lam for its domain")
    expr = _pushed_expr(sol, lam)
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

# this process holds the CSV text of the rows it works until every block
# is done, so GridSpec refuses larger grids
MAX_GRID_NODES = 1_000_000


class GridSpec:
    __slots__ = ("x_min", "x_max", "y_min", "y_max", "nx", "ny")

    def __init__(self, x_min: float, x_max: float, y_min: float, y_max: float,
                 nx: int, ny: int):
        if not (x_max > x_min and y_max > y_min):
            raise ValueError("grid extents must have positive span")
        if nx < 1 or ny < 1:
            raise ValueError("grid needs at least one node per axis")
        if nx * ny > MAX_GRID_NODES:
            raise ValueError(f"grid of {nx} x {ny} nodes exceeds {MAX_GRID_NODES} nodes")
        self.x_min = x_min
        self.x_max = x_max
        self.y_min = y_min
        self.y_max = y_max
        self.nx = nx
        self.ny = ny

    def xs(self) -> list[float]:
        return _linspace(self.x_min, self.x_max, self.nx)

    def ys(self) -> list[float]:
        return _linspace(self.y_min, self.y_max, self.ny)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


CSV_HEADER = ("x", "y", "in_domain", "u", "residual")


class ResidualField(NamedTuple):
    """Summary of an instance's pointwise residual on a solution over a
    grid: the largest |residual| over the in-domain nodes (None when there
    are none), their count, and the count of nodes the solution's domain
    admits but that were masked all the same, because u or the residual
    left the real domain or was not finite there.  The nodes themselves go
    to ``residual_grid``'s sink as CSV rows."""

    sup_norm: float | None
    n_in_domain: int
    n_masked_off_real: int


@functools.cache
def symbolic_family_solution() -> Expr:
    """``family_expr(a_sol, lam)``, kept: the u that residual grids compile
    with ``symbolic_family_residual()``."""
    return family_expr(_A_SOL, _LAM)


@functools.cache
def symbolic_family_residual() -> Expr:
    """The family residual, in the symbols of PARAMETERS, on the jet of
    ``family_expr(a_sol, lam)`` with lam symbolic and the solution's own
    exponent parameter a_sol apart from the residual's a: derived once, so
    a grid compiles it with numbers instead of differentiating its
    solution again.  It is a Sum of the five terms of the PDE, uxx, uyy,
    (a/x) ux, -g1 x^r u^c1 and -g2 u^c2, each on that jet."""
    return substitute(symbolic_residual(), _jet(symbolic_family_solution()))


def solution_residual(inst: PDEInstance, sol: ClosedFormSolution) -> Expr:
    """The instance's residual on the solution's jet, as an expression in x
    and y.  A solution with a ``lam`` binds the instance's six numbers, its
    a and its lam into ``symbolic_family_residual()`` in one substitution;
    any other one (a pushforward) has its jet substituted into
    ``inst.delta``.  ``residual_grid`` reads it for a pushforward only: it
    compiles the kept residual of a solution with a ``lam`` with the
    numbers folded in, and this bound form is the reference that folding
    is tested against."""
    if sol.lam is None:
        return substitute(inst.delta, sol.jet())
    return inst.bind(symbolic_family_residual(), a_sol=sol.a, lam=sol.lam)


def residual_grid(inst: PDEInstance, sol: ClosedFormSolution, grid: GridSpec,
                  sink=None) -> ResidualField:
    """Evaluate the instance residual on a closed-form solution and write
    it to the text stream ``sink`` (by default the text is dropped) as
    CSV: the CSV_HEADER line, then one row per node, row-major by y then
    x over ``grid.ys()`` and ``grid.xs()``, numbers with 17 significant
    digits.

    The residual is exact, so any nonzero residual is a genuine failure of
    the solution, not discretization error.  For the family and the base
    solution (a solution with a ``lam``) the kept
    ``symbolic_family_residual()`` and ``symbolic_family_solution()`` are
    compiled in x and y with the instance's six numbers, the solution's a
    and its lam as constants: nothing is substituted or rebuilt per grid,
    and ``residual`` is the ``to_cancellation`` measure over the five
    terms of the PDE, a scale fixed by the equation.  A pushforward
    compiles ``solution_residual(inst, sol)`` and its own u, and its
    measure is over the terms of that bound residual.  The terms cancel on
    a true solution but grow without bound toward the region boundary.
    Nodes outside the solution's domain, and nodes where u or the residual
    leaves the real domain or the residual is not finite, are masked:
    ``in_domain`` is 0 and u and residual are empty; the field counts the
    second kind apart.  A grid of FORK_MIN_NODES nodes or more is worked
    in row blocks (``in_row_blocks``); the field and every byte are the
    same for any block count, and nothing reaches the sink when a block
    fails.
    """
    # one body returns (measure, u): the slots u shares with the residual
    # are computed once per node
    if sol.lam is None:
        measure_and_u = to_cancellation(solution_residual(inst, sol), ("x", "y"), sol.expr)
    else:
        numbers = {**inst.numbers(), "a_sol": sol.a, "lam": sol.lam}
        measure_and_u = to_cancellation(symbolic_family_residual(), ("x", "y"),
                                        symbolic_family_solution(), constants=numbers)
    domain = sol.domain
    columns = [(x, f"{x:.17g}") for x in grid.xs()]
    ys = grid.ys()

    def work(rows: range, write: Callable[[str], object]) -> tuple[float, int, int]:
        """Pass the CSV text of ``rows`` to ``write``, one call per row and
        the header first with row 0; return the sup of |residual| over
        their in-domain nodes (-1.0 where there are none), their count and
        the count of nodes masked off the real domain."""
        if rows.start == 0:
            write(",".join(CSV_HEADER) + "\n")
        sup = -1.0
        count = 0
        off_real = 0
        for j in rows:
            y = ys[j]
            masked = f",{y:.17g},0,,\n"
            inside = f",{y:.17g},1,"
            parts = []
            for x, x_text in columns:
                if domain(x, y):
                    try:
                        res, u = measure_and_u(x, y)
                    except DomainError:
                        # numerically outside the real domain (boundary
                        # roundoff), or a term too large to be finite
                        off_real += 1
                    else:
                        parts.append(f"{x_text}{inside}{u:.17g},{res:.17g}\n")
                        count += 1
                        if abs(res) > sup:
                            sup = abs(res)
                        continue
                parts.append(x_text + masked)
            write("".join(parts))
        return sup, count, off_real

    sup, count, off_real = in_row_blocks(grid.ny, grid.nx * grid.ny, work,
                                         sink.write if sink is not None else lambda text: None)
    return ResidualField(sup if count else None, count, off_real)


# Grids of at least this many nodes are worked in row blocks, one per CPU
# this process may use.  On a 2-core host forking a child breaks even at
# about 5,000 to 10,000 nodes, depending on the other core's load; the
# margin keeps the README's 100x100 grid and every small grid in one
# process.
FORK_MIN_NODES = 20_000
# the block count of such a grid: one where this process cannot fork
ROW_BLOCKS = (len(os.sched_getaffinity(0))
              if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1)
SPOOL_CHUNK = 1 << 16  # bytes of a child's text copied to the sink at a time
# ends a child's spool file: its block's (sup, count, off_real)
_TRAILER = struct.Struct("<dqq")


def in_row_blocks(ny: int, nodes: int,
                  work: Callable[[range, Callable], tuple[float, int, int]],
                  write: Callable[[str], object]) -> tuple[float, int, int]:
    """Work the rows ``range(ny)`` of a grid of ``nodes`` nodes in
    contiguous blocks, pass their text to ``write`` in row order, and
    return the largest sup and the summed counts of the blocks.

    ``work(rows, write)`` works one block: it passes the block's text to
    its ``write`` and returns the block's (sup, count, off_real).  A grid
    below FORK_MIN_NODES nodes is one block.  A larger one is split into
    ROW_BLOCKS blocks (at most one per row): this process works the first
    while each later block runs in a forked child, which writes its text
    and then its (sup, count, off_real) into an unlinked temporary file.
    A block whose child cannot be started is worked here in its turn.  This
    process keeps the text of the blocks it works and writes nothing
    until every child has exited 0; then it writes the blocks in order,
    each child's file SPOOL_CHUNK bytes at a time.  A child that fails
    raises WorkerError.  However this returns, every child has been
    reaped and every file closed.
    """
    n = 1 if nodes < FORK_MIN_NODES else min(ROW_BLOCKS, ny)
    bounds = [ny * i // n for i in range(n + 1)]
    blocks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    children = []  # [rows, pid, spool file]; pid None once reaped or never forked
    try:
        for rows in blocks[1:]:
            children.append([rows, *_fork_block(rows, work)])
        held: list = []  # in row order: text worked here, and each child's spool file
        results = [work(blocks[0], held.append)]
        for child in children:
            rows, pid, fh = child
            if pid is None:
                results.append(work(rows, held.append))
                continue
            _, status = os.waitpid(pid, 0)
            child[1] = None
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                fh.seek(0)
                why = fh.read(2000).decode(errors="replace") if code == 1 else f"exit status {code}"
                raise WorkerError(f"rows {rows.start}-{rows.stop - 1} of the grid failed "
                                  f"in a worker process: {why}")
            held.append(fh)
        for part in held:
            if isinstance(part, str):
                write(part)
                continue
            size = part.seek(-_TRAILER.size, os.SEEK_END)
            results.append(_TRAILER.unpack(part.read()))
            part.seek(0)
            for start in range(0, size, SPOOL_CHUNK):
                write(part.read(min(SPOOL_CHUNK, size - start)).decode("ascii"))
    finally:
        for child in children:
            _, pid, fh = child
            if pid is not None:  # left unread after an error here or in another block
                import signal
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            if fh is not None:
                fh.close()
    sups, counts, off_real = zip(*results)
    return max(sups), sum(counts), sum(off_real)


def _fork_block(rows: range, work) -> tuple[int | None, BinaryIO | None]:
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
        _child(rows, work, fh)
    return pid, fh


def _child(rows: range, work, fh: BinaryIO) -> NoReturn:
    """Work one block in a forked child and leave through os._exit, never
    by unwinding: that would run the parent's ``finally`` blocks and flush
    the buffers it holds.  A failure is reported as the spool's text with
    exit status 1."""
    status = 1
    try:
        fh.write(_TRAILER.pack(*work(rows, lambda text: fh.write(text.encode("ascii")))))
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


def generator_remainder(sol: ClosedFormSolution) -> Expr:
    """d/dlam at lam = 0 of the pushed solution C^(-a/2) u(x~, y~), minus
    the characteristic Q = -a y u - 2xy ux + (x^2 - y^2) uy of the
    exceptional field on the solution's jet, expanded.  The finite action
    differentiates to its generator exactly when this is zero; a
    structural 0 proves it."""
    rate = substitute(diff(_pushed_expr(sol, _LAM), "lam"), {"lam": num(0)})
    jet = sol.jet()
    q = substitute(characteristic(exceptional_vf().bind(a=sol.a)),
                   {"u": jet["u"], "ux": jet["ux"], "uy": jet["uy"]})
    return expand(add(rate, mul(num(-1), q)))


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
