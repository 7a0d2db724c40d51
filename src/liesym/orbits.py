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
from operator import getitem
from typing import BinaryIO, Callable, NamedTuple, NoReturn

from .errors import DomainError, SingularPointError, WorkerError
from .expr import (
    Expr,
    Num,
    add,
    as_expr,
    diff,
    eval_at,
    expand,
    mul,
    num,
    pow_,
    substitute,
    sym,
    to_callable,  # noqa: F401  (unused: perfbench/tracing.py patches orbits.to_callable)
    to_draw_loop,
    to_predicate,
    to_row_kernel,
)
from .family import PDEInstance, exceptional_vf, kept, nonzero_a, scaling_vf, symbolic_residual
from .jets import X, Y, characteristic

_LAM = sym("lam")
# the exponent parameter of the solution in symbolic_family_residual, apart
# from the residual's own a
_A_SOL = sym("a_sol")

# x^2 + y^2 and the conformal factor as expressions (lam symbolic)
_RHO2 = add(pow_(X, num(2)), pow_(Y, num(2)))
_C_EXPR = add(num(1), mul(pow_(_LAM, num(2)), _RHO2), mul(num(2), _LAM, Y))
_B_EXPR = add(Y, mul(_LAM, _RHO2))  # y + lam (x^2 + y^2)
# x^2 - (y + lam (x^2 + y^2))^2, the family's base: its domain is where it is > 0
_S_EXPR = add(pow_(X, num(2)), mul(num(-1), pow_(_B_EXPR, num(2))))


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


@functools.lru_cache(maxsize=1)
def _family_domain(lam: float) -> Callable[[float, float], bool]:
    """The family's domain test, compiled once for the points of a region."""
    return to_predicate((_S_EXPR,), ("x", "y"), {"lam": lam})


class RegionGeometry(NamedTuple):
    """Validity region of the transformed solution: union of two open
    disks minus their closed intersection (inside exactly one)."""

    lam: float
    center1: tuple[float, float]
    center2: tuple[float, float]
    radius: float

    def membership(self, x: float, y: float) -> bool:
        return _family_domain(self.lam)(x, y)

    def xor_disks(self, x: float, y: float) -> bool:
        """The two-disk description of the region: inside exactly one of
        the open disks."""
        (x1, y1), (x2, y2), r = self.center1, self.center2, self.radius
        return (math.hypot(x - x1, y - y1) < r) != (math.hypot(x - x2, y - y2) < r)

    def xor_mismatches(self, samples: int, seed: int) -> int:
        """How many of ``samples`` seeded points of ``xor_check_box`` the
        algebraic membership test and the two disks disagree on, counted
        in one compiled loop (``to_draw_loop``).  Each draw is x, then y,
        as ``lo + (hi - lo) * rng.random()``: the formula of
        ``rng.uniform``, bit for bit.  The membership test is
        ``membership``'s code, where a point with no value is not inside,
        and the disks are ``xor_disks``'s ``math.hypot`` tests."""
        x_lo, x_hi, y_lo, y_hi = self.xor_check_box()
        # Fraction(v) is v exactly, so each number is bound as the double it is
        disks = [num(Fraction(v)) for v in (*self.center1, *self.center2, self.radius)]

        def body(ref, let):
            x1, y1, x2, y2, r = map(ref, disks)
            xor = f"(_hypot(x - {x1}, y - {y1}) < {r}) != (_hypot(x - {x2}, y - {y2}) < {r})"
            return f"({ref(_S_EXPR)} > 0.0) != ({xor})", f"({xor})"

        loop = to_draw_loop((_S_EXPR,), ("x", "y"), ((x_lo, x_hi - x_lo), (y_lo, y_hi - y_lo)),
                            body, {"lam": self.lam})
        return int(loop(samples, seed)[1])  # the total of the 0/1 values

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
    xor-check box (lam below about 1.5e-154): ``membership`` would have no
    value there and disagree with the two disks, which do not overflow.
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


class ClosedFormSolution:
    """Solution expression in (x, y) on the domain where every expression
    of ``positive``, in x, y and lam (bound to ``lam``), is > 0.

    ``lam`` is set where ``expr`` is ``family_expr(a, lam)``: the family,
    the base solution (lam = 0) and the base's pushforward.  Such a
    solution may be made with ``expr`` None: it is built on first read, as
    ``PDEInstance.delta`` is, so a residual grid, which compiles the kept
    family solution, never builds it."""

    def __init__(self, expr: Expr | None, positive: tuple[Expr, ...], label: str,
                 a, lam: Fraction | None = None):
        if expr is None and lam is None:
            raise TypeError("a solution without a lam needs its expr")
        if expr is not None:
            self.expr = expr
        self.positive = positive
        self.label = label
        self.a = a  # Fraction for numeric instances, Expr when kept symbolic
        self.lam = lam

    @functools.cached_property
    def expr(self) -> Expr:
        return family_expr(self.a, self.lam)

    @functools.cached_property
    def domain(self) -> Callable[[float, float], bool]:
        """``domain(x, y)``: whether each of ``positive`` has a value > 0 there."""
        return to_predicate(self.positive, ("x", "y"), {"lam": self.lam or 0})

    def conditions(self) -> tuple[Expr, ...]:
        """``positive`` with lam bound by ``substitute``: expressions in x
        and y alone, each > 0 on the domain."""
        return tuple(substitute(p, {"lam": self.lam or 0}) for p in self.positive)

    def __repr__(self):
        return f"ClosedFormSolution(label={self.label!r}, a={self.a!r}, lam={self.lam!r})"

    def jet(self) -> dict[str, Expr]:
        """u and its derivatives up to second order, symbolically."""
        return _jet(self.expr)

    def value_at(self, x: float, y: float) -> float:
        """u at a point of ``domain``.  A few ulps from the domain's edge
        the tree of u may have no value where ``domain`` reads True; a
        solution with a lam then reads u of the kept family solution with
        its a and lam bound as ``domain`` binds lam, a number."""
        try:
            return eval_at(self.expr, {"x": x, "y": y})
        except DomainError:
            if self.lam is None:
                raise
        return eval_at(substitute(symbolic_family_solution(), {"a_sol": self.a}),
                       {"x": x, "y": y, "lam": float(self.lam)})


def _jet(u: Expr) -> dict[str, Expr]:
    ux, uy = diff(u, "x"), diff(u, "y")
    return {
        "u": u, "ux": ux, "uy": uy,
        "uxx": diff(ux, "x"), "uxy": diff(ux, "y"), "uyy": diff(uy, "y"),
    }


def family_expr(a, lam) -> Expr:
    """[x^2 - (y + lam (x^2 + y^2))^2]^(-a/4); a and lam may be numeric or
    symbolic.  At lam = 0 it is the power solution (x^2 - y^2)^(-a/4)."""
    return pow_(substitute(_S_EXPR, {"lam": as_expr(lam)}), mul(Num(Fraction(-1, 4)), as_expr(a)))


def _solution_a(a):
    return a if isinstance(a, Expr) else nonzero_a(a)


def base_solution(a) -> ClosedFormSolution:
    """The power solution (x^2 - y^2)^(-a/4) on the open wedge |x| > |y|."""
    a = _solution_a(a)
    return ClosedFormSolution(None, (_S_EXPR,), "base", a, Fraction(0))


def family_solution(a, lam) -> ClosedFormSolution:
    """``family_expr(a, lam)`` on its two-disk region.

    lam = 0 degenerates to the base solution; at lam < 0 the region is
    the lam > 0 picture mirrored in y.
    """
    a = _solution_a(a)
    if isinstance(lam, Expr):
        raise TypeError("family_solution needs a numeric lam for its domain; "
                        "family_expr builds the expression alone")
    return ClosedFormSolution(None, (_S_EXPR,), f"family(lam={float(lam)})", a, num(lam).value)


def _pushforward(sol: ClosedFormSolution, lam) -> tuple[Expr, tuple[Expr, ...]]:
    """(C^(-a/2) * u(x~, y~), the pulled-back conditions): C and each of
    the solution's conditions at (x~, y~), times C^2, from one x~, y~ and
    C; lam may be numeric or symbolic."""
    xt, yt = map_point_exprs(lam)
    c = substitute(_C_EXPR, {"lam": as_expr(lam)})
    u = mul(pow_(c, mul(Num(Fraction(-1, 2)), as_expr(sol.a))),
            substitute(sol.expr, {"x": xt, "y": yt}))
    bound = sol.conditions()  # folds before x~, y~
    return u, (c, *(mul(pow_(c, num(2)), substitute(p, {"x": xt, "y": yt})) for p in bound))


@kept
def symbolic_pushforward() -> tuple[Expr, tuple[Expr, ...]]:
    """The pushforward of the base solution over symbolic a_sol and lam,
    kept: ``(u, positive)``, derived once.  Its u is structurally
    ``symbolic_family_solution()``, and its conditions are
    ``(C, x^2 - (y + lam (x^2 + y^2))^2)``."""
    return _pushforward(base_solution(_A_SOL), _LAM)


def transform_solution(sol: ClosedFormSolution, lam) -> ClosedFormSolution:
    """Push a solution along the finite group action: C^(-a/2) * u(x~, y~)
    on C > 0 and the old conditions at (x~, y~), times C^2.

    Where the kept ``symbolic_pushforward()`` is the kept family solution,
    the base solution with a numeric a (or the family at lam = 0) is not
    pushed: its pushforward is the family member of a and lam on the kept
    conditions.  Every other solution is pushed here and has no lam.
    """
    if isinstance(lam, Expr):
        raise TypeError("transform_solution needs a numeric lam for its domain")
    label = f"pushforward(lam={float(lam)}) of {sol.label}"
    if sol.lam == 0 and isinstance(sol.a, Fraction) and sol.positive == (_S_EXPR,):
        u, positive = symbolic_pushforward()
        if u == symbolic_family_solution():
            return ClosedFormSolution(None, positive, label, sol.a, num(lam).value)
    return ClosedFormSolution(*_pushforward(sol, lam), label, sol.a)


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
        # past the double range, _linspace's step and nodes would be inf or nan
        if not (math.isfinite(x_max - x_min) and math.isfinite(y_max - y_min)):
            raise ValueError("grid extents must have a span within the double range")
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
    admits but that were masked all the same, because a value had none
    there or was not finite.  The nodes go to ``residual_grid``'s sink."""

    sup_norm: float | None
    n_in_domain: int
    n_masked_off_real: int


@kept
def symbolic_family_solution() -> Expr:
    """``family_expr(a_sol, lam)``, kept: the u that residual grids compile
    with ``symbolic_family_residual()``."""
    return family_expr(_A_SOL, _LAM)


@kept
def symbolic_family_residual() -> Expr:
    """The family residual, in the symbols of PARAMETERS, on the jet of
    ``family_expr(a_sol, lam)`` with lam symbolic and the solution's own
    exponent parameter a_sol apart from the residual's a: derived once, so
    a grid compiles it with numbers instead of differentiating its
    solution again.  It is a Sum of the five terms of the PDE, uxx, uyy,
    (a/x) ux, -g1 x^r u^c1 and -g2 u^c2, each on that jet."""
    return substitute(symbolic_residual(), _jet(symbolic_family_solution()))


def _kept_residual(sol: ClosedFormSolution) -> tuple[Expr, Expr, dict]:
    """(residual, u, the solution's own numbers): a Sum of the five terms
    of the PDE on u's jet, in the symbols of PARAMETERS.  A solution with
    a lam gives the kept ``symbolic_family_residual()`` and
    ``symbolic_family_solution()`` with its a and lam for ``a_sol`` and
    ``lam``; any other its own jet in ``symbolic_residual()``."""
    if sol.lam is None:
        return substitute(symbolic_residual(), sol.jet()), sol.expr, {}
    return symbolic_family_residual(), symbolic_family_solution(), {"a_sol": sol.a, "lam": sol.lam}


def residual_grid(inst: PDEInstance, sol: ClosedFormSolution, grid: GridSpec,
                  sink=None) -> ResidualField:
    """Evaluate the instance residual on a closed-form solution and write
    it to the text stream ``sink`` (by default the text is dropped) as
    CSV: the CSV_HEADER line, then one row per node, row-major by y then
    x over ``grid.ys()`` and ``grid.xs()``, numbers with 17 significant
    digits.

    The residual is exact, so any nonzero residual is a genuine failure of
    the solution, not discretization error.  The solution's kept residual,
    its u and its ``positive`` (``_kept_residual``; a grid with a lam
    substitutes and rebuilds nothing) are compiled as one ``to_row_kernel``
    in x and y, with the instance's six numbers and the solution's own as
    constants.  ``residual`` is the cancellation measure over the
    five terms of the PDE, which cancel on a true solution but grow without
    bound toward the region boundary.  A node the kernel does not keep is
    masked: ``in_domain`` is 0 and u and residual are empty; the field
    counts the admitted ones apart.  A grid of FORK_MIN_NODES nodes or more is worked in row blocks
    (``in_row_blocks``); the field and every byte are the same for any
    block count, and nothing reaches the sink when a block fails.
    """
    residual, u, own = _kept_residual(sol)
    kernel = to_row_kernel(residual, ("x", "y"), u, positive=sol.positive,
                           constants={**inst.numbers(), **own})
    return _grid_field(kernel, grid, sink)


def _grid_field(kernel: Callable, grid: GridSpec, sink) -> ResidualField:
    """``residual_grid`` past its compile: ``kernel`` is a ``to_row_kernel``
    of the residual with u as its one value."""
    xs = grid.xs()
    row = kernel(xs)
    # the text of each column's node where it is masked and where it is
    # kept, with NUL in place of the row's y
    columns = [(f"{x:.17g},\0,0,,\n", f"{x:.17g},\0,1,%.17g,%.17g\n") for x in xs]
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
            numbers, keep, off = row(y)  # u, residual of each kept node
            text = "".join(map(getitem, columns, keep)).replace("\0", f"{y:.17g}")
            write(text % tuple(numbers))
            if numbers:
                count += len(numbers) // 2
                sup = max(sup, max(map(abs, numbers[1::2])))
            off_real += off
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
    """d/dlam at lam = 0 of the pushed solution C^(-a/2) u(x~, y~) (the u
    of ``_pushforward`` over symbolic lam), minus the characteristic
    Q = -a y u - 2xy ux + (x^2 - y^2) uy of the exceptional field on the
    solution's jet, expanded.  The finite action differentiates to its
    generator exactly when this is zero; a structural 0 proves it."""
    rate = substitute(diff(_pushforward(sol, _LAM)[0], "lam"), {"lam": num(0)})
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
