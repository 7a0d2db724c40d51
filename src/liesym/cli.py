"""Command-line interface.

Every subcommand prints a JSON report (stdout, or ``--output`` for most
commands; ``residual-grid`` sends the CSV field to ``--output`` and the
JSON summary to stdout).  Exit codes: 0 when the checked property is
verified, 1 when it is refuted or inconclusive, 2 on usage errors and
when ``--output`` cannot be written.
Reports are deterministic for a fixed seed; the timestamp field sits on
its own line so two runs can be compared modulo that line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .errors import DomainError, LiesymError
from .expr import (
    SampleSpec,
    clear_memo,
    equiv_numeric,
    eval_at,  # noqa: F401  (unused: perfbench/tracing.py patches cli.eval_at)
    to_text,
)
from .family import (
    NAMED_FIELDS,
    PARAMETERS,
    PRESETS,
    build_instance,
    check_onshell_symmetry,
    exceptional_exponents,
)
from .jets import DEFAULT_SAMPLES, DEFAULT_SEED, DEFAULT_TOL, REFUTE_THRESHOLD
from .orbits import (
    GridSpec,
    ResidualField,
    base_solution,
    conformal_factor,
    family_solution,
    map_point,
    region,
    residual_grid,
    transform_solution,
)
from .reduction import (
    anti_reduction,
    reduce_to_invariant,  # noqa: F401  (unused: perfbench/tracing.py patches cli.reduce_to_invariant)
    split_by_x2,  # noqa: F401  (unused: perfbench/tracing.py patches cli.split_by_x2)
    verify_ode,  # noqa: F401  (unused: perfbench/tracing.py patches cli.verify_ode)
    weak_cs_report,
)

def emit_csv(inst, sol, grid: GridSpec, sink) -> ResidualField:
    """Write the residual field of ``sol`` for ``inst`` over ``grid`` to
    ``sink`` as CSV and return its summary: the command's CSV stage, under
    the name that perfbench/tracing.py times."""
    return residual_grid(inst, sol, grid, sink)


def _timestamp() -> str:
    """The current time in UTC as ISO 8601, the text that
    ``datetime.now(timezone.utc).isoformat()`` gives: the microseconds are
    left out when they are 0."""
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    text = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return f"{text}.{micros:06d}+00:00" if micros else f"{text}+00:00"


def _print_report(report: dict, out, path: str | None) -> None:
    report["timestamp"] = _timestamp()
    text = json.dumps(report, indent=2, allow_nan=False)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        out.write(text + "\n")


def _decimal(text: str) -> Fraction:
    """Argparse type for an exact number, a decimal literal or ``p/q``.  A
    decimal literal must lie in the double range: its float may be neither
    infinite nor 0.0 while its digits are not all zero.  That is checked
    on ``float(text)`` before the exact value is built, which for a
    literal like ``1e10000000`` takes seconds."""
    try:
        approx = float(text)
    except ValueError:
        approx = None  # p/q, or not a number: Fraction decides
    if approx is not None and any(ch.isdigit() for ch in text):  # not inf or nan
        mantissa = text.lower().partition("e")[0]
        if math.isinf(approx) or approx == 0.0 and any(ch in mantissa for ch in "123456789"):
            raise argparse.ArgumentTypeError(f"outside the double range: {text!r}")
        if approx == 0.0:
            return Fraction(0)  # without building the exponent's power of ten
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a decimal number: {text!r}")


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _tolerance(text: str) -> float:
    """Argparse type for residual-grid's ``--tol``: a tolerance at or above
    the refutation threshold would pass a grid whose residual a sampled
    check reads as nonzero."""
    value = _finite(text)
    if not 0 <= value < REFUTE_THRESHOLD:
        raise argparse.ArgumentTypeError(
            f"must be at least 0 and below {REFUTE_THRESHOLD:g}, got {text}")
    return value


def _given_together(args, *names: str) -> bool:
    """Whether every flag of ``names`` (argparse dests) was given; some but
    not all is a usage error naming the missing ones."""
    flags = {f"--{name.replace('_', '-')}": getattr(args, name) is None for name in names}
    given = ", ".join(flag for flag, absent in flags.items() if not absent)
    missing = ", ".join(flag for flag, absent in flags.items() if absent)
    if given and missing:
        raise argparse.ArgumentTypeError(f"{given} given without {missing}")
    return not missing


def _at_least(low: int):
    """Argparse type for an integer count no smaller than ``low``."""
    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return count


def _instance_from_args(args) -> tuple[object, str]:
    if args.preset:
        given = [name for name in PARAMETERS if getattr(args, name) is not None]
        if given:
            raise argparse.ArgumentTypeError(
                f"--preset given with {', '.join('--' + g for g in given)}")
        return PRESETS[args.preset](), args.preset  # argparse's choices are PRESETS
    missing = [name for name in PARAMETERS if getattr(args, name) is None]
    if missing:
        raise argparse.ArgumentTypeError(
            f"--preset or all of {', '.join('--' + m for m in missing)} required")
    return build_instance(*(getattr(args, name) for name in PARAMETERS)), "custom"


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    for name in PARAMETERS:
        p.add_argument(f"--{name}", type=_decimal, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liesym",
        description="Verification pipelines for the exceptional symmetry "
                    "of the quasi-linear residual family.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponents", help="exceptional exponent pair for (a, r)")
    p.add_argument("--a", type=_decimal, required=True)
    p.add_argument("--r", type=_decimal, required=True)
    p.add_argument("--output", default=None)

    p = sub.add_parser("check-symmetry", help="on-shell symmetry verdict")
    _add_instance_flags(p)
    p.add_argument("--field", choices=sorted(NAMED_FIELDS), default="X")
    p.add_argument("--samples", type=_at_least(1), default=DEFAULT_SAMPLES)
    _sampling_flags(p)

    p = sub.add_parser("transform", help="finite group action on the power solution")
    p.add_argument("--a", type=_decimal, default=Fraction(-1))
    p.add_argument("--lambda", dest="lam", type=_decimal, required=True)
    p.add_argument("--x", type=_finite, default=None)
    p.add_argument("--y", type=_finite, default=None)
    p.add_argument("--samples", type=_at_least(0), default=64)
    _sampling_flags(p)

    p = sub.add_parser("residual-grid", help="residual of a closed-form solution on a grid")
    _add_instance_flags(p)
    p.add_argument("--solution", choices=("base", "family"), default="base")
    p.add_argument("--lambda", dest="lam", type=_decimal, default=None,
                   help="the family's lambda (default 1); the base solution takes none")
    p.add_argument("--x-min", type=_finite, default=None)
    p.add_argument("--x-max", type=_finite, default=None)
    p.add_argument("--y-min", type=_finite, default=None)
    p.add_argument("--y-max", type=_finite, default=None)
    p.add_argument("--nx", type=_at_least(1), default=50)
    p.add_argument("--ny", type=_at_least(1), default=50)
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.add_argument("--output", default=None)

    p = sub.add_parser("region", help="two-disk validity region geometry")
    p.add_argument("--lambda", dest="lam", type=_decimal, required=True)
    p.add_argument("--x", type=_finite, default=None)
    p.add_argument("--y", type=_finite, default=None)
    p.add_argument("--samples", type=_at_least(0), default=0,
                   help="check the algebraic membership against the disk "
                        "description on this many random points")
    _sampling_flags(p)

    p = sub.add_parser("reduce", help="invariant-variable reduction and ODE split")
    _add_instance_flags(p)
    p.add_argument("--output", default=None)

    p = sub.add_parser("weak-cs", help="weak conditional symmetry chain")
    _add_instance_flags(p)
    p.add_argument("--samples", type=_at_least(1), default=DEFAULT_SAMPLES)
    p.add_argument("--consequences", action="store_true",
                   help="echoed as include_consequences; adds nothing: the invariance "
                        "condition Q, D_x Q and D_y Q vanish on the last stage's jet")
    _sampling_flags(p)

    parser.commands = sub.choices  # each command's own parser, read by run
    return parser


def _sampling_flags(p: argparse.ArgumentParser) -> None:
    """The flags of a command that draws points: ``--seed`` and ``--output``."""
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output", default=None)


def _frac_fields(name: str, value: Fraction) -> dict:
    return {name: float(value), f"{name}_exact": str(value)}


# Each handler takes the parsed arguments and the stdout sink and returns
# the report fields after "command" together with whether the checked
# property holds; ``run`` prints the report and picks the exit code.

def _cmd_exponents(args, out) -> tuple[dict, bool]:
    c1, c2 = exceptional_exponents(args.a, args.r)
    return {**_frac_fields("a", args.a), **_frac_fields("r", args.r),
            **_frac_fields("c1", c1), **_frac_fields("c2", c2)}, True


def _cmd_check_symmetry(args, out) -> tuple[dict, bool]:
    inst, label = _instance_from_args(args)
    verdict = check_onshell_symmetry(NAMED_FIELDS[args.field](), inst,
                                     n_samples=args.samples, seed=args.seed)
    return {
        "instance": label,
        "parameters": inst.params_text(),
        "is_exceptional": inst.is_exceptional,
        "field": args.field,
        "samples": args.samples,
        "seed": args.seed,
        **verdict.to_dict(),
    }, verdict.admitted


def _family_box(lam: Fraction) -> tuple[float, float, float, float]:
    """The bounding box of the family's region at lam != 0: the box of the
    two disks of |lam|, mirrored in y where lam < 0."""
    x_lo, x_hi, y_lo, y_hi = region(abs(float(lam))).bounding_box()
    return (x_lo, x_hi, -y_hi, -y_lo) if lam < 0 else (x_lo, x_hi, y_lo, y_hi)


def _cmd_transform(args, out) -> tuple[dict, bool]:
    at_point = _given_together(args, "x", "y")
    lam = args.lam
    pushed = transform_solution(base_solution(args.a), lam)
    # a pushforward with a lam is the family member of a and lam
    family = pushed if pushed.lam is not None else family_solution(args.a, lam)
    structural = pushed.expr == family.expr

    equiv_report = None
    if args.samples > 0 and lam != 0:
        # a structural match draws nothing, so it needs no box, nor the
        # checks region() makes for drawing from one, nor the family's
        # conditions to draw within
        intervals = None
        if not structural:
            x_lo, x_hi, y_lo, y_hi = _family_box(lam)
            intervals = {"x": (x_lo, x_hi), "y": (y_lo, y_hi)}
        spec = SampleSpec(
            count=args.samples, rel_tol=1e-12, seed=args.seed,
            intervals=intervals, positive=() if structural else family.conditions(),
        )
        res = equiv_numeric(pushed.expr, family.expr, spec)
        equiv_report = {"equivalent": res.equivalent, "samples": res.samples}

    pushed_text = to_text(pushed.expr)
    fields = {
        "a": str(args.a),
        "lambda": str(lam),
        "seed": args.seed,
        "transformed_expr": pushed_text,
        "family_expr": pushed_text if structural else to_text(family.expr),
        "structural_match": structural,
        "equiv": equiv_report,
    }
    if at_point:
        c = conformal_factor(args.x, args.y, float(lam))
        mapped = map_point(args.x, args.y, float(lam)) if c != 0.0 else None
        if not all(map(math.isfinite, (c, *(mapped or ())))):
            raise argparse.ArgumentTypeError(
                f"--x={args.x!r} --y={args.y!r}: the conformal factor or the mapped "
                f"point overflows the double range")
        in_dom = pushed.domain(args.x, args.y)
        point = {
            "x": args.x, "y": args.y, "C": c,
            "mapped": list(mapped) if mapped else None,
            "in_domain": in_dom,
        }
        if in_dom:
            try:
                point["u"] = pushed.value_at(args.x, args.y)
            except DomainError:  # in the domain, only an overflow is left
                raise argparse.ArgumentTypeError(
                    f"--x={args.x!r} --y={args.y!r}: u overflows the double range "
                    f"at this point") from None
        fields["point"] = point
    return fields, structural and (equiv_report is None or equiv_report["equivalent"])


def _default_grid(args) -> GridSpec:
    if _given_together(args, "x_min", "x_max", "y_min", "y_max"):
        return GridSpec(args.x_min, args.x_max, args.y_min, args.y_max,
                        args.nx, args.ny)
    if args.solution == "base" or args.lam == 0:  # the family at lam = 0 is the base
        return GridSpec(1.0, 2.0, -0.5, 0.5, args.nx, args.ny)
    return GridSpec(*_family_box(args.lam), args.nx, args.ny)


def _cmd_residual_grid(args, out) -> tuple[dict, bool]:
    inst, label = _instance_from_args(args)
    if args.solution == "base":
        if args.lam is not None:
            raise argparse.ArgumentTypeError("--lambda given with --solution base")
        sol = base_solution(inst.a)
    else:
        if args.lam is None:
            args.lam = Fraction(1)
        sol = family_solution(inst.a, args.lam)
    grid = _default_grid(args)
    # opened before the grid is evaluated, so a bad path costs no evaluation;
    # a file this run created is removed again when the command fails
    sink, created = out, False
    if args.output:
        try:
            sink, created = open(args.output, "x"), True
        except FileExistsError:
            sink = open(args.output, "w")
    try:
        field = emit_csv(inst, sol, grid, sink)
        if sink is not out:
            sink.close()  # inside the try: a failed final flush fails the command
    except BaseException:
        if created:
            os.unlink(args.output)
        raise
    finally:
        if sink is not out:
            sink.close()

    within = field.sup_norm is not None and field.sup_norm <= args.tol
    return {
        "instance": label,
        "parameters": inst.params_text(),
        "solution": sol.label,
        "grid": {
            "x_min": grid.x_min, "x_max": grid.x_max,
            "y_min": grid.y_min, "y_max": grid.y_max,
            "nx": grid.nx, "ny": grid.ny,
        },
        "in_domain_nodes": field.n_in_domain,
        "masked_off_real_nodes": field.n_masked_off_real,
        "sup_residual": field.sup_norm,
        "tolerance": args.tol,
        "within_tolerance": within,
        "csv_path": args.output,
    }, within


def _cmd_region(args, out) -> tuple[dict, bool]:
    at_point = _given_together(args, "x", "y")
    geo = region(float(args.lam))
    fields = {
        "lambda": str(args.lam),
        "center1": list(geo.center1),
        "center2": list(geo.center2),
        "radius": geo.radius,
    }
    if at_point:
        fields["point"] = {
            "x": args.x, "y": args.y,
            "member": geo.membership(args.x, args.y),
        }
    mismatches = 0
    if args.samples > 0:
        mismatches = geo.xor_mismatches(args.samples, args.seed)
        fields["xor_check"] = {"samples": args.samples, "mismatches": mismatches}
    return fields, mismatches == 0


def _cmd_reduce(args, out) -> tuple[dict, bool]:
    inst, label = _instance_from_args(args)
    route = anti_reduction(inst)
    return {
        "instance": label,
        "parameters": inst.params_text(),
        "reduced": to_text(route.reduced),
        "ode_a": to_text(route.ode_a),
        "ode_b": to_text(route.ode_b),
        "profile": to_text(route.profile),
        "profile_gamma1": str(route.gamma1),
        "profile_gamma2": str(route.gamma2),
        "gammas_match_profile": (inst.gamma1 == route.gamma1 and inst.gamma2 == route.gamma2),
        "residual_a": to_text(route.residual_a),
        "residual_b": to_text(route.residual_b),
        "profile_solves_both": route.solved,
    }, route.solved


def _cmd_weak_cs(args, out) -> tuple[dict, bool]:
    inst, label = _instance_from_args(args)
    rep = weak_cs_report(inst, n_samples=args.samples, seed=args.seed)
    # the report's own "instance" (the parameter mapping) replaces the label
    return {
        "instance": label,
        "samples": args.samples,
        "seed": args.seed,
        "include_consequences": args.consequences,
        **rep.to_dict(),
    }, rep.confirmed


_HANDLERS = {
    "exponents": _cmd_exponents,
    "check-symmetry": _cmd_check_symmetry,
    "transform": _cmd_transform,
    "residual-grid": _cmd_residual_grid,
    "region": _cmd_region,
    "reduce": _cmd_reduce,
    "weak-cs": _cmd_weak_cs,
}


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace that ``build_parser().parse_args(argv)`` gives, in one
    pass: a command line that starts with a command is read by that
    command's own parser, which the top-level pass would hand all of it
    to.  Anything else (no argument, ``-h``, ``--version``, an unknown
    command) goes through the top-level parser."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    return command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def run(argv: list[str], out=None, err=None) -> int:
    """Entry point used by both the console script and the tests.

    Expressions memoized by the kernel while a command runs are dropped
    when it ends, however it ends.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        with contextlib.redirect_stderr(err):  # argparse writes usage errors there
            args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        fields, ok = _HANDLERS[args.command](args, out)
        # residual-grid's --output is its CSV; its report stays on stdout
        path = None if args.command == "residual-grid" else args.output
        _print_report({"command": args.command, **fields}, out, path)
        return 0 if ok else 1
    except argparse.ArgumentTypeError as exc:
        err.write(f"error: {exc}\n")
        return 2
    except LiesymError as exc:
        err.write(f"error: {exc}\n")
        return 1
    except ValueError as exc:
        err.write(f"error: {exc}\n")
        return 2
    except OverflowError as exc:  # a derived exact value past the double range
        err.write(f"error: a value is outside the double range ({exc})\n")
        return 2
    except OSError as exc:  # --output cannot be opened or written
        err.write(f"error: {exc}\n")
        return 2
    finally:
        clear_memo()  # only the handler builds expressions


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
