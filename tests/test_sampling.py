"""Seeded sampling behind every sampled verdict: the compiled draw loops
against the loops they replaced, the refusal of empty sample counts, the
error every exhausted budget raises, and a guard that every check draws
from a generator built in one place; next to it, a guard that every
public name of the package has a reader."""

import ast
import math
import random
import re
import struct
from fractions import Fraction
from pathlib import Path

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # optional test dependency, as in test_expr.py
    st = None

from liesym import (
    ClosedFormSolution,
    ConstraintSystem,
    DomainError,
    SampleSpec,
    SamplingError,
    equiv_numeric,
    gss_preset,
    parse,
    restricted_eval,
    rotation_like_vf,
    check_onshell_symmetry,
    cli,
    expr,
    family_expr,
    jets,
    orbits,
    sample_remainder,
)
from liesym.expr import add, expand, is_zero, mul, num, pow_, sym, to_cancellation, to_predicate
from liesym.jets import JET_NAMES, sample_jet_point

from test_cli import run_cli

SRC = Path(__file__).resolve().parents[1] / "src" / "liesym"


def _reference_remainder(remainder, n, seed):
    """(max_abs, mean_abs, worst_point, resampled) of a remainder by the
    loop the sampled checks ran before it was compiled: the compiled
    measure called at each ``sample_jet_point``, a DomainError redrawn,
    redraw number 10 n raising SamplingError."""
    measure = to_cancellation(remainder, JET_NAMES)
    rng = random.Random(seed)
    accepted = redrawn = 0
    total, max_abs, worst = 0.0, -1.0, None
    while accepted < n:
        point = sample_jet_point(rng)
        try:
            value = abs(measure(*point))
        except DomainError:
            redrawn += 1
            if redrawn >= 10 * n:
                raise SamplingError(f"exceeded retry budget ({10 * n}) "
                                    f"after {accepted}/{n} samples") from None
            continue
        accepted += 1
        total += value
        if value > max_abs:
            max_abs, worst = value, point
    return max_abs, total / n, worst, redrawn


def _reference_mismatches(geo, n, seed):
    """The draws of ``xor_check_box`` by ``rng.uniform``, x then y, where
    ``membership`` and ``xor_disks`` disagree."""
    x_lo, x_hi, y_lo, y_hi = geo.xor_check_box()
    rng = random.Random(seed)
    count = 0
    for _ in range(n):
        x = rng.uniform(x_lo, x_hi)
        y = rng.uniform(y_lo, y_hi)
        count += geo.membership(x, y) != geo.xor_disks(x, y)
    return count


def _reference_equiv(e1, e2, spec):
    """(equivalent, samples, witness) of ``equiv_numeric`` by a plain
    loop: ``rng.uniform`` per sorted name, a draw accepted where
    ``to_predicate(positive)`` holds and the compiled measure has a value,
    the verdict read from the largest |measure| of ``count`` draws."""
    difference = expand(add(e1, mul(num(-1), e2)))
    if is_zero(difference):
        return True, spec.count, None
    names = sorted(frozenset().union(e1.free_symbols(), e2.free_symbols(),
                                     *(c.free_symbols() for c in spec.positive)))
    admit = to_predicate(spec.positive, names)
    measure = to_cancellation(difference, names)
    rng = random.Random(spec.seed)
    accepted = redrawn = 0
    max_abs, worst = -1.0, None
    while accepted < spec.count:
        point = [rng.uniform(*spec.intervals.get(n, (0.5, 2.0))) for n in names]
        try:
            value = abs(measure(*point)) if admit(*point) else None
        except DomainError:
            value = None
        if value is None:
            redrawn += 1
            if redrawn >= 10 * spec.count:
                raise SamplingError(f"exceeded retry budget ({10 * spec.count}) "
                                    f"after {accepted}/{spec.count} samples")
            continue
        accepted += 1
        if value > max_abs:
            max_abs, worst = value, point
    if max_abs <= spec.rel_tol:
        return True, spec.count, None
    return False, spec.count, dict(zip(names, worst))


def _outcome(f, *args):
    """What ``f(*args)`` returns, or the text of its SamplingError."""
    try:
        return f(*args)
    except SamplingError as exc:
        return str(exc)


def _sampled(remainder, n, seed):
    got = sample_remainder(remainder, n, seed)
    return got.max_abs, got.mean_abs, got.worst_point, got.resampled


def _region_guard_ends():
    """The smallest and the largest lam that ``region`` accepts, by
    bisection on the bits of positive doubles, which order as integers."""
    def to_bits(v):
        return struct.unpack("<q", struct.pack("<d", v))[0]

    def accepts(bits):
        try:
            orbits.region(struct.unpack("<d", struct.pack("<q", bits))[0])
        except ValueError:
            return False
        return True

    def last_accepted(good, bad):
        while abs(bad - good) > 1:
            mid = (good + bad) // 2
            good, bad = (mid, bad) if accepts(mid) else (good, mid)
        return struct.unpack("<d", struct.pack("<q", good))[0]

    return (last_accepted(to_bits(1.0), to_bits(1e-160)),
            last_accepted(to_bits(1.0), to_bits(1e160)))


LAM_ENDS = _region_guard_ends()


class TestCompiledLoop:
    """``to_draw_loop``'s loops draw, evaluate and redraw as the loops they
    replaced: the generator is called as often, in the same order, and
    every value comes from the same operations."""

    JET = [sym(n) for n in JET_NAMES]

    def test_a_coordinate_no_root_holds_is_mapped_into_the_worst_point(self):
        # ux alone: seven coordinates are drawn and mapped only at a new maximum
        remainder = add(pow_(self.JET[3], num(3)), num(Fraction(1, 3)))
        assert _sampled(remainder, 50, 8) == _reference_remainder(remainder, 50, 8)

    def test_partial_domain_redraws_and_empty_domain_exhausts(self):
        # (x - 1)^(1/2) holds on two thirds of x's range, (-x)^(1/2) nowhere
        partial = mul(num(3), pow_(add(self.JET[0], num(-1)), num(Fraction(1, 2))), self.JET[2])
        got = _sampled(partial, 120, 5)
        assert got == _reference_remainder(partial, 120, 5)
        assert got[3] > 0  # redraws
        empty = pow_(mul(num(-1), self.JET[0]), num(Fraction(1, 2)))
        with pytest.raises(SamplingError) as exc:
            sample_remainder(empty, n_samples=7, seed=5)
        assert str(exc.value) == _outcome(_reference_remainder, empty, 7, 5) == \
            "exceeded retry budget (70) after 0/7 samples"
        # (x - 39/20)^(1/2) holds on a thirtieth of it: the budget runs out
        # after some accepted draws
        sliver = pow_(add(self.JET[0], num(Fraction(-39, 20))), num(Fraction(1, 2)))
        with pytest.raises(SamplingError) as exc:
            sample_remainder(sliver, n_samples=40, seed=5)
        assert str(exc.value) == _outcome(_reference_remainder, sliver, 40, 5)
        assert "after 0/" not in str(exc.value)

    def test_budget_is_ten_times_count_in_redraws(self, monkeypatch):
        # eight generator calls per jet point, and redraw number 70 raises
        calls = []

        class Counting(random.Random):
            def random(self):
                calls.append(None)
                return super().random()

        monkeypatch.setattr(expr, "seeded_generator", lambda count, seed: Counting(seed))
        empty = pow_(mul(num(-1), self.JET[0]), num(Fraction(1, 2)))
        with pytest.raises(SamplingError, match=r"retry budget \(70\) after 0/7 samples"):
            sample_remainder(empty, n_samples=7, seed=5)
        assert len(calls) == 70 * 8

    if st is not None:
        _COEFFS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4))
        _MONOMIALS = st.builds(
            lambda c, factors: mul(num(c), *factors), _COEFFS,
            st.lists(st.builds(pow_, st.sampled_from(JET), st.integers(-2, 3).map(num)),
                     max_size=3))
        # c + k s to a fractional power, s a jet coordinate: with c in [-3, 3]
        # the base is negative on none, part or all of the jet box
        _ROOTS = st.builds(
            lambda c, k, s, p, q, factor: mul(
                pow_(add(num(Fraction(c, 4)), mul(num(k), s)), num(Fraction(p, q))), factor),
            st.integers(-12, 12), st.sampled_from([-1, 1, 2]), st.sampled_from(JET),
            st.integers(-3, 3).filter(bool), st.sampled_from([2, 3, 4]), _MONOMIALS)
        _REMAINDERS = st.lists(st.one_of(_MONOMIALS, _ROOTS), min_size=1, max_size=4).map(
            lambda terms: add(*terms))

        @settings(max_examples=150, deadline=None, database=None)
        @given(_REMAINDERS, st.integers(1, 300), st.integers(0, 2**32))
        def test_remainder_loop_is_the_reference_loop(self, remainder, n, seed):
            assert (_outcome(_sampled, remainder, n, seed)
                    == _outcome(_reference_remainder, remainder, n, seed))

        # lam log-uniform between the guard ends, and the ends themselves
        _LAMS = st.one_of(
            st.sampled_from(LAM_ENDS),
            st.floats(math.log(LAM_ENDS[0]), math.log(LAM_ENDS[1])).map(
                lambda t: min(max(math.exp(t), LAM_ENDS[0]), LAM_ENDS[1])))

        @settings(max_examples=150, deadline=None, database=None)
        @given(_LAMS, st.floats(0.8, 1.25), st.integers(1, 300), st.integers(0, 2**32))
        def test_region_loop_counts_the_reference_mismatches(self, lam, widen, n, seed):
            # the two descriptions agree on the true geometry; widened (or
            # narrowed) disks disagree on a band, so the count sees each draw
            geo = orbits.region(lam)
            geo = geo._replace(radius=widen * geo.radius)
            assert geo.xor_mismatches(n, seed) == _reference_mismatches(geo, n, seed)

        _XYZ = [sym(n) for n in "xyz"]
        _SIDES = st.lists(st.one_of(
            st.builds(lambda c, factors: mul(num(c), *factors), _COEFFS,
                      st.lists(st.builds(pow_, st.sampled_from(_XYZ), st.integers(-2, 3).map(num)),
                               max_size=3)),
            # c + k s to a fractional power: negative on none, part or all of a box
            st.builds(lambda c, k, s, p: pow_(add(num(Fraction(c, 4)), mul(num(k), s)),
                                              num(Fraction(p, 2))),
                      st.integers(-12, 12), st.sampled_from([-1, 1, 2]), st.sampled_from(_XYZ),
                      st.integers(-3, 3).filter(bool))),
            min_size=1, max_size=3).map(lambda terms: add(*terms))
        # c + k s > 0 holds on none, part or all of a box; -(x^2) - 1 > 0 nowhere
        _CONDITIONS = st.lists(st.one_of(
            st.builds(lambda c, k, s: add(num(Fraction(c, 4)), mul(num(k), s)),
                      st.integers(-4, 12), st.sampled_from([-1, 1]), st.sampled_from(_XYZ)),
            st.just(add(mul(num(-1), pow_(sym("x"), num(2))), num(-1)))),
            max_size=2).map(tuple)
        _INTERVALS = st.dictionaries(
            st.sampled_from("xyz"),
            st.builds(lambda lo, width: (lo, lo + width), st.floats(-2.0, 2.0),
                      st.floats(0.0, 3.0)))

        @settings(max_examples=150, deadline=None, database=None)
        @given(_SIDES, st.one_of(_SIDES, st.just(num(0))), _CONDITIONS, _INTERVALS,
               st.sampled_from([1e-9, 0.5, 2.0]), st.integers(1, 300), st.integers(0, 2**32))
        def test_equiv_loop_is_the_reference_loop(self, e1, e2, positive, intervals,
                                                  rel_tol, n, seed):
            spec = SampleSpec(count=n, rel_tol=rel_tol, seed=seed, intervals=intervals,
                              positive=positive)
            assert (_outcome(lambda: tuple(equiv_numeric(e1, e2, spec)))
                    == _outcome(_reference_equiv, e1, e2, spec))

    def test_region_guard_ends(self):
        low, high = LAM_ENDS
        assert 1.4e-154 < low < 1.6e-154 and 4.6e153 < high < 4.8e153
        for lam in (math.nextafter(low, 0.0), math.nextafter(high, math.inf)):
            with pytest.raises(ValueError):
                orbits.region(lam)


def _onshell(n):
    # Y's remainder on GSS holds x^(-1); X's is 0, defined everywhere
    return check_onshell_symmetry(rotation_like_vf(), gss_preset(), n_samples=n)


def _restricted(n, target=None):
    gss = gss_preset()
    return restricted_eval(target or gss.delta, ConstraintSystem((gss.delta,), ("uyy",)),
                           n_samples=n)


def _equiv(n, positive=()):
    return equiv_numeric(parse("x"), parse("x + 1"), SampleSpec(count=n, positive=positive))


ENTRY_POINTS = {
    "check_onshell_symmetry": _onshell,
    "restricted_eval": _restricted,
    "equiv_numeric": _equiv,
    # the count is refused ahead of the shortcut that samples nothing
    "equiv_numeric_structural_zero": lambda n: equiv_numeric(parse("x"), parse("x"),
                                                             SampleSpec(count=n)),
    "region_xor_check": lambda n: orbits.region(1.0).xor_mismatches(n, seed=0),
}


@pytest.mark.parametrize("count", [0, -1])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_counts_below_one_are_refused(entry, count):
    # no samples is no evidence: equiv_numeric used to call x and x+1 equal
    # and restricted_eval divided by zero
    with pytest.raises(ValueError, match="at least one sample"):
        ENTRY_POINTS[entry](count)


def _x_at_zero(monkeypatch):
    # every sampled remainder draws its jet points from jets._JET_BOXES,
    # (lo, span) per coordinate: x = 0.0 + 0.0 * random() at every draw
    monkeypatch.setattr(jets, "_JET_BOXES", ((0.0, 0.0), *jets._JET_BOXES[1:]))


class TestExhaustedBudget:
    """An acceptance test that never holds ends in SamplingError, a
    LiesymError the CLI reports with exit 1."""

    def test_check_onshell_symmetry(self, monkeypatch):
        _x_at_zero(monkeypatch)  # a/x leaves the real domain
        with pytest.raises(SamplingError):
            _onshell(5)

    def test_restricted_eval(self):
        # x >= 1/2 on the jet box: (-x)^(1/2) is off the real domain at every draw
        with pytest.raises(SamplingError):
            _restricted(5, target=parse("(-x)^(1/2)"))

    def test_equiv_numeric(self):
        with pytest.raises(SamplingError):
            _equiv(5, positive=(num(-1),))

    @pytest.mark.parametrize("argv", [
        ["check-symmetry", "--preset", "gss", "--field", "Y", "--samples", "5"],
        ["weak-cs", "--preset", "gss", "--samples", "5"],
    ], ids=["check-symmetry", "weak-cs"])
    def test_cli_exits_one(self, argv, monkeypatch):
        _x_at_zero(monkeypatch)
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert "retry budget" in err

    def test_cli_transform_exits_one(self, monkeypatch):
        # a structural match is not sampled, so the family is moved to 2 lam,
        # where the difference is not 0, on a domain that holds nowhere
        def moved(a, lam):
            return ClosedFormSolution(family_expr(a, 2 * lam), (num(-1),), "moved", a)

        monkeypatch.setattr(cli, "family_solution", moved)
        code, out, err = run_cli(["transform", "--lambda", "1", "--samples", "5"])
        assert (code, out) == (1, "")
        assert "retry budget" in err


def test_one_seeded_generator_in_the_package():
    """random.Random is built in one place, the generator every sampled
    verdict draws from, whose count check and seeding they share."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                scopes[child] = node
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in (
                    "random.Random", "Random"):
                owner = []
                parent = scopes.get(node)
                while parent is not None:
                    if isinstance(parent, (ast.FunctionDef, ast.ClassDef)):
                        owner.append(parent.name)
                    parent = scopes.get(parent)
                sites.append((path.name, ".".join(reversed(owner))))
    assert sites == [("expr.py", "seeded_generator")]


def test_every_public_name_is_used():
    """Each public top-level name of the package is read somewhere other
    than its own definition: by another definition in the package, by a
    test or by the README.  Re-exporting it from __init__ does not count."""

    def defined(stmt):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            return {stmt.name}
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [getattr(stmt, "target", None)])
        return {t.id for t in targets if isinstance(t, ast.Name)}

    def read(node):
        return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}

    public, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = defined(stmt)
            public |= {(path.stem, name) for name in own if not name.startswith("_")}
            used |= read(stmt) - own
    for path in sorted(Path(__file__).parent.glob("*.py")):
        used |= read(ast.parse(path.read_text()))
    used |= set(re.findall(r"\w+", (SRC.parents[1] / "README.md").read_text()))
    assert sorted(f"{m}.{name}" for m, name in public if name not in used) == []
