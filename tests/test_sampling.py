"""The one seeded rejection sampler behind every sampled verdict: its
redraw budget, its refusal of empty sample counts, the error every
exhausted budget raises, and a guard that no second sampling loop
creeps back into the package; next to it, a guard that every public
name of the package has a reader."""

import ast
import random
import re
from pathlib import Path

import pytest

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
    family_expr,
    jets,
    orbits,
    sample_in_region,
)
from liesym.expr import RejectionSampler, num

from test_cli import run_cli

SRC = Path(__file__).resolve().parents[1] / "src" / "liesym"


class TestRejectionSampler:
    def test_yields_accepted_values_in_draw_order(self):
        def sample(rng):
            v = rng.random()
            return v if v > 0.5 else None

        sampler = RejectionSampler(5, 3, sample)
        rng = random.Random(3)
        draws = [rng.random() for _ in range(100)]
        expected = [v for v in draws if v > 0.5][:5]
        assert list(sampler) == expected
        assert sampler.resampled == draws.index(expected[-1]) + 1 - 5

    def test_domain_error_redraws(self):
        calls = []

        def sample(rng):
            calls.append(rng.random())
            if len(calls) % 2:
                raise DomainError("outside")
            return calls[-1]

        sampler = RejectionSampler(3, 0, sample)
        assert list(sampler) == calls[1::2]
        assert len(calls) == 6
        assert sampler.resampled == 3

    def test_caller_may_stop_early(self):
        draws = []

        def sample(rng):
            draws.append(rng.random())
            return draws[-1]

        for _ in zip(range(4), RejectionSampler(1000, 1, sample)):
            pass
        assert len(draws) == 4

    def test_budget_is_ten_times_count_in_redraws(self):
        def rejecting_first(n):
            seen = []

            def sample(rng):
                seen.append(rng.random())
                return 1.0 if len(seen) > n else None
            return sample

        ok = RejectionSampler(2, 0, rejecting_first(19))
        assert list(ok) == [1.0, 1.0]
        assert ok.resampled == 19
        exhausted = RejectionSampler(2, 0, rejecting_first(20))
        with pytest.raises(SamplingError, match=r"retry budget \(20\)"):
            list(exhausted)
        assert exhausted.resampled == 20


def _onshell(n):
    # Y's remainder on GSS holds x^(-1); X's is 0, defined everywhere
    return check_onshell_symmetry(rotation_like_vf(), gss_preset(), n_samples=n)


def _restricted(n, target=None):
    gss = gss_preset()
    return restricted_eval(target or gss.delta, ConstraintSystem((gss.delta,), ("uyy",)),
                           n_samples=n)


def _equiv(n, accept=None):
    return equiv_numeric(parse("x"), parse("x + 1"), SampleSpec(count=n, accept=accept))


ENTRY_POINTS = {
    "sampler": lambda n: list(RejectionSampler(n, 0, lambda rng: 1.0)),
    "check_onshell_symmetry": _onshell,
    "restricted_eval": _restricted,
    "equiv_numeric": _equiv,
    "sample_in_region": lambda n: sample_in_region(1.0, n, seed=0),
}


@pytest.mark.parametrize("count", [0, -1])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_counts_below_one_are_refused(entry, count):
    # no samples is no evidence: equiv_numeric used to call x and x+1 equal
    # and restricted_eval divided by zero
    with pytest.raises(ValueError, match="at least one sample"):
        ENTRY_POINTS[entry](count)


def _x_at_zero(monkeypatch):
    # every sampled remainder draws its jet points in jets.sample_remainder
    real = jets.sample_jet_point

    def draw(rng):
        point = real(rng)
        point[0] = 0.0  # x
        return point
    monkeypatch.setattr(jets, "sample_jet_point", draw)


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
            _equiv(5, accept=lambda env: False)

    def test_sample_in_region(self, monkeypatch):
        monkeypatch.setattr(orbits.RegionGeometry, "membership", lambda self, x, y: False)
        with pytest.raises(SamplingError):
            sample_in_region(1.0, 5, seed=0)

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
    """random.Random is built in one place, the shared sampler, so every
    sampled verdict has the same redraw rule and budget."""
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
    assert sites == [("expr.py", "RejectionSampler.__iter__")]


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
