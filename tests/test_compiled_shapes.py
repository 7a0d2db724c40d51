"""Compiled code is kept by shape: the numbers of an expression reach its
compiled body as bound names, so instances that differ only in their
numbers share one Python ``compile`` call, and a function compiled from
kept code gives every byte that a fresh compile gives."""

import builtins
import random
from fractions import Fraction

import pytest

from liesym import expr, sym, to_callable
from liesym.family import exceptional_exponents

import test_cli
from test_cli import run_cli, strip_timestamp


@pytest.fixture
def compiles(monkeypatch):
    """The source texts that liesym compiles from here on, starting from
    an empty code cache."""
    expr._shape_code.cache_clear()
    seen = []
    real = builtins.compile

    def counted(source, filename, *args, **kwargs):
        if filename == "<liesym>":
            seen.append(source)
        return real(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counted)
    return seen


class TestOneCompilePerShape:
    def test_family_grids_at_two_lambdas(self, compiles):
        # neither lambda is 1, where a unit coefficient drops out of the text
        for lam in ("1/3", "2"):
            code, _, err = run_cli(["residual-grid", "--a=-5/3", "--r=2", "--c1=-19/5",
                                    "--c2=-7/5", "--gamma1=2", "--gamma2=3", "--solution",
                                    "family", f"--lambda={lam}", "--nx", "12", "--ny", "12"])
            assert code == 1, err  # gamma off the profile: the grid refutes
        assert len(compiles) == 1

    def test_check_symmetry_at_two_gamma_pairs(self, compiles):
        # c1 moved off the exceptional pair, so the remainder keeps its
        # gamma1 term; no gamma is 1
        for g1, g2 in ((2, 3), (5, 7)):
            code, _, err = run_cli(["check-symmetry", "--a=-5/3", "--r=2", "--c1=-21/10",
                                    "--c2=-7/5", f"--gamma1={g1}", f"--gamma2={g2}",
                                    "--field", "X", "--samples", "20"])
            assert code == 1, err
        assert len(compiles) == 1

    def test_the_text_holds_no_number_of_the_instance(self, compiles):
        run_cli(["residual-grid", "--preset", "gss", "--solution", "family",
                 "--lambda=1/3", "--nx", "2", "--ny", "2"])
        (source,) = compiles
        assert "0.333" not in source and "-0.25" not in source


# the base solution's instance at r = 2 for the a of test_cli's
# TestResidualGrid::test_exceptional_family_grids, at its five lambdas
_EXCEPTIONAL_GRIDS = []
for _a in ("1/3", "1/2", "1", "3/2", "2", "5/2", "3", "4", "6", "-1", "-2", "-5/3"):
    _k = -Fraction(_a) / 4
    _c1, _c2 = exceptional_exponents(Fraction(_a), 2)
    for _lam in ("1/3", "1/2", "1", "2", "3"):
        _EXCEPTIONAL_GRIDS.append([
            "residual-grid", f"--a={_a}", "--r=2", f"--c1={_c1}", f"--c2={_c2}",
            f"--gamma1={8 * _k * (_k - 1)}", f"--gamma2={2 * Fraction(_a) * _k - 4 * _k * (_k - 1)}",
            "--solution", "family", f"--lambda={_lam}", "--nx", "24", "--ny", "24"])


class TestColdAndWarmAgree:
    @staticmethod
    def _bytes(argv):
        code, out, _ = run_cli(argv)
        return code, strip_timestamp(out)

    @pytest.mark.parametrize("grids", [
        [case[0] for case in test_cli.TestGoldenBytes.CASES], _EXCEPTIONAL_GRIDS,
    ], ids=["golden", "exceptional-60"])
    def test_grid_bytes(self, grids):
        assert len(grids) in (3, 60)
        cold = {}
        for i, argv in enumerate(grids):
            expr._shape_code.cache_clear()
            cold[i] = self._bytes(argv)
        order = list(range(len(grids)))
        random.Random(7).shuffle(order)
        for i in order:
            assert self._bytes(grids[i]) == cold[i], grids[i]
        assert all(code == 0 for code, _ in cold.values())


class TestBound:
    def test_the_cache_never_holds_more_than_its_bound(self):
        bound = expr.COMPILED_SHAPES
        assert expr._shape_code.cache_info().maxsize == bound
        expr._shape_code.cache_clear()
        for i in range(bound + 12):
            name = f"v{i}"  # the argument's name is part of the text
            assert to_callable(sym(name) * 3, (name,))(2.0) == 6.0
            assert expr._shape_code.cache_info().currsize <= bound
        assert expr._shape_code.cache_info().currsize == bound
        # the first shapes were dropped; compiling one again still works
        assert to_callable(sym("v0") * 5, ("v0",))(2.0) == 10.0

    def test_functions_of_one_shape_keep_their_own_globals(self):
        # a test may patch a function's globals without touching another's
        f, g = (to_callable(sym("x") ** Fraction(1, 2) * k, ("x",)) for k in (2, 3))
        assert f.__code__ is g.__code__
        assert f.__globals__ is not g.__globals__
        assert (f(4.0), g(4.0)) == (4.0, 6.0)
