"""The traced benchmark times liesym through named call sites
(perfbench/tracing.py).  A refactor that renames or removes one of them
would make the traced run stop with MissingPatchPoint; these tests make
the suite fail first."""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from liesym import GridSpec, base_solution, family_solution, gss_preset, orbits, transform_solution

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module,name", [
    (module, name) for module, names in tracing.PATCH_POINTS.items() for name in names])
def test_patch_point_exists(module, name):
    assert callable(getattr(importlib.import_module(f"liesym.{module}"), name, None))


@pytest.mark.parametrize("module,cls,name", tracing.METHOD_POINTS)
def test_method_point_exists(module, cls, name):
    owner = getattr(importlib.import_module(f"liesym.{module}"), cls, None)
    assert callable(getattr(owner, name, None))


def test_residual_grid_compiles_u_into_the_measure(monkeypatch):
    # each grid compiles its residual with u as the one value of a single
    # to_row_kernel call made through the orbits namespace; the u of a
    # family, base or base's pushforward grid is the kept symbolic family
    # solution, that of any other pushforward its own expression
    values = []
    real = orbits.to_row_kernel

    def spy(e, arg_names, *vals, **kwargs):
        values.append(vals)
        return real(e, arg_names, *vals, **kwargs)

    monkeypatch.setattr(orbits, "to_row_kernel", spy)
    grid = GridSpec(1.0, 2.0, -0.5, 0.5, 2, 2)
    kept = orbits.symbolic_family_solution()
    pushed = transform_solution(family_solution(-1, 1), Fraction(1, 2))
    assert pushed.lam is None
    for sol, u in ((base_solution(-1), kept), (family_solution(-1, 1), kept),
                   (transform_solution(base_solution(-1), Fraction(1, 2)), kept),
                   (pushed, pushed.expr)):
        values.clear()
        orbits.residual_grid(gss_preset(), sol, grid)
        assert values == [(u,)], sol.label
