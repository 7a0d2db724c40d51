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
    # to_row_kernel call made through the orbits namespace; a family or
    # base grid's u is the kept symbolic family solution, a pushforward's
    # its own expression
    values = []
    real = orbits.to_row_kernel

    def spy(e, arg_names, *vals, **kwargs):
        values.append(vals)
        return real(e, arg_names, *vals, **kwargs)

    monkeypatch.setattr(orbits, "to_row_kernel", spy)
    grid = GridSpec(1.0, 2.0, -0.5, 0.5, 2, 2)
    pushed = transform_solution(base_solution(-1), Fraction(1, 2))
    for sol, u in ((base_solution(-1), orbits.symbolic_family_solution()),
                   (family_solution(-1, 1), orbits.symbolic_family_solution()),
                   (pushed, pushed.expr)):
        values.clear()
        orbits.residual_grid(gss_preset(), sol, grid)
        assert values == [(u,)], sol.label
