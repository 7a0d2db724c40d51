"""The traced benchmark times liesym through named call sites
(perfbench/tracing.py).  A refactor that renames or removes one of them
would make the traced run stop with MissingPatchPoint; these tests make
the suite fail first."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from liesym import GridSpec, base_solution, gss_preset, orbits

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
    # the tracer counts the nodes of the first argument of each
    # to_callable call made through the orbits namespace
    roots = []
    real = orbits.to_callable

    def spy(e, arg_names):
        roots.append(e)
        return real(e, arg_names)

    monkeypatch.setattr(orbits, "to_callable", spy)
    sol = base_solution(-1)
    orbits.residual_grid(gss_preset(), sol, GridSpec(1.0, 2.0, -0.5, 0.5, 2, 2))
    # u is compiled with the measure into one row kernel by to_row_kernel,
    # so no root goes through to_callable
    assert roots == []
