"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run short benchmark runs as subprocesses, so they take a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import oracle
import run as bench
import tracing
import workloads

HERE = Path(__file__).resolve().parent


def _run(root: Path, workload: str, seed: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170, check=False)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.metric_specs()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.GENERATORS)


def test_oracle_formulas_on_gss():
    a, r = Fraction(-1), Fraction(2)
    assert oracle.exceptional_exponents(a, r) == (-7, -3)
    assert oracle.profile_gammas(a) == (Fraction(-3, 2), Fraction(1, 4))
    c1, c2, radius = oracle.region_geometry(Fraction(1))
    assert (c1, c2) == ((0.5, -0.5), (-0.5, -0.5))
    assert abs(radius - 2 ** -0.5) < 1e-15


def test_draw_is_a_function_of_the_seed():
    for name in workloads.GENERATORS:
        one = workloads.generate(name, 1, 1, "csv")
        assert workloads.draw_digest(one) == workloads.draw_digest(
            workloads.generate(name, 1, 1, "csv"))
        assert workloads.draw_digest(one) != workloads.draw_digest(
            workloads.generate(name, 2, 1, "csv"))


def test_negative_rationals_are_passed_with_equals():
    for name in workloads.GENERATORS:
        for op in workloads.generate(name, 3, 1, "csv"):
            assert not any(arg.startswith("-") and arg[1:2].isdigit() for arg in op["argv"])


def test_same_seed_gives_same_outputs():
    runs = []
    for _ in range(2):
        proc = _run(bench.ROOT, "grid-sweep", 11)
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.splitlines()[-1])
        results = json.loads(
            (bench.OUT / "results-grid-sweep-seed11-trace0.json").read_text())
        runs.append((last["attempted"], last["failed"], results["output_digest"]))
        assert last["correct"] is True
        assert set(last["metrics"]) == {name for name, _unit in bench.END_TO_END}
    assert runs[0] == runs[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "claims", 1)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_folds_nesting_and_coalesces_leaf_calls(tmp_path):
    tracer = tracing.Tracer()

    def leaf():
        return 1

    leaf.__module__ = "liesym.expr"

    def outer(depth):
        if depth:
            return outer_traced(depth - 1)
        return leaf_traced() + leaf_traced() + leaf_traced()

    outer.__module__ = "liesym.orbits"
    leaf_traced = tracer.wrap(leaf)
    outer_traced = tracer.wrap(outer)
    tracer.op = 0
    assert tracer.span(tracing.ROOT_SPAN, outer_traced, 2) == 3
    tracer.dump(tmp_path / "spans.jsonl")
    agg = tracing.aggregate(tmp_path / "spans.jsonl")
    assert agg["orbits.outer"]["calls"] == 1  # recursion folds into one span
    assert agg["expr.leaf"]["calls"] == 3
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert [s["name"] for s in spans] == ["cli.run", "orbits.outer", "expr.leaf"]
    assert spans[2]["parent"] == 1 and spans[1]["parent"] == 0
    root, mid, _ = spans
    assert abs(root["self"] + mid["busy"] - root["busy"]) < 1e-12


def test_tracer_refuses_a_missing_patch_point():
    modules = {name: types.SimpleNamespace(**{attr: len for attr in attrs})
               for name, attrs in tracing.PATCH_POINTS.items()}
    for mod, cls, attr in tracing.METHOD_POINTS:
        setattr(modules[mod], cls, type(cls, (), {attr: len}))
    del modules["orbits"].to_callable
    try:
        tracing.Tracer().install(modules)
    except tracing.MissingPatchPoint as exc:
        assert "orbits.to_callable" in str(exc)
    else:
        raise AssertionError("install() patched a program without orbits.to_callable")
    assert modules["cli"].eval_at is len  # nothing was patched


def test_mismatch_kind_names_the_check():
    op = {"cmd": "exponents", "expect": {"rc": 0, "c1": "-7", "c2": "-3"}}
    try:
        oracle.check(op, 0, json.dumps({"c1_exact": "-7", "c2_exact": "-2"}), None)
    except oracle.Mismatch as exc:
        assert exc.kind == "c2"
    else:
        raise AssertionError("a wrong c2 passed the oracle")
