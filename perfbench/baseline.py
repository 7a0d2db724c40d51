"""Reference measurements, written to perfbench/BASELINE.json.

    python3 perfbench/baseline.py probes    # the in-process probes
    python3 perfbench/baseline.py spread    # ten seeds, two sets, every workload

``probes`` times single liesym calls in this process, to reproduce or
correct the figures the project ROADMAP quotes: in-process
``check-symmetry --preset gss``, ``weak-cs --preset gss``, a 300x300 GSS
family grid, and one call of the compiled GSS family residual, with that
residual's tree size.  After one warm-up call each, the probes run in
PROBE_ROUNDS interleaved rounds (every probe once per round), so a slow
phase of a shared host touches all of them alike; each figure is the raw
wall-clock median over the rounds, and the round values are kept.

``spread`` runs ``run.py`` once per seed in SEEDS on each workload, in
SETS sets over the same seeds, and reports for every gated end-to-end
metric and its raw wall-clock twin: per set, the median and the distance
between the first and third quartile (``statistics.quantiles(values,
n=4)``) as a share of the median, next to the bound in BENCHMARK.json;
and how much worse the last set's median is than the first's.  It also
checks that ``failed``, the failures per oracle check and the output
digest of every seed repeat across sets.
"""

from __future__ import annotations

import io
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run as bench
import tracing

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "BASELINE.json"
ROADMAP_FIGURES = {
    "check_symmetry_gss_ms": 14.0,
    "weak_cs_gss_ms": 33.0,
    "family_grid_300_s": 0.74,
    "compiled_gss_residual_us": 6.0,
}
SEEDS = range(1, 11)
SETS = 2


PROBE_ROUNDS = 7


def _time(fn, repeats: int) -> float:
    """Median time of ``repeats`` calls of ``fn``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probes() -> dict:
    sys.path.insert(0, str(bench.ROOT / "src"))
    from liesym import cli, family, orbits
    from liesym.expr import Sum, substitute, to_callable

    def cmd(argv):
        return lambda: cli.run(argv, out=io.StringIO())

    gss = family.gss_preset()
    sol = orbits.family_solution(-1, 1)
    residual = substitute(gss.delta, sol.jet())
    terms = residual.terms if isinstance(residual, Sum) else (residual,)
    fns = [to_callable(t, ("x", "y")) for t in terms]
    nodes = [tracing.count_nodes(t) for t in terms]
    grid = orbits.GridSpec(*bench.oracle.family_grid_extent(1), 300, 300)
    # name -> (call, repeats per round, factor to the unit of the name)
    timed = {
        "check_symmetry_gss_ms": (cmd(["check-symmetry", "--preset=gss"]), 7, 1e3),
        "weak_cs_gss_ms": (cmd(["weak-cs", "--preset=gss"]), 7, 1e3),
        "family_grid_300_s": (lambda: orbits.residual_grid(gss, sol, grid), 1, 1.0),
        "compiled_gss_residual_us": (
            lambda: [[f(0.5, -0.3) for f in fns] for _ in range(1000)], 7, 1e6 / 1000),
    }
    for fn, _repeats, _factor in timed.values():
        fn()  # warm-up
    rounds = {name: [] for name in timed}
    for _ in range(PROBE_ROUNDS):
        for name, (fn, repeats, factor) in timed.items():
            rounds[name].append(_time(fn, repeats) * factor)
    out = {"unit": "raw wall clock: ms for commands, s for the grid, "
                   "us for one compiled residual call",
           "rounds": PROBE_ROUNDS}
    for name, values in rounds.items():
        out[name] = {"median": statistics.median(values), "rounds": values}
    out.update({
        "compiled_gss_residual_terms": len(terms),
        "compiled_gss_residual_nodes": sum(n for n, _ in nodes),
        "compiled_gss_residual_distinct_nodes": sum(d for _, d in nodes),
        "roadmap": ROADMAP_FIGURES,
    })
    return out


def _run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=bench.ROOT, capture_output=True, text=True, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    results = json.loads((bench.OUT / f"results-{workload}-seed{seed}-trace0.json").read_text())
    return {"metrics": {k: v["value"] for k, v in results["end_to_end"].items()},
            "failed": last["failed"], "attempted": last["attempted"],
            "correct": last["correct"], "digest": results["output_digest"],
            "failed_by_reason": results["failed_by_reason"]}


def spread() -> dict:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"]: m for m in spec["end_to_end"]}
    out = {}
    for workload in sorted(bench.workloads.GENERATORS):
        runs = [{s: _run(workload, s, spec["run_seconds"]) for s in SEEDS} for _ in range(SETS)]
        key = ("failed", "failed_by_reason", "digest")
        repeats = all([r[s][k] for k in key] == [runs[0][s][k] for k in key]
                      for r in runs for s in SEEDS)
        by_reason: dict[str, int] = {}
        for s in SEEDS:
            for kind, n in runs[0][s]["failed_by_reason"].items():
                by_reason[kind] = by_reason.get(kind, 0) + n
        table = {}
        names = [*gated, *(f"{n}.raw" for n in gated if f"{n}.raw" in runs[0][SEEDS[0]]["metrics"])]
        for name in names:
            rows = []
            for r in runs:
                values = [r[s]["metrics"][name] for s in SEEDS]
                q1, _, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                rows.append({"median": med, "iqr_share": (q3 - q1) / med, "values": values})
            spec_m = gated.get(name)
            worse = None
            if spec_m and SETS > 1:
                ratio = rows[-1]["median"] / rows[0]["median"]
                worse = ratio - 1 if spec_m["better"] == "lower" else 1 - ratio
            table[name] = {"sets": rows, "bound": spec_m["bound"] if spec_m else None,
                           "last_set_worse_by": worse}
        out[workload] = {"metrics": table,
                         "failed": sum(runs[0][s]["failed"] for s in SEEDS),
                         "attempted": sum(runs[0][s]["attempted"] for s in SEEDS),
                         "failed_by_reason": by_reason,
                         "correct": all(x["correct"] for r in runs for x in r.values()),
                         "failed_and_digests_repeat": repeats}
        print(f"{workload}: correct={out[workload]['correct']} "
              f"failed_and_digests_repeat={repeats} failed {out[workload]['failed']} of "
              f"{out[workload]['attempted']} over the seeds: {by_reason}")
        for name, row in table.items():
            bound = row["bound"]
            for i, r in enumerate(row["sets"]):
                flag = "(not gated)" if bound is None else "ok" if r["iqr_share"] < bound / 3 else (
                    "within bound" if r["iqr_share"] <= bound else "TOO WIDE")
                print(f"  {name:<14} set {i + 1} median {r['median']:<12.6g} "
                      f"spread {r['iqr_share']:.4f} bound {bound}  {flag}")
            if row["last_set_worse_by"] is not None:
                print(f"  {name:<14} last set worse than first by {row['last_set_worse_by']:+.4f}")
    return out


def main() -> int:
    if sys.argv[1:] not in (["probes"], ["spread"]):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    data = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    data["machine"] = bench.machine()
    if sys.argv[1] == "probes":
        data["probes"] = probes()
        print(json.dumps(data["probes"], indent=1))
    else:
        data["spread"] = spread()
    BASELINE.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
