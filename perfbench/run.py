"""Benchmark of liesym's CLI: end-to-end metrics, or per-layer metrics
from a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {claims,grid-large,grid-sweep} \\
        --seed N --seconds S --trace {0,1}

A run draws its ops from the seed (see workloads.py), sized by
``--seconds``, and feeds them to ``liesym.cli.run`` from one caller in a
closed loop, in one fresh interpreter with a single thread
(worker.py).  Every output is then checked against the answer oracle.py
derives from the paper's formulas; an op that raises, exits 2, or
returns another verdict or exit code than the known answer counts as
failed.  Known defects of the program therefore show up as failed ops;
they are never dropped from the draw.

The worker pauses at evenly spaced points of its op list, its clock
stopped, while this process times a reference kernel (speed.py) and, with
``--trace 0``, one set-up probe: a fresh interpreter that runs
``import liesym.cli`` plus one ``exponents --a -1 --r 2`` call.  The
gated times (``setup_s``, ``wall_s``, ``op_ms_p50``) are scaled to
reference speed by the kernel times around them; the raw wall-clock
figures are printed next to them.  ``--trace 1`` runs the ops once
untraced and once traced, each in its own interpreter, and reports
per-layer times (raw seconds) and counts (tracing.py) and
``trace_overhead``, the traced ``wall_s`` over the untraced one.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is false when a
check on the run itself fails: a set-up probe gives a wrong verdict, or
the same ops give different outputs in two interpreters.  A traced run
whose patch points (tracing.py) are no longer in the program exits 1
without a result.  Everything else, including machine details, the
per-op failures and their count per oracle check, and the output digests,
is printed above it and written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
PAUSES = 45
SETUP_PROBES = 22  # at least, spread evenly over the pauses
WORKER_TIMEOUT_S = 150
PAUSE_SIGNAL = "perfbench-pause"  # same string as in worker.py
RERUN_OPS = 3
P90_MIN_OPS = 100

SETUP_CODE = """\
import io, json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import liesym.cli
out = io.StringIO()
rc = liesym.cli.run(["exponents", "--a", "-1", "--r", "2"], out=out)
t1 = time.perf_counter()
print(json.dumps({"s": t1 - t0, "rc": rc, "out": out.getvalue(), "file": liesym.cli.__file__}))
"""

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The run could not be carried out (as opposed to an op failing)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("LIESYM_SEED", None)  # it would override every op's --seed
    return env


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "loadavg": list(os.getloadavg())}


def setup_probe(src: Path) -> dict:
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(src)], capture_output=True,
                          text=True, env=_child_env(), timeout=60, check=False)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def setup_ok(probe: dict, src: Path) -> bool:
    if probe["rc"] != 0 or not probe["file"].startswith(str(src) + os.sep):
        return False
    rep = json.loads(probe["out"])
    return (rep["c1_exact"], rep["c2_exact"]) == ("-7", "-3")


def run_worker(ops: list[dict], trace: bool, tag: str, pauses: int = 0,
               setup: bool = False) -> dict:
    """Run the ops in a fresh worker interpreter.

    With ``pauses``, the worker stops before that many evenly spaced ops
    and after the last one; at each stop this process times the
    reference kernel and, with ``setup``, at SETUP_PROBES or more evenly
    spaced stops a set-up probe between two kernel timings.  Op times come
    back raw (``dt``, ``wall_s``) and scaled to reference speed
    (``dt_ref``, ``wall_ref_s``).
    """
    n = len(ops)
    pause_at = sorted({j * n // pauses for j in range(pauses)} | {n}) if pauses else []
    job = {"root": str(ROOT), "argvs": [op["argv"] for op in ops], "trace": trace,
           "pause_at": pause_at, "records": str(OUT / f"{tag}.records.json"),
           "spans": str(OUT / f"{tag}.spans.jsonl")}
    job_path = OUT / f"{tag}.job.json"
    job_path.write_text(json.dumps(job))
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    probe_every = max(1, len(pause_at) // SETUP_PROBES)
    stops = []
    # unbuffered, so select() sees every line the worker has written
    with open(OUT / f"{tag}.stderr", "w+") as err, subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("worker.py")), str(job_path)],
            cwd=ROOT, env=_child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=err, bufsize=0) as proc:
        try:
            while True:
                ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
                if not ready:
                    raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s")
                line = proc.stdout.readline()
                if not line:
                    break
                if line.strip() == PAUSE_SIGNAL.encode():
                    stop = {}
                    if setup and len(stops) % probe_every == 0:
                        stop["ref_before"] = speed.reference_time()
                        stop["setup"] = setup_probe(ROOT / "src")
                    stop["ref"] = speed.reference_time()
                    stops.append(stop)
                    proc.stdin.write(b"\n")
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            err.seek(0)
            raise BenchError(f"worker failed: {err.read().strip()}")
    with open(job["records"]) as fh:
        result = json.load(fh)
    if len(stops) != len(pause_at):
        raise BenchError(f"worker paused {len(stops)} times, expected {len(pause_at)}")

    recs = result["records"]
    refs = [s["ref"] for s in stops]
    bounds = pause_at or [0, n]
    factors = speed.segment_factors(bounds, refs, n) if refs else [1.0] * n
    result["dt"] = [r["t1"] - r["t0"] for r in recs]
    result["dt_ref"] = [d * f for d, f in zip(result["dt"], factors)]
    result["wall_s"] = result["wall_ref_s"] = 0.0
    for a, b in zip(bounds, bounds[1:]):
        if a < b:
            segment = recs[b - 1]["t1"] - recs[a]["t0"]
            result["wall_s"] += segment
            result["wall_ref_s"] += segment * factors[a]
    result["refs"] = refs
    result["setup"] = [s["setup"] for s in stops if "setup" in s]
    result["setup_ref"] = [s["setup"]["s"] * speed.REF_NOMINAL_S
                           / math.sqrt(s["ref_before"] * s["ref"]) for s in stops if "setup" in s]
    if trace:
        result["spans"] = tracing.aggregate(job["spans"])
    return result


def check_ops(ops: list[dict], result: dict) -> list[dict]:
    """Check every op against its known answer; digest its outputs.
    Reads and then removes the CSV files the ops wrote."""
    checked = []
    for op, rec, dt in zip(ops, result["records"], result["dt"]):
        csv_text = None
        if op["csv"]:
            path = ROOT / op["csv"]
            if path.exists():
                csv_text = path.read_text()
                path.unlink()
        digest = hashlib.sha256(oracle.strip_timestamp(rec["out"]).encode()).hexdigest()
        if csv_text is not None:
            digest += ":" + hashlib.sha256(csv_text.encode()).hexdigest()
        reason = kind = None
        if rec["error"] is not None:
            kind = "raised"
            reason = "raised: " + rec["error"].strip().splitlines()[-1]
        else:
            try:
                oracle.check(op, rec["rc"], rec["out"], csv_text)
            except oracle.Mismatch as exc:
                kind, reason = exc.kind, str(exc)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                kind, reason = "malformed output", f"malformed output: {exc!r}"
        try:
            report = json.loads(rec["out"])
        except json.JSONDecodeError:
            report = None
        checked.append({"id": op["id"], "argv": op["argv"], "rc": rec["rc"], "dt": dt,
                        "failed": reason is not None, "kind": kind, "reason": reason,
                        "digest": digest,
                        "csv_bytes": len(csv_text.encode()) if csv_text is not None else 0,
                        "report": report})
    return checked


def failed_by_reason(checked: list[dict]) -> dict[str, int]:
    """Failed ops per oracle check (Mismatch.kind), most frequent first."""
    counts: dict[str, int] = {}
    for c in checked:
        if c["failed"]:
            counts[c["kind"]] = counts.get(c["kind"], 0) + 1
    return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def run_digest(checked: list[dict]) -> str:
    return hashlib.sha256("\n".join(c["digest"] for c in checked).encode()).hexdigest()


def report_counters(checked: list[dict]) -> dict:
    """Samples, resamples, grid nodes and CSV bytes, read from the outputs."""
    c = {"family.samples": 0, "family.resampled": 0, "reduction.samples": 0,
         "reduction.resampled": 0, "orbits.grid_nodes": 0, "orbits.in_domain_nodes": 0,
         "cli.csv_bytes": 0}
    for op in checked:
        rep = op["report"] or {}
        cmd = op["argv"][0]
        if cmd == "check-symmetry" and "sample_count" in rep:
            c["family.samples"] += rep["sample_count"]
            c["family.resampled"] += rep["resampled"]
        elif cmd == "weak-cs" and "stages" in rep:
            for stage in rep["stages"]:
                c["reduction.samples"] += stage["samples"]
                c["reduction.resampled"] += stage["resampled"]
        elif cmd == "residual-grid" and "grid" in rep:
            c["orbits.grid_nodes"] += rep["grid"]["nx"] * rep["grid"]["ny"]
            c["orbits.in_domain_nodes"] += rep["in_domain_nodes"]
        c["cli.csv_bytes"] += op["csv_bytes"]
    for layer in ("family", "reduction"):
        drawn = c[f"{layer}.samples"] + c[f"{layer}.resampled"]
        c[f"{layer}.accept_ratio"] = c[f"{layer}.samples"] / drawn if drawn else 0.0
    grid = c["orbits.grid_nodes"]
    c["orbits.in_domain_ratio"] = c["orbits.in_domain_nodes"] / grid if grid else 0.0
    return c


def end_to_end(ops: list[dict], checked: list[dict], result: dict) -> dict:
    """name -> (value, unit, sample count); times at reference speed, with
    the raw wall-clock figures under ``<name>.raw``."""
    ms = [d * 1e3 for d in result["dt_ref"]]
    grid = [(op["expect"]["nx"] * op["expect"]["ny"], d)
            for op, d in zip(ops, result["dt_ref"]) if op["cmd"] == "residual-grid"]
    failed = sum(c["failed"] for c in checked)
    out = {}
    if result["setup_ref"]:
        n = len(result["setup_ref"])
        out["setup_s"] = (statistics.median(result["setup_ref"]), "s", n)
        out["setup_s.raw"] = (statistics.median(p["s"] for p in result["setup"]), "s", n)
    out["wall_s"] = (result["wall_ref_s"], "s", len(ms))
    out["wall_s.raw"] = (result["wall_s"], "s", len(ms))
    out["op_ms_p50"] = (statistics.median(ms), "ms", len(ms))
    out["op_ms_p50.raw"] = (1e3 * statistics.median(result["dt"]), "ms", len(ms))
    if len(ms) >= P90_MIN_OPS:
        out["op_ms_p90"] = (statistics.quantiles(ms, n=10)[8], "ms", len(ms))
    if grid:
        out["nodes_per_s"] = (sum(n for n, _ in grid) / sum(t for _, t in grid), "1/s", len(grid))
    out["peak_rss_mb"] = (result["peak_rss_mb"], "MB", 1)
    out["failed_share"] = (failed / len(checked), "ratio", len(checked))
    out["ref_kernel_ms"] = (1e3 * statistics.median(result["refs"]), "ms", len(result["refs"]))
    return out


def rerun_matches(ops: list[dict], checked: list[dict], tag: str) -> bool:
    """Run the cheapest few ops again in a fresh interpreter, after the
    measured run, and compare their output digests."""
    pick = sorted(range(len(ops)), key=lambda i: checked[i]["dt"])[:RERUN_OPS]
    again = check_ops([ops[i] for i in pick], run_worker([ops[i] for i in pick], False, tag))
    return all(a["digest"] == checked[i]["digest"] for a, i in zip(again, pick))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "liesym" / "cli.py").is_file():
        print(f"error: no liesym sources under {src}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    csv_dir = f"{OUT.name}/{args.workload}-seed{args.seed}-csv"  # same argv traced or not
    (ROOT / csv_dir).mkdir(exist_ok=True)

    info = machine()
    ops = workloads.generate(args.workload, args.seed, args.seconds, csv_dir)
    instances = {}
    for op in ops:
        if op["instance"]:
            instances[op["instance"]] = instances.get(op["instance"], 0) + 1
    sharing = sum(n for n in instances.values() if n > 1)

    try:
        t_run = time.perf_counter()
        if not args.trace:
            setup_probe(src)  # unmeasured: leaves the bytecode cache a CLI user has
        result = run_worker(ops, False, tag, PAUSES, setup=not args.trace)
        correct = all(setup_ok(probe, src) for probe in result["setup"])
        checked = check_ops(ops, result)
        e2e = end_to_end(ops, checked, result)
        digest = run_digest(checked)
        layer = None
        if args.trace:
            traced = run_worker(ops, True, tag + "-traced", PAUSES)
            checked = check_ops(ops, traced)
            correct &= run_digest(checked) == digest
            counters = {**report_counters(checked), **traced["counters"],
                        "trace_overhead": traced["wall_ref_s"] / result["wall_ref_s"]}
            layer = tracing.layer_metrics(traced["spans"], counters, traced["wall_s"])
        else:
            correct &= rerun_matches(ops, checked, tag + "-rerun")
        elapsed = time.perf_counter() - t_run
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = [c for c in checked if c["failed"]]

    print(f"liesym benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: nproc={info['nproc']} cpu={info['cpu']!r} python={info['python']} "
          f"loadavg={' '.join(f'{v:.2f}' for v in info['loadavg'])}")
    print(f"why: {workloads.WHY[args.workload]}")
    print(f"draw: {len(ops)} ops, {len(instances)} PDE instances, {sharing} ops share "
          f"an instance with another op; draw digest {workloads.draw_digest(ops)[:16]}")
    print(f"end to end (untraced run; times at reference speed, "
          f"reference kernel {speed.REF_NOMINAL_S * 1e3:g} ms):")
    for name, (value, unit, n) in e2e.items():
        print(f"  {name:<14} {_fmt(value):>12} {unit:<6} n={n}")
    if layer is not None:
        print("per layer (traced run; raw seconds):")
        for name, unit, _better in tracing.metric_specs():
            print(f"  {name:<42} {_fmt(layer[name]):>12} {unit}")
    by_reason = failed_by_reason(checked)
    print(f"failed ops: {len(failed)} of {len(checked)}; by reason: "
          + (", ".join(f"{k} {v}" for k, v in by_reason.items()) or "none"))
    for c in failed[:10]:
        print(f"  #{c['id']} {' '.join(c['argv'])}: {c['reason']}")
    if len(failed) > 10:
        print(f"  ... and {len(failed) - 10} more")
    print(f"output digest: {digest}")
    print(f"correct: {correct}; run took {elapsed:.1f} s")

    results_path = OUT / f"results-{tag}.json"
    results_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": info, "why": workloads.WHY[args.workload],
        "draw_digest": workloads.draw_digest(ops), "output_digest": digest,
        "instances": len(instances), "ops_sharing_instance": sharing,
        "failed_by_reason": by_reason,
        "end_to_end": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in e2e.items()},
        "per_layer": layer, "reference_kernel_s": result["refs"], "correct": correct,
        "ops": [{k: c[k] for k in ("id", "argv", "rc", "dt", "failed", "kind", "reason",
                                   "digest")}
                for c in checked],
    }, indent=1))
    print(f"results: {results_path.relative_to(ROOT)}")

    if args.trace:
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _better in tracing.metric_specs()}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": len(checked), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
