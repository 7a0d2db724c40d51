"""Span recorder for the traced run, and the per-layer metrics made from it.

The recorder wraps liesym's public functions where they are called: in
the namespaces of ``cli``, ``family``, ``jets``, ``orbits`` and
``reduction``, never in ``liesym.expr`` itself.  So recursion inside
``eval_at`` or ``expand`` is not traced, and only calls that cross a
module boundary open a span.  A call to a function whose span is already
open folds into that outermost span.

A span records its name, start, end, parent and op id.  Spans stay in
memory and are written when the run ends.  Calls to ``liesym.expr``
functions have no traced children, and a run of consecutive such calls
under one parent (thousands of ``eval_at`` calls in one sampling loop)
is kept as one span with its call count and busy time; its start and
end are those of the first and last call.

Bookkeeping that is not the program's work (walking a compiled tree to
count its nodes) is taken off the recorder's clock, so it shows in no
span and in no op time.
"""

from __future__ import annotations

import functools
import json
import time

# module -> names it imports from other liesym modules (or defines and
# calls itself) whose calls are timed
PATCH_POINTS = {
    "cli": ("emit_csv", "equiv_numeric", "eval_at", "build_instance",
            "check_onshell_symmetry", "family_solution", "transform_solution",
            "residual_grid", "reduce_to_invariant", "split_by_x2", "verify_ode",
            "weak_cs_report"),
    "family": ("eval_at", "apply_prolonged", "prolong2", "build_instance"),
    "jets": ("diff", "substitute"),
    "orbits": ("diff", "substitute", "to_callable", "eval_at"),
    "reduction": ("diff", "expand", "substitute", "eval_at", "apply_prolonged",
                  "prolong2", "restricted_eval", "reduce_to_invariant",
                  "split_by_x2", "verify_ode"),
}
METHOD_POINTS = (("orbits", "ClosedFormSolution", "jet"),)
ROOT_SPAN = "cli.run"  # opened by the worker around each op

_NAME, _START, _END, _PARENT, _OP, _CALLS, _BUSY, _CHILD = range(8)


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def count_nodes(e) -> tuple[int, int]:
    """Tree size of an expression and its number of distinct subtrees."""
    total = 0
    distinct = set()
    stack = [e]
    while stack:
        node = stack.pop()
        total += 1
        distinct.add(node)
        for attr in ("terms", "factors"):
            children = getattr(node, attr, None)
            if children is not None:
                stack.extend(children)
        for attr in ("base", "exponent", "arg"):
            child = getattr(node, attr, None)
            if child is not None:
                stack.append(child)
    return total, len(distinct)


class MissingPatchPoint(Exception):
    """A function the traced run must time is no longer in the program."""


class Tracer:
    def __init__(self):
        self.excluded = 0.0
        self.records: list[list] = []
        self.stack: list[int] = []
        self.open_names: set[str] = set()
        self.last_child: dict[int, int] = {}
        self.counters = {"expr.to_callable.nodes": 0, "expr.to_callable.distinct_nodes": 0}
        self.op = -1

    def clock(self) -> float:
        return time.perf_counter() - self.excluded

    def _open(self, name: str, leaf: bool) -> int:
        parent = self.stack[-1] if self.stack else -1
        if leaf:
            last = self.last_child.get(parent)
            if last is not None and self.records[last][_NAME] == name:
                self.stack.append(last)
                return last
        idx = len(self.records)
        self.records.append([name, 0.0, 0.0, parent, self.op, 0, 0.0, 0.0])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self.stack.pop()
        rec = self.records[idx]
        if rec[_CALLS] == 0:
            rec[_START] = t0
        rec[_END] = t1
        rec[_CALLS] += 1
        rec[_BUSY] += t1 - t0
        parent = rec[_PARENT]
        if parent >= 0:
            self.records[parent][_CHILD] += t1 - t0
        self.last_child[parent] = idx

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        if name in self.open_names:
            return fn(*args, **kwargs)
        idx = self._open(name, name.startswith("expr."))
        self.open_names.add(name)
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            self.open_names.discard(name)
            self._close(idx, t0, t1)

    def wrap(self, fn):
        name = _span_name(fn)
        tracer = self

        if name == "expr.to_callable":
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                out = tracer.span(name, fn, *args, **kwargs)
                t0 = time.perf_counter()
                nodes, distinct = count_nodes(args[0])
                tracer.counters["expr.to_callable.nodes"] += nodes
                tracer.counters["expr.to_callable.distinct_nodes"] += distinct
                tracer.excluded += time.perf_counter() - t0
                return out
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)
        return traced

    def install(self, modules: dict) -> None:
        """Patch the call sites listed in PATCH_POINTS and METHOD_POINTS.

        Raises MissingPatchPoint, before patching anything, if a listed
        name is gone from the program: its metrics would read 0, which
        looks like a gain, so the run fails until the lists are updated.
        """
        missing = [f"{m}.{attr}" for m, names in PATCH_POINTS.items() for attr in names
                   if getattr(modules[m], attr, None) is None]
        missing += [f"{m}.{cls}.{attr}" for m, cls, attr in METHOD_POINTS
                    if getattr(getattr(modules[m], cls, None), attr, None) is None]
        if missing:
            raise MissingPatchPoint(
                f"traced functions no longer in the program: {', '.join(missing)}")
        wrapped = {}
        for mod_name, names in PATCH_POINTS.items():
            mod = modules[mod_name]
            for attr in names:
                fn = getattr(mod, attr)
                if fn not in wrapped:
                    wrapped[fn] = self.wrap(fn)
                setattr(mod, attr, wrapped[fn])
        for mod_name, cls_name, attr in METHOD_POINTS:
            cls = getattr(modules[mod_name], cls_name)
            setattr(cls, attr, self.wrap(getattr(cls, attr)))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps({
                    "name": rec[_NAME], "start": rec[_START], "end": rec[_END],
                    "parent": rec[_PARENT], "op": rec[_OP], "calls": rec[_CALLS],
                    "busy": rec[_BUSY], "self": rec[_BUSY] - rec[_CHILD],
                }) + "\n")


def aggregate(spans_path: str) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds, self seconds and call count."""
    out: dict[str, dict[str, float]] = {}
    with open(spans_path) as fh:
        for line in fh:
            span = json.loads(line)
            agg = out.setdefault(span["name"], {"s": 0.0, "self_s": 0.0, "calls": 0})
            agg["s"] += span["busy"]
            agg["self_s"] += span["self"]
            agg["calls"] += span["calls"]
    return out


# (metric, unit, better); a metric ending in .s or .self_s is read from
# the spans and gets a .share / .self_share twin: its fraction of the
# traced wall_s.
LAYER_METRICS = (
    ("cli.self_s", "s", "lower"),
    ("cli.emit_csv.s", "s", "lower"),
    ("cli.csv_bytes", "bytes", "lower"),
    ("expr.diff.s", "s", "lower"),
    ("expr.diff.calls", "count", "lower"),
    ("expr.substitute.s", "s", "lower"),
    ("expr.substitute.calls", "count", "lower"),
    ("expr.expand.s", "s", "lower"),
    ("expr.to_callable.s", "s", "lower"),
    ("expr.to_callable.calls", "count", "lower"),
    ("expr.to_callable.nodes", "count", "lower"),
    ("expr.to_callable.distinct_nodes", "count", "lower"),
    ("expr.eval_at.s", "s", "lower"),
    ("expr.eval_at.calls", "count", "lower"),
    ("expr.equiv_numeric.s", "s", "lower"),
    ("jets.prolong2.s", "s", "lower"),
    ("jets.apply_prolonged.s", "s", "lower"),
    ("family.build_instance.s", "s", "lower"),
    ("family.check_onshell_symmetry.self_s", "s", "lower"),
    ("family.samples", "count", "higher"),
    ("family.resampled", "count", "lower"),
    ("family.accept_ratio", "ratio", "higher"),
    ("reduction.restricted_eval.self_s", "s", "lower"),
    ("reduction.weak_cs_report.self_s", "s", "lower"),
    ("reduction.reduce_to_invariant.s", "s", "lower"),
    ("reduction.split_by_x2.s", "s", "lower"),
    ("reduction.verify_ode.s", "s", "lower"),
    ("reduction.samples", "count", "higher"),
    ("reduction.resampled", "count", "lower"),
    ("reduction.accept_ratio", "ratio", "higher"),
    ("orbits.jet.s", "s", "lower"),
    ("orbits.family_solution.s", "s", "lower"),
    ("orbits.transform_solution.s", "s", "lower"),
    ("orbits.residual_grid.self_s", "s", "lower"),
    ("orbits.grid_nodes", "count", "higher"),
    ("orbits.in_domain_nodes", "count", "higher"),
    ("orbits.in_domain_ratio", "ratio", "higher"),
    ("trace_overhead", "ratio", "lower"),
)


def _share_name(metric: str) -> str | None:
    if metric.endswith(".self_s"):
        return metric[: -len(".self_s")] + ".self_share"
    if metric.endswith(".s"):
        return metric[: -len(".s")] + ".share"
    return None


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric in print order, share twins included."""
    specs = []
    for name, unit, better in LAYER_METRICS:
        specs.append((name, unit, better))
        share = _share_name(name)
        if share:
            specs.append((share, "ratio", better))
    return specs


def layer_metrics(spans: dict, counters: dict, wall_s: float) -> dict[str, float]:
    """Fill every per-layer metric from aggregated spans and counters.
    A layer the workload does not reach reads 0, and so does a ratio with
    nothing to divide (accept_ratio where nothing was sampled)."""
    out = {}
    for name, _unit, _better in LAYER_METRICS:
        if name == "cli.self_s":
            value = spans.get(ROOT_SPAN, {}).get("self_s", 0.0)
        elif name.endswith(".self_s"):
            value = spans.get(name[: -len(".self_s")], {}).get("self_s", 0.0)
        elif name.endswith(".s"):
            value = spans.get(name[: -len(".s")], {}).get("s", 0.0)
        elif name.endswith(".calls"):
            value = spans.get(name[: -len(".calls")], {}).get("calls", 0)
        else:
            value = counters.get(name, 0)
        out[name] = value
        share = _share_name(name)
        if share:
            out[share] = value / wall_s
    return out
