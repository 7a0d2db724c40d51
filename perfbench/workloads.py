"""Seeded op lists for the three workloads.

An op is one ``liesym`` command line plus the known answer the oracle
derived for it.  The seed fixes the draw; ``seconds`` fixes how much work
the run does, through a nominal cost per unit of work at reference speed
(speed.py), so the work of a run never depends on how fast the program
or the machine happens to be.  Inputs are drawn without replacement: no two ops
of a run share a command line, no ``(a, r)`` instance of claims and no
``(a, lam)`` pair of grid-sweep repeats.  Work that depends on ``a``
alone (the prolonged field X, the base solution) does recur, because
``a`` takes 36 values; run.py reports how many ops share a PDE instance.
Rational flags are passed as ``--a=-3/2``, because argparse reads a bare
``-3/2`` as an option.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import oracle

# a = p/q with p in +-1..8 and q in 1..3: 36 distinct values
A_VALUES = sorted({Fraction(p, q) for p in (*range(-8, 0), *range(1, 9)) for q in (1, 2, 3)})
R_VALUES = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))
# lam = p/q with p, q in 1..6: 23 distinct positive values
LAMBDAS = sorted({Fraction(p, q) for p in range(1, 7) for q in range(1, 7)})
PERTURBATION = Fraction(1, 10)
GRID_SWEEP_N = 24
GRID_LARGE_N = 250
REGION_SAMPLES = 2000

WHY = {
    "claims": (
        "Every verdict command on seeded exceptional instances, plus the "
        "README's GSS commands. The symbolic kernel and tree-walking eval_at "
        "do the work; compiled evaluation and CSV do almost none."),
    "grid-large": (
        "A few residual grids of at least 250x250 nodes. The per-node loop and "
        "CSV emission take ~98% of the time and symbolic preparation under 1%, "
        "so per-node kernels and row streaming show here."),
    "grid-sweep": (
        "Many 24x24 family grids with distinct (a, lam). Same residual_grid path "
        "as grid-large, but jet/diff/substitute/to_callable dominate, so a change "
        "that trades compile time for per-node speed shows its cost here."),
}

# Nominal seconds per unit of work at reference speed, measured on liesym 0.1.0.
_CLAIMS_INSTANCE_S = 0.07
_SWEEP_OP_S = 0.019
_LARGE_OP_S = 0.62


def _arg(name: str, value) -> str:
    return f"--{name}={value}"


def _instance_argv(a, r, c1, c2, g1, g2) -> list[str]:
    return [_arg("a", a), _arg("r", r), _arg("c1", c1), _arg("c2", c2),
            _arg("gamma1", g1), _arg("gamma2", g2)]


def _instance_key(a, r, c1, c2, g1, g2) -> str:
    return "/".join(str(v) for v in (a, r, c1, c2, g1, g2))


GSS = (Fraction(-1), Fraction(2), Fraction(-7), Fraction(-3), Fraction(-3, 2), Fraction(1, 4))


def _nonzero_gamma(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def _op(cmd, argv, expect, instance=None, csv=None) -> dict:
    return {"cmd": cmd, "argv": [cmd, *argv], "expect": expect,
            "instance": instance, "csv": csv}


def _symmetry_ops(inst: tuple, rng: random.Random) -> list[dict]:
    a, r, c1, c2, g1, g2 = inst
    ops = []
    for field, status in (("X", "admitted"), ("Xprime", "admitted"),
                          ("Y", "refuted"), ("dy", "admitted")):
        ops.append(_op("check-symmetry",
                       [*_instance_argv(*inst), f"--field={field}", _arg("seed", rng.randrange(10**6))],
                       {"rc": 0 if status == "admitted" else 1, "status": status,
                        "is_exceptional": True, "samples": 200},
                       _instance_key(*inst)))
    moved = (a, r, c1 + PERTURBATION, c2, g1, g2)
    for field in ("X", "Xprime"):
        ops.append(_op("check-symmetry",
                       [*_instance_argv(*moved), f"--field={field}", _arg("seed", rng.randrange(10**6))],
                       {"rc": 1, "status": "refuted", "is_exceptional": False, "samples": 200},
                       _instance_key(*moved)))
    return ops


def _reduction_ops(inst: tuple, rng: random.Random) -> list[dict]:
    argv = _instance_argv(*inst)
    key = _instance_key(*inst)
    return [
        _op("reduce", argv, {"rc": 0, "a": str(inst[0])}, key),
        _op("weak-cs", [*argv, _arg("seed", rng.randrange(10**6))], {"rc": 0}, key),
        _op("weak-cs", [*argv, "--consequences", _arg("seed", rng.randrange(10**6))],
            {"rc": 0}, key),
    ]


def _grid_op(csv: str, inst_argv: list[str], key: str, a: Fraction, solution: str,
             lam: Fraction, n: int) -> dict:
    argv = [*inst_argv, f"--solution={solution}"]
    if solution == "family":
        argv.append(_arg("lambda", lam))
        extent = oracle.family_grid_extent(lam)
    else:
        extent = oracle.BASE_GRID_EXTENT
    argv += [_arg("nx", n), _arg("ny", n), _arg("output", csv)]
    return _op("residual-grid", argv,
               {"rc": 0, "a": str(a), "lam": str(lam if solution == "family" else 0),
                "nx": n, "ny": n, "extent": extent},
               key, csv)


def _profile_instance(a: Fraction) -> tuple:
    r = Fraction(2)
    c1, c2 = oracle.exceptional_exponents(a, r)
    g1, g2 = oracle.profile_gammas(a)
    return (a, r, c1, c2, g1, g2)


def _readme_ops(csv_dir: str) -> list[dict]:
    """The GSS commands of the README, each once per run."""
    a, r, c1, c2, _g1, _g2 = GSS
    gss_key = _instance_key(*GSS)
    moved = (a, r, Fraction("-6.9"), c2, Fraction("-1.5"), Fraction("0.25"))
    return [
        _op("exponents", ["--a=-1", "--r=2"], {"rc": 0, "c1": str(c1), "c2": str(c2)}),
        _op("check-symmetry", ["--preset=gss", "--field=X", "--samples=200"],
            {"rc": 0, "status": "admitted", "is_exceptional": True, "samples": 200}, gss_key),
        _op("check-symmetry", _instance_argv(*moved),
            {"rc": 1, "status": "refuted", "is_exceptional": False, "samples": 200},
            _instance_key(*moved)),
        _op("transform", ["--a=-1", "--lambda=1", "--x=0.5", "--y=-0.5"],
            {"rc": 0, "a": "-1", "lam": "1", "point": [0.5, -0.5]}),
        _grid_op(f"{csv_dir}/readme-field.csv", ["--preset=gss"], gss_key, a,
                 "family", Fraction(1), 100),
        _op("region", ["--lambda=1", "--samples=10000"], {"rc": 0, "lam": "1", "samples": 10000}),
        _op("reduce", ["--preset=gss"], {"rc": 0, "a": "-1"}, gss_key),
        _op("weak-cs", ["--preset=gss"], {"rc": 0}, gss_key),
    ]


def _claims(rng: random.Random, seconds: float, csv_dir: str) -> list[dict]:
    # m instances per value of r, so every run has the same mix of r
    # (and of r = 2 instances that run the reduction commands)
    m = max(3, min(35, round(seconds / _CLAIMS_INSTANCE_S / len(R_VALUES))))
    units = []
    for r in R_VALUES:
        pool = [a for a in A_VALUES if (a, r) != GSS[:2]]  # GSS is a README op
        for a in rng.sample(pool, m):
            units.append((a, r))
    rng.shuffle(units)
    lam_left = {a: [lam for lam in LAMBDAS if (a, lam) != (GSS[0], 1)] for a in A_VALUES}
    blocks = []
    for a, r in units:
        c1, c2 = oracle.exceptional_exponents(a, r)
        g1, g2 = oracle.profile_gammas(a)
        profile = r == 2 and g1 != 0 and g2 != 0
        if not profile:
            g1, g2 = _nonzero_gamma(rng), _nonzero_gamma(rng)
        inst = (a, r, c1, c2, g1, g2)
        lam = lam_left[a].pop(rng.randrange(len(lam_left[a])))
        ops = [_op("exponents", [_arg("a", a), _arg("r", r)],
                   {"rc": 0, "c1": str(c1), "c2": str(c2)})]
        ops += _symmetry_ops(inst, rng)
        ops.append(_op("transform", [_arg("a", a), _arg("lambda", lam), _arg("seed", rng.randrange(10**6))],
                       {"rc": 0, "a": str(a), "lam": str(lam)}))
        ops.append(_op("region", [_arg("lambda", lam), _arg("samples", REGION_SAMPLES),
                                  _arg("seed", rng.randrange(10**6))],
                       {"rc": 0, "lam": str(lam), "samples": REGION_SAMPLES}))
        if profile:
            ops += _reduction_ops(inst, rng)
        blocks.append(ops)
    for op in _readme_ops(csv_dir):
        blocks.insert(rng.randrange(len(blocks) + 1), [op])
    return [op for block in blocks for op in block]


def _grid_sweep(rng: random.Random, seconds: float, csv_dir: str) -> list[dict]:
    # every a (18 negative, 18 positive) appears m times, each with its own lam
    m = max(3, min(len(LAMBDAS), round(seconds / _SWEEP_OP_S / len(A_VALUES))))
    pairs = [(a, lam) for a in A_VALUES for lam in rng.sample(LAMBDAS, m)]
    rng.shuffle(pairs)
    ops = []
    for i, (a, lam) in enumerate(pairs):
        inst = _profile_instance(a)
        ops.append(_grid_op(f"{csv_dir}/sweep-{i}.csv", _instance_argv(*inst),
                            _instance_key(*inst), a, "family", lam, GRID_SWEEP_N))
    return ops


def _grid_large(rng: random.Random, seconds: float, csv_dir: str) -> list[dict]:
    gss_key = _instance_key(*GSS)
    ops = [
        _grid_op(f"{csv_dir}/large-gss-base.csv", ["--preset=gss"], gss_key,
                 GSS[0], "base", Fraction(0), 300),
        _grid_op(f"{csv_dir}/large-gss-family-250.csv", ["--preset=gss"], gss_key,
                 GSS[0], "family", Fraction(1), 250),
        _grid_op(f"{csv_dir}/large-gss-family-300.csv", ["--preset=gss"], gss_key,
                 GSS[0], "family", Fraction(1), 300),
    ]
    # at full length every negative a runs once, so a seed changes only the
    # lams and the order: grid cost varies twofold with a
    negative = [a for a in A_VALUES if a < 0]
    k = max(2, min(len(negative), int(seconds / _LARGE_OP_S)))
    for i, a in enumerate(rng.sample(negative, k)):
        lam = rng.choice([lam for lam in LAMBDAS if (a, lam) != (GSS[0], 1)])
        inst = _profile_instance(a)
        ops.append(_grid_op(f"{csv_dir}/large-{i}.csv", _instance_argv(*inst),
                            _instance_key(*inst), a, "family", lam, GRID_LARGE_N))
    rng.shuffle(ops)
    return ops


GENERATORS = {"claims": _claims, "grid-large": _grid_large, "grid-sweep": _grid_sweep}


def generate(workload: str, seed: int, seconds: float, csv_dir: str) -> list[dict]:
    """The op list of one run; a pure function of its arguments."""
    rng = random.Random(f"{workload}:{seed}")
    ops = GENERATORS[workload](rng, seconds, csv_dir)
    for i, op in enumerate(ops):
        op["id"] = i
    argvs = [tuple(op["argv"]) for op in ops]
    if len(set(argvs)) != len(argvs):
        raise RuntimeError("an input was drawn twice")
    return ops


def draw_digest(ops: list[dict]) -> str:
    return hashlib.sha256(json.dumps([op["argv"] for op in ops]).encode()).hexdigest()
