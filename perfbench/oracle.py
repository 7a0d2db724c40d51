"""Known answers for liesym's CLI, derived from the paper's formulas.

Nothing here imports liesym: every expected verdict is computed with
``fractions.Fraction`` (or, for geometry and field values, with floats
from the closed forms) so the benchmark never trusts the program's own
output to decide whether that output is right.

Formulas used:

* exceptional exponents  c1 = 1 + 2(r+2)/a,  c2 = 1 + 4/a;
* profile source strengths  g1 = (a/2)(a+4),  g2 = -(a/4)(3a+4);
* two-disk region of the lam-family: centres (+-1/(2 lam), -1/(2 lam)),
  radius 1/(sqrt(2) lam); membership x^2 - (y + lam (x^2+y^2))^2 > 0;
* solutions  (x^2 - y^2)^(-a/4)  and  [x^2 - (y + lam (x^2+y^2))^2]^(-a/4);
* X, Xprime and dy are symmetries of every exceptional instance and Y is
  not; with c1 moved off the exceptional value, X and Xprime are not;
* the pushed-forward power solution is the lam-family, the profile
  solves both separated ODEs, the weak-conditional-symmetry chain reads
  nonzero / nonzero / zero, and every closed-form solution has zero
  residual on every grid.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

CSV_HEADER = "x,y,in_domain,u,residual"
WEAK_CS_STAGES = ["nonzero", "nonzero", "zero"]


def exceptional_exponents(a: Fraction, r: Fraction) -> tuple[Fraction, Fraction]:
    return 1 + 2 * (r + 2) / a, 1 + Fraction(4) / a


def profile_gammas(a: Fraction) -> tuple[Fraction, Fraction]:
    return (a / 2) * (a + 4), -(a / 4) * (3 * a + 4)


def region_geometry(lam: Fraction) -> tuple[tuple[float, float], tuple[float, float], float]:
    half = float(1 / (2 * lam))
    return (half, -half), (-half, -half), 1.0 / (math.sqrt(2.0) * float(lam))


def family_grid_extent(lam: Fraction) -> tuple[float, float, float, float]:
    """Bounding box of the two-disk region (the CLI's default family grid)."""
    c1, c2, rad = region_geometry(lam)
    return c2[0] - rad, c1[0] + rad, c1[1] - rad, c1[1] + rad


BASE_GRID_EXTENT = (1.0, 2.0, -0.5, 0.5)


def solution_base(x: float, y: float, lam: float) -> float:
    """The quantity raised to -a/4: x^2 - (y + lam rho^2)^2 (lam = 0 for
    the base solution); positive exactly on the solution's domain."""
    b = y + lam * (x * x + y * y)
    return (x - b) * (x + b)


def strip_timestamp(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith('  "timestamp":'))


def _close(got: float, want: float, rel: float = 1e-12) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


class Mismatch(Exception):
    """An output differs from the known answer.  ``kind`` names the check
    that failed, a fixed string per check, so failures can be counted by
    reason; the message adds the figures of this op."""

    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind


def _require(cond: bool, kind: str, detail: str = "") -> None:
    if not cond:
        raise Mismatch(kind, detail)


def check(op: dict, rc: int, stdout: str, csv_text: str | None) -> None:
    """Raise Mismatch unless the op's exit code and report match the
    known answer stored in ``op["expect"]``."""
    exp = op["expect"]
    _require(rc != 2, "usage error (exit 2)")
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise Mismatch("report is not JSON", str(exc)) from None
    _CHECKS[op["cmd"]](exp, report, csv_text)
    _require(rc == exp["rc"], "exit code", f"{rc}, expected {exp['rc']}")


def _check_exponents(exp, rep, _csv):
    _require(Fraction(rep["c1_exact"]) == Fraction(exp["c1"]), "c1")
    _require(Fraction(rep["c2_exact"]) == Fraction(exp["c2"]), "c2")


def _check_symmetry(exp, rep, _csv):
    _require(rep["status"] == exp["status"], "status",
             f"{rep['status']}, expected {exp['status']}")
    _require(rep["is_exceptional"] == exp["is_exceptional"], "is_exceptional")
    _require(rep["sample_count"] == exp["samples"], "sample_count")


def _check_transform(exp, rep, _csv):
    _require(rep["structural_match"] is True, "structural_match is false")
    _require(rep["equiv"] is not None and rep["equiv"]["equivalent"] is True,
             "numeric equivalence is false")
    if exp.get("point") is None:
        return
    x, y = exp["point"]
    a, lam = Fraction(exp["a"]), float(Fraction(exp["lam"]))
    pt = rep["point"]
    c = 1.0 + lam * lam * (x * x + y * y) + 2.0 * lam * y
    _require(_close(pt["C"], c), "conformal factor")
    _require(_close(pt["mapped"][0], x / c)
             and _close(pt["mapped"][1], (y + lam * (x * x + y * y)) / c), "mapped point")
    s = solution_base(x, y, lam)
    _require(pt["in_domain"] == (c > 0 and s > 0), "point membership")
    if pt["in_domain"]:
        _require(_close(pt["u"], s ** (-float(a) / 4), 1e-9), "u at the point")


def _check_region(exp, rep, _csv):
    c1, c2, rad = region_geometry(Fraction(exp["lam"]))
    _require(all(_close(g, w) for g, w in zip(rep["center1"], c1)), "center1")
    _require(all(_close(g, w) for g, w in zip(rep["center2"], c2)), "center2")
    _require(_close(rep["radius"], rad), "radius")
    _require(rep["xor_check"] == {"samples": exp["samples"], "mismatches": 0},
             "xor check", str(rep["xor_check"]))


def _check_reduce(exp, rep, _csv):
    g1, g2 = profile_gammas(Fraction(exp["a"]))
    _require(Fraction(rep["profile_gamma1"]) == g1
             and Fraction(rep["profile_gamma2"]) == g2, "profile gammas")
    _require(rep["gammas_match_profile"] is True, "gammas_match_profile")
    _require(rep["profile_solves_both"] is True, "profile_solves_both")


def _check_weak_cs(exp, rep, _csv):
    stages = [s["verdict"] for s in rep["stages"]]
    _require(stages == WEAK_CS_STAGES, "stage verdicts", str(stages))
    _require(rep["confirmed"] is True, "confirmed is false")


def _check_grid(exp, rep, csv_text):
    g = rep["grid"]
    _require((g["nx"], g["ny"]) == (exp["nx"], exp["ny"]), "grid size")
    ext = exp["extent"]
    got = (g["x_min"], g["x_max"], g["y_min"], g["y_max"])
    _require(all(_close(v, w) for v, w in zip(got, ext)), "grid extent")
    _require(csv_text is not None, "no CSV written")
    lines = csv_text.splitlines()
    _require(lines[0] == CSV_HEADER, "CSV header")
    _require(len(lines) == 1 + exp["nx"] * exp["ny"], "CSV row count")
    a = float(Fraction(exp["a"]))
    lam = float(Fraction(exp["lam"]))
    expo = -a / 4
    in_domain = 0
    sup = None
    for line in lines[1:]:
        xs, ys, flag, us, rs = line.split(",")
        if flag != "1":
            continue
        in_domain += 1
        x, y = float(xs), float(ys)
        s = solution_base(x, y, lam)
        b = y + lam * (x * x + y * y)
        # |s| may be tiny near the region boundary; allow the roundoff
        # that the two evaluation orders can produce there
        slack = 1e-13 * (x * x + b * b)
        _require(s > -slack, "node outside the domain", f"({xs}, {ys})")
        if s > slack:
            rel = 1e-12 + 4e-16 * (x * x + b * b) / s * (1.0 + abs(expo))
            _require(_close(float(us), s ** expo, rel), "u at a node", f"({xs}, {ys})")
        r = abs(float(rs))
        if sup is None or r > sup:
            sup = r
    _require(in_domain == rep["in_domain_nodes"], "in-domain count")
    _require(sup == rep["sup_residual"], "sup norm differs from the CSV")
    # the program's own verdict comes last: an op that fails here has
    # passed every check above, the oracle's u and domain checks included
    _require(rep["within_tolerance"] is True, "within_tolerance is false",
             f"sup residual {rep['sup_residual']:.3g} above {rep['tolerance']:g}")


_CHECKS = {
    "exponents": _check_exponents,
    "check-symmetry": _check_symmetry,
    "transform": _check_transform,
    "region": _check_region,
    "reduce": _check_reduce,
    "weak-cs": _check_weak_cs,
    "residual-grid": _check_grid,
}
