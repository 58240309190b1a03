"""Output checks for the benchmark: closed-form oracles and report rules.

The oracles are written from the textbook matching conditions and share no
code with the package, so a check fails when the program's numbers drift,
not when both sides drift together.  Every check returns a list of problems;
an empty list means the report passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import jv, spherical_jn, spherical_yn, yv

BETA_TOL = 1e-3        # kernel and direct thresholds against the oracle
SCALING_TOL = 5e-3     # shrinking-well thresholds (pi^2 n / 16 when centered at 1/n)
RESIDUAL_TOL = 1e-3    # |beta mu0(lambda0) - 1| and the eigen-equation residual
RATE_TOL = 0.05        # d=1 Neumann divergence exponent against -1/2


# ---------------------------------------------------------------------------
# zero-energy oracles for indicator wells


def square_well_beta_cr(lo: float, hi: float, height: float = 1.0,
                        inner: float = 0.0) -> float:
    """Threshold of height*chi_[lo,hi] on a line with Dirichlet at ``inner``.

    The zero-energy solution is linear outside the well and sin/cos inside;
    the threshold is the smallest k with k*w + arctan(k*arm) = pi/2, where
    w is the well width and arm its distance from the Dirichlet point.
    """
    width, arm = hi - lo, lo - inner
    k = brentq(lambda k: k * width + math.atan(k * arm) - 0.5 * math.pi,
               1e-12, 0.5 * math.pi / width + 1e-9, xtol=1e-15)
    return k * k / height


def _free_pair(d: int, l: int):
    """(growing, decaying-or-bounded) zero-energy solutions, with derivatives."""
    if d == 1 or (d == 2 and l == 0):
        grow = (lambda r: r, lambda r: 1.0) if d == 1 else \
            (lambda r: math.log(r), lambda r: 1.0 / r)
        return grow, (lambda r: 1.0, lambda r: 0.0)
    p = l + d - 2
    return ((lambda r: r ** l, lambda r: l * r ** (l - 1)),
            (lambda r: r ** (-p), lambda r: -p * r ** (-p - 1)))


def _well_pair(d: int, l: int, kappa: float):
    """Regular and irregular zero-energy solutions inside the well."""
    if d == 1:
        return ((lambda r: np.sin(kappa * r), lambda r: kappa * math.cos(kappa * r)),
                (lambda r: np.cos(kappa * r), lambda r: -kappa * math.sin(kappa * r)))
    if d == 2:
        return ((lambda r: jv(l, kappa * r),
                 lambda r: 0.5 * kappa * (jv(l - 1, kappa * r) - jv(l + 1, kappa * r))),
                (lambda r: yv(l, kappa * r),
                 lambda r: 0.5 * kappa * (yv(l - 1, kappa * r) - yv(l + 1, kappa * r))))
    return ((lambda r: spherical_jn(l, kappa * r),
             lambda r: kappa * spherical_jn(l, kappa * r, derivative=True)),
            (lambda r: spherical_yn(l, kappa * r),
             lambda r: kappa * spherical_yn(l, kappa * r, derivative=True)))


def sector_zero_count(d: int, l: int, r0: float, lo: float, hi: float,
                      height: float, beta: float, bc: str = "dirichlet") -> int:
    """Bound states of one sector: zeros of the regular zero-energy solution.

    ``d = 1`` with ``r0 = 0`` is the half-line.  Between the boundary and
    the well the solution is free and has no zero; inside the well it is a
    Bessel combination sampled densely; past the well it is free again and
    has at most one zero.
    """
    (g, dg), (b, db) = _free_pair(d, l)
    c_g, c_b = (b(r0), -g(r0)) if bc == "dirichlet" else (db(r0), -dg(r0))
    u, du = c_g * g(lo) + c_b * b(lo), c_g * dg(lo) + c_b * db(lo)
    kappa = math.sqrt(beta * height)
    (f1, df1), (f2, df2) = _well_pair(d, l, kappa)
    wr = f1(lo) * df2(lo) - df1(lo) * f2(lo)
    a1 = (u * df2(lo) - du * f2(lo)) / wr
    a2 = (du * f1(lo) - u * df1(lo)) / wr
    n = max(4000, int(40 * kappa * (hi - lo)))
    vals = a1 * f1(np.linspace(lo, hi, n)) + a2 * f2(np.linspace(lo, hi, n))
    signs = np.sign(vals[vals != 0])
    zeros = int(np.count_nonzero(signs[1:] != signs[:-1]))
    u, du = a1 * f1(hi) + a2 * f2(hi), a1 * df1(hi) + a2 * df2(hi)
    wt = g(hi) * db(hi) - dg(hi) * b(hi)
    t_g = (u * db(hi) - du * b(hi)) / wt   # tail = t_g * grow + t_b * bounded
    t_b = (du * g(hi) - u * dg(hi)) / wt
    if d == 2 and l == 0:
        zeros += t_g != 0.0 and -t_b / t_g > math.log(hi)
    elif t_g != 0.0 and t_b * t_g < 0.0:
        # grow/bounded at the tail zero equals -t_b/t_g
        root = -t_b / t_g if d == 1 else (-t_b / t_g) ** (1.0 / (2 * l + d - 2))
        zeros += root > hi
    return int(zeros)


def sector_threshold(d: int, l: int, r0: float, lo: float, hi: float,
                     height: float = 1.0, bc: str = "dirichlet",
                     rel_tol: float = 1e-10) -> float:
    """Smallest beta at which the sector gains a bound state."""
    top = 1.0
    while sector_zero_count(d, l, r0, lo, hi, height, top, bc) == 0:
        top *= 2.0
    bottom = 0.0
    while top - bottom > rel_tol * top:
        mid = 0.5 * (bottom + top)
        if sector_zero_count(d, l, r0, lo, hi, height, mid, bc) == 0:
            bottom = mid
        else:
            top = mid
    return 0.5 * (bottom + top)


def total_zero_count(d: int, r0: float, lo: float, hi: float, height: float,
                     beta: float, bc: str = "dirichlet") -> int:
    """Bound states of the exterior ball, sectors summed with multiplicity."""
    total = 0
    for l in range(10000):
        c = sector_zero_count(d, l, r0, lo, hi, height, beta, bc)
        if c == 0:
            return total
        total += c * (2 * l + 1 if d == 3 else (1 if l == 0 else 2))
    return total


# ---------------------------------------------------------------------------
# report checks


def _rel(value, ref) -> float:
    return abs(value - ref) / abs(ref)


def expected_verdict(d: int, bc: str, sector: int) -> str:
    """Dichotomy rule: only low-dimensional Neumann s-waves lose the threshold."""
    return "divergent" if bc == "neumann" and sector == 0 and d <= 2 else "bounded"


def check_threshold(name, value, oracle, tol=BETA_TOL) -> list[str]:
    if value is None or not math.isfinite(value):
        return [f"{name}: no threshold reported"]
    if _rel(value, oracle) > tol:
        return [f"{name}: {value:.8g} vs oracle {oracle:.8g} "
                f"(rel {_rel(value, oracle):.2e} > {tol:g})"]
    return []


def check_mu_curve(report: dict, case: dict) -> list[str]:
    """Verdict by the dichotomy rule; threshold against the sector oracle."""
    cls = report.get("classification") or {}
    want = expected_verdict(case["d"], case["bc"], case["sector"])
    if cls.get("verdict") != want:
        return [f"mu-curve verdict {cls.get('verdict')!r}, expected {want!r}"]
    if want == "divergent":
        return [] if report.get("beta_cr") == 0.0 else ["divergent curve without beta_cr = 0"]
    beta = report.get("beta_cr")
    if "oracle" in case:
        return check_threshold("mu-curve beta_cr", beta, case["oracle"])
    if "bounds" in case:
        lo, hi = case["bounds"]
        ok = beta is not None and lo * (1 - BETA_TOL) <= beta <= hi * (1 + BETA_TOL)
        return [] if ok else [f"mu-curve beta_cr {beta!r} outside the oracle "
                              f"bracket [{lo:.8g}, {hi:.8g}]"]
    ok = beta is not None and math.isfinite(beta) and beta > 0
    return [] if ok else [f"bounded curve with beta_cr {beta!r}"]


def check_beta_cr(report: dict, case: dict) -> list[str]:
    return check_threshold("beta-cr", report.get("beta_cr"), case["oracle"])


def check_direct(report: dict, case: dict) -> list[str]:
    """Threshold against the oracle; each row's count against zero energy."""
    problems = check_threshold("direct beta_cr", report.get("beta_cr_direct"),
                               case["oracle"])
    for row in report["rows"]:
        want = case["counts"][repr(float(row["beta"]))]
        if row["count"] != want:
            problems.append(f"direct count {row['count']} at beta={row['beta']}, "
                            f"oracle {want}")
        if row["count"] > 0 and not (row["lambda0"] < 0 and row["residual"] < RESIDUAL_TOL):
            problems.append(f"direct ground state at beta={row['beta']}: "
                            f"lambda0 {row['lambda0']!r}, residual {row['residual']!r}")
    return problems


def check_crosscheck(report: dict, case: dict) -> list[str]:
    worst = max(r["residual"] for r in report["rows"])
    if len(report["rows"]) != case["rows"] or worst > RESIDUAL_TOL:
        return [f"crosscheck residual {worst:.3e} over {len(report['rows'])} rows"]
    return []


def check_fkw(report: dict, case: dict) -> list[str]:
    problems = []
    if "oracle" in case:
        problems += check_threshold("fkw beta_cr", report.get("beta_cr"), case["oracle"])
    if report["norm_limit"]["verdict"] != case["verdict"]:
        problems.append(f"fkw verdict {report['norm_limit']['verdict']!r}, "
                        f"expected {case['verdict']!r}")
    beta = report.get("beta_cr")
    if case["verdict"] == "divergent" and beta != 0.0:
        problems.append(f"divergent fkw case with beta_cr {beta!r}")
    if case["verdict"] == "bounded" and not (beta and beta > 0):
        problems.append(f"bounded fkw case with beta_cr {beta!r}")
    if not all(g["gamma1"] > 0 for g in report["gamma1"]):
        problems.append("fkw gamma1 not positive on the grid")
    return problems


def check_dichotomy(report: dict, case: dict) -> list[str]:
    problems = []
    for row in report["rows"]:
        want = expected_verdict(row["d"], row["bc"], 0)
        if row["verdict"] != want:
            problems.append(f"dichotomy {row['d']}/{row['bc']}/{row['potential']}: "
                            f"{row['verdict']!r}, expected {want!r}")
        elif want == "divergent" and row["d"] == 1 and \
                abs(row["rate_exponent"] + 0.5) > RATE_TOL:
            problems.append(f"dichotomy d=1 Neumann rate {row['rate_exponent']}")
        elif want == "divergent" and row["d"] == 2 and not row["log_divergence"]:
            problems.append(f"dichotomy d=2 Neumann {row['potential']} not logarithmic")
    if len(report["rows"]) != 12:
        problems.append(f"dichotomy has {len(report['rows'])} rows, expected 12")
    return problems


def check_scaling(report: dict, case: dict) -> list[str]:
    """Both routes against the square-well oracle of each realized well."""
    problems = []
    rows = report["rows"]
    if len(rows) != len(case["oracles"]):
        return [f"scaling has {len(rows)} rows, expected {len(case['oracles'])}"]
    for row, oracle in zip(rows, case["oracles"]):
        for key in ("beta_cr_kernel", "beta_cr_direct"):
            problems += check_threshold(f"scaling n={row['n']:g} {key}", row[key],
                                        oracle, SCALING_TOL)
    return problems


def check_halfspace(report: dict, case: dict) -> list[str]:
    rows = report["rows"]
    if len(rows) != case["rows"]:
        return [f"halfspace has {len(rows)} rows, expected {case['rows']}"]
    floor = "minorant" if case["d"] == 3 else "rank_one_bound"
    problems = [f"halfspace n={r['n']:g}: norm {r['norm']:.6g} below {floor} "
                f"{r[floor]:.6g}" for r in rows if not r["norm"] >= r[floor] > 0]
    norms = [r["norm"] for r in rows]
    if case.get("decreasing") and not all(b < a for a, b in zip(norms, norms[1:])):
        problems.append(f"halfspace norms not strictly decreasing: {norms}")
    return problems


def check_clr(report: dict, case: dict) -> list[str]:
    problems = []
    if report["metadata"]["violations"]:
        problems.append(f"clr audit reports {report['metadata']['violations']} violations")
    for row in report["rows"]:
        want = case["counts"][repr(float(row["beta"]))]
        if row["count"] != want:
            problems.append(f"clr count {row['count']} at beta={row['beta']}, "
                            f"oracle {want}")
    return problems


CHECKS = {
    "mu-curve": check_mu_curve,
    "beta-cr": check_beta_cr,
    "direct": check_direct,
    "crosscheck": check_crosscheck,
    "fkw": check_fkw,
    "dichotomy": check_dichotomy,
    "scaling": check_scaling,
    "halfspace": check_halfspace,
    "clr": check_clr,
}
