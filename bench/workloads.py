"""Benchmark workloads: the shipped configs of each kind plus seeded inputs.

Every workload is a list of cases.  A case is one config file run through
the CLI entry point ``reruns`` times into one output directory, together
with what its output check needs (oracle thresholds and counts computed
here, before any timing).  The generator varies well support, shape,
amplitude, sector and coupling grid inside the ranges the shipped configs
use, and keeps the number and size of the runs fixed, so that the cost of a
pass hardly depends on the seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import checks as ck

RERUNS = 3       # studies_rerun: runs of each config into one --out
RADIUS = 1.0     # obstacle radius of every exterior-ball config
SHAPES = ("indicator", "tent", "bump")
SECTORS = (0, 1, 2, 2)  # dealt to the four mu-curve slots of each dimension


@dataclass
class Case:
    subcommand: str
    name: str                 # config file stem, also the artifact stem
    config: dict
    expect: dict = field(default_factory=dict)
    reruns: int = 1
    path: str = ""            # config file the CLI reads

    @property
    def json_artifact(self) -> str:
        return self.config.get("output", {}).get("json", f"{self.subcommand}.json")


def _shipped(root: str, subcommand: str, filename: str, reruns: int = 1) -> Case:
    path = os.path.join(root, "configs", filename)
    with open(path) as fh:
        cfg = json.load(fh)
    return Case(subcommand, filename[:-5], cfg, {}, reruns, path)


def _output(name: str) -> dict:
    return {"json": f"{name}.json", "csv": f"{name}.csv"}


def _u(rng: random.Random, lo: float, hi: float, digits: int = 3) -> float:
    return round(rng.uniform(lo, hi), digits)


def _nudged(count, beta: float) -> float:
    """Move beta up in 2% steps until the count is the same 1% either side,
    so that mesh error cannot flip it."""
    while count(beta * 0.99) != count(beta * 1.01):
        beta = round(beta * 1.02, 4)
    return beta


def _well(rng: random.Random, inner: float, shapes=SHAPES) -> dict:
    lo = round(inner + rng.uniform(0.3, 0.8), 3)
    return {"kind": rng.choice(shapes),
            "support": [lo, round(lo + rng.uniform(0.8, 1.2), 3)],
            "amplitude": _u(rng, 0.5, 2.0)}


def _sandwich(d: int, l: int, bc: str, pot: dict) -> dict:
    """Oracle expectation for a radial well on the exterior ball.

    Indicator wells get the exact threshold.  Tent and bump wells lie below
    the indicator of their support and above half their height on the middle
    half of it, so their threshold lies between those two oracles.
    """
    lo, hi = pot["support"]
    amp = pot["amplitude"]
    if pot["kind"] == "indicator":
        return {"oracle": ck.sector_threshold(d, l, RADIUS, lo, hi, amp, bc)}
    q = 0.25 * (hi - lo)
    return {"bounds": [ck.sector_threshold(d, l, RADIUS, lo, hi, amp, bc),
                       ck.sector_threshold(d, l, RADIUS, lo + q, hi - q, 0.5 * amp, bc)]}


# ---------------------------------------------------------------------------
# kernel route


def kernel_route(root: str, rng: random.Random) -> list[Case]:
    cases = [_shipped(root, "dichotomy", "dichotomy.json"),
             _shipped(root, "fkw", "fkw_ball_d2.json"),
             _shipped(root, "fkw", "fkw_ball_d3.json"),
             _shipped(root, "mu-curve", "mu_curve_neumann_1d.json"),
             _shipped(root, "beta-cr", "beta_cr_square_well.json")]
    cases[1].expect = {"verdict": "divergent"}
    # the fkw condition is Neumann on sector 0, which has the lowest threshold
    lo, hi = cases[2].config["potential"]["support"]
    cases[2].expect = {"verdict": "bounded", "oracle": ck.sector_threshold(
        3, 0, cases[2].config["problem"]["radius"], lo, hi, 1.0, "neumann")}
    cases[3].expect = {"d": 1, "bc": "neumann", "sector": 0}
    cases[4].expect = {"oracle": ck.square_well_beta_cr(
        *cases[4].config["potential"]["support"])}
    # Kernel cost depends on the dimension and the sector (the Bessel order),
    # so each dimension deals the same sectors to its four slots every seed.
    slots = []
    for d in (2, 3):
        sectors = rng.sample(SECTORS, len(SECTORS))
        slots += [(d, bc, l) for bc, l in zip(("dirichlet", "dirichlet", "neumann",
                                               "neumann"), sectors)]
    for i, (d, bc, sector) in enumerate(slots):
        pot = _well(rng, RADIUS)
        expect = {"d": d, "bc": bc, "sector": sector}
        # The extrapolated d=2 Dirichlet s-wave threshold converges like
        # 1/log|lambda| and sits about 5% above the oracle at lambda = -1e-8
        # (0.831 against 0.790 for the unit well on [1.5, 2.5]), so only its
        # verdict is checked.
        if ck.expected_verdict(d, bc, sector) == "bounded" and \
                (d, bc, sector) != (2, "dirichlet", 0):
            expect.update(_sandwich(d, sector, bc, pot))
        name = f"mu_curve_{i}_d{d}_{bc}_l{sector}"
        cases.append(Case("mu-curve", name, {
            "problem": {"geometry": "exterior_ball", "dimension": d,
                        "boundary_condition": bc, "radius": RADIUS, "sector": sector},
            "potential": pot,
            "numerics": {"m": 300, "lambda_decades": [2, 8]},
            "output": _output(name)}, expect))
    # one variable-coefficient case: a(r) sampled on [R, R + 1.5], 1 beyond
    a_pts = [[RADIUS, _u(rng, 0.7, 1.4)], [RADIUS + 0.75, _u(rng, 0.7, 1.4)], [RADIUS + 1.5, 1.0]]
    pot = _well(rng, RADIUS)
    name = "mu_curve_varcoef_d3_dirichlet"
    cases.append(Case("mu-curve", name, {
        "problem": {"geometry": "exterior_ball", "dimension": 3,
                    "boundary_condition": "dirichlet", "radius": RADIUS,
                    "coefficient": {"samples": a_pts, "flat_radius": RADIUS + 1.5}},
        "potential": pot,
        "numerics": {"m": 200, "lambda_decades": [2, 7]},
        "output": _output(name)}, {"d": 3, "bc": "dirichlet", "sector": 0}))
    return cases


# ---------------------------------------------------------------------------
# direct route


def _halfline_counts(lo: float, hi: float, amp: float, betas) -> dict:
    return {repr(float(b)): ck.sector_zero_count(1, 0, 0.0, lo, hi, amp, b)
            for b in betas}


def direct_route(root: str, rng: random.Random) -> list[Case]:
    cases = [_shipped(root, "direct", "direct_square_well.json"),
             _shipped(root, "crosscheck", "crosscheck_square_well.json")]
    lo, hi = cases[0].config["potential"]["support"]
    cases[0].expect = {"oracle": ck.square_well_beta_cr(lo, hi), "counts": _halfline_counts(
        lo, hi, 1.0, cases[0].config["study"]["beta_grid"])}
    cases[1].expect = {"rows": len(cases[1].config["study"]["beta_grid"])}
    for i in range(2):
        lo = _u(rng, 0.5, 1.5)
        hi = round(lo + rng.uniform(0.8, 1.2), 3)
        amp = _u(rng, 0.5, 2.0)
        oracle = ck.square_well_beta_cr(lo, hi, amp)

        def count(b, lo=lo, hi=hi, amp=amp):
            return ck.sector_zero_count(1, 0, 0.0, lo, hi, amp, b)

        # shooting cost grows with beta / beta_cr, so that ratio stays narrow
        betas = [round(oracle * rng.uniform(0.75, 0.85), 4),
                 _nudged(count, round(oracle * rng.uniform(1.8, 2.2), 4))]
        name = f"direct_{i}"
        cases.append(Case("direct", name, {
            "problem": {"geometry": "half_line", "dimension": 1,
                        "boundary_condition": "dirichlet"},
            "potential": {"kind": "indicator", "support": [lo, hi], "amplitude": amp},
            "numerics": {"mesh_h": 0.002, "r_max": 30.0},
            "study": {"beta_grid": betas},
            "output": _output(name)},
            {"oracle": oracle, "counts": _halfline_counts(lo, hi, amp, betas)}))
    return cases


# ---------------------------------------------------------------------------
# studies, each rerun into the same output directory


def _ball_counts(lo, hi, amp, betas) -> dict:
    return {repr(float(b)): ck.total_zero_count(3, RADIUS, lo, hi, amp, b)
            for b in betas}


def _scaling_oracles(coef: float, expo: float, n_grid) -> list[float]:
    """Square-well thresholds of the realized wells: height n, half-width 1/n,
    centered at coef * n^-expo."""
    out = []
    for n in n_grid:
        c = coef * n ** (-expo)
        out.append(ck.square_well_beta_cr(c - 1.0 / n, c + 1.0 / n, float(n)))
    return out


def studies_rerun(root: str, rng: random.Random) -> list[Case]:
    cases = [_shipped(root, "clr", "clr_d3.json", RERUNS),
             _shipped(root, "scaling", "scaling_1d.json", RERUNS),
             _shipped(root, "halfspace", "halfspace_d2.json", RERUNS),
             _shipped(root, "halfspace", "halfspace_d3.json", RERUNS)]
    lo, hi = cases[0].config["potential"]["support"]
    cases[0].expect = {"counts": _ball_counts(lo, hi, 1.0, cases[0].config["study"]["beta_grid"])}
    # wells of height n and width 2/n centered at 1/n: beta_cr = pi^2 n / 16
    cases[1].expect = {"oracles": [math.pi ** 2 * n / 16.0
                                   for n in cases[1].config["study"]["n_grid"]]}
    cases[2].expect = {"d": 2, "rows": len(cases[2].config["study"]["n_grid"]),
                       "decreasing": True}
    cases[3].expect = {"d": 3, "rows": len(cases[3].config["study"]["n_grid"])}
    deep_betas = [5.0, 15.0, 50.0, 160.0, 500.0]  # the acceptance gate's slope audit
    ball = {"geometry": "exterior_ball", "dimension": 3,
            "boundary_condition": "dirichlet", "radius": RADIUS}
    cases.append(Case("clr", "clr_deep", {
        "problem": ball,
        "potential": {"kind": "indicator", "support": [lo, hi]},
        "numerics": {"mesh_h": 0.002, "r_max": 30.0},
        "study": {"beta_grid": deep_betas},
        "output": _output("clr_deep")},
        {"counts": _ball_counts(lo, hi, 1.0, deep_betas)}, RERUNS))

    pot = _well(rng, RADIUS, ("indicator",))
    lo, hi = pot["support"]
    amp = pot["amplitude"]

    def count(b):
        return ck.total_zero_count(3, RADIUS, lo, hi, amp, b)

    first = ck.sector_threshold(3, 0, RADIUS, lo, hi, amp)
    betas = [_nudged(count, round(first * f, 4)) for f in
             (rng.uniform(1.05, 1.5), rng.uniform(3.0, 6.0),
              rng.uniform(15.0, 30.0), rng.uniform(60.0, 120.0))]
    cases.append(Case("clr", "clr_seeded", {
        "problem": ball, "potential": pot,
        "numerics": {"mesh_h": 0.002, "r_max": 30.0},
        "study": {"beta_grid": betas},
        "output": _output("clr_seeded")},
        {"counts": _ball_counts(lo, hi, amp, betas)}, RERUNS))

    coef, expo = _u(rng, 1.0, 1.6), _u(rng, 0.8, 1.0)
    n_grid = [rng.choice([4, 5, 6]), rng.choice([10, 12, 14]), rng.choice([20, 24, 28])]
    cases.append(Case("scaling", "scaling_seeded", {
        "problem": {"geometry": "half_line", "dimension": 1,
                    "boundary_condition": "dirichlet"},
        "potential": {"kind": "family", "profile": "indicator",
                      "center_coefficient": coef, "center_exponent": expo},
        "numerics": {"m": 400},
        "study": {"n_grid": n_grid},
        "output": _output("scaling_seeded")},
        {"oracles": _scaling_oracles(coef, expo, n_grid)}, RERUNS))

    for d, m, n_grid in ((2, 500, [_u(rng, 5, 20, 1), _u(rng, 50, 200, 1),
                                   _u(rng, 500, 5000, 0)]),
                         (3, 700, [_u(rng, 2, 4, 2), _u(rng, 8, 16, 2),
                                   _u(rng, 32, 64, 2)])):
        sign = "minus" if d == 2 else rng.choice(["minus", "plus"])
        name = f"halfspace_seeded_d{d}"
        cases.append(Case("halfspace", name, {
            "problem": {"geometry": "half_space", "dimension": d,
                        "boundary_condition": "dirichlet"},
            "potential": {"kind": "family", "profile": rng.choice(SHAPES),
                          "center_coefficient": _u(rng, 1.0, 1.5),
                          "center_exponent": _u(rng, 0.5, 1.0)},
            "numerics": {"m": m},
            "study": {"sign": sign, "n_grid": n_grid},
            "output": _output(name)}, {"d": d, "rows": 3}, RERUNS))
    return cases


WORKLOADS = {"kernel_route": kernel_route, "direct_route": direct_route,
             "studies_rerun": studies_rerun}


def generate(root: str, workload: str, seed: int) -> list[Case]:
    """The workload's cases for this seed; same seed, same cases."""
    return WORKLOADS[workload](root, random.Random(f"{workload}:{seed}"))


def write_configs(cases: list[Case], directory: str, schema: dict, validate) -> None:
    """Validate each generated config against the shipped schema, then write
    it where the CLI will read it.  Shipped configs are read in place."""
    os.makedirs(directory, exist_ok=True)
    for case in cases:
        if case.path:
            continue
        validate(case.config, schema)
        case.path = os.path.join(directory, f"{case.name}.json")
        with open(case.path, "w") as fh:
            json.dump(case.config, fh, indent=1, sort_keys=True)
