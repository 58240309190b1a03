"""Acceptance gate: every shipped claim at its stated tolerance.

Each test prints one PASS line with the measured numbers once its assertions
hold, so `pytest -s tests/test_acceptance.py` reads as a checklist.
"""

import json
import math
import os

import numpy as np

from betacrit import birman_schwinger as bs
from betacrit import cli
from betacrit import direct_spectrum as ds
from betacrit import experiments as ex
from betacrit import fkw
from betacrit.model import (CenterPath, Potential, ProblemSpec, Profile,
                            ScaledPotentialFamily)

import oracles as oc

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

HALF_LINE_D = ProblemSpec(1, "half_line", "dirichlet")
HALF_LINE_N = ProblemSpec(1, "half_line", "neumann")
WELL = Potential(Profile.indicator(1.0, 2.0))
BALL_POT = Potential(Profile.indicator(1.5, 2.5))


def report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_1_square_well_threshold_both_routes():
    oracle = oc.square_well_beta_cr(1.0, 2.0)
    kernel_route = bs.beta_critical(HALF_LINE_D, WELL, method="limit-kernel",
                                    m=400)
    direct_route = ds.beta_critical_direct(HALF_LINE_D, WELL)
    err_k = abs(kernel_route - oracle) / oracle
    err_d = abs(direct_route - oracle) / oracle
    assert err_k <= 1e-3
    assert err_d <= 1e-3
    report(1, f"beta_cr oracle {oracle:.6f}; kernel {kernel_route:.6f} "
              f"(rel {err_k:.2e}), direct {direct_route:.6f} (rel {err_d:.2e})")


def test_criterion_2_threshold_counts_stable():
    oracle = oc.square_well_beta_cr(1.0, 2.0)
    below = ds.count_negative(HALF_LINE_D, WELL, 0.9 * oracle)
    above = ds.count_negative(HALF_LINE_D, WELL, 1.1 * oracle)
    assert below == 0 and above == 1
    report(2, f"count(0.9 beta_cr) = {below}, count(1.1 beta_cr) = {above}, "
              "read off the zero-energy Pruefer angle")


def test_criterion_3_eigenvalue_correspondence_residual():
    rows = ds.crosscheck_birman_schwinger(HALF_LINE_D, WELL, [1.0, 2.0, 4.0],
                                          m=400)
    worst = max(r["residual"] for r in rows)
    assert worst <= 1e-3
    report(3, f"max |beta*mu0(lambda0) - 1| = {worst:.2e} over beta in {{1,2,4}}")


def test_criterion_4_boundary_condition_dichotomy():
    study = ex.dichotomy_suite(m=300, decades=(2, 8))
    assert study.meta["indeterminate"] == 0
    for row in study.rows:
        if row["bc"] == "dirichlet":
            assert row["verdict"] == "bounded", row
        else:
            assert row["verdict"] == "divergent", row
            if row["d"] == 1:
                assert abs(row["rate_exponent"] + 0.5) <= 0.05, row
            else:
                assert row["log_divergence"], row
    rates = [r["rate_exponent"] for r in study.rows
             if r["d"] == 1 and r["bc"] == "neumann"]
    report(4, f"12 verdicts match the split; d=1 Neumann rates {rates}; "
              "0 indeterminate")


def test_criterion_5_d3_norm_stays_bounded():
    changes = {}
    for bc in ("dirichlet", "neumann"):
        prob = ProblemSpec(3, "exterior_ball", bc, radius=1.0)
        rep = bs.mu_curve(prob, BALL_POT, lambda_grid=[-1e-5, -1e-7], m=300)
        mus = oc.report_mus(rep)
        changes[bc] = abs(mus[1] - mus[0]) / mus[0]
        assert changes[bc] < 0.01
        value = bs.beta_critical(prob, BALL_POT, method="limit-kernel", m=300)
        assert value > 0
    report(5, "relative change of mu0 between -1e-5 and -1e-7: "
              f"dirichlet {changes['dirichlet']:.2e}, "
              f"neumann {changes['neumann']:.2e}; both thresholds positive")


def test_criterion_6_shrinking_well_scaling_law():
    family = ScaledPotentialFamily(Profile.indicator(0.0, 1.0),
                                   CenterPath(1.0, 1.0), 1)
    study = ex.scaling_study_1d(family, [4, 8, 16, 32], m=400)
    worst = 0.0
    for row in study.rows:
        expected = math.pi ** 2 * row["n"] / 16.0
        worst = max(worst,
                    abs(row["beta_cr_kernel"] - expected) / expected,
                    abs(row["beta_cr_direct"] - expected) / expected)
    assert worst <= 5e-3
    assert study.meta["monotone_increasing"]
    report(6, f"beta_cr(n) vs pi^2 n/16 worst relative gap {worst:.2e}; "
              "monotone increasing")


def test_criterion_7_planar_halfspace_norms():
    fam_fast = ScaledPotentialFamily(Profile.indicator(0.0, 1.0),
                                     CenterPath(1.0, 1.0), 2)
    fast = ex.halfspace_norm_study(2, "minus", fam_fast,
                                   [10, 100, 1000, 10000], m=500)
    norms = fast.values("norm")
    assert fast.meta["strictly_decreasing"]
    fam_slow = ScaledPotentialFamily(Profile.indicator(0.0, 1.0),
                                     CenterPath(1.0, 0.5), 2)
    slow = ex.halfspace_norm_study(2, "minus", fam_slow, [100, 1000, 10000],
                                   m=500)
    floor = slow.meta["profile_mass"] / (8.0 * math.pi)
    lows = slow.values("norm")
    assert np.all(lows >= floor)
    report(7, f"bounded-center norms decrease {np.round(norms, 4).tolist()}; "
              f"slow-center norms {np.round(lows, 4).tolist()} all above "
              f"{floor:.4f}")


def test_criterion_8_spatial_halfspace_norms_above_minorant():
    fam = ScaledPotentialFamily(Profile.indicator(0.0, 1.0),
                                CenterPath(1.0, 1.0), 3)
    summary = {}
    for sign in ("minus", "plus"):
        study = ex.halfspace_norm_study(3, sign, fam, [2, 8, 32, 128], m=700)
        for row in study.rows:
            assert row["norm"] >= row["minorant"] > 0
        summary[sign] = (study.rows[0]["norm"], study.rows[0]["minorant"])
    report(8, "norms above the sub-ball comparison eigenvalue: "
              f"minus {summary['minus'][0]:.4f} >= {summary['minus'][1]:.4f}, "
              f"plus {summary['plus'][0]:.4f} >= {summary['plus'][1]:.4f}")


def test_criterion_9_nonlocal_condition():
    ball3 = ProblemSpec(3, "exterior_ball", "fkw", radius=1.0)
    ball2 = ProblemSpec(2, "exterior_ball", "fkw", radius=1.0)
    beta = 1.0
    floor = -beta * BALL_POT.max_value() - 1.0
    grid = np.linspace(floor, floor - 9.0, 10)
    g_vals = [fkw.gamma1(ball3, beta, BALL_POT, float(lam)) for lam in grid]
    assert all(g > 0 for g in g_vals)
    g_limit = fkw.gamma1(ball3, 0.0, BALL_POT, 0.0)
    assert abs(g_limit - 1.0) <= 1e-4
    lim3 = fkw.fkw_norm_limit(ball3, BALL_POT, m=240, sector_max=2)
    lim2 = fkw.fkw_norm_limit(ball2, BALL_POT, m=240, sector_max=2)
    assert lim3["verdict"] == "bounded"
    assert lim2["verdict"] == "divergent"
    b3 = fkw.beta_critical_fkw(ball3, BALL_POT, m=300, sector_max=2)
    b2 = fkw.beta_critical_fkw(ball2, BALL_POT, m=240, sector_max=2)
    assert b3 > 0 and b2 == 0.0
    report(9, f"gamma1 > 0 on the 10-point grid (min {min(g_vals):.3f}); "
              f"gamma1(0-) = {g_limit:.6f}; verdicts bounded/divergent; "
              f"beta_cr = {b3:.4f} (d=3) and {b2} (d=2)")


def test_criterion_10_counting_audit_with_deep_well():
    prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0)
    deep_beta = 3.5
    oracle_count = oc.total_count_zero_energy(3, 1.0, 1.5, 2.5, 1.0, deep_beta)
    assert oracle_count == 4
    threshold = oc.square_well_beta_cr(1.5, 2.5, inner=1.0)
    study = ex.clr_audit(prob, BALL_POT,
                         [1.05 * threshold, 2.0, deep_beta, 8.0, 20.0, 80.0])
    assert study.meta["violations"] == 0
    counts = {row["beta"]: row["count"] for row in study.rows}
    assert counts[deep_beta] == 4
    betas = [5.0, 15.0, 50.0, 160.0, 500.0]
    slope_study = ex.clr_audit(prob, BALL_POT, betas)
    assert slope_study.meta["violations"] == 0
    slope = float(np.polyfit(np.log(betas),
                             np.log(slope_study.values("count")), 1)[0])
    assert 1.2 <= slope <= 1.8
    report(10, f"zero violations; deep-well count {counts[deep_beta]} matches "
               f"the zero-energy oracle; growth exponent {slope:.3f}")


SHIPPED_CONFIGS = [
    ("beta-cr", "beta_cr_square_well.json"),
    ("mu-curve", "mu_curve_neumann_1d.json"),
    ("direct", "direct_square_well.json"),
    ("crosscheck", "crosscheck_square_well.json"),
    ("fkw", "fkw_ball_d3.json"),
    ("fkw", "fkw_ball_d2.json"),
    ("scaling", "scaling_1d.json"),
    ("halfspace", "halfspace_d2.json"),
    ("halfspace", "halfspace_d3.json"),
    ("clr", "clr_d3.json"),
    ("dichotomy", "dichotomy.json"),
]


def test_criterion_11_determinism_of_every_subcommand(tmp_path):
    for sub, name in SHIPPED_CONFIGS:
        cfg_path = os.path.join(CONFIG_DIR, name)
        with open(cfg_path) as fh:
            out_names = json.load(fh)["output"].values()
        runs = []
        for tag in ("one", "two"):
            out = tmp_path / f"{name}-{tag}"
            assert cli.run(sub, cfg_path, str(out)) == 0, (sub, name)
            runs.append(out)
        for artifact in out_names:
            b1 = (runs[0] / artifact).read_bytes()
            b2 = (runs[1] / artifact).read_bytes()
            assert b1 == b2, f"{artifact} differs between runs"
    report(11, f"{len(SHIPPED_CONFIGS)} subcommand runs byte-identical on rerun")
