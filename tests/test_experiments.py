import math

import numpy as np
import pytest

from betacrit import birman_schwinger as bs
from betacrit import experiments as ex
from betacrit.errors import ValidationError
from betacrit.model import (CenterPath, Potential, ProblemSpec, Profile,
                            ScaledPotentialFamily)
from betacrit.green_kernels import halfspace_green

import oracles as oc


def unit_family(d, c=1.0, delta=1.0, profile=None):
    return ScaledPotentialFamily(profile or Profile.indicator(0.0, 1.0),
                                 CenterPath(c, delta), d)


class TestCellIntegrals:
    def test_disk_closed_form(self):
        pts = np.array([[0.0, 0.0], [0.3, 0.2], [-0.1, 0.6]])
        vals = ex.log_cell_integrals(pts, 1.0)
        exact = math.pi * (1.0 - np.sum(pts ** 2, axis=1)) / 2.0
        assert vals == pytest.approx(exact, abs=1e-10)

    def test_ball_closed_form(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.3, 0.2, 0.1], [0.5, -0.5, 0.2]])
        vals = ex.newton_cell_integrals(pts, 1.0)
        exact = 2.0 * math.pi * (1.0 - np.sum(pts ** 2, axis=1) / 3.0)
        assert vals == pytest.approx(exact, rel=1e-10)

    def test_halved_by_a_cut_through_the_center(self):
        val = ex.log_cell_integrals(np.array([[0.0, 0.0]]), 1.0, x1_min=0.0)
        assert val[0] == pytest.approx(math.pi / 4.0, rel=1e-10)

    def test_grid_weights_integrate_area_and_volume(self):
        pts, w = ex.disk_grid(20, 40)
        assert w.sum() == pytest.approx(math.pi, rel=1e-12)
        pts, w = ex.ball_grid(10, 10, 14)
        assert w.sum() == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)


class TestShrinkingWells1d:
    def test_threshold_follows_the_quarter_pi_square_law(self):
        study = ex.scaling_study_1d(unit_family(1), [4, 8, 16, 32], m=400)
        for row in study.rows:
            expected = math.pi ** 2 * row["n"] / 16.0
            assert row["beta_cr_kernel"] == pytest.approx(expected, rel=5e-3)
            assert row["beta_cr_direct"] == pytest.approx(expected, rel=5e-3)
        assert study.meta["monotone_increasing"]

    def test_quadrupling_scale_quadruples_threshold(self):
        study = ex.scaling_study_1d(unit_family(1), [4, 16], m=400,
                                    with_direct=False)
        r = study.rows[1]["beta_cr_kernel"] / study.rows[0]["beta_cr_kernel"]
        assert r == pytest.approx(4.0, rel=1e-3)

    def test_baseline_detached_well(self):
        fam = unit_family(1, c=2.0, delta=0.0)  # fixed center x = 2
        study = ex.scaling_study_1d(fam, [1], m=400, with_direct=False)
        expected = oc.square_well_beta_cr(1.0, 3.0)
        assert study.rows[0]["beta_cr_kernel"] == pytest.approx(expected, rel=1e-3)

    def test_fixed_center_thresholds_stabilize(self):
        # height scaling n keeps the threshold finite: a fixed-center family
        # converges to the point-interaction limit 1/(mass * center) = 1/4
        fam = unit_family(1, c=2.0, delta=0.0)
        study = ex.scaling_study_1d(fam, [4, 16, 64, 256], m=400,
                                    with_direct=False)
        gaps = [row["beta_cr_kernel"] - 0.25 for row in study.rows]
        assert all(g > 0 for g in gaps)
        for a, b in zip(gaps, gaps[1:]):
            assert b == pytest.approx(a / 4.0, rel=0.1)
        assert gaps[-1] < 2e-4

    def test_inadmissible_scales_truncated_with_notice(self):
        fam = unit_family(1, c=0.5, delta=0.5)
        study = ex.scaling_study_1d(fam, [2, 4, 8], m=200, with_direct=False)
        assert [row["n"] for row in study.rows] == [4.0, 8.0]
        assert any("n=2" in note for note in study.notices)

    def test_all_inadmissible_is_an_error(self):
        fam = unit_family(1, c=0.1, delta=1.0)
        with pytest.raises(ValidationError):
            ex.scaling_study_1d(fam, [2, 4], m=100, with_direct=False)


class TestHalfspaceStudies:
    def test_d2_bounded_center_norms_decay(self):
        study = ex.halfspace_norm_study(2, "minus", unit_family(2),
                                        [10, 100, 1000, 10000], m=500)
        norms = study.values("norm")
        assert study.meta["strictly_decreasing"]
        # the prefactor 1/ln n drives the decay once n x(n) is fixed
        assert norms[1] / norms[0] == pytest.approx(0.5, rel=1e-6)

    def test_d2_slow_center_stays_above_lower_bound(self):
        study = ex.halfspace_norm_study(2, "minus", unit_family(2, delta=0.5),
                                        [100, 1000, 10000], m=500)
        mass = study.meta["profile_mass"]
        assert mass == pytest.approx(math.pi, rel=1e-6)
        floor = mass / (8.0 * math.pi)
        for row in study.rows:
            assert row["norm"] >= floor
            assert row["norm"] >= 0.95 * row["rank_one_bound"]

    def test_d3_norms_above_minorant_both_signs(self):
        fam = unit_family(3)
        for sign in ("minus", "plus"):
            study = ex.halfspace_norm_study(3, sign, fam, [2, 8, 32, 128], m=700)
            for row in study.rows:
                assert row["minorant"] > 0
                assert row["norm"] >= row["minorant"]

    def test_d3_scale_invariance_of_the_rescaled_kernel(self):
        fam = unit_family(3)
        study = ex.halfspace_norm_study(3, "minus", fam, [4, 64], m=600)
        norms = study.values("norm")
        assert norms[0] == pytest.approx(norms[1], rel=1e-12)

    def test_rescaled_matches_physical_assembly(self):
        # same operator assembled in physical coordinates through the
        # reflection kernel and the realized potential
        n, c = 20.0, 2.0
        fam = unit_family(3, c=c, delta=1.0)  # x(n) = 2/n
        center = fam.center(n)
        mat = ex.halfspace_kernel_matrix(3, "minus", n, center,
                                         fam.base_profile, m=600)
        mu_rescaled = bs.principal_eigenvalue(mat, 1e-10)[0]

        pot = fam.realize(n)
        cpt = max(5, int(round((600 / 1.4) ** (1.0 / 3.0))))
        pts, w = ex.ball_grid(cpt, cpt, int(math.ceil(1.4 * cpt)),
                              radius=1.0 / n,
                              center=(center, 0.0, 0.0))
        # direct part is the singular piece, the reflected charge is smooth
        diff = pts[:, None, :] - pts[None, :, :]
        with np.errstate(divide="ignore"):
            sing = 1.0 / np.sqrt(np.sum(diff ** 2, axis=-1))
        reflected = pts.copy()
        reflected[:, 0] = -reflected[:, 0]
        image = np.sqrt(np.sum((pts[:, None, :] - reflected[None, :, :]) ** 2,
                               axis=-1))
        regular = -1.0 / (4.0 * math.pi) / image
        # off the diagonal the pieces recombine to the reflection kernel
        check = halfspace_green(3, "dirichlet", pts[0], pts[1]).item()
        assert check == pytest.approx(sing[0, 1] / (4 * math.pi)
                                      + regular[0, 1], rel=1e-12)
        cells = ex.newton_cell_integrals(pts, 1.0 / n, center=(center, 0.0, 0.0))
        density = pot.evaluate_point(pts)
        mat_phys = bs.assemble_points(pts, w, density, regular, sing,
                                      1.0 / (4.0 * math.pi), cells, 0.0, {})
        mu_physical = bs.principal_eigenvalue(mat_phys, 1e-10)[0]
        assert mu_physical == pytest.approx(mu_rescaled, rel=1e-9)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ex.halfspace_norm_study(2, "minus", unit_family(3), [10], m=200)


class TestCountingAudit:
    PROB = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0)
    POT = Potential(Profile.indicator(1.5, 2.5))

    def test_no_violations_including_threshold_row(self):
        beta_cr = oc.square_well_beta_cr(1.5, 2.5, inner=1.0)
        study = ex.clr_audit(self.PROB, self.POT, [1.05 * beta_cr, 3.5, 8.0])
        assert study.meta["violations"] == 0
        assert study.rows[0]["count"] == 1

    def test_zero_potential_trivial_row(self):
        study = ex.clr_audit(self.PROB, Potential(Profile.indicator(1.5, 2.5), 0.0),
                             [2.0])
        assert study.rows[0]["count"] == 0
        assert study.rows[0]["bound"] == 0.0
        assert study.meta["violations"] == 0

    def test_deep_well_count_slope(self):
        betas = [5.0, 15.0, 50.0, 160.0, 500.0]
        study = ex.clr_audit(self.PROB, self.POT, betas)
        counts = study.values("count")
        slope = np.polyfit(np.log(betas), np.log(counts), 1)[0]
        assert 1.2 <= slope <= 1.8
        assert study.meta["violations"] == 0


class TestDichotomy:
    def test_matrix_matches_the_boundary_condition_split(self):
        study = ex.dichotomy_suite(m=300)
        assert study.meta["indeterminate"] == 0
        for row in study.rows:
            if row["bc"] == "dirichlet":
                assert row["verdict"] == "bounded"
            else:
                assert row["verdict"] == "divergent"
                if row["d"] == 1:
                    assert row["rate_exponent"] == pytest.approx(-0.5, abs=0.05)
                else:
                    assert row["log_divergence"]

    def test_rows_cover_three_potentials_per_cell(self):
        study = ex.dichotomy_suite(m=200)
        cells = {}
        for row in study.rows:
            cells.setdefault((row["d"], row["bc"]), []).append(row["potential"])
        assert all(len(v) >= 3 for v in cells.values())
