import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from betacrit import birman_schwinger as bs
from betacrit import experiments as ex
from betacrit.errors import ValidationError
from betacrit.model import (CenterPath, Potential, ProblemSpec, Profile,
                            ScaledPotentialFamily)

import oracles as oc


def unit_family(d, c=1.0, delta=1.0, profile=None):
    return ScaledPotentialFamily(profile or Profile.indicator(0.0, 1.0),
                                 CenterPath(c, delta), d)


def lift(p):
    """A meridian node (s1, sigma) as the 3-d point (s1, sigma, 0)."""
    return np.array([p[0], p[1], 0.0])


def ray_cells(cloud, cut, n_dir):
    """The ray oracle's cell integrals at the nodes of a unit cloud."""
    pts = cloud.pts if cloud.d == 2 else np.column_stack(
        [cloud.pts, np.zeros(len(cloud.pts))])
    return oc.ray_cell_integrals(pts, 1.0, cut, n_dir)


def orbit_basis(folded, full):
    """One even function of the whole disk per folded node s: the column
    (e_j + e_j*) / sqrt(2) for the mirror pair {s, s*} at full nodes j, j*,
    e_j for a node on the axis."""
    basis = np.zeros((len(full), len(folded)))
    for k, s in enumerate(folded):
        orbit = set()
        for t in (s, s * np.array([1.0, -1.0])):
            gaps = np.linalg.norm(full - t, axis=1)
            assert gaps.min() < 1e-14
            orbit.add(int(np.argmin(gaps)))
        basis[sorted(orbit), k] = 1.0 / math.sqrt(len(orbit))
    assert np.all(np.count_nonzero(basis, axis=1) == 1)  # every full node, once
    return basis


def unfolded_matrix(n, center, m, profile=None):
    """(folded matrix, oracle matrix on the whole disk, orbit basis): the
    whole polar disk rule that ``_Cloud(2, m, cut)`` folds, cut the same
    way, each node with the cell integrals of its folded node."""
    cut = -n * center
    cloud = ex._Cloud(2, m, cut)
    mat = ex.halfspace_kernel_matrix(2, "minus", n, center, profile, m=m)
    n_r = max(6, int(round(math.sqrt(m / 2.0))))
    pts, w = ex.disk_grid(n_r, 2 * n_r)
    keep = pts[:, 0] > cut + 1e-12
    pts, w = pts[keep], w[keep]
    basis = orbit_basis(cloud.pts, pts)
    radii = np.linalg.norm(pts, axis=1)
    density = (radii <= 1.0).astype(float) if profile is None else profile(radii)
    full = oc.halfspace_matrix(2, "minus", n, center, pts, w, density,
                               (basis > 0) @ cloud.cells(cut))
    return mat, full, basis


class TestCellIntegrals:
    @pytest.mark.parametrize("d, m, n_dir", [(2, 500, 512), (3, 700, 64)])
    def test_uncut_closed_form_matches_the_ray_oracle(self, d, m, n_dir):
        cloud = ex._Cloud(d, m)
        assert cloud.cells() == pytest.approx(ray_cells(cloud, -np.inf, n_dir),
                                              rel=1e-12)

    def test_closed_form_on_a_ball_off_the_origin(self):
        cloud = ex._Cloud(3, 700, radius=0.25, c1=0.5)
        rays = oc.ray_cell_integrals(np.column_stack([cloud.pts, np.zeros(64)]),
                                     0.25, -np.inf, 64, center=0.5)
        assert cloud.cells() == pytest.approx(rays, rel=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("cut", [-0.9, -0.5, 0.0, 0.5])
    def test_segment_weights_measure_the_cut_off_part(self, d, cut):
        _, w = ex._segment(d, cut, 1.0, 0.0)
        h = 1.0 + cut  # height of the part s1 < cut
        if d == 2:
            exact = math.acos(-cut) + cut * math.sqrt(1.0 - cut * cut)
        else:
            exact = math.pi * h * h * (3.0 - h) / 3.0
        assert w.sum() == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("d, m", [(2, 500), (3, 700)])
    @pytest.mark.parametrize("n, x", [(2.0, 0.2), (10.0, 0.05)])
    def test_cut_cells_converge_and_match_the_ray_oracle(self, monkeypatch, d, m,
                                                         n, x):
        cut = -n * x
        rules = {}
        for order in (32, 64):
            monkeypatch.setattr(ex, "SEGMENT_ORDER", order)
            cloud = ex._Cloud(d, m, cut)
            rules[order] = cloud.cells(cut)
        ray256, ray512 = ray_cells(cloud, cut, 256), ray_cells(cloud, cut, 512)
        scale = np.max(np.abs(ray512))
        # the ray rule converges slowly where a ray grazes the corner of
        # the cut; its own 256-vs-512 difference bounds its error
        ray_error = np.max(np.abs(ray256 - ray512))
        # a disk node 0.028 from the cut at -0.4 leaves the log near-singular
        # on the segment: 2.9e-4 there, 1.1e-6 at most in d = 3
        agree = {2: 5e-4, 3: 2e-6}[d]
        assert np.max(np.abs(rules[32] - rules[64])) <= agree * scale
        for cells in rules.values():
            assert np.max(np.abs(cells - ray512)) <= ray_error

    def test_cuts_at_or_below_the_bottom_share_the_uncut_integrals(self):
        cloud = ex._Cloud(3, 700)
        for cut in (-1.0, -1.5, -np.inf):
            assert cloud.cells(cut) is cloud.cells()

    def test_grid_weights_integrate_area_and_volume(self):
        pts, w = ex.disk_grid(20, 40)
        assert w.sum() == pytest.approx(math.pi, rel=1e-12)
        pts, w = ex.meridian_grid(10)
        assert w.sum() == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)
        assert np.all(pts[:, 1] > 0.0)


class TestShrinkingWells1d:
    def test_threshold_follows_the_quarter_pi_square_law(self):
        study = ex.scaling_study_1d(unit_family(1), [4, 8, 16, 32], m=400)
        for row in study.rows:
            expected = math.pi ** 2 * row["n"] / 16.0
            assert row["beta_cr_kernel"] == pytest.approx(expected, rel=5e-3)
            assert row["beta_cr_direct"] == pytest.approx(expected, rel=5e-3)
        assert study.meta["monotone_increasing"]

    def test_quadrupling_scale_quadruples_threshold(self):
        study = ex.scaling_study_1d(unit_family(1), [4, 16], m=400)
        r = study.rows[1]["beta_cr_kernel"] / study.rows[0]["beta_cr_kernel"]
        assert r == pytest.approx(4.0, rel=1e-3)

    def test_baseline_detached_well(self):
        fam = unit_family(1, c=2.0, delta=0.0)  # fixed center x = 2
        study = ex.scaling_study_1d(fam, [1], m=400)
        expected = oc.square_well_beta_cr(1.0, 3.0)
        assert study.rows[0]["beta_cr_kernel"] == pytest.approx(expected, rel=1e-3)

    def test_fixed_center_thresholds_stabilize(self):
        # height scaling n keeps the threshold finite: a fixed-center family
        # converges to the point-interaction limit 1/(mass * center) = 1/4
        fam = unit_family(1, c=2.0, delta=0.0)
        study = ex.scaling_study_1d(fam, [4, 16, 64, 256], m=400)
        gaps = [row["beta_cr_kernel"] - 0.25 for row in study.rows]
        assert all(g > 0 for g in gaps)
        for a, b in zip(gaps, gaps[1:]):
            assert b == pytest.approx(a / 4.0, rel=0.1)
        assert gaps[-1] < 2e-4

    def test_inadmissible_scales_truncated_with_notice(self):
        fam = unit_family(1, c=0.5, delta=0.5)
        study = ex.scaling_study_1d(fam, [2, 4, 8], m=200)
        assert [row["n"] for row in study.rows] == [4.0, 8.0]
        assert any("n=2" in note for note in study.notices)

    def test_all_inadmissible_is_an_error(self):
        fam = unit_family(1, c=0.1, delta=1.0)
        with pytest.raises(ValidationError):
            ex.scaling_study_1d(fam, [2, 4], m=100)


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

    def test_d3_minorant_assembles_no_sub_ball(self, monkeypatch):
        sub_ball_builds = []
        assemble = bs.assemble_points

        def counted(points, *args, **kwargs):
            c1, radius = ex.SUB_BALL  # meridian nodes (s1, sigma)
            if np.all(np.hypot(points[:, 0] - c1, points[:, 1]) <= radius):
                sub_ball_builds.append(points.shape[0])
            return assemble(points, *args, **kwargs)

        monkeypatch.setattr(bs, "assemble_points", counted)
        # n x(n) = 1 along x(n) = 1/n: one shift, one minorant
        study = ex.halfspace_norm_study(3, "minus", unit_family(3), [2, 8, 32], m=120)
        assert len({row["minorant"] for row in study.rows}) == 1
        # x(n) = n^-1/2: a shift of its own for every n
        study = ex.halfspace_norm_study(3, "minus", unit_family(3, delta=0.5),
                                        [4, 16, 64], m=120)
        assert sub_ball_builds == []
        minorants = study.values("minorant")
        assert np.all(np.diff(minorants) > 0)
        for row in study.rows:  # each shift on its own gives the same bits
            assert ex.minorant_eigenvalue(2.0 * row["n"] * row["center"]) == \
                row["minorant"]

    def test_d3_norm_built_once_per_n_times_center(self, monkeypatch):
        calls = []
        kernel_matrix = ex.halfspace_kernel_matrix

        def counted(d, sign, n, center, *args, **kwargs):
            calls.append(n * center)
            return kernel_matrix(d, sign, n, center, *args, **kwargs)

        # x(n) = 1/n as in configs/halfspace_d3.json: n x(n) = 1 for every n
        study = ex.halfspace_norm_study(3, "minus", unit_family(3), [2, 8, 32, 128],
                                        m=120)
        monkeypatch.setattr(ex, "halfspace_kernel_matrix", counted)
        cached = ex.halfspace_norm_study(3, "minus", unit_family(3),
                                         [2, 8, 32, 128], m=120)
        assert calls == [1.0]
        assert cached.to_json_dict() == study.to_json_dict()
        assert [r["n"] for r in cached.rows] == [2.0, 8.0, 32.0, 128.0]
        # x(n) = n^-1/2: a new product, so a new build, for every n
        ex.halfspace_norm_study(3, "minus", unit_family(3, delta=0.5), [4, 16], m=120)
        assert calls == [1.0, 2.0, 4.0]

    def test_d2_norm_built_once_per_n_times_center(self, monkeypatch):
        calls = []
        kernel_matrix = ex.halfspace_kernel_matrix

        def counted(d, sign, n, center, *args, **kwargs):
            calls.append(n * center)
            return kernel_matrix(d, sign, n, center, *args, **kwargs)

        monkeypatch.setattr(ex, "halfspace_kernel_matrix", counted)
        # x(n) = 1/n as in configs/halfspace_d2.json: one build, norms
        # rescaled by c_s(n) = 1/(2 pi ln n)
        n_grid = [10.0, 100.0, 1000.0, 10000.0]
        study = ex.halfspace_norm_study(2, "minus", unit_family(2), n_grid, m=200)
        assert calls == [1.0]
        assert [r["nodes"] for r in study.rows] == [study.rows[0]["nodes"]] * 4
        for row in study.rows:
            mat = kernel_matrix(2, "minus", row["n"], row["center"], m=200)
            built = bs.principal_eigenvalue(mat)[0]
            assert row["norm"] == pytest.approx(built, rel=1e-14)
        # an n at or below 1 is still refused, even where its product is cached
        study = ex.halfspace_norm_study(2, "minus", unit_family(2), [10.0, 1.0], m=200)
        assert [r["n"] for r in study.rows] == [10.0]
        assert any("n=1 skipped" in note for note in study.notices)

    @pytest.mark.parametrize("d", [2, 3])
    def test_geometry_built_once_per_study(self, monkeypatch, d):
        segment, kernel = ex._segment, ex._Cloud.kernel
        segments, kernels = [], []

        def counted_segment(d, x1_min, radius, c1):
            segments.append(x1_min)
            return segment(d, x1_min, radius, c1)

        def counted_kernel(cloud, s, shift=None):
            kernels.append((cloud.radius, shift))
            return kernel(cloud, s, shift)

        monkeypatch.setattr(ex, "_segment", counted_segment)
        monkeypatch.setattr(ex._Cloud, "kernel", counted_kernel)
        # x(n) = 2 n^-1/2: every cut -2 sqrt(n) lies below the disk or ball
        family = unit_family(d, c=2.0, delta=0.5)
        n_grid = [4.0, 16.0, 64.0]
        study = ex.halfspace_norm_study(d, "minus", family, n_grid, m=150)
        assert segments == []
        # g once on the unit cloud, no sub-ball, and one image kernel per n
        assert [k for k in kernels if k[1] is None] == [(1.0, None)]
        assert [k[1] for k in kernels if k[1] is not None] == \
            [2.0 * n * family.center(n) for n in n_grid]
        cloud = ex._Cloud(d, 150)
        for n in n_grid:
            assert cloud.cells(-n * family.center(n)) is cloud.cells()
        for row in study.rows:  # each n as a build of its own gives the same bits
            mat = ex.halfspace_kernel_matrix(d, "minus", row["n"], row["center"], m=150)
            assert bs.principal_eigenvalue(mat)[0] == row["norm"]
            if d == 3:
                assert ex.minorant_eigenvalue(2.0 * row["n"] * row["center"]) == \
                    row["minorant"]
        # x(n) = 1/n cuts at the bottom, -1, for every n: no segment
        segments.clear()
        ex.halfspace_norm_study(d, "minus", unit_family(d), [4.0, 16.0], m=150)
        assert segments == []
        # x(n) = 0.5/n cuts at -0.5 for every n: one cut, one segment rule
        ex.halfspace_norm_study(d, "minus", unit_family(d, c=0.5), [4.0, 16.0],
                                m=150)
        assert segments == [-0.5]

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
        mu_rescaled = bs.principal_eigenvalue(mat)[0]

        pot = fam.realize(n)
        cloud = ex._Cloud(3, 600, radius=1.0 / n, c1=center)
        pts, w = cloud.pts, cloud.w
        # direct part is the singular piece, the reflected charge is smooth;
        # both are ring means in the physical frame
        sing = cloud.g
        regular = -cloud.kernel(pts, 0.0) / (4.0 * math.pi)
        # off the diagonal the pieces recombine to the ring mean of the
        # reflection kernel
        check = oc.ring_average(lambda x, xi: oc.reflection_kernel(3, "minus", x, xi),
                                lift(pts[0]), lift(pts[1]))
        assert check == pytest.approx(sing[0, 1] / (4 * math.pi)
                                      + regular[0, 1], rel=1e-12)
        density = oc.ball_potential_at(pot, np.column_stack([pts, np.zeros(len(pts))]))
        mat_phys = bs.assemble_points(pts, w, density, regular, sing,
                                      1.0 / (4.0 * math.pi), cloud.cells())
        mu_physical = bs.principal_eigenvalue(mat_phys)[0]
        assert mu_physical == pytest.approx(mu_rescaled, rel=1e-9)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ex.halfspace_norm_study(2, "minus", unit_family(3), [10], m=200)


def clouds(dim):
    return arrays(np.float64, st.tuples(st.integers(1, 24), st.just(dim)),
                  elements=st.floats(-4.0, 4.0, allow_subnormal=False))


class TestDistances:
    """``_distances``, to s and to its mirror across x2 = 0, against the
    m x m x 2 broadcast formula, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(clouds(2), st.one_of(st.none(), st.floats(0.0, 2e4, allow_subnormal=False)))
    def test_bit_identical_to_the_broadcast_formula(self, pts, shift):
        pair = [d.tobytes() for d in ex._distances(pts, pts, shift)]
        assert pair == [d.tobytes() for d in oc.broadcast_distance_pair(pts, shift)]

    @pytest.mark.parametrize("cloud", ["disk", "meridian", "sub-ball"])
    def test_bit_identical_on_the_study_clouds(self, cloud):
        cloud = {"disk": lambda: ex._Cloud(2, 648),
                 "meridian": lambda: ex._Cloud(3, 700),
                 "sub-ball": lambda: ex._Cloud(3, 700, radius=0.25, c1=0.5)}[cloud]()
        pts = cloud.pts
        for shift in (None, 0.02, 1.0, 2.0, 2e3):
            pair = [d.tobytes() for d in ex._distances(pts, pts, shift)]
            assert pair == [d.tobytes() for d in oc.broadcast_distance_pair(pts, shift)]


def kernel_values(mat):
    """Kernel K(y_i, s_j) behind the matrix, entries / sqrt(v_i v_j); only the
    off-diagonal values are kernel values, the diagonal holds the subtraction."""
    sq = np.sqrt(mat.weights)
    return mat.entries / (sq[:, None] * sq[None, :])


def physical_ring_kernel(sign, n, c, y, s):
    """Ring mean of the image-charge kernel between meridian nodes y and s
    of the rescaled frame, read in physical coordinates c e1 + point / n."""
    e1 = np.array([c, 0.0, 0.0])
    return oc.ring_average(lambda x, xi: oc.reflection_kernel(3, sign, x, xi),
                           e1 + lift(y) / n, e1 + lift(s) / n) / n


class TestHalfSpace:
    """The rescaled image kernel, read off the assembled matrix."""

    def test_image_term_vanishes_far_from_boundary(self):
        mat = ex.halfspace_kernel_matrix(3, "minus", 5.0, 1e6, m=200)
        vals = kernel_values(mat)
        for a, j in [(0, 1), (3, 20), (11, 23), (24, 7)]:
            y, s = lift(mat.nodes[a]), lift(mat.nodes[j])
            direct = oc.ring_average(lambda x, xi: 1.0 / np.linalg.norm(x - xi), y, s)
            assert vals[a, j] == pytest.approx(direct / (4 * math.pi), rel=1e-5)

    def test_d2_values_vanish_as_n_grows(self):
        # bounded n*x(n): the log prefactor sends values to zero like 1/ln n
        mats = [ex.halfspace_kernel_matrix(2, "minus", n, 1.0 / n, m=200)
                for n in (10.0, 1e3, 1e6)]
        assert all(np.array_equal(m.nodes, mats[0].nodes) for m in mats)
        off = ~np.eye(mats[0].size, dtype=bool)
        vals = [kernel_values(m)[off] for m in mats]
        assert np.all(vals[0] > vals[1]) and np.all(vals[1] > vals[2])
        assert np.all(vals[2] > 0)
        assert vals[2] == pytest.approx(vals[0] * math.log(10.0) / math.log(1e6),
                                        rel=0.25)

    def test_d3_reflection_arithmetic(self):
        # image argument carries the reflected source plus the 2 n x(n) shift
        n, c = 10.0, 1.0
        mat = ex.halfspace_kernel_matrix(3, "minus", n, c, m=200)
        vals = kernel_values(mat)
        for a, j in [(0, 1), (3, 20), (17, 12), (8, 24), (21, 7)]:
            y, s = lift(mat.nodes[a]), lift(mat.nodes[j])
            mirror = np.array([-1.0, 1.0, 1.0])
            shift = np.array([2.0 * n * c, 0.0, 0.0])
            expected = oc.ring_average(
                lambda x, xi: 1.0 / np.linalg.norm(x - xi)
                - 1.0 / np.linalg.norm(x - (mirror * xi - shift)), y, s) / (4.0 * math.pi)
            assert vals[a, j] == pytest.approx(expected, rel=1e-12)
            # independent image-charge evaluation in physical coordinates
            phys = physical_ring_kernel("minus", n, c, mat.nodes[a], mat.nodes[j])
            assert vals[a, j] == pytest.approx(phys, rel=1e-12)

    def test_support_enforced(self):
        # the boundary x1 = -n*x(n) cuts the unit ball; a well of radius 0.5
        # leaves zero density on the rest of it
        profile = Profile.indicator(0.0, 0.5)
        mat = ex.halfspace_kernel_matrix(3, "minus", 10.0, 0.05, profile, m=300)
        whole = ex.halfspace_kernel_matrix(3, "minus", 10.0, 1.0, profile, m=300)
        assert mat.size < whole.size and len(mat.nodes) == mat.size
        assert np.all(mat.nodes[:, 0] > -0.5)
        outside = np.linalg.norm(mat.nodes, axis=1) > 0.5
        assert outside.any() and not outside.all()
        assert np.all(mat.weights[outside] == 0.0)
        assert np.all(mat.entries[outside] == 0.0)
        assert np.all(mat.entries[:, outside] == 0.0)

    def test_d2_plus_sign_unsupported(self):
        with pytest.raises(ValidationError):
            ex.halfspace_kernel_matrix(2, "plus", 10.0, 0.1, m=100)

    def test_d2_needs_n_above_one(self):
        with pytest.raises(ValidationError):
            ex.halfspace_kernel_matrix(2, "minus", 1.0, 0.1, m=100)

    def test_sign_and_dimension_are_validated(self):
        with pytest.raises(ValidationError):
            ex.halfspace_kernel_matrix(3, "Minus", 10.0, 1.0, m=100)
        with pytest.raises(ValidationError):
            ex.halfspace_kernel_matrix(1, "minus", 10.0, 1.0, m=100)
        with pytest.raises(ValidationError):
            ex.halfspace_norm_study(3, "Minus", unit_family(3), [2, 8], m=100)

    @pytest.mark.parametrize("d, sign", [(3, "minus"), (3, "plus"), (2, "minus")])
    def test_physical_green_function_symmetry(self, d, sign):
        # a boundary that cuts the cloud brings image and direct points close
        mat = ex.halfspace_kernel_matrix(d, sign, 10.0, 0.05, m=300)
        assert np.array_equal(mat.entries, mat.entries.T)
        off = ~np.eye(mat.size, dtype=bool)
        assert np.all(mat.entries[off] >= 0.0)


class TestMeridian:
    """The d = 3 operators on the meridian half-disk: the ring kernel against
    brute-force azimuthal sums, and the eigenvalues against closed forms and
    a finer meridian rule."""

    @pytest.mark.parametrize("sign", ["minus", "plus"])
    @pytest.mark.parametrize("n, c", [(2.0, 0.5), (10.0, 0.05)])
    def test_ring_kernel_matches_an_azimuthal_sum(self, sign, n, c):
        # n x(n) = 1 leaves the ball whole; 0.5 cuts it at x1 = -0.5
        mat = ex.halfspace_kernel_matrix(3, sign, n, c, m=700)
        vals = kernel_values(mat)
        for a, j in [(0, 1), (1, 0), (9, 10), (20, 28), (40, 5), (50, mat.size - 1)]:
            phys = physical_ring_kernel(sign, n, c, mat.nodes[a], mat.nodes[j])
            assert vals[a, j] == pytest.approx(phys, rel=1e-12)

    def test_sub_ball_eigenvalue_meets_its_closed_form(self):
        # the top eigenfunction of 1/|y - s| on a ball of radius R is
        # sin(kr)/r with cot(kR) = 0, so the eigenvalue is 16 R^2 / pi
        c1, radius = ex.SUB_BALL
        cloud = ex._Cloud(3, 5735, radius=radius, c1=c1)
        assert len(cloud.pts) == 256
        mat = bs.assemble_points(cloud.pts, cloud.w, np.ones(len(cloud.pts)),
                                 np.zeros_like(cloud.g), cloud.g, 1.0, cloud.cells())
        exact = 16.0 * radius ** 2 / math.pi
        assert bs.principal_eigenvalue(mat)[0] == pytest.approx(exact, rel=1e-6)
        rho = 1.0 - 2.0 * radius / (2.0 * (c1 - radius) + 2.0)
        assert ex.minorant_eigenvalue(2.0) == pytest.approx(
            rho * ex.C3 * exact, rel=1e-15)

    def test_minorant_takes_the_least_profile_value_on_the_sub_ball(self):
        # tent and bump on [0, 1] both fall to 1/2 at the ball's radii 0.25
        # and 0.75; the bump's cos^2(pi/4) sample rounds 1 ulp above 1/2
        bare = ex.minorant_eigenvalue(2.0)
        assert ex.minorant_eigenvalue(2.0, Profile.tent(0.0, 1.0)) == 0.5 * bare
        assert ex.minorant_eigenvalue(2.0, Profile.bump(0.0, 1.0)) == pytest.approx(
            0.5 * bare, rel=1e-15)

    def test_norms_at_m_700_meet_a_finer_rule(self):
        # 64 nodes against 1600 (c = 40), n x(n) = 1
        fine = ex._Cloud(3, int(1.4 * 40 ** 3))
        assert len(fine.pts) == 1600
        for sign, rel in [("minus", 1e-5), ("plus", 3e-5)]:
            mat = ex.halfspace_kernel_matrix(3, sign, 2.0, 0.5, m=700)
            assert mat.size == 64
            ref = ex.halfspace_kernel_matrix(3, sign, 2.0, 0.5, _cloud=fine)
            assert bs.principal_eigenvalue(mat)[0] == pytest.approx(
                bs.principal_eigenvalue(ref)[0], rel=rel)

    @pytest.mark.parametrize("n, c", [(10.0, 0.1), (10.0, 0.05), (1e3, 0.3)])
    def test_d2_matrix_is_the_full_point_matrix(self, n, c):
        # one node per mirror pair: the folded matrix is the even block
        # P^T K P of the whole disk's matrix K, P the orbit basis
        mat, full, basis = unfolded_matrix(n, c, 500)
        block = basis.T @ full @ basis
        # the oracle forms g as ln(1/|y - s|), the cloud as the pair mean
        # -ln(|y - s| |y - s*|) / 2: they differ in the last bits, which the
        # row sums of the diagonal subtraction carry up to a few 1e-15 of the
        # largest entry
        assert np.max(np.abs(mat.entries - block)) <= 1e-13 * np.max(np.abs(block))


PROFILES = {"indicator": Profile.indicator(0.0, 1.0), "tent": Profile.tent(0.0, 1.0),
            "bump": Profile.bump(0.0, 1.0)}


class TestMirrorFold:
    """The d = 2 disk folded on its mirror line x2 = 0 against the whole disk."""

    @pytest.mark.parametrize("m", [150, 500, 648])
    def test_half_disk_nodes_weights_and_axis(self, m):
        cloud = ex._Cloud(2, m)
        n_r = max(6, int(round(math.sqrt(m / 2.0))))
        assert len(cloud.pts) == n_r * (n_r + 1)
        assert cloud.w.sum() == pytest.approx(math.pi, rel=1e-12)
        # theta = 0 and pi, where sin(pi) would leave r * 1.2e-16
        axis = np.abs(cloud.pts[:, 1]) < 1e-9
        assert axis.sum() == 2 * n_r
        assert np.all(cloud.pts[axis, 1] == 0.0)
        assert np.all(cloud.pts[~axis, 1] > 0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(2.5, 1e4), st.floats(0.2, 2.0), st.sampled_from(sorted(PROFILES)),
           st.sampled_from([150, 300, 500]))
    def test_folded_norm_is_the_top_of_the_whole_disk(self, n, t, shape, m):
        # n x(n) = t: a t below 1 cuts the disk at x1 = -t.  The kernel is
        # nonnegative, so the top eigenvector is positive, hence even; dense
        # eigvalsh on the whole disk is itself off by up to 1.8e-15
        mat, full, _ = unfolded_matrix(n, t / n, m, PROFILES[shape])
        top = np.linalg.eigvalsh(full)[-1]
        assert bs.principal_eigenvalue(mat)[0] == pytest.approx(top, rel=1e-14)


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
