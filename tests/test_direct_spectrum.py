import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from betacrit import birman_schwinger as bs
from betacrit import direct_spectrum as ds
from betacrit.errors import UnconvergedError, ValidationError
from betacrit.model import (CoefficientProfile, Potential, ProblemSpec,
                            Profile)

import oracles as oc

HALF_LINE_D = ProblemSpec(1, "half_line", "dirichlet")
HALF_LINE_N = ProblemSpec(1, "half_line", "neumann")
WELL = Potential(Profile.indicator(1.0, 2.0))
BETA_CR_WELL = oc.square_well_beta_cr(1.0, 2.0)


class TestCountNegative:
    def test_zero_potential(self):
        assert ds.count_negative(HALF_LINE_D, Potential(Profile.indicator(1.0, 2.0), 0.0),
                                 3.0) == 0

    def test_below_and_above_threshold(self):
        assert ds.count_negative(HALF_LINE_D, WELL, 0.9 * BETA_CR_WELL) == 0
        assert ds.count_negative(HALF_LINE_D, WELL, 1.1 * BETA_CR_WELL) == 1

    def test_deep_well_count_matches_crossing_oracle(self):
        assert oc.halfline_crossing_count(100.0, 1.0, 2.0) == 4
        assert ds.count_negative(HALF_LINE_D, WELL, 100.0) == 4

    def test_count_monotone_in_beta(self):
        counts = [ds.count_negative(HALF_LINE_D, WELL, b, refine=False)
                  for b in (0.5, 2.0, 10.0, 40.0, 100.0)]
        assert counts == sorted(counts)

    def test_beta_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            ds.count_negative(HALF_LINE_D, WELL, -1.0)

    def test_d3_sector_sum_matches_zero_energy_oracle(self):
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0)
        pot = Potential(Profile.indicator(1.5, 2.5))
        for beta in (1.3, 3.5, 5.0):
            expected = oc.total_count_zero_energy(3, 1.0, 1.5, 2.5, 1.0, beta)
            assert ds.count_negative(prob, pot, beta, refine=False) == expected

    def test_unconverged_between_mesh_thresholds(self):
        # brackets chosen so the coarse and the half-step mesh disagree
        coarse = ds.beta_critical_direct(HALF_LINE_D, WELL, tol=1e-9, h=0.12)
        finer = ds.beta_critical_direct(HALF_LINE_D, WELL, tol=1e-9, h=0.06)
        assert coarse != finer
        between = 0.5 * (coarse + finer)
        with pytest.raises(UnconvergedError) as err:
            ds.count_negative(HALF_LINE_D, WELL, between, h=0.12)
        assert err.value.details


class TestGroundState:
    def test_none_below_threshold(self):
        assert ds.ground_state(HALF_LINE_D, WELL, 0.9 * BETA_CR_WELL) is None

    def test_zero_potential_none(self):
        assert ds.ground_state(HALF_LINE_D,
                               Potential(Profile.indicator(1.0, 2.0), 0.0), 2.0) is None

    def test_energy_window_and_residual(self):
        lam0, (mesh, u) = ds.ground_state(HALF_LINE_D, WELL, 4.0)
        assert -4.0 < lam0 < 0.0
        res = ds.eigenvalue_residual(HALF_LINE_D, WELL, 4.0, lam0)
        assert res < 1e-6

    def test_energy_bounded_by_well_depth(self):
        for beta in (1.0, 2.5, 6.0):
            lam0, _ = ds.ground_state(HALF_LINE_D, WELL, beta)
            assert lam0 >= -beta * WELL.max_value() - 1e-9

    @pytest.mark.parametrize("beta", [0.814, 4.0, 100.0])
    def test_matches_the_square_well_matching_equation(self, beta):
        lam0, _ = ds.ground_state(HALF_LINE_D, WELL, beta)
        exact = oc.square_well_ground_energy(beta, 1.0, 2.0)
        assert abs(lam0 - exact) <= 1e-9 * max(1.0, abs(exact))

    def test_profile_tail_is_the_decaying_free_solution(self):
        lam0, (mesh, u) = ds.ground_state(HALF_LINE_D, WELL, 4.0)
        tail = mesh > 2.0
        k = np.sqrt(-lam0)
        ratio = u[tail] * np.exp(k * mesh[tail])
        assert ratio == pytest.approx(ratio[0], rel=1e-12)

    def test_profile_normalized_and_positive(self):
        lam0, (mesh, u) = ds.ground_state(HALF_LINE_D, WELL, 4.0)
        norm = np.trapezoid(u ** 2, mesh)
        assert norm == pytest.approx(1.0, rel=1e-3)
        assert np.all(u[1:-1] > -1e-10)

    def test_radial_d3_sector0_matches_shifted_halfline(self):
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0)
        pot3 = Potential(Profile.indicator(1.5, 2.5))
        shifted = ProblemSpec(1, "half_line", "dirichlet")
        pot1 = Potential(Profile.indicator(0.5, 1.5))
        lam3, _ = ds.ground_state(prob, pot3, 4.0)
        lam1, _ = ds.ground_state(shifted, pot1, 4.0)
        assert lam3 == pytest.approx(lam1, rel=1e-6)

    def test_variable_coefficient_shifts_energy_up(self):
        a = CoefficientProfile(Profile(np.array([0.0, 3.0]),
                                       np.array([1.5, 1.5])), 3.0)
        stiff = ProblemSpec(1, "half_line", "dirichlet", coefficient=a)
        lam_stiff, _ = ds.ground_state(stiff, WELL, 4.0)
        lam_flat, _ = ds.ground_state(HALF_LINE_D, WELL, 4.0)
        assert lam_stiff > lam_flat


    def test_d3_sector1_matches_fd_eigenvalue(self):
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0)
        pot = Potential(Profile.indicator(1.5, 2.5))
        lam0, _ = ds.ground_state(prob, pot, 8.0, sector=1, tol=1e-9)
        ref = oc.fd_ground_energy(3, 1, 1.0, (1.5, 2.5), 8.0)
        assert lam0 == pytest.approx(ref, rel=1e-6)
        assert ds.eigenvalue_residual(prob, pot, 8.0, lam0, sector=1) < 1e-6

    def test_d3_variable_coefficient_matches_fd_eigenvalue(self):
        a = CoefficientProfile(Profile(np.array([1.0, 2.0, 3.0]),
                                       np.array([2.0, 1.5, 1.0])), 3.0)
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0,
                           coefficient=a)
        pot = Potential(Profile.indicator(1.5, 2.5))
        lam0, _ = ds.ground_state(prob, pot, 5.0, tol=1e-9)
        ref = oc.fd_ground_energy(3, 0, 1.0, (1.5, 2.5), 5.0, coefficient=a)
        assert lam0 == pytest.approx(ref, rel=1e-6)
        assert ds.eigenvalue_residual(prob, pot, 5.0, lam0) < 1e-6


class TestCrosscheck:
    def test_identity_residual_small(self):
        rows = ds.crosscheck_birman_schwinger(HALF_LINE_D, WELL, [1.0, 2.0, 4.0])
        assert max(r["residual"] for r in rows) < 1e-3

    def test_zero_potential_empty(self):
        rows = ds.crosscheck_birman_schwinger(
            HALF_LINE_D, Potential(Profile.indicator(1.0, 2.0), 0.0), [1.0])
        assert rows == []

    def test_threshold_approach_from_above(self):
        # lambda0 -> 0- and beta*mu0 -> 1 staying consistent along the way
        betas = BETA_CR_WELL * np.array([1.5, 1.1, 1.02])
        rows = ds.crosscheck_birman_schwinger(HALF_LINE_D, WELL, betas)
        lams = [abs(r["lambda0"]) for r in rows]
        assert lams == sorted(lams, reverse=True)
        assert all(r["residual"] < 2e-3 for r in rows)

    def test_subthreshold_rejected(self):
        with pytest.raises(ValidationError):
            ds.crosscheck_birman_schwinger(HALF_LINE_D, WELL, [0.5 * BETA_CR_WELL])


class TestBetaCriticalDirect:
    def test_square_well_matches_oracle(self):
        value = ds.beta_critical_direct(HALF_LINE_D, WELL, tol=1e-6)
        assert value == pytest.approx(BETA_CR_WELL, rel=1e-3)

    def test_neumann_collapses_to_zero(self):
        values = [ds.beta_critical_direct(HALF_LINE_N, WELL, tol=1e-6, h=h)
                  for h in (4e-3, 2e-3)]
        assert all(v < 1e-4 for v in values)
        assert values[1] <= values[0] + 1e-12

    def test_d3_agrees_with_kernel_route(self):
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0)
        pot = Potential(Profile.indicator(1.5, 2.5))
        direct = ds.beta_critical_direct(prob, pot, tol=1e-6)
        kernel = bs.beta_critical(prob, pot, method="limit-kernel", m=400)
        assert direct == pytest.approx(kernel, rel=1e-2)
        assert direct == pytest.approx(oc.square_well_beta_cr(1.5, 2.5, inner=1.0),
                                       rel=1e-3)

    def test_zero_potential_sentinel(self):
        out = ds.beta_critical_direct(HALF_LINE_D,
                                      Potential(Profile.indicator(1.0, 2.0), 0.0))
        assert out is None

    def test_d2_exterior_agrees_with_kernel_route(self):
        prob = ProblemSpec(2, "exterior_ball", "dirichlet", radius=1.0)
        pot = Potential(Profile.indicator(1.5, 2.5))
        direct = ds.beta_critical_direct(prob, pot, tol=1e-6)
        kernel = bs.beta_critical(prob, pot, method="limit-kernel", m=400)
        assert direct == pytest.approx(kernel, rel=1e-4)

    def test_variable_coefficient_agrees_with_kernel_route(self):
        a = CoefficientProfile(Profile(np.array([1.0, 2.0, 3.0]),
                                       np.array([2.0, 1.5, 1.0])), 3.0)
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0,
                           coefficient=a)
        pot = Potential(Profile.indicator(1.5, 2.5))
        direct = ds.beta_critical_direct(prob, pot, tol=1e-6)
        kernel = bs.beta_critical(prob, pot, method="limit-kernel", m=300)
        assert direct == pytest.approx(kernel, rel=1e-4)
        # a stiffer medium binds later than the flat one
        flat = ds.beta_critical_direct(
            ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0), pot,
            tol=1e-6)
        assert direct > flat


class TestDiscreteOperator:
    def test_symmetric_tridiagonal_shape(self):
        op = ds.build_operator(HALF_LINE_D, WELL, 2.0, h=1e-2, r_out=10.0)
        assert op.diag.size == op.mesh.size
        assert op.off.size == op.diag.size - 1
        assert np.all(op.mass > 0)

    def test_mesh_ends_one_unit_past_the_support_edge(self):
        op = ds.build_operator(HALF_LINE_D, WELL, 2.0, h=1e-2)
        assert op.mesh[-1] == pytest.approx(3.0, abs=1e-12)

    def test_count_matches_crossing_oracle_at_h_and_half_h(self):
        for beta in (0.5, 4.0, 30.0, 100.0):
            expected = oc.halfline_crossing_count(beta, 1.0, 2.0)
            for h in (2e-3, 1e-3):
                assert ds.count_negative(HALF_LINE_D, WELL, beta, h=h,
                                         refine=False) == expected

    def test_clr_inequality_d3(self):
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0)
        pot = Potential(Profile.indicator(1.5, 2.5))
        moment = pot.integral_power(1.5, 3)
        for beta in (1.3, 3.5, 8.0):
            count = ds.count_negative(prob, pot, beta, refine=False)
            assert count <= 0.1156 * beta ** 1.5 * moment


@st.composite
def _tridiagonals(draw):
    n = draw(st.integers(1, 12))
    entries = st.floats(-10.0, 10.0, allow_subnormal=False)
    diag = draw(st.lists(entries, min_size=n, max_size=n))
    off = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
    return np.array(diag), np.array(off)


class TestSturmCount:
    @settings(max_examples=300, deadline=None)
    @given(_tridiagonals())
    def test_matches_eigvalsh(self, tri):
        diag, off = tri
        eig = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        assume(np.min(np.abs(eig)) > 1e-9)  # no eigenvalue at the shift itself
        assert ds._sturm_count(diag, off) == int(np.sum(eig < 0))


SCALING_PROBLEMS = (HALF_LINE_D,
                    ProblemSpec(2, "exterior_ball", "dirichlet", radius=1.0),
                    ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0))


class TestCouplingScaling:
    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(SCALING_PROBLEMS),
           st.sampled_from(("indicator", "tent", "bump")),
           st.floats(0.0, 1.0), st.floats(0.3, 1.5), st.floats(0.2, 5.0))
    def test_threshold_scales_inversely_with_the_amplitude(self, prob, shape,
                                                           offset, width, c):
        # beta_cr(c V) = beta_cr(V) / c on both routes
        lo = prob.inner_radius + offset
        profile = getattr(Profile, shape)(lo, lo + width)
        well, scaled = Potential(profile), Potential(profile, c)
        kernel = bs.beta_critical(prob, well, method="limit-kernel", m=120)
        kernel_c = bs.beta_critical(prob, scaled, method="limit-kernel", m=120)
        assert kernel_c == pytest.approx(kernel / c, rel=1e-13)
        tol = 1e-7
        direct = ds.beta_critical_direct(prob, well, tol=tol, h=4e-3)
        direct_c = ds.beta_critical_direct(prob, scaled, tol=tol, h=4e-3)
        # each bisection stops within tol * max(1, beta) of the mesh threshold
        bound = tol * (max(1.0, direct_c) + max(1.0, direct) / c)
        assert abs(direct_c - direct / c) <= bound
