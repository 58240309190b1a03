import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from betacrit import birman_schwinger as bs
from betacrit import direct_spectrum as ds
from betacrit.errors import UnconvergedError, ValidationError
from betacrit.model import (CoefficientProfile, Potential, ProblemSpec,
                            Profile)
from betacrit.sector_ode import SectorODE

import oracles as oc

HALF_LINE_D = ProblemSpec(1, "half_line", "dirichlet")
HALF_LINE_N = ProblemSpec(1, "half_line", "neumann")
BALL_D3 = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0)
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
        counts = [ds.count_negative(HALF_LINE_D, WELL, b)
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
            assert ds.count_negative(prob, pot, beta) == expected

    def test_d3_count_runs_to_the_first_empty_sector(self):
        # sector 400 still holds 76 states here: no cap may cut the sum short.
        # The finite-difference count reads 27,682,133, 27,470,036 and
        # 27,419,047 at h = 2e-3, 1e-3 and 5e-4, an O(h^2) error
        pot = Potential(Profile.indicator(1.5, 2.5))
        mismatch = ds.phase_mismatch(BALL_D3.with_sector(400), pot, 1e5, 0.0)
        assert math.floor(mismatch / math.pi) + 1 == 76
        assert ds.count_negative(BALL_D3, pot, 1e5) == 27_404_862

    def test_d3_tent_count_the_finite_difference_mesh_got_wrong(self):
        # the 18th sector-30 crossing lies at beta = 10000.0182, which FD put
        # below 1e4 at every h from 2.5e-4 to 6.25e-5: it read 264,503 at
        # h = 5e-4 and 2.5e-4, and so passed its h/2 refinement check
        assert ds.count_negative(BALL_D3, Potential(Profile.tent(1.2, 1.9, 1.5)),
                                 1e4) == 264_442

    def test_coupling_past_the_work_budget_is_unconverged(self):
        # about 21,000 steps for each of about 7,900 sectors that can bind
        pot = Potential(Profile.indicator(1.5, 2.5))
        with pytest.raises(UnconvergedError) as err:
            ds.count_negative(BALL_D3, pot, 1e7)
        assert err.value.details == {"beta": 1e7, "steps": 21083, "sectors": 7907}
        assert ds.count_negative(HALF_LINE_D, WELL, 1e6) == \
            oc.halfline_crossing_count(1e6, 1.0, 2.0)

    def test_a_gap_in_the_well_is_stepped_by_the_growth_bound(self):
        # V vanishes on (1.5, 2.6); stepped only as far as sector 0 turns, the
        # gap took one step, and the sectors that bind past it came out of it
        # at the wrong angle: 506 states
        pot = Potential(Profile(np.array([1.2, 1.5, 1.5000001, 2.6, 2.6000001, 3.0]),
                                np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0])))
        assert ds.count_negative(BALL_D3, pot, 80.0) == 547
        assert oc.SpectrumCounter(BALL_D3, pot).count(80.0, h=5e-4) == 547

    def test_a_coupling_at_a_crossing_takes_the_side_its_mismatch_rounds_to(self):
        # k = 7 pi: the fourth state sits at zero energy, m / pi = 3 - 6e-15
        well = Potential(Profile.indicator(0.0, 0.5))
        beta = 49.0 * math.pi ** 2
        assert oc.halfline_crossing_count(beta, 0.0, 0.5) == 4
        assert ds.count_negative(HALF_LINE_D, well, beta) == 3
        assert ds.count_negative(HALF_LINE_D, well, beta * (1 + 1e-12)) == 4


class TestGroundState:
    def test_none_below_threshold(self):
        assert ds.ground_state(HALF_LINE_D, WELL, 0.9 * BETA_CR_WELL) is None

    def test_zero_potential_none(self):
        assert ds.ground_state(HALF_LINE_D,
                               Potential(Profile.indicator(1.0, 2.0), 0.0), 2.0) is None

    def test_energy_window_and_residual(self):
        lam0 = ds.ground_state(HALF_LINE_D, WELL, 4.0)
        assert -4.0 < lam0 < 0.0
        res = ds.eigenvalue_residual(HALF_LINE_D, WELL, 4.0, lam0)
        assert res < 1e-6

    def test_energy_bounded_by_well_depth(self):
        for beta in (1.0, 2.5, 6.0):
            lam0 = ds.ground_state(HALF_LINE_D, WELL, beta)
            assert lam0 >= -beta * WELL.max_value() - 1e-9

    @pytest.mark.parametrize("beta", [0.814, 2.0, 4.0, 5.0, 100.0])
    def test_matches_the_square_well_matching_equation(self, beta):
        lam0 = ds.ground_state(HALF_LINE_D, WELL, beta)
        exact = oc.square_well_ground_energy(beta, 1.0, 2.0)
        assert abs(lam0 - exact) <= 1e-9 * max(1.0, abs(exact))

    @pytest.mark.parametrize("beta,rel", [(0.7402, 1e-5), (0.74018, 5e-5)])
    def test_shallow_state_is_accurate_relative_to_its_size(self, beta, rel):
        # beta_cr = 0.7401738843949668, so lambda0 is -4.23e-10 and -2.32e-11;
        # the root in k bounds |d lambda| / |lambda| by tol / (k k_hi), which
        # is 5.6e-6 and 2.4e-5 here; |d lambda| <= tol alone would allow any
        # error on the shallower one
        lam0 = ds.ground_state(HALF_LINE_D, WELL, beta)
        exact = oc.square_well_ground_energy(beta, 1.0, 2.0)
        assert abs(lam0 - exact) <= rel * abs(exact)

    @pytest.mark.parametrize("eps", [3e-8, 1e-7, 1e-6])
    def test_state_shallower_than_the_bracket_is_found(self, eps):
        # lambda0 is -3.1e-16, -3.4e-15 and -3.4e-13, above the bracket's
        # shallow end -1e-12: the root in k lies on [0, k_lo]
        beta = BETA_CR_WELL * (1.0 + eps)
        lam0 = ds.ground_state(HALF_LINE_D, WELL, beta)
        exact = oc.square_well_ground_energy(beta, 1.0, 2.0)
        assert exact > -1e-12
        assert lam0 == pytest.approx(exact, rel=1e-5)

    @pytest.mark.parametrize("eps", [3e-2, 1e-2, 3e-3])
    def test_exponentially_shallow_planar_state(self, eps):
        # a planar s-state sits at about -exp(-c / eps) above threshold
        # (beta_cr = 0.78957958668 here): -8.6e-25, -1.0e-71, -5.4e-236
        prob = ProblemSpec(2, "exterior_ball", "dirichlet", radius=1.0)
        beta = 0.78957958668 * (1.0 + eps)
        lam0 = ds.ground_state(prob, Potential(Profile.indicator(1.5, 2.5)), beta)
        exact = oc.planar_ground_energy(beta, 1.5, 2.5, 1.0)
        assert lam0 == pytest.approx(exact, rel=1e-8)

    def test_profile_of_an_underflowed_state_is_refused(self):
        # beta_cr (1 + 1e-3) puts this planar s-state below e^-744: -0.0
        prob = ProblemSpec(2, "exterior_ball", "dirichlet", radius=1.0)
        pot, beta = Potential(Profile.indicator(1.5, 2.5)), 0.78957958668 * 1.001
        lam0 = ds.ground_state(prob, pot, beta)
        assert lam0 == 0.0 and math.copysign(1.0, lam0) < 0
        with pytest.raises(ValidationError):
            ds.eigenfunction(prob, pot, beta, lam0)

    def test_none_just_below_threshold(self):
        assert ds.ground_state(HALF_LINE_D, WELL, BETA_CR_WELL * (1.0 - 1e-6)) is None

    def test_zero_energy_mismatch_is_the_limit_of_the_shots_in_every_sector(self):
        # just past sector 2's threshold on the turn mesh: read on that mesh
        # the lambda = 0 mismatch was 3.8e-11 while the shots below 0, on the
        # floored mesh, tend to 6.5e-7
        prob = BALL_D3.with_sector(2)
        pot = Potential(Profile.indicator(1.5, 2.5))
        beta = 3.758776079629624 * (1.0 + 1e-10)
        at_zero = ds.phase_mismatch(prob, pot, beta, 0.0)
        assert at_zero == pytest.approx(ds.phase_mismatch(prob, pot, beta, -1e-14), abs=1e-12)
        assert at_zero == pytest.approx(6.523018e-7, rel=1e-6)

    @pytest.mark.parametrize("support,beta", [((1.0, 2.0), 0.814), ((1.0, 2.0), 4.0),
                                              ((0.5, 1.3), 12.0), ((1.0, 2.0), 100.0)])
    def test_exact_on_piecewise_constant_wells(self, monkeypatch, support, beta):
        # the Magnus step is exact where the coefficients are constant, so on
        # a half-line indicator well only the root search is left
        monkeypatch.setattr(ds, "GROUND_TOL", 1e-15)
        pot = Potential(Profile.indicator(*support))
        lam0 = ds.ground_state(HALF_LINE_D, pot, beta)
        exact = oc.square_well_ground_energy(beta, *support)
        assert lam0 == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("prob,beta,energy", [
        (HALF_LINE_D, 6.0, -1.3351453168379208),
        (BALL_D3, 30.0, -14.685918172542957),
    ], ids=["half_line", "d3"])
    def test_densely_sampled_well_keeps_its_energy(self, prob, beta, energy):
        # 2,000 samples of a cos^2 well, each one a cut of the mesh; the
        # energies are those of an adaptive RK45 shooting at rtol 1e-10
        pot = Potential(Profile.bump(1.0, 2.0, n=2000))
        assert ds.ground_state(prob, pot, beta) == pytest.approx(energy, rel=1e-9)

    def test_profile_tail_is_the_decaying_free_solution(self):
        lam0 = ds.ground_state(HALF_LINE_D, WELL, 4.0)
        mesh, u = ds.eigenfunction(HALF_LINE_D, WELL, 4.0, lam0)
        tail = mesh > 2.0
        k = np.sqrt(-lam0)
        ratio = u[tail] * np.exp(k * mesh[tail])
        assert ratio == pytest.approx(ratio[0], rel=1e-12)

    def test_profile_normalized_and_positive(self):
        lam0 = ds.ground_state(HALF_LINE_D, WELL, 4.0)
        mesh, u = ds.eigenfunction(HALF_LINE_D, WELL, 4.0, lam0)
        norm = np.trapezoid(u ** 2, mesh)
        assert norm == pytest.approx(1.0, rel=1e-3)
        assert np.all(u[1:-1] > -1e-10)

    def test_radial_d3_sector0_matches_shifted_halfline(self):
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0)
        pot3 = Potential(Profile.indicator(1.5, 2.5))
        shifted = ProblemSpec(1, "half_line", "dirichlet")
        pot1 = Potential(Profile.indicator(0.5, 1.5))
        lam3 = ds.ground_state(prob, pot3, 4.0)
        lam1 = ds.ground_state(shifted, pot1, 4.0)
        assert lam3 == pytest.approx(lam1, rel=1e-6)

    def test_variable_coefficient_shifts_energy_up(self):
        a = CoefficientProfile(Profile(np.array([0.0, 3.0]),
                                       np.array([1.5, 1.5])), 3.0)
        stiff = ProblemSpec(1, "half_line", "dirichlet", coefficient=a)
        lam_stiff = ds.ground_state(stiff, WELL, 4.0)
        lam_flat = ds.ground_state(HALF_LINE_D, WELL, 4.0)
        assert lam_stiff > lam_flat


    def test_d3_sector1_matches_fd_eigenvalue(self):
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0)
        pot = Potential(Profile.indicator(1.5, 2.5))
        lam0 = ds.ground_state(prob.with_sector(1), pot, 8.0)
        ref = oc.fd_ground_energy(3, 1, 1.0, (1.5, 2.5), 8.0)
        assert lam0 == pytest.approx(ref, rel=1e-6)
        assert ds.eigenvalue_residual(prob.with_sector(1), pot, 8.0, lam0) < 1e-6

    def test_d3_variable_coefficient_matches_fd_eigenvalue(self):
        a = CoefficientProfile(Profile(np.array([1.0, 2.0, 3.0]),
                                       np.array([2.0, 1.5, 1.0])), 3.0)
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0,
                           coefficient=a)
        pot = Potential(Profile.indicator(1.5, 2.5))
        lam0 = ds.ground_state(prob, pot, 5.0)
        ref = oc.fd_ground_energy(3, 0, 1.0, (1.5, 2.5), 5.0, coefficient=a)
        assert lam0 == pytest.approx(ref, rel=1e-6)
        assert ds.eigenvalue_residual(prob, pot, 5.0, lam0) < 1e-6


    @pytest.mark.parametrize("shape,bound", [("tent", 1e-6), ("bump", 1e-9)])
    def test_sampled_wells_are_integrated_between_their_samples(self, shape, bound):
        # a kink inside an RK45 step spoils the profile there: cut only at
        # the support edges, the tent reads 7.4e-3 and the bump 3.4e-5
        pot = Potential(getattr(Profile, shape)(1.2, 1.9, 1.5))
        lam0 = ds.ground_state(HALF_LINE_D, pot, 6.0)
        assert ds.eigenvalue_residual(HALF_LINE_D, pot, 6.0, lam0) < bound

    @pytest.mark.parametrize("ulps", [1, 4])
    def test_jump_written_as_samples_ulps_apart(self, ulps):
        # a piece a few ulps long left the residual grid no spacing: it read inf
        x = 1.5
        for _ in range(ulps):
            x = math.nextafter(x, 2.0)
        pot = Potential(Profile(np.array([1.2, 1.5, x, 1.9]), np.array([0.5, 0.5, 1.0, 1.0])))
        lam0 = ds.ground_state(HALF_LINE_D, pot, 4.0)
        assert lam0 == pytest.approx(-0.72686177, rel=1e-7)
        assert ds.eigenvalue_residual(HALF_LINE_D, pot, 4.0, lam0) < 1e-7

    def test_eigenfunction_reads_the_problem_sector(self):
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0, sector=1)
        pot = Potential(Profile.indicator(1.5, 2.5))
        lam0 = ds.ground_state(prob, pot, 8.0)
        mesh, u = ds.eigenfunction(prob, pot, 8.0, lam0)
        assert np.trapezoid(u ** 2 * mesh ** 2, mesh) == pytest.approx(1.0, rel=1e-3)
        # the sector-1 profile decays like r^{-1} K_{3/2}(k r) past R*
        k, tail = np.sqrt(-lam0), mesh > 2.5
        ratio = u[tail] * mesh[tail] ** 2 * np.exp(k * mesh[tail]) / (1.0 + k * mesh[tail])
        assert ratio == pytest.approx(ratio[0], rel=1e-10)


class TestScaleFreeMesh:
    """The sector ODE steps a well in ``WELL_STEPS`` per length of its
    stepped span, so a dilated problem is solved the same at every scale."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(("tent", "bump")), st.floats(math.log(1e-3), math.log(10.0)))
    def test_ground_state_is_dilation_invariant(self, shape, log_s):
        # V on [s, 2s] of height 1 / s^2 is the unit well dilated by s, so
        # lambda0 s^2 is the unit well's; ground_state's tol is 1e-10 in lambda
        s = math.exp(log_s)
        unit = ds.ground_state(HALF_LINE_D, Potential(getattr(Profile, shape)(1.0, 2.0)), 6.0)
        lam0 = ds.ground_state(
            HALF_LINE_D, Potential(getattr(Profile, shape)(s, 2.0 * s, 1.0 / s ** 2)), 6.0)
        assert lam0 * s * s == pytest.approx(unit, rel=max(1e-10, 1e-10 / abs(lam0)))

    @pytest.mark.parametrize("prob, lo, hi, height", [
        (HALF_LINE_D, 1.0, 1.001, 1e6), (HALF_LINE_D, 1.0, 1.01, 1e4),
        (ProblemSpec(2, "exterior_ball", "dirichlet", radius=1.0), 1.5, 1.51, 1e4),
        (BALL_D3, 1.5, 1.51, 1e4), (BALL_D3, 1.5, 1.501, 1e6)])
    def test_narrow_well_ground_state_holds_its_tolerance(self, monkeypatch, prob, lo, hi,
                                                          height):
        # tents 1e-2 and 1e-3 wide at 3 beta_cr against the same solve with
        # every step of the mesh split in 40: they agree to 5e-12 (a fixed
        # 1,000 steps per unit length was off by 7.2e-7 to 1.2e-4)
        pot = Potential(Profile.tent(lo, hi, height))
        beta = 3.0 * ds.beta_critical_direct(prob, pot)
        lam0 = ds.ground_state(prob, pot, beta)
        mesh = SectorODE.mesh

        def finer(ode, *args, **kwargs):
            r = mesh(ode, *args, **kwargs)
            return np.append(r[:-1, None] + np.diff(r)[:, None] * np.arange(40) / 40, r[-1])

        monkeypatch.setattr(SectorODE, "mesh", finer)
        assert lam0 == pytest.approx(ds.ground_state(prob, pot, beta), rel=1e-10)


class TestPiecewiseConstantWells:
    """Half-line indicator wells, where the sector ODE crosses each piece in
    as few exact steps as its turn allows, one where nothing oscillates."""

    @staticmethod
    def _well(lo, width, amp, factor):
        beta = factor * oc.square_well_beta_cr(lo, lo + width) / amp
        return Potential(Profile.indicator(lo, lo + width), amp), beta

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 3.0), st.floats(0.1, 3.0), st.floats(0.1, 10.0),
           st.floats(1.05, 50.0))
    def test_ground_state_solves_the_matching_equation(self, lo, width, amp, factor):
        pot, beta = self._well(lo, width, amp, factor)
        lam0 = ds.ground_state(HALF_LINE_D, pot, beta)  # GROUND_TOL = 1e-10
        assert abs(lam0 - oc.square_well_ground_energy(beta * amp, lo, lo + width)) <= 1e-10

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 3.0), st.floats(0.1, 3.0), st.floats(0.1, 10.0),
           st.floats(1.05, 50.0))
    def test_zero_energy_angle_counts_the_crossings(self, lo, width, amp, factor):
        # the mismatch is the Pruefer angle past pi/2 at R*: a long exact step
        # must not lose a half-turn when the angle is unwrapped.  At a
        # crossing itself (lo = 0, width 1/2, factor 49: k = 7 pi) the count
        # is decided by rounding, so the wells skip a band of 1e-9 there
        k = math.sqrt(factor * oc.square_well_beta_cr(lo, lo + width))
        turns = (k * width + math.atan(k * lo)) / math.pi - 0.5
        assume(abs(turns - round(turns)) > 1e-9)
        pot, beta = self._well(lo, width, amp, factor)
        m = ds.phase_mismatch(HALF_LINE_D, pot, beta, 0.0)
        count = math.floor(m / math.pi) + 1 if m > 0.0 else 0
        assert count == oc.halfline_crossing_count(beta * amp, lo, lo + width)


class TestCrosscheck:
    def test_identity_residual_small(self):
        rows = ds.crosscheck_birman_schwinger(HALF_LINE_D, WELL, [1.0, 2.0, 4.0])
        assert max(r["residual"] for r in rows) < 1e-3

    def test_energy_and_kernel_come_from_the_problem_sector(self):
        # pairing the sector-0 energy with the sector-1 kernel reads 0.071
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0, sector=1)
        pot = Potential(Profile.indicator(1.5, 2.5))
        (row,) = ds.crosscheck_birman_schwinger(prob, pot, [8.0])
        ref = oc.fd_ground_energy(3, 1, 1.0, (1.5, 2.5), 8.0)
        assert row["lambda0"] == pytest.approx(ref, rel=1e-6)
        assert row["residual"] < 1e-4

    def test_d3_sector1_residual_is_the_kernel_error(self):
        # the shooting energy is far closer than that, so what is left is
        # the Nystrom error of the m = 400 kernel matrix
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0, sector=1)
        (row,) = ds.crosscheck_birman_schwinger(prob, Potential(Profile.indicator(1.5, 2.5)),
                                                [8.0])
        assert row["residual"] <= 6.1e-6

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

    def test_coupling_just_above_threshold(self):
        # lambda0 = -3.4e-13 lies above the shooting bracket's shallow end
        beta = BETA_CR_WELL * (1.0 + 1e-6)
        (row,) = ds.crosscheck_birman_schwinger(HALF_LINE_D, WELL, [beta])
        exact = oc.square_well_ground_energy(beta, 1.0, 2.0)
        assert row["lambda0"] == pytest.approx(exact, rel=1e-5)
        assert row["residual"] < 1e-5

    def test_subthreshold_rejected(self):
        with pytest.raises(ValidationError):
            ds.crosscheck_birman_schwinger(HALF_LINE_D, WELL, [0.5 * BETA_CR_WELL])


class TestBetaCriticalDirect:
    def test_square_well_matches_oracle(self):
        # closed form: k^2 with k + atan(k) = pi/2, 0.74017388439496704...
        value = ds.beta_critical_direct(HALF_LINE_D, WELL)
        assert value == pytest.approx(BETA_CR_WELL, rel=1e-12)

    def test_d3_indicator_matches_the_closed_form(self):
        # k^2 with k + atan(k / 2) = pi/2: the s-wave r u solves the half-line
        # equation with the well [0.5, 1.5]
        value = ds.beta_critical_direct(BALL_D3, Potential(Profile.indicator(1.5, 2.5)))
        assert value == pytest.approx(1.1596575823950743, rel=1e-12)
        assert value == pytest.approx(oc.square_well_beta_cr(1.5, 2.5, inner=1.0),
                                      rel=1e-12)

    def test_neumann_collapses_to_zero(self):
        assert ds.beta_critical_direct(HALF_LINE_N, WELL) == 0.0

    @pytest.mark.parametrize("bc", ["neumann", "fkw"])
    def test_planar_neumann_sector_zero_collapses_to_zero(self, bc):
        # sector 0 carries the Neumann condition under both
        prob = ProblemSpec(2, "exterior_ball", bc, radius=1.0)
        assert ds.beta_critical_direct(prob, Potential(Profile.indicator(1.5, 2.5))) == 0.0

    def test_d3_neumann_threshold_stays_positive(self):
        prob = ProblemSpec(3, "exterior_ball", "neumann", radius=1.0)
        value = ds.beta_critical_direct(prob, Potential(Profile.indicator(1.5, 2.5)))
        assert value == 0.5417036441766391

    def test_d3_agrees_with_kernel_route(self):
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0)
        pot = Potential(Profile.indicator(1.5, 2.5))
        direct = ds.beta_critical_direct(prob, pot)
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
        direct = ds.beta_critical_direct(prob, pot)
        kernel = bs.beta_critical(prob, pot, method="limit-kernel", m=400)
        assert direct == pytest.approx(kernel, rel=1e-4)

    def test_variable_coefficient_agrees_with_kernel_route(self):
        a = CoefficientProfile(Profile(np.array([1.0, 2.0, 3.0]),
                                       np.array([2.0, 1.5, 1.0])), 3.0)
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0,
                           coefficient=a)
        pot = Potential(Profile.indicator(1.5, 2.5))
        direct = ds.beta_critical_direct(prob, pot)
        kernel = bs.beta_critical(prob, pot, method="limit-kernel", m=300)
        assert direct == pytest.approx(kernel, rel=1e-4)
        # a stiffer medium binds later than the flat one
        flat = ds.beta_critical_direct(
            ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0), pot)
        assert direct > flat


class TestDiscreteOperator:
    """The finite-difference oracle the angle count is checked against."""

    def test_symmetric_tridiagonal_shape(self):
        pencil = oc.SpectrumCounter(HALF_LINE_D, WELL).pencil(1e-2, 0)
        diag = pencil.diag(2.0)
        assert diag.size == pencil.grid.r.size - 1  # u(0) = 0 eliminated
        assert pencil.off.size == diag.size - 1

    def test_mesh_ends_one_unit_past_the_support_edge(self):
        pencil = oc.SpectrumCounter(HALF_LINE_D, WELL).pencil(1e-2, 0)
        assert pencil.grid.r[-1] == pytest.approx(3.0, abs=1e-12)

    def test_count_matches_crossing_oracle_at_h_and_half_h(self):
        counter = oc.SpectrumCounter(HALF_LINE_D, WELL)
        for beta in (0.5, 4.0, 30.0, 100.0):
            expected = oc.halfline_crossing_count(beta, 1.0, 2.0)
            assert ds.count_negative(HALF_LINE_D, WELL, beta) == expected
            for h in (2e-3, 1e-3):
                assert counter.count(beta, h=h, refine=False) == expected

    def test_clr_inequality_d3(self):
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0)
        pot = Potential(Profile.indicator(1.5, 2.5))
        moment = pot.integral_power(1.5, 3)
        for beta in (1.3, 3.5, 8.0):
            count = ds.count_negative(prob, pot, beta)
            assert count <= 0.1156 * beta ** 1.5 * moment


@st.composite
def _tridiagonals(draw):
    n = draw(st.integers(1, 12))
    entries = st.floats(-10.0, 10.0, allow_subnormal=False)
    diag = draw(st.lists(entries, min_size=n, max_size=n))
    off = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
    return np.array(diag), np.array(off)


@st.composite
def _sturm_inputs(draw):
    """Tridiagonals with small-integer entries, which make exact zero pivots
    (diag 1, 1 and off 1, say), and zero or tiny off-diagonals, which LAPACK
    splits into blocks."""
    n = draw(st.integers(1, 12))
    floats = st.floats(-10.0, 10.0, allow_subnormal=False)
    diag = st.one_of(st.integers(-3, 3).map(float), floats)
    off = st.one_of(st.sampled_from([0.0, 1e-300, 1e-170, 1e-160, 1e-30, 1e-8]),
                    st.integers(-3, 3).map(float), floats)
    return (np.array(draw(st.lists(diag, min_size=n, max_size=n))),
            np.array(draw(st.lists(off, min_size=n - 1, max_size=n - 1))))


class TestSturmCount:
    @settings(max_examples=300, deadline=None)
    @given(_tridiagonals())
    def test_matches_eigvalsh(self, tri):
        diag, off = tri
        eig = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        assume(np.min(np.abs(eig)) > 1e-9)  # no eigenvalue at the shift itself
        assert oc._sturm_count(diag, off) == int(np.sum(eig < 0))

    @settings(max_examples=400, deadline=None)
    @given(_sturm_inputs())
    def test_lapack_count_matches_the_python_sturm_loop(self, tri):
        diag, off = tri
        count, loop = oc._sturm_count(diag, off), oc.sturm_count(diag, off)
        eig = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        tol = 1e-9 * max(1.0, float(np.max(np.abs(eig))))
        if np.min(np.abs(eig)) > tol:
            assert count == loop
        else:
            # an eigenvalue at 0 up to rounding, which the block split or the
            # tiny pivot may put on either side: both counts stay in between
            below, at_most = int(np.sum(eig < -tol)), int(np.sum(eig <= tol))
            assert below <= count <= at_most
            assert below <= loop <= at_most


def _one_shot_operator(problem, potential, beta, h, sector):
    """(mesh, diag, off) with the zero-energy closure, assembled in one pass
    the way the pencil's single build did it before the coupling was
    factored out."""
    ode = SectorODE(problem.with_sector(sector))
    r_in = problem.inner_radius
    r_out = SectorODE(problem, potential).r_star + 1.0
    n = max(8, int(round((r_out - r_in) / h)))
    r = r_in + h * np.arange(n + 1)
    _, q, weight = ode.coefficients(r)
    q = q - beta * oc.cell_average(potential, r, float(r[1] - r[0])) * weight
    p_half = ode.coefficients(r[:-1] + 0.5 * h)[0]
    _, flux_out = ode.decay_state(0.0, r[-1])
    diag = np.empty(n + 1)
    diag[1:-1] = (p_half[:-1] + p_half[1:]) / h + q[1:-1] * h
    diag[0] = p_half[0] / h + q[0] * 0.5 * h
    diag[-1] = p_half[-1] / h + q[-1] * 0.5 * h - flux_out
    off = -p_half / h
    if ode.bc == "neumann":
        return r, diag, off
    return r[1:], diag[1:], off[1:]


STIFF = CoefficientProfile(Profile(np.array([1.0, 2.0, 3.0]),
                                   np.array([2.0, 1.5, 1.0])), 3.0)
PENCIL_CASES = ((HALF_LINE_D, 0), (HALF_LINE_N, 0),
                (ProblemSpec(1, "exterior_ball", "dirichlet", radius=1.0), 1),
                (BALL_D3, 0), (BALL_D3, 3),
                (ProblemSpec(2, "exterior_ball", "neumann", radius=1.0), 2),
                (ProblemSpec(3, "exterior_ball", "fkw", radius=1.0), 0),
                (ProblemSpec(3, "exterior_ball", "fkw", radius=1.0), 1),
                (ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0,
                             coefficient=STIFF), 1))


class TestSectorPencil:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(PENCIL_CASES), st.sampled_from(("indicator", "tent", "bump")),
           st.lists(st.floats(0.0, 300.0), min_size=1, max_size=6))
    def test_reused_pencil_matches_a_one_shot_build_bit_for_bit(self, case, shape,
                                                                betas):
        prob, sector = case
        lo = prob.inner_radius + 0.4
        pot = Potential(getattr(Profile, shape)(lo, lo + 0.9), 1.3)
        h = 5e-3
        pencil = oc.SpectrumCounter(prob, pot).pencil(h, sector)
        for beta in betas:
            fresh = oc.SectorPencil(oc._mesh(prob, pot, h), prob.with_sector(sector))
            mesh, diag, off = _one_shot_operator(prob, pot, beta, h, sector)
            for kept in (pencil, fresh):
                assert np.array_equal(kept.grid.r[kept.first:], mesh)
                assert np.array_equal(kept.diag(beta), diag)
                assert np.array_equal(kept.off, off)
            assert pencil.count(beta) == oc.sturm_count(pencil.diag(beta), pencil.off)


class TestCountMonotone:
    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from((HALF_LINE_D, HALF_LINE_N, BALL_D3)),
           st.sampled_from(("indicator", "tent", "bump")),
           st.floats(0.0, 1.0), st.floats(0.3, 1.5),
           st.lists(st.floats(0.0, 150.0), min_size=2, max_size=6))
    def test_nondecreasing_in_beta(self, prob, shape, offset, width, betas):
        lo = prob.inner_radius + offset
        pot = Potential(getattr(Profile, shape)(lo, lo + width))
        counts = {beta: ds.count_negative(prob, pot, beta) for beta in betas}
        ordered = [counts[beta] for beta in sorted(counts)]
        assert ordered == sorted(ordered)


FD_PROBLEMS = (HALF_LINE_D, HALF_LINE_N, BALL_D3,
               ProblemSpec(1, "exterior_ball", "fkw", radius=1.0),
               ProblemSpec(2, "exterior_ball", "dirichlet", radius=1.0),
               ProblemSpec(3, "exterior_ball", "neumann", radius=1.0),
               ProblemSpec(3, "exterior_ball", "fkw", radius=1.0),
               ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0, coefficient=STIFF))


class TestCountMatchesTheFdOracle:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(FD_PROBLEMS), st.sampled_from(("indicator", "tent", "bump")),
           st.floats(0.0, 1.0), st.floats(0.3, 1.5), st.floats(0.5, 3.0),
           st.lists(st.floats(0.5, 150.0), min_size=1, max_size=4))
    def test_equals_the_fd_count_off_thresholds_and_rises_with_beta(
            self, prob, shape, offset, width, height, betas):
        lo = prob.inner_radius + offset
        pot = Potential(getattr(Profile, shape)(lo, lo + width, height))
        fd = oc.SpectrumCounter(prob, pot)
        counts = []
        for beta in sorted(betas):
            count = ds.count_negative(prob, pot, beta)
            # no crossing within 0.1%: FD moves crossings by O(h^2), about
            # 2e-5 relative here, and a coupling at one may count either side
            assume(ds.count_negative(prob, pot, 0.999 * beta) ==
                   ds.count_negative(prob, pot, 1.001 * beta) == count)
            assert count == fd.count(beta, h=1e-3, refine=True)
            counts.append(count)
        assert counts == sorted(counts)


class TestCountAndThresholdReadOneAngle:
    WELLS = [
        (HALF_LINE_D, Potential(Profile.tent(0.3, 1.1, 2.0))),
        (BALL_D3, Potential(Profile.tent(1.2, 1.9, 1.5))),
        (ProblemSpec(2, "exterior_ball", "dirichlet", radius=1.0),
         Potential(Profile.bump(1.5, 2.5))),
        (ProblemSpec(3, "exterior_ball", "fkw", radius=1.0),
         Potential(Profile.indicator(1.5, 2.5))),
        (ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0, coefficient=STIFF),
         Potential(Profile.tent(1.5, 2.5)))]

    @pytest.mark.parametrize("prob, pot", WELLS)
    def test_first_state_appears_at_the_threshold(self, prob, pot):
        # the count, the threshold and the ground state agree on each side
        # (the planar state this shallow underflows to -0.0)
        beta_cr = ds.beta_critical_direct(prob, pot)
        below, above = beta_cr * (1.0 - 1e-9), beta_cr * (1.0 + 1e-9)
        assert ds.count_negative(prob, pot, below) == 0
        assert ds.count_negative(prob, pot, above) == 1
        assert ds.ground_state(prob, pot, below) is None
        assert ds.ground_state(prob, pot, above) is not None

    @pytest.mark.parametrize("prob, pot", WELLS)
    def test_count_reads_the_threshold_mismatch_at_its_root(self, prob, pot):
        # at the root and its two neighbouring floats the count holds the one
        # state exactly where the mismatch the threshold roots is positive
        beta_cr = ds.beta_critical_direct(prob, pot)
        for beta in (np.nextafter(beta_cr, 0.0), beta_cr, np.nextafter(beta_cr, np.inf)):
            bound = ds.phase_mismatch(prob.with_sector(0), pot, float(beta), 0.0) > 0.0
            assert ds.count_negative(prob, pot, float(beta)) == int(bound)


class TestGroundStateMonotone:
    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from((HALF_LINE_D, BALL_D3)),
           st.sampled_from(("indicator", "tent", "bump")),
           st.floats(0.0, 1.0), st.floats(0.3, 1.5),
           st.lists(st.one_of(st.floats(0.5, 0.99), st.floats(1.01, 20.0)),
                    min_size=2, max_size=4))
    def test_falls_strictly_in_beta(self, prob, shape, offset, width, factors):
        factors = sorted(factors)
        # couplings 0.1% apart move even a shallow state by far more than tol
        assume(all(b > 1.001 * a for a, b in zip(factors, factors[1:])))
        lo = prob.inner_radius + offset
        pot = Potential(getattr(Profile, shape)(lo, lo + width))
        beta_cr = ds.beta_critical_direct(prob, pot)
        energies = []
        for c in factors:
            beta = c * beta_cr
            lam0 = ds.ground_state(prob, pot, beta)
            assert (lam0 is None) == (ds.count_negative(prob, pot, beta) == 0)
            if lam0 is not None:
                assert -beta * pot.max_value() < lam0 < 0.0
                energies.append(lam0)
        assert all(b < a for a, b in zip(energies, energies[1:]))


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
        direct = ds.beta_critical_direct(prob, well)
        direct_c = ds.beta_critical_direct(prob, scaled)
        assert direct_c == pytest.approx(direct / c, rel=1e-12)


class TestDilation:
    """On the half-line with a Dirichlet condition, V_s(x) = s^-2 V(x / s)
    has the threshold of V: the limit kernel min(x, y) scales like s, and
    u(x / s) solves the zero-energy equation of V_s."""

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(("indicator", "tent", "bump")), st.floats(0.0, 2.0),
           st.floats(0.2, 2.0), st.floats(0.2, 5.0), st.floats(0.3, 4.0))
    def test_threshold_is_dilation_invariant(self, shape, lo, width, height, s):
        make = getattr(Profile, shape)
        pot = Potential(make(lo, lo + width, height))
        dilated = Potential(make(s * lo, s * (lo + width), height / s ** 2))
        kernel = [bs.beta_critical(HALF_LINE_D, p, method="limit-kernel", m=64)
                  for p in (pot, dilated)]
        assert kernel[1] == pytest.approx(kernel[0], rel=1e-12)
        direct = [ds.beta_critical_direct(HALF_LINE_D, p) for p in (pot, dilated)]
        assert direct[1] == pytest.approx(direct[0], rel=1e-9)


class TestNewtonThreshold:
    """The threshold is a safeguarded Newton root on the slope each shot's
    walk sums.  The shot counts and roots listed are those of the bracketed
    ``brentq`` root it replaced."""

    WELLS = [
        (HALF_LINE_D, Potential(Profile.indicator(1.0, 2.0)), 9, 0.7401738843949671),
        (BALL_D3, Potential(Profile.indicator(1.5, 2.5)), 10, 1.1596575823951059),
        (BALL_D3, Potential(Profile.tent(1.2, 1.9, 1.5)), 9, 3.9569809245470537),
        (ProblemSpec(2, "exterior_ball", "dirichlet", radius=1.0),
         Potential(Profile.bump(1.2, 1.9, 1.5)), 10, 3.066715736185131),
        (ProblemSpec(3, "exterior_ball", "neumann", radius=1.0),
         Potential(Profile.indicator(1.5, 2.5)), 13, 0.5417036441766392),
        (ProblemSpec(2, "exterior_ball", "dirichlet", radius=1.0),
         Potential(Profile.indicator(1.5, 2.5)), 9, 0.789579586681801)]

    @pytest.fixture
    def shots(self, monkeypatch):
        calls = []
        integrate = SectorODE.integrate
        monkeypatch.setattr(SectorODE, "integrate",
                            lambda *a, **k: calls.append(1) or integrate(*a, **k))
        return calls

    @pytest.mark.parametrize("prob, pot, before, root", WELLS)
    def test_fewer_shots_to_the_same_root(self, shots, prob, pot, before, root):
        value = ds.beta_critical_direct(prob, pot)
        assert type(value) is float
        assert value == pytest.approx(root, rel=1e-14)
        assert len(shots) < before

    @pytest.mark.parametrize("prob", [
        HALF_LINE_D, ProblemSpec(2, "exterior_ball", "dirichlet", radius=1.0), BALL_D3,
        ProblemSpec(3, "exterior_ball", "neumann", radius=1.0),
        ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0, coefficient=STIFF)])
    @pytest.mark.parametrize("shape", ["indicator", "tent", "bump"])
    @pytest.mark.parametrize("beta", [0.3, 2.0, 17.0])
    def test_walk_slope_is_the_mismatch_derivative(self, prob, shape, beta):
        pot = Potential(getattr(Profile, shape)(1.5, 2.5, 1.5))
        ode = SectorODE(prob, pot, beta)
        slope = ode.integrate(0.0, ode.regular_state(), slope=True).slope
        h = 1e-5 * beta
        central = (ds.phase_mismatch(prob, pot, beta + h, 0.0)
                   - ds.phase_mismatch(prob, pot, beta - h, 0.0)) / (2.0 * h)
        assert slope == pytest.approx(central, rel=1e-6)

    def test_wells_at_the_dirichlet_end_take_one_shot(self, shots):
        # there the start (pi/2)^2 / (max V width^2) is the closed form
        for n in (4, 8, 16, 32):
            well = Potential(Profile.indicator(0.0, 2.0 / n), n)
            assert ds.beta_critical_direct(HALF_LINE_D, well) == pytest.approx(
                math.pi ** 2 * n / 16, rel=1e-15)
        assert len(shots) == 4

    def test_threshold_past_two_to_the_sixty_is_none(self):
        faint = Potential(Profile.indicator(1.0, 2.0), 1e-20)
        assert ds.beta_critical_direct(HALF_LINE_D, faint) is None
