import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betacrit import direct_spectrum as ds
from betacrit.errors import UnconvergedError
from betacrit.model import CoefficientProfile, Potential, ProblemSpec, Profile
from betacrit.sector_ode import MAX_STEPS, MAX_TURN, WELL_STEPS, SectorODE, ZeroEnergyAngle

BALL3 = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0)
POT = Potential(Profile.indicator(1.5, 2.5), 2.0)
A = CoefficientProfile(Profile(np.array([1.0, 2.0]), np.array([2.0, 1.0])), 2.0)
LINE = ProblemSpec(1, "half_line", "dirichlet")
WELL = Potential(Profile.indicator(1.0, 2.0))
# a == 1 up to its flattening radius 6: the span [1, 6] of BALL3 with POT
FLAT6 = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0, coefficient=CoefficientProfile(
    Profile(np.array([1.0, 6.0]), np.array([1.0, 1.0])), 6.0))


def _steps_per_piece(ode, lam):
    """Steps of ``mesh`` between consecutive cuts: every cut is a node."""
    r = ode.mesh(lam)
    assert np.isin(ode.cuts, r).all()
    return np.diff(np.searchsorted(r, ode.cuts)).tolist()


def _tail_ratio(ode, lam, r, r0):
    """u(r) / u(r0) along the decaying free solution, its scale e^{-k(r - r0)}
    put back."""
    f = ode.free_pair(lam, np.append(r0, r))[1]
    return f[1:] / f[0] * np.exp(-math.sqrt(-lam) * (r - r0))


class TestCoefficients:
    def test_values_match_the_sector_equation(self):
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0, coefficient=A)
        ode = SectorODE(prob.with_sector(2), POT, beta=0.5)
        r = np.array([1.25, 2.0, 3.0])
        a = np.array([1.75, 1.0, 1.0])
        v = np.array([0.0, 2.0, 0.0])
        p, q, w = ode.coefficients(r)
        assert w == pytest.approx(r ** 2, rel=1e-15)
        assert p == pytest.approx(a * r ** 2, rel=1e-15)
        assert q == pytest.approx(a * 6.0 - 0.5 * v * r ** 2, rel=1e-15)

    def test_scalars_and_arrays_agree(self):
        ode = SectorODE(BALL3.with_sector(1), POT, beta=3.0)
        r = np.linspace(1.0, 4.0, 13)
        p, q, w = ode.coefficients(r)
        for i, ri in enumerate(r):
            assert ode.coefficients(float(ri)) == pytest.approx((p[i], q[i], w[i]),
                                                                rel=1e-15)


class TestClosureAndSegments:
    def test_decay_state_is_the_free_decaying_solution(self):
        # d = 3, l = 0: u = e^{-kr}/r, so p u'/u = -r^2 (k + 1/r); 1/r at k = 0
        k, r = 0.7, 5.0
        u, flux = SectorODE(BALL3).decay_state(-k * k, r)
        assert flux / u == pytest.approx(-r * r * (k + 1.0 / r), rel=1e-12)
        assert SectorODE(BALL3).decay_state(0.0, r) == (1.0, -r)

    def test_decay_state_on_the_line_is_exactly_minus_k(self):
        # d = 1 has no centrifugal term in either sector: u = e^{-kr}
        for l in (0, 1):
            ode = SectorODE(ProblemSpec(1, "exterior_ball", "dirichlet", radius=1.0,
                                        sector=l))
            for lam in (-1e-12, -0.49, -1.0, -3.7, -1e6):
                for r in (1.0, 1.5, 2.5, 40.0):
                    assert ode.decay_state(lam, r) == (1.0, -math.sqrt(-lam))

    def test_free_pair_decays_as_the_free_decaying_profile(self):
        # d = 3, l = 0: u = e^{-kr}/r; d = 1: u = e^{-kr}
        k, r0, r = 0.7, 2.5, np.array([2.5, 3.0, 9.0])
        assert _tail_ratio(SectorODE(BALL3), -k * k, r, r0) == pytest.approx(
            np.exp(-k * (r - r0)) * r0 / r, rel=1e-13)
        assert _tail_ratio(SectorODE(LINE), -k * k, r, r0) == pytest.approx(
            np.exp(-k * (r - r0)), rel=1e-13)

    def test_free_pair_at_zero_energy_decays_as_the_bounded_free_solution(self):
        # r^{-(l+d-2)} where that decays, a constant otherwise
        r0, r = 2.5, np.array([2.5, 3.0, 9.0])
        d3 = SectorODE(BALL3)
        assert _tail_ratio(d3, 0.0, r, r0) == pytest.approx(r0 / r, rel=1e-15)
        d3_l2 = SectorODE(BALL3.with_sector(2))
        assert _tail_ratio(d3_l2, 0.0, r, r0) == pytest.approx((r0 / r) ** 3, rel=1e-15)
        d2 = SectorODE(ProblemSpec(2, "exterior_ball", "neumann", radius=1.0))
        assert np.all(_tail_ratio(d2, 0.0, r, r0) == 1.0)
        assert np.all(_tail_ratio(SectorODE(LINE), 0.0, r, r0) == 1.0)
        # and it is the small-k limit of the decaying branch
        for ode in (d3, d3_l2):
            assert _tail_ratio(ode, -1e-14, r, r0) == pytest.approx(
                _tail_ratio(ode, 0.0, r, r0), rel=1e-6)

    @pytest.mark.parametrize("lam", [0.0, -1e-6, -1.0, -900.0])
    @pytest.mark.parametrize("d, l", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 3),
                                      (3, 0), (3, 1), (3, 3)])
    def test_free_pair_wronskian_is_constant(self, d, l, lam):
        # p (g f' - g' f) of two solutions of the free equation is constant;
        # the scales e^{kr} and e^{-kr} cancel in it.  d = 2, l = 0 at zero
        # energy is the pair ln r, 1; the half-line pair starts at r = 0, and
        # the line has no sector past 1
        if (d, l) == (1, 0):
            problem, r = LINE, np.array([0.0, 0.3, 2.0, 11.0])
        else:
            problem = ProblemSpec(d, "exterior_ball", "dirichlet", radius=1.0, sector=l)
            r = np.array([1.0, 1.7, 4.0, 11.0])
        ode = SectorODE(problem)
        g, f, dg, df = ode.free_pair(lam, r, derivatives=True)
        wronskian = ode.coefficients(r)[0] * (g * df - dg * f)
        assert wronskian == pytest.approx(np.full(r.size, wronskian[0]), rel=1e-12)

    def test_r_star_is_where_v_and_a_stop_varying(self):
        assert SectorODE(BALL3, POT).r_star == 2.5
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0,
                           coefficient=CoefficientProfile(A.profile, 3.0))
        assert SectorODE(prob, POT).r_star == 3.0
        assert SectorODE(prob).r_star == 3.0
        assert SectorODE(BALL3).r_star == 1.0  # a == 1 without a potential: no span

    def test_constant_tail_at_zero_energy(self):
        ode = SectorODE(ProblemSpec(2, "exterior_ball", "neumann", radius=1.0))
        assert ode.decay_state(0.0, 4.0) == (1.0, 0.0)

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_constant_tail_on_the_half_line_at_its_origin(self, bc):
        # the bare half-line closes at r_f = 0: no 0/0, under error::RuntimeWarning
        ode = SectorODE(ProblemSpec(1, "half_line", bc))
        assert ode.decay_state(0.0, 0.0) == (1.0, 0.0)

    def test_cuts_at_support_edges_and_flat_radius(self):
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0, coefficient=A)
        assert SectorODE(prob, POT).cuts.tolist() == [1.0, 1.5, 2.0, 2.5]
        assert SectorODE(prob).cuts.tolist() == [1.0, 2.0]

    def test_cuts_at_every_sample_of_v_and_a(self):
        a = CoefficientProfile(Profile(np.array([1.0, 1.4, 1.8]),
                                       np.array([2.0, 1.2, 1.5])), 2.0)
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0, coefficient=a)
        tent = Potential(Profile.tent(1.5, 2.5))
        assert SectorODE(prob, tent).cuts.tolist() == [1.0, 1.4, 1.5, 1.8, 2.0, 2.5]
        bump = Potential(Profile.bump(1.2, 1.9))
        assert SectorODE(BALL3, bump).cuts.tolist() == [1.0, *bump.profile.xs.tolist()]

    def test_integrates_backwards_through_the_pieces(self):
        # free d = 3 sector 0: the decaying solution e^{-kr}/r, integrated inward
        k = 1.0
        ode = SectorODE(FLAT6, POT, beta=0.0)
        sol = ode.integrate(-k * k, ode.decay_state(-1.0, 6.0), inward=True)
        assert ode.cuts.tolist() == [1.0, 1.5, 2.5, 6.0]
        assert sol.span == (1.0, 6.0)
        assert sol(1.0) == pytest.approx(math.exp(5.0 * k) * 6.0, rel=1e-8)
        r = np.array([1.0, 1.5, 2.0, 2.5, 4.0, 6.0])
        assert sol(r) == pytest.approx(np.exp(k * (6.0 - r)) * 6.0 / r, rel=1e-8)

    def test_rescaled_state_keeps_the_ratio(self):
        # every node keeps its state at unit 1-norm and the logarithm of the
        # scale apart; reads multiply the two back into the true solution
        ode = SectorODE(FLAT6, POT, beta=0.0)
        sol = ode.integrate(-1.0, ode.decay_state(-1.0, 6.0), inward=True)
        assert np.abs(sol.y).sum(axis=0) == pytest.approx(1.0, rel=1e-15)
        u = np.exp(6.0 - sol.r) * 6.0 / sol.r
        assert sol.y[0] * np.exp(sol.log) == pytest.approx(u, rel=1e-8)
        assert sol.log[-1] - sol.log[0] > 4.0  # the solution grew by e^5 6/5
        assert sol.peak == pytest.approx(math.exp(5.0) * 6.0, rel=1e-8)
        r = np.linspace(1.0, 6.0, 11)  # mostly between nodes
        assert sol(r) == pytest.approx(np.exp(6.0 - r) * 6.0 / r, rel=1e-8)
        assert sol.state(r)[1] == pytest.approx(-(r + 1.0) * np.exp(6.0 - r) * 6.0,
                                                  rel=1e-8)

    def test_rescaling_carries_an_inward_solve_past_float_overflow(self):
        # at k = 150 the state grows by e^{k (6 - 1)} = e^750, past the float
        # range; the nodes stay at unit norm and the log-scale carries the
        # growth, so the solution read as a ratio to u(1) stays finite.  On
        # the line with a == 1 up to R* = 6, p, q and w are constant on every
        # piece, so every step is exact: u = e^{k (6 - r)}
        lam = -150.0 ** 2
        line = ProblemSpec(1, "exterior_ball", "dirichlet", radius=1.0,
                           coefficient=FLAT6.coefficient)
        ode = SectorODE(line, POT, beta=0.0)
        sol = ode.integrate(lam, ode.decay_state(lam, 6.0), inward=True)
        assert ode.cuts.tolist() == [1.0, 1.5, 2.5, 6.0]
        assert np.abs(sol.y).sum(axis=0) == pytest.approx(1.0, rel=1e-15)
        # |u| + |p u'| = u (1 + k)
        assert sol.log[-1] - sol.log[0] == pytest.approx(750.0, rel=1e-9)
        with np.errstate(over="ignore"):
            assert np.isinf(sol(1.0))
        sol.normalize(1.0)
        # p u' / u = -k, and |u| peaks at r = 1
        assert sol.state(1.0) == pytest.approx([1.0, -150.0], rel=1e-7)
        assert sol.peak == pytest.approx(1.0, rel=1e-12)
        # the ratio of the state across the last piece is the free one
        assert sol(np.array([1.5])) == pytest.approx(math.exp(-75.0), rel=1e-7)

    def test_variable_coefficient_deep_in_energy_stays_finite(self):
        # a = 2 -> 1 on [1, 2] at lambda = -1e6: u grows by about e^820, which
        # overflowed the unscaled integration
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0, coefficient=A)
        ode = SectorODE(prob)
        sol = ode.integrate(-1e6, ode.regular_state())
        assert np.isfinite(sol.y).all() and np.isfinite(sol.log).all()
        assert math.log(sol.y[0, -1]) + sol.log[-1] == pytest.approx(819.96, abs=0.01)

    def test_pruefer_angle_counts_the_half_turns(self):
        # u = sin(pi r) / pi on the half-line, free at beta = 0, at lambda =
        # pi^2: the angle of (u, u') reaches 3 pi at R* = 3, through 38 exact
        # steps of at most MAX_TURN each
        line = SectorODE(LINE, Potential(Profile.indicator(0.0, 3.0)))
        sol = line.integrate(math.pi ** 2, line.regular_state())
        assert sol.r.size == 38 + 1
        assert sol.angle == pytest.approx(3.0 * math.pi, rel=1e-12)
        assert line.integrate(-1.0, line.regular_state()).angle == \
            pytest.approx(math.atan(math.tanh(3.0)), rel=1e-12)

    def test_mesh_fills_each_piece_uniformly(self):
        # d = 3: the gap [1, 1.5] is free, one exact step; the well takes
        # WELL_STEPS per length of the stepped span [1.5, 2.5]
        ode = SectorODE(BALL3, POT, beta=2.0)
        r = ode.mesh(-1.0)
        assert set(ode.cuts.tolist()) <= set(r.tolist())
        h = np.diff(r)
        for lo, hi, steps in [(1.0, 1.5, 1), (1.5, 2.5, WELL_STEPS)]:
            inside = h[(r[:-1] >= lo) & (r[1:] <= hi)]
            assert inside.size == steps
            assert inside == pytest.approx(inside[0], rel=1e-9)

    def test_mesh_keeps_each_oscillating_step_below_the_turn_bound(self):
        # beta V = 2e6 on [1.5, 2.5]: a wavenumber near 1400, far past the
        # floor there; the free gap below it stays one step
        ode = SectorODE(BALL3, POT, beta=1e6)
        r = ode.mesh(-1.0)
        p, q, w = ode.coefficients(r[:-1] + 0.5 * np.diff(r))
        wave = np.sqrt(np.maximum(-w - q, 0.0) / p)
        assert np.max(wave * np.diff(r)) <= MAX_TURN
        assert np.sum((r > 1.5) & (r < 2.5)) > 4 * WELL_STEPS
        assert np.sum(r < 1.5) == 1

    def test_constant_pieces_take_only_the_steps_their_turn_needs(self):
        # d = 1, a == 1 and an indicator well: p, q and w are constant on
        # every piece, so one Magnus step is exact there and no density floor
        # applies; the well turns the state by sqrt(4 - 1) per unit length
        for prob in (LINE, ProblemSpec(1, "exterior_ball", "neumann", radius=0.5,
                                       sector=1)):
            ode = SectorODE(prob, WELL, beta=4.0)
            assert ode.pieces(-1.0)[1].tolist() == [True] * 2
            assert _steps_per_piece(ode, -1.0) == [1, math.ceil(math.sqrt(3.0) / MAX_TURN)]
            assert _steps_per_piece(ode, -5.0) == [1, 1]  # nothing turns
        flat = SectorODE(LINE, Potential(Profile.indicator(0.0, 50.0)), beta=0.0)
        assert _steps_per_piece(flat, -1.0) == [1]

    def test_the_floor_stays_where_a_coefficient_varies(self):
        # r^{d-1} in d >= 2, a linear V, a sampled a: the step is exact only
        # to fourth order there, so such a piece takes WELL_STEPS per length
        # of the stepped span; in d >= 2 the free gap and tail take one exact
        # step, and a dilated well takes the same steps
        for d in (2, 3):
            ode = SectorODE(ProblemSpec(d, "exterior_ball", "dirichlet", radius=1.0),
                            POT, beta=2.0)
            assert _steps_per_piece(ode, -1.0) == [1, WELL_STEPS]
        for profile in (Profile.tent(1.2, 1.9, 1.5), Profile.bump(1.2, 1.9, n=8)):
            ode = SectorODE(LINE, Potential(profile), beta=6.0)
            density = WELL_STEPS / (profile.hi - profile.lo)
            floor = np.ceil(np.diff(profile.xs) * density).astype(int).tolist()
            assert _steps_per_piece(ode, -1.0) == [1] + floor
            narrow = Profile(1e-3 * profile.xs, profile.ys)
            steps = _steps_per_piece(SectorODE(LINE, Potential(narrow), beta=6e6), -1e6)
            assert abs(sum(steps[1:]) - sum(floor)) <= len(floor)
        line_a = ProblemSpec(1, "exterior_ball", "dirichlet", radius=1.0, coefficient=A)
        assert _steps_per_piece(SectorODE(line_a), -1.0) == [WELL_STEPS]
        assert _steps_per_piece(SectorODE(line_a, WELL, beta=4.0), -1.0) == [WELL_STEPS]

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(("indicator", "tent", "bump")), st.floats(0.0, 2.0),
           st.floats(0.05, 2.0), st.floats(0.0, 1e4), st.floats(-100.0, 100.0))
    def test_every_piece_steps_and_no_step_turns_past_the_bound(self, shape, lo, width,
                                                                 beta, lam):
        pot = Potential(getattr(Profile, shape)(lo, lo + width))
        ode = SectorODE(LINE, pot, beta)
        r = ode.mesh(lam)
        assert min(_steps_per_piece(ode, lam)) >= 1
        # between cuts (lambda w - q) / p is linear on the line: the largest
        # wavenumber of a step is at one of its ends
        h = np.diff(r)
        for end in (r[:-1] + 1e-9 * h, r[1:] - 1e-9 * h):
            p, q, w = ode.coefficients(end)
            wave = np.sqrt(np.maximum(lam * w - q, 0.0) / p)
            assert np.max(wave * h) <= MAX_TURN * (1.0 + 1e-9)

    def test_samples_ulps_apart_make_one_cut(self):
        # a sample ulps from another, or from an end of the span, makes no cut
        jump = math.nextafter(1.5, 2.0)
        pot = Potential(Profile(np.array([1.2, 1.5, jump, 1.9]), np.array([0.5, 0.5, 1.0, 1.0])))
        assert SectorODE(BALL3, pot, beta=4.0).cuts.tolist() == [1.0, 1.2, 1.5, 1.9]
        above = math.nextafter(1.9, 2.0)  # a flattening just past V's last sample
        flat = CoefficientProfile(Profile(np.array([1.0, above]), np.array([1.0, 1.0])), above)
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0, coefficient=flat)
        assert SectorODE(prob, pot, beta=4.0).cuts.tolist() == [1.0, 1.2, 1.5, above]
        below = math.nextafter(1.2, 0.0)  # an obstacle just inside V's first sample
        assert SectorODE(ProblemSpec(3, "exterior_ball", "dirichlet", radius=below),
                         pot, beta=4.0).cuts.tolist() == [below, 1.5, 1.9]

    def test_only_a_decaying_solution_reads_past_its_end(self):
        ode = SectorODE(BALL3, POT, beta=2.0)
        reg = ode.integrate(-1.0, ode.regular_state())
        assert np.isfinite(reg(np.array([1.0, 2.0, 2.5]))).all()
        with pytest.raises(ValueError):
            reg(3.0)
        dec = ode.integrate(-1.0, ode.decay_state(-1.0, 2.5), inward=True, decays=True)
        r = np.array([3.0, 4.0])
        assert dec(r) == pytest.approx(np.exp(2.5 - r) * 2.5 / r, rel=1e-12)

    def test_failed_solve_is_unconverged(self):
        # at lambda = -1e300 the step exponents overflow: no state is finite
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0, coefficient=A)
        ode = SectorODE(prob)
        with pytest.raises(UnconvergedError) as err:
            ode.integrate(-1e300, ode.regular_state())
        assert err.value.details == {"segment": [1.0, 2.0], "lambda": -1e300}

    def test_a_mesh_past_the_step_budget_is_unconverged(self):
        # beta V = 2e12: a wavenumber of 1.4e6 needs millions of steps
        ode = SectorODE(BALL3, POT, beta=1e12)
        with pytest.raises(UnconvergedError) as err:
            ode.integrate(0.0, ode.regular_state())
        assert err.value.details["segment"] == [1.0, 2.5]
        assert err.value.details["steps"] > MAX_STEPS


ANGLE_PROBLEMS = (LINE, ProblemSpec(1, "half_line", "neumann"), BALL3,
                  ProblemSpec(1, "exterior_ball", "fkw", radius=1.0),
                  ProblemSpec(2, "exterior_ball", "dirichlet", radius=1.0),
                  ProblemSpec(3, "exterior_ball", "fkw", radius=1.0),
                  ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0, coefficient=A),
                  ProblemSpec(3, "exterior_ball", "dirichlet", radius=0.3))


class TestZeroEnergyAngle:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(ANGLE_PROBLEMS), st.sampled_from(("indicator", "tent", "bump")),
           st.floats(0.0, 1.5), st.floats(0.05, 2.0), st.floats(0.3, 3.0),
           st.floats(math.log(0.3), math.log(3e4)))
    def test_turn_mesh_angle_stays_well_inside_the_guard(self, prob, shape, offset,
                                                         width, height, log_beta):
        # a count reads sector 0 off the turn mesh farther than GUARD from a
        # crossing, so it must count as phase_mismatch there
        lo = prob.inner_radius + offset
        pot, beta = Potential(getattr(Profile, shape)(lo, lo + width, height)), math.exp(log_beta)
        angle = ZeroEnergyAngle(prob, pot, beta)
        # (they differed by 3.3e-4 at most on 400 random wells)
        turn, shot = angle.mismatch([0])[0], ds.phase_mismatch(prob.with_sector(0), pot, beta, 0.0)
        assert abs(turn - shot) < 0.1 * ds.GUARD

    def test_turn_mesh_takes_two_steps_where_one_is_not_exact(self):
        # a count checks a sector next to its threshold against half the
        # turn mesh's steps, which sees a piece's error only where there are
        # two steps to halve; the half-line tent at a small coupling turns by
        # less than MAX_TURN on each piece
        pot = Potential(Profile.tent(1.2, 1.9, 1.5))
        angle = ZeroEnergyAngle(LINE, pot, 0.5)
        assert np.diff(np.searchsorted(angle.mesh, angle.ode.cuts)).tolist() == [1, 2, 2]

    def test_sector_2_next_to_its_threshold_counts_on_the_side_of_its_root(self):
        # the d = 3 indicator on [1.5, 2.5]: sector 2's floored zero-energy
        # root is beta_2; the turn mesh alone puts it 1.7e-6 higher, so a
        # count that read sector 2 there missed its 5 states just above
        pot, beta2 = Potential(Profile.indicator(1.5, 2.5)), 3.7587696619121465
        sector2 = BALL3.with_sector(2)
        assert ds.phase_mismatch(sector2, pot, beta2 * (1 - 1e-7), 0.0) < 0.0
        assert ds.phase_mismatch(sector2, pot, beta2 * (1 + 1e-7), 0.0) > 0.0
        assert ds.ground_state(sector2, pot, beta2 * (1 + 1e-7)) == pytest.approx(
            -1.94e-7, rel=1e-2)
        assert ds.count_negative(BALL3, pot, beta2 * (1 - 1e-7)) == 4
        assert ds.count_negative(BALL3, pot, beta2 * (1 + 1e-7)) == 9

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("shape", ["indicator", "tent", "bump"])
    def test_every_sector_counts_on_the_side_of_its_own_threshold(self, d, shape):
        # sector l's threshold beta_l is the root of its own zero-energy
        # phase_mismatch: just above it ground_state finds a state in sector l
        # and the count rises by the sector's multiplicity, just below neither
        prob = ProblemSpec(d, "exterior_ball", "dirichlet", radius=1.0)
        pot = Potential(getattr(Profile, shape)(1.5, 2.5))
        for l in range(3):
            sector = prob.with_sector(l)
            beta = _threshold(sector, pot)
            below, above = beta * (1 - 1e-7), beta * (1 + 1e-7)
            assert ds.ground_state(sector, pot, below) is None
            assert ds.ground_state(sector, pot, above) is not None
            assert ds.count_negative(prob, pot, above) == \
                ds.count_negative(prob, pot, below) + prob.sector_multiplicity(l)


def _threshold(problem, potential):
    """Root in beta of the zero-energy ``phase_mismatch`` of the problem's
    sector, which rises with beta."""
    from scipy.optimize import brentq

    def mismatch(beta):
        return ds.phase_mismatch(problem, potential, beta, 0.0)

    lo, hi = 0.0, 1.0
    while mismatch(hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
    return brentq(mismatch, lo, hi, xtol=1e-14)
