import math

import numpy as np
import pytest

from betacrit.errors import UnconvergedError
from betacrit.model import CoefficientProfile, Potential, ProblemSpec, Profile
from betacrit.sector_ode import SectorODE, closure_radius

BALL3 = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0)
POT = Potential(Profile.indicator(1.5, 2.5), 2.0)
A = CoefficientProfile(Profile(np.array([1.0, 2.0]), np.array([2.0, 1.0])), 2.0)


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

    def test_decay_ratio_is_the_free_decaying_profile(self):
        # d = 3, l = 0: u = e^{-kr}/r; d = 1: u = e^{-kr}
        k, r0, r = 0.7, 2.5, np.array([2.5, 3.0, 9.0])
        ratio = SectorODE(BALL3).decay_ratio(-k * k, r, r0)
        assert ratio == pytest.approx(np.exp(-k * (r - r0)) * r0 / r, rel=1e-13)
        line = SectorODE(ProblemSpec(1, "half_line", "dirichlet"))
        assert line.decay_ratio(-k * k, r, r0) == pytest.approx(np.exp(-k * (r - r0)),
                                                                rel=1e-13)

    def test_decay_ratio_at_zero_energy_is_the_bounded_free_solution(self):
        # r^{-(l+d-2)} where that decays, a constant otherwise
        r0, r = 2.5, np.array([2.5, 3.0, 9.0])
        d3 = SectorODE(BALL3)
        assert d3.decay_ratio(0.0, r, r0) == pytest.approx(r0 / r, rel=1e-15)
        d3_l2 = SectorODE(BALL3.with_sector(2))
        assert d3_l2.decay_ratio(0.0, r, r0) == pytest.approx((r0 / r) ** 3, rel=1e-15)
        d2 = SectorODE(ProblemSpec(2, "exterior_ball", "neumann", radius=1.0))
        assert np.all(d2.decay_ratio(0.0, r, r0) == 1.0)
        line = SectorODE(ProblemSpec(1, "half_line", "dirichlet"))
        assert np.all(line.decay_ratio(0.0, r, r0) == 1.0)
        # and it is the small-k limit of the decaying branch
        for ode in (d3, d3_l2):
            assert ode.decay_ratio(-1e-14, r, r0) == pytest.approx(
                ode.decay_ratio(0.0, r, r0), rel=1e-6)

    def test_closure_radius_is_where_v_and_a_stop_varying(self):
        assert closure_radius(BALL3, POT) == 2.5
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0,
                           coefficient=CoefficientProfile(A.profile, 3.0))
        assert closure_radius(prob, POT) == 3.0

    def test_constant_tail_at_zero_energy(self):
        ode = SectorODE(ProblemSpec(2, "exterior_ball", "neumann", radius=1.0))
        assert ode.decay_state(0.0, 4.0) == (1.0, 0.0)

    def test_cuts_at_support_edges_and_flat_radius(self):
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0, coefficient=A)
        assert SectorODE(prob, POT).segment_points(1.0, 10.0) == [1.0, 1.5, 2.0, 2.5, 10.0]
        assert SectorODE(prob).segment_points(1.0, 10.0) == [1.0, 2.0, 10.0]

    def test_cuts_at_every_sample_of_v_and_a(self):
        a = CoefficientProfile(Profile(np.array([1.0, 1.4, 1.8]),
                                       np.array([2.0, 1.2, 1.5])), 2.0)
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0, coefficient=a)
        tent = Potential(Profile.tent(1.5, 2.5))
        assert SectorODE(prob, tent).segment_points(1.0, 10.0) == \
            [1.0, 1.4, 1.5, 1.8, 2.0, 2.5, 10.0]
        bump = Potential(Profile.bump(1.2, 1.9))
        assert SectorODE(BALL3, bump).segment_points(1.0, 3.0) == \
            [1.0, *bump.profile.xs.tolist(), 3.0]

    def test_integrates_backwards_through_the_pieces(self):
        # free d = 3 sector 0: the decaying solution e^{-kr}/r, integrated inward
        k = 1.0
        ode = SectorODE(BALL3, POT, beta=0.0)
        sol = ode.integrate(-k * k, ode.decay_state(-1.0, 6.0), 6.0, 1.0,
                            rtol=1e-11, atol=1e-14)
        assert ode.segment_points(1.0, 6.0) == [1.0, 1.5, 2.5, 6.0]
        assert sol.span == (1.0, 6.0)
        assert sol.end[0] == pytest.approx(math.exp(5.0 * k) * 6.0, rel=1e-8)
        r = np.array([1.0, 1.5, 2.0, 2.5, 4.0, 6.0])
        assert sol(r) == pytest.approx(np.exp(k * (6.0 - r)) * 6.0 / r, rel=1e-8)

    def test_rescaled_state_keeps_the_ratio(self):
        ode = SectorODE(BALL3, POT, beta=0.0)
        plain = ode.integrate(-1.0, ode.decay_state(-1.0, 6.0), 6.0, 1.0, rtol=1e-11,
                              atol=1e-14)
        scaled = ode.integrate(-1.0, ode.decay_state(-1.0, 6.0), 6.0, 1.0, rtol=1e-11,
                               atol=1e-14, rescale=True)
        assert scaled.end == pytest.approx(plain.end, rel=1e-8)
        assert scaled.peak == pytest.approx(plain.peak, rel=1e-8)
        r = np.linspace(1.0, 6.0, 11)
        assert scaled.state(r) == pytest.approx(plain.state(r), rel=1e-8)
        # every piece after the first restarts at O(1); the plain ones grow
        starts = [max(abs(sol.y[:, 0])) for _, _, sol, _ in scaled._pieces[1:]]
        assert starts == pytest.approx([1.0, 1.0])
        assert all(scale > 10.0 for *_, scale in scaled._pieces[1:])
        assert all(max(abs(sol.y[:, 0])) > 10.0 for _, _, sol, _ in plain._pieces[1:])

    def test_rescaling_carries_an_inward_solve_past_float_overflow(self):
        # at k = 150 the state grows by e^{k (6 - 1)} = e^750, past the float
        # range; no piece alone grows by more than e^525 (the total scale, and
        # so ``end``, still overflow)
        lam = -150.0 ** 2
        ode = SectorODE(BALL3, POT, beta=0.0)
        y = ode.decay_state(lam, 6.0)
        with pytest.raises(UnconvergedError):
            ode.integrate(lam, y, 6.0, 1.0, rtol=1e-10, atol=1e-14)
        with np.errstate(over="ignore"):
            sol = ode.integrate(lam, y, 6.0, 1.0, rtol=1e-10, atol=1e-14, rescale=True)
        assert [max(abs(s.y[:, 0])) for _, _, s, _ in sol._pieces[1:]] == \
            pytest.approx([1.0, 1.0])
        # the ratio of the state across the last piece is the free one
        last = sol._pieces[-1][2]
        assert last.y[0, -1] / last.y[0, 0] == pytest.approx(1.5 * math.exp(75.0), rel=1e-7)

    def test_samples_ulps_apart_make_one_cut(self):
        jump = math.nextafter(1.5, 2.0)
        pot = Potential(Profile(np.array([1.2, 1.5, jump, 1.9]), np.array([0.5, 0.5, 1.0, 1.0])))
        ode = SectorODE(BALL3, pot, beta=4.0)
        assert ode.segment_points(1.0, 3.0) == [1.0, 1.2, 1.5, 1.9, 3.0]
        below = math.nextafter(1.9, 0.0)
        assert ode.segment_points(1.0, below) == [1.0, 1.2, 1.5, below]
        above = math.nextafter(1.2, 2.0)
        assert ode.segment_points(above, 3.0) == [above, 1.5, 1.9, 3.0]

    def test_only_a_decaying_solution_reads_past_its_end(self):
        ode = SectorODE(BALL3, POT, beta=2.0)
        reg = ode.integrate(-1.0, ode.regular_state(), 1.0, 2.5, rtol=1e-10, atol=1e-13)
        assert np.isfinite(reg(np.array([1.0, 2.0, 2.5]))).all()
        with pytest.raises(ValueError):
            reg(3.0)
        dec = ode.integrate(-1.0, ode.decay_state(-1.0, 2.5), 2.5, 1.0, decays=True,
                            rtol=1e-10, atol=1e-13)
        r = np.array([3.0, 4.0])
        assert dec(r) == pytest.approx(np.exp(2.5 - r) * 2.5 / r, rel=1e-12)

    def test_failed_solve_is_unconverged(self):
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0, coefficient=A)
        ode = SectorODE(prob)
        with pytest.raises(UnconvergedError) as err:
            ode.integrate(-1e6, ode.regular_state(), 1.0, 2.0, rtol=1e-11, atol=1e-14)
        assert err.value.details["segment"] == [1.0, 2.0]
        assert err.value.details["solver"]
