import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import betacrit
from betacrit.direct_spectrum import beta_critical_direct
from betacrit.errors import KernelLimitError
from betacrit.green_kernels import solution_pair
from betacrit.model import (CenterPath, CoefficientProfile, Potential,
                            ProblemSpec, Profile, ScaledPotentialFamily,
                            ValidationError, h_factor, validate)
from betacrit.sector_ode import SectorODE

import oracles as oc


def indicator_family(d, c=1.0, delta=1.0):
    return ScaledPotentialFamily(Profile.indicator(0.0, 1.0),
                                 CenterPath(c, delta), d)


class TestHeightScaling:
    def test_d1_is_linear(self):
        assert h_factor(1, 10) == 10.0

    def test_d3_is_quadratic(self):
        assert h_factor(3, 10) == 100.0

    def test_d2_carries_log(self):
        assert h_factor(2, 10) == pytest.approx(100.0 / math.log(10.0), rel=1e-14)

    def test_d2_needs_n_above_one(self):
        with pytest.raises(ValidationError):
            h_factor(2, 1.0)

    def test_strictly_increasing(self):
        grid = np.geomspace(2.0, 1e6, 60)
        for d in (1, 2, 3):
            vals = [h_factor(d, n) for n in grid]
            assert all(b > a for a, b in zip(vals, vals[1:]))


class TestRealizeScaled:
    def test_indicator_well_touching_the_boundary(self):
        pot = indicator_family(1).realize(4.0)
        lo, hi = pot.support
        assert lo == pytest.approx(0.0, abs=1e-14)
        assert hi == pytest.approx(0.5, rel=1e-14)
        x = np.array([0.1, 0.25, 0.49])
        assert pot(x) == pytest.approx([4.0, 4.0, 4.0])
        assert pot(np.array([0.51, 0.7])) == pytest.approx([0.0, 0.0])

    def test_amplitude_factor_d3(self):
        fam = indicator_family(3)
        pot = fam.realize(2.0)
        assert pot.max_value() == pytest.approx(4.0)

    def test_identity_scaling(self):
        fam = ScaledPotentialFamily(Profile.indicator(0.0, 1.0),
                                    CenterPath(2.0, 0.0), 1)
        pot = fam.realize(1.0)
        assert pot.support == pytest.approx((1.0, 3.0))
        assert pot(np.array([1.5, 2.0, 2.9])) == pytest.approx([1.0, 1.0, 1.0])

    def test_leaking_support_is_rejected(self):
        fam = indicator_family(1, c=0.5, delta=1.0)  # x(n) = 0.5/n < 1/n
        with pytest.raises(ValidationError):
            fam.realize(8.0)

    def test_support_measure_matches_scaling(self):
        # V_n lives on a ball of radius 1/n (an interval of length 2/n for
        # d = 1), so the measure of its support scales like n^-d
        for d in (1, 2, 3):
            fam = indicator_family(d, c=2.0, delta=0.0)
            for n in (2.0, 5.0):
                pot = fam.realize(n)
                if d == 1:  # an even well about the center
                    lo, hi = pot.support
                    assert hi - lo == pytest.approx(2.0 / n, rel=1e-12)
                else:
                    assert pot.profile.hi == pytest.approx(1.0 / n, rel=1e-12)


class TestValidate:
    def test_half_line_ok(self):
        prob = ProblemSpec(1, "half_line", "dirichlet")
        assert validate(prob, Potential(Profile.indicator(1.0, 2.0))) == []

    def test_support_outside_exterior_ball(self):
        prob = ProblemSpec(2, "exterior_ball", "dirichlet", radius=1.0)
        diags = validate(prob, Potential(Profile.indicator(0.5, 2.0)))
        assert any("support outside domain" in d for d in diags)

    def test_support_must_reach_into_the_domain(self):
        # both edges are judged to within 1e-12: a well on the boundary
        # itself holds no mass in the domain
        prob = ProblemSpec(2, "exterior_ball", "dirichlet", radius=1.0)
        assert validate(prob, Potential(Profile.indicator(1.0 - 1e-13, 2.0))) == []
        for lo, hi in ((0.5, 1.0), (1.0 - 1e-13, 1.0 + 1e-13)):
            assert validate(prob, Potential(Profile.indicator(lo, hi))) == [
                "support outside domain"]

    def test_negative_sample_flagged(self):
        prob = ProblemSpec(1, "half_line", "dirichlet")
        bad = Potential(Profile(np.array([1.0, 1.5, 2.0]),
                                np.array([1.0, -0.2, 1.0])))
        diags = validate(prob, bad)
        assert any("not nonnegative" in d for d in diags)

    def test_fkw_requires_exterior_ball(self):
        with pytest.raises(ValidationError):
            ProblemSpec(1, "half_line", "fkw")

    def test_touching_support_is_inside_the_closure(self):
        prob = ProblemSpec(1, "half_line", "dirichlet")
        pot = indicator_family(1).realize(16.0)  # support [0, 1/8]
        assert validate(prob, pot) == []


class TestProfiles:
    def test_interpolation_and_zero_extension(self):
        p = Profile(np.array([1.0, 2.0, 3.0]), np.array([0.0, 2.0, 0.0]))
        assert p(1.5) == pytest.approx(1.0)
        assert p(0.5) == 0.0 and p(3.5) == 0.0

    def test_integral_matches_trapezoid(self):
        p = Profile.bump(1.0, 3.0, 2.0)
        x = np.linspace(1.0, 3.0, 20001)
        assert oc.integral_to(p, 3.0) == pytest.approx(np.trapezoid(p(x), x), rel=1e-6)

    def test_cell_average_exact_for_indicator_edges(self):
        pot = Potential(Profile.indicator(1.0, 2.0))
        # a cell straddling the edge carries the exact covered fraction
        assert oc.cell_average(pot, 0.9995, 1e-3) == pytest.approx(0.0, abs=1e-12)
        assert oc.cell_average(pot, 1.0, 1e-3) == pytest.approx(0.5, rel=1e-12)
        assert oc.cell_average(pot, 1.5, 1e-3) == pytest.approx(1.0, rel=1e-12)

    def test_coefficient_profile_positive_and_flat(self):
        a = CoefficientProfile(Profile(np.array([1.0, 2.0]), np.array([2.0, 1.0])), 2.0)
        assert a(1.0) == pytest.approx(2.0)
        assert a(5.0) == 1.0
        with pytest.raises(ValidationError):
            CoefficientProfile(Profile(np.array([1.0, 2.0]), np.array([0.0, 1.0])), 2.0)


class TestProblemSpec:
    def test_radius_must_be_positive(self):
        with pytest.raises(ValidationError):
            ProblemSpec(2, "exterior_ball", "dirichlet", radius=0.0)

    def test_sector_only_for_exterior_ball(self):
        with pytest.raises(ValidationError):
            ProblemSpec(1, "half_line", "dirichlet", sector=1)

    @pytest.mark.parametrize("d", [2, 3])
    def test_half_line_is_one_dimensional(self, d):
        with pytest.raises(ValidationError):
            ProblemSpec(d, "half_line", "dirichlet")

    def test_fkw_sector_conditions(self):
        prob = ProblemSpec(3, "exterior_ball", "fkw", radius=1.0)
        assert prob.effective_bc() == "neumann"
        assert prob.with_sector(1).effective_bc() == "dirichlet"
        assert prob.with_sector(5).effective_bc() == "dirichlet"

    def test_types_are_immutable(self):
        prob = ProblemSpec(1, "half_line", "dirichlet")
        with pytest.raises(AttributeError):
            prob.dimension = 2
        pot = Potential(Profile.indicator(1.0, 2.0))
        with pytest.raises(ValueError):
            pot.profile.ys[0] = -1.0


def _sector_problems():
    """Every valid (d, geometry, bc, sector) with d 1-3 and sectors 0-3."""
    for d in (1, 2, 3):
        for geometry in ("half_line", "exterior_ball"):
            for bc in ("dirichlet", "neumann", "fkw"):
                for sector in range(4):
                    try:
                        yield ProblemSpec(d, geometry, bc, sector=sector)
                    except ValidationError:
                        continue


class TestLimitDiverges:
    """``limit_diverges`` is the dichotomy: the limit kernel diverges exactly
    in a Neumann sector whose bounded zero-energy solution is constant."""

    def test_the_rule_over_every_sector(self):
        problems = list(_sector_problems())
        assert len(problems) == 32
        diverging = [(p.dimension, p.geometry, p.boundary_condition, p.sector)
                     for p in problems if p.limit_diverges()]
        assert diverging == [(1, "half_line", "neumann", 0),
                             (1, "exterior_ball", "neumann", 0),
                             (1, "exterior_ball", "neumann", 1),
                             (1, "exterior_ball", "fkw", 0),
                             (2, "exterior_ball", "neumann", 0),
                             (2, "exterior_ball", "fkw", 0)]

    def test_it_is_where_the_limit_kernel_raises(self):
        for problem in _sector_problems():
            try:
                solution_pair(problem, 0.0)
                raised = False
            except KernelLimitError:
                raised = True
            ode = SectorODE(problem)
            no_flux = ode.bc == "neumann" and ode.decay_state(0.0, 2.0)[1] == 0.0
            assert problem.limit_diverges() == raised == no_flux, problem

    def test_it_is_where_the_direct_threshold_is_zero(self):
        for problem in _sector_problems():
            if problem.sector == 0:
                pot = Potential(Profile.indicator(problem.inner_radius + 0.5,
                                                  problem.inner_radius + 1.5))
                zero = beta_critical_direct(problem, pot) == 0.0
                assert problem.limit_diverges() == zero, problem


class TestAdmissibility:
    def test_margin_improves_with_n_for_slow_paths(self):
        fam = indicator_family(1, c=0.5, delta=0.5)
        # x(n) = 0.5/sqrt(n) vs support radius 1/n: admissible from n = 4 on
        assert not fam.admissible(2.0)
        assert fam.admissible(4.0)
        assert fam.admissible(16.0)


def test_every_exported_name_resolves():
    for name in betacrit.__all__:
        assert getattr(betacrit, name, None) is not None, name


@st.composite
def _profile_and_point(draw):
    """Samples on [-10, 10] and a point at a node, next to one, between two,
    or outside the sampled range."""
    xs = sorted(set(draw(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=8))))
    if len(xs) < 2:
        xs = [xs[0], xs[0] + 1.0]
    ys = draw(st.lists(st.floats(0.0, 10.0), min_size=len(xs), max_size=len(xs)))
    node = draw(st.sampled_from(xs))
    x = draw(st.one_of(
        st.just(node),
        st.just(math.nextafter(node, -math.inf)),
        st.just(math.nextafter(node, math.inf)),
        st.floats(xs[0] - 2.0, xs[-1] + 2.0)))
    try:
        return Profile(np.array(xs), np.array(ys)), x
    except ValidationError:  # only a slope past the float range is turned away
        with np.errstate(over="ignore"):
            assert np.isinf(np.diff(ys) / np.diff(xs)).any()
        assume(False)


def test_profile_with_a_slope_past_the_float_range_is_rejected():
    # np.interp's slope 1 / 2.2e-311 overflows: it read inf at 5e-324 and at
    # 1e-311 (the profile is about 2.2e-13 and 0.45 there), and the potential NaN
    with pytest.raises(ValidationError, match="slopes"):
        Profile(np.array([0.0, 2.22507386e-311, 1.0]), np.array([0.0, 1.0, 0.0]))
    narrow = Profile(np.array([0.0, 1e-300, 1.0]), np.array([0.0, 1.0, 0.0]))
    assert float(narrow(5e-301)) == pytest.approx(0.5, rel=1e-15)


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


class TestScalarEvaluation:
    """A float takes the same numpy evaluation as an array, bit for bit, and
    comes back a float."""

    @settings(max_examples=400, deadline=None)
    @given(_profile_and_point(), st.floats(0.0, 5.0))
    def test_profile_and_potential_match_np_interp_bit_for_bit(self, sample, amp):
        profile, x = sample
        assert _bits(profile(x)) == _bits(np.interp(np.array([x]), profile.xs, profile.ys,
                                                    left=0.0, right=0.0)[0])
        potential = Potential(profile, amp)
        assert _bits(potential(x)) == _bits(potential(np.array([x]))[0])

    @settings(max_examples=400, deadline=None)
    @given(_profile_and_point(), st.floats(0.0, 3.0))
    def test_coefficient_matches_its_array_form_bit_for_bit(self, sample, extra):
        profile, r = sample
        positive = Profile(profile.xs, profile.ys + 0.5)
        coefficient = CoefficientProfile(positive, positive.hi + extra)
        for x in (r, coefficient.r_flat, math.nextafter(coefficient.r_flat, 0.0)):
            assert isinstance(coefficient(x), float)
            assert _bits(coefficient(x)) == _bits(coefficient(np.array([x]))[0])
