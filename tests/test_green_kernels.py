import math

import numpy as np
import pytest

from betacrit.errors import KernelLimitError, ValidationError
from betacrit.green_kernels import green_kernel
from betacrit.model import (CoefficientProfile, ProblemSpec, Profile,
                            SPHERE_AREA)

import oracles as oc

RNG = np.random.default_rng(20240817)
HALF_D = ProblemSpec(1, "half_line", "dirichlet")
HALF_N = ProblemSpec(1, "half_line", "neumann")


class TestHalfLine:
    def test_dirichlet_closed_form_value(self):
        val = green_kernel(HALF_D, -1.0, 1.0, 2.0)
        expected = (math.exp(-1.0) - math.exp(-3.0)) / 2.0
        assert val == pytest.approx(expected, rel=1e-14)

    def test_dirichlet_against_bvp_solve(self):
        x = np.array([0.5, 1.0, 1.7, 2.4])
        ref = oc.bvp_green_halfline("dirichlet", -1.0, 2.0, x)
        val = green_kernel(HALF_D, -1.0, x, 2.0)
        assert val == pytest.approx(ref, rel=2e-4)

    def test_dirichlet_vanishes_at_the_boundary(self):
        assert green_kernel(HALF_D, -1.0, 1e-14, 2.0) == pytest.approx(0.0, abs=1e-13)

    def test_neumann_corner_value(self):
        assert green_kernel(HALF_N, -1.0, 1e-300, 1e-300) == pytest.approx(1.0)

    def test_neumann_against_bvp_solve(self):
        x = np.array([0.3, 1.1, 2.2])
        ref = oc.bvp_green_halfline("neumann", -1.0, 1.5, x)
        val = green_kernel(HALF_N, -1.0, x, 1.5)
        assert val == pytest.approx(ref, rel=2e-4)

    def test_positive_lambda_rejected(self):
        with pytest.raises(ValidationError):
            green_kernel(HALF_D, 0.5, 1.0, 2.0)

    def test_limit_kernel_is_min(self):
        assert green_kernel(HALF_D, 0.0, 1.0, 2.0) == 1.0
        x = RNG.uniform(0.1, 5.0, 20)
        assert green_kernel(HALF_D, 0.0, x, x) == pytest.approx(x)
        assert green_kernel(HALF_D, 0.0, 1e-15, 3.0) == pytest.approx(0.0, abs=1e-14)

    def test_limit_kernel_neumann_divergent(self):
        with pytest.raises(KernelLimitError):
            green_kernel(HALF_N, 0.0, 1.0, 2.0)

    def test_limit_reached_from_below(self):
        val = green_kernel(HALF_D, -1e-8, 1.0, 2.0)
        assert val == pytest.approx(1.0, abs=1e-3)


class TestRadial:
    def test_d2_sector0_limit_value(self):
        prob = ProblemSpec(2, "exterior_ball", "dirichlet", radius=1.0)
        assert green_kernel(prob, 0.0, 2.0, 3.0) == pytest.approx(
            math.log(2.0) / (2.0 * math.pi), rel=1e-13)

    def test_d3_sector0_limit_formula(self):
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0)
        r, rho = 2.2, 3.7
        expected = (min(r, rho) - 1.0) / (r * rho) / (4.0 * math.pi)
        assert green_kernel(prob, 0.0, r, rho) == pytest.approx(expected, rel=1e-13)

    def test_dirichlet_vanishes_at_obstacle(self):
        for d in (1, 2, 3):
            prob = ProblemSpec(d, "exterior_ball", "dirichlet", radius=1.0)
            for lam in (0.0, -0.5):
                assert green_kernel(prob, lam, 1.0, 2.5) == pytest.approx(0.0, abs=1e-13)

    def test_neumann_low_dimension_limit_divergent(self):
        for d in (1, 2):
            prob = ProblemSpec(d, "exterior_ball", "neumann", radius=1.0)
            with pytest.raises(KernelLimitError):
                green_kernel(prob, 0.0, 2.0, 3.0)

    def test_positive_energy_rejected(self):
        prob = ProblemSpec(2, "exterior_ball", "dirichlet", radius=1.0)
        with pytest.raises(ValidationError):
            green_kernel(prob, 0.5, 2.0, 3.0)

    def test_neumann_d3_limit_is_inverse_max(self):
        prob = ProblemSpec(3, "exterior_ball", "neumann", radius=1.0)
        val = green_kernel(prob, 0.0, 2.0, 3.0)
        assert val == pytest.approx(1.0 / 3.0 / (4.0 * math.pi), rel=1e-13)

    @pytest.mark.parametrize("d,l,bc", [(2, 0, "dirichlet"), (2, 1, "neumann"),
                                        (3, 0, "neumann"), (3, 2, "dirichlet"),
                                        (1, 0, "dirichlet"), (1, 1, "neumann")])
    def test_against_radial_bvp_oracle(self, d, l, bc):
        prob = ProblemSpec(d, "exterior_ball", bc, radius=1.0, sector=l)
        lam = -0.7
        xi = 2.0
        r = np.array([1.4, 2.6, 3.5])
        ref = oc.bvp_green_radial(d, l, bc, lam, 1.0, xi, r)
        val = green_kernel(prob, lam, r, xi) * SPHERE_AREA[d]
        assert val == pytest.approx(ref, rel=5e-4)

    def test_variable_coefficient_against_bvp_oracle(self):
        a = CoefficientProfile(Profile(np.array([1.0, 1.5, 2.0]),
                                       np.array([2.0, 1.4, 1.0])), 2.0)
        prob = ProblemSpec(2, "exterior_ball", "neumann", radius=1.0,
                           coefficient=a)
        lam = -0.9
        r = np.array([1.3, 2.1, 3.0])
        ref = oc.bvp_green_radial(2, 0, "neumann", lam, 1.0, 1.8, r, coefficient=a)
        val = green_kernel(prob, lam, r, 1.8) * SPHERE_AREA[2]
        assert val == pytest.approx(ref, rel=5e-4)

    def test_variable_coefficient_limit_kernel(self):
        a = CoefficientProfile(Profile(np.array([1.0, 2.0]),
                                       np.array([1.5, 1.0])), 2.0)
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0,
                           coefficient=a)
        near = green_kernel(prob, -1e-9, 2.0, 3.0)
        limit = green_kernel(prob, 0.0, 2.0, 3.0)
        assert near == pytest.approx(limit, rel=1e-3)

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_variable_coefficient_on_the_half_line(self, bc):
        a = CoefficientProfile(Profile(np.array([0.0, 0.5, 1.0]),
                                       np.array([2.0, 1.4, 1.0])), 1.0)
        prob = ProblemSpec(1, "half_line", bc, coefficient=a)
        r = np.array([0.3, 0.9, 2.0])
        ref = oc.bvp_green_radial(1, 0, bc, -0.9, 0.0, 1.2, r, coefficient=a)
        assert green_kernel(prob, -0.9, r, 1.2) == pytest.approx(ref, rel=5e-4)


def _constant_coefficient_cases():
    yield HALF_D
    yield HALF_N
    for d in (1, 2, 3):
        for bc in ("dirichlet", "neumann", "fkw"):
            for l in range(2 if d == 1 else 4):
                yield ProblemSpec(d, "exterior_ball", bc, radius=1.0, sector=l)


class TestConstantCoefficientPair:
    @pytest.mark.parametrize("prob", list(_constant_coefficient_cases()),
                             ids=lambda p: f"{p.geometry}-d{p.dimension}-"
                                           f"{p.boundary_condition}-{p.sector}")
    def test_matches_the_closed_form(self, prob):
        # the sector ODE's span is empty where a == 1: the pair is the free
        # solutions matched to the boundary condition at r0
        x = prob.inner_radius + np.linspace(0.0, 3.0, 31)
        for lam in (0.0, -1e-8, -1.0, -1e4, -1e6):
            try:
                g = green_kernel(prob, lam, x[:, None], x[None, :])
            except KernelLimitError:
                assert lam == 0.0 and prob.effective_bc() == "neumann"
                continue
            ref = oc.constant_coefficient_green(prob, lam, x[:, None], x[None, :])
            assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref)), lam

    @pytest.mark.parametrize("coefficient", [None, CoefficientProfile(
        Profile(np.array([1.0, 2.0]), np.array([0.5, 1.0])), 2.0)])
    def test_radii_inside_the_obstacle_are_rejected(self, coefficient):
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0,
                           coefficient=coefficient)
        with pytest.raises(ValidationError):
            green_kernel(prob, -1.0, np.array([0.5, 1.5]), 2.0)


class TestKernelProperties:
    def problems(self):
        yield ProblemSpec(1, "half_line", "dirichlet"), (0.2, 6.0)
        yield ProblemSpec(1, "half_line", "neumann"), (0.2, 6.0)
        yield ProblemSpec(2, "exterior_ball", "dirichlet", radius=1.0), (1.1, 6.0)
        yield ProblemSpec(3, "exterior_ball", "neumann", radius=1.0), (1.1, 6.0)
        yield ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0, sector=2), (1.1, 6.0)

    def test_symmetry_on_random_pairs(self):
        for prob, (lo, hi) in self.problems():
            x = RNG.uniform(lo, hi, 40)
            y = RNG.uniform(lo, hi, 40)
            assert green_kernel(prob, -0.6, x, y) == pytest.approx(
                green_kernel(prob, -0.6, y, x), rel=1e-12)

    def test_monotone_in_lambda(self):
        for prob, (lo, hi) in self.problems():
            if prob.sector > 0:
                continue
            x = RNG.uniform(lo, hi, 25)
            y = RNG.uniform(lo, hi, 25)
            g1 = green_kernel(prob, -2.0, x, y)
            g2 = green_kernel(prob, -0.5, x, y)
            assert np.all(g2 >= g1 - 1e-13)
            assert np.all(g1 >= -1e-13)

    def test_limit_consistency_order_sqrt_lambda(self):
        prob = ProblemSpec(1, "half_line", "dirichlet")
        x = RNG.uniform(0.3, 3.0, 30)
        y = RNG.uniform(0.3, 3.0, 30)
        lim = green_kernel(HALF_D, 0.0, x, y)
        for lam in (-1e-4, -1e-6):
            gap = np.max(np.abs(green_kernel(HALF_D, lam, x, y) - lim))
            assert gap < 10.0 * math.sqrt(-lam)

    def test_defining_equation_residual_shrinks(self):
        # apply the operator with central differences to a kernel column
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0)
        lam = -0.8
        xi = 2.0

        def residual(h):
            r = np.arange(2.6, 3.4, h)
            g = green_kernel(prob, lam, r, xi)
            lap = (g[2:] - 2 * g[1:-1] + g[:-2]) / h ** 2
            grad = (g[2:] - g[:-2]) / (2 * h)
            rr = r[1:-1]
            res = -(lap + 2.0 / rr * grad) - lam * g[1:-1]
            return float(np.max(np.abs(res)))

        r1, r2 = residual(1e-3), residual(5e-4)
        assert r2 < 0.5 * r1  # second-order stencil on an exact solution

