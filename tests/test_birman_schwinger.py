import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betacrit import birman_schwinger as bs
from betacrit.errors import KernelLimitError, ValidationError
from betacrit.green_kernels import green_kernel
from betacrit.model import CoefficientProfile, Potential, ProblemSpec, Profile

import oracles as oc

HALF_LINE_D = ProblemSpec(1, "half_line", "dirichlet")
HALF_LINE_N = ProblemSpec(1, "half_line", "neumann")
WELL = Potential(Profile.indicator(1.0, 2.0))
BETA_CR_WELL = oc.square_well_beta_cr(1.0, 2.0)  # k tan k = 1 threshold


class TestPrincipalEigenvalue:
    def test_scalar(self):
        assert bs.principal_eigenvalue(np.array([[3.7]]), 1e-12)[0] == pytest.approx(3.7)

    def test_closed_form_two_by_two(self):
        assert bs.principal_eigenvalue(np.array([[2.0, 1.0], [1.0, 2.0]]),
                                       1e-12)[0] == pytest.approx(3.0)

    def test_zero_matrix(self):
        assert bs.principal_eigenvalue(np.zeros((5, 5)), 1e-12)[0] == 0.0

    @pytest.mark.parametrize("size", [2.0 ** -990, 2.0 ** 530])
    def test_scales_exactly_without_warnings(self, size):
        # near 1e160 the squared norms of the iterates leave the float range
        a = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        val, res = bs.principal_eigenvalue(a, 1e-12)
        assert val == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-12)
        with np.errstate(all="raise"):
            assert bs.principal_eigenvalue(size * a, 1e-12) == (size * val, size * res)

    def test_degenerate_top_handled_by_fallback(self):
        # the all-ones start vector is orthogonal to both top eigenvectors
        a = np.diag([2.0, -2.0, 0.5])
        val = bs.principal_eigenvalue(a, 1e-10)[0]
        assert val == pytest.approx(2.0, rel=1e-8)

    def test_nearly_degenerate_top_is_solved_exactly(self):
        # six top eigenvalues within 5e-9 of each other stall power iteration
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        spectrum = np.concatenate([1.0 - 1e-9 * np.arange(6),
                                   rng.uniform(0.1, 0.5, 34)])
        a = (q * spectrum) @ q.T
        a = 0.5 * (a + a.T)
        val, res = bs.principal_eigenvalue(a, 1e-10)
        assert val == pytest.approx(1.0, rel=1e-12)
        assert res <= 1e-10 * val

    def test_deep_energy_exterior_well(self):
        # the top two eigenvalues agree to 9e-10 relative at lambda = -1e4
        prob = ProblemSpec(1, "exterior_ball", "dirichlet", radius=1.0)
        mat = bs.assemble(prob, WELL, -1e4, m=21)
        val, res = bs.principal_eigenvalue(mat, 1e-10)
        assert val == pytest.approx(float(np.linalg.eigvalsh(mat.entries)[-1]),
                                    rel=1e-12)
        assert res <= 1e-10 * val

    def test_residual_meets_the_tolerance(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        val, res = bs.principal_eigenvalue(a, 1e-12)
        assert res <= 1e-12 * val

    def test_agrees_with_dense_solver(self):
        rng = np.random.default_rng(7)
        b = rng.standard_normal((40, 40))
        a = b + b.T
        assert bs.principal_eigenvalue(a, 1e-11)[0] == pytest.approx(
            float(np.linalg.eigvalsh(a)[-1]), rel=1e-9)


class TestAssemble:
    def test_zero_potential_gives_zero_matrix(self):
        mat = bs.assemble(HALF_LINE_D, Potential(Profile.indicator(1.0, 2.0), 0.0),
                          -1.0, m=32)
        assert np.all(mat.entries == 0.0)

    def test_single_node_smoke(self):
        c = 2.0
        pot = Potential(Profile.indicator(1.0, 1.01), c)
        mat = bs.assemble(HALF_LINE_D, pot, -1.0, m=1)
        assert mat.size == 1
        g = (math.exp(0.0) - math.exp(-2.0 * 1.005)) / 2.0
        assert mat.entries[0, 0] == pytest.approx(c * 0.01 * g, rel=1e-3)

    def test_square_well_limit_eigenvalue(self):
        mat = bs.assemble(HALF_LINE_D, WELL, 0.0, m=200)
        mu = bs.principal_eigenvalue(mat, 1e-10)[0]
        assert mu == pytest.approx(1.0 / BETA_CR_WELL, rel=1e-3)

    def test_entries_nonnegative_and_symmetric(self):
        for prob in (HALF_LINE_D, HALF_LINE_N,
                     ProblemSpec(3, "exterior_ball", "neumann", radius=1.0)):
            pot = WELL if prob.geometry == "half_line" else \
                Potential(Profile.indicator(1.5, 2.5))
            mat = bs.assemble(prob, pot, -0.3, m=64)
            assert np.all(mat.entries >= -1e-15)
            assert np.allclose(mat.entries, mat.entries.T)

    def test_operator_positivity(self):
        for lam in (-1.0, -1e-4):
            mat = bs.assemble(HALF_LINE_D, WELL, lam, m=96)
            evals = np.linalg.eigvalsh(mat.entries)
            assert evals.min() >= -1e-10

    def test_neumann_limit_propagates(self):
        with pytest.raises(KernelLimitError):
            bs.assemble(HALF_LINE_N, WELL, 0.0, m=32)

    def test_support_outside_domain_rejected(self):
        prob = ProblemSpec(2, "exterior_ball", "dirichlet", radius=1.0)
        with pytest.raises(ValidationError):
            bs.assemble(prob, Potential(Profile.indicator(0.5, 2.0)), -1.0, m=32)


@st.composite
def _wells(draw):
    """A half-line or exterior-ball sector problem with a well outside it."""
    d = draw(st.sampled_from([1, 2, 3]))
    bc = draw(st.sampled_from(["dirichlet", "neumann"]))
    if draw(st.booleans()) and d == 1:
        prob, inner = ProblemSpec(1, "half_line", bc), 0.0
    else:
        radius = draw(st.floats(0.5, 2.0))
        prob = ProblemSpec(d, "exterior_ball", bc, radius=radius,
                           sector=draw(st.integers(0, 1 if d == 1 else 2)))
        inner = radius
    lo = inner + draw(st.floats(0.0, 2.0))
    hi = lo + draw(st.floats(0.1, 2.0))
    shape = draw(st.sampled_from([Profile.indicator, Profile.tent, Profile.bump]))
    return prob, Potential(shape(lo, hi, draw(st.floats(0.1, 5.0))))


class TestKernelProperties:
    @settings(max_examples=100, deadline=None)
    @given(_wells(), st.floats(-6.0, 1.0), st.floats(0.1, 3.0),
           st.integers(8, 64))
    def test_symmetric_nonnegative_and_nondecreasing_in_lambda(
            self, well, exponent, decades, m):
        prob, pot = well
        lam_lo, lam_hi = -10.0 ** (exponent + decades), -10.0 ** exponent
        mus = []
        for lam in (lam_lo, lam_hi):
            mat = bs.assemble(prob, pot, lam, m=m)
            assert np.array_equal(mat.entries, mat.entries.T)
            assert np.all(mat.entries >= 0.0)
            mus.append(bs.principal_eigenvalue(mat, 1e-10)[0])
        assert mus[0] <= mus[1] * (1.0 + 1e-8)


class TestMuCurve:
    def test_dirichlet_monotone_toward_threshold(self):
        rep = bs.mu_curve(HALF_LINE_D, WELL, m=200)
        mus = oc.report_mus(rep)
        assert np.all(np.diff(mus) > 0)
        assert rep.metadata["monotone"]
        assert mus[-1] == pytest.approx(1.0 / BETA_CR_WELL, rel=2e-3)

    def test_neumann_grows_like_inverse_sqrt(self):
        rep = bs.mu_curve(HALF_LINE_N, WELL, m=200)
        lams, mus = oc.report_lambdas(rep), oc.report_mus(rep)
        slope = np.polyfit(np.log(np.abs(lams)), np.log(mus), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_rank_one_lower_bound_neumann(self):
        # Rayleigh quotient of the constant function bounds mu0 from below
        lam = -1e-4
        mat = bs.assemble(HALF_LINE_N, WELL, lam, m=200)
        mu = bs.principal_eigenvalue(mat, 1e-10)[0]
        v = np.sqrt(mat.weights)
        mean = float(v @ mat.entries @ v) / float(v @ v)
        assert mu >= mean > 0.5 / math.sqrt(-lam)

    def test_d2_neumann_log_slope_matches_small_argument_expansion(self):
        # the kernel flattens to [ln(2/k) - gamma] on the support, so mu0
        # grows with slope (1/2) int V r dr per unit of ln(1/|lambda|)
        prob = ProblemSpec(2, "exterior_ball", "neumann", radius=1.0)
        pot = Potential(Profile.indicator(1.5, 2.5))
        grid = -np.power(10.0, [-4.0, -5.0, -6.0, -7.0, -8.0])
        rep = bs.mu_curve(prob, pot, lambda_grid=grid, m=300)
        slope = np.polyfit(np.log(1.0 / np.abs(oc.report_lambdas(rep))),
                           oc.report_mus(rep), 1)[0]
        predicted = 0.5 * (2.5 ** 2 - 1.5 ** 2) / 2.0
        assert slope == pytest.approx(predicted, rel=2e-2)

    def test_d3_stable_between_decades(self):
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0)
        pot = Potential(Profile.indicator(1.5, 2.5))
        rep = bs.mu_curve(prob, pot, lambda_grid=[-1e-3, -1e-5, -1e-7], m=200)
        mus = oc.report_mus(rep)
        assert abs(mus[-1] - mus[-2]) / mus[-2] < 0.01
        limit = bs.principal_eigenvalue(bs.assemble(prob, pot, 0.0, m=200), 1e-10)[0]
        assert mus[-1] == pytest.approx(limit, rel=1e-3)

    def test_grid_must_be_negative(self):
        with pytest.raises(ValidationError):
            bs.mu_curve(HALF_LINE_D, WELL, lambda_grid=[-1e-2, 0.0], m=32)


class TestClassify:
    def synth(self, fn):
        lams = -np.power(10.0, [-j for j in range(2, 8)])
        return [(l, fn(abs(l))) for l in lams]

    def test_power_divergence(self):
        cls = bs.classify_limit(self.synth(lambda s: s ** -0.5))
        assert cls.verdict == "divergent"
        assert cls.rate_exponent == pytest.approx(-0.5, abs=0.01)
        assert not cls.log_divergence

    def test_log_divergence(self):
        cls = bs.classify_limit(self.synth(lambda s: 3.0 + math.log(1.0 / s)))
        assert cls.verdict == "divergent"
        assert cls.log_divergence

    def test_bounded_with_extrapolation(self):
        cls = bs.classify_limit(self.synth(lambda s: 2.0 - math.sqrt(s)))
        assert cls.verdict == "bounded"
        assert cls.mu_star == pytest.approx(2.0, abs=1e-3)
        assert cls.extrapolation_gap >= 0.0

    def test_indeterminate_band_is_explicit(self):
        cls = bs.classify_limit(self.synth(lambda s: (1.0 / s) ** 0.013))
        assert cls.verdict == "indeterminate"

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            bs.classify_limit([(-1e-2, 1.0), (-1e-3, 1.1), (-1e-4, 1.2)])
        with pytest.raises(ValidationError):
            bs.classify_limit([(-1e-2, 1.0), (-2e-3, 1.0), (-4e-4, 1.0),
                               (-1e-4, 1.0)])


class TestBetaCritical:
    def test_dirichlet_square_well_matches_oracle(self):
        value = bs.beta_critical(HALF_LINE_D, WELL, method="limit-kernel", m=400)
        assert value == pytest.approx(BETA_CR_WELL, rel=1e-3)

    def test_extrapolation_route_agrees(self):
        value = bs.beta_critical(HALF_LINE_D, WELL, method="extrapolation", m=300)
        assert value == pytest.approx(BETA_CR_WELL, rel=2e-3)

    def test_both_routes_cross_check(self):
        value = bs.beta_critical(HALF_LINE_D, WELL, method="both", m=300)
        assert value == pytest.approx(BETA_CR_WELL, rel=1e-3)

    def test_neumann_threshold_is_zero(self):
        for pot in (WELL, Potential(Profile.bump(0.5, 1.5, 2.0))):
            assert bs.beta_critical(HALF_LINE_N, pot, m=200) == 0.0

    def test_zero_potential_sentinel(self):
        out = bs.beta_critical(HALF_LINE_D, Potential(Profile.indicator(1.0, 2.0), 0.0))
        assert out is None

    def test_limit_kernel_method_propagates_divergence(self):
        with pytest.raises(KernelLimitError):
            bs.beta_critical(HALF_LINE_N, WELL, method="limit-kernel", m=64)

    def test_method_disagreement_carries_both_values(self):
        # a short, coarse energy grid misreads the slow planar tail as
        # divergent, contradicting the existing limit kernel
        prob = ProblemSpec(2, "exterior_ball", "dirichlet", radius=1.0)
        pot = Potential(Profile.indicator(1.5, 2.5))
        from betacrit.errors import MethodDisagreement
        with pytest.raises(MethodDisagreement) as err:
            bs.beta_critical(prob, pot, method="both", m=200,
                             lambda_grid=bs.default_lambda_grid((0, 3)))
        assert set(err.value.values) == {"limit-kernel", "extrapolation"}

    def test_grid_convergence_is_cauchy(self):
        values = [bs.beta_critical(HALF_LINE_D, WELL, method="limit-kernel", m=m)
                  for m in (50, 100, 200, 400)]
        gaps = [abs(b - a) for a, b in zip(values, values[1:])]
        assert gaps[1] <= gaps[0] and gaps[2] <= gaps[1]
        assert values[-1] == pytest.approx(BETA_CR_WELL, rel=1e-3)


def _separable_cases():
    a = CoefficientProfile(Profile(np.array([1.0, 1.5, 2.0]),
                                   np.array([2.0, 1.4, 1.0])), 2.0)
    yield "half-line dirichlet", HALF_LINE_D
    yield "half-line neumann", HALF_LINE_N
    for d, l, bc in ((1, 0, "dirichlet"), (1, 1, "neumann"), (2, 0, "dirichlet"),
                     (2, 2, "neumann"), (3, 0, "neumann"), (3, 1, "dirichlet")):
        yield f"d={d} sector {l} {bc}", ProblemSpec(d, "exterior_ball", bc, sector=l)
    yield "variable a, d=3", ProblemSpec(3, "exterior_ball", "dirichlet", coefficient=a)
    yield "variable a, d=2", ProblemSpec(2, "exterior_ball", "neumann", coefficient=a)
    for d, l in ((2, 0), (2, 1), (3, 0), (3, 2)):
        yield f"fkw d={d} sector {l}", ProblemSpec(d, "exterior_ball", "fkw", sector=l)


class TestSeparableAssembly:
    @pytest.mark.parametrize("name,prob", list(_separable_cases()))
    def test_entries_match_the_pointwise_kernel(self, name, prob):
        pot = Potential(Profile.tent(1.5, 2.5), 1.7)
        for lam in (0.0, -1e-3, -0.5, -4.0):
            try:
                mat = bs.assemble(prob, pot, lam, m=40)
            except KernelLimitError:
                assert lam == 0.0
                continue
            g = green_kernel(prob, lam, mat.nodes[:, None], mat.nodes[None, :])
            hw = np.sqrt(mat.weights * pot(mat.nodes))
            np.testing.assert_allclose(mat.entries, hw[:, None] * g * hw[None, :],
                                       rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("prob", [HALF_LINE_D, HALF_LINE_N,
                                      ProblemSpec(2, "exterior_ball", "dirichlet"),
                                      ProblemSpec(3, "exterior_ball", "neumann", sector=2)])
    def test_large_k_r_stays_finite(self, prob):
        # k r reaches 2500: the scaled pair keeps every entry representable
        mat = bs.assemble(prob, Potential(Profile.indicator(1.5, 2.5)), -1e6, m=80)
        assert np.all(np.isfinite(mat.entries))
        assert np.all(mat.entries >= 0.0)
        assert np.array_equal(mat.entries, mat.entries.T)
        assert np.all(np.diag(mat.entries) > 0.0)

    def test_large_k_with_a_variable_coefficient_stays_finite(self):
        # a = 2 -> 1 on [1, 2] at lambda = -1e6: the regular solution grows by
        # about e^820 across it, so only the log-scaled solutions stay finite
        a = CoefficientProfile(Profile(np.array([1.0, 2.0]), np.array([2.0, 1.0])), 2.0)
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0, coefficient=a)
        pot = Potential(Profile.indicator(1.0, 2.0))
        mat = bs.assemble(prob, pot, -1e6)
        assert np.all(np.isfinite(mat.entries))
        assert np.all(mat.entries >= 0.0)
        assert np.array_equal(mat.entries, mat.entries.T)
        # away from the obstacle the diagonal is the local (WKB) kernel
        # 1 / (2 k sqrt(p w)) per unit sphere measure, with k = 1000
        r = mat.nodes
        g = np.diag(mat.entries) / (mat.weights * pot(r))
        wkb = 1.0 / (8.0 * math.pi * 1000.0 * np.sqrt(a(r)) * r ** 2)
        assert g[r > 1.01] == pytest.approx(wkb[r > 1.01], rel=1e-4)

    @pytest.mark.parametrize("lam", [-1e7, -1e8])
    @pytest.mark.parametrize("geometry", ["half_line", "exterior_ball"])
    def test_deep_energy_where_the_coefficient_is_below_one(self, geometry, lam):
        # a = 0.3 -> 1: the solutions grow like e^{k r / sqrt(a)}, faster
        # than e^{kr}, so only their own log-scales keep the kernel finite
        lo = 0.0 if geometry == "half_line" else 1.0
        a = CoefficientProfile(Profile(np.array([lo, 2.0]), np.array([0.3, 1.0])), 2.0)
        prob = (ProblemSpec(1, "half_line", "dirichlet", coefficient=a)
                if geometry == "half_line" else
                ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0, coefficient=a))
        pot = Potential(Profile.indicator(1.0, 2.0))
        mat = bs.assemble(prob, pot, lam, m=100)
        assert np.all(np.isfinite(mat.entries))
        assert np.all(mat.entries >= 0.0)
        assert np.array_equal(mat.entries, mat.entries.T)
        # the diagonal is the local (WKB) kernel 1 / (2 k sqrt(p w)) per unit
        # sphere measure; a decaying branch shifted by its starting scale
        # misses it by a factor 1 + k
        r = np.array([1.2, 1.5, 1.9])
        wkb = 1.0 / (2.0 * math.sqrt(-lam) * np.sqrt(a(r)) * prob.measure(r))
        assert green_kernel(prob, lam, r, r) == pytest.approx(wkb, rel=1e-3)


class TestEigenpairCorrespondence:
    def test_reconstructed_eigenfunction_weak_residual_shrinks(self):
        # (mu, w) of the kernel matrix reconstructs u with H_{1/mu} u = lam u;
        # test in weak form against compactly supported window functions
        lam = -0.5
        POT = Potential(Profile.bump(1.0, 2.0, 2.0))
        residuals = []
        for m in (60, 240):
            mat = bs.assemble(HALF_LINE_D, POT, lam, m=m)
            evals, evecs = np.linalg.eigh(mat.entries)
            mu, w = evals[-1], evecs[:, -1]
            beta = 1.0 / mu
            x = np.linspace(0.0, 12.0, 48001)
            g = green_kernel(HALF_LINE_D, lam, x[:, None], mat.nodes[None, :])
            sqv = np.sqrt(POT(mat.nodes))
            u = g @ (np.sqrt(mat.weights) * sqv * w)
            worst = 0.0
            # u' jumps at the quadrature nodes, so both derivatives go onto
            # the window function: -int u psi'' = int (beta V + lam) u psi;
            # cos^4 windows keep psi'' continuous at the window edges
            for x0, width in ((1.2, 0.7), (2.5, 1.5), (0.6, 0.5)):
                t = (x - x0) / width
                inside = np.abs(t) < 1.0
                s = 0.5 * math.pi * t
                psi = np.where(inside, np.cos(s) ** 4, 0.0)
                ddpsi = np.where(inside,
                                 (0.5 * math.pi / width) ** 2 *
                                 (12.0 * np.cos(s) ** 2 * np.sin(s) ** 2
                                  - 4.0 * np.cos(s) ** 4), 0.0)
                form = np.trapezoid(-u * ddpsi - beta * POT(x) * u * psi
                                    - lam * u * psi, x)
                scale = math.sqrt(np.trapezoid(u * u, x) * np.trapezoid(psi * psi, x))
                worst = max(worst, abs(form) / scale)
            residuals.append(worst)
        assert residuals[1] < 0.3 * residuals[0]
        assert residuals[1] < 1e-4
