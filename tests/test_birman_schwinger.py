import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from betacrit import birman_schwinger as bs
from betacrit.errors import KernelLimitError, UnconvergedError, ValidationError
from betacrit.green_kernels import green_kernel
from betacrit.model import CoefficientProfile, Potential, ProblemSpec, Profile
from betacrit.sector_ode import SectorODE

import oracles as oc

HALF_LINE_D = ProblemSpec(1, "half_line", "dirichlet")
HALF_LINE_N = ProblemSpec(1, "half_line", "neumann")
WELL = Potential(Profile.indicator(1.0, 2.0))
BETA_CR_WELL = oc.square_well_beta_cr(1.0, 2.0)  # k tan k = 1 threshold


class TestPrincipalEigenvalue:
    def test_scalar(self):
        assert bs.principal_eigenvalue(np.array([[3.7]]))[0] == pytest.approx(3.7)

    def test_closed_form_two_by_two(self):
        assert bs.principal_eigenvalue(np.array([[2.0, 1.0], [1.0, 2.0]]))[0] == \
            pytest.approx(3.0)

    def test_zero_matrix(self):
        assert bs.principal_eigenvalue(np.zeros((5, 5)))[0] == 0.0

    @pytest.mark.parametrize("size", [2.0 ** -990, 2.0 ** 530])
    def test_scales_exactly_without_warnings(self, size):
        # near 1e160 the squared norms of the iterates leave the float range
        a = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        val, res = bs.principal_eigenvalue(a)
        assert val == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-12)
        with np.errstate(all="raise"):
            assert bs.principal_eigenvalue(size * a) == (size * val, size * res)

    def test_degenerate_top_handled_by_fallback(self):
        # the all-ones start vector is orthogonal to both top eigenvectors
        a = np.diag([2.0, -2.0, 0.5])
        val = bs.principal_eigenvalue(a)[0]
        assert val == pytest.approx(2.0, rel=1e-8)

    def test_nearly_degenerate_top_is_solved_exactly(self):
        # six top eigenvalues within 5e-7 of each other stall power iteration
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        spectrum = np.concatenate([1.0 - 1e-7 * np.arange(6),
                                   rng.uniform(0.1, 0.5, 34)])
        a = (q * spectrum) @ q.T
        a = 0.5 * (a + a.T)
        assert bs._power_iteration(a)[2] == -1
        val, res = bs.principal_eigenvalue(a)
        assert val == pytest.approx(1.0, rel=1e-12)
        assert res <= bs.EIG_TOL * val

    def test_stalled_iteration_hands_over_early(self, monkeypatch):
        # a deep energy makes the kernel nearly local: its top four eigenvalues
        # lie within 1e-6 of each other, and the residual stops falling
        kernel = bs.assemble(HALF_LINE_D, Potential(Profile.indicator(1.5, 2.5)), -1e6, m=400)
        products = []
        matmul = bs.SectorKernel.__matmul__
        monkeypatch.setattr(bs.SectorKernel, "__matmul__",
                            lambda k, x: products.append(1) or matmul(k, x))
        val, res = bs.principal_eigenvalue(kernel)
        assert len(products) <= 300
        top = np.linalg.eigvalsh(kernel.dense())[-1]
        assert val == pytest.approx(top, rel=bs.EIG_TOL)
        assert res <= bs.EIG_TOL * val

    def test_deep_energy_exterior_well(self):
        # the top two eigenvalues agree to 9e-10 relative at lambda = -1e4, so
        # the converged iterate may mix them, but not leave the pair
        prob = ProblemSpec(1, "exterior_ball", "dirichlet", radius=1.0)
        mat = bs.assemble(prob, WELL, -1e4, m=21)
        val, res = bs.principal_eigenvalue(mat)
        assert val == pytest.approx(float(np.linalg.eigvalsh(mat.dense())[-1]),
                                    rel=1e-9)
        assert res <= bs.EIG_TOL * val

    def test_residual_meets_the_tolerance(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        val, res = bs.principal_eigenvalue(a)
        assert res <= bs.EIG_TOL * val

    def test_agrees_with_dense_solver(self):
        rng = np.random.default_rng(7)
        b = rng.standard_normal((40, 40))
        a = b + b.T
        assert bs.principal_eigenvalue(a)[0] == pytest.approx(
            float(np.linalg.eigvalsh(a)[-1]), rel=1e-9)


class TestAssemble:
    def test_zero_potential_gives_zero_matrix(self):
        mat = bs.assemble(HALF_LINE_D, Potential(Profile.indicator(1.0, 2.0), 0.0),
                          -1.0, m=32)
        assert np.all(mat.dense() == 0.0)

    def test_single_node_smoke(self):
        c = 2.0
        pot = Potential(Profile.indicator(1.0, 1.01), c)
        mat = bs.assemble(HALF_LINE_D, pot, -1.0, m=1)
        assert mat.size == 1
        g = (math.exp(0.0) - math.exp(-2.0 * 1.005)) / 2.0
        assert mat.dense()[0, 0] == pytest.approx(c * 0.01 * g, rel=1e-3)

    def test_square_well_limit_eigenvalue(self):
        mat = bs.assemble(HALF_LINE_D, WELL, 0.0, m=200)
        mu = bs.principal_eigenvalue(mat)[0]
        assert mu == pytest.approx(1.0 / BETA_CR_WELL, rel=1e-3)

    def test_entries_nonnegative_and_symmetric(self):
        for prob in (HALF_LINE_D, HALF_LINE_N,
                     ProblemSpec(3, "exterior_ball", "neumann", radius=1.0)):
            pot = WELL if prob.geometry == "half_line" else \
                Potential(Profile.indicator(1.5, 2.5))
            mat = bs.assemble(prob, pot, -0.3, m=64)
            dense = mat.dense()
            assert np.all(dense >= -1e-15)
            assert np.allclose(dense, dense.T)

    def test_operator_positivity(self):
        for lam in (-1.0, -1e-4):
            mat = bs.assemble(HALF_LINE_D, WELL, lam, m=96)
            evals = np.linalg.eigvalsh(mat.dense())
            assert evals.min() >= -1e-10

    def test_neumann_limit_propagates(self):
        with pytest.raises(KernelLimitError):
            bs.assemble(HALF_LINE_N, WELL, 0.0, m=32)

    def test_half_space_has_no_sector_threshold(self):
        # d = 2 Neumann would give 0.0 by the sector rule, which has no sectors here
        prob = ProblemSpec(2, "half_space", "neumann")
        with pytest.raises(ValidationError):
            bs.beta_critical(prob, Potential(Profile.indicator(0.0, 0.5), center=2.0))

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
            dense = mat.dense()
            assert np.array_equal(dense, dense.T)
            assert np.all(dense >= 0.0)
            mus.append(bs.principal_eigenvalue(mat)[0])
        assert mus[0] <= mus[1] * (1.0 + 1e-8)


@st.composite
def _sector_problems(draw):
    """A half-line or exterior-ball sector under the Dirichlet or Neumann
    condition or the fkw reduction, with or without a sampled coefficient,
    and a well outside the obstacle."""
    d = draw(st.sampled_from([1, 2, 3]))
    bc = draw(st.sampled_from(["dirichlet", "neumann", "fkw"]))
    half_line = d == 1 and bc != "fkw" and draw(st.booleans())
    r0 = 0.0 if half_line else draw(st.floats(0.5, 2.0))
    coefficient = None
    if draw(st.booleans()):
        ys = draw(st.lists(st.floats(0.3, 3.0), min_size=2, max_size=4))
        r_flat = r0 + draw(st.floats(0.5, 2.0))
        coefficient = CoefficientProfile(
            Profile(np.linspace(r0, r_flat, len(ys)), np.array(ys)), r_flat)
    if half_line:
        prob = ProblemSpec(1, "half_line", bc, coefficient=coefficient)
    else:
        prob = ProblemSpec(d, "exterior_ball", bc, radius=r0, coefficient=coefficient,
                           sector=draw(st.integers(0, 1 if d == 1 else 2)))
    lo = r0 + draw(st.floats(0.0, 1.0))
    hi = lo + draw(st.floats(0.1, 2.0))
    shape = draw(st.sampled_from([Profile.indicator, Profile.tent, Profile.bump]))
    return prob, Potential(shape(lo, hi, draw(st.floats(0.1, 5.0))))


# lambda = 0, or -1e-8 down to -1e8, where k (hi - lo) reaches 2e4: there e^{s}
# overflows, and one log-scale for every node would lose eps k r of accuracy
_ENERGIES = st.one_of(st.just(0.0), st.floats(-8.0, 8.0).map(lambda e: -10.0 ** e))
_DEEP_WELL = (ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0),
              Potential(Profile.indicator(1.2, 2.0)))


def _assemble_or_reject(prob, pot, lam, m):
    try:
        return bs.assemble(prob, pot, lam, m=m)
    except KernelLimitError:
        assert lam == 0.0
        assume(False)


class TestSemiseparableApply:
    """The generator form against the dense m x m matrix it stands for."""

    @settings(max_examples=150, deadline=None)
    @given(_sector_problems(), _ENERGIES, st.integers(1, 96), st.integers(0, 2 ** 32 - 1))
    @example(_DEEP_WELL, -1e8, 96, 0)
    def test_apply_matches_the_dense_matrix(self, case, lam, m, seed):
        mat = _assemble_or_reject(*case, lam, m)
        # nonnegative generators: K >= 0, so the all-ones start vector of the
        # power iteration meets the top eigenvector
        assert np.all(mat.a >= 0.0) and np.all(mat.b >= 0.0)
        dense = mat.dense()
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(mat.size) * np.exp(rng.uniform(-20.0, 0.0, mat.size))
        bound = np.abs(dense) @ np.abs(x)
        assert np.all(np.abs(mat @ x - dense @ x) <= 1e-13 * bound)

    @settings(max_examples=100, deadline=None)
    @given(_sector_problems(), _ENERGIES, st.integers(1, 64))
    @example(_DEEP_WELL, -1e8, 64)
    def test_principal_eigenvalue_matches_dense_power_iteration(self, case, lam, m):
        mat = _assemble_or_reject(*case, lam, m)
        value, _, steps, _ = bs._power_iteration(mat.dense())
        assume(steps > 0)
        assert bs.principal_eigenvalue(mat)[0] == pytest.approx(value, rel=1e-12, abs=0.0)

    def test_no_matrix_is_held(self):
        # the dense form is built on request only, also not by a solve
        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (tuple, list)):
                for item in value:
                    yield from arrays(item)

        mat = bs.assemble(*_DEEP_WELL, -1e-2, m=64)
        assert not hasattr(mat, "entries")
        bs.principal_eigenvalue(mat)
        held = list(arrays(list(vars(mat).values())))
        assert len(held) > 6 and all(a.ndim == 1 for a in held)

    def test_peak_memory_stays_linear_in_m(self):
        # the m x m matrix at m = 2000 alone would take 32 MB
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0, sector=1)
        pot = Potential(Profile.tent(1.5, 2.5))
        bs.principal_eigenvalue(bs.assemble(prob, pot, -1e-2, m=100))  # warm caches
        tracemalloc.start()
        try:
            bs.principal_eigenvalue(bs.assemble(prob, pot, -1e-2, m=2000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_peak_memory_of_a_curve_stays_linear_in_m(self):
        # the doubling factors of all 7 energies at once, 7 ceil(log2 m) rows of
        # about 2m (2.4 MB at m = 2000); the 7 m x m matrices would take 224 MB
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0, sector=1)
        pot, grid, m = Potential(Profile.tent(1.5, 2.5)), bs.default_lambda_grid((2, 8)), 2000
        bs.mu_curve(prob, pot, grid, m=100)  # warm caches
        tracemalloc.start()
        try:
            bs.mu_curve(prob, pot, grid, m=m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.size * m * 8 * (2 * math.ceil(math.log2(m)) + 20)


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
        mu = bs.principal_eigenvalue(mat)[0]
        v = np.sqrt(mat.weights)
        mean = float(v @ mat.dense() @ v) / float(v @ v)
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
        limit = bs.principal_eigenvalue(bs.assemble(prob, pot, 0.0, m=200))[0]
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

    def test_auto_reads_a_divergent_limit_kernel_as_zero(self, monkeypatch):
        # the limit kernel raises exactly where every coupling binds, so
        # 'auto' needs no sweep of the energy grid to return 0.0
        def no_sweep(*args, **kwargs):
            raise AssertionError("auto swept the energy grid")

        monkeypatch.setattr(bs, "mu_curve", no_sweep)
        planar = ProblemSpec(2, "exterior_ball", "neumann", radius=1.0)
        for prob, pot in ((HALF_LINE_N, WELL),
                          (planar, Potential(Profile.indicator(1.5, 2.5)))):
            assert bs.beta_critical(prob, pot, m=64) == 0.0

    def test_zero_potential_sentinel(self):
        out = bs.beta_critical(HALF_LINE_D, Potential(Profile.indicator(1.0, 2.0), 0.0))
        assert out is None

    def test_limit_kernel_method_propagates_divergence(self):
        with pytest.raises(KernelLimitError):
            bs.beta_critical(HALF_LINE_N, WELL, method="limit-kernel", m=64)

    def test_method_disagreement_carries_both_values(self):
        # the slow planar Dirichlet tail, cut at -1e-7, extrapolates to a mu*
        # 6% short: threshold 0.837832 against the limit kernel's 0.789578
        prob = ProblemSpec(2, "exterior_ball", "dirichlet", radius=1.0)
        pot = Potential(Profile.indicator(1.5, 2.5))
        from betacrit.errors import MethodDisagreement
        with pytest.raises(MethodDisagreement) as err:
            bs.beta_critical(prob, pot, method="both", m=200)
        assert set(err.value.values) == {"limit-kernel", "extrapolation"}
        assert err.value.values["limit-kernel"] == pytest.approx(0.789578, rel=1e-5)
        assert err.value.values["extrapolation"] == pytest.approx(0.837832, rel=1e-5)

    def test_a_tail_against_the_rule_is_a_discretization_failure(self):
        # a short, coarse energy grid misreads the same tail as divergent,
        # where the rule says bounded: no threshold comes out of it
        prob = ProblemSpec(2, "exterior_ball", "dirichlet", radius=1.0)
        pot = Potential(Profile.indicator(1.5, 2.5))
        for method in ("extrapolation", "both"):
            with pytest.raises(UnconvergedError, match="against the boundary-condition rule"):
                bs.beta_critical(prob, pot, method=method, m=200,
                                 lambda_grid=bs.default_lambda_grid((0, 3)))

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
            np.testing.assert_allclose(mat.dense(), hw[:, None] * g * hw[None, :],
                                       rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("prob", [HALF_LINE_D, HALF_LINE_N,
                                      ProblemSpec(2, "exterior_ball", "dirichlet"),
                                      ProblemSpec(3, "exterior_ball", "neumann", sector=2)])
    def test_large_k_r_stays_finite(self, prob):
        # k r reaches 2500: the scaled pair keeps every entry representable
        mat = bs.assemble(prob, Potential(Profile.indicator(1.5, 2.5)), -1e6, m=80)
        dense = mat.dense()
        assert np.all(np.isfinite(dense))
        assert np.all(dense >= 0.0)
        assert np.array_equal(dense, dense.T)
        assert np.all(np.diag(dense) > 0.0)

    def test_large_k_with_a_variable_coefficient_stays_finite(self):
        # a = 2 -> 1 on [1, 2] at lambda = -1e6: the regular solution grows by
        # about e^820 across it, so only the log-scaled solutions stay finite
        a = CoefficientProfile(Profile(np.array([1.0, 2.0]), np.array([2.0, 1.0])), 2.0)
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0, coefficient=a)
        pot = Potential(Profile.indicator(1.0, 2.0))
        mat = bs.assemble(prob, pot, -1e6)
        dense = mat.dense()
        assert np.all(np.isfinite(dense))
        assert np.all(dense >= 0.0)
        assert np.array_equal(dense, dense.T)
        # away from the obstacle the diagonal is the local (WKB) kernel
        # 1 / (2 k sqrt(p w)) per unit sphere measure, with k = 1000
        r = mat.nodes
        g = np.diag(dense) / (mat.weights * pot(r))
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
        dense = mat.dense()
        assert np.all(np.isfinite(dense))
        assert np.all(dense >= 0.0)
        assert np.array_equal(dense, dense.T)
        # the diagonal is the local (WKB) kernel 1 / (2 k sqrt(p w)) per unit
        # sphere measure; a decaying branch shifted by its starting scale
        # misses it by a factor 1 + k
        r = np.array([1.2, 1.5, 1.9])
        wkb = 1.0 / (2.0 * math.sqrt(-lam) * np.sqrt(a(r)) * prob.measure(r))
        assert green_kernel(prob, lam, r, r) == pytest.approx(wkb, rel=1e-3)


def _sector_cases():
    return [(f"d={d} sector {l} {bc}", ProblemSpec(d, "exterior_ball", bc, sector=l))
            for d in (1, 2, 3) for l in range(2 if d == 1 else 3)
            for bc in ("dirichlet", "neumann")]


def _sums_arrays(kernel):
    """The arrays of a kernel's ``_sums`` in order, and its doubling steps."""
    coef, steps, *rest = kernel._sums
    return [coef, *(factor for _, factor in steps), *rest], [h for h, _ in steps]


class TestEnergySweep:
    """A curve reads its quadrature once and builds every energy's kernel in
    one block, and each energy's power iteration starts from the eigenvector
    of the energy before."""

    TENT = Potential(Profile.tent(1.5, 2.5), 1.7)
    GRID = np.append([-1e6, -4.0, -0.5], bs.default_lambda_grid((2, 7)))

    @pytest.mark.parametrize("name,prob", list(_separable_cases()) + _sector_cases())
    def test_each_row_of_the_block_is_its_one_energy_kernel(self, name, prob):
        rows = list(bs._kernels(prob, self.TENT, self.GRID, 64))
        assert len(rows) == self.GRID.size
        for lam, row in zip(self.GRID, rows):
            one = bs.assemble(prob, self.TENT, lam, m=64)
            for field in ("nodes", "weights", "a", "b", "s_reg", "s_dec"):
                assert np.array_equal(getattr(row, field), getattr(one, field)), (lam, field)
            # the cached build of a kernel on its own, and the doubling written out
            alone = bs.SectorKernel(row.nodes, row.weights, row.a, row.b, row.s_reg, row.s_dec)
            r, q = row.s_reg, row.s_dec[::-1]
            steps = [2 ** j for j in range((row.size - 1).bit_length())]
            factors = [np.exp(np.concatenate([r[:-h] - r[h:], np.full(h, -np.inf), q[:-h] - q[h:]]))
                       for h in steps]
            arrays, hs = _sums_arrays(row)
            assert hs == steps
            for other in (_sums_arrays(one)[0], _sums_arrays(alone)[0], arrays[:1] + factors
                          + arrays[1 + len(steps):]):
                assert len(other) == len(arrays)
                assert all(np.array_equal(x, y) for x, y in zip(arrays, other)), lam

    def test_an_empty_span_curve_reads_the_free_pair_twice(self, monkeypatch):
        # one read at r_f = r0 and one on the nodes, for all 7 energies
        reads = []
        free_pair = SectorODE.free_pair
        monkeypatch.setattr(SectorODE, "free_pair", lambda ode, lam, r, *a, **k: (
            reads.append(np.size(r)) or free_pair(ode, lam, r, *a, **k)))
        prob = ProblemSpec(3, "exterior_ball", "neumann", sector=2)
        rep = bs.mu_curve(prob, self.TENT, lambda_grid=bs.default_lambda_grid((2, 8)), m=64)
        assert len(rep.samples) == 7
        assert reads == [1, 64]

    def test_a_grid_past_the_float_range_names_its_first_failing_energy(self):
        # the scaled K_{nu+1} of sector 3 overflows for k r below about 1e-69:
        # -1e-140 is the first energy of the sweep that fails, and it fails
        # before any arithmetic reads what overflowed
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", sector=3)
        grid = [-1e-2, -1e-120, -1e-140, -1e-160, -1e-180]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnconvergedError) as err:
                bs.mu_curve(prob, Potential(Profile.indicator(1.5, 2.5)), grid, m=50)
        assert err.value.details == {"lambda": -1e-140, "sector": 3}

    def test_a_curve_reads_its_quadrature_and_well_once(self, monkeypatch):
        panels, reads = [], []
        gauss_panels, potential = bs.gauss_panels, Potential.__call__
        monkeypatch.setattr(bs, "gauss_panels",
                            lambda *a: panels.append(1) or gauss_panels(*a))
        monkeypatch.setattr(Potential, "__call__",
                            lambda pot, r: reads.append(1) or potential(pot, r))
        grid = bs.default_lambda_grid((2, 8))
        assert grid.size == 7
        prob = dict(_separable_cases())["variable a, d=3"]
        rep = bs.mu_curve(prob, self.TENT, lambda_grid=grid, m=64)
        assert len(rep.samples) == 7
        assert (len(panels), len(reads)) == (1, 1)

    def test_an_empty_span_reads_the_free_pair_once_on_the_nodes(self, monkeypatch):
        # a == 1 and no potential: r_f = r0, where the pair is matched, and
        # both solutions come from one read on the nodes
        reads = []
        free_pair = SectorODE.free_pair
        monkeypatch.setattr(SectorODE, "free_pair", lambda ode, lam, r, *a, **k: (
            reads.append(np.size(r)) or free_pair(ode, lam, r, *a, **k)))
        prob = ProblemSpec(3, "exterior_ball", "neumann", sector=2)
        assert SectorODE(prob).r_star == prob.inner_radius
        mat = bs.assemble(prob, self.TENT, -0.5, m=64)
        assert reads == [1, mat.size]

    def test_warm_started_curve_matches_cold_solves(self, monkeypatch):
        # lambda = -1e6 stalls into the eigh fallback, after which the next
        # energy starts cold; the curves take fewer products than the cold solves
        products = []
        matmul = bs.SectorKernel.__matmul__
        monkeypatch.setattr(bs.SectorKernel, "__matmul__",
                            lambda k, x: products.append(1) or matmul(k, x))
        warm = cold = 0
        for name, prob in list(_separable_cases()) + _sector_cases():
            products.clear()
            rep = bs.mu_curve(prob, self.TENT, lambda_grid=self.GRID, m=64)
            warm += len(products)
            products.clear()
            for lam, mu, _, res in rep.samples:
                value = bs.principal_eigenvalue(bs.assemble(prob, self.TENT, lam, m=64))[0]
                assert mu == pytest.approx(value, rel=1e-13, abs=0.0), (name, lam)
                assert res <= bs.EIG_TOL * mu, (name, lam)
            cold += len(products)
        assert warm < cold

    def test_the_stall_fallback_hands_on_no_vector(self):
        mat = bs.assemble(HALF_LINE_D, Potential(Profile.indicator(1.5, 2.5)), -1e6, m=400)
        assert bs._power_iteration(mat)[2] == -1
        value, res, vector = bs._principal(mat)
        assert vector is None
        assert value == pytest.approx(np.linalg.eigvalsh(mat.dense())[-1], rel=1e-12)
        assert res <= bs.EIG_TOL * value

    def test_the_energy_after_a_stall_starts_cold(self, monkeypatch):
        # the eigh vector at -1e6 is localized: started from it, -4 took 12
        # products where a cold start takes 10
        prob = dict(_separable_cases())["variable a, d=2"]
        assert bs._power_iteration(bs.assemble(prob, self.TENT, -1e6, m=40))[2] == -1
        products, per_solve = [], []
        principal, matmul = bs._principal, bs.SectorKernel.__matmul__
        monkeypatch.setattr(bs.SectorKernel, "__matmul__",
                            lambda k, x: products.append(1) or matmul(k, x))

        def counted(mat, start=None):
            before = len(products)
            solved = principal(mat, start)
            per_solve.append(len(products) - before)
            return solved

        monkeypatch.setattr(bs, "_principal", counted)
        bs.mu_curve(prob, self.TENT, lambda_grid=self.GRID, m=40)
        warm = per_solve.copy()
        per_solve.clear()
        for lam in self.GRID:
            bs.principal_eigenvalue(bs.assemble(prob, self.TENT, lam, m=40))
        assert self.GRID[:2].tolist() == [-1e6, -4.0]
        assert warm[0] == per_solve[0]
        assert warm[1] <= per_solve[1] == 10


class TestEigenpairCorrespondence:
    def test_reconstructed_eigenfunction_weak_residual_shrinks(self):
        # (mu, w) of the kernel matrix reconstructs u with H_{1/mu} u = lam u;
        # test in weak form against compactly supported window functions
        lam = -0.5
        POT = Potential(Profile.bump(1.0, 2.0, 2.0))
        residuals = []
        for m in (60, 240):
            mat = bs.assemble(HALF_LINE_D, POT, lam, m=m)
            evals, evecs = np.linalg.eigh(mat.dense())
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
