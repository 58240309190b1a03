import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from betacrit import birman_schwinger as bs
from betacrit import cli
from betacrit import direct_spectrum as ds
from betacrit import fkw
from betacrit.errors import NearSingularError, UnconvergedError, ValidationError
from betacrit.model import CoefficientProfile, Potential, ProblemSpec, Profile
from betacrit.green_kernels import solution_pair
from betacrit.sector_ode import MAX_TURN, SectorODE

import oracles as oc

BALL3 = ProblemSpec(3, "exterior_ball", "fkw", radius=1.0)
BALL2 = ProblemSpec(2, "exterior_ball", "fkw", radius=1.0)
POT = Potential(Profile.indicator(1.5, 2.5))


class TestExteriorSolution:
    def test_free_d3_is_inverse_r(self):
        v = fkw.solve_v(BALL3, 0.0, POT, 0.0)
        r = np.linspace(1.0, 10.0, 100)
        assert v(r) == pytest.approx(1.0 / r, abs=1e-9)

    def test_d2_flattens_toward_threshold(self):
        # convergence to the constant is logarithmic: 1 - v(r) ~ ln r / ln(2/k)
        r = np.linspace(1.0, 5.0, 50)
        gaps = []
        for lam in (-1e-2, -1e-4, -1e-8):
            v = fkw.solve_v(BALL2, 0.0, POT, lam)
            gaps.append(float(np.max(np.abs(v(r) - 1.0))))
        assert gaps[0] > gaps[1] > gaps[2]
        k = 1e-4
        level = math.log(5.0) / (math.log(2.0 / k) - 0.5772156649015329)
        assert gaps[2] == pytest.approx(level, rel=0.05)

    def test_positive_below_the_well(self):
        for problem, beta in ((BALL3, 1.0), (BALL2, 2.0)):
            lam = -beta * POT.max_value() - 1.0
            v = fkw.solve_v(problem, beta, POT, lam)
            assert np.all(v(np.linspace(1.0, 8.0, 200)) > 0.0)

    def test_closed_form_past_the_support_edge(self):
        # R* = 2.5: past it the profile is the decaying free solution
        v = fkw.solve_v(BALL3, 0.0, POT, 0.0)
        assert float(v(50.0)) == pytest.approx(1.0 / 50.0, rel=1e-10)
        r = np.array([2.0, 2.5, 3.0, 9.0, 50.0])
        assert v.state(r)[1] == pytest.approx(-np.ones(5), rel=1e-9)  # r^2 (1/r)'
        k = 0.8
        v = fkw.solve_v(BALL3, 1.0, POT, -k * k)
        r = np.array([3.0, 6.0, 40.0, 60.0])
        assert v(r) == pytest.approx(float(v(2.5)) * 2.5 / r * np.exp(-k * (r - 2.5)),
                                     rel=1e-12)
        assert np.all(v(r) > 0.0)

    def test_continuous_across_the_support_edge(self):
        for problem, beta, lam in ((BALL3, 0.7, -1.3), (BALL2, 2.0, -0.05)):
            v = fkw.solve_v(problem, beta, POT, lam)
            r = 2.5 + np.array([-1e-7, 0.0, 1e-7])
            assert v(r) == pytest.approx(float(v(2.5)), rel=1e-6)
            assert v.state(r)[1] == pytest.approx(float(v.state(2.5)[1]), rel=1e-6)

    def test_trace_is_one(self):
        v = fkw.solve_v(BALL3, 0.7, POT, -1.3)
        assert float(v(1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_requires_fkw_problem(self):
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0)
        with pytest.raises(ValidationError):
            fkw.solve_v(prob, 0.0, POT, -1.0)

    def test_singular_at_a_dirichlet_eigenvalue(self):
        dirichlet = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0)
        beta = 4.0
        lam_d = ds.ground_state(dirichlet, POT, beta)
        with pytest.raises(NearSingularError):
            fkw.solve_v(BALL3, beta, POT, lam_d)


    @pytest.mark.parametrize("beta,lam", [(1.0, -1.0), (0.0, -2.0)])
    def test_variable_coefficient_matches_fd_solve(self, beta, lam):
        a = CoefficientProfile(Profile(np.array([1.0, 2.0, 3.0]),
                                       np.array([2.0, 1.5, 1.0])), 3.0)
        ball = ProblemSpec(3, "exterior_ball", "fkw", radius=1.0, coefficient=a)
        r, u, flux = oc.fd_unit_trace(3, 1.0, (1.5, 2.5), beta, lam, coefficient=a)
        near = r < 8.0
        v = fkw.solve_v(ball, beta, POT, lam)
        assert v(r[near]) == pytest.approx(u[near], abs=1e-7)
        assert fkw.gamma1(ball, beta, POT, lam) == pytest.approx(flux, rel=1e-6)


class TestGamma1:
    def test_classical_limit_value(self):
        # beta = 0 on the shipped well: v = e^{-k(r - 1)} / r in d = 3, so
        # gamma1 = 1 + k, and 1 at lambda = 0; solve_v crosses the gap [1, 1.5]
        # and the tail in exact free steps
        for lam in (-1e-2, -1e-3, -1e-4, -1e-5, -1e-6, 0.0):
            assert fkw.gamma1(BALL3, 0.0, POT, lam) == pytest.approx(
                1.0 + math.sqrt(-lam), rel=1e-13)

    def test_planar_value_is_the_bessel_ratio(self):
        # beta = 0 in d = 2: v = K0(k r) / K0(k), so gamma1 = k K1(k) / K0(k)
        from scipy.special import kve
        for lam in (-1e-2, -1e-3, -1e-4, -1e-5, -1e-6, -1e-7, -1e-8):
            k = math.sqrt(-lam)
            assert fkw.gamma1(BALL2, 0.0, POT, lam) == pytest.approx(
                k * kve(1, k) / kve(0, k), rel=1e-13)

    @pytest.mark.parametrize("problem", [BALL2, BALL3], ids=["d2", "d3"])
    def test_uncoupled_well_is_not_stepped(self, monkeypatch, problem):
        # beta = 0: the unit-trace solution is the free decaying one, f / f(r0),
        # so gamma1 = -f'(r0) / f(r0) and no propagator takes a step; stepping
        # the well at beta = 0 gives the same flux
        steps = []
        propagators = SectorODE.propagators
        monkeypatch.setattr(SectorODE, "propagators", lambda ode, lam, r, h, *a, **k: (
            steps.append(np.count_nonzero(h)) or propagators(ode, lam, r, h, *a, **k)))
        for lam in (-1e-2, -1e-5, -1e-8, -1.0) + ((0.0,) if problem.dimension == 3 else ()):
            value = fkw.gamma1(problem, 0.0, POT, lam)
            assert sum(steps) == 0
            free = SectorODE(problem.with_sector(0))
            if lam < 0.0:
                _, f, _, df = free.free_pair(lam, 1.0, derivatives=True, growing=False)
                assert value == pytest.approx(-df / f, rel=1e-15)
            well = SectorODE(problem.with_sector(0), POT, 0.0)
            v = well.integrate(lam, well.decay_state(lam, well.r_star), inward=True,
                               decays=True)
            v.normalize(1.0)
            stepped = -float(v.state(1.0)[1]) / well.coefficients(1.0)[0]
            assert sum(steps) > 1000
            steps.clear()
            assert value == pytest.approx(stepped, rel=1e-12)

    def test_a_grid_is_one_free_pair_read_where_the_span_is_empty(self, monkeypatch, tmp_path):
        grid = bs.default_lambda_grid((2, 8))
        one_by_one = {(ball.dimension, beta): [fkw.gamma1(ball, beta, POT, float(lam))
                                               for lam in grid]
                      for ball in (BALL2, BALL3) for beta in (0.0, 0.5)}
        reads, calls = [], []
        free_pair, gamma1 = SectorODE.free_pair, fkw.gamma1
        monkeypatch.setattr(SectorODE, "free_pair", lambda ode, *a, **k: (
            reads.append(1) or free_pair(ode, *a, **k)))
        for (d, beta), values in one_by_one.items():
            reads.clear()
            rows = fkw.gamma1(BALL2 if d == 2 else BALL3, beta, POT, grid)
            assert rows.tolist() == values
            assert len(reads) == 1 if beta == 0.0 else len(reads) > grid.size
        # the fkw subcommand takes its gamma1 rows in one call
        monkeypatch.setattr(fkw, "gamma1", lambda *a: calls.append(a) or gamma1(*a))
        cfg = {"problem": {"geometry": "exterior_ball", "dimension": 3,
                           "boundary_condition": "fkw"},
               "potential": {"kind": "indicator", "support": [1.5, 2.5]},
               "numerics": {"m": 32, "sector_max": 1},
               "study": {"lambda_grid": grid.tolist()}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert cli.run("fkw", str(tmp_path / "cfg.json"), str(tmp_path)) == 0
        assert len(calls) == 1
        rows = json.loads((tmp_path / "fkw.json").read_text())["gamma1"]
        assert [row["gamma1"] for row in rows] == one_by_one[3, 0.0]

    def test_uncoupled_coefficient_is_stepped_to_its_flat_radius(self):
        a = CoefficientProfile(Profile(np.array([1.0, 2.0]), np.array([2.0, 1.0])), 2.0)
        ball = replace(BALL3, coefficient=a)
        v = fkw.solve_v(ball, 0.0, POT, -1.0)
        assert v.r[[0, -1]].tolist() == [2.0, 1.0]
        sol = fkw.solve_fkw(ball, 0.0, POT, -1.0, {})
        assert sol.meta["r_out"] == 3.5

    def test_d2_vanishes_at_threshold(self):
        vals = [fkw.gamma1(BALL2, 0.0, POT, lam) for lam in (-1e-2, -1e-4, -1e-6, -1e-8)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.12

    def test_positive_for_strongly_negative_energies(self):
        beta = 1.0
        floor = -beta * POT.max_value() - 1.0
        for lam in np.linspace(floor, floor - 9.0, 10):
            assert fkw.gamma1(BALL3, beta, POT, float(lam)) > 0.0


class TestSolveFkw:
    def test_zero_source_zero_solution(self):
        sol = fkw.solve_fkw(BALL3, 0.5, POT, -1.0, {})
        assert sol.alpha == 0.0
        assert all(np.all(v == 0.0) for _, v in sol.sector_profiles.values())

    def test_unit_trace_solution_is_solved_once(self, monkeypatch):
        calls = []
        solve_v = fkw.solve_v

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_v(*args, **kwargs)

        monkeypatch.setattr(fkw, "solve_v", counted)
        f0 = lambda r: np.exp(-((r - 2.0) / 0.5) ** 2)
        sol = fkw.solve_fkw(BALL3, 0.5, POT, -1.0, {0: f0})
        assert len(calls) == 1
        monkeypatch.undo()
        assert sol.gamma1 == fkw.gamma1(BALL3, 0.5, POT, -1.0)

    def test_profiles_end_one_past_the_support_edge(self):
        f = lambda r: np.exp(-((r - 2.0) / 0.5) ** 2)
        for sources, beta in itertools.product(({}, {0: f}, {1: f}, {0: f, 2: f}), (0.0, 0.5)):
            sol = fkw.solve_fkw(BALL3, beta, POT, -1.0, sources)
            assert sol.meta["r_out"] == 3.5
            for mesh, _ in sol.sector_profiles.values():
                assert mesh[0] == 1.0
                assert mesh[-1] == pytest.approx(3.5, abs=1e-12)

    def test_boundary_pair_holds(self):
        f0 = lambda r: np.exp(-((r - 2.0) / 0.5) ** 2)
        sol = fkw.solve_fkw(BALL3, 0.5, POT, -1.0, {0: f0})
        mesh0, u0 = sol.sector_profiles[0]
        assert u0[0] == pytest.approx(sol.alpha, rel=1e-12)
        assert sol.alpha * sol.gamma1 + sol.gamma == pytest.approx(0.0, abs=1e-12)

    def test_sector0_equals_neumann_resolvent(self):
        f0 = lambda r: np.exp(-((r - 2.0) / 0.5) ** 2)
        sol = fkw.solve_fkw(BALL3, 0.5, POT, -1.0, {0: f0})
        mesh0, u0 = sol.sector_profiles[0]
        r, w, _ = oc.fd_resolvent(3, 0, 1.0, (1.5, 2.5), 0.5, -1.0, f0, bc="neumann")
        near = r <= mesh0[-1]
        gap = np.max(np.abs(np.interp(r[near], mesh0, u0) - w[near]))
        assert gap < 5e-6 * np.max(np.abs(w))

    @pytest.mark.parametrize("lam,length", [(-1.0, 30.0), (-1e-2, 420.0)])
    def test_gaussian_source_matches_the_uncut_fd_solve(self, lam, length):
        # the Gaussian of demo 05 reaches past R* + 1 = 3.5, where it is e^-9:
        # that tail enters w and gamma, and nothing is cut; at lambda = -1e-2
        # the decaying tail runs 400 units past R* + 1
        f0 = lambda r: np.exp(-((r - 2.0) / 0.5) ** 2)
        sol = fkw.solve_fkw(BALL3, 0.5, POT, lam, {0: f0, 1: f0})
        for l in (0, 1):
            mesh, w, gamma = fkw._dirichlet_resolvent(BALL3.with_sector(l), 0.5, POT,
                                                      lam, f0)
            r, w_fd, gamma_fd = oc.fd_resolvent(3, l, 1.0, (1.5, 2.5), 0.5, lam, f0,
                                                length=length)
            near = r <= mesh[-1]
            gap = np.max(np.abs(np.interp(r[near], mesh, w) - w_fd[near]))
            assert gap < 1e-8 * np.max(np.abs(w_fd))
            assert gamma == pytest.approx(gamma_fd, rel=1e-8)
            if l == 0:
                assert sol.gamma == gamma
            else:
                assert np.array_equal(sol.sector_profiles[l][1], w)

    @pytest.mark.parametrize("lam,gamma", [(-1.0, -0.7206086898048639),
                                           (-1e-2, -2.271962631827823)])
    def test_line_resolvent_keeps_its_quadrature_density(self, lam, gamma):
        # d = 1 with a == 1 and an indicator well: the sector ODE crosses each
        # piece in a few exact steps, but the Simpson steps stay at most
        # 1/fkw.SIMPSON_PER_UNIT apart, or gamma moves by 1.7e-6 and 1.6e-3 here;
        # gamma is the value of the 1,000-per-unit mesh on every piece, and
        # within 2.4e-9 of oracles.fd_resolvent
        line = ProblemSpec(1, "exterior_ball", "fkw", radius=1.0)
        f = lambda r: np.exp(-(r - 2.0) ** 2)
        sol = fkw.solve_fkw(line, 0.5, POT, lam, {0: f, 1: f})
        assert sol.gamma == pytest.approx(gamma, abs=1e-9)
        for mesh, _ in sol.sector_profiles.values():
            assert mesh.size == 2501
            assert np.max(np.diff(mesh)) <= (1.0 + 1e-9) / fkw.SIMPSON_PER_UNIT

    def test_deep_energy_resolvent_is_finite_and_local(self):
        # at lambda = -1e6 the pair grows and decays like e^{+-1000 r}: the
        # profile stays finite, and -lambda w -> f off a boundary layer of
        # width 1/k at r0
        lam = -1e6
        f = lambda r: np.exp(-((r - 2.0) / 0.5) ** 2)
        sol = fkw.solve_fkw(BALL3, 0.5, POT, lam, {0: f, 2: f})
        for l in (0, 2):
            mesh, u = sol.sector_profiles[l]
            assert np.all(np.isfinite(u))
            off = mesh > 1.05
            assert np.max(np.abs(-lam * u[off] - f(mesh[off]))) < 3e-5

    @pytest.mark.parametrize("lam", [-1.0, -1e6, -1e8])
    def test_resolvent_is_the_direct_green_sum(self, lam):
        # at 40 mesh nodes w = sum_j G(r, x_j) q_j f_j m_j over the Simpson
        # nodes x_j (the ends and midpoints of the steps, weights h/6, 4h/6,
        # h/6), every entry exp(s_reg + s_dec) of its own: to 1e-14 of max |w|,
        # where sums in one shared log-scale lost eps k r (1.2e-12 at -1e8)
        f = lambda r: np.exp(-((r - 2.0) / 0.5) ** 2)
        k = math.sqrt(-lam)
        for l in (0, 1):
            problem = replace(BALL3.with_sector(l), boundary_condition="dirichlet")
            mesh, w, gamma = fkw._dirichlet_resolvent(problem, 0.5, POT, lam, f)
            parts = math.ceil(k * float(np.max(np.diff(mesh))) / MAX_TURN)
            steps = mesh[:-1, None] + np.diff(mesh)[:, None] * np.arange(parts) / parts
            ends = np.append(steps.ravel(),
                             mesh[-1] + np.linspace(0.0, 1.0, 1001) ** 2 * (40.0 / k))
            x = np.empty(2 * ends.size - 1)
            x[::2], x[1::2] = ends, 0.5 * (ends[:-1] + ends[1:])
            h = np.diff(ends)
            q = np.zeros(x.size)
            q[:-1:2] += h / 6.0
            q[2::2] += h / 6.0
            q[1::2] += 4.0 * h / 6.0
            source = q * f(x) * problem.measure(x)
            pair, c = solution_pair(problem, lam, POT, 0.5)
            (y_reg, s_reg), (y_dec, s_dec) = pair(x)
            picks = np.linspace(0, mesh.size - 1, 40).astype(int)
            direct = np.array([
                (y_dec[i] * np.sum(y_reg[:i + 1] * np.exp(s_reg[:i + 1] + s_dec[i])
                                   * source[:i + 1])
                 + y_reg[i] * np.sum(y_dec[i + 1:] * np.exp(s_reg[i] + s_dec[i + 1:])
                                     * source[i + 1:])) / c
                for i in 2 * parts * picks])
            assert np.max(np.abs(w[picks] - direct)) <= 1e-14 * np.max(np.abs(w))
            # gamma = -u_reg'(r0) sum_j u_dec(x_j) q_j f_j m_j / C, u_reg'(r0) / C
            # from the Wronskian
            p0, _, w0 = SectorODE(problem, POT, 0.5).coefficients(1.0)
            flux = np.sum(y_dec * np.exp(s_dec - s_dec[0]) * source) / y_dec[0]
            assert gamma == pytest.approx(-w0 * flux / (problem.measure(1.0) * p0),
                                          rel=1e-14)

    def test_source_past_the_profile_end_is_no_singularity(self):
        # a source centred at 10 is e^-169 on the mesh [r0, R* + 1 = 3.5], but all
        # of it enters w: the near-singularity guard reads it on every Simpson
        # node, and w matches the uncut FD solve on the mesh
        f = lambda r: np.exp(-((r - 10.0) / 0.5) ** 2)
        sol = fkw.solve_fkw(BALL3, 0.5, POT, -1.0, {1: f})
        mesh, w = sol.sector_profiles[1]
        r, w_fd, _ = oc.fd_resolvent(3, 1, 1.0, (1.5, 2.5), 0.5, -1.0, f, length=30.0)
        near = r <= mesh[-1]
        gap = np.max(np.abs(np.interp(r[near], mesh, w) - w_fd[near]))
        assert gap < 1e-8 * np.max(np.abs(w))

    def test_resolvent_past_the_step_budget_is_unconverged(self):
        # k h <= 1/4 would take 800 quadrature steps per mesh step at lambda = -1e10
        f = lambda r: np.exp(-((r - 2.0) / 0.5) ** 2)
        with pytest.raises(UnconvergedError):
            fkw.solve_fkw(BALL3, 0.5, POT, -1e10, {1: f})

    @pytest.mark.parametrize("beta", [8.0, 20.0])
    def test_resolvent_at_a_dirichlet_eigenvalue_is_near_singular(self, beta):
        # sector 1 is a Dirichlet sector: at its ground state the resolvent
        # does not exist, and the guard on max |w| must say so
        lam = ds.ground_state(BALL3.with_sector(1), POT, beta)
        gauss = lambda r: np.exp(-((r - 2.0) / 0.5) ** 2)
        with pytest.raises(NearSingularError):
            fkw.solve_fkw(BALL3, beta, POT, lam, {1: gauss})

    def test_higher_sector_source_is_pure_dirichlet(self):
        f1 = lambda r: np.exp(-((r - 2.0) / 0.5) ** 2)
        sol = fkw.solve_fkw(BALL3, 0.5, POT, -1.0, {1: f1})
        assert sol.alpha == 0.0
        mesh1, u1 = sol.sector_profiles[1]
        assert u1[0] == 0.0

    def test_alpha_continuous_in_lambda(self):
        f0 = lambda r: np.exp(-((r - 2.0) / 0.5) ** 2)
        lams = (-1.00, -1.01, -1.02)
        alphas = [fkw.solve_fkw(BALL3, 0.5, POT, lam, {0: f0}).alpha
                  for lam in lams]
        d1 = abs(alphas[1] - alphas[0])
        d2 = abs(alphas[2] - alphas[1])
        assert d1 < 0.05 * abs(alphas[0])
        assert d2 == pytest.approx(d1, rel=0.2)

    def test_near_singular_at_nonlocal_eigenvalue(self, monkeypatch):
        beta = 4.0
        lam0 = ds.ground_state(BALL3, POT, beta)  # sector-0 state of the pair
        g_at = fkw.gamma1(BALL3, beta, POT, lam0)
        assert abs(g_at) < 1e-5  # the flux constant degenerates exactly there
        f0 = lambda r: np.exp(-((r - 2.0) / 0.5) ** 2)
        monkeypatch.setattr(fkw, "GAMMA1_TOL", 1e-4)
        with pytest.raises(NearSingularError):
            fkw.solve_fkw(BALL3, beta, POT, lam0, {0: f0})


class TestSectorEquivalence:
    def test_matrices_match_entrywise(self):
        for l, bc in ((0, "neumann"), (1, "dirichlet"), (2, "dirichlet")):
            plain = ProblemSpec(3, "exterior_ball", bc, radius=1.0, sector=l)
            a = bs.assemble(BALL3.with_sector(l), POT, -0.5, m=48)
            b = bs.assemble(plain, POT, -0.5, m=48)
            assert np.array_equal(a.dense(), b.dense())


class TestNormLimit:
    def test_d3_bounded(self):
        out = fkw.fkw_norm_limit(BALL3, POT, m=200, sector_max=2)
        assert out["verdict"] == "bounded"
        assert out["mu_star"] > 0
        assert out["sectors"][0].verdict == "bounded"

    def test_d2_divergent_through_sector0(self):
        out = fkw.fkw_norm_limit(BALL2, POT, m=200, sector_max=2)
        assert out["verdict"] == "divergent"
        assert out["sectors"][0].verdict == "divergent"
        assert out["sectors"][0].log_divergence
        assert out["sectors"][1].verdict == "bounded"

    def test_d1_divergent(self):
        prob = ProblemSpec(1, "exterior_ball", "fkw", radius=1.0)
        pot = Potential(Profile.indicator(1.5, 2.5))
        out = fkw.fkw_norm_limit(prob, pot, m=200)
        assert out["verdict"] == "divergent"

    def test_zero_potential_trivially_bounded(self):
        out = fkw.fkw_norm_limit(BALL3, Potential(Profile.indicator(1.5, 2.5), 0.0),
                                 m=64, sector_max=1)
        assert out["verdict"] == "bounded"
        assert out["mu_star"] == 0.0

    def test_divergent_sector_outranks_an_indeterminate_one(self, monkeypatch):
        # in d = 2 the symmetric sector diverges by the rule, the others not
        def verdict(report):
            sector = report.metadata["sector"]
            return bs.Classification("divergent" if sector == 0 else "indeterminate",
                                     growth_per_decade=0.03)

        monkeypatch.setattr(bs, "classify_limit", verdict)
        assert bs.beta_critical(BALL2, POT, method="extrapolation", m=32,
                                sector_max=1) == 0.0
        assert fkw.fkw_norm_limit(BALL2, POT, m=32, sector_max=1)["verdict"] == "divergent"

    def test_a_tail_against_the_rule_is_a_discretization_failure(self, monkeypatch):
        # the d = 3 sectors are bounded by the rule, d = 2's symmetric one not
        monkeypatch.setattr(bs, "classify_limit", lambda report: bs.Classification(
            "divergent", growth_per_decade=0.2))
        with pytest.raises(UnconvergedError, match="against the boundary-condition rule"):
            fkw.fkw_norm_limit(BALL3, POT, m=32, sector_max=1)
        monkeypatch.setattr(bs, "classify_limit", lambda report: bs.Classification(
            "bounded", mu_star=1.0, growth_per_decade=0.0))
        with pytest.raises(UnconvergedError, match="sector 0 reads bounded"):
            fkw.fkw_norm_limit(BALL2, POT, m=32, sector_max=1)


class TestBetaCriticalFkw:
    def test_d3_positive_and_matched_by_oracle(self):
        value = fkw.beta_critical_fkw(BALL3, POT, m=300)
        k = brentq(lambda k: k * 1.0 + math.atan(1.5 * k) - 0.5 * math.pi,
                   1e-6, 3.0)
        assert value == pytest.approx(k * k, rel=1e-3)

    def test_d3_sector0_carries_the_threshold(self):
        limit = fkw.fkw_norm_limit(BALL3, POT, m=240, sector_max=3)
        mus = {l: c.mu_star for l, c in limit["sectors"].items()}
        assert max(mus, key=mus.get) == 0

    def test_d2_zero(self):
        assert fkw.beta_critical_fkw(BALL2, POT, m=240) == 0.0

    def test_zero_potential_sentinel(self):
        out = fkw.beta_critical_fkw(BALL3, Potential(Profile.indicator(1.5, 2.5), 0.0))
        assert out is None

    def test_sweeps_no_energy_grid(self, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("beta_critical_fkw swept the energy grid")

        monkeypatch.setattr(bs, "mu_curve", no_sweep)
        assert fkw.beta_critical_fkw(BALL2, POT, m=120, sector_max=1) == 0.0
        assert fkw.beta_critical_fkw(BALL3, POT, m=120, sector_max=1) > 0.0

    def test_indeterminate_sector_verdict_is_a_numerical_failure(self, monkeypatch, tmp_path,
                                                               capsys):
        monkeypatch.setattr(fkw, "fkw_norm_limit", lambda *args, **kwargs: {
            "verdict": "indeterminate", "mu_star": None, "sectors": {}})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "problem": {"geometry": "exterior_ball", "dimension": 3,
                        "boundary_condition": "fkw", "radius": 1.0},
            "potential": {"kind": "indicator", "support": [1.5, 2.5]},
            "numerics": {"m": 32, "lambda_decades": [2, 5]}}))
        assert cli.run("fkw", str(path), str(tmp_path)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        diag = json.loads(lines[0])
        assert (diag["error"], diag["type"]) == ("numerical-failure", "IndeterminateError")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
