import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from betacrit import birman_schwinger as bs
from betacrit import cli
from betacrit import direct_spectrum as ds
from betacrit import experiments as ex
from betacrit.errors import UnconvergedError, ValidationError
from betacrit.model import (CoefficientProfile, Potential, ProblemSpec,
                            Profile)
from betacrit.sector_ode import SectorODE, closure_radius

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

    def test_d3_count_runs_to_the_first_empty_sector(self):
        # sector 400 still holds 76 states here: no cap may cut the sum short
        pot = Potential(Profile.indicator(1.5, 2.5))
        beta, h = 1e5, 2e-3
        counter = ds.SpectrumCounter(BALL_D3, pot)
        assert counter.pencil(h, 400).count(beta) == 76
        counts = []
        while not counts or counts[-1]:
            counts.append(counter.pencil(h, len(counts)).count(beta))
        expected = sum((2 * l + 1) * c for l, c in enumerate(counts))
        assert ds.count_negative(BALL_D3, pot, beta, h=h, refine=False) == expected

    def test_coupling_past_the_mesh_resolution_is_unconverged(self):
        # beta max V h^2 = 40: every well node of every sector would count
        pot = Potential(Profile.indicator(1.5, 2.5))
        with pytest.raises(UnconvergedError) as err:
            ds.count_negative(BALL_D3, pot, 1e7, h=2e-3, refine=False)
        assert err.value.details == {"beta": 1e7, "h": 2e-3,
                                     "beta_max_v_h2": pytest.approx(40.0)}
        with pytest.raises(UnconvergedError):
            ds.count_negative(HALF_LINE_D, WELL, 1.01e6)  # h = 1e-3
        assert ds.count_negative(HALF_LINE_D, WELL, 1e6, refine=False) > 0

    def test_unconverged_between_mesh_thresholds(self):
        # brackets chosen so the coarse and the half-step mesh disagree
        coarse = ds.beta_critical_direct(HALF_LINE_D, WELL, tol=1e-9, h=0.12)
        finer = ds.beta_critical_direct(HALF_LINE_D, WELL, tol=1e-9, h=0.06)
        assert coarse != finer
        between = 0.5 * (coarse + finer)
        with pytest.raises(UnconvergedError) as err:
            ds.count_negative(HALF_LINE_D, WELL, between, h=0.12)
        assert err.value.details


class TestThreshold:
    def test_tolerance_below_the_float_spacing_ends_the_bisection(self):
        # it ran forever once lo and hi were adjacent floats
        fine = ds.beta_critical_direct(HALF_LINE_D, WELL, tol=1e-300, h=0.01)
        assert fine == pytest.approx(
            ds.beta_critical_direct(HALF_LINE_D, WELL, tol=1e-9, h=0.01), rel=1e-8)


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

    @pytest.mark.parametrize("support,beta", [((1.0, 2.0), 0.814), ((1.0, 2.0), 4.0),
                                              ((0.5, 1.3), 12.0), ((1.0, 2.0), 100.0)])
    def test_exact_on_piecewise_constant_wells(self, support, beta):
        # the Magnus step is exact where the coefficients are constant, so on
        # a half-line indicator well only the root search is left
        pot = Potential(Profile.indicator(*support))
        lam0 = ds.ground_state(HALF_LINE_D, pot, beta, tol=1e-15)
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
        lam0 = ds.ground_state(prob.with_sector(1), pot, 8.0, tol=1e-9)
        ref = oc.fd_ground_energy(3, 1, 1.0, (1.5, 2.5), 8.0)
        assert lam0 == pytest.approx(ref, rel=1e-6)
        assert ds.eigenvalue_residual(prob.with_sector(1), pot, 8.0, lam0) < 1e-6

    def test_d3_variable_coefficient_matches_fd_eigenvalue(self):
        a = CoefficientProfile(Profile(np.array([1.0, 2.0, 3.0]),
                                       np.array([2.0, 1.5, 1.0])), 3.0)
        prob = ProblemSpec(3, "exterior_ball", "dirichlet", radius=1.0,
                           coefficient=a)
        pot = Potential(Profile.indicator(1.5, 2.5))
        lam0 = ds.ground_state(prob, pot, 5.0, tol=1e-9)
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
        lam0 = ds.ground_state(prob, pot, 8.0, tol=1e-9)
        mesh, u = ds.eigenfunction(prob, pot, 8.0, lam0)
        assert np.trapezoid(u ** 2 * mesh ** 2, mesh) == pytest.approx(1.0, rel=1e-3)
        # the sector-1 profile decays like r^{-1} K_{3/2}(k r) past R*
        k, tail = np.sqrt(-lam0), mesh > 2.5
        ratio = u[tail] * mesh[tail] ** 2 * np.exp(k * mesh[tail]) / (1.0 + k * mesh[tail])
        assert ratio == pytest.approx(ratio[0], rel=1e-10)


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
        pencil = ds.SpectrumCounter(HALF_LINE_D, WELL).pencil(1e-2, 0)
        diag = pencil.diag(2.0)
        assert diag.size == pencil.grid.r.size - 1  # u(0) = 0 eliminated
        assert pencil.off.size == diag.size - 1
        assert pencil.mass.size == diag.size
        assert np.all(pencil.mass > 0)

    def test_mesh_ends_one_unit_past_the_support_edge(self):
        pencil = ds.SpectrumCounter(HALF_LINE_D, WELL).pencil(1e-2, 0)
        assert pencil.grid.r[-1] == pytest.approx(3.0, abs=1e-12)

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
        assert ds._sturm_count(diag, off) == int(np.sum(eig < 0))

    @settings(max_examples=400, deadline=None)
    @given(_sturm_inputs())
    def test_lapack_count_matches_the_python_sturm_loop(self, tri):
        diag, off = tri
        count, loop = ds._sturm_count(diag, off), oc.sturm_count(diag, off)
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


def _one_shot_operator(problem, potential, beta, h, sector, closure_lambda):
    """(mesh, diag, off, mass) assembled in one pass, the way the pencil's
    single build did it before the coupling was factored out."""
    ode = SectorODE(problem.with_sector(sector))
    r_in = problem.inner_radius
    r_out = closure_radius(problem, potential) + 1.0
    n = max(8, int(round((r_out - r_in) / h)))
    r = r_in + h * np.arange(n + 1)
    _, q, weight = ode.coefficients(r)
    q = q - beta * potential.cell_average(r, float(r[1] - r[0])) * weight
    p_half = ode.coefficients(r[:-1] + 0.5 * h)[0]
    _, flux_out = ode.decay_state(closure_lambda, r[-1])
    diag = np.empty(n + 1)
    diag[1:-1] = (p_half[:-1] + p_half[1:]) / h + q[1:-1] * h
    diag[0] = p_half[0] / h + q[0] * 0.5 * h
    diag[-1] = p_half[-1] / h + q[-1] * 0.5 * h - flux_out
    off = -p_half / h
    mass = weight * h
    mass[0] *= 0.5
    mass[-1] *= 0.5
    if ode.bc == "neumann":
        return r, diag, off, mass
    mass = mass[1:].copy()
    mass[0] = weight[1] * h
    return r[1:], diag[1:], off[1:], mass


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
           st.lists(st.tuples(st.floats(0.0, 300.0),
                              st.one_of(st.just(0.0), st.floats(-50.0, -1e-6))),
                    min_size=1, max_size=6))
    def test_reused_pencil_matches_a_one_shot_build_bit_for_bit(self, case, shape,
                                                                queries):
        prob, sector = case
        lo = prob.inner_radius + 0.4
        pot = Potential(getattr(Profile, shape)(lo, lo + 0.9), 1.3)
        h = 5e-3
        pencil = ds.SpectrumCounter(prob, pot).pencil(h, sector)
        for beta, lam in queries:
            fresh = ds.SectorPencil(ds._mesh(prob, pot, h), prob.with_sector(sector))
            mesh, diag, off, mass = _one_shot_operator(prob, pot, beta, h, sector, lam)
            for kept in (pencil, fresh):
                assert np.array_equal(kept.grid.r[kept.first:], mesh)
                assert np.array_equal(kept.diag(beta, lam), diag)
                assert np.array_equal(kept.off, off)
                assert np.array_equal(kept.mass, mass)
            assert pencil.count(beta) == oc.sturm_count(pencil.diag(beta), pencil.off)


class TestPencilSharing:
    """Each (h, sector) pencil is built once per call, and never kept between calls."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        pencil = ds.SectorPencil

        def counted(mesh, problem):
            built.append((mesh.h, problem.sector))
            return pencil(mesh, problem)

        monkeypatch.setattr(ds, "SectorPencil", counted)
        return built

    def test_threshold_bisection(self, builds):
        pot = Potential(Profile.indicator(1.5, 2.5))
        ds.beta_critical_direct(BALL_D3, pot, tol=1e-6, h=4e-3)
        assert builds == [(4e-3, 0)]

    def test_counting_audit_grid(self, builds):
        pot = Potential(Profile.indicator(1.5, 2.5))
        ex.clr_audit(BALL_D3, pot, [1.3, 5.0, 20.0, 80.0], h=4e-3, refine=True)
        assert len(builds) == len(set(builds))
        assert {h for h, _ in builds} == {4e-3, 2e-3}
        sectors = sorted(l for h, l in builds if h == 4e-3)
        assert sectors == list(range(len(sectors))) and len(sectors) > 3

    def test_direct_runner_once_per_run(self, builds, tmp_path):
        cfg = {"problem": {"geometry": "half_line", "dimension": 1,
                           "boundary_condition": "dirichlet"},
               "potential": {"kind": "indicator", "support": [1.0, 2.0]},
               "numerics": {"mesh_h": 0.004},
               "study": {"beta_grid": [0.5, 4.0, 30.0]}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli.run("direct", str(path), str(tmp_path)) == 0
        first = list(builds)
        # rows at h and h/2 and the threshold at h share the run's pencils
        assert first == [(0.004, 0), (0.002, 0)]
        assert cli.run("direct", str(path), str(tmp_path)) == 0
        assert builds[len(first):] == first  # the second run builds its own


class TestCountMonotone:
    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from((HALF_LINE_D, HALF_LINE_N, BALL_D3)),
           st.sampled_from(("indicator", "tent", "bump")),
           st.floats(0.0, 1.0), st.floats(0.3, 1.5),
           st.lists(st.floats(0.0, 150.0), min_size=2, max_size=6))
    def test_nondecreasing_in_beta(self, prob, shape, offset, width, betas):
        lo = prob.inner_radius + offset
        counter = ds.SpectrumCounter(prob, Potential(getattr(Profile, shape)(lo, lo + width)))
        counts = {beta: counter.count(beta, h=4e-3, refine=False) for beta in betas}
        ordered = [counts[beta] for beta in sorted(counts)]
        assert ordered == sorted(ordered)


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
        pencil = ds.SpectrumCounter(prob, pot).pencil(2e-3, 0)
        energies = []
        for c in factors:
            beta = c * beta_cr
            lam0 = ds.ground_state(prob, pot, beta)
            assert (lam0 is None) == (pencil.count(beta) == 0)
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
        tol = 1e-7
        direct = ds.beta_critical_direct(prob, well, tol=tol, h=4e-3)
        direct_c = ds.beta_critical_direct(prob, scaled, tol=tol, h=4e-3)
        # each bisection stops within tol * max(1, beta) of the mesh threshold
        bound = tol * (max(1.0, direct_c) + max(1.0, direct) / c)
        assert abs(direct_c - direct / c) <= bound


class TestDilation:
    """On the half-line with a Dirichlet condition, V_s(x) = s^-2 V(x / s)
    has the threshold of V: the limit kernel min(x, y) scales like s, and a
    mesh scaled with the well sees the same pencil up to the flat tail."""

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
        h = 2e-3
        direct = [ds.beta_critical_direct(HALF_LINE_D, pot, h=h),
                  ds.beta_critical_direct(HALF_LINE_D, dilated, h=h * s)]
        assert direct[1] == pytest.approx(direct[0], rel=1e-9)
