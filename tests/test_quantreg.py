import math
import re
import warnings
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coves import quantreg
from coves.coves_test import Dataset, design_matrix
from coves.errors import ConvergenceError, CovesError, DegenerateDesignError, NumericalError, OracleSizeError
from coves.orderstats import empirical_quantile
from coves.quantreg import (
    EXTREME_TAU,
    KINK_WINDOW,
    MAX_ITER,
    TIE_RTOL,
    RegressionData,
    _BOUND_FLOOR,
    _NOISE_RTOL,
    _col_absmax,
    _greedy_rows,
    _key_columns,
    _kinks_to_stop,
    _on_plane,
    _plane_cap,
    _project_out,
    _stable_head,
    _start_basis,
    fit_group_quantiles,
    fit_rq,
    rho_tau,
    rq_oracle,
)

# Pinned before the solver was built: vertex enumeration on the fixed
# 10-point dataset below, tau = 0.75.
PIN10_C = np.array([2.235, 2.869, 2.679, 1.894, 1.857, 1.763, 2.586, 2.067, 2.125, 2.097])
PIN10_Z = np.array([8.179, 8.758, 8.437, 4.429, 6.484, 8.2, 6.899, 6.749, 7.81, 7.395])
PIN10_D = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
PIN10_BETA = (5.8693454258675128, 0.26854258675078968, 0.91324921135646453)
PIN10_OBJ = 2.4567783911671919


def pin10_data():
    X = np.column_stack([np.ones(10), PIN10_D, PIN10_C])
    return RegressionData(PIN10_Z, X)


def random_instance(seed, n_max=12):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, n_max + 1))
    p = int(rng.integers(1, 4))
    while True:
        X = rng.normal(size=(n, p))
        X[:, 0] = 1.0
        if np.linalg.matrix_rank(X) == p:
            break
    y = rng.normal(size=n) * float(rng.uniform(0.5, 5.0))
    tau = float(rng.choice([0.25, 0.5, 0.75, 0.9]))
    return RegressionData(y, X), tau


class TestRegressionData:
    def test_rejects_two_dimensional_y(self):
        with pytest.raises(ValueError, match=r"^y must be 1-d and X 2-d$"):
            RegressionData(np.ones((3, 1)), np.ones((3, 1)))

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError, match=r"^y and X disagree on the number of observations$"):
            RegressionData(np.ones(3), np.ones((4, 1)))

    def test_requires_finite(self):
        with pytest.raises(ValueError):
            RegressionData(np.array([1.0, np.nan]), np.ones((2, 1)))

    def test_requires_enough_rows(self):
        with pytest.raises(ValueError):
            RegressionData(np.array([1.0]), np.ones((1, 2)))


class TestRhoTau:
    def test_positive_branch(self):
        assert rho_tau(2.0, 0.75) == 1.5

    def test_negative_branch(self):
        assert rho_tau(-2.0, 0.75) == 0.5

    def test_zero(self):
        for tau in (0.1, 0.5, 0.9):
            assert rho_tau(0.0, tau) == 0.0

    def test_vectorized(self):
        out = rho_tau(np.array([2.0, -2.0, 0.0]), 0.75)
        assert np.allclose(out, [1.5, 0.5, 0.0])

    def test_nonnegative(self):
        u = np.linspace(-5, 5, 101)
        assert np.all(rho_tau(u, 0.3) >= 0.0)

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.1, 1.5])
    def test_tau_domain(self, tau):
        with pytest.raises(ValueError):
            rho_tau(1.0, tau)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(-50, 50),
        st.floats(-50, 50),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(0.0, 1.0),
    )
    def test_convexity(self, a, b, tau, lam):
        mix = rho_tau(lam * a + (1 - lam) * b, tau)
        assert mix <= lam * rho_tau(a, tau) + (1 - lam) * rho_tau(b, tau) + 1e-9


class TestOracle:
    def test_intercept_only_median(self):
        data = RegressionData(np.array([1.0, 2.0, 3.0]), np.ones((3, 1)))
        fit = rq_oracle(data, 0.5)
        assert fit.beta[0] == 2.0
        assert fit.objective == 1.0

    def test_exact_linear_data(self):
        rng = np.random.default_rng(3)
        d = (np.arange(12) % 2).astype(float)
        c = rng.normal(size=12)
        X = np.column_stack([np.ones(12), d, c])
        y = 1.0 + 2.0 * d + 0.5 * c
        fit = rq_oracle(RegressionData(y, X), 0.25)
        assert fit.objective <= 1e-12
        assert np.allclose(fit.beta, [1.0, 2.0, 0.5], atol=1e-9)

    def test_size_guard(self):
        data = RegressionData(np.zeros(21), np.ones((21, 1)))
        with pytest.raises(OracleSizeError):
            rq_oracle(data, 0.5)


class TestFitRq:
    @pytest.mark.parametrize("tau", [0.25, 0.5, 0.9])
    def test_exact_interpolation(self, tau):
        rng = np.random.default_rng(7)
        n = 15
        d = (np.arange(n) % 2).astype(float)
        c = rng.normal(size=n)
        X = np.column_stack([np.ones(n), d, c])
        y = 1.0 + 2.0 * d + 0.5 * c
        fit = fit_rq(RegressionData(y, X), tau)
        assert np.allclose(fit.beta, [1.0, 2.0, 0.5], atol=1e-9)
        assert fit.objective <= 1e-12
        assert len(fit.zero_set) == n

    def test_intercept_only_median(self):
        fit = fit_rq(RegressionData(np.array([1.0, 2.0, 3.0]), np.ones((3, 1))), 0.5)
        assert fit.beta[0] == 2.0
        assert fit.objective == 1.0

    def test_pinned_ten_point(self):
        fit = fit_rq(pin10_data(), 0.75)
        assert np.allclose(fit.beta, PIN10_BETA, rtol=1e-9)
        assert fit.objective == pytest.approx(PIN10_OBJ, rel=1e-10)
        oracle = rq_oracle(pin10_data(), 0.75)
        assert oracle.objective == pytest.approx(PIN10_OBJ, rel=1e-12)

    def test_matches_oracle_on_random_instances(self):
        for k in range(150):
            data, tau = random_instance(5000 + k)
            fo = rq_oracle(data, tau)
            ff = fit_rq(data, tau)
            assert abs(ff.objective - fo.objective) <= 1e-8 * (1 + fo.objective)

    def test_sign_count_optimality(self):
        for k in range(80):
            data, tau = random_instance(9000 + k)
            fit = fit_rq(data, tau)
            # Under the zero tolerance: #negative <= n*tau <= #nonpositive.
            n_neg = int(np.sum(fit.residuals < -fit.zero_tol))
            n_nonpos = int(np.sum(fit.residuals <= fit.zero_tol))
            assert n_neg <= data.n * tau <= n_nonpos

    def test_vertex_has_p_zeros(self):
        for k in range(30):
            data, tau = random_instance(400 + k)
            fit = fit_rq(data, tau)
            assert len(fit.zero_set) >= data.p

    def test_shift_equivariance(self):
        rng = np.random.default_rng(11)
        for k in range(20):
            data, tau = random_instance(600 + k)
            coef = rng.normal(size=data.p)
            base = fit_rq(data, tau)
            shifted = fit_rq(RegressionData(data.y + data.X @ coef, data.X), tau)
            assert np.allclose(shifted.beta, base.beta + coef, atol=1e-8 * (1 + np.abs(base.beta).max()))
            assert shifted.objective == pytest.approx(base.objective, rel=1e-8, abs=1e-10)

    def test_scale_equivariance(self):
        for k in range(20):
            data, tau = random_instance(700 + k)
            s = 3.5
            base = fit_rq(data, tau)
            scaled = fit_rq(RegressionData(s * data.y, data.X), tau)
            assert np.allclose(scaled.beta, s * base.beta, atol=1e-8 * (1 + np.abs(base.beta).max()))
            assert scaled.objective == pytest.approx(s * base.objective, rel=1e-8, abs=1e-10)

    def test_rank_deficient_design(self):
        X = np.column_stack([np.ones(6), np.ones(6)])
        with pytest.raises(DegenerateDesignError):
            RegressionData(np.arange(6.0), X)

    def test_tau_domain(self):
        data = RegressionData(np.array([1.0, 2.0, 3.0]), np.ones((3, 1)))
        with pytest.raises(ValueError):
            fit_rq(data, 1.0)

    def test_objective_consistent_with_residuals(self):
        data, tau = random_instance(123)
        fit = fit_rq(data, tau)
        assert fit.objective == pytest.approx(float(np.sum(rho_tau(fit.residuals, tau))), rel=1e-12)


def highs_objective(X, y, tau):
    """Optimal check objective from HiGHS, by the dual of the LP:
    max y'a  s.t.  X'a = 0,  tau - 1 <= a <= tau."""
    from scipy.optimize import linprog

    sol = linprog(-y, A_eq=X.T, b_eq=np.zeros(X.shape[1]), bounds=(tau - 1.0, tau), method="highs")
    assert sol.status == 0, sol.message
    return float(y @ sol.x)


class TestInteriorPointBreakdown:
    # Stand-in replications on which the former interior-point solver
    # broke down a step short of convergence: a dual slack of the
    # covariate-adjusted fit rounded to exactly zero.
    SEEDS = [((7, 12, 52), 24, 12), ((9, 12, 70), 24, 12), ((8, 20, 195), 40, 20)]
    # run_coves p-values at tau = 0.75, as an independent prototype of the
    # simplex gave them to four digits.
    P_VALUES = {(7, 12, 52): 0.0312, (9, 12, 70): 0.1004, (8, 20, 195): 0.0123}

    @staticmethod
    def problem(key, m, n):
        from coves.mc_engine import replication_seed
        from coves.simgen import TargetedSampler, load_standin

        return TargetedSampler(*load_standin())(m, n, replication_seed(*key))

    @pytest.mark.parametrize("key,m,n", SEEDS)
    def test_reaches_lp_optimum(self, key, m, n):
        from coves.coves_test import run_coves

        data = self.problem(key, m, n)
        X = design_matrix(data, True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_rq(RegressionData(data.z, X), 0.75)
            report = run_coves(data, 0.75)
        best = highs_objective(X, data.z, 0.75)
        assert fit.objective == pytest.approx(best, rel=1e-12)
        assert report.p_value == pytest.approx(self.P_VALUES[key], abs=5e-5)

    @pytest.mark.parametrize("key,m,n", SEEDS)
    def test_raises_convergence_error(self, key, m, n, monkeypatch):
        # More pivots than the cap allows end in ConvergenceError, with no
        # numpy warning; the es test solves no LP and is not affected.
        from coves import quantreg
        from coves.coves_test import run_coves, run_es

        data = self.problem(key, m, n)
        monkeypatch.setattr(quantreg, "MAX_ITER", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="MAX_ITER = 1 pivots"):
                fit_rq(RegressionData(data.z, design_matrix(data, True)), 0.75)
            with pytest.raises(ConvergenceError):
                run_coves(data, 0.75)
        assert 0.0 <= run_es(data, 0.75).p_value <= 1.0


def beta_gap(rd, beta, ref):
    """Distance of beta from ref, relative to the data: the larger of the
    gap in fitted values over max|y| and the gap in coefficients over
    max|ref| (a zero scale counts as 1)."""
    fitted = np.max(np.abs(rd.X @ (beta - ref))) / (np.max(np.abs(rd.y)) or 1.0)
    return max(fitted, np.max(np.abs(beta - ref)) / (np.max(np.abs(ref)) or 1.0))


def tied_treated_shortfall_counts(data, X, tau):
    """Treated shortfall counts over every optimal vertex, by enumeration.

    A vertex is optimal when its objective lies in the oracle's relative
    tie window, TIE_RTOL, of the minimum.
    """
    y = data.z
    subsets = np.array(list(combinations(range(y.size), X.shape[1])))
    mats = X[subsets]
    ok = np.abs(np.linalg.det(mats)) > 1e-12 * np.prod(np.linalg.norm(mats, axis=2), axis=1)
    betas = np.linalg.solve(mats[ok], y[subsets[ok]][..., None])[..., 0]
    res = y - betas @ X.T
    objs = np.sum(res * (tau - (res < 0)), axis=1)
    best = objs.min()
    tied = res[objs <= best + TIE_RTOL * abs(best)]
    ztol = 1e-9 * np.max(np.abs(y))
    return set(np.sum(tied[:, data.d == 1] > ztol, axis=1).tolist())


class TestDegenerateDesigns:
    # Scenario 2 at (8,8): tau*N_d is an integer for tau in {0.5, 0.75},
    # so the LP optimum is a whole face rather than a single vertex.
    SEEDS = range(40)
    CASES = [(0.5, True), (0.5, False), (0.75, True), (0.75, False)]
    # Faces on which the former interior-point solver's polish kept a
    # point that was not a vertex.
    KNOWN_FACES = {(0.75, True): {27, 31}, (0.75, False): {27}}

    @staticmethod
    def problem(seed, cov, size=8):
        from coves.simgen import ScenarioSpec, sample_scenario

        data = sample_scenario(ScenarioSpec.from_scenario(2, 0.0), size, size, seed)
        X = design_matrix(data, cov)
        return data, X, RegressionData(data.z, X)

    @pytest.mark.parametrize("tau,cov", CASES)
    def test_objective_matches_oracle(self, tau, cov):
        # The objective, and beta itself: both return the canonical point.
        for seed in self.SEEDS:
            _, _, rd = self.problem(seed, cov)
            fo = rq_oracle(rd, tau)
            fit = fit_rq(rd, tau)
            assert fit.objective == pytest.approx(fo.objective, rel=1e-9), seed
            assert beta_gap(rd, fit.beta, fo.beta) <= 1e-9, seed

    @pytest.mark.parametrize("tau,cov", CASES)
    def test_fit_is_vertex(self, tau, cov):
        for seed in self.SEEDS:
            _, X, rd = self.problem(seed, cov)
            assert len(fit_rq(rd, tau).zero_set) >= X.shape[1], seed

    @pytest.mark.parametrize(
        "tau,cov,seed",
        [(*case, seed) for case, seeds in KNOWN_FACES.items() for seed in sorted(seeds)],
    )
    def test_fit_is_vertex_on_known_faces(self, tau, cov, seed):
        _, X, rd = self.problem(seed, cov)
        assert len(fit_rq(rd, tau).zero_set) >= X.shape[1]

    @pytest.mark.parametrize("tau,cov", CASES)
    def test_optimal_vertices_disagree_on_treated_shortfall(self, tau, cov):
        # Which optimal vertex the solver returns fixes s_1, and so the
        # statistic; the canonical rule decides it.
        assert any(
            len(tied_treated_shortfall_counts(data, X, tau)) > 1
            for data, X, _ in (self.problem(seed, cov) for seed in self.SEEDS)
        )

    def test_unique_shortfall_when_tau_n_is_fractional(self):
        # (10,10) at tau = 0.75: tau*N_d = 7.5, the optimum is one vertex.
        for seed in self.SEEDS:
            data, X, _ = self.problem(seed, True, size=10)
            assert len(tied_treated_shortfall_counts(data, X, 0.75)) == 1, seed


class TestLargeDesignPins:
    # mc-large-shaped replications: scenario 3 null at (5000, 5000), tau =
    # 0.75, so tau*N_d = 3750 and the optimum is a whole face.  The coves
    # pins are the canonical point: the least optimal gamma, checked with
    # HiGHS by minimizing and maximizing gamma over the optimal face, and
    # as intercepts each group's 3750th order statistic of z - gamma*c.
    # In rep 1 gamma is not unique, and its least value leaves a pair of
    # treated points on the plane, so 1249 treated points lie above it.
    # The es fit is each group's 3750th order statistic, which leaves 1250
    # of the 5000 tie-free outcomes strictly above it.
    PINS = [
        (0, (1250, 1249), 3200.3514045774737, (1250, 1250), 3534.3985803235823),
        (1, (1249, 1250), 3174.4006143355546, (1250, 1250), 3526.8385294017858),
        (2, (1249, 1250), 3181.778818709867, (1250, 1250), 3552.433858021427),
    ]

    @staticmethod
    def data(rep):
        from coves.mc_engine import replication_seed
        from coves.simgen import ScenarioSampler, ScenarioSpec

        return ScenarioSampler(ScenarioSpec.from_scenario(3, 0.0))(5000, 5000, replication_seed(0, 0, rep))

    @pytest.mark.parametrize("pin", PINS, ids=lambda pin: f"rep{pin[0]}")
    def test_shortfall_counts_and_objective(self, pin):
        rep, coves_counts, coves_obj, es_counts, es_obj = pin
        from coves.coves_test import run_coves, run_es

        data = self.data(rep)
        coves = run_coves(data, 0.75)
        es = run_es(data, 0.75)
        assert coves.s_counts == coves_counts
        assert coves.fit.objective == pytest.approx(coves_obj, rel=1e-12)
        assert es.s_counts == es_counts
        assert es.fit.objective == pytest.approx(es_obj, rel=1e-12)

    @pytest.mark.parametrize("rep", [0, 1, 2])
    def test_optimal_with_order_statistic_intercepts(self, rep):
        from coves.orderstats import empirical_quantile

        data = self.data(rep)
        X = design_matrix(data, True)
        fit = fit_rq(RegressionData(data.z, X), 0.75)
        assert fit.objective == pytest.approx(highs_objective(X, data.z, 0.75), rel=1e-12)
        adjusted = data.z - fit.beta[2] * data.c
        q0 = empirical_quantile(adjusted[data.d == 0], 0.75)
        q1 = empirical_quantile(adjusted[data.d == 1], 0.75)
        assert fit.beta[0] == pytest.approx(q0, rel=1e-12)
        assert fit.beta[0] + fit.beta[1] == pytest.approx(q1, rel=1e-12)


def two_sample(y, d):
    d = np.asarray(d, dtype=float)
    return RegressionData(np.asarray(y, dtype=float), np.column_stack([np.ones(d.size), d]))


def group_fit(rd, tau):
    """fit_group_quantiles on the outcomes and group masks of a (1, d) design."""
    d = rd.X[:, 1]
    return fit_group_quantiles(rd.y, (d == 1, d == 0), tau)


def assert_same_fit(a, b):
    assert a.beta.tobytes() == b.beta.tobytes()
    assert a.residuals.tobytes() == b.residuals.tobytes()
    assert a.objective == b.objective
    assert np.array_equal(a.zero_set, b.zero_set)
    assert a.zero_tol == b.zero_tol


def assert_lower_end(rd, fit, tau):
    """Each group's fitted quantile q is the lower end of its optimal
    interval under fit_rq's flat-edge window, TIE_RTOL*N_d on (1, d):
    raising q does not descend, #{z <= q} - tau*N_d >= -TIE_RTOL*N_d, and
    lowering q ascends, tau*N_d - #{z < q} > TIE_RTOL*N_d, unless q is
    the group's least value.  z - q has the sign of z - q exactly."""
    for g in (0.0, 1.0):
        r = fit.residuals[rd.X[:, 1] == g]
        window = TIE_RTOL * r.size
        below = np.sum(r < 0.0)
        assert np.sum(r <= 0.0) - tau * r.size >= -window, (g, tau)
        assert below == 0 or tau * r.size - below > window, (g, tau)


def hair_above_designs():
    """(tau, N_0, N_1) with tau = k/100, N_0 <= 160 and N_1 in {N_0, N_0 + 7},
    where some group's tau*N_d is a float a hair above an integer, inside
    fit_rq's flat-edge window TIE_RTOL*N_d (0.55*100 = 55.000000000000007)."""
    for k in range(1, 100):
        tau = k / 100
        for n0 in range(1, 161):
            for n1 in (n0, n0 + 7):
                if any(0.0 < tau * n - round(tau * n) <= TIE_RTOL * n for n in (n0, n1)):
                    yield tau, n0, n1


class TestGroupQuantileFit:
    @staticmethod
    def scenario(sc, eta, m, n, seed):
        from coves.simgen import ScenarioSpec, sample_scenario

        data = sample_scenario(ScenarioSpec.from_scenario(sc, eta), m, n, seed)
        return RegressionData(data.z, design_matrix(data, False))

    @settings(max_examples=300, deadline=None)
    @given(
        groups=st.lists(st.booleans(), min_size=2, max_size=20).filter(lambda g: 0 < sum(g) < len(g)),
        ties=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-8, 1.0, 1e8]),
        tau=st.sampled_from([0.01, 0.5, 0.99]),
    )
    def test_matches_oracle_at_lower_end(self, groups, ties, seed, scale, tau):
        # Heavy ties: a handful of distinct integer outcomes, as in the
        # stand-in design.  At tau = 0.5 an even group has an integral
        # tau*N_d, and its optimum is an interval.
        rng = np.random.default_rng(seed)
        n = len(groups)
        y = rng.integers(0, 4, size=n) if ties else rng.normal(size=n)
        data = two_sample(scale * y, groups)
        fit = group_fit(data, tau)
        oracle = rq_oracle(data, tau)
        atol = 1e-9 * (1.0 + np.max(np.abs(data.y)))
        assert fit.objective == pytest.approx(oracle.objective, rel=1e-9, abs=atol)
        assert_lower_end(data, fit, tau)

    def test_integral_tau_n_takes_lower_end(self):
        # (8,8) at tau = 0.75: tau*N_d = 6, so every point between the 6th
        # and 7th order statistics is optimal; the fit takes the 6th.
        for seed in range(10):
            rd = self.scenario(2, 0.0, 8, 8, seed)
            fit = group_fit(rd, 0.75)
            d = rd.X[:, 1]
            assert fit.beta[0] == np.sort(rd.y[d == 0])[5], seed
            assert fit.beta[0] + fit.beta[1] == np.sort(rd.y[d == 1])[5], seed
            assert fit.objective == pytest.approx(rq_oracle(rd, 0.75).objective, rel=1e-12), seed

    def test_near_integral_tau_n_matches_fit_rq(self):
        # One tau*N_d rule on both paths: fit_rq counts a slope within
        # TIE_RTOL*N_d of zero as flat, so a tau*N_d a hair above an
        # integer k takes the k-th order statistic, the lower end.  The
        # float product once took the (k+1)-th on all 54 such designs.
        designs = list(hair_above_designs())
        assert len(designs) == 54
        for i, (tau, n0, n1) in enumerate(designs):
            z = np.random.default_rng(i).normal(size=n0 + n1)
            rd = two_sample(z, [1] * n1 + [0] * n0)
            fit, ref = group_fit(rd, tau), fit_rq(rd, tau)
            case = (tau, n0, n1)
            assert np.array_equal(fit.positive_mask(), ref.positive_mask()), case
            assert np.array_equal(fit.zero_set, ref.zero_set), case
            ulp = np.spacing(np.abs(ref.beta).max())
            assert np.all(np.abs(fit.beta - ref.beta) <= 4 * ulp), case
            assert_lower_end(rd, fit, tau)

    @pytest.mark.parametrize("tau,size", [(0.1, 30), (0.55, 100), (0.7, 90)])
    def test_near_integral_tau_n_takes_ceil_order_statistic(self, tau, size):
        # tau*N_d in floats: 0.1*30 rounds to exactly 3, 0.55*100 lands a
        # hair above 55 and 0.7*90 a hair below 63.  The fit takes the
        # ceil(tau*N_d - TIE_RTOL*N_d)-th order statistic: 3, 55 and 63.
        assert abs(tau * size - round(tau * size)) < 1e-13
        k = {30: 3, 100: 55, 90: 63}[size]
        assert k == int(np.ceil(tau * size - TIE_RTOL * size))
        for seed in range(10):
            rd = self.scenario(1, 0.0, size, size, seed)
            fit = group_fit(rd, tau)
            assert fit.beta[0] == np.sort(rd.y[rd.X[:, 1] == 0])[k - 1], seed
            assert np.array_equal(fit.positive_mask(), fit_rq(rd, tau).positive_mask()), seed
            assert_lower_end(rd, fit, tau)

    @pytest.mark.parametrize("tau", [5e-324, 1e-10, TIE_RTOL, 2e-9, 1e-6])
    def test_tau_inside_tie_window_takes_least_value(self, tau):
        # tau*N_d - TIE_RTOL*N_d <= 0 (or tau*N_d < 1): k_d clamps to 1,
        # each group's least value, the oracle's point.  fit_rq refuses
        # every such tau, below EXTREME_TAU, on (1, d) as on every design.
        z = np.random.default_rng(0).normal(size=12)
        rd = two_sample(z, [1] * 6 + [0] * 6)
        fit = group_fit(rd, tau)
        assert tuple(fit.beta) == (z[6:].min(), z[:6].min() - z[6:].min())
        assert np.array_equal(fit.beta, rq_oracle(rd, tau).beta)
        assert_lower_end(rd, fit, tau)
        with pytest.raises(NumericalError, match=r"^tau = .* lies within 0\.0001 of 0 or 1 "):
            fit_rq(rd, tau)

    def test_row_order_does_not_matter(self):
        # Scenario 2 at (50,50), tau = 0.5: tau*N_d = 25, so the optimum is
        # an interval.  Reversing the rows once moved the p-value from
        # 0.0565 to 0.0285, across alpha = 0.05.
        from coves.coves_test import Dataset, run_es
        from coves.simgen import ScenarioSpec, sample_scenario

        data = sample_scenario(ScenarioSpec.from_scenario(2, 0.0), 50, 50, 0)
        rev = Dataset(z=data.z[::-1], d=data.d[::-1], c=data.c[::-1])
        a, b = run_es(data, 0.5), run_es(rev, 0.5)
        assert a.fit.beta.tobytes() == b.fit.beta.tobytes()
        assert a.s_counts == b.s_counts
        assert a.p_value == pytest.approx(b.p_value, rel=1e-12)

    def test_run_es_solves_no_lp(self, monkeypatch):
        from coves import coves_test, quantreg
        from coves.simgen import ScenarioSpec, sample_scenario

        def forbidden(*args, **kwargs):
            raise AssertionError("run_es reached the LP path")

        monkeypatch.setattr(coves_test, "fit_rq", forbidden)
        monkeypatch.setattr(coves_test, "RegressionData", forbidden)
        monkeypatch.setattr(quantreg, "_enumerate_vertices", forbidden)
        for size, tau in [(8, 0.75), (50, 0.5), (50, 0.75)]:
            data = sample_scenario(ScenarioSpec.from_scenario(2, 0.0), size, size, 1)
            assert 0.0 <= coves_test.run_es(data, tau).p_value <= 1.0

    def test_integral_tau_n_with_tied_order_statistic_is_taken(self):
        # tau*N_d = 6 in both groups, and z_(6) = z_(7): the objective rises
        # on both sides of the 6th order statistic, so the optimum is unique.
        y1 = [5.0, 1.0, 5.0, 2.0, 6.0, 4.0, 3.0, 0.5]
        y0 = [2.5, 7.0, 1.5, 6.5, 6.5, 0.0, 3.5, 4.5]
        data = two_sample(y1 + y0, [1] * 8 + [0] * 8)
        fit = group_fit(data, 0.75)
        assert tuple(fit.beta) == (6.5, 5.0 - 6.5)
        assert np.allclose(fit.beta, rq_oracle(data, 0.75).beta, rtol=0.0, atol=1e-12)
        assert_same_fit(fit, fit_rq(data, 0.75))

    @pytest.mark.parametrize("sc", [1, 2, 3, 4])
    def test_bit_identical_to_fit_rq(self, sc):
        # tau*N_d = 37.5 at (50,50), tau = 0.75: the optimum is one vertex.
        # Shuffled rows with the treated group shifted far from the control
        # group make fit_rq's bits depend on the row order of its 2x2
        # system; there beta agrees to a few ulp of its largest entry, the
        # rounding of q_1 - q_0.
        for eta in (0.0, 1.35):
            for seed in range(5):
                data = self.scenario(sc, eta, 50, 50, seed)
                assert_same_fit(group_fit(data, 0.75), fit_rq(data, 0.75))
                perm = np.random.default_rng(seed).permutation(100)
                d = data.X[perm, 1]
                shifted = two_sample(data.y[perm] + 100.3 * d, d)
                fit, ref = group_fit(shifted, 0.75), fit_rq(shifted, 0.75)
                assert np.array_equal(fit.positive_mask(), ref.positive_mask()), (eta, seed)
                assert np.array_equal(fit.zero_set, ref.zero_set), (eta, seed)
                ulp = np.spacing(np.abs(ref.beta).max())
                assert np.all(np.abs(fit.beta - ref.beta) <= 4 * ulp), (eta, seed)

    def test_large_design_pin(self):
        # Scenario 3 null at (5001, 5001), tau = 0.75, replication_seed(0, 0, 0):
        # the run_es fit recorded from fit_rq before this path existed.
        from coves.coves_test import run_es
        from coves.mc_engine import replication_seed
        from coves.simgen import ScenarioSampler, ScenarioSpec

        data = ScenarioSampler(ScenarioSpec.from_scenario(3, 0.0))(5001, 5001, replication_seed(0, 0, 0))
        es = run_es(data, 0.75)
        assert tuple(es.fit.beta) == (8.233489113599779, 0.5389205662965058)
        assert es.fit.objective == 3539.218795169274
        assert es.fit.zero_set.tolist() == [2619, 5515]
        assert es.s_counts == (1250, 1250)
        assert es.p_value == 1.7806046322473903e-56


class TestCanonicalFit:
    # fit_rq returns the lexicographic minimum of the key (columns 2, ...,
    # p-1, then 0, then 1) over the optimal face, as rq_oracle does by
    # enumeration: one point, whatever the row order.
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(4, 16),
        p=st.integers(1, 3),
        ties=st.booleans(),
        discrete=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-8, 1.0, 1e8]),
        tau=st.sampled_from([0.01, 0.25, 0.5, 0.75, 0.99]),
    )
    def test_matches_oracle_on_tie_heavy_designs(self, n, p, ties, discrete, seed, scale, tau):
        # Like the stand-in design: few distinct outcomes, a treatment
        # indicator and a covariate with 4 distinct values.
        rng = np.random.default_rng(seed)
        c = rng.integers(0, 4, size=n) if discrete else rng.normal(size=n)
        X = np.column_stack([np.ones(n), rng.integers(0, 2, size=n), c])[:, :p]
        assume(np.linalg.matrix_rank(X) == p)
        y = scale * (rng.integers(0, 5, size=n) if ties else rng.normal(size=n))
        rd = RegressionData(y, X)
        fit, oracle = fit_rq(rd, tau), rq_oracle(rd, tau)
        assert beta_gap(rd, fit.beta, oracle.beta) <= 1e-9
        assert np.array_equal(fit.positive_mask(), oracle.positive_mask())

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(6, 16),
        ties=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-8, 1.0, 1e8]),
        tau=st.sampled_from([0.01, 0.5, 0.99]),
        eps=st.sampled_from([1e-3, 1e-5, 1e-7]),
    )
    def test_matches_oracle_on_near_collinear_designs(self, n, ties, seed, scale, tau, eps):
        # The covariate is a combination of the intercept and the
        # indicator plus eps * noise.
        rng = np.random.default_rng(seed)
        d = rng.integers(0, 2, size=n)
        assume(0 < d.sum() < n)
        c = rng.normal() + rng.normal() * d + eps * rng.normal(size=n)
        y = scale * (rng.integers(0, 5, size=n) if ties else rng.normal(size=n))
        rd = RegressionData(y, np.column_stack([np.ones(n), d, c]))
        fit, oracle = fit_rq(rd, tau), rq_oracle(rd, tau)
        # Coefficients of order max|y|/eps cancel in the fitted values, so
        # beta is compared with its own scale.
        gap = np.max(np.abs(fit.beta - oracle.beta))
        assert gap <= (1e-9 if eps >= 1e-5 else 1e-6) * np.max(np.abs(oracle.beta))

    @staticmethod
    def datasets(sizes, seeds):
        """Scenarios 1-4 under the null and the stand-in, at each size and seed."""
        from coves.simgen import ScenarioSpec, TargetedSampler, load_standin, sample_scenario

        standin = TargetedSampler(*load_standin())
        for source in (1, 2, 3, 4, "standin"):
            for m, n in sizes:
                for seed in seeds:
                    if source == "standin":
                        yield (source, m, n, seed), standin(m, n, seed)
                    else:
                        spec = ScenarioSpec.from_scenario(source, 0.0)
                        yield (source, m, n, seed), sample_scenario(spec, m, n, seed)

    def test_two_sample_design_gives_group_quantiles(self):
        # On (1, d) the canonical point is each group's lower end, the
        # ceil(tau*N_d)-th order statistic, also where tau*N_d is an integer.
        sizes = [(8, 8), (10, 6), (12, 12), (20, 20), (50, 50), (9, 7)]
        for name, data in self.datasets(sizes, range(5)):
            for tau in (0.5, 0.75, 0.9):
                fit = fit_rq(RegressionData(data.z, design_matrix(data, False)), tau)
                ref = fit_group_quantiles(data.z, data.groups, tau)
                assert np.array_equal(fit.positive_mask(), ref.positive_mask()), (name, tau)
                assert np.array_equal(fit.zero_set, ref.zero_set), (name, tau)
                ulp = np.spacing(np.abs(ref.beta).max())
                assert np.all(np.abs(fit.beta - ref.beta) <= 4 * ulp), (name, tau)

    def test_row_order_does_not_matter(self):
        # 2000 designs, each fitted as generated and with its rows permuted.
        for name, data in self.datasets([(8, 8), (10, 6), (12, 12), (50, 50)], range(25)):
            perm = np.random.default_rng(name[3]).permutation(data.z.size)
            for cov in (True, False):
                X = design_matrix(data, cov)
                for tau in (0.5, 0.75):
                    fit = fit_rq(RegressionData(data.z, X), tau)
                    ref = fit_rq(RegressionData(data.z[perm], X[perm]), tau)
                    case = (name, cov, tau)
                    assert np.array_equal(fit.positive_mask()[perm], ref.positive_mask()), case
                    gap = np.max(np.abs(fit.beta - ref.beta))
                    assert gap <= 1e-12 * np.max(np.abs(fit.beta)), case


def full_sort_stop(t, gain, slope, tol):
    """The kinks up to the stop by a full stable sort and a full running
    sum, as every pivot of fit_rq once found them; None for no stop."""
    order = np.argsort(t, kind="stable")
    stop = np.flatnonzero(slope + np.cumsum(gain[order]) >= tol)
    return None if stop.size == 0 else order[: stop[0] + 1]


class TestStableHead:
    # _stable_head returns the head of the full stable order that holds
    # the window least values and every tie of the largest of them.
    @settings(max_examples=400, deadline=None)
    @given(
        size=st.integers(1, 200),
        ties=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_equals_head_of_stable_argsort(self, size, ties, seed, data):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 5, size=size).astype(float) if ties else rng.normal(size=size)
        window = data.draw(st.integers(1, size + 2))
        full = values.argsort(kind="stable")
        k = size if window > size else int(np.count_nonzero(values <= np.sort(values)[window - 1]))
        assert np.array_equal(_stable_head(values, window), full[:k])


class TestKinkPrefix:
    # _kinks_to_stop sorts only the prefix of the stable order that holds
    # the KINK_WINDOW smallest step lengths, widening it while the stop
    # lies beyond; it must pass the same rows and stop at the same kink.
    @settings(max_examples=400, deadline=None)
    @given(
        size=st.integers(1, 3 * KINK_WINDOW + 5),
        kind=st.sampled_from(["ties", "continuous", "equal"]),
        zeros=st.floats(0.0, 1.0),
        reach=st.floats(0.0, 1.2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_prefix_matches_full_sort(self, size, kind, zeros, reach, seed):
        # Few distinct step lengths tie at the window's cut; zeros stand
        # for rows on the plane; reach places the stop anywhere from the
        # first kink to past the last one (no stop).
        rng = np.random.default_rng(seed)
        if kind == "ties":
            t = rng.integers(0, 4, size=size).astype(float)
        elif kind == "continuous":
            t = rng.exponential(size=size)
        else:
            t = np.full(size, 0.5)
        t[rng.random(size) < zeros] = 0.0
        gain = rng.integers(1, 4, size=size) * 0.25 if kind == "ties" else rng.uniform(0.01, 2.0, size)
        slope = -reach * gain.sum()
        tol = -TIE_RTOL * gain.sum()
        got, ref = _kinks_to_stop(t, gain, slope, tol), full_sort_stop(t, gain, slope, tol)
        if ref is None:
            assert got is None
        else:
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("size", [KINK_WINDOW - 1, KINK_WINDOW, KINK_WINDOW + 1, 5 * KINK_WINDOW])
    @pytest.mark.parametrize("stop", [0, KINK_WINDOW - 1, KINK_WINDOW, 2 * KINK_WINDOW + 3, None])
    def test_stop_around_window(self, size, stop):
        # Step lengths tied in pairs around the window's cut; the stop is
        # placed exactly at a given kink of the stable order, or nowhere.
        t = np.repeat(np.arange(size // 2 + 1, dtype=float)[::-1], 2)[:size]
        gain = np.ones(size)
        if stop is not None and stop >= size:
            stop = None
        slope = -float(size + 1 if stop is None else stop) - 0.5
        got, ref = _kinks_to_stop(t, gain, slope, 0.0), full_sort_stop(t, gain, slope, 0.0)
        if stop is None:
            assert got is None and ref is None
        else:
            assert got.size == stop + 1
            assert np.array_equal(got, ref)

    def test_no_stop_on_descending_edge_raises(self, monkeypatch):
        # A descending edge must reach a kink; if rounding leaves none, the
        # fit raises, where a flat edge would be skipped.
        from coves import quantreg

        monkeypatch.setattr(quantreg, "_kinks_to_stop", lambda *args: None)
        with pytest.raises(ConvergenceError, match="no kink to stop at"):
            fit_rq(pin10_data(), 0.75)


def step_parts(X, r):
    """(h, band) of the Newton step from residuals r: the m-th least |r|,
    read from a full sort, and the rows with |r| <= h."""
    n, p = X.shape
    m = min(n, max(2 * p, int(np.sqrt(4 * n))))
    h = np.sort(np.abs(r))[m - 1]
    return h, X[np.abs(r) <= h]


def newton_step(X, r, tau):
    """The residuals after _start_basis's Newton step from residuals r,
    or r where the step fails."""
    h, band = step_parts(X, r)
    if not (h > 0.0 and np.isfinite(h)):
        return r
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            delta = 2.0 * h * np.linalg.solve(band.T @ band, X.T @ (tau - (r < 0.0)))
        except np.linalg.LinAlgError:
            return r
        return r - X @ delta if np.isfinite(delta).all() else r


def argsort_start_basis(X, y, tau):
    """_start_basis as it was: a full stable argsort of the distances and
    a gather of the scaled rows, then a Gram-Schmidt pass in that order."""
    r = y - X @ np.linalg.lstsq(X, y, rcond=None)[0]
    order = np.argsort(np.abs(newton_step(X, r - empirical_quantile(r, tau), tau)), kind="stable")
    R = X[order] / np.abs(X).max(axis=0)
    rows = []
    for _ in range(X.shape[1]):
        left = np.einsum("ij,ij->i", R, R)
        j = int(np.argmax(left >= 1e-12 * left.max()))
        rows.append(order[j])
        q = R[j] / np.sqrt(left[j])
        R = R - np.outer(R @ q, q)
    return np.array(rows)


def start_designs(rng, n, p, ties, covariate, duplicates):
    """(y, X) of (1, d, c)[:p] with n rows, and n // 2 duplicated rows."""
    c = {
        "normal": rng.normal(size=n),
        "discrete": rng.integers(0, 4, size=n).astype(float),
        "tiny": 1e-10 * rng.normal(size=n),
        # Nearly a combination of the intercept and d.
        "collinear": 1.0 + 2.0 * rng.integers(0, 2, size=n) + 1e-7 * rng.normal(size=n),
    }[covariate]
    X = np.column_stack([np.ones(n), rng.integers(0, 2, size=n), c])[:, :p]
    y = rng.integers(0, 5, size=n).astype(float) if ties else rng.normal(size=n)
    if duplicates:
        dup = rng.integers(0, n, size=n // 2)
        X = np.vstack([X, X[dup]])
        y = np.concatenate([y, y[dup]])
    return y, X


def sweep_design(seed):
    """(y, X) of the collinear sweep at one seed: (1, d, c) with c nearly
    1 + 2d, n in [5, 300), random ties and duplicated rows."""
    rng = np.random.default_rng(seed)
    n = rng.integers(5, 300)
    ties, duplicates = rng.integers(0, 2), rng.integers(0, 2)
    return start_designs(rng, n, 3, ties, "collinear", duplicates)


def sweep_dataset(seed):
    """The collinear sweep's design at one seed as a Dataset (z, d, c)."""
    y, X = sweep_design(seed)
    return Dataset(z=y, d=X[:, 1].astype(int), c=X[:, 2])


# (seed, tau) of sweep designs whose walk pivots into a singular basis.
SINGULAR_PINS = [(199, 0.75), (72, 0.5)]


def pilot_residuals(rd, tau):
    """The residuals of the OLS pilot shifted to their tau-quantile."""
    r = rd.y - rd.X @ rd.ols
    k = int(np.ceil(tau * r.size)) - 1
    return r - np.partition(r, k)[k]


def stepped_residuals(rd, tau):
    """The residuals from the Newton-stepped plane of _start_basis."""
    return newton_step(rd.X, pilot_residuals(rd, tau), tau)


def start_distances(rd, tau):
    """The distances _start_basis ranks the rows by."""
    return np.abs(stepped_residuals(rd, tau))


def near_set(dist):
    """The rows whose distance is at most the m-th least, m = min(n,
    floor(4 sqrt(n))), read from a full sort, in index order."""
    m = min(dist.size, int(np.sqrt(16 * dist.size)))
    return np.flatnonzero(dist <= np.sort(dist)[m - 1])


class TestStartBasis:
    # The argmin over the passing rows takes the row the stable order of
    # the distances took, so the start basis, and every pivot after it,
    # is the same; so does the pass on the nearest rows, or it declines.
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(3, 300),
        p=st.integers(1, 3),
        ties=st.booleans(),
        covariate=st.sampled_from(["normal", "discrete", "tiny", "collinear"]),
        duplicates=st.booleans(),
        window=st.integers(1, 80),
        seed=st.integers(0, 2**32 - 1),
        tau=st.sampled_from([0.05, 0.25, 0.5, 0.75, 0.99]),
    )
    def test_same_rows_as_argsort(self, n, p, ties, covariate, duplicates, window, seed, tau):
        y, X = start_designs(np.random.default_rng(seed), n, p, ties, covariate, duplicates)
        assume(np.linalg.matrix_rank(X) == p)
        rd = RegressionData(y, X)
        ref = argsort_start_basis(X, y, tau)
        h, near, s = _start_basis(rd, tau, _col_absmax(X))
        assert np.array_equal(h, ref) and near is None
        # The same rows with the near set on every design, cut among tied
        # distances when the outcomes are tied; and the pass on a window
        # of any size gives them too, or declines.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quantreg, "BAND_MIN_N", 0)
            h, near, s = _start_basis(rd, tau, _col_absmax(X))
        assert np.array_equal(h, ref)
        assert np.array_equal(s, stepped_residuals(rd, tau))
        assert np.array_equal(near, near_set(np.abs(s)))
        rows = prefix_start(X, np.abs(s), min(window, y.size))
        assert rows is None or np.array_equal(rows, ref)

    def test_same_rows_on_scenario_designs(self):
        from coves.simgen import ScenarioSpec, sample_scenario

        for sc in (1, 2, 3, 4):
            for m, n in [(50, 50), (500, 500), (600, 600)]:
                data = sample_scenario(ScenarioSpec.from_scenario(sc, 1.35), m, n, sc)
                for cov in (True, False):
                    X = design_matrix(data, cov)
                    for tau in (0.5, 0.75, 0.9):
                        rows = _start_basis(RegressionData(data.z, X), tau, _col_absmax(X))[0]
                        assert np.array_equal(rows, argsort_start_basis(X, data.z, tau)), (sc, m, cov, tau)

    def test_nearest_rows_decline_where_they_cannot_decide(self):
        # (d) alone at (600, 600): the near set's 138 rows all have d = 0,
        # so every one is a zero row and none can be taken; the pass
        # declines and the full pass runs.  With the covariate the near
        # set spans the design and its rows are taken.
        from coves.simgen import ScenarioSpec, sample_scenario

        for seed in range(4):
            data = sample_scenario(ScenarioSpec.from_scenario(3, 0.0), 600, 600, seed)
            d = data.d.astype(float)
            for name, X in (("d", d[:, None]), ("dc", np.column_stack([d, data.c])), ("1dc", design_matrix(data))):
                rd = RegressionData(data.z, X)
                dist = start_distances(rd, 0.75)
                near = near_set(dist)
                assert near.size == 138 and rd.n >= quantreg.BAND_MIN_N
                assert (name == "d") == (not d[near].any()), (seed, name)
                rows = _greedy_rows(X[near] / _col_absmax(X), dist[near], True)
                rows = None if rows is None else near[rows]
                full = _greedy_rows(X / _col_absmax(X), dist, False)
                assert np.array_equal(_start_basis(rd, 0.75, _col_absmax(X))[0], full)
                assert np.array_equal(full, argsort_start_basis(X, data.z, 0.75))
                assert (rows is None) == (name == "d"), (seed, name)
                assert rows is None or np.array_equal(rows, full)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(3, 300),
        p=st.integers(1, 3),
        covariate=st.sampled_from(["normal", "discrete", "tiny", "collinear"]),
        window=st.integers(1, 80),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_nearest_rows_agree_or_decline_on_near_dependent_rows(self, n, p, covariate, window, seed):
        # Rows that are nearly copies of one another, at 1e-6 to 1e-9 of
        # their size, leave components near the pass's 1e-12 threshold.
        rng = np.random.default_rng(seed)
        y, X = start_designs(rng, n, p, False, covariate, False)
        X = np.vstack([X, X * (1.0 + 10.0 ** rng.uniform(-9, -6, size=X.shape))])
        y = np.concatenate([y, y + 1e-9 * rng.normal(size=n)])
        assume(np.linalg.matrix_rank(X) == p)
        rd = RegressionData(y, X)
        dist = start_distances(rd, 0.5)
        full = _greedy_rows(X / _col_absmax(X), dist, False)
        rows = prefix_start(X, dist, min(window, y.size))
        assert rows is None or np.array_equal(rows, full)


def prefix_start(X, dist, window):
    """The start pass on the window nearest rows, as rows of X, or None
    where it declines."""
    near = _stable_head(dist, window)
    rows = _greedy_rows(X[near] / _col_absmax(X), dist[near], True)
    return None if rows is None else near[rows]


def reference_fit_rq(rd, tau):
    """fit_rq as it was with its pricing in numpy arrays: the slopes,
    windows, descend and flat tests and key signs as arrays of 2p, the key
    block on every pivot once no edge descends, the start from
    argsort_start_basis, and from quantreg.BAND_MIN_N rows on the band
    walk first (reference_walk with an offset).  Returns (beta, residuals,
    objective, zero_set, pivots), with the pivots of both walks, or
    raises as fit_rq does."""
    y, X = rd.y, rd.X
    if tau < EXTREME_TAU or tau > 1.0 - EXTREME_TAU:
        raise NumericalError("extreme tau")
    weight = np.abs(X).max(axis=0)
    h = argsort_start_basis(X, y, tau)
    pivots = 0
    if rd.n >= quantreg.BAND_MIN_N:
        h, pivots = reference_band_walk(X, y, tau, h, weight, stepped_residuals(rd, tau))
    h, more = reference_walk(X, y, tau, h, weight, None)
    rows = np.sort(h)
    beta = np.linalg.solve(X[rows], y[rows])
    res = y - X @ beta
    objective = float((res * (tau - (res < 0))).sum())
    zero_set = np.flatnonzero(np.abs(res) <= TIE_RTOL * float(np.abs(y).max()))
    return beta, res, objective, zero_set, pivots + more


def reference_band_walk(X, y, tau, h, weight, s):
    """(basis, pivots) of the band walk: the near set of the stepped
    residuals s, read from a full sort (near_set), and h's rows, walked
    with every other row held on the side of its residual in s by its
    slope weight times its row of X."""
    rows = np.union1d(near_set(np.abs(s)), h)
    w = np.where(s > 0.0, -tau, 1.0 - tau)
    w[rows] = 0.0
    band, pivots = reference_walk(X[rows], y[rows], tau, np.searchsorted(rows, h), weight, w @ X)
    return rows[band], pivots


def reference_walk(X, y, tau, h, weight, offset):
    """(basis, pivots) of the walk from basis h on the rows of X.  It
    keeps the loop over the candidate edges that skipped a flat edge with
    no kink ahead, where fit_rq enters one edge and raises, so the two
    agree only while that skip never fires; it fired only on (1) and
    (1, d) at tau up to 1e-6, which both refuse.  With an offset, the band
    walk: it adds offset @ B to w'XB and hands back the last basis it
    inverted at a singular basis, an edge with no kink, MAX_ITER or a
    zero-length step."""
    p = X.shape[1]
    key = _key_columns(p)
    side = None
    bland = False
    ytop = float(np.abs(y).max()) + _BOUND_FLOOR
    A, absA = np.empty_like(X), np.empty_like(X)
    pivots = 0
    last = h.copy()
    for _ in range(MAX_ITER):
        try:
            B = np.linalg.inv(X[h])
        except np.linalg.LinAlgError:
            if offset is not None:
                return last, pivots
            raise ConvergenceError(f"simplex reached a singular basis, rows {sorted(h.tolist())}") from None
        last = h.copy()
        np.matmul(X, B, out=A)
        yh = y[h]
        r = y - A @ yh
        if side is None:
            above = r > 0.0
            side = np.where(above, 1.0, -1.0)
            w = np.where(above, -tau, 1.0 - tau)
        w[h] = 0.0
        np.abs(A, out=absA)
        c = w @ A if offset is None else w @ A + offset @ B
        slope = np.concatenate((c + (1.0 - tau), tau - c))
        colsum = np.einsum("ij->j", absA)
        spread = TIE_RTOL * colsum
        cap = _plane_cap(ytop, colsum, yh, y.size)
        noise = absA[:, 0].copy()
        for col in range(1, p):
            noise += absA[:, col]
        noise *= _NOISE_RTOL
        flat_tol = np.concatenate((spread, spread))
        descend = slope < -flat_tol
        if bland or not descend.any():
            V = (B * weight[:, None])[key]
            big = np.abs(V) > TIE_RTOL * np.abs(V).sum(axis=0)
            lead = V[np.argmax(big, axis=0), np.arange(p)]
            lower = np.concatenate((lead < 0.0, lead > 0.0))
            edges = np.flatnonzero(descend | ((slope <= flat_tol) & lower))
            edges = edges[np.lexsort((edges, h[edges % p]))]
        else:
            edges = [int(np.argmin(slope))]
        for e in edges:
            k, s = e % p, 1.0 if e < p else -1.0
            a = s * A[:, k]
            a[h] = 0.0
            cross = np.flatnonzero(a * side > noise)
            rc, ac = r[cross], a[cross]
            t = np.maximum(rc / ac, 0.0)
            on_plane = _on_plane(rc, cross, cap, y, absA, yh)
            if on_plane is not None:
                t[on_plane] = 0.0
            reached = _kinks_to_stop(t, np.abs(ac), slope[e], -flat_tol[e])
            if reached is not None:
                break
            if offset is not None:
                return last, pivots
            if descend[e]:
                raise ConvergenceError("simplex found no kink to stop at along an edge")
        else:
            break
        pivots += 1
        bland = t[reached[-1]] == 0.0
        if bland and offset is not None:
            return last, pivots
        passed = cross[reached[:-1]]
        side[passed] = -side[passed]
        w[passed] = np.where(side[passed] > 0.0, -tau, 1.0 - tau)
        side[h[k]] = -s
        w[h[k]] = -tau if s < 0.0 else 1.0 - tau
        h[k] = cross[reached[-1]]
    else:
        if offset is not None:
            return last, pivots
        raise ConvergenceError(f"simplex did not finish within MAX_ITER = {MAX_ITER} pivots")
    return h, pivots


def counted_fit_rq(rd, tau):
    """fit_rq's fit as reference_fit_rq returns it, with its pivots
    counted as the edge steps that reached a kink."""
    pivots = 0

    def counted(*args):
        nonlocal pivots
        reached = _kinks_to_stop(*args)
        pivots += reached is not None
        return reached

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantreg, "_kinks_to_stop", counted)
        fit = fit_rq(rd, tau)
    return fit.beta, fit.residuals, fit.objective, fit.zero_set, pivots


def outcome(fn, rd, tau):
    """fn's result as bytes, or its error class (and message, but for
    the extreme-tau refusal, whose text reference_fit_rq does not copy)."""
    try:
        beta, res, objective, zero_set, pivots = fn(rd, tau)
    except NumericalError:
        return ("NumericalError",)
    except ConvergenceError as exc:
        return ("ConvergenceError", str(exc))
    return beta.tobytes(), res.tobytes(), float(objective).hex(), zero_set.tobytes(), zero_set.dtype, pivots


class TestFitBitIdentity:
    # fit_rq prices its edges in Python floats and stops at a strict
    # optimum without the key block; every fit must keep the bits of the
    # array form, and its pivots, the band walk's and the walk's on all
    # rows together.
    @settings(max_examples=400, deadline=None)
    @given(
        n=st.integers(3, 300),
        p=st.integers(1, 3),
        ties=st.booleans(),
        covariate=st.sampled_from(["normal", "discrete", "tiny", "collinear"]),
        duplicates=st.booleans(),
        scale=st.sampled_from([1e-8, 1.0, 1e8]),
        tau=st.sampled_from([1e-4, 0.05, 0.25, 0.5, 0.75, 0.9, 1 - 1e-4]),
        nearest=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_reference(self, n, p, ties, covariate, duplicates, scale, tau, nearest, seed):
        y, X = start_designs(np.random.default_rng(seed), n, p, ties, covariate, duplicates)
        assume(np.linalg.matrix_rank(X) == p)
        rd = RegressionData(scale * y, X)
        with pytest.MonkeyPatch.context() as mp:
            if nearest:
                # The start from the near set and the band walk at every
                # size.
                mp.setattr(quantreg, "BAND_MIN_N", 0)
            assert outcome(counted_fit_rq, rd, tau) == outcome(reference_fit_rq, rd, tau)

    def test_equals_reference_on_scenario_designs(self):
        from coves.simgen import ScenarioSpec, sample_scenario

        for sc in (1, 2, 3, 4):
            for size in (30, 50, 700, 1100):
                data = sample_scenario(ScenarioSpec.from_scenario(sc, 1.35), size, size, sc)
                for cov in (True, False):
                    rd = RegressionData(data.z, design_matrix(data, cov))
                    for tau in (0.25, 0.5, 0.75, 0.9):
                        got = outcome(counted_fit_rq, rd, tau)
                        assert got == outcome(reference_fit_rq, rd, tau), (sc, size, cov, tau)


def unstepped_fit_rq(rd, tau):
    """fit_rq with the start's Newton step left out: the rows ranked by
    their distance from the shifted OLS pilot."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantreg, "_newton_step", lambda X, r, tau: r)
        return fit_rq(rd, tau)


class TestNewtonStep:
    # The step moves only the start: where the optimum is one vertex the
    # fit keeps its bits, and where a guard fails the start is the
    # unstepped one.
    def test_fits_keep_their_bits_on_scenario_designs(self):
        from coves.simgen import ScenarioSpec, sample_scenario

        for sc, eta, size in product((1, 2, 3, 4), (0.0, 1.35), (50, 500, 5000)):
            data = sample_scenario(ScenarioSpec.from_scenario(sc, eta), size, size, sc)
            for cov in (True, False):
                rd = RegressionData(data.z, design_matrix(data, cov))
                for tau in (0.25, 0.5, 0.75, 0.9):
                    assert_same_fit(fit_rq(rd, tau), unstepped_fit_rq(rd, tau))

    # Designs with tied outcomes or duplicated rows have degenerate
    # vertices, where beta can come from another basis of the same point
    # and move by rounding.  The near-collinear covariate is left out:
    # there the solver's tie windows hold several vertices, and which one
    # a fit ends on, or whether it fails, depends on the start, stepped
    # or not (see CHANGES.md).
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(3, 300),
        p=st.integers(1, 3),
        ties=st.booleans(),
        duplicates=st.booleans(),
        covariate=st.sampled_from(["normal", "discrete", "tiny"]),
        scale=st.sampled_from([1e-8, 1.0, 1e8]),
        tau=st.sampled_from([0.25, 0.5, 0.75, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_point_on_tied_designs(self, n, p, ties, duplicates, covariate, scale, tau, seed):
        assume(ties or duplicates)
        y, X = start_designs(np.random.default_rng(seed), n, p, ties, covariate, duplicates)
        assume(np.linalg.matrix_rank(X) == p)
        rd = RegressionData(scale * y, X)
        fit, ref = fit_rq(rd, tau), unstepped_fit_rq(rd, tau)
        # The same positive mask gives the same shortfall counts.
        assert np.array_equal(fit.zero_set, ref.zero_set)
        assert np.array_equal(fit.positive_mask(), ref.positive_mask())
        tol = rd.n * np.finfo(float).eps * np.abs(rd.y).max()
        assert abs(fit.objective - ref.objective) <= tol

    @staticmethod
    def falls_back(rd, tau):
        """The shifted pilot's residuals, checked to come back from the
        step as they went in."""
        r = pilot_residuals(rd, tau)
        assert quantreg._newton_step(rd.X, r, tau) is r
        assert np.array_equal(start_distances(rd, tau), np.abs(r))
        return r

    @staticmethod
    def matches_oracle(rd, tau):
        fit, oracle = fit_rq(rd, tau), rq_oracle(rd, tau)
        assert beta_gap(rd, fit.beta, oracle.beta) <= 1e-9
        assert np.array_equal(fit.positive_mask(), oracle.positive_mask())

    @pytest.mark.parametrize("p, tau", [(1, 0.5), (1, 0.75), (2, 0.25), (2, 0.5)])
    def test_no_band_width(self, p, tau):
        # Ten of twelve control outcomes tie at the quantile of the
        # residuals, so at least m = 8 rows lie on the shifted pilot and
        # h = 0.  On (1) the band of the tied rows is not singular.
        rng = np.random.default_rng(1)
        y = np.r_[np.full(10, 3.0), 1.0, 5.0, rng.normal(size=8) + 2.0]
        rd = RegressionData(y, np.column_stack([np.ones(20), np.r_[np.zeros(12), np.ones(8)]])[:, :p])
        r = self.falls_back(rd, tau)
        assert step_parts(rd.X, r)[0] == 0.0
        self.matches_oracle(rd, tau)

    def test_band_in_one_group(self):
        # The treated outcomes lie 100 from the plane and the control ones
        # within 0.05 of it, so the band holds control rows alone, its d
        # column is zero and X_b'X_b is singular.
        rng = np.random.default_rng(1)
        d = np.r_[np.zeros(12), np.ones(8)]
        y = np.r_[0.01 * rng.normal(size=12), np.tile([100.0, -100.0], 4)]
        rd = RegressionData(y, np.column_stack([np.ones(20), d, rng.normal(size=20)]))
        r = self.falls_back(rd, 0.5)
        h, band = step_parts(rd.X, r)
        assert h > 0.0 and not band[:, 1].any()
        self.matches_oracle(rd, 0.5)

    def test_step_overflows(self):
        # The band rows have c = 1 + 2d exactly, so X_b'X_b is singular but
        # for rounding; with outcomes of order 1e297, 2h times its inverse
        # overflows.
        rng = np.random.default_rng(1)
        d = np.r_[np.tile([0.0, 1.0], 6), np.zeros(4), np.ones(4)]
        c = np.r_[1.0 + 2.0 * d[:12], rng.normal(size=8)]
        e = np.r_[1e-3 * rng.normal(size=12), np.tile([5.0, -5.0], 4)]
        rd = RegressionData(1e296 * (2.0 + 3.0 * c + e), np.column_stack([np.ones(20), d, c]))
        r = self.falls_back(rd, 0.5)
        h, band = step_parts(rd.X, r)
        with np.errstate(over="ignore", invalid="ignore"):
            delta = 2.0 * h * np.linalg.solve(band.T @ band, rd.X.T @ (0.5 - (r < 0.0)))
        assert 0.0 < h < np.inf and not np.isfinite(delta).all()
        self.matches_oracle(rd, 0.5)

    def test_pivot_budget(self):
        # Scenario 3 under the null at (500, 500): the unstepped start
        # took 4.5 pivots per fit here, the stepped one 3.2.
        from coves.simgen import ScenarioSpec, sample_scenario

        pivots = []
        for seed in range(10):
            data = sample_scenario(ScenarioSpec.from_scenario(3, 0.0), 500, 500, seed)
            rd = RegressionData(data.z, design_matrix(data))
            pivots += [counted_fit_rq(rd, tau)[-1] for tau in (0.5, 0.75, 0.9)]
        assert np.mean(pivots) <= 4.0


def no_band_fit(rd, tau):
    """fit_rq with the band walk left out: the walk on all rows from the
    start basis."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantreg, "BAND_MIN_N", rd.n + 1)
        return fit_rq(rd, tau)


def large_tied_design(seed, ties, covariate, duplicates):
    """RegressionData of start_designs' (1, d, c) with 4096 to 8000 rows,
    and with duplicates up to 12 000."""
    rng = np.random.default_rng(seed)
    return RegressionData(*start_designs(rng, int(rng.integers(4096, 8001)), 3, ties, covariate, duplicates))


def band_trace(rd, tau, band_max_iter=None, fail_inversion=None):
    """(fit, trace) of fit_rq with the band walk on every design.  The
    trace holds the band walk's result (basis, optimal), its number of
    rows, the bases it inverted as rows of its X, its kink stops as
    (reached, t), and the pivots of the walk on all rows after it.
    band_max_iter sets MAX_ITER for the band walk alone; the band walk's
    inversion number fail_inversion raises LinAlgError."""
    trace = {"inverted": [], "stops": [], "after": 0}
    walk, kinks, inv = quantreg._walk, quantreg._kinks_to_stop, np.linalg.inv
    in_band = [False]

    def traced_walk(X, *args):
        offset = args[-1]
        in_band[0] = offset is not None
        with pytest.MonkeyPatch.context() as mp:
            if in_band[0] and band_max_iter is not None:
                mp.setattr(quantreg, "MAX_ITER", band_max_iter)
            result = walk(X, *args)
        if in_band[0]:
            trace["band"] = result
            trace["band_rows"] = X[result[0]]
            trace["band_size"] = X.shape[0]
        in_band[0] = False
        return result

    def traced_kinks(*args):
        reached = kinks(*args)
        if in_band[0]:
            trace["stops"].append((reached, args[0]))
        else:
            trace["after"] += reached is not None
        return reached

    def traced_inv(M):
        if in_band[0]:
            trace["inverted"].append(M.copy())
            if len(trace["inverted"]) == fail_inversion:
                raise np.linalg.LinAlgError("singular matrix")
        return inv(M)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantreg, "BAND_MIN_N", 0)
        mp.setattr(quantreg, "_walk", traced_walk)
        mp.setattr(quantreg, "_kinks_to_stop", traced_kinks)
        mp.setattr(np.linalg, "inv", traced_inv)
        fit = fit_rq(rd, tau)
    return fit, trace


def assert_same_point(fit, ref, rd):
    """The same zero set, positive mask and, up to rounding, objective."""
    assert np.array_equal(fit.zero_set, ref.zero_set)
    assert np.array_equal(fit.positive_mask(), ref.positive_mask())
    assert abs(fit.objective - ref.objective) <= rd.n * np.finfo(float).eps * np.abs(rd.y).max()


def assert_band_keeps_fit(rd, tau, bits):
    """fit_rq with the band walk on every design ends on the point of the
    fit without it (its bits too, if bits), or fails with its error."""
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quantreg, "BAND_MIN_N", 0)
            fit = fit_rq(rd, tau)
    except ConvergenceError as exc:
        with pytest.raises(ConvergenceError, match=f"^{re.escape(str(exc))}$"):
            no_band_fit(rd, tau)
        return
    ref = no_band_fit(rd, tau)
    if bits:
        assert_same_fit(fit, ref)
    else:
        assert_same_point(fit, ref, rd)


class TestBandWalk:
    # From BAND_MIN_N rows on, fit_rq walks the near set of its start and
    # the start's rows first, then from the band's last basis on all rows.  That walk
    # alone decides the optimum, so where the optimum is one vertex every
    # fit keeps its bits.
    def test_fits_keep_their_bits_on_scenario_designs(self):
        from coves.simgen import ScenarioSpec, sample_scenario

        for sc, eta, size in product((1, 2, 3, 4), (0.0, 1.35), (2500, 5000)):
            data = sample_scenario(ScenarioSpec.from_scenario(sc, eta), size, size, sc)
            for cov in (True, False):
                rd = RegressionData(data.z, design_matrix(data, cov))
                assert rd.n >= quantreg.BAND_MIN_N
                for tau in (0.25, 0.5, 0.75, 0.9):
                    assert_same_fit(fit_rq(rd, tau), no_band_fit(rd, tau))

    # On tied, duplicated, discrete or near-collinear rows the optimal
    # point can have several bases, and beta solved from another one moves
    # by rounding; the point, and so the shortfall counts, stay.  A design
    # the walk on all rows fails on fails with the same error either way.
    @pytest.mark.parametrize("covariate", ["normal", "discrete", "tiny", "collinear"])
    @pytest.mark.parametrize("ties, duplicates", [(1, 0), (0, 1), (1, 1)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_point_on_large_tied_designs(self, covariate, ties, duplicates, seed):
        rd = large_tied_design(seed, ties, covariate, duplicates)
        for tau in (0.25, 0.5, 0.75, 0.9):
            assert_band_keeps_fit(rd, tau, bits=False)

    # The band walk at every size, so on designs of 3 to 450 rows: where
    # the outcomes are continuous and no row is duplicated, the bits stay.
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(3, 300),
        p=st.integers(1, 3),
        ties=st.booleans(),
        duplicates=st.booleans(),
        covariate=st.sampled_from(["normal", "discrete", "tiny", "collinear"]),
        scale=st.sampled_from([1e-8, 1.0, 1e8]),
        tau=st.sampled_from([0.25, 0.5, 0.75, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_point_at_every_size(self, n, p, ties, duplicates, covariate, scale, tau, seed):
        y, X = start_designs(np.random.default_rng(seed), n, p, ties, covariate, duplicates)
        assume(np.linalg.matrix_rank(X) == p)
        assert_band_keeps_fit(RegressionData(scale * y, X), tau, bits=not (ties or duplicates))

    def scenario_design(self, seed=0):
        from coves.simgen import ScenarioSpec, sample_scenario

        data = sample_scenario(ScenarioSpec.from_scenario(3, 0.0), 5000, 5000, seed)
        return RegressionData(data.z, design_matrix(data))

    def test_hands_over_at_singular_basis(self):
        rd = self.scenario_design()
        fit, trace = band_trace(rd, 0.75, fail_inversion=3)
        assert len(trace["inverted"]) == 3
        assert trace["band"][1] is False
        assert np.array_equal(trace["band_rows"], trace["inverted"][1])
        assert_same_fit(fit, no_band_fit(rd, 0.75))

    def test_hands_over_at_max_iter(self):
        rd = self.scenario_design()
        fit, trace = band_trace(rd, 0.75, band_max_iter=2)
        assert len(trace["inverted"]) == 2 and len(trace["stops"]) == 2
        assert trace["band"][1] is False
        assert np.array_equal(trace["band_rows"], trace["inverted"][-1])
        assert trace["after"] >= 1
        assert_same_fit(fit, no_band_fit(rd, 0.75))

    def test_hands_over_at_edge_with_no_kink(self):
        # Tied outcomes at 7417 rows: the band walk finds no kink to stop
        # at along the edge it enters.
        rd = large_tied_design(0, 1, "normal", 0)
        fit, trace = band_trace(rd, 0.25)
        assert trace["stops"][-1][0] is None
        assert trace["band"][1] is False
        assert np.array_equal(trace["band_rows"], trace["inverted"][-1])
        assert_same_point(fit, no_band_fit(rd, 0.25), rd)

    def test_hands_over_at_first_zero_length_step(self):
        # Duplicated rows at 11 125 rows: after one pivot the band walk's
        # step stops at a kink of length zero, and the walk on all rows
        # takes it.
        rd = large_tied_design(0, 0, "normal", 1)
        fit, trace = band_trace(rd, 0.25)
        reached, t = trace["stops"][-1]
        assert reached is not None and t[reached[-1]] == 0.0
        assert all(t[r[-1]] > 0.0 for r, t in trace["stops"][:-1])
        assert trace["band"][1] is False
        assert np.array_equal(trace["band_rows"], trace["inverted"][-1])
        assert_same_point(fit, no_band_fit(rd, 0.25), rd)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_band_stays_small_on_signed_zero_designs(self, seed):
        # Scenario 3 at (5000, 5000) with z cut toward zero in whole
        # interquartile ranges about its median, as tools/digest.py's
        # signed-zero designs are: about half the rows tie at zero, and a
        # band cut among them would take every row tied at its cut, most
        # of the design.  The band is the near set's floor(4 sqrt(n)) rows
        # nearest the stepped plane and h's rows.
        from coves.simgen import ScenarioSpec, sample_scenario

        data = sample_scenario(ScenarioSpec.from_scenario(3, 0.0), 5000, 5000, seed)
        q25, q50, q75 = np.percentile(data.z, [25, 50, 75])
        rd = RegressionData(np.trunc((data.z - q50) / (q75 - q25)), design_matrix(data))
        for tau in (0.25, 0.5, 0.75):
            trace = band_trace(rd, tau)[1]
            assert trace["band_size"] <= math.isqrt(16 * rd.n) + rd.p, tau

    def test_pivot_budget(self):
        # Scenario 3 under the null at (5000, 5000): the walk on all rows
        # took 4.9 pivots per fit from the start basis here, and after the
        # band walk, which takes those pivots, it confirms the optimum.
        after = []
        for seed in range(10):
            fit, trace = band_trace(self.scenario_design(seed), 0.75)
            assert trace["band"][1] is True
            after.append(trace["after"])
        assert np.mean(after) <= 1.0

    def test_runs_from_band_min_n(self):
        # Below BAND_MIN_N rows the walk on all rows runs alone.
        rng = np.random.default_rng(3)
        for n, runs in ((quantreg.BAND_MIN_N - 1, False), (quantreg.BAND_MIN_N, True)):
            X = np.column_stack([np.ones(n), rng.integers(0, 2, size=n), rng.normal(size=n)])
            rd = RegressionData(rng.normal(size=n), X)
            called = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(quantreg, "_band_walk", lambda *args: called.append(1) or args[3])
                fit_rq(rd, 0.5)
            assert bool(called) == runs


def scaled_covariate_designs():
    """(name, y, X) of scenarios 1-4 at (50, 50), eta 1.35, seed 1, with
    the covariate times 10**k for k from -15 to 15 in steps of 1/8."""
    from coves.simgen import ScenarioSpec, sample_scenario

    for sc in (1, 2, 3, 4):
        data = sample_scenario(ScenarioSpec.from_scenario(sc, 1.35), 50, 50, 1)
        for i in range(-120, 121):
            X = np.column_stack([np.ones(100), data.d, data.c * 10.0 ** (i / 8)])
            yield f"s{sc}/k{i / 8}", data.z, X


class TestOneSolve:
    # RegressionData makes the one lstsq of a fit: its rank decides the
    # design and its coefficients are the start basis's OLS pilot.
    def test_ols_is_the_lstsq_solution(self):
        designs = [(rd.y, rd.X) for rd in [pin10_data(), *(random_instance(s)[0] for s in range(20))]]
        designs += [(y, X) for _, y, X in scaled_covariate_designs()]
        for y, X in designs:
            try:
                rd = RegressionData(y, X)
            except DegenerateDesignError:
                continue
            assert rd.ols.tobytes() == np.linalg.lstsq(X, y, rcond=None)[0].tobytes()

    def test_refuses_exactly_where_matrix_rank_is_short(self):
        refused = {}
        for name, y, X in scaled_covariate_designs():
            try:
                RegressionData(y, X)
                refused[name] = False
            except DegenerateDesignError as exc:
                assert str(exc) == "design matrix is numerically rank deficient"
                refused[name] = True
            assert refused[name] == (np.linalg.matrix_rank(X) < 3), name
        # The sweep crosses the tolerance at both ends of the scale.
        for sc in (1, 2, 3, 4):
            assert [refused[f"s{sc}/k{k}"] for k in (-15.0, 0.0, 15.0)] == [True, False, True]

    def test_refuses_exactly_where_matrix_rank_is_short_on_special_designs(self):
        from coves.simgen import ScenarioSpec, sample_scenario

        data = sample_scenario(ScenarioSpec.from_scenario(3, 1.35), 50, 50, 1)
        one, d, c = np.ones(100), data.d.astype(float), data.c
        designs = {
            "duplicate": np.column_stack([one, d, c, c]),
            "duplicate-scaled": np.column_stack([one, d, c, 3.0 * c]),
            "constant-within-groups": np.column_stack([one, d, 2.5 + 0.5 * d]),
            "d": d[:, None],
            "zero-column": np.column_stack([one, np.zeros(100)]),
            "full": np.column_stack([one, d, c]),
        }
        for name, X in designs.items():
            short = np.linalg.matrix_rank(X) < X.shape[1]
            if short:
                with pytest.raises(DegenerateDesignError, match=r"^design matrix is numerically rank deficient$"):
                    RegressionData(data.z, X)
            else:
                RegressionData(data.z, X)
            assert short == (name not in ("d", "full")), name

    def test_one_lstsq_and_no_other_svd_per_coves_fit(self, monkeypatch):
        from coves.coves_test import run_coves
        from coves.simgen import ScenarioSpec, sample_scenario

        data = sample_scenario(ScenarioSpec.from_scenario(2, 1.35), 50, 50, 1)
        counts = {"lstsq": 0, "matrix_rank": 0, "svd": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # numpy.linalg's functions call one another through the namespace
        # of the module that defines them (matrix_rank calls svd there),
        # so patch that namespace as well as the public one.
        for name in counts:
            original = getattr(np.linalg, name)
            for namespace in (vars(np.linalg), np.linalg.svd.__wrapped__.__globals__):
                monkeypatch.setitem(namespace, name, counted(name, original))
        report = run_coves(data, 0.75)
        assert report.fit.beta.size == 3
        assert counts == {"lstsq": 1, "matrix_rank": 0, "svd": 0}


class TestWindowSums:
    # fit_rq's flat-edge window is TIE_RTOL times the column sums of |A|,
    # np.einsum("ij->j").  For p >= 2 einsum adds row after row, and these
    # pin those bits.  A single column it sums pairwise: within the
    # (n - 1) * 2^-53 relative rounding of a running sum, which _plane_cap
    # allows for, of the exact sum.
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 1000, 8191, 8192, 8193, 20000])
    def test_equals_running_sum(self, p, n):
        rng = np.random.default_rng(1000 * p + n)
        for scale in (1e-150, 1e-8, 1.0, 1e8, 1e150):
            heavy = np.abs(rng.standard_cauchy((n, p))) * scale
            mixed = np.abs(rng.normal(size=(n, p))) * 10.0 ** rng.integers(-150, 151, size=p)
            for absA in (heavy, mixed):
                for zero in (None, *range(p)):
                    arr = absA.copy()
                    if zero is not None:
                        arr[:, zero] = 0.0
                    got = np.einsum("ij->j", arr)
                    assert got.shape == (p,)
                    if p == 1:
                        exact = math.fsum(arr[:, 0].tolist())
                        assert abs(got[0] - exact) <= (n - 1) * 2.0**-53 * exact, (n, scale, zero)
                    else:
                        ref = np.add.accumulate(arr, axis=0)[-1]
                        assert got.tobytes() == ref.tobytes(), (p, n, scale, zero)


def pivot_state(X, y, h):
    """What fit_rq computes at the basis h for the on-plane test: r, the
    rows off the basis, |A| and _plane_cap's bound."""
    A = X @ np.linalg.inv(X[h])
    absA = np.abs(A)
    ytop = float(np.abs(y).max()) + _BOUND_FLOOR
    return y - A @ y[h], np.setdiff1d(np.arange(y.size), h), absA, _plane_cap(ytop, np.einsum("ij->j", absA), y[h], y.size)


def full_on_plane_rhs(y, absA, yh, rows):
    """The on-plane test's right-hand side, the product row by row."""
    return _NOISE_RTOL * (np.abs(y[rows]) + np.einsum("ij,j->i", absA.take(rows, axis=0), np.abs(yh)))


def full_on_plane(rc, rows, y, absA, yh):
    """The on-plane test as written, without _plane_cap's shortcut."""
    return np.abs(rc) <= full_on_plane_rhs(y, absA, yh, rows)


def as_mask(got, size):
    return np.zeros(size, bool) if got is None else got


def hostile_designs():
    """(name, X, y) with rows on the plane, duplicated rows and rounded
    outcomes, at scales from 1e-300 to 1e307."""
    rng = np.random.default_rng(1508)
    for k in range(60):
        n, p = int(rng.integers(6, 40)), int(rng.integers(1, 5))
        kind = ("on-plane", "duplicates", "rounded")[k % 3]
        X = np.column_stack([np.ones(n), rng.integers(-3, 4, size=(n, p - 1))]).astype(float)
        if kind == "on-plane":
            # Integer coefficients and entries: many rows exactly on one plane.
            y = X @ rng.integers(-2, 3, size=p) + np.where(rng.random(n) < 0.5, 0.0, rng.normal(size=n))
        else:
            X[:, 1:] += rng.normal(size=(n, p - 1)) * (kind == "duplicates")
            y = rng.normal(size=n)
            if kind == "rounded":
                y = np.round(2.0 * y)
            else:
                dup = rng.integers(0, n, size=n // 2)
                X, y = np.vstack([X, X[dup]]), np.concatenate([y, y[dup]])
        if np.linalg.matrix_rank(X) < p:
            continue
        for scale in (1e-300, 1e-8, 1.0, 1e8, 1e300, 1e307):
            # At 1e307 the full test's sum can overflow to inf.
            if np.isfinite(y * scale).all():
                yield f"{kind}/{k}/{scale:g}", X, y * scale


class TestOnPlaneBound:
    # _on_plane skips the full test only when _plane_cap shows that no
    # row can pass it, so it must equal the full test.
    # At 1e307 sums overflow to inf, on purpose: both forms see the same.
    pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

    def cases(self):
        for name, X, y in hostile_designs():
            rng = np.random.default_rng(len(name))
            for _ in range(3):
                h = rng.choice(y.size, size=X.shape[1], replace=False)
                if abs(np.linalg.det(X[h])) > 1e-9:
                    yield name, X, y, h

    def test_matches_full_test(self):
        for name, X, y, h in self.cases():
            r, rows, absA, cap = pivot_state(X, y, h)
            for sub in (rows, rows[::2], rows[:1]):
                got = _on_plane(r[sub], sub, cap, y, absA, y[h])
                assert np.array_equal(as_mask(got, sub.size), full_on_plane(r[sub], sub, y, absA, y[h])), name

    def test_one_ulp_either_side(self):
        # Residuals placed one ulp either side of the bound and of the full
        # test's right-hand side, on every row, on every other row or on
        # one row (the rest far off the plane).
        for name, X, y, h in self.cases():
            _, rows, absA, cap = pivot_state(X, y, h)
            rhs = full_on_plane_rhs(y, absA, y[h], rows)
            assert np.all(rhs <= cap), name
            pos = np.arange(rows.size)
            for edge in (np.full(rows.size, cap), rhs):
                mixed = [np.where(keep, edge, 4.0 * cap) for keep in (pos % 2 == 0, pos == 0)]
                for rc in (edge, np.nextafter(edge, np.inf), np.nextafter(edge, 0.0), *mixed):
                    for sign in (1.0, -1.0):
                        got = _on_plane(sign * rc, rows, cap, y, absA, y[h])
                        assert np.array_equal(as_mask(got, rows.size), full_on_plane(sign * rc, rows, y, absA, y[h])), name
            # Beyond a finite bound no row is on the plane, and the full
            # test is skipped.
            if np.isfinite(cap):
                assert _on_plane(np.full(rows.size, np.nextafter(cap, np.inf)), rows, cap, y, absA, y[h]) is None, name

    def test_tight_single_rows(self):
        # One row, y = 0 and every |yh| equal: the bound is the full test's
        # right-hand side up to rounding, so only its widening keeps it
        # above (unwidened, it fell below on 341 of 2000 such rows).
        rng = np.random.default_rng(1509)
        rows, y = np.array([0]), np.array([0.0])
        for _ in range(2000):
            p = int(rng.integers(2, 5))
            absA = np.abs(rng.normal(size=(1, p))) * 10.0 ** float(rng.integers(-100, 101))
            yh = float(rng.exponential()) * rng.choice([-1.0, 1.0], size=p)
            cap = _plane_cap(_BOUND_FLOOR, np.einsum("ij->j", absA), yh, 1)
            rhs = _NOISE_RTOL * np.einsum("ij,j->i", absA, np.abs(yh))
            for rc in (rhs, np.nextafter(rhs, np.inf)):
                assert np.array_equal(as_mask(_on_plane(rc, rows, cap, y, absA, yh), 1), np.abs(rc) <= rhs)

    def test_floor_covers_subnormal_products(self):
        # |A_0| @ |yh| = 1.6h + 1.6h rounds each subnormal product up, to
        # 4h (h = 2^-1074), where the bound's 3.2 * h rounds to 3h; |y| is
        # placed so that |y| + 3h ties to even below |y| + 4h, and the two
        # sums times _NOISE_RTOL round to neighbouring subnormals.  Without
        # _BOUND_FLOOR the bound falls below the full test's right-hand
        # side and a row on the plane is missed.
        h, ulp = 2.0**-1074, 2.0**-1073
        absA, yh = np.array([[1.6, 1.6]]), np.array([h, -h])
        y, rows = np.array([(5000250000000000 - 1) * ulp]), np.array([0])
        rhs = _NOISE_RTOL * (np.abs(y) + absA @ np.abs(yh))
        assert _plane_cap(float(y[0]), np.einsum("ij->j", absA), yh, 1) < rhs[0]
        cap = _plane_cap(float(y[0]) + _BOUND_FLOOR, np.einsum("ij->j", absA), yh, 1)
        for rc in (rhs, np.nextafter(rhs, np.inf)):
            assert np.array_equal(as_mask(_on_plane(rc, rows, cap, y, absA, yh), 1), np.abs(rc) <= rhs)

    def test_fits_unchanged_with_full_test(self, monkeypatch):
        # fit_rq with the bound, and with the full test on every edge as
        # before, gives the same bits on the hostile designs.
        from coves import quantreg

        fits = {}
        for use_bound in (True, False):
            if not use_bound:
                monkeypatch.setattr(quantreg, "_on_plane", lambda rc, rows, cap, y, absA, yh:
                                    full_on_plane(rc, rows, y, absA, yh))
            for name, X, y in hostile_designs():
                for tau in (0.25, 0.75):
                    try:
                        fit = fit_rq(RegressionData(y, X), tau)
                        fits.setdefault((name, tau), []).append((fit.beta.tobytes(), fit.residuals.tobytes()))
                    except (ConvergenceError, DegenerateDesignError) as exc:
                        fits.setdefault((name, tau), []).append(type(exc).__name__)
        assert all(a == b for a, b in fits.values())


class TestRowIndependence:
    # The start pass and the on-plane test form their products row by
    # row, so a row's result is the same in any batch that holds it.
    pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 1000),
        p=st.integers(1, 12),
        scales=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_project_out_on_row_subsets(self, n, p, scales, seed, data):
        rng = np.random.default_rng(seed)
        R = rng.uniform(-1.0, 1.0, size=(n, p))
        if scales:
            R *= 10.0 ** rng.uniform(-8, 0, size=p)
        j = data.draw(st.integers(0, n - 1))
        size = data.draw(st.integers(1, n))
        sub = np.union1d(rng.choice(n, size=size, replace=False), [j])
        left = float(R[j] @ R[j])
        full, part = R.copy(), R[sub]
        _project_out(full, j, left)
        _project_out(part, int(np.searchsorted(sub, j)), left)
        assert part.tobytes() == full[sub].tobytes()
        # The pass's other product, each row's squared length.
        assert np.einsum("ij,ij->i", part, part).tobytes() == np.einsum("ij,ij->i", full, full)[sub].tobytes()

    def test_on_plane_on_sub_batches(self):
        # Residuals one ulp either side of each row's threshold, and on
        # it: each row gets the same decision on the whole crossing set as
        # on batches of 1, 4 and 8 of its rows.
        for name, X, y, h in TestOnPlaneBound().cases():
            _, rows, absA, cap = pivot_state(X, y, h)
            rhs = np.concatenate([full_on_plane_rhs(y, absA, y[h], rows[i:i + 1]) for i in range(rows.size)])
            for rc in (rhs, np.nextafter(rhs, np.inf), np.nextafter(rhs, 0.0)):
                whole = as_mask(_on_plane(rc, rows, cap, y, absA, y[h]), rows.size)
                for batch in (1, 4, 8):
                    parts = [slice(i, i + batch) for i in range(0, rows.size, batch)]
                    got = [as_mask(_on_plane(rc[s], rows[s], cap, y, absA, y[h]), rows[s].size) for s in parts]
                    assert np.array_equal(np.concatenate(got), whole), (name, batch)


EXTREME_KINDS = ("(1)", "(1, d)", "(1, c)", "(1, d, c)", "(1, d, b)")


def extreme_designs(count=300):
    """(kind, RegressionData) of random designs of 5-13 rows, each kind of
    EXTREME_KINDS in turn: normal outcomes, a normal covariate c and a
    binary covariate b."""
    rng = np.random.default_rng(1206)
    out = []
    for k in range(count):
        n = int(rng.integers(5, 14))
        d = rng.permutation(np.arange(n) % 2).astype(float)
        c = rng.normal(size=n)
        b = (rng.random(n) < 0.5).astype(float)
        kind = EXTREME_KINDS[k % len(EXTREME_KINDS)]
        cols = {"(1)": [], "(1, d)": [d], "(1, c)": [c], "(1, d, c)": [d, c], "(1, d, b)": [d, b]}[kind]
        X = np.column_stack([np.ones(n), *cols])
        y = rng.normal(size=n)
        if np.linalg.matrix_rank(X) == X.shape[1]:
            out.append((kind, RegressionData(y, X)))
    return out


class TestExtremeTau:
    # Beyond EXTREME_TAU the flat-edge window TIE_RTOL * sum|x_i' delta|
    # is wider than slopes of order min(tau, 1 - tau) * sum|x_i' delta|.
    # On designs with a continuous covariate the walk then followed
    # ascending edges and returned a fit up to 20 times the oracle's
    # objective, with no error; so did (1, d, b) with a binary b.  fit_rq
    # refuses every design there, (1) and (1, d) too, whose es fit comes
    # from order statistics at any tau.

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_matches_oracle_at_bound(self, side):
        tau = EXTREME_TAU if side == "lower" else 1.0 - EXTREME_TAU
        for kind, rd in extreme_designs():
            fo = rq_oracle(rd, tau)
            fit = fit_rq(rd, tau)
            assert fit.objective == pytest.approx(fo.objective, rel=1e-9), kind
            assert beta_gap(rd, fit.beta, fo.beta) <= 1e-9, kind

    @pytest.mark.parametrize("tau", [5e-324, 1e-9, 1e-6, np.nextafter(EXTREME_TAU, 0.0),
                                     np.nextafter(1.0 - EXTREME_TAU, 1.0), 1.0 - 1e-9])
    def test_refused_beyond_bound(self, tau):
        tau = float(tau)
        kinds = set()
        for kind, rd in extreme_designs(100):
            with pytest.raises(NumericalError, match=r"^tau = .* lies within 0\.0001 of 0 or 1 "):
                fit_rq(rd, tau)
            kinds.add(kind)
        assert kinds == set(EXTREME_KINDS)

    @pytest.mark.parametrize("tau", [5e-324, 1e-10, TIE_RTOL])
    def test_edge_with_no_kink_raises(self, monkeypatch, tau):
        # Up to TIE_RTOL every downward edge of (1, d) is flat with no kink
        # ahead.  With the refusal lifted, the walk enters such an edge,
        # its one edge of the pivot, and raises; it once skipped it.
        monkeypatch.setattr(quantreg, "EXTREME_TAU", 0.0)
        z = np.random.default_rng(0).normal(size=12)
        with pytest.raises(ConvergenceError, match="^simplex found no kink to stop at along an edge$"):
            fit_rq(two_sample(z, [1] * 6 + [0] * 6), tau)

    def test_discrete_covariate_refused(self):
        # Entries of 0 and 1 alone do not exempt a design: beyond the bound
        # (1, d, b) and (b1, b2) went wrong against the oracle too.
        d, b = [0.0, 1.0] * 4, [0.0, 0.0, 1.0, 1.0] * 2
        for cols in ([d, [0, 1, 2, 3] * 2], [[0, 1, 2, 3] * 2], [d, b], [b, d]):
            X = np.column_stack([np.ones(8), *cols])
            with pytest.raises(NumericalError):
                fit_rq(RegressionData(np.arange(8.0), X), 1e-9)
        with pytest.raises(NumericalError):
            fit_rq(RegressionData(np.arange(8.0), np.column_stack([d, b])), 1e-9)

    @pytest.mark.parametrize("tau", [1e-9, 1.0 - 1e-9])
    @pytest.mark.parametrize("with_d", [False, True])
    def test_exempt_designs_match_group_order_statistics(self, tau, with_d):
        # (1) and (1, d), once exempt from the refusal, are refused too.
        # Beyond the oracle's size, at n = 2000, each group's order
        # statistic that the es fit takes reaches the least check
        # objective, that of each group's tau-quantile.
        rng = np.random.default_rng(1207)
        y = np.round(rng.normal(size=2000), 2)
        d = rng.permutation(np.arange(2000) % 2).astype(float)
        X = np.column_stack([np.ones(2000), d]) if with_d else np.ones((2000, 1))
        with pytest.raises(NumericalError, match=r"^tau = .* lies within 0\.0001 of 0 or 1 "):
            fit_rq(RegressionData(y, X), tau)
        groups = [d == 1.0, d == 0.0] if with_d else [np.ones(2000, dtype=bool)]
        best = sum(float(np.sum(rho_tau(y[g] - empirical_quantile(y[g], tau), tau))) for g in groups)
        if with_d:
            objective = fit_group_quantiles(y, groups, tau).objective
        else:
            objective = float(np.sum(rho_tau(y - quantreg._lower_end(y, tau), tau)))
        assert objective == pytest.approx(best, rel=1e-12)


class TestSingularBasis:
    # On the collinear sweep, rounding in A = X B can let a row in the
    # span of the other basis rows cross the plane and enter, and the next
    # pivot's basis is singular.  The walk ends there in a typed error.
    @pytest.mark.parametrize("seed, tau", SINGULAR_PINS)
    def test_pinned_designs_raise_convergence_error(self, seed, tau):
        y, X = sweep_design(seed)
        with pytest.raises(ConvergenceError, match=r"^simplex reached a singular basis, rows \[\d+, \d+, \d+\]$"):
            fit_rq(RegressionData(y, X), tau)

    def test_sweep_ends_in_fit_or_typed_error(self):
        # Seeds 0-249 at three outcome scales and four levels: 2987 fits
        # and 13 singular bases when this was written.  Any error that is
        # not the package's fails the test.
        for seed in range(250):
            y, X = sweep_design(seed)
            for scale in (1e-8, 1.0, 1e8):
                for tau in (0.25, 0.5, 0.75, 0.9):
                    try:
                        fit_rq(RegressionData(y * scale, X), tau)
                    except CovesError:
                        pass
