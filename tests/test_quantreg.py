import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coves.coves_test import design_matrix
from coves.errors import ConvergenceError, DegenerateDesignError, OracleSizeError
from coves.quantreg import (
    TIE_RTOL,
    RegressionData,
    check_objective,
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
            n_neg, n_nonpos = fit.sign_counts()
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
        assert fit.objective == pytest.approx(check_objective(fit.residuals, tau), rel=1e-12)


class TestRegressionData:
    def test_requires_finite(self):
        with pytest.raises(ValueError):
            RegressionData(np.array([1.0, np.nan]), np.ones((2, 1)))

    def test_requires_enough_rows(self):
        with pytest.raises(ValueError):
            RegressionData(np.array([1.0]), np.ones((1, 2)))


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
    """fit_group_quantiles on the outcomes and indicator of a (1, d) design."""
    return fit_group_quantiles(rd.y, rd.X[:, 1], tau)


def assert_same_fit(a, b):
    assert a.beta.tobytes() == b.beta.tobytes()
    assert a.residuals.tobytes() == b.residuals.tobytes()
    assert a.objective == b.objective
    assert np.array_equal(a.zero_set, b.zero_set)
    assert a.zero_tol == b.zero_tol


def assert_lower_end(rd, fit, tau):
    """Each group's fitted quantile q is the lower end of its optimal
    interval: #{z < q} < tau*N_d <= #{z <= q}, with tau*N_d in floats as
    empirical_quantile takes it.  z - q has the sign of z - q exactly."""
    for g in (0.0, 1.0):
        r = fit.residuals[rd.X[:, 1] == g]
        assert np.sum(r < 0.0) < tau * r.size <= np.sum(r <= 0.0), (g, tau)


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

    @pytest.mark.parametrize("tau,size", [(0.1, 30), (0.55, 100), (0.7, 90)])
    def test_near_integral_tau_n_takes_ceil_order_statistic(self, tau, size):
        # tau*N_d in floats: 0.1*30 rounds to exactly 3, while 0.55*100 and
        # 0.7*90 land a hair above 55 and below 63.  The fit takes the
        # ceil(tau*N_d)-th order statistic of the float product, as every
        # quantile in the package does.
        assert abs(tau * size - round(tau * size)) < 1e-13
        k = int(np.ceil(tau * size))
        for seed in range(10):
            rd = self.scenario(1, 0.0, size, size, seed)
            fit = group_fit(rd, tau)
            assert fit.beta[0] == np.sort(rd.y[rd.X[:, 1] == 0])[k - 1], seed
            assert_lower_end(rd, fit, tau)

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
                ref = fit_group_quantiles(data.z, data.d, tau)
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
