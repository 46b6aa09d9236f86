import struct
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coves.coves_test import design_matrix
from coves.errors import ConvergenceError, DegenerateDesignError, OracleSizeError
from coves.quantreg import (
    RegressionData,
    _nearest,
    _step_length,
    check_objective,
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


class TestInteriorPointBreakdown:
    # Stand-in replications on which a dual slack of the covariate-adjusted
    # fit rounds to exactly zero a step short of convergence.
    SEEDS = [((7, 12, 52), 24, 12), ((9, 12, 70), 24, 12), ((8, 20, 195), 40, 20)]

    @pytest.mark.parametrize("key,m,n", SEEDS)
    def test_raises_convergence_error(self, key, m, n):
        from coves.coves_test import run_coves, run_es
        from coves.mc_engine import replication_seed
        from coves.simgen import TargetedSampler, load_standin

        data = TargetedSampler(*load_standin())(m, n, replication_seed(*key))
        # The breakdown is reported by the error alone, with no numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError) as info:
                fit_rq(RegressionData(data.z, design_matrix(data, True)), 0.75)
            with pytest.raises(ConvergenceError):
                run_coves(data, 0.75)
        assert np.isfinite(info.value.gap) and info.value.gap > 0.0
        assert 0.0 <= run_es(data, 0.75).p_value <= 1.0


def tied_treated_shortfall_counts(data, X, tau):
    """Treated shortfall counts over every optimal vertex, by enumeration.

    A vertex is optimal when its objective lies in the solver's 1e-9
    relative tie window of the minimum.
    """
    y = data.z
    subsets = np.array(list(combinations(range(y.size), X.shape[1])))
    mats = X[subsets]
    ok = np.abs(np.linalg.det(mats)) > 1e-12 * np.prod(np.linalg.norm(mats, axis=2), axis=1)
    betas = np.linalg.solve(mats[ok], y[subsets[ok]][..., None])[..., 0]
    res = y - betas @ X.T
    objs = np.sum(res * (tau - (res < 0)), axis=1)
    best = objs.min()
    tied = res[objs <= best + 1e-9 * (1.0 + abs(best))]
    ztol = 1e-9 * (1.0 + np.max(np.abs(y)))
    return set(np.sum(tied[:, data.d == 1] > ztol, axis=1).tolist())


class TestDegenerateDesigns:
    # Scenario 2 at (8,8): tau*N_d is an integer for tau in {0.5, 0.75},
    # so the LP optimum is a whole face rather than a single vertex.
    SEEDS = range(40)
    CASES = [(0.5, True), (0.5, False), (0.75, True), (0.75, False)]
    # On an optimal face the polish can keep the interior-point iterate:
    # no p-subset of the p+3 nearest points is an optimal vertex.
    NOT_A_VERTEX = {(0.75, True): {27, 31}, (0.75, False): {27}}

    @staticmethod
    def problem(seed, cov, size=8):
        from coves.simgen import ScenarioSpec, sample_scenario

        data = sample_scenario(ScenarioSpec.from_scenario(2, 0.0), size, size, seed)
        X = design_matrix(data, cov)
        return data, X, RegressionData(data.z, X)

    @pytest.mark.parametrize("tau,cov", CASES)
    def test_objective_matches_oracle(self, tau, cov):
        for seed in self.SEEDS:
            _, _, rd = self.problem(seed, cov)
            fo = rq_oracle(rd, tau)
            assert fit_rq(rd, tau).objective == pytest.approx(fo.objective, rel=1e-9), seed

    @pytest.mark.parametrize("tau,cov", CASES)
    def test_fit_is_vertex(self, tau, cov):
        for seed in self.SEEDS:
            if seed not in self.NOT_A_VERTEX.get((tau, cov), ()):
                _, X, rd = self.problem(seed, cov)
                assert len(fit_rq(rd, tau).zero_set) >= X.shape[1], seed

    @pytest.mark.xfail(strict=True, reason="polish keeps a non-vertex on an optimal face")
    @pytest.mark.parametrize(
        "tau,cov,seed",
        [(*case, seed) for case, seeds in NOT_A_VERTEX.items() for seed in sorted(seeds)],
    )
    def test_fit_is_vertex_on_known_faces(self, tau, cov, seed):
        _, X, rd = self.problem(seed, cov)
        assert len(fit_rq(rd, tau).zero_set) >= X.shape[1]

    @pytest.mark.parametrize("tau,cov", CASES)
    def test_optimal_vertices_disagree_on_treated_shortfall(self, tau, cov):
        # Which optimal vertex the solver returns fixes s_1, and so the
        # statistic; only the path of the iterates decides it.
        assert any(
            len(tied_treated_shortfall_counts(data, X, tau)) > 1
            for data, X, _ in (self.problem(seed, cov) for seed in self.SEEDS)
        )

    def test_unique_shortfall_when_tau_n_is_fractional(self):
        # (10,10) at tau = 0.75: tau*N_d = 7.5, the optimum is one vertex.
        for seed in self.SEEDS:
            data, X, _ = self.problem(seed, True, size=10)
            assert len(tied_treated_shortfall_counts(data, X, 0.75)) == 1, seed


def masked_step_length(x, dx):
    """The masked step length that _step_length must reproduce bit for bit."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return -float(np.where(dx < 0, x / dx, -1.0).max(initial=-1.0))


def bits(a):
    return struct.pack("<d", a)


class TestStepLength:
    # Signed zeros, subnormals, the smallest normal, huge, infinite and NaN
    # values, as slacks and as steps.
    SPECIAL = [
        s * v
        for v in (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.5, 1.0, 3.0, 1e300, np.inf)
        for s in (1.0, -1.0)
    ] + [np.nan]

    @staticmethod
    def check(x, dx):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            fast = _step_length(x, dx)
        assert bits(fast) == bits(masked_step_length(x, dx)), (x, dx)

    def test_special_values(self):
        # Each pair alone, then beside an ordinary blocking ratio of 0.25
        # and beside an entry that blocks nothing.
        for x0 in self.SPECIAL:
            for dx0 in self.SPECIAL:
                self.check(np.array([[x0], [1.0]]), np.array([[dx0], [0.5]]))
                self.check(np.array([[x0, 1.0], [2.0, 1.0]]), np.array([[dx0, -4.0], [0.5, 0.0]]))
                self.check(np.array([[1.0, x0]]), np.array([[-0.0, dx0]]))

    def test_random_arrays(self):
        rng = np.random.default_rng(20)
        for _ in range(3000):
            k = int(rng.integers(1, 40))
            x = np.exp(rng.normal(0.0, 8.0, size=(2, k)))
            dx = rng.normal(size=(2, k)) * np.exp(rng.normal(0.0, 8.0, size=(2, k)))
            # Sprinkle exact zeros and, now and then, non-positive slacks.
            dx[rng.random((2, k)) < 0.05] = 0.0
            if rng.random() < 0.2:
                x[rng.random((2, k)) < 0.1] = rng.choice([0.0, -0.0, -1.0])
            self.check(x, dx)


def stable_nearest(a, k):
    """The selection _nearest must reproduce: the k first of a stable argsort."""
    return np.sort(np.argsort(a, kind="stable")[:k])


class TestNearestSelection:
    # Integer-valued |r| with heavy ties, like the stand-in outcome, which
    # takes 41 distinct values in 150.
    def test_tie_heavy_integers(self):
        rng = np.random.default_rng(41)
        for _ in range(400):
            n = int(rng.integers(1, 151))
            a = np.abs(rng.integers(-20, 21, size=n) - rng.integers(0, 3)).astype(float)
            for k in {1, min(n, 6), int(rng.integers(1, n + 1)), n}:
                got = _nearest(a, k)
                assert np.array_equal(got, stable_nearest(a, k)), (a, k)

    def test_all_tied(self):
        a = np.full(9, 2.5)
        for k in range(1, 10):
            assert np.array_equal(_nearest(a, k), np.arange(k))

    def test_standin_residuals(self):
        from coves.simgen import load_standin

        f, _ = load_standin()
        a = np.abs(np.random.default_rng(3).permutation(f.values) - np.median(f.values))
        for k in range(1, a.size + 1):
            assert np.array_equal(_nearest(a, k), stable_nearest(a, k)), k


class TestLargeDesignPins:
    # mc-large-shaped replications: scenario 3 null at (5000, 5000), tau =
    # 0.75, so tau*N_d = 3750 and the optimum is a whole face.  Which of its
    # points the solver returns shows in the shortfall counts.  Recorded
    # with the masked step length and the argsort polish selection.
    PINS = [
        (0, (1250, 1249), 3200.3514045774737, (1250, 1250), 3534.3985803235823),
        (1, (1250, 1249), 3174.40061438025, (1250, 1250), 3526.8385294017858),
        (2, (1249, 1250), 3181.778818709867, (1250, 1249), 3552.433858021427),
    ]

    @pytest.mark.parametrize("pin", PINS, ids=lambda pin: f"rep{pin[0]}")
    def test_shortfall_counts_and_objective(self, pin):
        rep, coves_counts, coves_obj, es_counts, es_obj = pin
        from coves.coves_test import run_coves, run_es
        from coves.mc_engine import replication_seed
        from coves.simgen import ScenarioSampler, ScenarioSpec

        data = ScenarioSampler(ScenarioSpec.from_scenario(3, 0.0))(5000, 5000, replication_seed(0, 0, rep))
        coves = run_coves(data, 0.75)
        es = run_es(data, 0.75)
        assert coves.s_counts == coves_counts
        assert coves.fit.objective == pytest.approx(coves_obj, rel=1e-12)
        assert es.s_counts == es_counts
        assert es.fit.objective == pytest.approx(es_obj, rel=1e-12)
