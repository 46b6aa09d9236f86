import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ttest_ind

from coves import baselines
from coves.baselines import _gram_full_rank, run_ttest
from coves.coves_test import Dataset, design_matrix
from coves.errors import DegenerateDesignError
from coves.simgen import ScenarioSpec, sample_scenario

# Hand-computable fixture: balanced groups, covariate centered within each
# group (orthogonal to intercept and treatment), and outcomes chosen so the
# fitted covariate coefficient is exactly zero.
FIX = Dataset(
    z=np.array([2.0, 1.0, 2.0, 5.0, 3.0, 5.0]),
    d=np.array([1, 1, 1, 0, 0, 0]),
    c=np.array([-1.0, 0.0, 1.0, -1.0, 0.0, 1.0]),
)


class TestFixtureAlgebra:
    def test_delta_is_mean_difference(self):
        rep = run_ttest(FIX)
        assert rep.beta[1] == pytest.approx(5.0 / 3.0 - 13.0 / 3.0, rel=1e-12)
        assert rep.beta[2] == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_t(self):
        # RSS = 10/3 on df = 3, (X'X)^-1[1,1] = 2/3.
        rep = run_ttest(FIX)
        want = (-8.0 / 3.0) / np.sqrt((10.0 / 9.0) * (2.0 / 3.0))
        assert rep.t_stat == pytest.approx(want, rel=1e-12)
        assert rep.df == 3

    def test_relation_to_pooled_two_sample_t(self):
        # With a zero fitted covariate coefficient the regression RSS equals
        # the within-group sum of squares, so the regression t differs from
        # the classical pooled t only through the df of the variance
        # estimate: a factor sqrt((N-3)/(N-2)).
        rep = run_ttest(FIX)
        pooled = ttest_ind(FIX.z[FIX.d == 1], FIX.z[FIX.d == 0], equal_var=True)
        n_total = 6
        factor = np.sqrt((n_total - 3) / (n_total - 2))
        assert rep.t_stat == pytest.approx(pooled.statistic * factor, rel=1e-12)


class TestBehavior:
    def test_exact_copy_groups(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=10)
        c = rng.normal(size=10)
        data = Dataset(
            z=np.concatenate([z, z]),
            d=np.concatenate([np.ones(10, dtype=int), np.zeros(10, dtype=int)]),
            c=np.concatenate([c, c]),
        )
        rep = run_ttest(data)
        assert rep.t_stat == pytest.approx(0.0, abs=1e-10)
        assert rep.p_value == pytest.approx(1.0, abs=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        data = Dataset(
            z=rng.normal(size=20),
            d=np.tile([1, 0], 10),
            c=rng.normal(size=20),
        )
        base = run_ttest(data)
        scaled = run_ttest(Dataset(z=7.5 * data.z, d=data.d, c=data.c))
        assert scaled.t_stat == pytest.approx(base.t_stat, rel=1e-10)
        assert scaled.p_value == pytest.approx(base.p_value, rel=1e-10)

    def test_adding_covariate_multiple_leaves_t_unchanged(self):
        # With the covariate orthogonalized against the treatment on a
        # balanced design, z -> z + k*c moves gamma_hat only.
        rng = np.random.default_rng(13)
        m = 12
        d = np.concatenate([np.ones(m, dtype=int), np.zeros(m, dtype=int)])
        raw = rng.normal(size=2 * m)
        c = raw.copy()
        c[d == 1] -= raw[d == 1].mean()
        c[d == 0] -= raw[d == 0].mean()
        z = rng.normal(size=2 * m) + 0.3 * d
        base = run_ttest(Dataset(z=z, d=d, c=c))
        moved = run_ttest(Dataset(z=z + 2.5 * c, d=d, c=c))
        assert moved.beta[2] == pytest.approx(base.beta[2] + 2.5, rel=1e-9)
        assert moved.t_stat == pytest.approx(base.t_stat, rel=1e-9)

    def test_sides(self):
        rep_two = run_ttest(FIX, "two-sided")
        rep_lo = run_ttest(FIX, "one-sided-lower")
        rep_up = run_ttest(FIX, "one-sided-upper")
        assert rep_lo.p_value + rep_up.p_value == pytest.approx(1.0, rel=1e-12)
        assert rep_two.p_value == pytest.approx(2 * min(rep_lo.p_value, rep_up.p_value), rel=1e-12)


class TestDegeneracies:
    def test_rank_deficient(self):
        data = Dataset(z=np.arange(6.0), d=np.tile([1, 0], 3), c=np.full(6, 2.0))
        with pytest.raises(DegenerateDesignError):
            run_ttest(data)

    def test_zero_residual_variance(self):
        d = np.tile([1, 0], 3)
        c = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 7.0])
        data = Dataset(z=1.0 + 2.0 * d + 0.5 * c, d=d, c=c)
        with pytest.raises(DegenerateDesignError):
            run_ttest(data)

    def test_exact_fit_refused_and_slight_noise_accepted(self):
        # Exact fits leave residuals at the rounding level of the fit and
        # are refused at every size; noise of 1e-9 relative to |z| is
        # far above it and is tested.
        rng = np.random.default_rng(5)
        for size in (5, 50, 500, 5000, 50000):
            d = np.repeat([1, 0], size)
            for c in (np.arange(2.0 * size), rng.normal(size=2 * size), 1e8 * rng.normal(size=2 * size)):
                for z in (np.ones(2 * size), np.full(2 * size, 1e-100), 2 + 3 * c, 5 + d - 7 * c, 1e8 + c):
                    with pytest.raises(DegenerateDesignError, match="residual variance is zero"):
                        run_ttest(Dataset(z=z, d=d, c=c))
                    noisy = z + 1e-9 * np.abs(z) * rng.normal(size=z.size)
                    assert np.isfinite(run_ttest(Dataset(z=noisy, d=d, c=c)).t_stat)

    def test_too_few_observations(self):
        data = Dataset(
            z=np.array([1.0, 2.0, 3.0]),
            d=np.array([1, 0, 1]),
            c=np.array([0.5, 1.0, 2.0]),
        )
        with pytest.raises(DegenerateDesignError):
            run_ttest(data)


class TestRankDecision:
    # run_ttest takes full rank from X'X where _gram_full_rank certifies
    # it and asks np.linalg.matrix_rank otherwise; it must refuse exactly
    # the designs matrix_rank finds short.
    def test_refuses_exactly_where_matrix_rank_is_short(self, monkeypatch):
        decisions = {"gram": 0, "svd": 0}

        def counted(xtx, n):
            certified = _gram_full_rank(xtx, n)
            decisions["gram" if certified else "svd"] += 1
            return certified

        monkeypatch.setattr(baselines, "_gram_full_rank", counted)
        for size in (50, 5000):
            for sc in (1, 2, 3, 4):
                data = sample_scenario(ScenarioSpec.from_scenario(sc, 1.35), size, size, 1)
                refused = {}
                for i in range(-120, 121):
                    scaled = Dataset(z=data.z, d=data.d, c=data.c * 10.0 ** (i / 8))
                    short = np.linalg.matrix_rank(design_matrix(scaled)) < 3
                    try:
                        run_ttest(scaled)
                        refused[i] = False
                    except DegenerateDesignError as exc:
                        assert str(exc) == "design matrix is rank deficient"
                        refused[i] = True
                    assert refused[i] == short, (size, sc, i / 8)
                # The sweep crosses the tolerance at both ends of the scale.
                assert [refused[i] for i in (-120, 0, 120)] == [True, False, True]
        # Both branches decide some designs of the sweep.
        assert decisions["gram"] > 0 and decisions["svd"] > 0, decisions
        assert sum(decisions.values()) == 8 * 241

    def test_certifies_the_scenario_designs_without_an_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("matrix_rank called")

        monkeypatch.setattr(np.linalg, "matrix_rank", no_svd)
        for size in (50, 5000):
            for sc in (1, 2, 3, 4):
                run_ttest(sample_scenario(ScenarioSpec.from_scenario(sc, 1.35), size, size, 2))

    @pytest.mark.parametrize(
        "X",
        [
            np.column_stack([np.ones(6), np.tile([1.0, 0.0], 3), np.full(6, 2.0)]),
            np.column_stack([np.ones(8), np.zeros(8)]),
            np.column_stack([np.arange(5.0), 3.0 * np.arange(5.0)]),
            np.full((4, 1), np.nan),
            np.full((4, 1), np.inf),
        ],
        ids=["constant-covariate", "zero-column", "multiple", "nan", "inf"],
    )
    def test_no_certificate_for_deficient_or_non_finite_designs(self, X):
        assert not _gram_full_rank(X.T @ X, X.shape[0])

    @settings(max_examples=400, deadline=None)
    @given(
        n=st.integers(2, 400),
        p=st.integers(1, 4),
        log_noise=st.floats(-17.0, 0.0),
        log_scale=st.floats(-140.0, 140.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_certificate_implies_full_matrix_rank(self, n, p, log_noise, log_scale, seed):
        # Near-dependent columns: the last is a combination of the others
        # plus noise from 1e-17 to 1 relative, then scaled, so designs fall
        # on both sides of the certificate and of matrix_rank's tolerance.
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        if p > 1:
            X[:, -1] = X[:, :-1] @ rng.normal(size=p - 1) + 10.0**log_noise * rng.normal(size=n)
            X[:, -1] *= 10.0**log_scale
        if _gram_full_rank(X.T @ X, n):
            assert np.linalg.matrix_rank(X) == p
