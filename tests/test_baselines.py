import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import ttest_ind

from coves.baselines import run_ttest
from coves.coves_test import Dataset
from coves.errors import DegenerateDesignError, NumericalError
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
        # far above it and is tested.  Each covariate also runs offset by
        # 1e4, 1e6 and 1e7, far from its spread, with the same noise.
        rng = np.random.default_rng(5)
        outcomes = (
            lambda c, d: np.ones(c.size),
            lambda c, d: np.full(c.size, 1e-100),
            lambda c, d: 2 + 3 * c,
            lambda c, d: 5 + d - 7 * c,
            lambda c, d: 1e8 + c,
        )
        for size in (5, 50, 500, 5000, 50000):
            d = np.repeat([1, 0], size)
            for c0 in (np.arange(2.0 * size), rng.normal(size=2 * size), 1e8 * rng.normal(size=2 * size)):
                for outcome in outcomes:
                    noise = rng.normal(size=2 * size)
                    for c in (c0, c0 + 1e4, c0 + 1e6, c0 + 1e7):
                        z = outcome(c, d)
                        with pytest.raises(DegenerateDesignError, match="residual variance is zero"):
                            run_ttest(Dataset(z=z, d=d, c=c))
                        noisy = z + 1e-9 * np.abs(z) * noise
                        assert np.isfinite(run_ttest(Dataset(z=noisy, d=d, c=c)).t_stat)

    def test_exact_fit_with_far_offset_covariate_refused(self):
        # z = 1 with c = 1e6 + N(0, 1): a covariate far from zero relative
        # to its spread must not turn the exact fit's rounding into a t.
        c = 1e6 + np.random.default_rng(0).normal(size=100)
        with pytest.raises(DegenerateDesignError, match="residual variance is zero"):
            run_ttest(Dataset(z=np.ones(100), d=np.repeat([1, 0], 50), c=c))

    def test_too_few_observations(self):
        data = Dataset(
            z=np.array([1.0, 2.0, 3.0]),
            d=np.array([1, 0, 1]),
            c=np.array([0.5, 1.0, 2.0]),
        )
        with pytest.raises(DegenerateDesignError):
            run_ttest(data)


class TestRankRule:
    # The design is rank deficient exactly where c lies in span(1, d):
    # where c is constant within each group.
    @pytest.mark.parametrize(
        "c",
        [
            np.full(6, 2.0),
            np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]),
            np.array([5.0, 5.0, 5.0, 2.0, 2.0, 2.0]),
            # Three copies of 0.1 average to 0.1 plus an ulp, so the
            # computed centred covariate is rounding, not zero.
            np.array([0.1, 0.1, 0.1, -3.0, -3.0, -3.0]),
            np.zeros(6),
        ],
        ids=["constant", "c=d", "c=2+3d", "rounded-mean", "zero"],
    )
    def test_refuses_a_covariate_in_span_of_intercept_and_treatment(self, c):
        data = Dataset(z=np.array([0.3, 1.2, -0.4, 2.2, 0.9, 1.7]), d=np.repeat([1, 0], 3), c=c)
        with pytest.raises(DegenerateDesignError, match="design matrix is rank deficient"):
            run_ttest(data)

    def test_refuses_rounded_group_constants_at_any_scale_and_size(self):
        rng = np.random.default_rng(8)
        for size in (3, 7, 15, 1000, 50000):
            d = np.repeat([1, 0], size)
            z = rng.normal(size=2 * size)
            for a1, a0 in ((0.1, 0.7), (1e6 + 0.1, -0.3), (1e-120 / 3, 1e-121 / 7), (1e140 / 3, 0.1)):
                c = np.where(d == 1, a1, a0)
                with pytest.raises(DegenerateDesignError, match="design matrix is rank deficient"):
                    run_ttest(Dataset(z=z, d=d, c=c))

    def test_subnormal_covariate_spread_refused(self):
        # At the bottom of check_scale's window, a covariate offset far
        # from its spread leaves c~ whose squares are subnormal.  Above
        # that, an exact power-of-two rescaling of c leaves t unchanged.
        rng = np.random.default_rng(1)
        d = np.repeat([1, 0], 50)
        s = rng.normal(size=100)
        z = rng.normal(size=100) + 0.3 * d + s
        c = (1e4 + s) * 1e-154
        assert run_ttest(Dataset(z=z, d=d, c=c)).t_stat == run_ttest(Dataset(z=z, d=d, c=c * 2.0**600)).t_stat
        for k in (5, 7, 9):
            with pytest.raises(NumericalError, match="rescale c"):
                run_ttest(Dataset(z=z, d=d, c=(10.0**k + s) * 10.0 ** (-150 - k)))

    def test_answers_a_covariate_one_step_off_the_span(self):
        # One entry moved off its group's constant by 1e-10 relative: no
        # longer in span(1, d), and far above the rounding of c~.
        d = np.repeat([1, 0], 3)
        z = np.array([0.3, 1.2, -0.4, 2.2, 0.9, 1.7])
        for c in (np.array([0.1, 0.1, 0.1 * (1 + 1e-10), -3.0, -3.0, -3.0]), d * (1.0 + 1e-10 * np.arange(6))):
            assert np.isfinite(run_ttest(Dataset(z=z, d=d, c=c)).t_stat)


class TestScaleInvariance:
    # c * 10**k scales gamma_hat alone; t and p keep their values to
    # rounding (measured: 1.3e-13 relative on t, 7.4e-13 on p, whose
    # relative error is about t^2 times t's).
    @pytest.mark.parametrize("size", [50, 5000])
    def test_t_and_p_do_not_depend_on_the_covariate_scale(self, size):
        for sc in (1, 2, 3, 4):
            data = sample_scenario(ScenarioSpec.from_scenario(sc, 1.35), size, size, 1)
            base = run_ttest(data)
            for i in range(-120, 121):
                rep = run_ttest(Dataset(z=data.z, d=data.d, c=data.c * 10.0 ** (i / 8)))
                assert rep.t_stat == pytest.approx(base.t_stat, rel=2.5e-13, abs=0), (sc, i / 8)
                assert rep.p_value == pytest.approx(base.p_value, rel=2e-12, abs=0), (sc, i / 8)
                assert rep.beta[2] * 10.0 ** (i / 8) == pytest.approx(base.beta[2], rel=1e-12)


def exact_t(data):
    """The t statistic of the float data in exact rational arithmetic, from
    the normal equations by Cramer's rule."""
    X = [(Fraction(1), Fraction(int(d)), Fraction(float(c))) for d, c in zip(data.d, data.c)]
    z = [Fraction(float(v)) for v in data.z]
    G = [[sum(r[i] * r[j] for r in X) for j in range(3)] for i in range(3)]
    b = [sum(r[i] * zi for r, zi in zip(X, z)) for i in range(3)]

    def det(M):
        return (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
                - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
                + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))

    D = det(G)
    beta = [det([[b[i] if j == k else G[i][j] for j in range(3)] for i in range(3)]) / D for k in range(3)]
    rss = sum((zi - sum(r[j] * beta[j] for j in range(3))) ** 2 for r, zi in zip(X, z))
    inv11 = (G[0][0] * G[2][2] - G[0][2] * G[2][0]) / D
    t2 = beta[1] ** 2 / (rss / (len(z) - 3) * inv11)
    return math.copysign(math.sqrt(t2), beta[1])


class TestExactReference:
    # Against the exact t of the same floats.  A covariate offset far from
    # its spread costs accuracy in proportion: the group means of z and c
    # round at the offset's scale (measured: |t - t_exact| up to
    # 1.7e-15 (1 + offset)(1 + |t|)).
    @pytest.mark.parametrize("m,n", [(3, 4), (5, 5), (10, 10), (20, 20)])
    def test_matches_exact_rational_t(self, m, n):
        rng = np.random.default_rng(3)
        d = np.repeat([1, 0], [m, n])
        for offset in (0.0, 1e2, 1e4, 1e6):
            for _ in range(10):
                c = rng.normal(size=m + n) + offset
                data = Dataset(z=1 + 0.5 * d + 2 * c + rng.normal(size=m + n), d=d, c=c)
                want = exact_t(data)
                got = run_ttest(data).t_stat
                assert abs(got - want) <= 1e-14 * (1 + offset) * (1 + abs(want)), (offset, got, want)


def test_calls_no_linalg_routine(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in dir(np.linalg):
        if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refused)
    for size in (50, 5000):
        for sc in (1, 2, 3, 4):
            assert np.isfinite(run_ttest(sample_scenario(ScenarioSpec.from_scenario(sc, 1.35), size, size, 2)).t_stat)
    for c in (np.full(6, 2.0), np.array([1.0, 2.0, 3.0, 4.0, 5.0, 7.0])):
        with pytest.raises(DegenerateDesignError):
            run_ttest(Dataset(z=1.0 + 0.5 * c, d=np.tile([1, 0], 3), c=c))
