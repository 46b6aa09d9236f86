import re
import warnings

import numpy as np
import pytest

from coves.baselines import run_ttest
from coves.coves_test import (
    OUTCOME_SCALE,
    Dataset,
    adjusted_outcomes,
    coves_stat,
    decompose_T,
    design_matrix,
    orthogonalized_covariate,
    p_value,
    run_coves,
    run_es,
    variance_est,
)
from coves.errors import (
    DataError,
    DegenerateDensityError,
    DegenerateDesignError,
    DegenerateSpreadError,
    EmptyShortfallError,
    NumericalError,
)
from coves.quantreg import QuantileFit, RegressionData, fit_rq
from coves.simgen import ScenarioSpec, sample_scenario

# ---------------------------------------------------------------------------
# The pinned eight-point fixture.  Golden values were computed before the
# pipeline was built: the fit by vertex enumeration, everything downstream
# by direct scalar arithmetic (see the values' derivation in the repo
# history of tests).  The optimum interpolates six points exactly:
# z = c - 1, leaving residuals (0,0,0,7, 0,0,0,1).
# ---------------------------------------------------------------------------
FIX_Z = np.array([0.0, 1.0, 2.0, 10.0, 0.0, 1.0, 2.0, 4.0])
FIX_D = np.array([1, 1, 1, 1, 0, 0, 0, 0])
FIX_C = np.array([1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0])
FIX_TAU = 0.5

GOLD = {
    "beta": (-1.0, 0.0, 1.0),
    "residuals": (0.0, 0.0, 0.0, 7.0, 0.0, 0.0, 0.0, 1.0),
    "adjusted": (-1.0, -1.0, -1.0, 6.0, -1.0, -1.0, -1.0, 0.0),
    "s_counts": (1, 1),
    "coves": (6.0, 0.0),
    "t_stat": 6.0,
    "cbar": (4.0, 4.0),
    "cstar": (-1.5, -0.5, 0.5, 1.5, -1.5, -0.5, 0.5, 1.5),
    "cstar_sumsq": 10.0,
    "v": (36.75, 0.75),
    "u_f": 5.0361019490839993,
    # cbar_1 = cbar_0 drops the covariate term, leaving the tail term
    # V_1/s_1^2 + V_0/s_0^2 = 36.75/1 + 0.75/1 = 37.5.  Then
    # z = 6/sqrt(37.5) = sqrt(0.96), p_two = erfc(z/sqrt(2)), and the
    # one-sided values are p_two/2 and 1 - p_two/2.
    "s2": 37.5,
    "z": 0.9797958971132713,
    "p_two": 0.32718687779030564,
    "p_upper": 0.16359343889515282,
    "p_lower": 0.8364065611048472,
}
ES_GOLD = {
    "beta": (1.0, 0.0),
    "s_counts": (2, 2),
    "coves": (6.0, 3.0),
    "t_stat": 3.0,
    "v": (57.0, 6.0),
    # s_d = (1 - tau) N_d = 2 here, so 57/4 + 6/4 is also the nominal-count value.
    "s2": 15.75,
    "z": 0.7559289460184544,
    "p_two": 0.44969179796889092,
}


@pytest.fixture
def fixture_data():
    return Dataset(z=FIX_Z.copy(), d=FIX_D.copy(), c=FIX_C.copy())


@pytest.fixture
def fixture_fit(fixture_data):
    return fit_rq(RegressionData(fixture_data.z, design_matrix(fixture_data)), FIX_TAU)


def random_dataset(seed, m=12, n=12):
    rng = np.random.default_rng(seed)
    d = np.concatenate([np.ones(m, dtype=int), np.zeros(n, dtype=int)])
    c = rng.normal(2.5, 0.8, m + n)
    z = rng.normal(0, 1, m + n) + 0.7 * c + 0.4 * d
    return Dataset(z=z, d=d, c=c)


class TestDataset:
    def test_rejects_bad_indicator(self):
        with pytest.raises(DataError):
            Dataset(z=np.ones(4), d=np.array([0, 1, 2, 0]), c=np.ones(4))

    def test_rejects_single_group(self):
        with pytest.raises(DataError):
            Dataset(z=np.ones(3), d=np.array([1, 1, 1]), c=np.ones(3))

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            Dataset(z=np.array([1.0, np.inf]), d=np.array([0, 1]), c=np.ones(2))

    def test_rejects_two_dimensional(self):
        with pytest.raises(DataError, match=r"^z, d, c must be one-dimensional$"):
            Dataset(z=np.ones((2, 2)), d=np.array([[0, 1], [0, 1]]), c=np.ones((2, 2)))

    def test_rejects_unequal_lengths(self):
        with pytest.raises(DataError, match=r"^z, d, c must have equal length$"):
            Dataset(z=np.ones(4), d=np.array([0, 1, 0, 1]), c=np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_nonfinite_indicator(self, bad):
        with pytest.raises(DataError, match=r"^treatment indicator d must contain only 0 or 1$"):
            Dataset(z=np.ones(3), d=np.array([0.0, 1.0, bad]), c=np.ones(3))

    def test_group_sizes(self, fixture_data):
        assert fixture_data.n_treat == 4
        assert fixture_data.n_control == 4

    # Each input fails its own check and every check after it, so the
    # message shows that the checks still run in this order.
    @pytest.mark.parametrize("z,d,c,message", [
        (np.full((2, 2), np.inf), [[0, 2], [2, 0]], np.ones((2, 2)), "z, d, c must be one-dimensional"),
        (np.full(4, np.inf), [2, 2, 2, 2], np.ones(3), "z, d, c must have equal length"),
        ([1.0, np.nan, 3.0], [2, 2, 2], [0.0, 1.0, 2.0], "z and c must be finite"),
        ([1.0, 2.0, 3.0], [1, 1, 0.5], [0.0, 1.0, np.inf], "z and c must be finite"),
        ([1.0, 2.0, 3.0], [2, 2, 2], [0.0, 1.0, 2.0], "treatment indicator d must contain only 0 or 1"),
        ([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], [0.0, 1.0, 2.0], "both treatment groups must be nonempty"),
        ([1.0, 2.0], [0, 0], [0.0, 1.0], "both treatment groups must be nonempty"),
    ])
    def test_messages_in_check_order(self, z, d, c, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            Dataset(z=np.asarray(z), d=np.asarray(d), c=np.asarray(c))

    def test_indicator_kept_as_int_and_counted(self):
        data = Dataset(z=np.zeros(5), d=np.array([True, False, True, True, False]), c=np.zeros(5))
        assert data.d.dtype == np.dtype(int)
        assert data.d.tolist() == [1, 0, 1, 1, 0]
        assert (data.n_treat, data.n_control) == (3, 2)

    @pytest.mark.parametrize("dtype", [int, float, bool])
    def test_groups_split_the_rows(self, dtype):
        d = np.array([1, 0, 0, 1, 1, 0, 1], dtype=dtype)
        data = Dataset(z=np.arange(7.0), d=d, c=np.zeros(7))
        treated, control = data.groups
        assert treated.dtype == control.dtype == np.dtype(bool)
        assert np.array_equal(treated, d == 1)
        assert np.array_equal(control, d == 0)
        assert not (treated & control).any()
        assert (treated | control).all()
        assert (data.n_treat, data.n_control) == (np.count_nonzero(treated), np.count_nonzero(control))
        assert type(data.n_treat) is type(data.n_control) is int

    def test_pipeline_leaves_groups_unchanged(self):
        data = random_dataset(3)
        before = [in_g.tobytes() for in_g in data.groups]
        report = run_coves(data, 0.75)
        run_es(data, 0.75)
        decompose_T(data, report.fit, (0.0, 0.4, 0.7))
        assert [in_g.tobytes() for in_g in data.groups] == before
        assert (data.n_treat, data.n_control) == (12, 12)

    def test_indicator_and_groups_are_read_only(self):
        # An in-place edit of d or of a mask would leave the split stale
        # (d[0] = 0 kept n_treat and groups[0][0]); the dataset refuses it.
        data = random_dataset(3)
        for owned in (data.d, *data.groups):
            with pytest.raises(ValueError, match="read-only"):
                owned[0] = 0
        assert (data.d[0], data.groups[0][0], data.n_treat) == (1, True, 12)
        # z and c may be the caller's arrays and stay writeable.
        assert data.z.flags.writeable and data.c.flags.writeable

    def test_built_from_read_only_views(self):
        # Reversed views of a dataset's read-only d build a new dataset
        # that owns read-only copies and gives the same report.
        data = random_dataset(3)
        rev = Dataset(z=data.z[::-1], d=data.d[::-1], c=data.c[::-1])
        assert np.array_equal(rev.d, data.d[::-1]) and not rev.d.flags.writeable
        assert np.array_equal(rev.groups[0], data.groups[0][::-1])
        assert run_es(rev, 0.75).s_counts == run_es(data, 0.75).s_counts


class TestAdjustedOutcomes:
    def test_golden(self, fixture_data, fixture_fit):
        assert np.array_equal(adjusted_outcomes(fixture_data, fixture_fit), GOLD["adjusted"])

    def test_rejects_other_datasets_fit(self, fixture_fit):
        other = sample_scenario(ScenarioSpec.from_scenario(2, 0.0), 5, 5, 0)
        with pytest.raises(ValueError, match=r"^fit does not match the dataset$"):
            adjusted_outcomes(other, fixture_fit)

    def test_zero_gamma_returns_z(self, fixture_data):
        fit = QuantileFit(
            tau=0.5,
            beta=np.array([0.0, 0.0, 0.0]),
            residuals=fixture_data.z.copy(),
            objective=0.0,
            zero_set=np.array([], dtype=int),
            zero_tol=1e-9,
        )
        assert np.array_equal(adjusted_outcomes(fixture_data, fit), fixture_data.z)

    def test_constant_covariate_is_pure_shift(self):
        data = Dataset(z=np.arange(6.0), d=np.array([1, 1, 1, 0, 0, 0]), c=np.full(6, 2.0))
        fit = QuantileFit(
            tau=0.5,
            beta=np.array([0.0, 0.0, 1.5]),
            residuals=np.zeros(6),
            objective=0.0,
            zero_set=np.arange(6),
            zero_tol=1e-9,
        )
        assert np.array_equal(adjusted_outcomes(data, fit), np.arange(6.0) - 3.0)


class TestCovesStat:
    def test_positive_subset_mean(self):
        data = Dataset(
            z=np.array([1.0, 2.0, 3.0, 4.0, 0.0]),
            d=np.array([1, 1, 1, 1, 0]),
            c=np.zeros(5),
        )
        fit = QuantileFit(
            tau=0.5,
            beta=np.array([0.0, 0.0, 0.0]),
            residuals=np.array([-1.0, -1.0, 1.0, 1.0, 1.0]),
            objective=0.0,
            zero_set=np.array([], dtype=int),
            zero_tol=1e-9,
        )
        assert coves_stat(data, fit, 1) == 3.5

    def test_empty_shortfall(self):
        data = Dataset(
            z=np.array([1.0, 2.0, 3.0]),
            d=np.array([1, 1, 0]),
            c=np.zeros(3),
        )
        fit = QuantileFit(
            tau=0.5,
            beta=np.zeros(3),
            residuals=np.array([-1.0, -1.0, 1.0]),
            objective=0.0,
            zero_set=np.array([], dtype=int),
            zero_tol=1e-9,
        )
        with pytest.raises(EmptyShortfallError):
            coves_stat(data, fit, 1)

    def test_golden(self, fixture_data, fixture_fit):
        assert coves_stat(fixture_data, fixture_fit, 1) == GOLD["coves"][0]
        assert coves_stat(fixture_data, fixture_fit, 0) == GOLD["coves"][1]

    def test_rejects_unknown_group(self, fixture_data, fixture_fit):
        with pytest.raises(ValueError, match=r"^group must be 0 or 1$"):
            coves_stat(fixture_data, fixture_fit, 2)


class TestOrthogonalizedCovariate:
    def test_single_group_centering(self):
        data = Dataset(
            z=np.zeros(4),
            d=np.array([1, 1, 1, 0]),
            c=np.array([1.0, 2.0, 3.0, 5.0]),
        )
        assert np.array_equal(orthogonalized_covariate(data), [-1.0, 0.0, 1.0, 0.0])

    def test_constant_covariate_all_zero(self):
        data = Dataset(z=np.zeros(4), d=np.array([1, 0, 1, 0]), c=np.full(4, 3.3))
        assert np.array_equal(orthogonalized_covariate(data), np.zeros(4))

    def test_sums_to_zero_per_group(self):
        data = random_dataset(5)
        cstar = orthogonalized_covariate(data)
        for g in (0, 1):
            assert np.sum(cstar[data.d == g]) == pytest.approx(0.0, abs=1e-10)

    def test_golden(self, fixture_data):
        assert np.array_equal(orthogonalized_covariate(fixture_data), GOLD["cstar"])


class TestVarianceEst:
    def test_equal_cbar_drops_second_term(self):
        # Shortfall counts (5, 5): 2/25 + 3/25.
        s2 = variance_est(2.0, 3.0, 1.7, 1.7, 0.5, 10.0, 0.75, 5, 5)
        assert s2 == pytest.approx(0.2, rel=1e-14)

    def test_single_positive_residual_collapse(self):
        # One positive residual r in a group of N: V = r^2 (1 - 1/N).
        r, big_n = 1.0, 4
        v0 = r**2 * (1 - 1 / big_n)
        assert GOLD["v"][1] == v0

    def test_golden(self):
        s2 = variance_est(
            GOLD["v"][0],
            GOLD["v"][1],
            GOLD["cbar"][0],
            GOLD["cbar"][1],
            GOLD["u_f"],
            GOLD["cstar_sumsq"],
            FIX_TAU,
            *GOLD["s_counts"],
        )
        assert s2 == GOLD["s2"]

    def test_degenerate_density(self):
        with pytest.raises(DegenerateDensityError):
            variance_est(1.0, 1.0, 1.0, 2.0, 0.0, 10.0, 0.75, 5, 5)


class TestRunCoves:
    def test_golden_report(self, fixture_data):
        rep = run_coves(fixture_data, FIX_TAU)
        assert np.allclose(rep.fit.beta, GOLD["beta"], atol=1e-12)
        assert np.array_equal(rep.fit.residuals, GOLD["residuals"])
        assert rep.s_counts == GOLD["s_counts"]
        assert rep.coves == GOLD["coves"]
        assert rep.t_stat == GOLD["t_stat"]
        assert rep.cbar == GOLD["cbar"]
        assert rep.cstar_sumsq == GOLD["cstar_sumsq"]
        assert rep.v == GOLD["v"]
        assert rep.u_f == pytest.approx(GOLD["u_f"], rel=1e-12)
        assert rep.s2 == pytest.approx(GOLD["s2"], rel=1e-12)
        assert rep.z_score == pytest.approx(GOLD["z"], rel=1e-12)
        assert rep.p_value == pytest.approx(GOLD["p_two"], rel=1e-12)

    def test_sides(self, fixture_data):
        assert run_coves(fixture_data, FIX_TAU, "one-sided-upper").p_value == pytest.approx(
            GOLD["p_upper"], rel=1e-12
        )
        assert run_coves(fixture_data, FIX_TAU, "one-sided-lower").p_value == pytest.approx(
            GOLD["p_lower"], rel=1e-12
        )
        with pytest.raises(ValueError):
            run_coves(fixture_data, FIX_TAU, "both")

    def test_exact_copy_groups(self):
        rng = np.random.default_rng(17)
        z = rng.normal(size=15)
        c = rng.normal(2.0, 1.0, 15)
        data = Dataset(
            z=np.concatenate([z, z]),
            d=np.concatenate([np.ones(15, dtype=int), np.zeros(15, dtype=int)]),
            c=np.concatenate([c, c]),
        )
        rep = run_coves(data, 0.6)
        assert rep.t_stat == 0.0
        assert rep.p_value == 1.0

    def test_shortfall_ratio_tracks_level(self):
        data = random_dataset(21, m=120, n=120)
        rep = run_coves(data, 0.75)
        for s, group_n in zip(rep.s_counts, (120, 120)):
            assert abs(s / group_n - 0.25) < 0.12

    def test_empty_shortfall_at_extreme_tau(self):
        data = random_dataset(3, m=4, n=4)
        with pytest.raises(EmptyShortfallError):
            run_coves(data, 0.95)

    def test_constant_covariate_design_degenerate(self):
        data = Dataset(
            z=np.arange(8.0),
            d=np.array([1, 1, 1, 1, 0, 0, 0, 0]),
            c=np.full(8, 2.0),
        )
        with pytest.raises(DegenerateDesignError):
            run_coves(data, 0.5)


def rigged_fit(residuals):
    """A fit with these residuals, whatever the data."""
    residuals = np.asarray(residuals, dtype=float)
    return QuantileFit(
        tau=0.5,
        beta=np.zeros(3),
        residuals=residuals,
        objective=0.0,
        zero_set=np.flatnonzero(residuals == 0.0),
        zero_tol=1e-9,
    )


class TestErrorOrder:
    """An empty treated shortfall set is reported before an empty control
    set, and both before DegenerateSpreadError and DegenerateDensityError."""

    D = np.array([1, 1, 1, 1, 0, 0, 0, 0])

    def run(self, monkeypatch, residuals, c):
        from coves import coves_test

        monkeypatch.setattr(coves_test, "RegressionData", lambda y, X: None)
        monkeypatch.setattr(coves_test, "fit_rq", lambda rd, tau: rigged_fit(residuals))
        return run_coves(Dataset(z=np.arange(8.0), d=self.D, c=np.asarray(c, dtype=float)), 0.5)

    # Residuals (treated, control).  A constant group has no spread, and a
    # covariate constant within each group gives u_f = 0.
    SPREAD_0 = [1.0, -1.0, 2.0, -2.0]
    NO_SPREAD = [3.0, 3.0, 3.0, 3.0]
    EMPTY = [-1.0, -1.0, -1.0, -1.0]
    C_FREE = [1.0, 2.0, 3.0, 4.0, 4.0, 1.0, 3.0, 2.0]
    C_FLAT = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]

    @pytest.mark.parametrize("treated,control,c,error,match", [
        (EMPTY, EMPTY, C_FLAT, EmptyShortfallError, "group 1 "),
        (EMPTY, SPREAD_0, C_FLAT, EmptyShortfallError, "group 1 "),
        (SPREAD_0, EMPTY, C_FLAT, EmptyShortfallError, "group 0 "),
        (NO_SPREAD, EMPTY, C_FLAT, EmptyShortfallError, "group 0 "),
        (NO_SPREAD, SPREAD_0, C_FLAT, DegenerateSpreadError, "spread is zero"),
        (SPREAD_0, NO_SPREAD, C_FLAT, DegenerateSpreadError, "spread is zero"),
        (SPREAD_0, SPREAD_0, C_FLAT, DegenerateDensityError, "must be positive, got 0.0"),
    ])
    def test_first_error_wins(self, monkeypatch, treated, control, c, error, match):
        with pytest.raises(error, match=match):
            self.run(monkeypatch, treated + control, c)

    def test_rigged_fit_reports(self, monkeypatch):
        rep = self.run(monkeypatch, self.SPREAD_0 + self.SPREAD_0, self.C_FREE)
        assert rep.s_counts == (2, 2)

    def test_empty_treated_before_empty_control_on_data(self):
        # At tau = 0.9 a group of 4 distinct values is fitted at its 4th,
        # its largest, so its shortfall set is empty; a group of 20 is
        # fitted at its 18th and keeps two values above.
        def data(n1, n0):
            z = np.concatenate([np.arange(float(n1)), np.arange(float(n0))])
            d = np.concatenate([np.ones(n1, dtype=int), np.zeros(n0, dtype=int)])
            return Dataset(z=z, d=d, c=np.zeros(n1 + n0))

        assert run_es(data(20, 20), 0.9).s_counts == (2, 2)
        for n1, n0, group in [(4, 4, 1), (4, 20, 1), (20, 4, 0)]:
            with pytest.raises(EmptyShortfallError, match=f"group {group} "):
                run_es(data(n1, n0), 0.9)


class TestRunEs:
    def test_golden_report(self, fixture_data):
        rep = run_es(fixture_data, FIX_TAU)
        assert np.allclose(rep.fit.beta, ES_GOLD["beta"], atol=1e-12)
        assert rep.s_counts == ES_GOLD["s_counts"]
        assert rep.coves == ES_GOLD["coves"]
        assert rep.t_stat == ES_GOLD["t_stat"]
        assert rep.v == ES_GOLD["v"]
        assert rep.s2 == pytest.approx(ES_GOLD["s2"], rel=1e-12)
        assert rep.z_score == pytest.approx(ES_GOLD["z"], rel=1e-12)
        assert rep.p_value == pytest.approx(ES_GOLD["p_two"], rel=1e-12)
        assert rep.u_f == 0.0

    def test_constant_covariate_runs(self):
        # The adjusted test cannot fit a constant covariate; the
        # unadjusted variant ignores it entirely.
        rng = np.random.default_rng(8)
        data = Dataset(
            z=rng.normal(size=16),
            d=np.tile([1, 0], 8),
            c=np.full(16, 5.0),
        )
        rep = run_es(data, 0.5)
        assert np.isfinite(rep.z_score)

    def test_exact_copy_groups(self):
        rng = np.random.default_rng(29)
        z = rng.normal(size=12)
        c = rng.normal(size=12)
        data = Dataset(
            z=np.concatenate([z, z]),
            d=np.concatenate([np.ones(12, dtype=int), np.zeros(12, dtype=int)]),
            c=np.concatenate([c, c]),
        )
        assert run_es(data, 0.5).t_stat == 0.0

    def test_tail_term_uses_shortfall_counts(self):
        # 50 tie-free outcomes per group at tau = 0.75: each group's fitted
        # quantile is its 38th order statistic, leaving s_d = 12 points
        # strictly above it, short of (1 - tau) N_d = 12.5.
        rng = np.random.default_rng(41)
        data = Dataset(
            z=rng.normal(size=100),
            d=np.repeat([1, 0], 50),
            c=np.zeros(100),
        )
        rep = run_es(data, 0.75)
        assert rep.s_counts == (12, 12)
        v1, v0 = rep.v
        assert rep.s2 == v1 / 12**2 + v0 / 12**2


class TestDecomposition:
    def test_golden(self, fixture_data, fixture_fit):
        direct, decomposed = decompose_T(fixture_data, fixture_fit, (1.0, 0.5, 0.25))
        assert direct == GOLD["t_stat"]
        assert decomposed == pytest.approx(direct, rel=1e-13)

    def test_gamma_matching_fit(self, fixture_data, fixture_fit):
        # Supplying the fitted gamma kills the middle term.
        gamma_hat = fixture_fit.beta[2]
        direct, decomposed = decompose_T(fixture_data, fixture_fit, (0.0, 0.25, gamma_hat))
        pos = fixture_fit.positive_mask()
        e = fixture_data.z - 0.25 * fixture_data.d - gamma_hat * fixture_data.c
        want = 0.25 + (
            e[pos & (fixture_data.d == 1)].mean() - e[pos & (fixture_data.d == 0)].mean()
        )
        assert decomposed == pytest.approx(want, rel=1e-13)
        assert decomposed == pytest.approx(direct, rel=1e-13)

    def test_identity_on_scenario_datasets(self):
        spec = ScenarioSpec.from_scenario(2, 1.35)
        for seed in range(40):
            data = sample_scenario(spec, 25, 25, seed)
            fit = fit_rq(RegressionData(data.z, design_matrix(data)), 0.75)
            direct, decomposed = decompose_T(data, fit, (5.0, 0.0, 1.0))
            assert abs(direct - decomposed) <= 1e-12 * (1 + abs(direct))

    def test_identity_for_arbitrary_parameters(self):
        # The identity is algebraic; it holds whatever parameters are supplied.
        rng = np.random.default_rng(31)
        for seed in range(25):
            data = random_dataset(seed + 100)
            fit = fit_rq(RegressionData(data.z, design_matrix(data)), 0.5)
            params = tuple(rng.normal(size=3))
            direct, decomposed = decompose_T(data, fit, params)
            assert abs(direct - decomposed) <= 1e-12 * (1 + abs(direct))


class TestInvariances:
    def test_location_shift(self):
        data = random_dataset(77, m=30, n=30)
        base = run_coves(data, 0.75)
        shifted = run_coves(Dataset(z=data.z + 11.0, d=data.d, c=data.c), 0.75)
        assert shifted.coves[0] == pytest.approx(base.coves[0] + 11.0, rel=1e-9)
        assert shifted.coves[1] == pytest.approx(base.coves[1] + 11.0, rel=1e-9)
        assert shifted.t_stat == pytest.approx(base.t_stat, rel=1e-7, abs=1e-9)
        assert shifted.z_score == pytest.approx(base.z_score, rel=1e-7)
        assert shifted.p_value == pytest.approx(base.p_value, rel=1e-7)

    def test_covariate_shift(self):
        data = random_dataset(78, m=30, n=30)
        base = run_coves(data, 0.75)
        shifted = run_coves(Dataset(z=data.z, d=data.d, c=data.c + 4.0), 0.75)
        assert shifted.t_stat == pytest.approx(base.t_stat, rel=1e-7, abs=1e-9)
        assert shifted.s2 == pytest.approx(base.s2, rel=1e-7)
        assert shifted.z_score == pytest.approx(base.z_score, rel=1e-7)

    def test_group_label_swap(self):
        data = random_dataset(79, m=25, n=35)
        base = run_coves(data, 0.75)
        swapped = run_coves(Dataset(z=data.z, d=1 - data.d, c=data.c), 0.75)
        assert swapped.t_stat == pytest.approx(-base.t_stat, rel=1e-9)
        assert swapped.z_score == pytest.approx(-base.z_score, rel=1e-7)
        assert swapped.p_value == pytest.approx(base.p_value, rel=1e-7)

    def test_row_order(self):
        # Scenario 2 at (50,50), tau = 0.5: tau*N_d = 25, so the optimum is
        # a face.  The former interior-point fit gave s_counts (24, 24) and
        # p = 0.737 as generated, (25, 24) and p = 0.839 with the rows
        # reversed.
        data = sample_scenario(ScenarioSpec.from_scenario(2, 0.0), 50, 50, 3)
        rev = Dataset(z=data.z[::-1], d=data.d[::-1], c=data.c[::-1])
        a, b = run_coves(data, 0.5), run_coves(rev, 0.5)
        assert a.s_counts == b.s_counts
        assert a.p_value == pytest.approx(b.p_value, rel=1e-12)

    @pytest.mark.parametrize("sc", [1, 2, 3, 4])
    @pytest.mark.parametrize("scale", [1e-9, 1e9])
    def test_outcome_scale(self, sc, scale):
        # Scaling the outcomes scales the fit and its zero tolerance alike,
        # so the shortfall sets and the p-value do not move.
        data = sample_scenario(ScenarioSpec.from_scenario(sc, 0.0), 50, 50, 0)
        scaled = Dataset(z=scale * data.z, d=data.d, c=data.c)
        for run in (run_coves, run_es):
            base, rep = run(data, 0.75), run(scaled, 0.75)
            assert rep.s_counts == base.s_counts, run.__name__
            assert rep.p_value == pytest.approx(base.p_value, rel=1e-12), run.__name__

    @pytest.mark.parametrize("k", range(-13, 13))
    def test_covariate_scale(self, k):
        # Scaling the covariate scales gamma alone.  At c*1e-10 the start
        # basis of the simplex once took one row twice, and run_coves
        # raised a bare LinAlgError (scenario 1, eta = 1.35, seed 1).
        for sc in (1, 2, 3, 4):
            for seed in range(3):
                data = sample_scenario(ScenarioSpec.from_scenario(sc, 1.35), 50, 50, seed)
                scaled = Dataset(z=data.z, d=data.d, c=10.0**k * data.c)
                base, rep = run_coves(data, 0.75), run_coves(scaled, 0.75)
                assert rep.s_counts == base.s_counts, (sc, seed)
                assert rep.p_value == pytest.approx(base.p_value, rel=1e-12), (sc, seed)

    @pytest.mark.parametrize("k", [-14, 13])
    def test_covariate_scale_beyond_rank_tolerance(self, k):
        data = sample_scenario(ScenarioSpec.from_scenario(1, 1.35), 50, 50, 1)
        with pytest.raises(DegenerateDesignError, match="numerically rank deficient"):
            run_coves(Dataset(z=data.z, d=data.d, c=10.0**k * data.c), 0.75)


class TestOutcomeScaleWindow:
    # Scenario 2 at (50,50): max|z| is about 10, so z*1e150 sits just
    # inside the window and z*1e160 beyond it; the same holds for c.
    RUNS = {
        "coves": lambda data: run_coves(data, 0.75),
        "es": lambda data: run_es(data, 0.75),
        "ttest": run_ttest,
    }

    @staticmethod
    def scaled(scale):
        data = sample_scenario(ScenarioSpec.from_scenario(2, 0.0), 50, 50, 3)
        return data, Dataset(z=scale * data.z, d=data.d, c=data.c)

    @pytest.mark.parametrize("method", RUNS)
    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_outside_raises_numerical_error(self, method, scale):
        _, data = self.scaled(scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"^outcome scale max\|z\| = "):
                self.RUNS[method](data)

    @pytest.mark.parametrize("method", RUNS)
    @pytest.mark.parametrize("scale", [1e-160, 1e155, 1e160])
    def test_covariate_outside_raises_numerical_error(self, method, scale):
        # At c*1e155 run_es once overflowed to cstar_sumsq = inf with
        # only a RuntimeWarning.
        data, _ = self.scaled(1.0)
        scaled = Dataset(z=data.z, d=data.d, c=scale * data.c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"^covariate scale max\|c\| = "):
                self.RUNS[method](scaled)

    @pytest.mark.parametrize("method", RUNS)
    def test_upper_end_falls_with_group_size(self, method):
        # Scenario 3 at (100000,100000): at max|z| = 8e151 a group's
        # (sum of residuals)^2 in V_d overflowed, and run_es warned twice
        # before "variance not positive".  The window's upper end there
        # is sqrt(float max) / (2 * 100000), about 6.7e148.
        data = sample_scenario(ScenarioSpec.from_scenario(3, 0.0), 100000, 100000, 0)
        hi = np.sqrt(np.finfo(float).max) / 200000
        top = np.max(np.abs(data.z))
        for scale in (8e151, np.nextafter(hi, np.inf)):
            scaled = Dataset(z=data.z * (scale / top), d=data.d, c=data.c)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericalError, match=r"^outcome scale max\|z\| = .* 6\.7e\+148\]"):
                    self.RUNS[method](scaled)

    @pytest.mark.parametrize("method", ["es", "ttest"])
    def test_upper_end_keeps_every_square_finite(self, method):
        # At the upper end itself the report is finite and nothing warns.
        data = sample_scenario(ScenarioSpec.from_scenario(3, 0.0), 100000, 100000, 0)
        hi = np.sqrt(np.finfo(float).max) / 200000
        scaled = Dataset(z=data.z * (hi / np.max(np.abs(data.z))), d=data.d, c=data.c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = self.RUNS[method](scaled)
        assert 0.0 <= report.p_value <= 1.0
        if method == "es":
            assert np.all(np.isfinite(report.v)) and np.isfinite(report.s2)

    @pytest.mark.parametrize("method", RUNS)
    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_inside_keeps_p_value(self, method, scale):
        data, scaled = self.scaled(scale)
        lo, hi = OUTCOME_SCALE
        assert lo <= np.max(np.abs(scaled.z)) <= hi
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = self.RUNS[method](scaled).p_value
        assert abs(p - self.RUNS[method](data).p_value) <= 1e-12

    @pytest.mark.parametrize(
        "z_scale,c_scale,u_f",
        [(1e-150, 1e6, "8.74e+162"), (1e-140, 1e12, "8.74e+164"), (1e150, 1e-10, "8.74e-170"), (1e140, 1e-12, "8.74e-164")],
    )
    def test_covariate_term_out_of_range_raises(self, z_scale, c_scale, u_f):
        # Both arrays inside the window, but u_f**-2 is not a normal
        # float.  At u_f = 8.74e162 and 8.74e164 it was 0 and the
        # covariate term of the variance vanished: p = 0.84823 in place of
        # 0.85004, without a warning.  At 8.74e-170 and 8.74e-164 it
        # raised a bare OverflowError.
        data, _ = self.scaled(1.0)
        scaled = Dataset(z=z_scale * data.z, d=data.d, c=c_scale * data.c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=rf"^density-weighted curvature sum u_f = {re.escape(u_f)} is out of range: .*; rescale z or c$"):
                run_coves(scaled, 0.75)

    @pytest.mark.parametrize("u_f", [1e155, 1e-155, np.float64(1e155), np.float64(1e-155)])
    def test_variance_est_refuses_u_f_out_of_range(self, u_f):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="rescale z or c$"):
                variance_est(1.0, 1.0, 0.5, 0.1, u_f, 10.0, 0.75, 5, 5)

    def test_covariate_term_kept_at_window_edge(self):
        # z*1e-150 alone: u_f is about 8.7e150, u_f**-2 about 1.3e-302.
        data, scaled = self.scaled(1e-150)
        report = run_coves(scaled, 0.75)
        assert report.u_f**-2 >= np.finfo(float).tiny
        assert abs(report.p_value - run_coves(data, 0.75).p_value) <= 1e-12


class TestPValue:
    # A grid through 0 and far into both tails, where the tail mass
    # underflows at +-37.5 and vanishes at +-inf.
    STATS = np.concatenate(
        [[0.0, -0.0, 37.5, -37.5, np.inf, -np.inf], np.linspace(-9.0, 9.0, 721)]
    )

    def test_normal_matches_scipy_stats(self):
        from scipy.special import ndtr
        from scipy.stats import norm

        for x in self.STATS:
            assert p_value(x, "two-sided", ndtr) == float(2.0 * norm.sf(abs(x)))
            assert p_value(x, "one-sided-upper", ndtr) == float(norm.sf(x))
            assert p_value(x, "one-sided-lower", ndtr) == float(norm.cdf(x))

    @pytest.mark.parametrize("df", [1, 2, 3, 5, 17, 97, 9997])
    def test_t_matches_scipy_stats(self, df):
        from functools import partial

        from scipy.special import stdtr
        from scipy.stats import t

        cdf = partial(stdtr, df)
        for x in self.STATS:
            assert p_value(x, "two-sided", cdf) == float(2.0 * t.sf(abs(x), df))
            assert p_value(x, "one-sided-upper", cdf) == float(t.sf(x, df))
            assert p_value(x, "one-sided-lower", cdf) == float(t.cdf(x, df))

    def test_unknown_side(self):
        from scipy.special import ndtr

        with pytest.raises(ValueError, match="side must be one of"):
            p_value(1.0, "both", ndtr)
