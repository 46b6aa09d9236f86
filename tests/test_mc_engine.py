import numpy as np
import pytest
from dataclasses import dataclass

from coves.coves_test import Dataset
from coves.errors import SearchBoundsError, UnstableConfigurationError
from coves.mc_engine import (
    PowerEstimate,
    estimate_rejection_rate,
    power_curve,
    replication_seed,
    sample_size_search,
)
from coves.simgen import ScenarioSampler, ScenarioSpec

NULL1 = ScenarioSampler(ScenarioSpec.from_scenario(1, 0.0))
ALT1 = ScenarioSampler(ScenarioSpec.from_scenario(1, 1.35))


@dataclass(frozen=True)
class DegenerateSampler:
    """Always produces a perfectly interpolable outcome: every test errors."""

    def __call__(self, m, n, seed):
        total = m + n
        return Dataset(
            z=np.full(total, 3.0),
            d=np.concatenate([np.ones(m, dtype=int), np.zeros(n, dtype=int)]),
            c=np.arange(total, dtype=float),
        )


@dataclass(frozen=True)
class FailOnSeeds:
    """NULL1, except that the given replication seeds give a degenerate dataset."""

    bad: frozenset

    def __call__(self, m, n, seed):
        return DegenerateSampler()(m, n, seed) if seed in self.bad else NULL1(m, n, seed)


class TestEstimateRejectionRate:
    def test_alpha_one_rejects_everything(self):
        est = estimate_rejection_rate(NULL1, "ttest", 15, 15, 1.0, 50, 3)
        assert est.rate == 1.0
        assert est.errors == 0

    def test_mc_se_arithmetic(self):
        est = estimate_rejection_rate(ALT1, "ttest", 30, 30, 0.05, 80, 5)
        assert est.mc_se**2 * est.reps == pytest.approx(est.rate * (1 - est.rate), rel=1e-12)

    def test_reproducible(self):
        a = estimate_rejection_rate(ALT1, "coves", 25, 25, 0.05, 40, 11, tau=0.75)
        b = estimate_rejection_rate(ALT1, "coves", 25, 25, 0.05, 40, 11, tau=0.75)
        assert a == b

    def test_parallel_matches_serial(self):
        serial = estimate_rejection_rate(ALT1, "ttest", 30, 30, 0.05, 60, 13)
        parallel = estimate_rejection_rate(ALT1, "ttest", 30, 30, 0.05, 60, 13, workers=2)
        assert serial == parallel

    @pytest.mark.parametrize("reps", [1, 2, 7])
    @pytest.mark.parametrize(
        "sampler,test_id",
        # Replication 1 fails, so each run of two or more counts one error.
        [(ALT1, "coves"), (ALT1, "ttest"), (FailOnSeeds(frozenset([replication_seed(13, 0, 1)])), "coves")],
        ids=["coves", "ttest", "fail-on-seeds"],
    )
    def test_worker_count_does_not_matter(self, sampler, test_id, reps):
        # Covers one chunk with workers > 1 and more workers than replications.
        serial = estimate_rejection_rate(sampler, test_id, 20, 20, 0.05, reps, 13)
        assert serial.errors == (sampler is not ALT1 and reps > 1)
        for workers in (1, 2, 3, reps, reps + 3):
            assert estimate_rejection_rate(sampler, test_id, 20, 20, 0.05, reps, 13, workers=workers) == serial

    def test_seed_derivation_is_positional(self):
        s1 = replication_seed(7, 0, 3)
        assert s1 == replication_seed(7, 0, 3)
        assert s1 != replication_seed(7, 1, 3)
        assert s1 != replication_seed(8, 0, 3)

    def test_unstable_configuration(self):
        with pytest.raises(UnstableConfigurationError):
            estimate_rejection_rate(DegenerateSampler(), "coves", 10, 10, 0.05, 50, 1)

    def test_error_budget_tolerates_one_percent(self):
        seeds = [replication_seed(1, 0, r) for r in range(100)]
        est = estimate_rejection_rate(FailOnSeeds(frozenset(seeds[40:41])), "coves", 10, 10, 0.05, 100, 1)
        assert est.errors == 1
        with pytest.raises(UnstableConfigurationError, match="2/100"):
            estimate_rejection_rate(FailOnSeeds(frozenset(seeds[40:42])), "coves", 10, 10, 0.05, 100, 1)

    @pytest.mark.parametrize(
        "reps,failures,tolerated",
        [(30, 1, True), (30, 2, False), (1, 1, False), (150, 1, True), (150, 2, False),
         (250, 2, True), (250, 3, False)],
    )
    def test_error_budget_at_least_one_never_all(self, reps, failures, tolerated):
        # max(1, floor(1% of reps)) failures are tolerated, but never all of them.
        seeds = [replication_seed(1, 0, r) for r in range(reps)]
        sampler = FailOnSeeds(frozenset(seeds[:failures]))
        if tolerated:
            est = estimate_rejection_rate(sampler, "es", 10, 10, 0.05, reps, 1)
            assert est.errors == failures
        else:
            with pytest.raises(UnstableConfigurationError, match=f"{failures}/{reps}"):
                estimate_rejection_rate(sampler, "es", 10, 10, 0.05, reps, 1)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            estimate_rejection_rate(NULL1, "wilcoxon", 10, 10, 0.05, 10, 1)
        with pytest.raises(ValueError):
            estimate_rejection_rate(NULL1, "ttest", 10, 10, 0.05, 0, 1)
        with pytest.raises(ValueError):
            estimate_rejection_rate(NULL1, "ttest", 10, 10, 1.5, 10, 1)

    def test_ttest_null_calibration(self):
        est = estimate_rejection_rate(NULL1, "ttest", 50, 50, 0.05, 2000, 31)
        assert abs(est.rate - 0.05) <= 0.012

    @pytest.mark.xfail(
        strict=True,
        reason="shortfall-test type-I at (50,50) measures 0.0615 at seed 31, "
        "above this band; the residual finite-sample gap after the "
        "shortfall-count variance",
    )
    def test_coves_null_calibration(self):
        est = estimate_rejection_rate(NULL1, "coves", 50, 50, 0.05, 2000, 31, tau=0.75)
        assert 0.036 <= est.rate <= 0.056


class TestPowerCurve:
    def test_singleton_matches_single_estimate(self):
        single = estimate_rejection_rate(ALT1, "ttest", 40, 40, 0.05, 50, 19, size_index=0)
        curve = power_curve(ALT1, "ttest", [(40, 40)], 0.05, 50, 19)
        assert curve == [single]

    def test_rates_nondecreasing_within_noise(self):
        curve = power_curve(ALT1, "ttest", [(20, 20), (60, 60), (120, 120)], 0.05, 300, 29)
        for lo, hi in zip(curve, curve[1:]):
            assert hi.rate >= lo.rate - 2 * (lo.mc_se + hi.mc_se)

    def test_requires_sizes(self):
        with pytest.raises(ValueError):
            power_curve(ALT1, "ttest", [], 0.05, 10, 1)


class TestSampleSizeSearch:
    def test_null_returns_lower_bound(self):
        result = sample_size_search(NULL1, "ttest", 0.05, "equal", 0.05, 400, 17, (20, 60))
        assert (result.m, result.n) == (20, 20)

    def test_finds_crossing(self):
        result = sample_size_search(ALT1, "ttest", 0.9, "equal", 0.05, 300, 23, (80, 260))
        assert result.allocation == "equal"
        assert result.m == result.n
        assert 100 <= result.n <= 200
        est = result.achieved_power
        assert est.rate + 2 * est.mc_se >= result.target
        assert est.rate >= result.target - est.mc_se

    def test_two_to_one_allocation(self):
        result = sample_size_search(ALT1, "ttest", 0.9, "two-to-one", 0.05, 300, 23, (60, 160))
        assert result.m == 2 * result.n
        assert result.achieved_power.rate + 2 * result.achieved_power.mc_se >= 0.9

    def test_bounds_error_when_no_crossing(self):
        with pytest.raises(SearchBoundsError):
            sample_size_search(ALT1, "ttest", 0.9, "equal", 0.05, 200, 23, (5, 12))

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            sample_size_search(ALT1, "ttest", 1.2, "equal", 0.05, 10, 1, (5, 10))
        with pytest.raises(ValueError):
            sample_size_search(ALT1, "ttest", 0.9, "balanced", 0.05, 10, 1, (5, 10))
        with pytest.raises(ValueError):
            sample_size_search(ALT1, "ttest", 0.9, "equal", 0.05, 10, 1, (10, 10))

    def test_reference_size_bands(self):
        # Sizes reaching power 0.9 land inside the acceptance gate's
        # reference bands (widened for MC noise and sidedness ambiguity).
        found = sample_size_search(ALT1, "coves", 0.9, "equal", 0.05, 1000, 2, (30, 80), tau=0.75)
        assert 44 <= found.n <= 60, found
        alt3 = ScenarioSampler(ScenarioSpec.from_scenario(3, 1.35))
        found3 = sample_size_search(alt3, "ttest", 0.9, "equal", 0.05, 1000, 2, (120, 260))
        assert 160 <= found3.n <= 195, found3


def test_power_estimate_is_plain_record():
    est = PowerEstimate(
        rate=0.5, reps=100, mc_se=0.05, seed=1, test_id="ttest", m=10, n=10, alpha=0.05
    )
    assert est.errors == 0
