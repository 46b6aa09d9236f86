import numpy as np
import pytest
from dataclasses import dataclass
from hypothesis import given, settings
from hypothesis import strategies as st

from coves import mc_engine
from coves.coves_test import Dataset
from coves.errors import NumericalError, SearchBoundsError, UnstableConfigurationError
from coves.mc_engine import (
    PowerEstimate,
    estimate_rejection_rate,
    power_curve,
    replication_seed,
    sample_size_search,
)
from coves.simgen import ScenarioSampler, ScenarioSpec
from test_quantreg import SINGULAR_PINS, sweep_dataset

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


@dataclass(frozen=True)
class PinOnSeed:
    """NULL1, except that one replication seed gives the pinned dataset."""

    bad: int
    pinned: Dataset

    def __call__(self, m, n, seed):
        return self.pinned if seed == self.bad else NULL1(m, n, seed)


@dataclass(frozen=True)
class RaiseOnSeeds:
    """NULL1, except that the generator itself raises on the given replication seeds."""

    bad: frozenset

    def __call__(self, m, n, seed):
        if seed in self.bad:
            raise NumericalError(f"generator failed on seed {seed}")
        return NULL1(m, n, seed)


def reference_seed(master, size_index, rep):
    """The derived seed as numpy's SeedSequence computes it."""
    return int(np.random.SeedSequence((master, size_index, rep)).generate_state(1, np.uint64)[0])


# One-, two- and three-word entropies; 2**64 + 5 makes the master alone
# three words, so the rep's word is mixed in by a round past the pool.
WORD_EDGES = [0, 2**32 - 1, 2**32, 2**64 + 5]


class TestReplicationSeed:
    @settings(max_examples=300, deadline=None)
    @given(
        master=st.one_of(st.sampled_from(WORD_EDGES), st.integers(0, 2**200)),
        size_index=st.one_of(st.sampled_from(WORD_EDGES), st.integers(0, 2**70)),
        reps=st.integers(1, 70),
        data=st.data(),
    )
    def test_range_equals_one_seed_sequence_per_rep(self, master, size_index, reps, data):
        want = [reference_seed(master, size_index, r) for r in range(reps)]
        assert replication_seed(master, size_index, range(reps)) == want
        rep = data.draw(st.integers(0, reps - 1))
        got = replication_seed(master, size_index, rep)
        assert type(got) is int and got == want[rep]

    @pytest.mark.parametrize("master", [0, 2**32, 2**64 + 5])
    @pytest.mark.parametrize(
        "reps",
        [range(2**32 - 3, 2**32 + 3), range(2**64 - 2, 2**64 + 9, 3), range(2**32 + 2, 2**32 - 4, -1),
         range(5, 5), range(2**100, 2**100 + 2)],
        ids=["across-2^32", "across-2^64-step-3", "descending", "empty", "four-words"],
    )
    def test_ranges_across_word_counts(self, master, reps):
        # Lanes with more rep words than others run extra rounds only where
        # they have the word; numpy's padding covers the rest.
        assert replication_seed(master, 9, reps) == [reference_seed(master, 9, r) for r in reps]

    def test_numpy_integers_and_bools_are_indices(self):
        want = reference_seed(7, 1, 3)
        assert replication_seed(np.int64(7), np.uint8(1), np.int32(3)) == want
        assert replication_seed(7, True, 3) == want

    @pytest.mark.parametrize("args", [(2.7, 0, 0), (np.float64(2.0), 0, 0), (1, 0.0, 0), (1, 0, 3.0),
                                      (1, 0, np.float32(3))])
    def test_non_integers_raise_type_error(self, args):
        with pytest.raises(TypeError):
            replication_seed(*args)
        with pytest.raises(TypeError):
            np.random.SeedSequence(args)

    @pytest.mark.parametrize("args", [(-1, 0, 0), (1, -2, 0), (1, 0, -3), (1, 0, range(-1, 3))])
    def test_negative_values_raise_value_error(self, args):
        with pytest.raises(ValueError):
            replication_seed(*args)

    def test_estimate_refuses_a_non_integer_seed(self):
        # int(2.7) used to run seed 2's replications and report seed=2.7.
        with pytest.raises(TypeError):
            estimate_rejection_rate(NULL1, "ttest", 20, 20, 0.05, 30, 2.7)
        with pytest.raises(ValueError):
            estimate_rejection_rate(NULL1, "ttest", 20, 20, 0.05, 30, -1)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_one_seed_pass_per_estimate(self, monkeypatch, workers):
        calls = []

        def counted(*args):
            calls.append(args)
            return replication_seed(*args)

        serial = estimate_rejection_rate(NULL1, "ttest", 15, 15, 0.05, 30, 3, size_index=4)
        monkeypatch.setattr(mc_engine, "replication_seed", counted)
        assert estimate_rejection_rate(NULL1, "ttest", 15, 15, 0.05, 30, 3, size_index=4, workers=workers) == serial
        assert calls == [(3, 4, range(30))]


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
        for test_id in ("coves", "ttest"):
            with pytest.raises(UnstableConfigurationError, match="50/50"):
                estimate_rejection_rate(DegenerateSampler(), test_id, 10, 10, 0.05, 50, 1)

    @pytest.mark.parametrize("workers", [None, 2, 3])
    def test_refusal_names_the_first_failure_in_seed_order(self, workers):
        # Replications 7, 12 and 25 fail, one in each chunk of three
        # workers; the message names replication 7's failure.
        seeds = replication_seed(1, 0, range(30))
        sampler = RaiseOnSeeds(frozenset(seeds[i] for i in (25, 12, 7)))
        with pytest.raises(UnstableConfigurationError) as exc:
            estimate_rejection_rate(sampler, "es", 10, 10, 0.05, 30, 1, workers=workers)
        assert str(exc.value) == (
            "3/30 replications failed; configuration too degenerate for a trustworthy "
            "estimate (at most 1 may fail, and never all); the first raised "
            f"NumericalError: generator failed on seed {seeds[7]}"
        )

    def test_generator_error_counts_as_one_failed_replication(self):
        bad = frozenset([replication_seed(1, 0, 40)])
        est = estimate_rejection_rate(RaiseOnSeeds(bad), "es", 10, 10, 0.05, 100, 1)
        assert est.errors == 1
        assert est == estimate_rejection_rate(FailOnSeeds(bad), "es", 10, 10, 0.05, 100, 1)

    @pytest.mark.parametrize("seed, tau", SINGULAR_PINS)
    def test_singular_basis_counts_as_one_failed_replication(self, seed, tau):
        # A collinear sweep design whose walk pivots into a singular basis
        # once crashed the estimate with numpy's LinAlgError.
        sampler = PinOnSeed(replication_seed(1, 0, 0), sweep_dataset(seed))
        assert estimate_rejection_rate(sampler, "coves", 10, 10, 0.05, 100, 1, tau=tau).errors == 1
        first = "the first raised ConvergenceError: simplex reached a singular basis"
        with pytest.raises(UnstableConfigurationError, match=first):
            estimate_rejection_rate(sampler, "coves", 10, 10, 0.05, 1, 1, tau=tau)

    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch):
        # One chunk per replication asks for 50 processes; the pool gets
        # at most one per CPU.  The stand-in pool maps in this process.
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                return map(fn, chunks)

        serial = estimate_rejection_rate(NULL1, "ttest", 15, 15, 0.05, 50, 3)
        monkeypatch.setattr(mc_engine, "ProcessPoolExecutor", Pool)
        for cpus, size in ((3, 3), (None, 1)):
            monkeypatch.setattr(mc_engine.os, "cpu_count", lambda: cpus)
            assert estimate_rejection_rate(NULL1, "ttest", 15, 15, 0.05, 50, 3, workers=50) == serial
            assert sizes.pop() == size and not sizes

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
        with pytest.raises(TypeError):
            sample_size_search(ALT1, "ttest", 0.9, "equal", 0.05, 10, 1, (5.9, 8.2))
        with pytest.raises(ValueError, match="1 <= lo < hi"):  # NumPy integers are taken as they are
            sample_size_search(ALT1, "ttest", 0.9, "equal", 0.05, 10, 1, (np.int64(10), np.int64(10)))

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
