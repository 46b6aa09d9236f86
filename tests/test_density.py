import numpy as np
import pytest

from coves.density import bandwidth_rot, group_density_at_zero, kde_at_zero
from coves.errors import DegenerateSpreadError

SQRT_2PI = np.sqrt(2 * np.pi)

# Frozen standard-normal sample; the expected numbers below were pinned by
# direct scalar summation of the kernel before the module was built.
PINNED_DRAWS = np.array([
    1.696448, -0.148265, -0.927511, -1.019631, -0.318712,
    0.678223, 0.360701, -0.381414, 0.9008, -0.488602,
    -0.311572, 1.458264, 0.334691, -0.024335, -1.067719,
    -0.281695, 0.917394, -0.195114, 2.407754, 0.280491,
    -0.529986, -0.028414, 0.825323, -0.894109, 0.296301,
    0.977347, -0.690933, -1.458694, 0.210796, -0.984995,
    0.71812, -1.44187, -1.263555, 0.427869, -1.39334,
    0.421405, 0.251311, 0.276945, 0.252373, 0.969083,
    0.197477, -0.421901, -0.39905, 1.176888, -0.55234,
    -0.12231, -0.950628, -0.47839, -1.783053, -0.739709,
    1.012232, -0.558406, 1.109658, 0.104595, -0.90771,
    0.030327, 0.679654, 0.800519, -1.298953, -0.049494,
    -0.397821, 0.26743, -0.116803, 0.629956, -0.415204,
    0.512824, 0.785441, 0.570499, 1.080043, 1.432823,
    -0.602698, -2.081828, -1.142744, -1.716631, -1.269595,
    0.078983, -1.00308, -0.243063, -0.908418, -0.068766,
    -0.519017, -0.378841, 0.363042, -0.098968, -0.054896,
    0.996237, -0.255835, -0.225892, -0.739588, 1.555987,
    -1.645441, 0.856474, 1.742651, 0.631971, -0.86886,
    -0.413689, 1.125656, 0.521344, 0.051481, 0.306936,
])
PINNED_H = 0.31353752196195162
PINNED_KDE = 0.41684258327804763


class TestBandwidth:
    def test_two_point_sample(self):
        # sd = sqrt(0.5), IQR = 1 under the order-statistic quantile, so
        # the sd branch is the minimum.
        h = bandwidth_rot([0.0, 1.0])
        assert h == pytest.approx(0.9 * np.sqrt(0.5) * 2 ** -0.2, rel=1e-15)
        assert h == pytest.approx(0.554, abs=1e-3)

    def test_degenerate_spread(self):
        with pytest.raises(DegenerateSpreadError):
            bandwidth_rot([3.0, 3.0, 3.0])

    def test_scale_homogeneity(self):
        x = np.array([0.3, -1.2, 0.9, 2.4, -0.5])
        for s in (0.1, 7.0):
            assert bandwidth_rot(s * x) == pytest.approx(s * bandwidth_rot(x), rel=1e-12)

    def test_iqr_zero_falls_back_to_sd(self):
        # Three ties collapse the IQR; the sd keeps the bandwidth positive.
        h = bandwidth_rot([0.0, 0.0, 0.0, 7.0])
        assert h == pytest.approx(0.9 * 3.5 * 4 ** -0.2, rel=1e-12)
        assert h == pytest.approx(2.3872535922538769, rel=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            bandwidth_rot([1.0])

    @pytest.mark.parametrize(
        "samples",
        [[1.0, np.nan, 3.0], [np.nan, np.nan], [1.0, np.inf, 3.0], [-np.inf, 0.0, 2.0], [1e200, -1e200, 0.0]],
        ids=["nan", "all-nan", "inf", "minus-inf", "overflow"],
    )
    def test_non_finite_sd(self, samples):
        # An infinite sample or an overflowing square warns on the way.
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(ValueError, match=r"^sample standard deviation must be finite, got "):
                bandwidth_rot(samples)

    @pytest.mark.parametrize(
        "samples",
        [[1.0, np.inf, 3.0], [1e200, -1e200, 0.0], [1e308, 1e308]],
        ids=["inf", "overflowing-square", "overflowing-sum"],
    )
    def test_non_finite_sd_refused_without_warning(self, samples):
        # Under the suite's error::RuntimeWarning a warning on the way
        # would be raised in place of the ValueError.
        with pytest.raises(ValueError, match=r"^sample standard deviation must be finite, got "):
            bandwidth_rot(samples)

    def test_window_edge_is_finite(self):
        # Samples at +-sqrt(float max)/(2n), where the mean and the
        # deviations cannot overflow, square without overflow.
        edge = np.sqrt(np.finfo(float).max) / 4
        assert bandwidth_rot([-edge, edge]) == pytest.approx(0.9 * np.sqrt(2.0) * edge * 2 ** -0.2, rel=1e-12)


class TestKdeAtZero:
    def test_single_kernel_at_origin(self):
        assert kde_at_zero([0.0], 1.0) == pytest.approx(1.0 / SQRT_2PI, rel=1e-15)

    def test_symmetric_pair(self):
        a, h = 1.3, 0.7
        want = np.exp(-0.5 * (a / h) ** 2) / SQRT_2PI / h
        assert kde_at_zero([-a, a], h) == pytest.approx(want, rel=1e-14)

    def test_pinned_hundred_draws(self):
        h = bandwidth_rot(PINNED_DRAWS)
        assert h == pytest.approx(PINNED_H, rel=1e-12)
        val = kde_at_zero(PINNED_DRAWS, h)
        assert val == pytest.approx(PINNED_KDE, rel=1e-12)
        assert 0.3 < val < 0.5

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            kde_at_zero([1.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            kde_at_zero([1.0, 2.0], -1.0)
        for h in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=r"^bandwidth must be positive and finite, got "):
                kde_at_zero([1.0, 2.0], h)

    def test_scale_equivariance(self):
        x = np.array([0.4, -0.8, 1.7, -0.1, 0.9, 2.2])
        h = 0.6
        for s in (0.25, 4.0):
            assert kde_at_zero(s * x, s * h) == pytest.approx(kde_at_zero(x, h) / s, rel=1e-12)

    def test_nonnegative(self):
        assert kde_at_zero([50.0, 60.0], 0.5) >= 0.0

    def test_empty_sample(self):
        with pytest.raises(ValueError, match=r"^need at least one sample$"):
            kde_at_zero([], 1.0)


class TestConsistency:
    def test_error_shrinks_with_sample_size(self):
        # Monte Carlo averaged absolute error at 0 against the standard
        # normal density, over increasing sample sizes.
        target = 1.0 / SQRT_2PI
        errs = []
        for n in (100, 1000, 10000):
            tot = 0.0
            for rep in range(30):
                rng = np.random.default_rng(1000 * n + rep)
                x = rng.standard_normal(n)
                tot += abs(kde_at_zero(x, bandwidth_rot(x)) - target)
            errs.append(tot / 30)
        assert errs[0] > errs[1] > errs[2]


def test_group_density_record():
    # The kernel estimate at the rule-of-thumb bandwidth, whose value
    # test_pinned_hundred_draws pins to PINNED_H.
    f = group_density_at_zero(PINNED_DRAWS)
    assert f == kde_at_zero(PINNED_DRAWS, bandwidth_rot(PINNED_DRAWS))
    assert f == pytest.approx(PINNED_KDE, rel=1e-12)
