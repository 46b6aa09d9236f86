import dataclasses
import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import ks_2samp, norm

from coves.coves_test import Dataset
from coves.errors import DataError
from coves.orderstats import empirical_quantile
from coves.simgen import (
    TAIL_KINK,
    EmpiricalDist,
    ScenarioSpec,
    _open_uniforms,
    load_standin,
    sample_scenario,
    sample_targeted,
    tail_shift,
)

# Each scenario's gamma and covariate law, (mean, sd) per group:
# (gamma, control C, treatment C).
LAWS = {
    1: (0.0, (2.5, 0.5), (2.5, 0.5)),
    2: (1.0, (2.5, 0.5), (2.5, 0.5)),
    3: (1.0, (2.5, 0.5), (3.0, 0.5)),
    4: (1.0, (2.5, 0.5), (2.5, 1.0)),
}


class TestEmpiricalInverseCdf:
    def test_singleton(self):
        dist = EmpiricalDist(np.array([10.0]))
        for u in (0.01, 0.5, 0.99):
            assert empirical_quantile(dist.values, u) == 10.0

    def test_order_statistic_definition(self):
        dist = EmpiricalDist(np.array([1.0, 2.0, 3.0, 4.0]))
        assert empirical_quantile(dist.values, 0.5) == 2.0
        assert empirical_quantile(dist.values, 0.75) == 3.0
        assert empirical_quantile(dist.values, 0.7500001) == 4.0

    def test_domain(self):
        dist = EmpiricalDist(np.array([1.0, 2.0]))
        for u in (0.0, 1.0, -0.2, 1.1):
            with pytest.raises(ValueError):
                empirical_quantile(dist.values, u)

    @pytest.mark.parametrize("p", [np.nan, np.array([0.5, np.nan])], ids=["scalar", "array"])
    def test_nan_level_rejected(self, p):
        # A NaN level once cast to the minimum with only a RuntimeWarning.
        with pytest.raises(ValueError):
            empirical_quantile([1.0, 2.0, 3.0], p)

    @pytest.mark.parametrize("p", [5e-324, 1e-300, 0.5, np.nextafter(1.0, 0.0)])
    @pytest.mark.parametrize("n", [1, 2, 7, 10_000])
    def test_extreme_levels_stay_in_range(self, p, n):
        # The float product p*n lies in (0, n] for every p in (0, 1).
        s = np.random.default_rng(n).permutation(n).astype(float)
        assert empirical_quantile(s, p) == np.sort(s)[math.ceil(p * n) - 1]

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 10_000),
        p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_ceil_order_statistic(self, n, p):
        s = np.random.default_rng(n).permutation(n).astype(float)
        expected = np.sort(s)[math.ceil(p * n) - 1]
        assert empirical_quantile(s, p) == expected
        assert empirical_quantile(s, np.array([p, p]))[1] == expected

    def test_vectorized(self):
        dist = EmpiricalDist(np.array([1.0, 2.0, 3.0, 4.0]))
        out = empirical_quantile(dist.values, np.array([0.1, 0.5, 0.9]))
        assert np.array_equal(out, [1.0, 2.0, 4.0])

    def test_sorts_on_construction(self):
        dist = EmpiricalDist(np.array([3.0, 1.0, 2.0]))
        assert np.array_equal(dist.values, [1.0, 2.0, 3.0])

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_text("1.5\n\n-2.0\n3\n")
        dist = EmpiricalDist.from_file(path)
        assert np.array_equal(dist.values, [-2.0, 1.5, 3.0])

    def test_file_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\noops\n")
        with pytest.raises(DataError, match="line 2"):
            EmpiricalDist.from_file(path)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            EmpiricalDist(np.array([]))

    def test_file_with_inf_rejected(self, tmp_path):
        path = tmp_path / "inf.txt"
        path.write_text("1.0\ninf\n")
        with pytest.raises(DataError) as exc:
            EmpiricalDist.from_file(path)
        assert str(exc.value) == f"{path}: line 2: empirical distribution values must be finite, got 'inf'"

    def test_empty_sample_quantile(self):
        with pytest.raises(ValueError, match=r"^empty sample$"):
            empirical_quantile([], 0.5)

    def test_zeros_are_positive(self):
        # Zeros of both signs tie; which a sort puts first is the CPU
        # kernel's choice, so both hold every zero as +0.0.
        values = np.random.default_rng(5).choice([-1.0, -0.0, 0.0, 1.0], size=999)
        dist = EmpiricalDist(values)
        q = empirical_quantile(values, np.arange(1, 1000) / 1000)
        for held in (dist.values, q, load_standin()[0].values):
            assert np.count_nonzero(held == 0.0) > 0
            assert not np.signbit(held[held == 0.0]).any()
        for p in (0.3, 0.5, 0.7):
            q = empirical_quantile(values, p)
            assert q == 0.0 and not np.signbit(q)


class TestScenarioSpec:
    def test_fixed_mapping(self):
        # Each scenario's gamma and covariate law, (mean, sd) per group,
        # read back from the draws: c = mean + sd*x and z = 5 + gamma*c + e,
        # with x and e the normal scores of the seed's uniforms.
        m, n, seed = 7, 5, 11
        u = _open_uniforms(seed, 2 * (m + n))
        x, e = ndtri(u[: m + n]), ndtri(u[m + n :])
        for scenario, (gamma, (mu0, sd0), (mu1, sd1)) in LAWS.items():
            spec = ScenarioSpec.from_scenario(scenario, 0.0)
            assert (spec.scenario, spec.gamma, spec.eta) == (scenario, gamma, 0.0)
            data = sample_scenario(spec, m, n, seed)
            assert np.array_equal(data.c[:m], mu1 + sd1 * x[:m]), scenario
            assert np.array_equal(data.c[m:], mu0 + sd0 * x[m:]), scenario
            assert np.array_equal(data.z, 5.0 + gamma * data.c + e), scenario
        s2 = ScenarioSpec.from_scenario(2, 1.35)
        assert s2.gamma == 1.0 and s2.eta == 1.35
        assert [f.name for f in dataclasses.fields(ScenarioSpec)] == ["scenario", "gamma", "eta"]

    def test_gamma_override(self):
        assert ScenarioSpec.from_scenario(1, 0.0, gamma=2.0).gamma == 2.0

    def test_invalid_scenario(self):
        with pytest.raises(ValueError):
            ScenarioSpec.from_scenario(5, 0.0)

    def test_negative_eta(self):
        with pytest.raises(ValueError):
            ScenarioSpec.from_scenario(1, -0.5)

    @pytest.mark.parametrize("scenario", [0, 5, 9])
    def test_invalid_scenario_on_direct_construction(self, scenario):
        # The check lives in the constructor, so a spec built without
        # from_scenario cannot reach the sampler and fail there.
        message = rf"^scenario must be 1\.\.4, got {scenario}$"
        with pytest.raises(ValueError, match=message):
            ScenarioSpec(scenario=scenario, gamma=0.0, eta=0.0)
        with pytest.raises(ValueError, match=message):
            ScenarioSpec.from_scenario(scenario, 0.0)
        with pytest.raises(ValueError, match=message):
            ScenarioSpec.from_scenario(scenario, 0.0, gamma=1.0)

    @pytest.mark.parametrize("field", ["gamma", "eta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter(self, field, value):
        params = {"gamma": 1.0, "eta": 0.0, field: value}
        message = rf"^{field} must be finite, got {value}$"
        with pytest.raises(ValueError, match=message):
            ScenarioSpec(scenario=2, **params)
        with pytest.raises(ValueError, match=message):
            ScenarioSpec.from_scenario(2, params["eta"], gamma=params["gamma"])


class TestSampleScenario:
    def test_determinism(self):
        spec = ScenarioSpec.from_scenario(2, 1.35)
        a = sample_scenario(spec, 40, 30, 99)
        b = sample_scenario(spec, 40, 30, 99)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.c, b.c)
        assert np.array_equal(a.d, b.d)

    def test_seed_changes_draws(self):
        spec = ScenarioSpec.from_scenario(1, 0.0)
        a = sample_scenario(spec, 20, 20, 1)
        b = sample_scenario(spec, 20, 20, 2)
        assert not np.array_equal(a.z, b.z)

    def test_group_layout(self):
        data = sample_scenario(ScenarioSpec.from_scenario(1, 0.0), 7, 5, 3)
        assert np.array_equal(data.d, [1] * 7 + [0] * 5)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer$"):
            sample_scenario(ScenarioSpec.from_scenario(1, 0.0), 7, 5, -1)

    def test_null_groups_share_law(self):
        spec = ScenarioSpec.from_scenario(2, 0.0)
        data = sample_scenario(spec, 20000, 20000, 11)
        stat = ks_2samp(data.z[data.d == 1], data.z[data.d == 0]).statistic
        assert stat < 0.02

    def test_covariate_laws_per_group(self):
        spec = ScenarioSpec.from_scenario(3, 0.0)
        data = sample_scenario(spec, 40000, 40000, 13)
        assert data.c[data.d == 1].mean() == pytest.approx(3.0, abs=0.02)
        assert data.c[data.d == 0].mean() == pytest.approx(2.5, abs=0.02)

    def test_tail_inflation_closed_forms(self):
        # Under the alternative the group quantile gap above the median is
        # eta * Phi^-1(tau), the mean gap is eta * phi(0), and the variance
        # ratio is 1 + ((1+eta)^2 - 1)/2 - (eta*phi(0))^2.
        eta = 1.35
        spec = ScenarioSpec.from_scenario(1, eta)
        data = sample_scenario(spec, 200000, 200000, 42)
        z1 = data.z[data.d == 1]
        z0 = data.z[data.d == 0]
        for tau in (0.6, 0.75, 0.9):
            gap = empirical_quantile(z0, tau) - empirical_quantile(z1, tau)
            assert gap == pytest.approx(eta * norm.ppf(tau), abs=0.03)
        phi0 = norm.pdf(0.0)
        assert z0.mean() - z1.mean() == pytest.approx(eta * phi0, abs=0.015)
        want_ratio = 1 + ((1 + eta) ** 2 - 1) / 2 - (eta * phi0) ** 2
        assert z0.var(ddof=1) / z1.var(ddof=1) == pytest.approx(want_ratio, abs=0.08)


class TestTargeted:
    def test_tail_shift_values(self):
        assert tail_shift(0.3) == 0.0
        assert tail_shift(0.65) == 0.0
        assert tail_shift(0.9) == pytest.approx(8.0 * 0.25**0.25, rel=1e-12)
        assert tail_shift(0.9) == pytest.approx(5.65685, abs=1e-4)
        # Exactly +0.0 at and below the kink, and 0.0 at NaN.
        below = np.concatenate([_open_uniforms(4, 1000), [TAIL_KINK, np.nextafter(TAIL_KINK, 0.0), 0.0, -1.0]])
        below = below[below <= TAIL_KINK]
        for out in (tail_shift(below), np.array([tail_shift(float(x)) for x in below])):
            assert np.all(out == 0.0) and not np.signbit(out).any()
        assert tail_shift(np.nan) == 0.0
        assert np.array_equal(tail_shift(np.array([np.nan, 0.9])), [0.0, tail_shift(0.9)])

    def test_tail_shift_within_one_ulp_of_fourth_root(self):
        # 8*(u - 0.65)^(1/4) to 60 digits; u - 0.65 is exact on (0.65, 1).
        u = _open_uniforms(3, 4000)
        u = np.concatenate([u[u > TAIL_KINK], [np.nextafter(TAIL_KINK, 1.0), TAIL_KINK + 2.0**-40, 1.0 - 2.0**-53]])
        got = tail_shift(u)
        with decimal.localcontext(decimal.Context(prec=60)):
            want = [8 * (decimal.Decimal(x) - decimal.Decimal(TAIL_KINK)).sqrt().sqrt() for x in u]
        ulps = [abs(decimal.Decimal(g) - w) / decimal.Decimal(np.spacing(g)) for g, w in zip(got, want)]
        assert max(ulps) <= 1
        assert tail_shift(float(u[0])) == got[0]

    def test_empty_group_rejected(self):
        f, g = load_standin()
        with pytest.raises(ValueError, match=r"^need m >= 1 and n >= 1$"):
            sample_targeted(f, g, 0, 5, 1)

    def test_treatment_outcomes_on_support(self):
        f, g = load_standin()
        data = sample_targeted(f, g, 500, 500, 6)
        assert np.all(np.isin(data.z[data.d == 1], f.values))
        assert np.all(np.isin(data.c, g.values))

    def test_covariate_marginal_same_across_groups(self):
        f, g = load_standin()
        data = sample_targeted(f, g, 30000, 30000, 8)
        stat = ks_2samp(data.c[data.d == 1], data.c[data.d == 0]).statistic
        assert stat < 0.02

    def test_control_tail_heavier(self):
        f, g = load_standin()
        data = sample_targeted(f, g, 30000, 30000, 9)
        z1 = data.z[data.d == 1]
        z0 = data.z[data.d == 0]
        ratio = z0.var(ddof=1) / z1.var(ddof=1)
        assert 1.6 < ratio < 2.4
        assert empirical_quantile(z0, 0.9) - empirical_quantile(z1, 0.9) > 4.0
        # below the kink the two outcome laws coincide
        assert abs(empirical_quantile(z0, 0.5) - empirical_quantile(z1, 0.5)) < 0.6

    def test_determinism(self):
        f, g = load_standin()
        a = sample_targeted(f, g, 25, 25, 77)
        b = sample_targeted(f, g, 25, 25, 77)
        assert np.array_equal(a.z, b.z) and np.array_equal(a.c, b.c)


def test_standin_shapes():
    f, g = load_standin()
    assert f.values.size == 150
    assert g.values.size == 150
    assert np.all(g.values > 0)
    # outcome changes concentrate near zero with a heavy right tail
    assert abs(np.median(f.values)) < 2.0
    assert f.values.max() > 15.0


def integers_uniforms(seed, size):
    """The uniforms as drawn through Generator.integers."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    raw = rng.integers(0, 1 << 53, size=size, dtype=np.int64)
    return (raw + 0.5) * 2.0**-53


def reference_scenario(spec, m, n, seed):
    """sample_scenario as whole-array expressions: np.where means and sds
    and an inflation factor for every row."""
    total = m + n
    u = integers_uniforms(seed, 2 * total)
    d = np.concatenate([np.ones(m, dtype=int), np.zeros(n, dtype=int)])
    _, (mu0, sd0), (mu1, sd1) = LAWS[spec.scenario]
    mean = np.where(d == 1, mu1, mu0)
    sd = np.where(d == 1, sd1, sd0)
    c = mean + sd * ndtri(u[:total])
    e = ndtri(u[total:])
    inflate = 1.0 + spec.eta * ((e > 0.0) & (d == 0))
    z = 5.0 + spec.gamma * c + inflate * e
    return Dataset(z=z, d=d, c=c)


def reference_targeted(f_dist, g_dist, m, n, seed):
    """sample_targeted on the uniforms drawn through Generator.integers."""
    u = integers_uniforms(seed, m + n)
    d = np.concatenate([np.ones(m, dtype=int), np.zeros(n, dtype=int)])
    c = empirical_quantile(g_dist.values, u)
    z = empirical_quantile(f_dist.values, u)
    z = z + np.where(d == 0, tail_shift(u), 0.0)
    return Dataset(z=z, d=d, c=c)


def assert_same_draw(got, want):
    for name in ("z", "d", "c"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


class TestGenerationBitIdentity:
    # The generators draw the raw Philox words and build c and z in place;
    # every draw must keep the bits of the whole-array forms above.
    @pytest.mark.parametrize("size", [0, 1, 7, 20_000])
    @pytest.mark.parametrize("seed", [0, 1, 11, 2**40 + 3, 2**64 - 1])
    def test_uniforms_are_the_integers_draw(self, seed, size):
        got, want = _open_uniforms(seed, size), integers_uniforms(seed, size)
        assert got.dtype == want.dtype == np.float64 and got.shape == (size,)
        assert got.tobytes() == want.tobytes()
        assert np.all((got > 0.0) & (got < 1.0))

    @pytest.mark.parametrize("eta", [0.0, 1.35, 5e-324])
    @pytest.mark.parametrize("gamma", [None, 0.0, -2.5])
    @pytest.mark.parametrize("m, n", [(1, 1), (1, 4), (7, 5), (50, 50), (300, 200)])
    def test_scenario_draws(self, eta, gamma, m, n):
        for scenario in (1, 2, 3, 4):
            spec = ScenarioSpec.from_scenario(scenario, eta, gamma)
            for seed in (0, 3, 2**40 + 3):
                assert_same_draw(sample_scenario(spec, m, n, seed), reference_scenario(spec, m, n, seed))

    def test_large_scenario_draws(self):
        for scenario in (1, 2, 3, 4):
            spec = ScenarioSpec.from_scenario(scenario, 1.35)
            assert_same_draw(sample_scenario(spec, 5000, 5000, 17), reference_scenario(spec, 5000, 5000, 17))

    @pytest.mark.parametrize("m, n", [(1, 1), (12, 12), (50, 50), (24, 12)])
    def test_targeted_draws(self, m, n):
        f, g = load_standin()
        for seed in (0, 3, 2**40 + 3):
            assert_same_draw(sample_targeted(f, g, m, n, seed), reference_targeted(f, g, m, n, seed))
