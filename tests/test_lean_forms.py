"""Each lean form in the per-replication path equals, bit for bit, the
convenience form it replaces.

The convenience forms are written out here as the package had them:
np.mean, np.std(ddof=1) with empirical_quantile, np.sum,
np.column_stack, a full np.sort for an order statistic, boolean masks
for a shortfall set, the kernel sum in one expression and the simplex
key block's lead entries in arrays.  Samples cover ties, n = 2, constant samples
and scales from 1e-100 to 1e100; the order statistic is also checked on
groups whose zeros of both signs tie at it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coves.coves_test import (
    Dataset,
    _mean,
    _shortfall_rows,
    _tail_variation,
    design_matrix,
    orthogonalized_covariate,
    run_coves,
    run_es,
)
from coves.density import _SQRT_2PI, bandwidth_rot, kde_at_zero
from coves.errors import CovesError, DegenerateSpreadError, EmptyShortfallError
from coves.orderstats import empirical_quantile
from coves.quantreg import TIE_RTOL, _key_columns, _key_lower, _lower_end, rho_tau

SCALES = [1e-100, 1e-3, 1.0, 1e3, 1e100]


def draw(rng, n, kind, scale):
    """n values of one kind: normal, ties (few distinct values) or constant."""
    if kind == "normal":
        x = rng.normal(size=n)
    elif kind == "ties":
        x = rng.integers(-2, 3, size=n).astype(float)
    else:
        x = np.full(n, float(rng.normal()))
    return scale * x


samples = st.builds(
    lambda seed, n, kind, scale: draw(np.random.default_rng(seed), n, kind, scale),
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.just(2), st.integers(2, 300)),
    kind=st.sampled_from(["normal", "ties", "constant"]),
    scale=st.sampled_from(SCALES),
)


def same(a, b):
    """Equal as floats, down to the sign of a zero."""
    return np.array_equal(np.asarray(a), np.asarray(b)) and np.array_equal(np.signbit(a), np.signbit(b))


def np_bandwidth(x):
    """bandwidth_rot as 0.9 * min(np.std(ddof=1), IQR/1.34) * n^-0.2."""
    x = np.asarray(x, dtype=float)
    sd = float(np.std(x, ddof=1))
    q25, q75 = empirical_quantile(x, [0.25, 0.75])
    lo = min(sd, float(q75 - q25) / 1.34)
    if lo <= 0.0:
        lo = sd
    if lo <= 0.0:
        raise DegenerateSpreadError("all samples identical; spread is zero")
    return 0.9 * lo * x.size ** (-0.2)


def np_tail_variation(r, n_group):
    return float(np.sum(r * r) - np.sum(r) ** 2 / n_group)


def sorted_lower_end(values, tau):
    """quantreg._lower_end as a full sort: np.sort(values)[k - 1], a zero
    read as +0.0."""
    n = values.size
    k = max(1, int(np.ceil(tau * n - TIE_RTOL * n)))
    return float(np.sort(values)[k - 1] + 0.0)


def signed_zero_group(seed, n):
    """n values from {-1, -0.0, 0.0, 1}, two thirds of them zeros, so the
    order statistics at tau 0.25, 0.5 and 0.75 are zeros tied with zeros
    of the other sign."""
    rng = np.random.default_rng(seed)
    return rng.choice([-1.0, -0.0, 0.0, 1.0], size=n, p=[1 / 6, 1 / 3, 1 / 3, 1 / 6])


def np_orthogonalized_covariate(data):
    cstar = data.c.copy()
    for g in (0, 1):
        sel = data.d == g
        cstar[sel] -= np.mean(data.c[sel])
    return cstar


def np_design_matrix(data, with_covariate):
    cols = [np.ones(data.z.size), data.d.astype(float)]
    if with_covariate:
        cols.append(data.c)
    return np.column_stack(cols)


class TestBandwidth:
    @settings(max_examples=400, deadline=None)
    @given(x=samples)
    def test_matches_np_std_and_empirical_quantile(self, x):
        try:
            want = np_bandwidth(x)
        except DegenerateSpreadError:
            with pytest.raises(DegenerateSpreadError):
                bandwidth_rot(x)
            return
        assert same(bandwidth_rot(x), want)

    @pytest.mark.parametrize("scale", SCALES)
    def test_two_points_and_constant(self, scale):
        assert same(bandwidth_rot(scale * np.array([0.3, -1.1])), np_bandwidth(scale * np.array([0.3, -1.1])))
        with pytest.raises(DegenerateSpreadError):
            bandwidth_rot(np.full(7, scale))

    def test_wide_pair_squares_finitely(self):
        # At twice sqrt(float max)/(2n) from the mean, where a step could
        # overflow on a larger sample, these deviations still square and
        # add finitely, and the sd keeps np.std's bits.
        e = np.sqrt(np.finfo(float).max) / 4
        x = np.array([-2.0 * e, 2.0 * e])
        assert same(bandwidth_rot(x), np_bandwidth(x))


def np_kde_at_zero(x, h):
    """kde_at_zero as sum(exp(-0.5 * t * t) / sqrt(2 pi)) / (n h), t = -x / h."""
    t = -np.asarray(x, dtype=float) / h
    return float(np.sum(np.exp(-0.5 * t * t) / _SQRT_2PI) / (t.size * h))


class TestKde:
    @settings(max_examples=400, deadline=None)
    @given(x=samples, h=st.sampled_from([1e-300, 1e-3, 0.37, 1.0, 3.0, 1e3, 1e300]))
    def test_matches_exp_form(self, x, h):
        # At the extreme bandwidths t or t * t overflows, in both forms.
        with np.errstate(over="ignore"):
            assert same(kde_at_zero(x, h), np_kde_at_zero(x, h))

    def test_leaves_the_samples(self):
        x = np.array([0.5, -1.25, 3.0])
        kde_at_zero(x, 0.7)
        assert x.tolist() == [0.5, -1.25, 3.0]


def np_key_lower(B, weight, key):
    """_key_lower in numpy arrays: the lead entry of each column of the
    weighted rows of B in key order, by argmax over a boolean mask."""
    p = len(key)
    V = (B * weight[:, None])[key]
    big = np.abs(V) > TIE_RTOL * np.abs(V).sum(axis=0)
    lead = V[big.argmax(axis=0), range(p)]
    return np.concatenate((lead < 0.0, lead > 0.0)).tolist()


class TestKeyLower:
    def test_matches_array_form(self):
        # 3000 random B at each p, entries from 1e-12 to 1e12 in size and
        # of both signs, some zero, some columns of a size far below the
        # rest's TIE_RTOL, and a NaN in one B of ten.
        rng = np.random.default_rng(11)
        for p in (1, 2, 3, 5, 9):
            key = _key_columns(p)
            for trial in range(3000):
                B = rng.choice([-1.0, 1.0], size=(p, p)) * 10.0 ** rng.uniform(-12, 12, size=(p, p))
                B[rng.random((p, p)) < 0.2] = 0.0
                if trial % 10 == 0:
                    B[rng.integers(p), rng.integers(p)] = np.nan
                weight = 10.0 ** rng.uniform(-6, 6, size=p)
                assert _key_lower(B, weight, key) == np_key_lower(B, weight, key), (p, trial)


class TestGroupSums:
    @settings(max_examples=400, deadline=None)
    @given(x=samples)
    def test_mean_matches_np_mean(self, x):
        assert same(_mean(x), float(np.mean(x)))

    @settings(max_examples=400, deadline=None)
    @given(r=samples, extra=st.integers(0, 300))
    def test_tail_variation_matches_np_sum(self, r, extra):
        n_group = r.size + extra
        assert same(_tail_variation(r, n_group), np_tail_variation(r, n_group))


class TestLowerEnd:
    """np.partition finds the order statistic of the full sort, and a zero,
    whichever sign of a tied zero the kernel puts there, is +0.0."""

    @settings(max_examples=400, deadline=None)
    @given(x=samples, tau=st.one_of(st.sampled_from([0.25, 0.5, 0.55, 0.75, 0.9]),
                                    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
    def test_matches_full_sort(self, x, tau):
        assert same(_lower_end(x, tau), sorted_lower_end(x, tau))

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n", [100, 5000])
    def test_tied_zero_keeps_the_sort_sign(self, n, seed):
        x = signed_zero_group(seed, n)
        for tau in (0.25, 0.5, 0.75):
            want = sorted_lower_end(x, tau)
            assert want == 0.0 and not np.signbit(want)
            assert same(_lower_end(x, tau), want), tau


class TestShortfallGathers:
    """A shortfall set gathered by its row indices gives the same _mean and
    _tail_variation bits as gathered by its mask."""

    @settings(max_examples=300, deadline=None)
    @given(x=samples, seed=st.integers(0, 2**32 - 1), extra=st.integers(0, 300))
    def test_index_gather_matches_mask_gather(self, x, seed, extra):
        rng = np.random.default_rng(seed)
        pos = rng.random(x.size) < rng.random()
        in_group = rng.random(x.size) < 0.7
        sel = pos & in_group
        try:
            rows = _shortfall_rows(pos, in_group, 1)
        except EmptyShortfallError:
            assert not sel.any()
            return
        assert same(_mean(x.take(rows)), _mean(x[sel]))
        assert same(_tail_variation(x.take(rows), x.size + extra), _tail_variation(x[sel], x.size + extra))

    @pytest.mark.parametrize("scale", SCALES)
    def test_one_element_sets(self, scale):
        x = scale * np.array([0.3, -1.1, 2.5, -0.0, 7.0])
        in_group = np.array([True, True, False, True, True])
        for i in in_group.nonzero()[0]:
            pos = np.arange(x.size) == i
            rows = _shortfall_rows(pos, in_group, 0)
            assert rows.tolist() == [i]
            assert same(_mean(x.take(rows)), _mean(x[pos & in_group]))
            assert same(_tail_variation(x.take(rows), 4), _tail_variation(x[pos & in_group], 4))
        with pytest.raises(EmptyShortfallError, match="group 0"):
            _shortfall_rows(np.arange(x.size) == 2, in_group, 0)


def two_groups(seed, m, n, kind, scale):
    rng = np.random.default_rng(seed)
    d = np.concatenate([np.ones(m, dtype=int), np.zeros(n, dtype=int)])
    perm = rng.permutation(m + n)
    c = draw(rng, m + n, kind, scale)
    z = draw(rng, m + n, "normal", scale) + c
    return Dataset(z=z[perm], d=d[perm], c=c[perm])


datasets = st.builds(
    two_groups,
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 60),
    n=st.integers(2, 60),
    kind=st.sampled_from(["normal", "ties", "constant"]),
    scale=st.sampled_from([1e-100, 1e-3, 1.0, 1e3, 1e50]),
)


class TestDesignAndCovariate:
    @settings(max_examples=300, deadline=None)
    @given(data=datasets, with_covariate=st.booleans())
    def test_design_matrix_matches_column_stack(self, data, with_covariate):
        got = design_matrix(data, with_covariate)
        want = np_design_matrix(data, with_covariate)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous and want.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(data=datasets)
    def test_centred_covariate_matches_group_means(self, data):
        assert orthogonalized_covariate(data).tobytes() == np_orthogonalized_covariate(data).tobytes()


class TestReportSums:
    """The report's group means and sums are np.mean and np.sum over the
    same masks, in the same row order."""

    @settings(max_examples=150, deadline=None)
    @given(data=datasets, tau=st.sampled_from([0.25, 0.5, 0.75, 0.9]), method=st.sampled_from(["coves", "es"]))
    def test_fields_match_np_forms(self, data, tau, method):
        try:
            rep = (run_coves if method == "coves" else run_es)(data, tau)
        except CovesError:
            return
        gamma = float(rep.fit.beta[2]) if rep.fit.beta.size >= 3 else 0.0
        y = data.z - gamma * data.c
        pos = rep.fit.residuals > rep.fit.zero_tol
        sels = [pos & (data.d == g) for g in (1, 0)]
        assert rep.s_counts == tuple(int(np.sum(sel)) for sel in sels)
        assert same(rep.coves, [float(np.mean(y[sel])) for sel in sels])
        assert same(rep.cbar, [float(np.mean(data.c[sel])) for sel in sels])
        sizes = (data.n_treat, data.n_control)
        assert same(rep.v, [np_tail_variation(rep.fit.residuals[sel], k) for sel, k in zip(sels, sizes)])
        cstar = np_orthogonalized_covariate(data)
        assert same(rep.cstar_sumsq, float(np.sum(cstar * cstar)))
        assert same(rep.fit.objective, float(np.sum(rho_tau(rep.fit.residuals, tau))))
