"""Comparator test: t-test on the treatment coefficient in a linear model.

Classical least squares of the outcome on (intercept, treatment,
covariate) with homoskedastic standard errors and n-3 degrees of
freedom; the conventional benchmark for the shortfall-based test.  The
fit is the closed form of the two-group design: centring z and c within
each group sweeps out (1, d) (Frisch & Waugh 1933, Econometrica 1(4);
Lovell 1963, JASA 58(304)), and the covariate's coefficient is then one
ratio of sums.  No normal equations and no matrix factorisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import stdtr

from .coves_test import Dataset, check_scale, check_side, group_centred, p_value
from .errors import DegenerateDesignError, NumericalError

# run_ttest refuses a fit whose residuals are within this factor of the
# outcome in norm, as exact, a covariate whose within-group spread is
# within n * _EPS of its norm, as rank deficient, and one whose centred
# sum of squares is below the least normal float; see run_ttest.
_EXACT_FIT_RTOL = 2.0**-36
_EPS = 2.0**-52
_TINY = 2.0**-1022


@dataclass
class OlsReport:
    beta: np.ndarray
    se_delta: float
    t_stat: float
    p_value: float
    side: str
    df: int


def run_ttest(data: Dataset, side: str = "two-sided") -> OlsReport:
    """Least-squares fit of z on (1, d, c); t-test on the d coefficient.

    With z~ and c~ the outcome and covariate less their group means
    (zbar_g, cbar_g), the fit is gamma = sum(c~ z~) / sum(c~^2), with
    residuals e = z~ - gamma c~, delta = (zbar_1 - zbar_0) -
    gamma (cbar_1 - cbar_0) and intercept zbar_0 - gamma cbar_0.  The
    variance of delta is sum(e^2) / (n - 3) times
    1/n_1 + 1/n_0 + (cbar_1 - cbar_0)^2 / sum(c~^2), the (d, d) entry of
    (X'X)^-1.

    The design is rank deficient when c lies in span(1, d), that is when
    c is constant within each group; then c~ is 0 in exact arithmetic.
    In floats a group mean of n_g copies of a is a(1 + t) with
    |t| <= g_n = n u / (1 - n u), u = 2^-53, and a - fl(mean) is exact,
    so ||c~|| <= g_n ||c|| as computed.  The design is refused where
    sum(c~^2) <= (n eps)^2 sum(c^2), eps = 2u: about four times g_n^2,
    which also covers the rounding of both sums.  The rule is a ratio,
    so scaling c does not change it.  An offset changes it only through
    the rounding it brings to c~: it refuses c = k + s where |k| exceeds
    about 1/(n eps) times the spread of s, and so c~ is rounding.  Below
    _TINY, sum(c~^2) holds subnormal squares that have lost digits, and
    the data are refused with a NumericalError; at or above it, their
    underflow costs at most n u relative.

    An exact fit has no residual variance, and its computed residuals
    are rounding noise, so it is refused where
    ||e|| <= _EXACT_FIT_RTOL * ||z||, about 1.3e5 u.  Exact fits read
    ||e|| / ||z|| of 0 to 2.9 u on 2N = 10 to 100 000 rows (z constant
    at 1 and at 1e-100, z = 2 + 3c, z = 5 + d - 7c and z = 1e8 + c, for
    c = 0, 1, ..., c normal and c normal times 1e8, each also plus 1e4,
    1e6 and 1e7), and noise of 1e-9 relative to |z| on the same designs
    reads 3.3e6 u or more, and is tested.
    """
    check_side(side)
    check_scale(data)
    n = data.z.size
    if n < 4:
        raise DegenerateDesignError("need at least 4 observations")
    zc, z1, z0 = group_centred(data.z, data.groups)
    cc, c1, c0 = group_centred(data.c, data.groups)
    scc = float(cc @ cc)
    if scc <= (n * _EPS) ** 2 * float(data.c @ data.c):
        raise DegenerateDesignError("design matrix is rank deficient")
    if scc < _TINY:
        raise NumericalError(f"covariate spread within groups underflows (sum of squares {scc:.3g}); rescale c")
    gamma = float(cc @ zc) / scc
    resid = zc - gamma * cc
    rss = float(resid @ resid)
    if rss <= _EXACT_FIT_RTOL**2 * float(data.z @ data.z):
        raise DegenerateDesignError("residual variance is zero")
    gap = c1 - c0
    delta = (z1 - z0) - gamma * gap
    df = n - 3
    se_delta = math.sqrt(rss / df * (1.0 / data.n_treat + 1.0 / data.n_control + gap * gap / scc))
    t_stat = delta / se_delta
    return OlsReport(
        beta=np.array([z0 - gamma * c0, delta, gamma]),
        se_delta=se_delta,
        t_stat=t_stat,
        p_value=p_value(t_stat, side, partial(stdtr, df)),
        side=side,
        df=df,
    )
