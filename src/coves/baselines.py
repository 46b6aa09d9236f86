"""Comparator test: t-test on the treatment coefficient in a linear model.

Classical least squares of the outcome on (intercept, treatment,
covariate) with homoskedastic standard errors and n-3 degrees of
freedom; the conventional benchmark for the shortfall-based test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import stdtr

from .coves_test import Dataset, check_scale, check_side, design_matrix, p_value
from .errors import DegenerateDesignError

# run_ttest takes the design's full rank from X'X alone where the least
# singular value X'X bounds clears this factor times np.linalg.matrix_rank's
# tolerance; see _gram_full_rank.
_RANK_MARGIN = 2.0**16
# run_ttest refuses a fit whose residuals are within this factor of the
# outcome in norm, as exact; see run_ttest.
_EXACT_FIT_RTOL = 2.0**-36


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

    An exact fit has no residual variance, and its computed residuals r
    are rounding noise, so it is refused with a DegenerateDesignError
    where ||r|| <= _EXACT_FIT_RTOL * ||z||.  With u = 2^-53 the bound is
    about 1.3e5 u.  The rounding of X'X, X'z, the solve and z - X beta
    leaves ||r|| / ||z|| of 0 to 5.3e3 u on exact fits of 2N = 10 to
    100 000 rows (z constant at 1 and at 1e-100, z = 2 + 3c,
    z = 5 + d - 7c and z = 1e8 + c, for c = 0, 1, ..., c normal and c
    normal times 1e8): it grows with n, and with the conditioning of X.
    Noise of 1e-9 relative to |z| on the same designs reads 4.4e6 u or
    more, and is tested.  A covariate offset far from its spread
    (c = 1e6 + N(0, 1)) leaves exact fits at 1e5 u to 1e9 u, so some of
    them are not refused.
    """
    check_side(side)
    check_scale(data)
    X = design_matrix(data, True)
    n, p = X.shape
    if n < p + 1:
        raise DegenerateDesignError(f"need at least {p + 1} observations")
    xtx = X.T @ X
    if not _gram_full_rank(xtx, n) and np.linalg.matrix_rank(X) < p:
        raise DegenerateDesignError("design matrix is rank deficient")
    beta = np.linalg.solve(xtx, X.T @ data.z)
    resid = data.z - X @ beta
    df = n - p
    rss = float(resid @ resid)
    if rss <= _EXACT_FIT_RTOL**2 * float(data.z @ data.z):
        raise DegenerateDesignError("residual variance is zero")
    sigma2 = rss / df
    se_delta = float(np.sqrt(sigma2 * np.linalg.inv(xtx)[1, 1]))
    t_stat = float(beta[1] / se_delta)
    return OlsReport(
        beta=beta,
        se_delta=se_delta,
        t_stat=t_stat,
        p_value=p_value(t_stat, side, partial(stdtr, df)),
        side=side,
        df=df,
    )


def _gram_full_rank(xtx: np.ndarray, n: int) -> bool:
    """True when xtx = X.T @ X, as computed, proves that
    np.linalg.matrix_rank(X) is p for the n x p design X; False when it
    cannot tell, and matrix_rank decides.

    Let G be the exact X'X, lam the least of np.linalg.eigvalsh(xtx), T
    the computed trace of xtx, u = 2^-53, eps = 2u, N = max(n, p) and
    g_n = n*u/(1 - n*u).

    - Each entry of xtx is a dot product of length n, so, in any order
      of addition and with or without fused multiply-adds,
      |xtx - G| <= g_n |X|'|X| + n*2^-1074 entrywise, the last term for
      products that underflow (Higham, Accuracy and Stability of
      Numerical Algorithms, 2002, section 3.5).  The Frobenius norm of
      |X|'|X| is at most its trace, which is G's, so
      ||xtx - G||_2 <= g_n tr(G) + p*n*2^-1074.
    - The symmetric eigensolver is backward stable: lam is an eigenvalue
      of xtx + F with ||F||_2 a modest multiple of u ||xtx||_2 (its
      Householder reduction to tridiagonal form obeys the bounds of
      section 19.3).  The slack allows 64*p*u ||xtx||_2.
    - While n*u < 0.01, tr(G) and ||xtx||_2 are at most 1.03 T, up to
      the underflow terms; the slack takes 1.1 T, and twice those terms,
      which also covers the rounding of its own evaluation.

    By Weyl's inequality, lam(G) >= lam - slack.  So lam - slack >
    (M*N*eps)^2 T, with M = _RANK_MARGIN, gives sigma_min(X) > M' N eps
    sigma_max(X), M' = M/sqrt(1.1), since sigma_max(X)^2 <= tr(G).
    matrix_rank counts the singular values its SVD returns above
    sigma_hat_max * N * eps.  That SVD is backward stable too: its
    values are exact for X + E with ||E||_2 <= q u ||X||_2, where its
    Householder bidiagonalisation (section 19.3) gives q of the order of
    c n p^1.5 for a small constant c.  So by Weyl again sigma_hat_min >
    (M' N eps - q u) sigma_max, and the tolerance is at most
    N eps sigma_max (1 + q u)(1 + u): every singular value clears it
    while q < (2M' - 3) N, for p = 3 any c below 2e4.  The margin costs
    nothing in practice: the slack, about n*u of T, is what bounds the
    designs this test certifies.  A non-finite xtx (which check_scale's
    window rules out) makes the test False.
    """
    p = xtx.shape[0]
    u = 2.0**-53
    trace = float(xtx.trace())
    slack = 1.1 * (n * u / (1.0 - n * u) + 64.0 * p * u) * trace + 2.0 * p * n * 2.0**-1074
    tol2 = (_RANK_MARGIN * max(n, p) * 2.0 * u) ** 2 * trace
    return float(np.linalg.eigvalsh(xtx)[0]) - slack > tol2
