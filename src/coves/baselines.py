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


@dataclass
class OlsReport:
    beta: np.ndarray
    se_delta: float
    t_stat: float
    p_value: float
    side: str
    df: int


def run_ttest(data: Dataset, side: str = "two-sided") -> OlsReport:
    """Least-squares fit of z on (1, d, c); t-test on the d coefficient."""
    check_side(side)
    check_scale(data)
    X = design_matrix(data, True)
    n, p = X.shape
    if n < p + 1:
        raise DegenerateDesignError(f"need at least {p + 1} observations")
    if np.linalg.matrix_rank(X) < p:
        raise DegenerateDesignError("design matrix is rank deficient")
    xtx = X.T @ X
    beta = np.linalg.solve(xtx, X.T @ data.z)
    resid = data.z - X @ beta
    df = n - p
    sigma2 = float(resid @ resid) / df
    if sigma2 <= 0.0:
        raise DegenerateDesignError("residual variance is zero")
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
