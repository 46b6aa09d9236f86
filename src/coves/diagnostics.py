"""Quantile-function curves of covariate-adjusted outcomes, per group.

When the two curves differ mostly in one tail, a shortfall-based test
is the right tool and the separation point suggests a quantile level;
a vertical shift between curves instead favors a mean-based test.  The
curves are insensitive to the quantile level used for the adjustment
fit: changing it moves each curve by at most the change in the fitted
covariate coefficient times the largest covariate magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coves_test import Dataset, adjusted_outcomes, design_matrix
from .orderstats import empirical_quantile
from .quantreg import RegressionData, fit_rq

DEFAULT_GRID = np.round(np.arange(1, 100) * 0.01, 2)
DEFAULT_TAU_FIT = (0.5, 0.75, 0.9)


@dataclass
class QuantileCurves:
    """Per-group empirical quantiles of adjusted outcomes on a probability grid."""

    tau_fit: float
    grid: np.ndarray
    curve_treat: np.ndarray
    curve_control: np.ndarray


def adjusted_quantile_curves(
    data: Dataset, tau_fit: float, grid=DEFAULT_GRID
) -> QuantileCurves:
    """Fit the adjustment at tau_fit, then tabulate group quantile functions."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    if np.any(grid <= 0.0) or np.any(grid >= 1.0):
        raise ValueError("grid probabilities must lie strictly in (0, 1)")
    if grid.size > 1 and np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    fit = fit_rq(RegressionData(data.z, design_matrix(data, True)), tau_fit)
    y = adjusted_outcomes(data, fit)
    treat, control = (np.asarray(empirical_quantile(y[in_g], grid)) for in_g in data.groups)
    return QuantileCurves(tau_fit=tau_fit, grid=grid, curve_treat=treat, curve_control=control)
