"""Gaussian kernel density at zero, per treatment group.

Feeds the density-weighted curvature sum in the test variance: each
group contributes one common density value, estimated from that group's
quantile-regression residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpreadError
from .orderstats import empirical_quantile

_SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass
class DensityEstimate:
    bandwidth: float
    f_at_zero: float


def bandwidth_rot(samples) -> float:
    """Rule-of-thumb bandwidth 0.9 * min(sd, IQR/1.34) * n^(-1/5).

    Falls back to the standard deviation when the IQR degenerates to
    zero; raises DegenerateSpreadError when the sample has no spread at
    all (sd = IQR = 0).
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two samples for a bandwidth")
    sd = float(np.std(x, ddof=1))
    iqr = empirical_quantile(x, 0.75) - empirical_quantile(x, 0.25)
    lo = min(sd, iqr / 1.34)
    if lo <= 0.0:
        lo = sd
    if lo <= 0.0:
        raise DegenerateSpreadError("all samples identical; spread is zero")
    return 0.9 * lo * x.size ** (-0.2)


def kde_at_zero(samples, h: float) -> float:
    """Gaussian kernel density estimate evaluated at 0.

    Returns (n*h)^(-1) * sum_i K(-s_i / h) with K the standard normal
    density.
    """
    if h <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("need at least one sample")
    t = -x / h
    return float(np.sum(np.exp(-0.5 * t * t) / _SQRT_2PI) / (x.size * h))


def group_density_at_zero(samples) -> DensityEstimate:
    """Bandwidth and density-at-zero for one treatment group's residuals."""
    h = bandwidth_rot(samples)
    return DensityEstimate(bandwidth=h, f_at_zero=kde_at_zero(samples, h))
