"""Gaussian kernel density at zero, per treatment group.

Feeds the density-weighted curvature sum in the test variance: each
group contributes one common density value, estimated from that group's
quantile-regression residuals.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateSpreadError

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def bandwidth_rot(samples) -> float:
    """Rule-of-thumb bandwidth 0.9 * min(sd, IQR/1.34) * n^(-1/5).

    Falls back to the standard deviation when the IQR degenerates to
    zero; raises DegenerateSpreadError when the sample has no spread at
    all (sd = IQR = 0), and ValueError when the sd is not finite (a NaN
    or infinite sample, or squared deviations that overflow).  The sd is
    np.std(ddof=1) from its own steps (the mean, the sum of squared
    deviations over n - 1, the square root) and the quartiles are
    empirical_quantile's order statistics, both from one sort.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples for a bandwidth")
    s = np.sort(x)
    # The steps run with numpy's overflow and invalid warnings silenced, so
    # a sample they overflow or make NaN ends in the ValueError below.
    with np.errstate(over="ignore", invalid="ignore"):
        dev = x - x.sum() / n
        np.square(dev, out=dev)
        sd = math.sqrt(dev.sum() / (n - 1))
    if not sd < math.inf:
        raise ValueError(f"sample standard deviation must be finite, got {sd}")
    iqr = float(s[math.ceil(0.75 * n) - 1] - s[math.ceil(0.25 * n) - 1])
    lo = min(sd, iqr / 1.34)
    if lo <= 0.0:
        lo = sd
    if lo <= 0.0:
        raise DegenerateSpreadError("all samples identical; spread is zero")
    return 0.9 * lo * n ** (-0.2)


def kde_at_zero(samples, h: float) -> float:
    """Gaussian kernel density estimate evaluated at 0.

    Returns (n*h)^(-1) * sum_i K(-s_i / h) with K the standard normal
    density; raises ValueError unless 0 < h < inf.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {h}")
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("need at least one sample")
    t = -x / h
    return float(np.sum(np.exp(-0.5 * t * t) / _SQRT_2PI) / (x.size * h))


def group_density_at_zero(samples) -> float:
    """Density at zero of one treatment group's residuals, rule-of-thumb bandwidth."""
    return kde_at_zero(samples, bandwidth_rot(samples))
