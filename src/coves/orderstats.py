"""Left-continuous empirical quantiles (generalized inverse CDF).

The generators, the bandwidth and the diagnostic use one quantile
convention: the p-th quantile of a sample of size n is the
ceil(p*n)-th order statistic, a zero as +0.0.  No interpolation.
Fitted quantile planes follow the fit rule of ``quantreg`` instead.
"""

from __future__ import annotations

import numpy as np


def empirical_quantile(values, p):
    """Order-statistic quantile(s) of a sample.

    Parameters
    ----------
    values : array_like
        Sample (any order, nonempty).
    p : float or array_like
        Probability level(s), each strictly inside (0, 1).

    Returns
    -------
    float or ndarray
        The ceil(p*n)-th smallest value for each p, a zero as +0.0.
    """
    s = np.sort(np.asarray(values, dtype=float))
    if s.size == 0:
        raise ValueError("empty sample")
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("probability levels must lie strictly in (0, 1)")
    # For p in (0, 1) the float product p*n lies in (0, n]: its ceil is in [1, n].
    out = s[np.ceil(p * s.size).astype(int) - 1] + 0.0
    return float(out) if out.ndim == 0 else out
