"""Two-sample treatment-effect test on covariate-adjusted expected shortfall.

Pipeline: fit the tau-th regression quantile of the outcome on
(intercept, treatment, covariate); strip the fitted covariate
contribution from the outcomes; average the adjusted outcomes above the
fitted quantile plane within each group; compare the two group averages.
The statistic divided by its estimated standard error is asymptotically
standard normal under the null of equal conditional outcome
distributions.

``run_es`` is the unadjusted variant: the covariate is dropped from the
design, so the adjustment and its variance contribution vanish, and the
fit is each group's tau-quantile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .density import group_density_at_zero
from .errors import (
    DataError,
    DegenerateDensityError,
    EmptyShortfallError,
    NumericalError,
)
from .quantreg import QuantileFit, RegressionData, fit_group_quantiles, fit_rq

SIDES = ("two-sided", "one-sided-upper", "one-sided-lower")

# Window for max|z|.  Beyond it the squares the variances form overflow,
# or fall into the subnormal range and lose digits, and the tests refuse
# the data.  Inside it, a p-value of scaled data stayed within 6e-12
# relative of the unscaled one, as at moderate scales (scenarios 2 and 3
# at (50,50) and (5000,5000)).
OUTCOME_SCALE = (1e-150, 1e152)


@dataclass
class Dataset:
    """Outcomes ``z``, binary treatment indicator ``d``, covariate ``c``."""

    z: np.ndarray
    d: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.z = np.ascontiguousarray(self.z, dtype=float)
        self.c = np.ascontiguousarray(self.c, dtype=float)
        d = np.asarray(self.d)
        if not (self.z.ndim == d.ndim == self.c.ndim == 1):
            raise DataError("z, d, c must be one-dimensional")
        if not (self.z.size == d.size == self.c.size):
            raise DataError("z, d, c must have equal length")
        if not (np.all(np.isfinite(self.z)) and np.all(np.isfinite(self.c))):
            raise DataError("z and c must be finite")
        dv = np.asarray(d, dtype=float)
        if not np.all((dv == 0.0) | (dv == 1.0)):
            raise DataError("treatment indicator d must contain only 0 or 1")
        self.d = dv.astype(int)
        if self.n_treat < 1 or self.n_control < 1:
            raise DataError("both treatment groups must be nonempty")

    @property
    def n_treat(self) -> int:
        return int(np.sum(self.d == 1))

    @property
    def n_control(self) -> int:
        return int(np.sum(self.d == 0))


@dataclass
class CovesReport:
    """Everything the test computes, from fit to p-value.

    Pair-valued fields are ordered (treatment group d=1, control group
    d=0).  For the unadjusted variant (``method == 'es'``) the covariate
    is not estimated, so ``u_f`` is reported as 0 and the variance
    carries no covariate-adjustment term.
    """

    method: str
    tau: float
    side: str
    fit: QuantileFit
    coves: tuple[float, float]
    s_counts: tuple[int, int]
    cbar: tuple[float, float]
    cstar_sumsq: float
    v: tuple[float, float]
    u_f: float
    s2: float
    t_stat: float
    z_score: float
    p_value: float


def design_matrix(data: Dataset, with_covariate: bool = True) -> np.ndarray:
    cols = [np.ones(data.z.size), data.d.astype(float)]
    if with_covariate:
        cols.append(data.c)
    return np.column_stack(cols)


def adjusted_outcomes(data: Dataset, fit: QuantileFit) -> np.ndarray:
    """Outcomes with the fitted covariate contribution removed: z - gamma_hat*c."""
    if fit.residuals.size != data.z.size:
        raise ValueError("fit does not match the dataset")
    gamma = float(fit.beta[2]) if fit.beta.size >= 3 else 0.0
    return data.z - gamma * data.c


def shortfall_mask(data: Dataset, fit: QuantileFit, group: int) -> np.ndarray:
    """Mask of the group's observations strictly above the fitted plane.

    Raises EmptyShortfallError when the group has none.
    """
    sel = fit.positive_mask() & (data.d == group)
    if not np.any(sel):
        raise EmptyShortfallError(
            f"no observation above the fitted quantile plane in group {group} "
            "(tau too high or data degenerate)"
        )
    return sel


def coves_stat(data: Dataset, fit: QuantileFit, group: int) -> float:
    """Mean adjusted outcome over the group's strictly positive residuals."""
    if group not in (0, 1):
        raise ValueError("group must be 0 or 1")
    return float(np.mean(adjusted_outcomes(data, fit)[shortfall_mask(data, fit, group)]))


def orthogonalized_covariate(data: Dataset) -> np.ndarray:
    """Covariate centered within each treatment group; sums to zero per group."""
    cstar = data.c.copy()
    for g in (0, 1):
        sel = data.d == g
        cstar[sel] -= np.mean(data.c[sel])
    return cstar


def _tail_variation(r: np.ndarray, n_group: int) -> float:
    """V_d = sum of squared positive residuals minus N_d^-1 (their sum)^2.

    With s_d positive residuals r, V_d / s_d^2 equals
    [var(r) + (1 - s_d/N_d) mean(r)^2] / s_d: the plug-in, over the s_d
    points the statistic averages, of the influence-function variance
    [Var(Y | Y > q) + tau (ES - q)^2] / ((1 - tau) N_d) of a shortfall.
    """
    return float(np.sum(r * r) - np.sum(r) ** 2 / n_group)


def _tail_term(v1: float, v0: float, s1: int, s0: int) -> float:
    """Tail part of the statistic's variance: V_1/s_1^2 + V_0/s_0^2."""
    return v1 / s1**2 + v0 / s0**2


def variance_est(
    v1: float,
    v0: float,
    cbar1: float,
    cbar0: float,
    u_f: float,
    cstar_sumsq: float,
    tau: float,
    s1: int,
    s0: int,
) -> float:
    """Variance of the test statistic from its assembled ingredients.

    The tail term divides each group's V_d by the square of its
    shortfall count s_d, the number of observations strictly above the
    fitted plane that the statistic averages over, rather than by the
    nominal ((1 - tau) N_d)^2.  The two agree asymptotically, but the
    fit puts p points on the plane, so s_d falls short of (1 - tau) N_d
    and the nominal count understates the variance in small samples.
    tau enters only the covariate-adjustment term.
    """
    if u_f <= 0.0:
        raise DegenerateDensityError(
            f"density-weighted curvature sum must be positive, got {u_f}"
        )
    return _tail_term(v1, v0, s1, s0) + tau * (1.0 - tau) * (
        cbar1 - cbar0
    ) ** 2 * u_f**-2 * cstar_sumsq


def p_value(stat: float, side: str, cdf) -> float:
    """Tail probability of ``stat`` under a symmetric null with CDF ``cdf``.

    Two-sided 2*cdf(-|stat|), upper cdf(-stat), lower cdf(stat).
    """
    check_side(side)
    if side == "two-sided":
        return float(2.0 * cdf(-abs(stat)))
    if side == "one-sided-upper":
        return float(cdf(-stat))
    return float(cdf(stat))


def check_side(side: str) -> None:
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")


def check_outcome_scale(z: np.ndarray) -> None:
    """NumericalError when max|z| is nonzero and outside OUTCOME_SCALE."""
    top = float(np.abs(z).max())
    lo, hi = OUTCOME_SCALE
    if top > hi or 0.0 < top < lo:
        raise NumericalError(
            f"outcome scale max|z| = {top:.3g} lies outside [{lo:g}, {hi:g}]; rescale z"
        )


def run_coves(data: Dataset, tau: float, side: str = "two-sided") -> CovesReport:
    """Covariate-adjusted expected-shortfall test at quantile level tau."""
    return _shortfall_test(data, tau, side, "coves")


def run_es(data: Dataset, tau: float, side: str = "two-sided") -> CovesReport:
    """Unadjusted expected-shortfall test: covariate dropped from the design.

    The fit of the design (1, d) is each group's ceil(tau*N_d)-th order
    statistic, ``fit_group_quantiles``; no LP is solved.  Where tau*N_d
    is an integer the optimum is an interval, and the fit takes its
    lower end, so the report does not depend on the row order of the
    data beyond the rounding of its sums.
    """
    return _shortfall_test(data, tau, side, "es")


def _shortfall_test(data: Dataset, tau: float, side: str, method: str) -> CovesReport:
    """Fit, shortfall summaries, variance and p-value; the covariate enters
    the design only for method 'coves'."""
    check_side(side)
    check_outcome_scale(data.z)
    adjust = method == "coves"
    if adjust:
        fit = fit_rq(RegressionData(data.z, design_matrix(data)), tau)
    else:
        fit = fit_group_quantiles(data.z, data.d, tau)
    # Each pair runs (treatment d=1, control d=0).  Both masks come
    # before either density, so an empty shortfall set is reported first.
    sels = [shortfall_mask(data, fit, g) for g in (1, 0)]
    y = adjusted_outcomes(data, fit)
    s = tuple(int(np.sum(sel)) for sel in sels)
    coves = tuple(float(np.mean(y[sel])) for sel in sels)
    cbar = tuple(float(np.mean(data.c[sel])) for sel in sels)
    v = tuple(
        _tail_variation(fit.residuals[sel], n_group)
        for sel, n_group in zip(sels, (data.n_treat, data.n_control))
    )
    cstar = orthogonalized_covariate(data)
    cstar_sumsq = float(np.sum(cstar * cstar))

    if adjust:
        f_terms = [
            group_density_at_zero(fit.residuals[in_g]) * float(np.sum(cstar[in_g] ** 2))
            for in_g in (data.d == 1, data.d == 0)
        ]
        u_f = f_terms[0] + f_terms[1]
        s2 = variance_est(*v, *cbar, u_f, cstar_sumsq, tau, *s)
    else:
        # No covariate is estimated, so the adjustment term vanishes.
        u_f = 0.0
        s2 = _tail_term(*v, *s)

    if s2 <= 0.0:
        raise NumericalError("estimated variance of the statistic is not positive")
    t_stat = coves[0] - coves[1]
    z = t_stat / np.sqrt(s2)
    return CovesReport(
        method=method,
        tau=tau,
        side=side,
        fit=fit,
        coves=coves,
        s_counts=s,
        cbar=cbar,
        cstar_sumsq=cstar_sumsq,
        v=v,
        u_f=u_f,
        s2=float(s2),
        t_stat=t_stat,
        z_score=float(z),
        p_value=p_value(float(z), side, ndtr),
    )


def decompose_T(
    data: Dataset, fit: QuantileFit, true_params: tuple[float, float, float]
) -> tuple[float, float]:
    """Statistic computed directly and via its exact algebraic decomposition.

    With e_i = z_i - alpha - delta*d_i - gamma*c_i for the supplied
    (alpha, delta, gamma), the statistic equals

        delta - (gamma_hat - gamma) * (cbar_1 - cbar_0) + (ebar_1 - ebar_0)

    where the bars average over each group's positive-residual set.  The
    identity holds for any parameter values, to rounding error; it is
    the lever behind the asymptotic normality argument.  Intended for
    simulation studies where the generating parameters are known.
    """
    alpha, delta, gamma = (float(x) for x in true_params)
    sels = [shortfall_mask(data, fit, g) for g in (1, 0)]
    y = adjusted_outcomes(data, fit)
    gamma_hat = float(fit.beta[2]) if fit.beta.size >= 3 else 0.0
    e = data.z - alpha - delta * data.d - gamma * data.c
    coves1, coves0 = (float(np.mean(y[sel])) for sel in sels)
    ebar1, ebar0 = (float(np.mean(e[sel])) for sel in sels)
    cbar1, cbar0 = (float(np.mean(data.c[sel])) for sel in sels)
    direct = coves1 - coves0
    decomposed = delta - (gamma_hat - gamma) * (cbar1 - cbar0) + (ebar1 - ebar0)
    return direct, decomposed
