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

import math
import sys
from dataclasses import dataclass, field

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

# Window for max|z| and max|c|.  Beyond it the squares the variances
# form overflow, or fall into the subnormal range and lose digits, and
# the tests refuse the data.  Inside it, a p-value of scaled data stayed
# within 6e-12 relative of the unscaled one, as at moderate scales
# (scenarios 2 and 3 at (50,50) and (5000,5000)).  check_scale lowers the
# upper end for groups of more than 67 observations.
OUTCOME_SCALE = (1e-150, 1e152)
_ROOT_FLOAT_MAX = math.sqrt(sys.float_info.max)


@dataclass
class Dataset:
    """Outcomes ``z``, binary treatment indicator ``d``, covariate ``c``.

    Validation splits the rows once: ``groups`` holds the (treated,
    control) boolean masks and ``n_treat``, ``n_control`` their sizes.
    Every layer reads these rather than comparing ``d`` again.  The
    dataset owns ``d`` and both masks and makes them read-only, so an
    in-place edit raises ``ValueError`` instead of leaving the split
    stale; ``z`` and ``c`` may be the caller's own arrays and stay as
    given.
    """

    z: np.ndarray
    d: np.ndarray
    c: np.ndarray
    groups: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    n_treat: int = field(init=False, repr=False, compare=False)
    n_control: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.z = np.ascontiguousarray(self.z, dtype=float)
        self.c = np.ascontiguousarray(self.c, dtype=float)
        d = np.asarray(self.d)
        if not (self.z.ndim == d.ndim == self.c.ndim == 1):
            raise DataError("z, d, c must be one-dimensional")
        if not (self.z.size == d.size == self.c.size):
            raise DataError("z, d, c must have equal length")
        if not (np.isfinite(self.z).all() and np.isfinite(self.c).all()):
            raise DataError("z and c must be finite")
        dv = np.asarray(d, dtype=float)
        self.groups = (dv == 1.0, dv == 0.0)
        self.n_treat = int(np.count_nonzero(self.groups[0]))
        self.n_control = int(np.count_nonzero(self.groups[1]))
        if self.n_treat + self.n_control != dv.size:
            raise DataError("treatment indicator d must contain only 0 or 1")
        self.d = dv.astype(int)
        if self.n_treat < 1 or self.n_control < 1:
            raise DataError("both treatment groups must be nonempty")
        for owned in (self.d, *self.groups):
            owned.flags.writeable = False


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
    """The columns (1, d, c), or (1, d) without the covariate."""
    X = np.empty((data.z.size, 3 if with_covariate else 2))
    X[:, 0] = 1.0
    X[:, 1] = data.d
    if with_covariate:
        X[:, 2] = data.c
    return X


def _gamma_hat(fit: QuantileFit) -> float:
    """The fitted covariate coefficient; 0 when the design has no covariate."""
    return float(fit.beta[2]) if fit.beta.size >= 3 else 0.0


def adjusted_outcomes(data: Dataset, fit: QuantileFit) -> np.ndarray:
    """Outcomes with the fitted covariate contribution removed: z - gamma_hat*c."""
    if fit.residuals.size != data.z.size:
        raise ValueError("fit does not match the dataset")
    return data.z - _gamma_hat(fit) * data.c


def _mean(x: np.ndarray) -> float:
    """np.mean(x): its own reduce, then the division by the count."""
    return float(x.sum() / x.size)


def _shortfall_rows(pos: np.ndarray, in_group: np.ndarray, group: int) -> np.ndarray:
    """Row indices, ascending, of the group's residuals strictly above the
    plane, from the positive mask and the group's mask; EmptyShortfallError
    when there are none.  A gather by these indices (``take``) holds the
    same values in the same order as one by the mask, and so sums to the
    same bits."""
    rows = (pos & in_group).nonzero()[0]
    if rows.size == 0:
        raise EmptyShortfallError(
            f"no observation above the fitted quantile plane in group {group} "
            "(tau too high or data degenerate)"
        )
    return rows


def _shortfall_sets(fit: QuantileFit, groups) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of the (treated, control) shortfall sets, from the
    (treated, control) group masks; an empty treated set is reported first."""
    pos = fit.positive_mask()
    return _shortfall_rows(pos, groups[0], 1), _shortfall_rows(pos, groups[1], 0)


def coves_stat(data: Dataset, fit: QuantileFit, group: int) -> float:
    """Mean adjusted outcome over the group's strictly positive residuals.

    Raises EmptyShortfallError when the group has none.
    """
    if group not in (0, 1):
        raise ValueError("group must be 0 or 1")
    rows = _shortfall_rows(fit.positive_mask(), data.groups[0 if group == 1 else 1], group)
    return _mean(adjusted_outcomes(data, fit).take(rows))


def group_centred(x: np.ndarray, groups) -> tuple[np.ndarray, float, float]:
    """x less its mean within each group, and the (treated, control) means."""
    m1, m0 = (_mean(x[in_g]) for in_g in groups)
    return x - np.where(groups[0], m1, m0), m1, m0


def orthogonalized_covariate(data: Dataset) -> np.ndarray:
    """Covariate centered within each treatment group; sums to zero per group."""
    return group_centred(data.c, data.groups)[0]


def _tail_variation(r: np.ndarray, n_group: int) -> float:
    """V_d = sum of squared positive residuals minus N_d^-1 (their sum)^2.

    With s_d positive residuals r, V_d / s_d^2 equals
    [var(r) + (1 - s_d/N_d) mean(r)^2] / s_d: the plug-in, over the s_d
    points the statistic averages, of the influence-function variance
    [Var(Y | Y > q) + tau (ES - q)^2] / ((1 - tau) N_d) of a shortfall.
    """
    return float((r * r).sum() - r.sum() ** 2 / n_group)


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
    tau enters only the covariate-adjustment term.  When u_f**-2 is not
    a normal float, that term would lose its digits, vanish without
    notice or overflow, so NumericalError is raised instead.
    """
    if u_f <= 0.0:
        raise DegenerateDensityError(
            f"density-weighted curvature sum must be positive, got {u_f}"
        )
    try:
        inv_sq = float(u_f) ** -2
    except OverflowError:
        inv_sq = math.inf
    if not sys.float_info.min <= inv_sq < math.inf:
        raise NumericalError(
            f"density-weighted curvature sum u_f = {u_f:.3g} is out of range: "
            f"u_f**-2 = {inv_sq:.3g} is not a normal float; rescale z or c"
        )
    return _tail_term(v1, v0, s1, s0) + tau * (1.0 - tau) * (
        cbar1 - cbar0
    ) ** 2 * inv_sq * cstar_sumsq


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


def check_alpha(alpha: float) -> None:
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")


def check_scale(data: Dataset) -> None:
    """NumericalError when max|z| or max|c| is nonzero and outside the window.

    The window is OUTCOME_SCALE, with its upper end lowered where the
    groups are large: the largest square a report forms is a group's
    (sum of its residuals above the plane)^2 in V_d, at most
    (N_d * 2 * max|z|)^2, and it must stay below the largest float.
    """
    lo = OUTCOME_SCALE[0]
    hi = min(OUTCOME_SCALE[1], _ROOT_FLOAT_MAX / (2 * max(data.n_treat, data.n_control)))
    for name, label, x in (("outcome", "z", data.z), ("covariate", "c", data.c)):
        top = float(np.abs(x).max())
        if top > hi or 0.0 < top < lo:
            raise NumericalError(
                f"{name} scale max|{label}| = {top:.3g} lies outside "
                f"[{lo:.3g}, {hi:.3g}]; rescale {label}"
            )


def run_coves(data: Dataset, tau: float, side: str = "two-sided") -> CovesReport:
    """Covariate-adjusted expected-shortfall test at quantile level tau."""
    return _shortfall_test(data, tau, side, "coves")


def run_es(data: Dataset, tau: float, side: str = "two-sided") -> CovesReport:
    """Unadjusted expected-shortfall test: covariate dropped from the design.

    The fit of the design (1, d) is ``fit_group_quantiles``, the fit
    ``fit_rq`` returns there, from each group's order statistics; no LP
    is solved.  Where tau*N_d is an integer, or within fit_rq's flat-edge
    window of one, the optimum is an interval, and the fit takes its
    lower end, so the report does not depend on the row order of the
    data beyond the rounding of its sums.
    """
    return _shortfall_test(data, tau, side, "es")


def _shortfall_test(data: Dataset, tau: float, side: str, method: str) -> CovesReport:
    """Fit, shortfall summaries, variance and p-value; the covariate enters
    the design only for method 'coves'."""
    check_side(side)
    check_scale(data)
    adjust = method == "coves"
    if adjust:
        fit = fit_rq(RegressionData(data.z, design_matrix(data)), tau)
    else:
        fit = fit_group_quantiles(data.z, data.groups, tau)
    # Each pair runs (treatment d=1, control d=0).  Both shortfall sets
    # are checked before either density, so an empty shortfall set is
    # reported first.
    sets = _shortfall_sets(fit, data.groups)
    s = tuple(rows.size for rows in sets)
    res = fit.residuals
    y = adjusted_outcomes(data, fit)
    coves = tuple(_mean(y.take(rows)) for rows in sets)
    cbar = tuple(_mean(data.c.take(rows)) for rows in sets)
    v = tuple(_tail_variation(res.take(rows), n) for rows, n in zip(sets, (data.n_treat, data.n_control)))
    cstar = orthogonalized_covariate(data)
    cstar_sq = cstar * cstar
    cstar_sumsq = float(cstar_sq.sum())

    if adjust:
        f1, f0 = (
            group_density_at_zero(res[in_g]) * float(cstar_sq[in_g].sum())
            for in_g in data.groups
        )
        u_f = f1 + f0
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
    sets = _shortfall_sets(fit, data.groups)
    y = adjusted_outcomes(data, fit)
    e = data.z - alpha - delta * data.d - gamma * data.c
    coves1, coves0 = (_mean(y.take(rows)) for rows in sets)
    ebar1, ebar0 = (_mean(e.take(rows)) for rows in sets)
    cbar1, cbar0 = (_mean(data.c.take(rows)) for rows in sets)
    direct = coves1 - coves0
    decomposed = delta - (_gamma_hat(fit) - gamma) * (cbar1 - cbar0) + (ebar1 - ebar0)
    return direct, decomposed
