"""Linear regression quantiles for small dense designs.

``fit_rq`` minimizes the check-function objective sum rho_tau(y - X beta)
with an exact simplex (Barrodale & Roberts 1974; Koenker & d'Orey 1987,
AS 229) on the equivalent linear program

    min  tau*1'u + (1-tau)*1'v   s.t.  y = X beta + u - v,  u, v >= 0.

It moves from vertex to vertex (p exactly interpolated observations)
and stops when no edge descends, so it ends on an exact optimum with no
gap tolerance.  ``rq_oracle`` is a brute-force minimizer used to
validate the solver on small instances: it enumerates every vertex.
``fit_group_quantiles`` solves the two-sample design without a
covariate, (1, d), from order statistics alone.

The optimum need not be unique.  In the two-sample design, when
tau*N_d is an integer for a group (tau = 0.75 with 8 or 5000
observations per group), the optimal set is a whole face of the LP, and
its vertices can disagree on which observations lie above the plane, so
on the shortfall counts, the statistic and the p-value.  All three fits
therefore return one canonical point: the lexicographic minimum over
the optimal face of the key, the coefficients in the column order 2,
..., p-1, then 0, then 1.  On (1, d, c) that is (gamma, q_0, q_1), with
q_d = beta_0 + beta_1*d group d's intercept; on (1, d) it is the lower
end of each group's optimal interval.  The minimum of a linear order
over a polytope is a vertex, and it depends on the data alone, not on
their row order.  Objectives within TIE_RTOL of each other count as tied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import ConvergenceError, DegenerateDesignError, OracleSizeError
from .orderstats import empirical_quantile

# Cap on the number of simplex pivots.
MAX_ITER = 200
ORACLE_MAX_N = 20
# Two objectives closer than TIE_RTOL * |objective| count as tied, and a
# residual within TIE_RTOL * max|y| lies on the plane.
TIE_RTOL = 1e-9
# Residuals and entries of XB within this of their rounding scale are zero.
_NOISE_RTOL = 1e-12


def rho_tau(u, tau: float):
    """Check function u * (tau - 1{u < 0}), elementwise.

    Parameters
    ----------
    u : float or array_like
        Residual value(s).
    tau : float
        Quantile level in (0, 1).

    Returns
    -------
    float or ndarray
        Nonnegative, piecewise-linear loss.
    """
    _check_tau(tau)
    u = np.asarray(u, dtype=float)
    out = u * (tau - (u < 0))
    return float(out) if out.ndim == 0 else out


def check_objective(residuals, tau: float) -> float:
    """Sum of the check-function losses over all residuals."""
    return float(np.sum(rho_tau(residuals, tau)))


def _check_tau(tau: float) -> None:
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau must lie in (0, 1), got {tau}")


@dataclass
class RegressionData:
    """Responses and design matrix for one quantile-regression problem.

    Column order in the two-sample model is (intercept, treatment
    indicator, covariate), but any full-column-rank design is accepted.
    """

    y: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        self.y = np.ascontiguousarray(self.y, dtype=float)
        self.X = np.ascontiguousarray(self.X, dtype=float)
        if self.y.ndim != 1 or self.X.ndim != 2:
            raise ValueError("y must be 1-d and X 2-d")
        n, p = self.X.shape
        if self.y.shape[0] != n:
            raise ValueError("y and X disagree on the number of observations")
        if n < p:
            raise ValueError(f"need at least p={p} observations, got {n}")
        if not (np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.X))):
            raise ValueError("y and X must be finite")
        if np.linalg.matrix_rank(self.X) < p:
            raise DegenerateDesignError(
                "design matrix is numerically rank deficient"
            )

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass
class QuantileFit:
    """A fitted regression quantile.

    ``zero_tol`` is the scale-aware cutoff below which a residual counts
    as lying on the fitted quantile plane; ``zero_set`` lists those
    indices.  At an exact vertex solution at least p residuals are zero.
    """

    tau: float
    beta: np.ndarray
    residuals: np.ndarray
    objective: float
    zero_set: np.ndarray = field(repr=False)
    zero_tol: float

    def positive_mask(self) -> np.ndarray:
        """Boolean mask of residuals strictly above the zero tolerance."""
        return self.residuals > self.zero_tol

    def sign_counts(self) -> tuple[int, int]:
        """(#strictly negative, #nonpositive) under zero-tolerance classification.

        Optimality requires  #neg <= n*tau <= #nonpos.
        """
        n_neg = int(np.sum(self.residuals < -self.zero_tol))
        n_nonpos = int(np.sum(self.residuals <= self.zero_tol))
        return n_neg, n_nonpos


def _zero_tol(y: np.ndarray) -> float:
    """Scale-relative: multiplying y by any factor scales the cutoff too."""
    return TIE_RTOL * float(np.max(np.abs(y)))


def _make_fit(
    tau: float, beta: np.ndarray, y: np.ndarray, residuals: np.ndarray
) -> QuantileFit:
    ztol = _zero_tol(y)
    return QuantileFit(
        tau=tau,
        beta=beta,
        residuals=residuals,
        objective=check_objective(residuals, tau),
        zero_set=np.flatnonzero(np.abs(residuals) <= ztol),
        zero_tol=ztol,
    )


def _key_columns(p: int) -> list[int]:
    """Column order of the canonical key: 2, ..., p-1, then 0, then 1."""
    return [*range(2, p), *range(min(p, 2))]


def _enumerate_vertices(data: RegressionData, tau: float):
    """The canonical optimum over every vertex, or None when every
    p-subset of observations is singular.

    Vertices whose objective lies within TIE_RTOL (relative) of the least
    are tied; among them the key's lexicographic minimum wins.  Two values
    of a coefficient count as equal when their largest effects on a
    fitted value differ by at most TIE_RTOL times the larger of max|y|
    and the largest such effect among the tied; remaining ties, the same
    point from several bases, go to enumeration order.
    """
    y, X = data.y, data.X
    subsets = np.array(list(combinations(range(data.n), data.p)))
    mats = X[subsets]                      # (K, p, p)
    # Hadamard bound gives a scale for the singularity cutoff.
    hadamard = np.prod(np.linalg.norm(mats, axis=2), axis=1)
    ok = (np.abs(np.linalg.det(mats)) > _NOISE_RTOL * hadamard) & (hadamard > 0)
    if not np.any(ok):
        return None
    betas = np.linalg.solve(mats[ok], y[subsets[ok]][..., None])[..., 0]
    res = y[None, :] - betas @ X.T
    objs = np.sum(rho_tau(res, tau), axis=1)
    best = float(np.min(objs))
    tied = np.flatnonzero(objs <= best + TIE_RTOL * abs(best))
    weight = np.abs(X).max(axis=0)
    for j in _key_columns(data.p):
        v = betas[tied, j] * weight[j]
        tied = tied[v <= v.min() + TIE_RTOL * max(np.max(np.abs(y)), np.max(np.abs(v)))]
    return betas[tied[0]]


def rq_oracle(data: RegressionData, tau: float) -> QuantileFit:
    """Canonical regression quantile by enumerating all candidate vertices.

    Solves the p-point interpolation system for every nonsingular
    p-subset of observations and returns the key's lexicographic minimum
    over the optimal ones, the point ``fit_rq`` returns.  Guarded to
    n <= 20; intended as a correctness oracle, not a production path.
    """
    _check_tau(tau)
    if data.n > ORACLE_MAX_N:
        raise OracleSizeError(
            f"oracle enumeration limited to n <= {ORACLE_MAX_N}, got n = {data.n}"
        )
    beta = _enumerate_vertices(data, tau)
    if beta is None:
        raise DegenerateDesignError("no nonsingular p-subset of observations")
    return _make_fit(tau, beta, data.y, data.y - data.X @ beta)


def fit_group_quantiles(z, d, tau: float) -> QuantileFit:
    """Exact tau-th regression quantile of the two-sample design (1, d).

    ``z`` is the float array of outcomes and ``d`` the 0/1 treatment
    indicator, both groups nonempty.  Group d's fitted quantile q_d is
    its ceil(tau*N_d)-th order statistic, ``empirical_quantile``
    (Koenker 2005, §2.2), which also validates tau, so no LP is solved;
    beta = (q_0, q_1 - q_0) and the residuals are z - q_d.  When
    tau*N_d is an integer, every point of [z_(tau*N_d), z_(tau*N_d + 1)]
    is optimal, and q_d is its lower end.  The fit depends on the data
    only through each group's sorted values, so it does not depend on
    the row order.
    """
    treated = d == 1
    q1 = empirical_quantile(z[treated], tau)
    q0 = empirical_quantile(z[~treated], tau)
    beta = np.array([q0, q1 - q0])
    return _make_fit(tau, beta, z, z - np.where(treated, q1, q0))


def _start_basis(X: np.ndarray, y: np.ndarray, tau: float) -> np.ndarray:
    """p linearly independent rows near the tau-quantile plane of the data.

    The OLS fit shifted by the tau-quantile of its residuals ranks the
    rows by distance.  The nearest rows are taken greedily, each only if
    its component orthogonal to the rows already taken is at least 1e-6
    of the largest such component.
    """
    r = y - X @ np.linalg.lstsq(X, y, rcond=None)[0]
    order = np.argsort(np.abs(r - empirical_quantile(r, tau)), kind="stable")
    R = X[order]
    rows = []
    for _ in range(X.shape[1]):
        left = np.einsum("ij,ij->i", R, R)
        j = int(np.argmax(left >= _NOISE_RTOL * left.max()))
        rows.append(order[j])
        q = R[j] / np.sqrt(left[j])
        R = R - np.outer(R @ q, q)
    return np.array(rows)


def fit_rq(data: RegressionData, tau: float) -> QuantileFit:
    """Fit the tau-th linear regression quantile: the canonical optimum.

    An exact simplex (Barrodale & Roberts 1974; Koenker & d'Orey 1987).
    Its state is a basis h of p rows on the fitted plane and a side label
    for every other row, the sign of its residual; a row on the plane but
    outside the basis keeps its last label, which keeps degenerate
    vertices exact.  With B = X_h^-1, edge (k, s) moves beta along
    s * B e_k, taking basis row k below (s = +1) or above (s = -1) the
    plane; the slopes of all 2p edges come from one product w'XB.  Each
    pivot follows an edge to the minimum of the objective along it: the
    kinks where rows cross the plane are sorted by step length, ties by
    row index, and the step stops at the first kink where the slope,
    raised by |x_i' delta| at each kink, is no longer negative.  The rows
    passed change sides, and the row at that kink enters the basis.

    An edge is flat when its slope is within TIE_RTOL * sum |x_i' delta|
    of zero.  Once no edge descends, flat edges that lower the key (see
    the module docstring) are followed to their first kink, so the fit
    ends on the key's lexicographic minimum over the optimal face.
    After a zero-length step the entering edge is the improving one with
    the lowest row index (Bland's rule), which rules out cycling on
    degenerate vertices.  Residuals and entries of XB within _NOISE_RTOL
    of their rounding scale count as zero.  Beta is solved from the final
    basis rows in ascending index order.

    Raises
    ------
    DegenerateDesignError
        If the design is rank deficient (via RegressionData validation).
    ConvergenceError
        If the simplex exceeds MAX_ITER pivots, or, in rounding, finds
        no kink to stop at along an edge.
    """
    _check_tau(tau)
    y, X = data.y, data.X
    p = data.p
    weight = np.abs(X).max(axis=0)
    key = _key_columns(p)
    h = _start_basis(X, y, tau)
    up = None
    bland = False
    for _ in range(MAX_ITER):
        # Row i of A = X B holds x_i's coordinates in the basis rows.
        B = np.linalg.inv(X[h])
        A = X @ B
        yh = y[h]
        r = y - A @ yh
        if up is None:
            up = r > 0.0
        absA = np.abs(A)
        w = np.where(up, -tau, 1.0 - tau)
        w[h] = 0.0
        c = w @ A
        slope = np.concatenate((c + (1.0 - tau), tau - c))
        spread = TIE_RTOL * absA.sum(axis=0)
        flat_tol = np.concatenate((spread, spread))
        descend = slope < -flat_tol
        if bland or not descend.any():
            # Sign of each edge's move of the key: its leading entry, weighted
            # by the largest effect of the coefficient on a fitted value.
            V = (B * weight[:, None])[key]
            big = np.abs(V) > TIE_RTOL * np.abs(V).sum(axis=0)
            lead = V[np.argmax(big, axis=0), np.arange(p)]
            lower = np.concatenate((lead < 0.0, lead > 0.0))
            edges = np.flatnonzero(descend | ((slope <= flat_tol) & lower))
            if edges.size == 0:
                break
            e = int(edges[np.argmin(h[edges % p])])
        else:
            e = int(np.argmin(slope))
        k, s = e % p, 1.0 if e < p else -1.0

        a = s * A[:, k]
        a[h] = 0.0
        noise = _NOISE_RTOL * absA.sum(axis=1)
        cross = np.flatnonzero(np.where(up, a > noise, a < -noise))
        rc, ac = r[cross], a[cross]
        on_plane = np.abs(rc) <= _NOISE_RTOL * (np.abs(y[cross]) + absA[cross] @ np.abs(yh))
        t = np.where(on_plane, 0.0, np.maximum(rc / ac, 0.0))
        order = np.argsort(t, kind="stable")
        stop = np.flatnonzero(slope[e] + np.cumsum(np.abs(ac[order])) >= -flat_tol[e])
        if stop.size == 0:
            raise ConvergenceError("simplex found no kink to stop at along an edge")
        passed = cross[order[: stop[0]]]
        up[passed] = ~up[passed]
        up[h[k]] = s < 0.0
        h[k] = cross[order[stop[0]]]
        bland = t[order[stop[0]]] == 0.0
    else:
        raise ConvergenceError(f"simplex did not finish within MAX_ITER = {MAX_ITER} pivots")

    rows = np.sort(h)
    beta = np.linalg.solve(X[rows], y[rows])
    return _make_fit(tau, beta, y, y - X @ beta)
