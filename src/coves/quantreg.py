"""Linear regression quantiles for small dense designs.

``fit_rq`` minimizes the check-function objective via a primal-dual
interior-point iteration on the equivalent linear program

    min  tau*1'u + (1-tau)*1'v   s.t.  y = X beta + u - v,  u, v >= 0,

followed by a cleanup step that polishes the solution onto a vertex
(a subset of p exactly interpolated observations).  ``rq_oracle`` is a
brute-force global minimizer used to validate the solver on small
instances: an optimal vertex always exists, so enumerating all p-subsets
of observations and solving the interpolation system for each one finds
an exact optimum.

The optimum need not be unique.  In the two-sample design, when
tau*N_d is an integer for a group (tau = 0.75 with 8 or 5000
observations per group), the optimal set is a whole face of the LP, and
its vertices can disagree on which observations lie above the plane.
Which point of the face ``fit_rq`` returns, and so the shortfall counts,
the statistic and the p-value built on it, is fixed only by the path of
the interior-point iterates; no tie rule picks it.  A change to the
solver must therefore keep every iterate bit-identical, or it changes
reported results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import ConvergenceError, DegenerateDesignError, OracleSizeError

MAX_ITER = 200
GAP_RTOL = 1e-10
ORACLE_MAX_N = 20

# Fraction-to-boundary damping for interior-point steps.
_STEP_DAMP = 0.9995


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
    return 1e-9 * (1.0 + float(np.max(np.abs(y))))


def _objective(residuals: np.ndarray, tau: float) -> float:
    """check_objective for a float array and a validated tau."""
    return float(np.sum(residuals * (tau - (residuals < 0))))


def _make_fit(data: RegressionData, tau: float, beta: np.ndarray) -> QuantileFit:
    residuals = data.y - data.X @ beta
    ztol = _zero_tol(data.y)
    return QuantileFit(
        tau=tau,
        beta=beta,
        residuals=residuals,
        objective=_objective(residuals, tau),
        zero_set=np.flatnonzero(np.abs(residuals) <= ztol),
        zero_tol=ztol,
    )


@lru_cache(maxsize=64)
def _subsets(k: int, p: int) -> np.ndarray:
    """Read-only (C(k, p), p) table of the p-subsets of range(k), in
    itertools.combinations order."""
    table = np.array(list(combinations(range(k), p)), dtype=int)
    table.flags.writeable = False
    return table


def _enumerate_vertices(data: RegressionData, tau: float, subsets: np.ndarray):
    """Objective-minimizing exact-interpolation solution over the given p-subsets.

    Degenerate problems can tie many vertices at the optimal objective;
    among ties (1e-9 relative) the vertex interpolating the most
    observations wins, then enumeration order, so both the oracle and
    the polish step resolve ties identically.

    Returns (beta, objective) or None when every subset system is singular.
    """
    y, X = data.y, data.X
    mats = X[subsets]                      # (K, p, p)
    rhs = y[subsets]                       # (K, p)
    # Hadamard bound gives a scale for the singularity cutoff.
    row_norms = np.linalg.norm(mats, axis=2)
    hadamard = np.prod(row_norms, axis=1)
    dets = np.linalg.det(mats)
    ok = np.abs(dets) > 1e-12 * hadamard
    ok &= hadamard > 0
    if not np.any(ok):
        return None
    betas = np.linalg.solve(mats[ok], rhs[ok][..., None])[..., 0]   # (K', p)
    res = y[None, :] - betas @ X.T                    # (K', n)
    objs = np.sum(res * (tau - (res < 0)), axis=1)
    best_obj = float(np.min(objs))
    tied = np.flatnonzero(objs <= best_obj + 1e-9 * (1.0 + abs(best_obj)))
    zeros = np.sum(np.abs(res[tied]) <= _zero_tol(y), axis=1)
    pick = tied[int(np.argmax(zeros))]
    return betas[pick], float(objs[pick])


def rq_oracle(data: RegressionData, tau: float) -> QuantileFit:
    """Exact regression quantile by enumerating all candidate vertices.

    Solves the p-point interpolation system for every nonsingular
    p-subset of observations and returns a global minimizer of the
    check objective.  Guarded to n <= 20; intended as a correctness
    oracle, not a production path.
    """
    _check_tau(tau)
    if data.n > ORACLE_MAX_N:
        raise OracleSizeError(
            f"oracle enumeration limited to n <= {ORACLE_MAX_N}, got n = {data.n}"
        )
    found = _enumerate_vertices(data, tau, _subsets(data.n, data.p))
    if found is None:
        raise DegenerateDesignError("no nonsingular p-subset of observations")
    beta, _ = found
    return _make_fit(data, tau, beta)


def _solve_normal(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        sol = np.linalg.solve(M, rhs)
        if np.all(np.isfinite(sol)):
            return sol
    except np.linalg.LinAlgError:
        pass
    return np.linalg.lstsq(M, rhs, rcond=None)[0]


def _step_length(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha in [0, 1] with x + alpha*dx >= 0.

    The ratio x/max(-dx, 0) has no branch, so it is fast on any sign
    pattern of dx.  It is exactly the masked form kept as the fallback:
    where dx < 0, x/(-dx) is the same float as -(x/dx), and every other
    entry divides a positive slack by zero and gives +inf, which the cap
    at 1 absorbs.  A slack that is zero, negative or NaN, or a NaN step,
    makes the minimum NaN or -inf; only then does the masked form run.
    (Were max(-0.0, 0.0) to keep the sign of -0.0, its -inf would only
    send the call to the fallback.)  The caller suppresses numpy's divide and invalid warnings.
    """
    alpha = float((x / np.maximum(-dx, 0.0)).min(initial=1.0))
    if not alpha > -np.inf:
        alpha = -float(np.where(dx < 0, x / dx, -1.0).max(initial=-1.0))
    return alpha


def fit_rq(data: RegressionData, tau: float) -> QuantileFit:
    """Fit the tau-th linear regression quantile.

    Runs a Mehrotra-style predictor-corrector interior-point iteration
    on the LP formulation (primal and dual kept exactly feasible, so
    only complementarity is driven to zero), then polishes the result
    to an exactly interpolating vertex whenever that does not worsen
    the objective.

    The primal slacks are kept stacked as U = [u; v] and the dual
    slacks as W = [w; q] = [tau - d; (1 - tau) + d], so each update of
    a pair is one array operation.

    Raises
    ------
    DegenerateDesignError
        If the design is rank deficient (via RegressionData validation).
    ConvergenceError
        If the relative duality gap fails to reach tolerance within the
        iteration cap, or a dual slack rounds to zero before it does;
        carries the last gap.
    """
    _check_tau(tau)
    y, X = data.y, data.X
    n = data.n
    neg_XT = -X.T
    base = np.array([[tau], [1.0 - tau]])
    # W = base + sgn*d, so a change dd of d moves W by sgn*dd.
    sgn = np.array([[-1.0], [1.0]])

    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    r = y - X @ beta
    pad = 1.0 + float(np.mean(np.abs(r)))
    U = np.maximum(np.array([r, -r]), 0.0) + pad
    d = np.zeros(n)

    converged = False
    rel_gap = np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_ITER):
            W = base + sgn * d
            gap = float(U[0] @ W[0] + U[1] @ W[1])
            sum_u, sum_v = U.sum(axis=1)
            lp_obj = tau * float(sum_u) + (1.0 - tau) * float(sum_v)
            rel_gap = gap / (1.0 + abs(lp_obj))
            if rel_gap <= GAP_RTOL:
                converged = True
                break

            mu = gap / (2.0 * n)
            UW = U / W
            theta = UW[0] + UW[1]
            if not np.isfinite(theta).all():
                # A dual slack rounded to zero; every later iterate would be NaN.
                raise ConvergenceError(
                    "interior-point iteration broke down: a dual slack reached zero "
                    f"(relative duality gap {rel_gap:.3e})",
                    gap=rel_gap,
                )
            itheta = 1.0 / theta

            # Predictor (affine scaling) direction.
            g_aff = U[1] - U[0]
            M = X.T @ (itheta[:, None] * X)
            dbeta_aff = _solve_normal(M, neg_XT @ (itheta * g_aff))
            dd_aff = -itheta * (X @ dbeta_aff + g_aff)
            dW_aff = sgn * dd_aff
            # Linearised complementarity: w*du + u*dw = -u*w per pair.
            dU_aff = -U - UW * dW_aff

            ap = _step_length(U, dU_aff)
            ad = _step_length(W, dW_aff)
            U_aff = U + ap * dU_aff
            W_aff = W + ad * dW_aff
            gap_aff = float(U_aff[0] @ W_aff[0] + U_aff[1] @ W_aff[1])
            sigma = min(max((max(gap_aff, 0.0) / gap) ** 3, 1e-10), 1.0 - 1e-10)

            # Corrector direction with Mehrotra's second-order term.
            smu = sigma * mu
            iW = 1.0 / W
            second = (dU_aff * dW_aff) / W
            g = smu * (iW[0] - iW[1]) - second[0] + second[1] - U[0] + U[1]
            dbeta = _solve_normal(M, neg_XT @ (itheta * g))
            dd = -itheta * (X @ dbeta + g)
            dW = sgn * dd
            dU = smu / W - U - second - UW * dW

            ap = _STEP_DAMP * _step_length(U, dU)
            ad = _STEP_DAMP * _step_length(W, dW)
            beta = beta + ap * dbeta
            U = U + ap * dU
            d = d + ad * dd

    if not converged:
        raise ConvergenceError(
            f"interior-point iteration exceeded {MAX_ITER} iterations "
            f"(relative duality gap {rel_gap:.3e})",
            gap=rel_gap,
        )

    return _polish_to_vertex(data, tau, beta)


def _nearest(a: np.ndarray, k: int) -> np.ndarray:
    """Ascending indices of the k smallest entries of a NaN-free array.

    The same set as np.argsort(a, kind="stable")[:k]: every entry below
    the k-th smallest value, plus the lowest-index entries equal to it.
    A partition finds that value in linear time; only when it is tied
    past the k-th place are the highest-index ties dropped.
    """
    kth = np.partition(a, k - 1)[k - 1]
    near = np.flatnonzero(a <= kth)
    if near.size > k:
        keep = a[near] < kth
        keep[np.flatnonzero(~keep)[: k - np.count_nonzero(keep)]] = True
        near = near[keep]
    return near


def _polish_to_vertex(
    data: RegressionData, tau: float, beta: np.ndarray
) -> QuantileFit:
    """Snap an interior-point solution onto the best nearby vertex.

    Candidate bases are the p-subsets of the p+3 observations with the
    smallest absolute residuals; the polished solution is kept only if
    its objective does not exceed the unpolished one.  ``_nearest``
    picks those points in linear time, and it picks the same set as a
    stable argsort of |r|, ties included, so the candidate bases, their
    order and hence the vertex kept are exactly what sorting would give.
    """
    r = data.y - data.X @ beta
    obj = _objective(r, tau)
    k = min(data.n, data.p + 3)
    near = _nearest(np.abs(r), k)
    found = _enumerate_vertices(data, tau, near[_subsets(k, data.p)])
    # Tolerance matches the tie-break window in _enumerate_vertices, so a
    # tie-preferred vertex a hair above the exact minimum is still kept.
    if found is not None and found[1] <= obj + 1e-9 * (1.0 + abs(obj)):
        return _make_fit(data, tau, found[0])
    return _make_fit(data, tau, beta)
