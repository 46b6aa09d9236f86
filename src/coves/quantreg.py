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
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def _make_fit(data: RegressionData, tau: float, beta: np.ndarray) -> QuantileFit:
    residuals = data.y - data.X @ beta
    ztol = _zero_tol(data.y)
    return QuantileFit(
        tau=tau,
        beta=beta,
        residuals=residuals,
        objective=check_objective(residuals, tau),
        zero_set=np.flatnonzero(np.abs(residuals) <= ztol),
        zero_tol=ztol,
    )


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
    subsets = np.array(list(combinations(range(data.n), data.p)), dtype=int)
    found = _enumerate_vertices(data, tau, subsets)
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


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with x + alpha*dx >= 0, capped at 1."""
    shrink = dx < 0
    if not np.any(shrink):
        return 1.0
    return min(1.0, float(np.min(-x[shrink] / dx[shrink])))


def fit_rq(data: RegressionData, tau: float) -> QuantileFit:
    """Fit the tau-th linear regression quantile.

    Runs a Mehrotra-style predictor-corrector interior-point iteration
    on the LP formulation (primal and dual kept exactly feasible, so
    only complementarity is driven to zero), then polishes the result
    to an exactly interpolating vertex whenever that does not worsen
    the objective.

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
    n, p = data.n, data.p

    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    r = y - X @ beta
    pad = 1.0 + float(np.mean(np.abs(r)))
    u = np.maximum(r, 0.0) + pad
    v = np.maximum(-r, 0.0) + pad
    d = np.zeros(n)

    converged = False
    rel_gap = np.inf
    for _ in range(MAX_ITER):
        w = tau - d
        q = (1.0 - tau) + d
        gap = float(u @ w + v @ q)
        lp_obj = tau * float(np.sum(u)) + (1.0 - tau) * float(np.sum(v))
        rel_gap = gap / (1.0 + abs(lp_obj))
        if rel_gap <= GAP_RTOL:
            converged = True
            break

        mu = gap / (2.0 * n)
        theta = u / w + v / q
        if not np.all(np.isfinite(theta)):
            # A dual slack rounded to zero; every later iterate would be NaN.
            raise ConvergenceError(
                "interior-point iteration broke down: a dual slack reached zero "
                f"(relative duality gap {rel_gap:.3e})",
                gap=rel_gap,
            )
        itheta = 1.0 / theta

        # Predictor (affine scaling) direction.
        g_aff = v - u
        M = X.T @ (itheta[:, None] * X)
        dbeta_aff = _solve_normal(M, -X.T @ (itheta * g_aff))
        dd_aff = -itheta * (X @ dbeta_aff + g_aff)
        du_aff = -u + (u / w) * dd_aff
        dv_aff = -v - (v / q) * dd_aff

        ap = min(_max_step(u, du_aff), _max_step(v, dv_aff))
        ad = min(_max_step(w, -dd_aff), _max_step(q, dd_aff))
        gap_aff = float(
            (u + ap * du_aff) @ (w - ad * dd_aff)
            + (v + ap * dv_aff) @ (q + ad * dd_aff)
        )
        sigma = min(max((max(gap_aff, 0.0) / gap) ** 3, 1e-10), 1.0 - 1e-10)

        # Corrector direction with Mehrotra's second-order term.
        smu = sigma * mu
        g = (
            smu * (1.0 / w - 1.0 / q)
            + (du_aff * dd_aff) / w
            + (dv_aff * dd_aff) / q
            - u
            + v
        )
        dbeta = _solve_normal(M, -X.T @ (itheta * g))
        dd = -itheta * (X @ dbeta + g)
        du = smu / w - u + (du_aff * dd_aff) / w + (u / w) * dd
        dv = smu / q - v - (dv_aff * dd_aff) / q - (v / q) * dd

        ap = _STEP_DAMP * min(_max_step(u, du), _max_step(v, dv))
        ad = _STEP_DAMP * min(_max_step(w, -dd), _max_step(q, dd))
        beta = beta + ap * dbeta
        u = u + ap * du
        v = v + ap * dv
        d = d + ad * dd

    if not converged:
        raise ConvergenceError(
            f"interior-point iteration exceeded {MAX_ITER} iterations "
            f"(relative duality gap {rel_gap:.3e})",
            gap=rel_gap,
        )

    return _polish_to_vertex(data, tau, beta)


def _polish_to_vertex(
    data: RegressionData, tau: float, beta: np.ndarray
) -> QuantileFit:
    """Snap an interior-point solution onto the best nearby vertex.

    Candidate bases are the p-subsets of the p+3 observations with the
    smallest absolute residuals; the polished solution is kept only if
    its objective does not exceed the unpolished one.
    """
    ipm_fit = _make_fit(data, tau, beta)
    order = np.argsort(np.abs(ipm_fit.residuals), kind="stable")
    k = min(data.n, data.p + 3)
    subsets = np.array(list(combinations(sorted(order[:k]), data.p)), dtype=int)
    found = _enumerate_vertices(data, tau, subsets)
    if found is None:
        return ipm_fit
    vbeta, vobj = found
    # Tolerance matches the tie-break window in _enumerate_vertices, so a
    # tie-preferred vertex a hair above the exact minimum is still kept.
    if vobj <= ipm_fit.objective + 1e-9 * (1.0 + abs(ipm_fit.objective)):
        return _make_fit(data, tau, vbeta)
    return ipm_fit
