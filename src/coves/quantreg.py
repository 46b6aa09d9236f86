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

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import ConvergenceError, DegenerateDesignError, NumericalError, OracleSizeError

# Cap on the number of simplex pivots.
MAX_ITER = 200
ORACLE_MAX_N = 20
# Two objectives closer than TIE_RTOL * |objective| count as tied, and a
# residual within TIE_RTOL * max|y| lies on the plane.
TIE_RTOL = 1e-9
# Residuals and entries of XB within this of their rounding scale are zero.
_NOISE_RTOL = 1e-12
# The on-plane bound's absolute floor, above the subnormal rounding of
# |A_i| @ |yh| (see _plane_cap).
_BOUND_FLOOR = float(np.finfo(float).tiny)
# Kinks sorted at first along an edge step.  Over 20 fits of scenario 3
# at (5000,5000), 132 pivots crossed about 4100 kinks each and stopped at
# kink 4 in the median and 19 at the 90th percentile; one went past 64.
KINK_WINDOW = 64
# fit_rq refuses tau within this of 0 or 1 on any design but an
# intercept alone or an intercept and one 0/1 indicator, (1) and (1, d).
# Elsewhere the flat-edge window, TIE_RTOL * sum|x_i' delta|, can be wider
# than an ascending edge's slope, which shrinks with min(tau, 1 - tau), so
# the walk can follow that edge and stop off the optimum.  Against
# rq_oracle on up to 16 000 random (1, c) and (1, d, c) designs of 5-20
# rows, fits went wrong at levels from 1e-9 up to 2e-5 and from 1 - 2e-5
# up to 1 - 1e-9 (at 1e-5, one in a few thousand), and on none of 15 000
# designs at 5e-5, 1e-4, 1 - 1e-4 or 1 - 5e-5; nor at 1e-4 or 1 - 1e-4 on
# (1, d, c) with n = 100, 1000 and 10 000 against an LP solver.  Designs
# of 0/1 entries alone are not safe: (1, d, b) with a binary b and
# (b1, b2) went wrong at 1e-9 and 1 - 1e-9.  On (1) and (1, d), checked
# against the oracle and the groups' order statistics up to n = 10 000,
# no fit went wrong at any level.
EXTREME_TAU = 1e-4
# The start basis runs its pass on the START_WINDOW rows nearest the
# pilot plane (see _nearest_start) on designs of START_MIN_N rows or more.
# Around 1000 rows the two cost the same; at 200 rows the prefix took a
# third longer than the full pass, at 10 000 under a third of its time.
START_WINDOW = 64
START_MIN_N = 1024


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


def _check_tau(tau: float) -> None:
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau must lie in (0, 1), got {tau}")


@dataclass
class RegressionData:
    """Responses and design matrix for one quantile-regression problem.

    Column order in the two-sample model is (intercept, treatment
    indicator, covariate), but any full-column-rank design is accepted.
    The rank comes from np.linalg.lstsq(X, y, rcond=None), an SVD with
    np.linalg.matrix_rank's tolerance s_max * max(n, p) * eps; its
    coefficients are kept as ``ols``, the start basis's OLS pilot, so a
    fit factorises X once.
    """

    y: np.ndarray
    X: np.ndarray
    ols: np.ndarray = field(init=False, repr=False, compare=False)

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
        if not (np.isfinite(self.y).all() and np.isfinite(self.X).all()):
            raise ValueError("y and X must be finite")
        self.ols, _, rank, _ = np.linalg.lstsq(self.X, self.y, rcond=None)
        if rank < p:
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


def _make_fit(
    tau: float, beta: np.ndarray, y: np.ndarray, residuals: np.ndarray
) -> QuantileFit:
    # The zero tolerance is scale-relative: scaling y scales it too.  The
    # objective is sum(rho_tau(residuals, tau)), without its checks.
    ztol = TIE_RTOL * float(np.abs(y).max())
    return QuantileFit(
        tau=tau,
        beta=beta,
        residuals=residuals,
        objective=float((residuals * (tau - (residuals < 0))).sum()),
        zero_set=(np.abs(residuals) <= ztol).nonzero()[0],
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


def fit_group_quantiles(z, groups, tau: float) -> QuantileFit:
    """Exact tau-th regression quantile of the two-sample design (1, d).

    ``z`` is the float array of outcomes and ``groups`` the (treated,
    control) boolean masks of its rows, as ``Dataset.groups`` holds
    them: disjoint, covering every row, both nonempty.  This is the fit
    ``fit_rq`` returns on (1, d), from order statistics alone, so no LP
    is solved.  Group d's fitted quantile q_d is its k_d-th order
    statistic, with k_d = max(1, ceil(tau*N_d - TIE_RTOL*N_d)): the lower
    end of the optimal interval under ``fit_rq``'s flat-edge window,
    TIE_RTOL*N_d on this design, so a tau*N_d at or a hair above an
    integer k in floats (0.55*100) takes the k-th.  beta = (q_0, q_1 - q_0)
    and the residuals are z - q_d.  The fit depends on the data only
    through each group's sorted values, so not on their row order.
    """
    _check_tau(tau)
    q1, q0 = (_lower_end(z[in_g], tau) for in_g in groups)
    beta = np.array([q0, q1 - q0])
    return _make_fit(tau, beta, z, z - np.where(groups[0], q1, q0))


def _lower_end(values: np.ndarray, tau: float) -> float:
    """The max(1, ceil(tau*n - TIE_RTOL*n))-th smallest of n values, as
    np.sort(values) holds it, found by np.partition.

    The two agree on the value.  Where it is a zero tied with zeros of
    the other sign, they can disagree on its sign, since they order the
    tied entries by different paths; the sign reaches beta and the
    residuals of -0.0 outcomes, so a zero is read from the full sort.
    """
    n = values.size
    k = max(1, int(np.ceil(tau * n - TIE_RTOL * n)))
    q = np.partition(values, k - 1)[k - 1]
    if q == 0.0:
        q = np.sort(values)[k - 1]
    return float(q)


def _col_absmax(X: np.ndarray) -> np.ndarray:
    """max|x| of each column: np.abs(X).max(axis=0), one column at a time."""
    return np.array([np.abs(col).max() for col in X.T])


def _start_basis(data: RegressionData, tau: float, weight: np.ndarray) -> np.ndarray:
    """p linearly independent rows near the tau-quantile plane of the data.

    The OLS fit ``data.ols``, from the lstsq that decided the rank in
    ``RegressionData``, shifted by the tau-quantile of its residuals
    (their ceil(tau*n)-th order statistic, as ``empirical_quantile``
    takes it, found by np.partition: the value a full sort puts there,
    up to the sign of a zero, which the distance's absolute value drops)
    gives each row a distance.  Rows are taken greedily: at each step
    the row with the least (distance, row index) among those whose component
    orthogonal to the rows already taken is at least 1e-6 of the largest
    such component, found by one argmin over the distances with the
    failing rows set to infinity, so no sort of all n distances is
    needed.  The rows are divided by ``weight``, each column's max|x| as
    ``fit_rq`` measured it, first, so a column far smaller than the
    others (a covariate of order 1e-10 beside the intercept) is not lost
    below the rounding residue of a row taken.

    From START_MIN_N rows on, the pass first runs on the nearest rows
    alone (``_nearest_start``), which returns the same rows or None; on
    None the pass runs over all rows, and so it does where a distance is
    NaN, since the argmin takes a NaN first and no prefix holds one.
    """
    X = data.X
    r = data.y - X @ data.ols
    k = math.ceil(tau * r.size) - 1
    dist = np.abs(r - np.partition(r, k)[k])
    if r.size >= START_MIN_N and not np.isnan(dist).any():
        rows = _nearest_start(X, dist, weight)
        if rows is not None:
            return rows
    return _full_start(X / weight, dist)


def _full_start(R: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """The greedy pass of ``_start_basis`` over every row of the scaled
    design R, which it overwrites."""
    rows = []
    for step in range(R.shape[1]):
        left = np.einsum("ij,ij->i", R, R)
        passing = left >= _NOISE_RTOL * left.max()
        j = int(np.where(passing, dist, np.inf).argmin())
        if not passing[j]:
            # Every passing distance is infinite: the first passing row.
            j = int(passing.argmax())
        rows.append(j)
        if step + 1 < R.shape[1]:
            _project_out(R, j, left[j])
    return np.array(rows)


def _project_out(R: np.ndarray, j: int, length2) -> None:
    """Subtract from every row of R, in place, its component along row j,
    whose squared length is length2."""
    q = R[j] / np.sqrt(length2)
    Rq = R @ q
    # Column by column: the same products and differences as
    # R - np.outer(Rq, q), without a length-p inner loop.
    for col in range(R.shape[1]):
        R[:, col] -= Rq * q[col]


def _stable_head(values: np.ndarray, window: int) -> np.ndarray:
    """The head of values.argsort(kind="stable") that holds the ``window``
    least values and every value tied with the largest of them; all of it
    when values.size <= window.

    np.partition finds the cut and a stable sort orders the entries at or
    below it, taken in index order.  Every other entry exceeds the cut,
    so it comes after all of them in the full stable order: these are
    that order's first entries, in its order.
    """
    if values.size <= window:
        return values.argsort(kind="stable")
    cut = np.partition(values, window - 1)[window - 1]
    head = (values <= cut).nonzero()[0]
    return head[values[head].argsort(kind="stable")]


def _nearest_start(X: np.ndarray, dist: np.ndarray, weight: np.ndarray):
    """``_full_start``'s rows, found from the rows nearest the plane, or
    None when that cannot be shown.

    The prefix, ``_stable_head(dist, START_WINDOW)``, is the head of the
    rows' (distance, row index) order.  A row's values in the pass (its scaled row,
    then each projection) depend on that row and the rows taken alone,
    so on the prefix they are the full pass's values, up to rounding:
    a BLAS kernel or einsum may round a row's length-p dot product
    differently in arrays of other lengths.  So at each step

    - a prefix row is skipped only if its squared length ``left`` is
      below 1e-12 of a lower bound on the full pass's largest, the
      prefix's largest less its slack (so it fails there too);
    - the first row not skipped is taken only if it clears 1e-12 of an
      upper bound on the full pass's largest (so it passes there, and
      it is the least passing row in the full order); the bound needs no
      pass over the rows: R = X / weight has every |R_ij| <= 1, so
      every ``left`` is at most p, and each projection adds at most a
      relative 2.2*g + 8u to it, with u = 2^-53 and g = 1.01*p*u;
    - otherwise the answer is left to the full pass (None).

    The slack bounds the gap between a row's ``left`` on the prefix and
    on all rows.  With D a bound on the gap between the two computed
    rows (0 at first, as X / weight is elementwise), S the bound on
    every row's length and l, e the taken row's ``left`` and slack: the
    slack is D*(2.1*sqrt(left) + 1.1*D) + 2.1*g*left, since two squared
    lengths differ by at most the gap times their sum and each
    ``left`` rounds by at most g of itself; q = R_j / sqrt(l) then
    differs by at most dq = D/sqrt(l - e) + 0.51*sqrt(l)*e/(l - e)^1.5
    + 6u, and each projected row by at most
    D' = 2.03*D + 2.03*S*dq + (2.1*g + 6.2*u)*S.  The constants round up
    those of a dot product's bound, g of the sum of its terms' sizes in
    any order of addition, with or without fused multiply-adds, and of
    each elementwise rounding.  1e-300 in each slack covers the absolute
    rounding of subnormal values; each threshold is widened by 1e-9
    relative, far more than the few roundings of its own evaluation.
    """
    near = _stable_head(dist, START_WINDOW)
    R = X[near] / weight
    p = R.shape[1]
    u = 2.0**-53
    g = 1.01 * p * u
    gap, size2 = 0.0, float(p)
    rows = []
    for step in range(p):
        left = np.einsum("ij,ij->i", R, R)
        slack = gap * (2.1 * np.sqrt(left) + 1.1 * gap) + (2.1 * g * left + 1e-300)
        skipped = left + slack < _NOISE_RTOL * (left - slack).max() * (1.0 - 1e-9)
        j = int(skipped.argmin())
        l, e = float(left[j]), float(slack[j])
        if skipped[j] or l - e < _NOISE_RTOL * size2 * (1.0 + 1e-9):
            return None
        rows.append(int(near[j]))
        if step + 1 < p:
            _project_out(R, j, left[j])
            size = math.sqrt(size2)
            dq = gap / math.sqrt(l - e) + 0.51 * math.sqrt(l) * e / (l - e) ** 1.5 + 6.0 * u
            gap = 2.03 * gap + 2.03 * size * dq + (2.1 * g + 6.2 * u) * size + 1e-300
            size2 *= 1.0 + 2.2 * g + 8.0 * u
    return np.array(rows)


def _col_sums(absA: np.ndarray) -> np.ndarray:
    """Column sums of the nonnegative (n, p) array absA, added in row
    order: the last row of np.add.accumulate(absA, axis=0), bit for bit.

    einsum's loop adds one row after another into the p sums, without
    numpy's length-p inner loops; a single column it sums pairwise, so
    p = 1 takes the running sum.
    """
    if absA.shape[1] == 1:
        return np.add.accumulate(absA[:, 0])[-1:]
    return np.einsum("ij->j", absA)


def _plane_cap(ytop, colsum, yh, n):
    """An upper bound, over every row i, on _on_plane's right-hand side
    _NOISE_RTOL * (|y_i| + |A_i| @ |yh|), from scalars alone.

    ``ytop`` is max|y| + _BOUND_FLOOR and ``colsum`` the column sums of
    |A| (``_col_sums``, as an array or a list); n is the number of rows.
    In exact arithmetic
    |A_i| @ |yh| <= sum_k |A_ik| * max|yh| <= sum(colsum) * max|yh|.  In
    floats the test's product rounds up by at most a relative p*2^-53,
    and the bound's rounds down by at most (n + p + 2)*2^-53 (colsum
    adds n rows), each besides a subnormal half-ulp per rounding.  The
    widening by 1e-9 + n*2^-50 exceeds both relative parts together
    (p <= n); where the product is so small that the half-ulps matter,
    it lies below _BOUND_FLOOR, which ytop carries.  So the sum under
    the bound is at least the sum in the test, and rounding to nearest
    is monotone, so it stays so once both are rounded (to infinity too)
    and multiplied by _NOISE_RTOL.
    """
    widen = 1.0 + 1e-9 + n * 2.0**-50
    return _NOISE_RTOL * (ytop + sum(colsum) * (max(map(abs, yh.tolist())) * widen))


def _on_plane(rc, rows, cap, y, absA, yh):
    """Mask of the rows on the fitted plane, or None when there are none.

    Row i = rows[j], with residual rc[j], lies on the plane when
    |r_i| <= _NOISE_RTOL * (|y_i| + |A_i| @ |yh|).  ``cap`` bounds that
    right-hand side over all rows (``_plane_cap``), so when every |r_i|
    exceeds it, no row is on the plane and the product is not formed.
    Otherwise the test runs as it is written, over all of rows: a product
    over some of them can round differently, row by row.  A NaN fails
    |r_i| > cap, so it too leaves the decision to the test.
    """
    absr = np.abs(rc)
    if np.count_nonzero(absr > cap) == rows.size:
        return None
    return absr <= _NOISE_RTOL * (np.abs(y[rows]) + absA.take(rows, axis=0) @ np.abs(yh))


def _kinks_to_stop(t, gain, slope, tol):
    """Positions of the kinks an edge step passes, then the one it stops at.

    The kinks run in ascending step length t, ties by position: the
    stable order of t.  The slope after kink j is slope plus the running
    sum of gain along that order, and the step stops at the first kink
    where it reaches tol.  Returns None when no kink gets there.

    Only the head of that order is sorted, ``_stable_head(t, window)``
    from a window of KINK_WINDOW, and the running sum is sequential, so
    the stop is the one the full sort finds.  When the stop lies beyond
    the head, the window doubles until the head is all of t.
    """
    window = KINK_WINDOW
    while True:
        order = _stable_head(t, window)
        stop = (slope + gain[order].cumsum() >= tol).nonzero()[0]
        if stop.size:
            return order[: stop[0] + 1]
        if order.size == t.size:
            return None
        window *= 2


def _first_min(values: list) -> int:
    """np.argmin of a list of floats: the first NaN, else the first least."""
    for i, v in enumerate(values):
        if v != v:
            return i
    return values.index(min(values))


def _key_edges(B, weight, key, h, slope, flat, descend) -> list:
    """The candidate edges in the order fit_rq tries them, once no edge
    descends or after a zero-length step.

    Edge e is a candidate when it descends, or when it is flat and lowers
    the key: its move of the key has a leading entry, weighted by the
    coefficient's largest effect on a fitted value, below zero.  V holds
    those weighted entries, B's rows times ``weight`` in key order; an
    entry leads its column when its size exceeds TIE_RTOL times the
    column's sum of sizes (the first entry when none does).  Candidates
    run by their basis row's index h[e % p], then by e (Bland's rule).
    """
    p = len(key)
    V = (B * weight[:, None])[key]
    big = np.abs(V) > TIE_RTOL * np.abs(V).sum(axis=0)
    lead = V[big.argmax(axis=0), range(p)].tolist()
    lower = [v < 0.0 for v in lead] + [v > 0.0 for v in lead]
    hl = h.tolist()
    edges = [e for e in range(2 * p) if descend[e] or (slope[e] <= flat[e] and lower[e])]
    return sorted(edges, key=lambda e: (hl[e % p], e))


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
    kinks where rows cross the plane are taken in order of step length,
    ties by row index, and the step stops at the first kink where the
    slope, raised by |x_i' delta| at each kink, is no longer negative.
    The rows passed change sides, and the row at that kink enters the
    basis.  Only the head of that order is sorted (``_stable_head``): the
    KINK_WINDOW shortest steps, with every step tied with the longest of
    them, and the window doubles while the stop lies beyond it, so a
    pivot at large n sorts a few dozen kinks, not thousands, and stops
    where the full sort would.  The other O(n) passes of a pivot keep
    their bits too: the column sums of |XB| behind the flat-edge window
    are added row after row in one einsum pass (``_col_sums``), and the
    exact test of which crossing rows lie on the plane runs only when a
    scalar bound on its right-hand side (``_plane_cap``) cannot rule them
    all out, which on continuous data it nearly always can.

    An edge is flat when its slope is within TIE_RTOL * sum |x_i' delta|
    of zero.  Once no edge descends, flat edges that lower the key (see
    the module docstring) are followed to their first kink, so the fit
    ends on the key's lexicographic minimum over the optimal face.  A
    flat edge with no kink ahead (every downward edge of (1, d) when tau
    is at most TIE_RTOL) is skipped, and the next candidate is tried.
    After a zero-length step the entering edge is the improving one with
    the lowest row index (Bland's rule), which rules out cycling on
    degenerate vertices.  Residuals and entries of XB within _NOISE_RTOL
    of their rounding scale count as zero.  Beta is solved from the final
    basis rows in ascending index order.

    The 2p slopes are priced in Python floats: w'XB and the column sums
    come out of numpy once per pivot as lists, and the slopes c + (1 -
    tau) and tau - c, the windows TIE_RTOL * colsum, the descend and flat
    tests and the entering edge are formed from them.  An IEEE double's
    +, -, * and comparison round the same in Python as in a float64
    ufunc, so every value and decision has the bits the array forms had;
    the entering edge is np.argmin's, the first least slope or the first
    NaN (``_first_min``).  The key block (``_key_edges``) forms its
    leading entries in arrays and filters and orders the candidates on
    those lists.  When no edge descends and none is flat, the candidate
    list is empty whether or not the last step had zero length, so the
    walk stops there without the key block, which thus runs only after a
    zero-length step or when some edge is flat.

    Raises
    ------
    DegenerateDesignError
        If the design is rank deficient (via RegressionData validation).
    ConvergenceError
        If the simplex exceeds MAX_ITER pivots, or, in rounding, finds
        no kink to stop at along a descending edge.
    NumericalError
        If min(tau, 1 - tau) < EXTREME_TAU and the design is not an
        intercept alone or an intercept and one 0/1 indicator.
    """
    _check_tau(tau)
    y, X = data.y, data.X
    p = data.p
    if min(tau, 1.0 - tau) < EXTREME_TAU and not (
        p <= 2 and (X[:, 0] == 1.0).all() and ((X == 0.0) | (X == 1.0)).all()
    ):
        raise NumericalError(
            f"tau = {tau!r} lies within {EXTREME_TAU:g} of 0 or 1 on a design "
            "other than (1) or (1, d), where the simplex's tie window "
            "exceeds the slopes of the objective; use a tau in "
            f"[{EXTREME_TAU:g}, 1 - {EXTREME_TAU:g}]"
        )
    weight = _col_absmax(X)
    key = _key_columns(p)
    h = _start_basis(data, tau, weight)
    side = None
    bland = False
    ytop = float(np.abs(y).max()) + _BOUND_FLOOR
    up = 1.0 - tau
    # The (n, p) arrays of every pivot are written into buffers made once
    # per fit: a fresh array of that size costs its page faults each time.
    A, absA = np.empty_like(X), np.empty_like(X)
    for _ in range(MAX_ITER):
        # Row i of A = X B holds x_i's coordinates in the basis rows.
        B = np.linalg.inv(X[h])
        np.matmul(X, B, out=A)
        yh = y[h]
        r = y - A @ yh
        if side is None:
            # side is +1 above the plane and -1 below; w is each row's
            # weight in the objective's slope, 0 on the basis rows.  Both
            # change only where a row changes sides or leaves the basis.
            above = r > 0.0
            side = np.where(above, 1.0, -1.0)
            w = np.where(above, -tau, up)
        w[h] = 0.0
        np.abs(A, out=absA)
        # The 2p slopes and their flat-edge windows, in Python floats:
        # each +, -, * and comparison rounds as the float64 ufunc would.
        c = (w @ A).tolist()
        colsum = _col_sums(absA).tolist()
        slope = [ci + up for ci in c] + [tau - ci for ci in c]
        flat = [TIE_RTOL * s for s in colsum] * 2
        if not any(map(float.__le__, slope, flat)):
            break  # no edge descends and none is flat: a strict optimum
        descend = [sl < -f for sl, f in zip(slope, flat)]
        if bland or not any(descend):
            edges = _key_edges(B, weight, key, h, slope, flat, descend)
        else:
            edges = [_first_min(slope)]
        cap = _plane_cap(ytop, colsum, yh, y.size)
        # Row sums of |A|, columns added in order 0 to p-1.
        noise = absA[:, 0].copy()
        for col in range(1, p):
            noise += absA[:, col]
        noise *= _NOISE_RTOL
        for e in edges:
            k, s = e % p, 1.0 if e < p else -1.0
            a = s * A[:, k]
            a[h] = 0.0
            cross = (a * side > noise).nonzero()[0]
            rc, ac = r[cross], a[cross]
            t = np.maximum(rc / ac, 0.0)
            on_plane = _on_plane(rc, cross, cap, y, absA, yh)
            if on_plane is not None:
                t[on_plane] = 0.0
            reached = _kinks_to_stop(t, np.abs(ac), slope[e], -flat[e])
            if reached is not None:
                break
            if descend[e]:
                raise ConvergenceError("simplex found no kink to stop at along an edge")
            # A flat edge with no kink ahead is a ray that ascends, if at
            # all, by less than the tie window (tau below TIE_RTOL on (1, d)):
            # it is not followed, and the next candidate edge is tried.
        else:
            break
        passed = cross[reached[:-1]]
        side[passed] = -side[passed]
        w[passed] = np.where(side[passed] > 0.0, -tau, up)
        side[h[k]] = -s
        w[h[k]] = -tau if s < 0.0 else up
        h[k] = cross[reached[-1]]
        bland = t[reached[-1]] == 0.0
    else:
        raise ConvergenceError(f"simplex did not finish within MAX_ITER = {MAX_ITER} pivots")

    rows = np.sort(h)
    beta = np.linalg.solve(X[rows], y[rows])
    return _make_fit(tau, beta, y, y - X @ beta)
