"""Exception hierarchy.

Two families matter to callers: ``DataError`` for bad user input (the CLI
maps it to exit code 2) and ``NumericalError`` for configurations that are
formally valid but numerically or statistically degenerate (exit code 3).
"""


class CovesError(Exception):
    """Base class for all package errors."""


class DataError(CovesError):
    """Malformed or inconsistent input data."""


class NumericalError(CovesError):
    """Numerical or statistical degeneracy detected at run time."""


class DegenerateDesignError(NumericalError):
    """Design matrix is rank deficient (or residual variance is zero)."""


class ConvergenceError(NumericalError):
    """The simplex of ``quantreg.fit_rq`` exceeded its pivot cap, found
    no kink to stop at along an edge, or reached a singular basis."""


class OracleSizeError(CovesError):
    """Problem too large for the combinatorial oracle."""


class DegenerateSpreadError(NumericalError):
    """Sample has zero spread; no bandwidth can be formed."""


class EmptyShortfallError(NumericalError):
    """No observation lies above the fitted quantile plane in some group."""


class DegenerateDensityError(NumericalError):
    """Density-weighted curvature term is not positive."""


class UnstableConfigurationError(NumericalError):
    """Too many Monte Carlo replications failed for the estimate to be trusted."""


class SearchBoundsError(NumericalError):
    """Sample-size search bounds do not bracket the target power."""
