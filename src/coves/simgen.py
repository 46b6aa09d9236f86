"""Dataset generators for the power studies.

Two designs:

* A parametric normal model with a right-tail inflation of the control
  group's errors,

      Z = 5 + gamma*C + (1 + eta*1{e>0}*1{D=0}) * e,    e ~ N(0,1),

  under four covariate scenarios (no effect / common effect / group
  mean shift / group scale change).

* A targeted design driven by a pair of empirical distributions
  (outcome F, covariate G): each observation draws one uniform u and
  sets C = G^-1(u) and Z = F^-1(u), with the control group's outcome
  inflated above the 0.65 level by 8*(u-0.65)^(1/4).  The shared u
  couples covariate and outcome comonotonically and leaves the
  covariate law identical across groups.

All randomness flows through a counter-based generator feeding uniforms
into the inverse normal CDF, so streams are reproducible bit-for-bit
from an integer seed on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np
from scipy.special import ndtri

from .coves_test import Dataset
from .errors import DataError
from .orderstats import empirical_quantile

TAIL_KINK = 0.65
TAIL_SCALE = 8.0

_SCENARIO_TABLE = {
    # scenario: (gamma, control C (mean, sd), treatment C (mean, sd))
    1: (0.0, (2.5, 0.5), (2.5, 0.5)),
    2: (1.0, (2.5, 0.5), (2.5, 0.5)),
    3: (1.0, (2.5, 0.5), (3.0, 0.5)),
    4: (1.0, (2.5, 0.5), (2.5, 1.0)),
}


@dataclass
class EmpiricalDist:
    """A finite sample defining a distribution via its order statistics,
    sorted, every zero as +0.0."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.sort(np.asarray(self.values, dtype=float)) + 0.0
        if self.values.size == 0:
            raise DataError("empirical distribution must be nonempty")
        if not np.all(np.isfinite(self.values)):
            raise DataError("empirical distribution values must be finite")

    @classmethod
    def from_file(cls, path) -> "EmpiricalDist":
        """Plain text, one finite real per line, no header; a UTF-8
        byte-order mark is allowed."""
        vals = []
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text:
                    continue
                try:
                    value = float(text)
                except ValueError:
                    raise DataError(
                        f"{path}: line {lineno}: not a number: {text!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(
                        f"{path}: line {lineno}: empirical distribution "
                        f"values must be finite, got {text!r}"
                    )
                vals.append(value)
        if not vals:
            raise DataError(f"{path}: empirical distribution must be nonempty")
        return cls(np.asarray(vals))


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of the normal model under one covariate scenario.

    ``sample_scenario`` reads the scenario's covariate law from
    ``_SCENARIO_TABLE``.
    """

    scenario: int
    gamma: float
    eta: float

    def __post_init__(self):
        if self.scenario not in _SCENARIO_TABLE:
            raise ValueError(f"scenario must be 1..4, got {self.scenario}")
        for name in ("gamma", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.eta < 0.0:
            raise ValueError("eta must be nonnegative")

    @classmethod
    def from_scenario(cls, scenario: int, eta: float, gamma: float | None = None):
        """Fixed scenario-to-parameter mapping; gamma may be overridden."""
        if gamma is None:
            # __post_init__ refuses an unknown scenario before its NaN gamma.
            gamma = _SCENARIO_TABLE.get(scenario, (math.nan,))[0]
        return cls(scenario=scenario, gamma=float(gamma), eta=float(eta))


def _open_uniforms(seed: int, size: int) -> np.ndarray:
    """Uniforms strictly inside (0, 1) from a counter-based stream.

    Each is (k + 0.5) * 2^-53 for a 53-bit integer k, the top 53 bits of
    one raw 64-bit Philox word: the k that
    Generator.integers(0, 2**53, dtype=np.int64) draws, since Lemire's
    method, which it uses, maps a word x to (x * 2^53) >> 64 = x >> 11
    on a power-of-two range and never rejects one (Lemire, Fast random
    integer generation in an interval, ACM TOMACS, 2019).  k is read as
    int64, whose conversion to float is the fast one and, below 2^53,
    exact.
    """
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    raw = np.random.Philox(np.random.SeedSequence(seed)).random_raw(size)
    raw >>= 11
    u = raw.view(np.int64) + 0.5
    u *= 2.0**-53
    return u


def sample_scenario(spec: ScenarioSpec, m: int, n: int, seed: int) -> Dataset:
    """m treatment and n control observations from the normal model.

    c and z are built in place, one group slice at a time, with the
    products and sums of c = mean + sd*x and z = 5 + gamma*c + inflate*e
    in that order.  The inflation 1 + eta multiplies only the control
    group's positive errors, and not at all when eta is 0, where it is
    exactly 1.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    total = m + n
    u = _open_uniforms(seed, 2 * total)
    # c gets its own array: a view would keep the whole draw alive for as
    # long as the dataset, and at (5000, 5000) that extra live block made
    # the fits after it page-fault more, about 10% of a coves replication.
    c = ndtri(u[:total])
    e = ndtri(u[total:], out=u[total:])
    d = np.zeros(total, dtype=int)
    d[:m] = 1
    _, (mu0, sd0), (mu1, sd1) = _SCENARIO_TABLE[spec.scenario]
    for group, mu, sd in ((c[:m], mu1, sd1), (c[m:], mu0, sd0)):
        group *= sd
        group += mu
    if spec.eta != 0.0:
        tail = e[m:]
        np.multiply(tail, 1.0 + spec.eta, out=tail, where=tail > 0.0)
    z = spec.gamma * c
    z += 5.0
    z += e
    return Dataset(z=z, d=d, c=c)


def tail_shift(u):
    """Control-group outcome lift 8*(u-0.65)^(1/4) above the kink, 0 at and
    below it and at NaN: two correctly rounded square roots, whose bits,
    unlike np.power's, do not depend on numpy's CPU kernel."""
    out = TAIL_SCALE * np.sqrt(np.sqrt(np.fmax(np.asarray(u, dtype=float) - TAIL_KINK, 0.0)))
    return float(out) if out.ndim == 0 else out


def sample_targeted(
    f_dist: EmpiricalDist, g_dist: EmpiricalDist, m: int, n: int, seed: int
) -> Dataset:
    """Comonotonic draws from the empirical pair, control tail inflated."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    u = _open_uniforms(seed, m + n)
    d = np.zeros(m + n, dtype=int)
    d[:m] = 1
    c = empirical_quantile(g_dist.values, u)
    z = empirical_quantile(f_dist.values, u)
    z[m:] += tail_shift(u[m:])
    return Dataset(z=z, d=d, c=c)


def load_standin() -> tuple[EmpiricalDist, EmpiricalDist]:
    """The shipped stand-in (outcome, covariate) empirical pair."""
    pkg = resources.files("coves.data")
    f, g = (EmpiricalDist.from_file(pkg / f"standin_{x}.txt") for x in "fg")
    return f, g


@dataclass(frozen=True)
class ScenarioSampler:
    """Picklable (m, n, seed) -> Dataset generator for the Monte Carlo engine."""

    spec: ScenarioSpec

    def __call__(self, m: int, n: int, seed: int) -> Dataset:
        return sample_scenario(self.spec, m, n, seed)


@dataclass(eq=False)
class TargetedSampler:
    """Picklable (m, n, seed) -> Dataset generator for the targeted design."""

    f_dist: EmpiricalDist
    g_dist: EmpiricalDist

    def __call__(self, m: int, n: int, seed: int) -> Dataset:
        return sample_targeted(self.f_dist, self.g_dist, m, n, seed)
