"""Monte Carlo power engine: rejection rates, power curves, sample-size search.

Every replication gets a seed derived from (master seed, size index,
replication index), so estimates are reproducible regardless of
execution order or worker count.  Replications whose test raises a
numerical-degeneracy error are counted in the estimate and tolerated
up to max(1, floor(MAX_ERROR_FRACTION * reps)) of them: 1% of the
budget, but at least one, so that a short run survives a single
failure.  A run in which every replication fails is never tolerated.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baselines import run_ttest
from .coves_test import check_alpha, run_coves, run_es
from .errors import NumericalError, SearchBoundsError, UnstableConfigurationError

TEST_IDS = ("coves", "es", "ttest")
ALLOCATIONS = ("equal", "two-to-one")

# Fraction of replications allowed to fail before the estimate is rejected.
MAX_ERROR_FRACTION = 0.01


@dataclass
class PowerEstimate:
    """Rejection proportion with its binomial Monte Carlo standard error."""

    rate: float
    reps: int
    mc_se: float
    seed: int
    test_id: str
    m: int
    n: int
    alpha: float
    errors: int = 0


@dataclass
class SampleSizeResult:
    m: int
    n: int
    allocation: str
    achieved_power: PowerEstimate
    target: float


def replication_seed(master_seed: int, size_index: int, rep: int) -> int:
    """Derived seed for one replication; independent of execution order."""
    ss = np.random.SeedSequence((int(master_seed), int(size_index), int(rep)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _run_chunk(generator, test_id, m, n, tau, side, alpha, seeds) -> tuple[int, int]:
    """(rejections, failed replications) over the given replication seeds."""
    rejections = errors = 0
    for rep_seed in seeds:
        try:
            data = generator(m, n, rep_seed)
            if test_id == "coves":
                report = run_coves(data, tau, side)
            elif test_id == "es":
                report = run_es(data, tau, side)
            else:
                report = run_ttest(data, side)
            rejections += report.p_value < alpha
        except NumericalError:
            errors += 1
    return rejections, errors


def estimate_rejection_rate(
    generator,
    test_id: str,
    m: int,
    n: int,
    alpha: float,
    reps: int,
    seed: int,
    *,
    tau: float = 0.75,
    side: str = "two-sided",
    size_index: int = 0,
    workers: int | None = None,
) -> PowerEstimate:
    """Rejection rate of a test over seeded replications of a generator.

    ``generator`` is any picklable callable (m, n, seed) -> Dataset.
    The seeds are cut into at most ``workers`` chunks (one when
    ``workers`` is None or <= 1); a single chunk runs in this process,
    more run on a process pool of at most one process per chunk and per
    CPU (``os.cpu_count()``).  Results do not depend on the worker count,
    because each replication depends only on its derived seed and the
    counts merge commutatively.
    """
    if test_id not in TEST_IDS:
        raise ValueError(f"test_id must be one of {TEST_IDS}, got {test_id!r}")
    if reps < 1:
        raise ValueError("need at least one replication")
    check_alpha(alpha)

    seeds = [replication_seed(seed, size_index, r) for r in range(reps)]
    chunk_size = -(-reps // max(1, workers or 1))
    chunks = [seeds[i : i + chunk_size] for i in range(0, reps, chunk_size)]
    run = functools.partial(_run_chunk, generator, test_id, m, n, tau, side, alpha)
    if len(chunks) == 1:
        counts = [run(chunks[0])]
    else:
        with ProcessPoolExecutor(max_workers=min(len(chunks), os.cpu_count() or 1)) as pool:
            counts = list(pool.map(run, chunks))
    rejections, errors = map(sum, zip(*counts))

    allowed = max(1, int(MAX_ERROR_FRACTION * reps))
    if errors > allowed or errors == reps:
        raise UnstableConfigurationError(
            f"{errors}/{reps} replications failed; configuration too degenerate "
            f"for a trustworthy estimate (at most {allowed} may fail, and never all)"
        )
    rate = rejections / reps
    return PowerEstimate(
        rate=rate,
        reps=reps,
        mc_se=float(np.sqrt(rate * (1.0 - rate) / reps)),
        seed=seed,
        test_id=test_id,
        m=m,
        n=n,
        alpha=alpha,
        errors=errors,
    )


def power_curve(
    generator,
    test_id: str,
    sizes,
    alpha: float,
    reps: int,
    seed: int,
    *,
    tau: float = 0.75,
    side: str = "two-sided",
    workers: int | None = None,
) -> list[PowerEstimate]:
    """One rejection-rate estimate per (m, n) size, seeded independently."""
    sizes = list(sizes)
    if not sizes:
        raise ValueError("need at least one (m, n) size")
    return [
        estimate_rejection_rate(
            generator,
            test_id,
            m,
            n,
            alpha,
            reps,
            seed,
            tau=tau,
            side=side,
            size_index=i,
            workers=workers,
        )
        for i, (m, n) in enumerate(sizes)
    ]


def allocate(size: int, allocation: str) -> tuple[int, int]:
    """(m, n) for control-group size n = size: m = n ('equal') or m = 2n ('two-to-one')."""
    if allocation == "equal":
        return size, size
    return 2 * size, size


def sample_size_search(
    generator,
    test_id: str,
    target: float,
    allocation: str,
    alpha: float,
    reps: int,
    seed: int,
    bounds: tuple[int, int],
    *,
    tau: float = 0.75,
    side: str = "two-sided",
    workers: int | None = None,
) -> SampleSizeResult:
    """Smallest group size whose estimated power reaches the target.

    Integer bisection on the control-group size over ``bounds``
    (allocation 'equal' runs m = n, 'two-to-one' runs m = 2n), assuming
    power is monotone in size.  A size passes when its estimated rate
    is at least target - mc_se; each probe spends the full replication
    budget, seeded by the probed size so the search path cannot change
    any estimate.
    """
    if not (0.0 < target < 1.0):
        raise ValueError(f"target power must lie in (0, 1), got {target}")
    if allocation not in ALLOCATIONS:
        raise ValueError(f"allocation must be one of {ALLOCATIONS}, got {allocation!r}")
    lo, hi = int(bounds[0]), int(bounds[1])
    if not (1 <= lo < hi):
        raise ValueError(f"bounds must satisfy 1 <= lo < hi, got {bounds}")

    @functools.cache
    def probe(size: int) -> PowerEstimate:
        m, n = allocate(size, allocation)
        return estimate_rejection_rate(
            generator,
            test_id,
            m,
            n,
            alpha,
            reps,
            seed,
            tau=tau,
            side=side,
            size_index=size,
            workers=workers,
        )

    def passes(size: int) -> bool:
        est = probe(size)
        return est.rate >= target - est.mc_se

    if passes(lo):
        best = lo
    elif not passes(hi):
        raise SearchBoundsError(
            f"power at the upper bound {hi} is {probe(hi).rate:.3f}, below the "
            f"target {target}; no crossing within bounds {bounds}"
        )
    else:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if passes(mid):
                hi = mid
            else:
                lo = mid
        best = hi

    m, n = allocate(best, allocation)
    return SampleSizeResult(
        m=m,
        n=n,
        allocation=allocation,
        achieved_power=probe(best),
        target=target,
    )
