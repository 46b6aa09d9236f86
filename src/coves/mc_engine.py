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
import operator
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


# numpy's SeedSequence: O'Neill's seed_seq hash over a pool of four
# 32-bit words, each running constant a power series in its multiplier.
_POOL = 4
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# generate_state's running constant for the two 32-bit halves of a uint64 seed.
_STATE = np.array([_INIT_B, _INIT_B * _MULT_B & _MASK32, _INIT_B * _MULT_B**2 & _MASK32], np.uint32)[:, None]


def _words(value) -> list[int]:
    """Little-endian 32-bit words of a non-negative integer; one zero word for 0."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"seed entropy must be non-negative, got {value}")
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


@functools.cache
def _hash_steps(length: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(xor, mul) uint32 columns of hashmix's running constant, one pair
    per stacked step over an entropy of ``length`` >= 4 words.

    hashmix call k xors constant k and multiplies by constant k + 1.
    The steps are the pool fill (calls 0-3), the four cross-mix rounds
    (round s makes three calls, for every pool word but s, and its row s
    is a placeholder), and one round of four calls per word past the pool.
    """
    const = [_INIT_A]
    for _ in range(_POOL * length):
        const.append(const[-1] * _MULT_A & _MASK32)
    const = np.array(const, np.uint32)
    calls = [list(range(_POOL))]
    for s in range(_POOL):
        first = _POOL + (_POOL - 1) * s
        calls.append([first + t - (t > s) if t != s else first for t in range(_POOL)])
    calls += [list(range(_POOL * s, _POOL * s + _POOL)) for s in range(_POOL, length)]
    return [(const[k][:, None], const[np.add(k, 1)][:, None]) for k in calls]


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """numpy's hashmix of uint32 words, one running constant per row of xor and mul."""
    value = (value ^ xor) * mul
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's mix of uint32 pool words x with hashed words y."""
    value = _MIX_L * x - _MIX_R * y
    return value ^ value >> 16


def replication_seed(master_seed: int, size_index: int, rep: int | range) -> int | list[int]:
    """Derived seed of one replication, or the list of them for a range of reps.

    The seed of replication ``rep`` is
    ``np.random.SeedSequence((master_seed, size_index, rep)).generate_state(1, np.uint64)[0]``,
    so it is independent of execution order.  For a range the hash runs
    once, on uint32 arrays with one lane per replication.  Arguments go
    through ``operator.index``, so a float raises ``TypeError``; a
    negative value raises ``ValueError``.
    """
    prefix = _words(master_seed) + _words(size_index)
    if isinstance(rep, range):
        reps = rep
    else:
        rep = operator.index(rep)
        reps = range(rep, rep + 1)
    if not reps:
        return []
    low, high = sorted((reps[0], reps[-1]))
    if low < 0:
        raise ValueError(f"replication index must be non-negative, got {low}")
    # Entropy: master, size index and rep words, one column per lane; a
    # lane past its last word reads 0, which is also the pool's padding.
    width = len(_words(high))
    entropy = np.zeros((max(_POOL, len(prefix) + width), len(reps)), np.uint32)
    entropy[: len(prefix)] = np.array(prefix, np.uint32)[:, None]
    for w in range(width):
        entropy[len(prefix) + w] = [r >> 32 * w & _MASK32 for r in reps]
    steps = _hash_steps(len(entropy))

    pool = _hashmix(entropy[:_POOL], *steps[0])
    for s in range(_POOL):
        # Round s mixes hashes of word s into every other word; word s stays.
        mixed = _mix(pool, _hashmix(pool[s], *steps[1 + s]))
        mixed[s] = pool[s]
        pool = mixed
    for s in range(_POOL, len(entropy)):
        mixed = _mix(pool, _hashmix(entropy[s], *steps[1 + s]))
        # Rep word w reaches only the lanes whose rep has w + 1 words.
        w = s - len(prefix)
        pool = mixed if w < 1 else np.where([r >> 32 * w > 0 for r in reps], mixed, pool)
    state = _hashmix(pool[:2], _STATE[:2], _STATE[1:])
    seeds = (state[1].astype(np.uint64) << 32 | state[0]).tolist()
    return seeds if isinstance(rep, range) else seeds[0]


def _run_chunk(generator, test_id, m, n, tau, side, alpha, seeds) -> tuple[int, list[str]]:
    """(rejections, "class: message" of each failed replication) over the
    given replication seeds."""
    rejections, failures = 0, []
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
        except NumericalError as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
    return rejections, failures


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
    counts merge commutatively; a refused estimate names the first failure
    in seed order, as the chunks come back in that order.
    """
    if test_id not in TEST_IDS:
        raise ValueError(f"test_id must be one of {TEST_IDS}, got {test_id!r}")
    if reps < 1:
        raise ValueError("need at least one replication")
    check_alpha(alpha)

    seeds = replication_seed(seed, size_index, range(reps))
    chunk_size = -(-reps // max(1, workers or 1))
    chunks = [seeds[i : i + chunk_size] for i in range(0, reps, chunk_size)]
    run = functools.partial(_run_chunk, generator, test_id, m, n, tau, side, alpha)
    if len(chunks) == 1:
        counts = [run(chunks[0])]
    else:
        with ProcessPoolExecutor(max_workers=min(len(chunks), os.cpu_count() or 1)) as pool:
            counts = list(pool.map(run, chunks))
    rejections = sum(chunk[0] for chunk in counts)
    failures = [failure for chunk in counts for failure in chunk[1]]
    errors = len(failures)

    allowed = max(1, int(MAX_ERROR_FRACTION * reps))
    if errors > allowed or errors == reps:
        raise UnstableConfigurationError(
            f"{errors}/{reps} replications failed; configuration too degenerate "
            f"for a trustworthy estimate (at most {allowed} may fail, and never all); "
            f"the first raised {failures[0]}"
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
    any estimate.  Both bounds are taken through ``operator.index``, so
    a float raises ``TypeError``.
    """
    if not (0.0 < target < 1.0):
        raise ValueError(f"target power must lie in (0, 1), got {target}")
    if allocation not in ALLOCATIONS:
        raise ValueError(f"allocation must be one of {ALLOCATIONS}, got {allocation!r}")
    lo, hi = operator.index(bounds[0]), operator.index(bounds[1])
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
