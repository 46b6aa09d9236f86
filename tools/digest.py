"""Bit-identity sweep: hash every result of a fixed set of coves calls.

Run it once on each of two source trees and compare:

    PYTHONPATH=OLD/src python3 tools/digest.py old.json
    PYTHONPATH=src     python3 tools/digest.py new.json
    python3 tools/digest.py --diff old.json new.json

Run natively and with numpy's SIMD kernels switched off
(``NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR"``), the
two sweeps differ only in ``run_coves``, whose KDE's ``np.exp`` rounds
by kernel.

Everything runs in this process.  Each family of results gets one
digest, printed as the sweep ends; the output file holds one hash per
design, so ``--diff`` can name every design whose result moved.
``--diff`` reads only the two files and does not import the package.

- ``fit_rq``: every quantile fit (beta, residuals, objective, zero set
  and zero tolerance) or its error (class and message).  The designs
  are scenarios 1-4 at eta 0 and 1.35, the stand-in pair with and
  without shuffled rows, (5000, 5000) and (5001, 5001), the three
  stand-in seeds on which the former interior-point solver broke down,
  and random designs with rounded outcomes or discrete covariates at
  scales 1e-8, 1 and 1e8; tau from 0.05 to 0.99, with and without the
  covariate.  Near-integral two-sample designs add their (1, d) fits:
  scenarios 1-4 at eta 0 and 1.35, seeds 0-4, at (25, 25) with tau 0.28
  and 0.56 and at (100, 100) with tau 0.55, where tau*N_d is a float a
  hair above an integer.  Tiny-tau two-sample designs add (1, d) fits at
  five levels from 5e-324 to 1e-6, below and above TIE_RTOL, and the
  (1, d, c) fit at 5e-5, all below EXTREME_TAU, where ``fit_rq``
  refuses every design.  Designs of one or two columns
  without an intercept, (c), (d) and (d, c), and the intercept alone,
  (1), add fits of scenarios 1-4 at (25, 25) and of scenario 3 at
  (5000, 5000), so one- and two-column designs, with and without an
  intercept, run at both sizes beside (1, d) and (1, d, c).  The (50, 50)
  scenario datasets with the covariate times 10**k, k from -13.5 to -13
  and from 12.25 to 13.25 in steps of 1/8, add (1, d, c) fits on both
  sides of each flip of the rank decision, as a fit or as the error.
- ``signed_zero``: z, d and c, the (1, d) fits and every ``run_coves``
  and ``run_es`` report or error of the signed-zero designs, each filed
  under its own family name (``signed_zero/run_es/...``).  These are the
  scenario 1-4 draws at eta 0, seeds 0-2, at (100, 100), (500, 500) and
  (5000, 5000), with z cut toward zero in whole interquartile ranges
  about its median, so that in each group zeros of both signs tie at
  every tau of ``SIGNED_ZERO_TAUS``.  The ``es`` fit reads each group's
  order statistic there, and reads it as +0.0 whichever of the tied
  zeros numpy's selection kernel puts at its place.
- ``rq_oracle``: the enumeration oracle's fit or error, hashed the same
  way, on every one of those designs with at most ``ORACLE_MAX_N`` rows.
- ``run_coves``, ``run_es``, ``run_ttest``, ``decompose_T``: every field
  of the report, or the error, on the same datasets.  ``run_coves`` and
  ``run_es`` also run on the near-integral designs, ``run_es`` on the
  tiny-tau designs at each of their (1, d) levels, where it answers
  from order statistics, and ``run_coves`` on
  each scenario dataset of ``SIZES`` with its covariate times 1e-10 and
  on the rank-boundary datasets; ``run_ttest`` runs on the tiny-covariate
  and the rank-boundary datasets too, and on the offset-covariate
  designs: the (50, 50) scenario datasets with the covariate plus 1e4,
  1e6, 1e7, 1e13 and 1e14 (the last refused as rank deficient), and
  z = 1 on 50 + 50 rows with c = 1e6 + N(0, 1), an exact fit it
  refuses.  So both of its refusal rules are pinned on both sides.
- ``simgen``: z, d and c of every dataset the sweep draws from
  ``ScenarioSampler`` and ``TargetedSampler``, so a change to a
  generator or to ``Dataset`` shows up by itself, not only through the
  reports computed from it.
- ``cli``: exit code, stdout, stderr and output files of a set of
  ``coves`` commands run through ``coves.cli.main``, among them
  ``test --method es --tau 0.55`` on a (100, 100) file, and one
  ``power`` and one ``samplesize`` run with every shared Monte Carlo
  flag away from its default, and two ``samplesize`` searches: one whose
  lower bound already reaches the target, one whose upper bound falls
  short of it (exit 3).
- ``mc_engine``: the Monte Carlo engine by itself, so a change to its
  seeds or counts shows without the CLI.  The first 64 replication
  seeds, one ``replication_seed`` call each, of every (master, size
  index) pair in ``ENGINE_MASTERS`` x ``ENGINE_SIZE_INDICES``, and every
  ``PowerEstimate`` of a serial ``estimate_rejection_rate`` for coves,
  es and ttest on scenario 2 (eta 0 and 1.35) at (20, 20), 40
  replications, seeds 0 and 5, tau 0.75, and the coves estimate at
  (6, 6) and tau 0.95, which fails in every replication and is refused.

For the reports, the file also keeps the shortfall counts, objective
and p-value (for ``run_ttest`` the t statistic and p-value, or the
error), and for the fits the objective or the error class, which
``--diff`` prints beside each moved design.

The sweep also prints the counters of ``counters``: kink sorts, with the
most pivots of any one fit, solver branches and band walks, each counted by hooks
that ``instrument`` puts on package functions.  A package that lacks
one of a counter's functions prints no line for it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

SIZES = [(6, 6), (8, 8), (9, 7), (10, 10), (12, 12), (30, 21), (33, 33), (50, 50), (99, 50), (300, 150)]
FIT_TAUS = (0.05, 0.5, 0.75, 0.9, 0.99)
BREAKDOWN_SEEDS = [((7, 12, 52), 24, 12), ((9, 12, 70), 24, 12), ((8, 20, 195), 40, 20)]
SCENARIOS = [(sc, eta) for sc in (1, 2, 3, 4) for eta in (0.0, 1.35)]
# Size per group -> taus, where some tau*N_d is a float a hair above an integer.
NEAR_INTEGRAL = {25: (0.28, 0.56), 100: (0.55,)}
# Levels at which each group of a signed-zero design has a zero order statistic.
SIGNED_ZERO_TAUS = (0.25, 0.5, 0.75)
# Levels below EXTREME_TAU, on both sides of TIE_RTOL: fit_rq refuses them, run_es answers.
TINY_TAUS = (5e-324, 1e-10, 1e-9, 2e-9, 1e-6)
# Eighths k of the powers 10**k times the covariate where the rank
# decision of (1, d, c) on a (50, 50) scenario dataset flips.
RANK_EIGHTHS = [*range(-108, -103), *range(98, 107)]
# Powers of ten added to the covariate of the (50, 50) scenario datasets.
TTEST_OFFSETS = (4, 6, 7, 13, 14)
# One-, two- and three-word masters and size indices of the seed hash.
ENGINE_MASTERS = (0, 1, 7, 2**32 - 1, 2**32, 2**64 + 5, 10**30)
ENGINE_SIZE_INDICES = (0, 1, 9006, 2**33)


def encode(obj) -> bytes:
    """Exact byte encoding of a result: floats by their bits, arrays by dtype, shape and bytes."""
    if isinstance(obj, np.ndarray):
        return b"A" + f"{obj.dtype.str}{obj.shape}".encode() + np.ascontiguousarray(obj).tobytes()
    if isinstance(obj, (float, np.floating)):
        return b"F" + float(obj).hex().encode()
    if isinstance(obj, (bool, int, np.integer, str)) or obj is None:
        return b"S" + repr(obj if not isinstance(obj, np.integer) else int(obj)).encode()
    if isinstance(obj, (tuple, list)):
        return b"(" + b",".join(encode(x) for x in obj) + b")"
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__.encode() + encode(
            [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)]
        )
    if isinstance(obj, BaseException):
        return b"E" + encode((type(obj).__name__, str(obj)))
    raise TypeError(f"cannot encode {type(obj).__name__}")


def sha(obj) -> str:
    return hashlib.sha256(encode(obj)).hexdigest()


def call(fn, *args, **kwargs):
    """fn(*args, **kwargs), or the package error or ValueError it raises
    (numpy's LinAlgError is a ValueError)."""
    from coves.errors import CovesError

    try:
        return fn(*args, **kwargs)
    except (CovesError, ValueError) as exc:
        return exc


def scenario_draws(sizes, seeds, scenarios=SCENARIOS):
    """(name, dataset, generating (alpha, delta, gamma)) of each (scenario,
    eta) at each (m, n) and seed; a seed "repK" is the Monte Carlo
    engine's replication_seed(0, 0, K)."""
    from coves.mc_engine import replication_seed
    from coves.simgen import ScenarioSampler, ScenarioSpec

    for sc, eta in scenarios:
        spec = ScenarioSpec.from_scenario(sc, eta)
        for m, n in sizes:
            for seed in seeds:
                drawn = replication_seed(0, 0, int(seed[3:])) if isinstance(seed, str) else seed
                yield f"s{sc}e{eta}/{m}x{n}/{seed}", ScenarioSampler(spec)(m, n, drawn), (5.0, 0.0, spec.gamma)


def datasets():
    """(name, dataset, generating (alpha, delta, gamma)) for every swept design."""
    from coves.mc_engine import replication_seed
    from coves.simgen import TargetedSampler, load_standin

    yield from scenario_draws(SIZES, range(5))
    standin = TargetedSampler(*load_standin())
    for m, n in [(12, 12), (50, 50), (99, 50)]:
        for seed in range(100):
            data = standin(m, n, seed)
            yield f"standin/{m}x{n}/{seed}", data, (0.0, 0.0, 0.0)
            if (m, n) == (50, 50):
                perm = np.random.default_rng(seed).permutation(m + n)
                shuffled = type(data)(z=data.z[perm], d=data.d[perm], c=data.c[perm])
                yield f"standin-shuffled/{m}x{n}/{seed}", shuffled, (0.0, 0.0, 0.0)
    for key, m, n in BREAKDOWN_SEEDS:
        yield f"breakdown/{m}x{n}/{key}", standin(m, n, replication_seed(*key)), (0.0, 0.0, 0.0)
    yield from scenario_draws([(5000, 5000), (5001, 5001)], ("rep0", "rep1", "rep2"), [(3, 0.0)])


def signed_zero(data):
    """data with its outcomes cut toward zero in whole interquartile ranges
    about their median, so its central half ties at -0.0 and 0.0."""
    q25, q50, q75 = np.percentile(data.z, [25, 50, 75])
    return type(data)(z=np.trunc((data.z - q50) / (q75 - q25)), d=data.d, c=data.c)


def signed_zero_draws():
    """(name, dataset) of each signed-zero design: the scenario 1-4 draws
    at eta 0, seeds 0-2, at three sizes, through ``signed_zero``."""
    draws = scenario_draws([(100, 100), (500, 500), (5000, 5000)], range(3), [(sc, 0.0) for sc in (1, 2, 3, 4)])
    return ((name, signed_zero(data)) for name, data, _ in draws)


def filed(record, family):
    """record, filing every result under ``family`` with the result's own
    family heading its key."""
    return lambda inner, key, *rest: record(family, f"{inner}/{key}", *rest)


def random_designs():
    """Small random designs, some with rounded outcomes or a discrete covariate."""
    rng = np.random.default_rng(2024)
    for k in range(1500):
        n = int(rng.integers(4, 61))
        p = int(rng.integers(1, 4))
        X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        if p > 1 and k % 3 == 0:
            X[:, -1] = rng.integers(0, 4, size=n)
        y = rng.normal(size=n)
        if k % 4 == 0:
            y = np.round(y * 2.0)
        scale = (1e-8, 1.0, 1e8)[k % 3]
        yield f"random/{k}", scale * y, X, float(rng.choice(FIT_TAUS))


def summary(report) -> dict | None:
    if isinstance(report, BaseException):
        return None
    return {
        "s_counts": list(report.s_counts),
        "objective": report.fit.objective,
        "p_value": report.p_value,
    }


def fit_summary(fit):
    return type(fit).__name__ if isinstance(fit, BaseException) else fit.objective


def ttest_summary(report):
    return str(report) if isinstance(report, BaseException) else [report.t_stat, report.p_value]


def record_fits(record, key, y, X, taus):
    """fit_rq of y on X at each tau, and rq_oracle where y has at most
    ORACLE_MAX_N rows; a design RegressionData refuses records its error."""
    from coves.quantreg import ORACLE_MAX_N, RegressionData, fit_rq, rq_oracle

    rd = call(RegressionData, y, X)
    fits = [("fit_rq", fit_rq), ("rq_oracle", rq_oracle)] if y.size <= ORACLE_MAX_N else [("fit_rq", fit_rq)]
    for tau in taus:
        for family, fit in fits:
            result = rd if isinstance(rd, BaseException) else call(fit, rd, tau)
            record(family, f"{key}/tau{tau}", result, fit_summary(result))


def record_reports(record, name, data, coves_taus, es_taus, ttest):
    """run_coves and run_es at each of their taus and, if ttest, run_ttest
    on one dataset; returns the run_coves reports by tau."""
    from coves.baselines import run_ttest
    from coves.coves_test import run_coves, run_es

    coves = {tau: call(run_coves, data, tau) for tau in coves_taus}
    for family, reports in (("run_coves", coves), ("run_es", {tau: call(run_es, data, tau) for tau in es_taus})):
        for tau, report in reports.items():
            record(family, f"{name}/tau{tau}", report, summary(report))
    if ttest:
        report = call(run_ttest, data)
        record("run_ttest", name, report, ttest_summary(report))
    return coves


def sweep(record):
    from coves.coves_test import Dataset, decompose_T, design_matrix

    for name, data, params in datasets():
        if not name.startswith("standin-shuffled/"):
            record("simgen", name, (data.z, data.d, data.c))
        for cov in (True, False):
            taus = FIT_TAUS if data.z.size <= 1000 else (0.75,)
            record_fits(record, f"{name}/cov{int(cov)}", data.z, design_matrix(data, cov), taus)
        coves = record_reports(record, name, data, (0.75, 0.9), (0.5, 0.75, 0.9), True)[0.75]
        if not isinstance(coves, BaseException):
            record("decompose_T", name, call(decompose_T, data, coves.fit, params))
        if name.startswith(("s1e", "s2e", "s3e", "s4e")) and data.z.size <= 1000:
            tiny = Dataset(z=data.z, d=data.d, c=1e-10 * data.c)
            record_reports(record, f"tinyc/{name}", tiny, (0.75, 0.9), (), True)
            for i in RANK_EIGHTHS if "/50x50/" in name else ():
                rank = Dataset(z=data.z, d=data.d, c=data.c * 10.0 ** (i / 8))
                record_fits(record, f"rank/{name}/k{i / 8}/cov1", rank.z, design_matrix(rank), FIT_TAUS)
                record_reports(record, f"rank/{name}/k{i / 8}", rank, (0.75, 0.9), (), True)
            for k in TTEST_OFFSETS if "/50x50/" in name else ():
                offset = Dataset(z=data.z, d=data.d, c=data.c + 10.0**k)
                record_reports(record, f"offset/{name}/1e{k}", offset, (), (), True)
    # An exact fit on a covariate far from zero relative to its spread.
    exact = Dataset(z=np.ones(100), d=np.repeat([1, 0], 50), c=1e6 + np.random.default_rng(0).normal(size=100))
    record_reports(record, "exact/1e6", exact, (), (), True)
    near = ((f"near/{name}", data, NEAR_INTEGRAL[data.z.size // 2], record)
            for name, data, _ in scenario_draws([(size, size) for size in NEAR_INTEGRAL], range(5)))
    signed = ((name, data, SIGNED_ZERO_TAUS, filed(record, "signed_zero")) for name, data in signed_zero_draws())
    for name, data, taus, rec in itertools.chain(near, signed):
        rec("simgen", name, (data.z, data.d, data.c))
        record_fits(rec, f"{name}/cov0", data.z, design_matrix(data, False), taus)
        record_reports(rec, name, data, taus, taus, False)
    for name, data, _ in scenario_draws([(6, 6), (50, 50)], range(3)):
        name = f"tinytau/{name}"
        record("simgen", name, (data.z, data.d, data.c))
        record_fits(record, f"{name}/cov0", data.z, design_matrix(data, False), TINY_TAUS)
        record_fits(record, f"{name}/cov1", data.z, design_matrix(data), (5e-5,))
        record_reports(record, name, data, (), TINY_TAUS, False)
    large = scenario_draws([(5000, 5000)], ("rep0", "rep1"), [(3, 0.0)])
    for name, data, _ in itertools.chain(scenario_draws([(25, 25)], range(3)), large):
        d = data.d.astype(float)
        for cols, X in (("1", np.ones((d.size, 1))), ("c", data.c[:, None]), ("d", d[:, None]),
                        ("dc", np.column_stack([d, data.c]))):
            record_fits(record, f"columns/{cols}/{name}", data.z, X, FIT_TAUS if d.size <= 1000 else (0.25, 0.75))
    for name, y, X, tau in random_designs():
        record_fits(record, name, y, X, (tau,))


def engine_sweep(record):
    from coves.mc_engine import estimate_rejection_rate, replication_seed
    from coves.simgen import ScenarioSampler, ScenarioSpec

    for master in ENGINE_MASTERS:
        for size_index in ENGINE_SIZE_INDICES:
            seeds = [replication_seed(master, size_index, rep) for rep in range(64)]
            record("mc_engine", f"seeds/{master}/{size_index}", seeds)
    for eta in (0.0, 1.35):
        sampler = ScenarioSampler(ScenarioSpec.from_scenario(2, eta))
        for test in ("coves", "es", "ttest"):
            for seed in (0, 5):
                est = call(estimate_rejection_rate, sampler, test, 20, 20, 0.05, 40, seed)
                info = None if isinstance(est, BaseException) else [est.rate, est.errors]
                record("mc_engine", f"estimate/s2e{eta}/{test}/seed{seed}", est, info)
    # At (6, 6) and tau 0.95 every coves replication fails, so the engine refuses the estimate.
    sampler = ScenarioSampler(ScenarioSpec.from_scenario(2, 0.0))
    refused = call(estimate_rejection_rate, sampler, "coves", 6, 6, 0.05, 40, 0, tau=0.95)
    record("mc_engine", "estimate/s2e0.0/coves/6x6/tau0.95/seed0", refused)
def cli_commands(work: Path):
    """(name, argv) of every swept command; later commands read earlier outputs."""
    w = str(work)
    cmds = []
    inputs = []
    for sc in (1, 2, 3, 4):
        for eta in ("0", "1.35"):
            out = f"{w}/s{sc}e{eta}.csv"
            cmds.append((f"simulate/s{sc}e{eta}", ["simulate", "--scenario", str(sc), "--eta", eta,
                                                  "--m", "40", "--n", "30", "--seed", "7", "--out", out]))
            inputs.append(out)
    near = f"{w}/s1e0-100x100.csv"
    cmds.append(("simulate/s1e0-100x100", ["simulate", "--scenario", "1", "--eta", "0", "--m", "100",
                                          "--n", "100", "--seed", "0", "--out", near]))
    cmds.append(("test/s1e0-100x100/es/two/0.55", ["test", "--input", near, "--method", "es", "--tau", "0.55",
                                                   "--out", f"{w}/s1e0-100x100-es.json"]))
    for m, n in [(50, 50), (24, 12), (8, 8)]:
        out = f"{w}/standin{m}x{n}.csv"
        cmds.append((f"simulate/standin{m}x{n}", ["simulate", "--targeted", "--m", str(m), "--n", str(n),
                                                  "--seed", "3", "--out", out]))
        inputs.append(out)
    for path in inputs:
        stem = Path(path).stem
        for method in ("coves", "es", "ttest"):
            for side in ("two", "upper", "lower"):
                for tau in ("0.75", "0.9"):
                    cmds.append((f"test/{stem}/{method}/{side}/{tau}",
                                 ["test", "--input", path, "--method", method, "--side", side,
                                  "--tau", tau, "--out", f"{w}/{stem}-{method}-{side}-{tau}.json"]))
        cmds.append((f"diagnose/{stem}", ["diagnose", "--input", path, "--out", f"{w}/{stem}-diag.csv"]))
    for test in ("coves", "es", "ttest"):
        cmds.append((f"power/s2/{test}", ["power", "--scenario", "2", "--eta", "1.35", "--test", test,
                                          "--sizes", "20:50:15", "--reps", "40", "--seed", "5",
                                          "--out", f"{w}/power-s2-{test}.csv"]))
        cmds.append((f"power/targeted/{test}", ["power", "--targeted", "--test", test, "--sizes", "15:25:5",
                                                "--reps", "30", "--seed", "4",
                                                "--out", f"{w}/power-t-{test}.csv"]))
    cmds.append(("power/workers2", ["power", "--scenario", "1", "--eta", "1.35", "--test", "es",
                                    "--sizes", "30", "--reps", "60", "--seed", "9", "--workers", "2",
                                    "--out", f"{w}/power-w2.csv"]))
    search = ["samplesize", "--scenario", "1", "--eta", "1.35", "--test", "es"]
    for alloc in ("equal", "two-to-one"):
        cmds.append((f"samplesize/{alloc}", [*search, "--allocation", alloc, "--reps", "60", "--seed", "2",
                                             "--bounds", "20:80", "--out", f"{w}/ss-{alloc}.json"]))
    # The lower bound already reaches the target; the upper bound falls short of it (exit 3).
    for name, bounds, target in (("lower-bound", "60:80", "0.5"), ("beyond-bounds", "5:6", "0.99")):
        cmds.append((f"samplesize/{name}", [*search, "--reps", "60", "--seed", "2", "--bounds", bounds,
                                            "--target", target, "--out", f"{w}/ss-{name}.json"]))
    shared = ["--scenario", "2", "--eta", "1.35", "--test", "es", "--side", "lower", "--tau", "0.9",
              "--alpha", "0.1", "--allocation", "two-to-one", "--reps", "20", "--seed", "6", "--workers", "1"]
    cmds.append(("power/shared-flags", ["power", *shared, "--sizes", "10:20:10", "--out", f"{w}/power-shared.csv"]))
    cmds.append(("samplesize/shared-flags", ["samplesize", *shared, "--target", "0.8", "--bounds", "10:40",
                                             "--out", f"{w}/ss-shared.json"]))
    return cmds


def cli_sweep(record):
    from coves.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, argv in cli_commands(work):
            before = {p: p.read_bytes() for p in work.iterdir()}
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv)
            text = (out.getvalue() + err.getvalue()).replace(tmp, "<work>")
            written = sorted(
                (p.name, p.read_bytes().decode().replace(tmp, "<work>"))
                for p in work.iterdir()
                if before.get(p) != p.read_bytes()
            )
            record("cli", name, (code, text, written))


def instrument(module, hooks) -> bool:
    """Wrap each module.<name> of hooks so that every call also runs
    hook(result, *args) on its arguments and result.  Wraps nothing and
    returns False when the module lacks one of the names."""
    if not all(hasattr(module, name) for name in hooks):
        return False
    for name, hook in hooks.items():
        def wrapped(*args, _fn=getattr(module, name), _hook=hook):
            result = _fn(*args)
            _hook(result, *args)
            return result

        setattr(module, name, wrapped)
    return True


def counters():
    """(counts, line, module, hooks) of each counter the sweep prints:
    the pivots of quantreg._kinks_to_stop whose kinks outnumber
    KINK_WINDOW, those whose stop lay beyond the first window (or
    nowhere), so the window was widened, and the most pivots of one fit,
    its band walk's and its walk on all rows together, so that a walk
    near MAX_ITER shows; the fits that entered the key block (ordered
    their candidate edges by the key) and the nearest-rows starts that
    fell back to the full pass; the fits that walked a band first, the
    band walks that handed over short of their optimum, the pivots of
    the walks on all rows that followed a band walk, and the most rows
    of any one band, so that a band that takes most of a design shows."""
    from coves import quantreg

    kinks, branches = Counter(), Counter()
    keyed = [False]
    walk = [0]

    def fit_started(*_):
        walk[0] = 0

    def kink_sort(reached, t, *_):
        kinks["pivots"] += 1
        walk[0] += 1
        kinks["most"] = max(kinks["most"], walk[0])
        window = quantreg.KINK_WINDOW
        if t.size > window:
            kinks["windowed"] += 1
            first = np.count_nonzero(t <= np.partition(t, window - 1)[window - 1])
            kinks["widened"] += reached is None or reached.size > first

    def started(*_):
        branches["fits"] += 1
        keyed[0] = False

    def keyed_edge(*_):
        branches["keyed"] += not keyed[0]
        keyed[0] = True

    def nearest(rows, R, dist, prefix):
        branches["nearest"] += prefix
        branches["fallback"] += rows is None

    band = Counter()
    # Kink sorts since the fit's last walk ended, and whether it walked a band.
    since, banded = [0], [False]

    def band_fit(*_):
        band["fits"] += 1
        since[0], banded[0] = 0, False

    def band_kinks(*_):
        since[0] += 1

    def walked(result, *args):
        if args[-1] is not None:
            band["walks"] += 1
            band["early"] += not result[1]
            band["largest"] = max(band["largest"], args[0].shape[0])
            banded[0] = True
        elif banded[0]:
            band["after"] += since[0]
        since[0] = 0

    return [
        (kinks, "kink sorts: {pivots} pivots, {windowed} over the window, {widened} widened it, "
         "at most {most} in one fit (band walk and walk on all rows together)",
         quantreg, {"_start_basis": fit_started, "_kinks_to_stop": kink_sort}),
        (branches, "solver branches: {keyed} of {fits} fits entered the key block, "
         "{fallback} of {nearest} nearest-rows starts fell back to the full pass",
         quantreg, {"_start_basis": started, "_key_edge": keyed_edge, "_greedy_rows": nearest}),
        (band, "band walks: {walks} of {fits} fits, {early} handed over early, "
         "{after} pivots on all rows after the band, largest band {largest} rows",
         quantreg, {"_start_basis": band_fit, "_kinks_to_stop": band_kinks, "_walk": walked}),
    ]


def instrumented():
    """(counts, line) of each counter whose names the package has, hooked in."""
    return [(counts, line) for counts, line, module, hooks in counters() if instrument(module, hooks)]


def run(out_path: str) -> None:
    designs: dict[str, dict] = {}
    lines = instrumented()

    def record(family, key, result, info=None):
        entry = {"hash": sha(result)}
        if info is not None:
            entry["info"] = info
        designs[f"{family}/{key}"] = entry

    sweep(record)
    cli_sweep(record)
    engine_sweep(record)
    families: dict = {}
    counts: dict[str, int] = {}
    for key in sorted(designs):
        family = key.split("/", 1)[0]
        families.setdefault(family, hashlib.sha256()).update(f"{key}={designs[key]['hash']}\n".encode())
        counts[family] = counts.get(family, 0) + 1
    for family, h in families.items():
        print(f"{family:12s} {counts[family]:6d} {h.hexdigest()}")
    for tally, line in lines:
        print(line.format_map(tally))
    Path(out_path).write_text(json.dumps(designs, indent=0, sort_keys=True) + "\n")


def diff(old_path: str, new_path: str) -> int:
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    moved: dict[str, int] = {}
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a is not None and b is not None and a["hash"] == b["hash"]:
            continue
        family = key.split("/", 1)[0]
        moved[family] = moved.get(family, 0) + 1
        if a is None or b is None:
            print(f"{key}: only in {'new' if a is None else 'old'}")
        elif "info" in a or "info" in b:
            print(f"{key}: {a.get('info')} -> {b.get('info')}")
        else:
            print(key)
    for family in sorted({k.split("/", 1)[0] for k in old.keys() | new.keys()}):
        print(f"{family:12s} {moved.get(family, 0):6d} differ")
    return 1 if moved else 0


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="write the per-design hashes here")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"), help="compare two written sweeps")
    args = parser.parse_args()
    if (args.out is None) == (args.diff is None):
        parser.error("give either OUT or --diff OLD NEW")
    return args


if __name__ == "__main__":
    args = parse_args()
    sys.exit(diff(*args.diff) if args.diff else run(args.out))
