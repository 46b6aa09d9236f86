"""Bit-identity sweep: hash every result of a fixed set of coves calls.

Run it once on each of two source trees and compare:

    PYTHONPATH=OLD/src python3 tools/digest.py old.json
    PYTHONPATH=src     python3 tools/digest.py new.json
    python3 tools/digest.py --diff old.json new.json

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
  five levels from 5e-324 to 1e-6, below and above TIE_RTOL, under
  which every downward edge is flat.  Designs of one or two columns
  without an intercept, (c), (d) and (d, c), and the intercept alone,
  (1), add fits of scenarios 1-4 at (25, 25) and of scenario 3 at
  (5000, 5000), so one- and two-column designs, with and without an
  intercept, run at both sizes beside (1, d) and (1, d, c).
- ``rq_oracle``: the enumeration oracle's fit or error, hashed the same
  way, on every one of those designs with at most ``ORACLE_MAX_N`` rows.
- ``run_coves``, ``run_es``, ``run_ttest``, ``decompose_T``: every field
  of the report, or the error, on the same datasets.  ``run_coves`` and
  ``run_es`` also run on the near-integral designs, and ``run_coves`` on
  each scenario dataset of ``SIZES`` with its covariate times 1e-10.
- ``simgen``: z, d and c of every dataset the sweep draws from
  ``ScenarioSampler`` and ``TargetedSampler``, so a change to a
  generator or to ``Dataset`` shows up by itself, not only through the
  reports computed from it.
- ``cli``: exit code, stdout, stderr and output files of a set of
  ``coves`` commands run through ``coves.cli.main``, among them
  ``test --method es --tau 0.55`` on a (100, 100) file.

For the reports, the file also keeps the shortfall counts, objective
and p-value, and for the fits the objective or the error class, which
``--diff`` prints beside each moved design.

The sweep also counts the pivots of ``fit_rq`` whose kinks outnumber
the sort window, and how many of those found no stop in the first
window and widened it (when the package has that window).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

SIZES = [(6, 6), (8, 8), (9, 7), (10, 10), (12, 12), (30, 21), (33, 33), (50, 50), (99, 50), (300, 150)]
FIT_TAUS = (0.05, 0.5, 0.75, 0.9, 0.99)
BREAKDOWN_SEEDS = [((7, 12, 52), 24, 12), ((9, 12, 70), 24, 12), ((8, 20, 195), 40, 20)]
# (size per group, taus) where some tau*N_d is a float a hair above an integer.
NEAR_INTEGRAL = [(25, (0.28, 0.56)), (100, (0.55,))]
# Levels at and below TIE_RTOL, where a downward edge of (1, d) is flat.
TINY_TAUS = (5e-324, 1e-10, 1e-9, 2e-9, 1e-6)


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


def call(fn, *args):
    """fn(*args), or the package or numpy error it raises."""
    from coves.errors import CovesError

    try:
        return fn(*args)
    except (CovesError, ValueError, np.linalg.LinAlgError) as exc:
        return exc


def datasets():
    """(name, dataset, generating (alpha, delta, gamma)) for every swept design."""
    from coves.mc_engine import replication_seed
    from coves.simgen import ScenarioSampler, ScenarioSpec, TargetedSampler, load_standin

    standin = TargetedSampler(*load_standin())
    for sc in (1, 2, 3, 4):
        for eta in (0.0, 1.35):
            spec = ScenarioSpec.from_scenario(sc, eta)
            for m, n in SIZES:
                for seed in range(5):
                    yield f"s{sc}e{eta}/{m}x{n}/{seed}", ScenarioSampler(spec)(m, n, seed), (5.0, 0.0, spec.gamma)
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
    spec = ScenarioSpec.from_scenario(3, 0.0)
    for size in (5000, 5001):
        for rep in range(3):
            data = ScenarioSampler(spec)(size, size, replication_seed(0, 0, rep))
            yield f"s3e0.0/{size}x{size}/rep{rep}", data, (5.0, 0.0, spec.gamma)


def near_integral_datasets():
    """(name, dataset, taus) for the near-integral designs."""
    from coves.simgen import ScenarioSampler, ScenarioSpec

    for sc in (1, 2, 3, 4):
        for eta in (0.0, 1.35):
            sampler = ScenarioSampler(ScenarioSpec.from_scenario(sc, eta))
            for size, taus in NEAR_INTEGRAL:
                for seed in range(5):
                    yield f"near/s{sc}e{eta}/{size}x{size}/{seed}", sampler(size, size, seed), taus


def tiny_tau_datasets():
    """Scenario datasets at (6, 6) and (50, 50) for the tiny-tau (1, d) fits."""
    from coves.simgen import ScenarioSampler, ScenarioSpec

    for sc in (1, 2, 3, 4):
        for eta in (0.0, 1.35):
            sampler = ScenarioSampler(ScenarioSpec.from_scenario(sc, eta))
            for size in (6, 50):
                for seed in range(3):
                    yield f"tinytau/s{sc}e{eta}/{size}x{size}/{seed}", sampler(size, size, seed)


def tiny_covariate_datasets():
    """Every scenario dataset of SIZES with its covariate multiplied by 1e-10."""
    from coves.coves_test import Dataset

    for name, data, _ in datasets():
        if name.startswith(("s1e", "s2e", "s3e", "s4e")) and data.z.size <= 1000:
            yield f"tinyc/{name}", Dataset(z=data.z, d=data.d, c=1e-10 * data.c)


def column_subset_designs():
    """(name, y, X, taus) of the one- and two-column designs (1), (c), (d)
    and (d, c) on scenario datasets at (25, 25) and (5000, 5000)."""
    from coves.mc_engine import replication_seed
    from coves.simgen import ScenarioSampler, ScenarioSpec

    def draws():
        for sc in (1, 2, 3, 4):
            for eta in (0.0, 1.35):
                sampler = ScenarioSampler(ScenarioSpec.from_scenario(sc, eta))
                for seed in range(3):
                    yield f"s{sc}e{eta}/25x25/{seed}", sampler(25, 25, seed), FIT_TAUS
        sampler = ScenarioSampler(ScenarioSpec.from_scenario(3, 0.0))
        for rep in range(2):
            yield f"s3e0.0/5000x5000/rep{rep}", sampler(5000, 5000, replication_seed(0, 0, rep)), (0.25, 0.75)

    for name, data, taus in draws():
        d = data.d.astype(float)
        for cols, X in (("1", np.ones((d.size, 1))), ("c", data.c[:, None]), ("d", d[:, None]),
                        ("dc", np.column_stack([d, data.c]))):
            yield f"columns/{cols}/{name}", data.z, X, taus


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


def record_fits(record, key, rd, n, tau):
    """fit_rq on one design, and rq_oracle where n <= ORACLE_MAX_N."""
    from coves.quantreg import ORACLE_MAX_N, fit_rq, rq_oracle

    failed = isinstance(rd, BaseException)
    fit = rd if failed else call(fit_rq, rd, tau)
    record("fit_rq", key, fit, fit_summary(fit))
    if n <= ORACLE_MAX_N:
        oracle = rd if failed else call(rq_oracle, rd, tau)
        record("rq_oracle", key, oracle, fit_summary(oracle))


def fit_summary(fit):
    return type(fit).__name__ if isinstance(fit, BaseException) else fit.objective


def record_draw(record, name, data):
    """z, d and c of a dataset drawn from a sampler."""
    record("simgen", name, (data.z, data.d, data.c))


def sweep(record):
    from coves.baselines import run_ttest
    from coves.coves_test import decompose_T, design_matrix, run_coves, run_es
    from coves.quantreg import RegressionData

    for name, data, params in datasets():
        if not name.startswith("standin-shuffled/"):
            record_draw(record, name, data)
        for cov in (True, False):
            rd = call(RegressionData, data.z, design_matrix(data, cov))
            for tau in FIT_TAUS if data.z.size <= 1000 else (0.75,):
                record_fits(record, f"{name}/cov{int(cov)}/tau{tau}", rd, data.z.size, tau)
        for tau in (0.75, 0.9):
            coves = call(run_coves, data, tau)
            record("run_coves", f"{name}/tau{tau}", coves, summary(coves))
            if tau == 0.75 and not isinstance(coves, BaseException):
                record("decompose_T", name, call(decompose_T, data, coves.fit, params))
        for tau in (0.5, 0.75, 0.9):
            es = call(run_es, data, tau)
            record("run_es", f"{name}/tau{tau}", es, summary(es))
        record("run_ttest", name, call(run_ttest, data))
    for name, data, taus in near_integral_datasets():
        record_draw(record, name, data)
        rd = call(RegressionData, data.z, design_matrix(data, False))
        for tau in taus:
            record_fits(record, f"{name}/cov0/tau{tau}", rd, data.z.size, tau)
            for family, test in (("run_coves", run_coves), ("run_es", run_es)):
                report = call(test, data, tau)
                record(family, f"{name}/tau{tau}", report, summary(report))
    for name, data in tiny_tau_datasets():
        record_draw(record, name, data)
        rd = call(RegressionData, data.z, design_matrix(data, False))
        for tau in TINY_TAUS:
            record_fits(record, f"{name}/cov0/tau{tau}", rd, data.z.size, tau)
    for name, data in tiny_covariate_datasets():
        for tau in (0.75, 0.9):
            coves = call(run_coves, data, tau)
            record("run_coves", f"{name}/tau{tau}", coves, summary(coves))
    for name, y, X, taus in column_subset_designs():
        rd = call(RegressionData, y, X)
        for tau in taus:
            record_fits(record, f"{name}/tau{tau}", rd, y.size, tau)
    for name, y, X, tau in random_designs():
        record_fits(record, f"{name}/tau{tau}", call(RegressionData, y, X), y.size, tau)


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
    for alloc in ("equal", "two-to-one"):
        cmds.append((f"samplesize/{alloc}", ["samplesize", "--scenario", "1", "--eta", "1.35", "--test", "es",
                                             "--allocation", alloc, "--reps", "60", "--seed", "2",
                                             "--bounds", "20:80", "--out", f"{w}/ss-{alloc}.json"]))
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


def count_kink_windows():
    """Wrap quantreg._kinks_to_stop to count the pivots whose kinks
    outnumber KINK_WINDOW, and those whose stop lay beyond the first
    window (or nowhere), so the window was widened.  None for a package
    without the window."""
    from coves import quantreg

    if not hasattr(quantreg, "_kinks_to_stop"):
        return None
    counts = {"pivots": 0, "windowed": 0, "widened": 0}
    kinks_to_stop, window = quantreg._kinks_to_stop, quantreg.KINK_WINDOW

    def counted(t, gain, slope, tol):
        reached = kinks_to_stop(t, gain, slope, tol)
        counts["pivots"] += 1
        if t.size > window:
            counts["windowed"] += 1
            first = np.count_nonzero(t <= np.partition(t, window - 1)[window - 1])
            counts["widened"] += reached is None or reached.size > first
        return reached

    quantreg._kinks_to_stop = counted
    return counts


def run(out_path: str) -> None:
    designs: dict[str, dict] = {}
    kinks = count_kink_windows()

    def record(family, key, result, info=None):
        entry = {"hash": sha(result)}
        if info is not None:
            entry["info"] = info
        designs[f"{family}/{key}"] = entry

    sweep(record)
    cli_sweep(record)
    families: dict = {}
    counts: dict[str, int] = {}
    for key in sorted(designs):
        family = key.split("/", 1)[0]
        families.setdefault(family, hashlib.sha256()).update(f"{key}={designs[key]['hash']}\n".encode())
        counts[family] = counts.get(family, 0) + 1
    for family, h in families.items():
        print(f"{family:12s} {counts[family]:6d} {h.hexdigest()}")
    if kinks is not None:
        print(f"kink sorts: {kinks['pivots']} pivots, {kinks['windowed']} over the window, "
              f"{kinks['widened']} widened it")
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
