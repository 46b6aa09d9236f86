"""Command-line interface.

Subcommands: ``test`` (run one test on a CSV dataset), ``simulate``
(write a synthetic dataset), ``power`` (rejection-rate curve over
sizes), ``samplesize`` (search for a target power), ``diagnose``
(quantile curves of adjusted outcomes).

Exit codes: 0 success, 2 input error, 3 numerical or configuration
degeneracy.  All randomized subcommands are byte-identical across runs
with the same arguments.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .baselines import run_ttest
from .coves_test import Dataset, check_alpha, run_coves, run_es
from .diagnostics import DEFAULT_TAU_FIT, adjusted_quantile_curves
from .errors import DataError, NumericalError
from .mc_engine import ALLOCATIONS, TEST_IDS, allocate, power_curve, sample_size_search
from .simgen import (
    EmpiricalDist,
    ScenarioSampler,
    ScenarioSpec,
    TargetedSampler,
    load_standin,
    sample_scenario,
    sample_targeted,
)

_SIDE_NAMES = {
    "two": "two-sided",
    "upper": "one-sided-upper",
    "lower": "one-sided-lower",
}


def read_dataset_csv(path: str) -> Dataset:
    """Parse a z,d,c CSV; raises DataError with the offending line number."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if [h.strip().lower() for h in header] != ["z", "d", "c"]:
            raise DataError(f"{path}: line 1: header must be 'z,d,c'")
        z, d, c = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataError(f"{path}: line {lineno}: expected 3 fields, got {len(row)}")
            try:
                zi, di, ci = (float(x) for x in row)
            except ValueError:
                raise DataError(f"{path}: line {lineno}: non-numeric value") from None
            if not (math.isfinite(zi) and math.isfinite(ci)):
                raise DataError(f"{path}: line {lineno}: z and c must be finite")
            if di not in (0.0, 1.0):
                raise DataError(f"{path}: line {lineno}: d must be 0 or 1, got {row[1]}")
            z.append(zi)
            d.append(int(di))
            c.append(ci)
    if not z:
        raise DataError(f"{path}: no data rows")
    try:
        return Dataset(z=np.array(z), d=np.array(d), c=np.array(c))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _check_out(path: str | None) -> None:
    """Raise DataError unless ``path`` (None for no output) looks
    writable: its directory exists and is writable, and it is not a
    directory or a read-only file.  ``main`` calls it before any command
    reads input or computes, so a bad --out costs no run; the file itself
    is opened only to write the finished result, so a failed command
    leaves none.
    """
    if path is None:
        return
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise DataError(f"cannot write {path}: no directory {folder}")
    if os.path.isdir(path):
        raise DataError(f"cannot write {path}: it is a directory")
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise DataError(f"cannot write {path}: permission denied")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_dataset_csv(path: str, data: Dataset) -> None:
    rows = ([repr(float(zi)), int(di), repr(float(ci))] for zi, di, ci in zip(data.z, data.d, data.c))
    _write_csv(path, ["z", "d", "c"], rows)


def _report_dict(report, data: Dataset, alpha: float) -> dict:
    return {
        "method": report.method,
        "tau": report.tau,
        "side": report.side,
        "alpha": alpha,
        "fit": {
            "beta": [float(b) for b in report.fit.beta],
            "objective": report.fit.objective,
            "zero_tol": report.fit.zero_tol,
            "n_zero_residuals": int(report.fit.zero_set.size),
        },
        "coves": {"treatment": report.coves[0], "control": report.coves[1]},
        "s_counts": {"treatment": report.s_counts[0], "control": report.s_counts[1]},
        "cbar": {"treatment": report.cbar[0], "control": report.cbar[1]},
        "cstar_sumsq": report.cstar_sumsq,
        "v": {"treatment": report.v[0], "control": report.v[1]},
        "u_f": report.u_f,
        "s2": report.s2,
        "t_stat": report.t_stat,
        "z_score": report.z_score,
        "p_value": report.p_value,
        "reject": bool(report.p_value < alpha),
        "n_treatment": data.n_treat,
        "n_control": data.n_control,
    }


def _ttest_dict(report, data: Dataset, alpha: float) -> dict:
    return {
        "method": "ttest",
        "side": report.side,
        "alpha": alpha,
        "n_treatment": data.n_treat,
        "n_control": data.n_control,
        "beta": [float(b) for b in report.beta],
        "se_delta": report.se_delta,
        "t_stat": report.t_stat,
        "df": report.df,
        "p_value": report.p_value,
        "reject": bool(report.p_value < alpha),
    }


def cmd_test(args) -> int:
    check_alpha(args.alpha)
    data = read_dataset_csv(args.input)
    side = _SIDE_NAMES[args.side]
    if args.method == "ttest":
        payload = _ttest_dict(run_ttest(data, side), data, args.alpha)
    else:
        runner = run_coves if args.method == "coves" else run_es
        payload = _report_dict(runner(data, args.tau, side), data, args.alpha)
    _write_json(args.out, payload)
    print(f"{args.method}: p_value={payload['p_value']:.6g} -> {args.out}")
    return 0


def _targeted_dists(args) -> tuple[EmpiricalDist, EmpiricalDist]:
    if args.f or args.g:
        if not (args.f and args.g):
            raise DataError("--targeted needs both --f and --g (or neither)")
        return EmpiricalDist.from_file(args.f), EmpiricalDist.from_file(args.g)
    return load_standin()


def _scenario_spec(args) -> ScenarioSpec:
    if args.scenario is None:
        raise DataError("either --scenario or --targeted is required")
    return ScenarioSpec.from_scenario(args.scenario, args.eta, gamma=args.gamma)


def cmd_simulate(args) -> int:
    if args.targeted:
        data = sample_targeted(*_targeted_dists(args), args.m, args.n, args.seed)
    else:
        data = sample_scenario(_scenario_spec(args), args.m, args.n, args.seed)
    write_dataset_csv(args.out, data)
    print(f"wrote {args.m + args.n} rows -> {args.out}")
    return 0


def _make_generator(args):
    if args.targeted:
        return TargetedSampler(*_targeted_dists(args))
    return ScenarioSampler(_scenario_spec(args))


def _parse_sizes(spec: str, allocation: str) -> list[tuple[int, int]]:
    parts = spec.split(":")
    if len(parts) == 1:
        parts = [spec, spec, "1"]
    try:
        start, stop, step = (int(x) for x in parts)
        if step <= 0 or start < 1 or stop < start:
            raise ValueError
    except ValueError:
        raise DataError(f"bad --sizes {spec!r}; expected N or START:STOP:STEP") from None
    return [allocate(s, allocation) for s in range(start, stop + 1, step)]


def _engine_options(args) -> dict:
    """Keyword arguments that power and samplesize forward to the engine."""
    return {"tau": args.tau, "side": _SIDE_NAMES[args.side], "workers": args.workers}


def cmd_power(args) -> int:
    generator = _make_generator(args)
    sizes = _parse_sizes(args.sizes, args.allocation)
    estimates = power_curve(generator, args.test, sizes, args.alpha, args.reps, args.seed, **_engine_options(args))
    rows = ([e.m, e.n, e.test_id, repr(e.rate), repr(e.mc_se), e.reps, e.errors] for e in estimates)
    _write_csv(args.out, ["m", "n", "test", "rate", "mc_se", "reps", "errors"], rows)
    print(f"wrote {len(estimates)} rows -> {args.out}")
    return 0


def cmd_samplesize(args) -> int:
    generator = _make_generator(args)
    try:
        lo, hi = (int(x) for x in args.bounds.split(":"))
    except ValueError:
        raise DataError(f"bad --bounds {args.bounds!r}; expected LO:HI") from None
    result = sample_size_search(
        generator, args.test, args.target, args.allocation, args.alpha, args.reps, args.seed, (lo, hi),
        **_engine_options(args),
    )
    payload = {
        "m": result.m,
        "n": result.n,
        "allocation": result.allocation,
        "target": result.target,
        "achieved_power": {
            "rate": result.achieved_power.rate,
            "mc_se": result.achieved_power.mc_se,
            "reps": result.achieved_power.reps,
            "errors": result.achieved_power.errors,
        },
        "test": args.test,
        "alpha": args.alpha,
        "seed": args.seed,
    }
    if args.out:
        _write_json(args.out, payload)
    print(json.dumps(payload, indent=2))
    return 0


def _parse_float_list(spec: str) -> list[float]:
    try:
        values = [float(x) for x in spec.split(",") if x.strip()]
    except ValueError:
        values = []
    if not values:
        raise DataError(f"bad float list {spec!r}")
    return values


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError:
        raise DataError(f"bad --grid {spec!r}; expected START:STOP:STEP") from None
    if not step > 0 or not (0.0 < start <= stop < 1.0):
        raise DataError(f"bad --grid {spec!r}; need 0 < start <= stop < 1, step > 0")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return np.round(start + step * np.arange(count), 12)


def cmd_diagnose(args) -> int:
    data = read_dataset_csv(args.input)
    tau_fits = _parse_float_list(args.tau_fit)
    grid = _parse_grid(args.grid)
    fits = [adjusted_quantile_curves(data, tau_fit, grid) for tau_fit in tau_fits]
    rows = (
        [repr(float(v)) for v in (cv.tau_fit, p, qt, qc)]
        for cv in fits
        for p, qt, qc in zip(cv.grid, cv.curve_treat, cv.curve_control)
    )
    _write_csv(args.out, ["tau_fit", "prob", "quantile_treatment", "quantile_control"], rows)
    print(f"wrote {len(tau_fits) * len(grid)} rows -> {args.out}")
    return 0


def _add_generator_args(sub) -> None:
    sub.add_argument("--scenario", type=int, choices=(1, 2, 3, 4), default=None)
    sub.add_argument("--eta", type=float, default=0.0, help="tail inflation (0 = null, 1.35 = alternative)")
    sub.add_argument("--gamma", type=float, default=None, help="override the scenario's covariate coefficient")
    sub.add_argument("--targeted", action="store_true", help="use the empirical targeted design")
    sub.add_argument("--f", default=None, help="outcome distribution file (one value per line)")
    sub.add_argument("--g", default=None, help="covariate distribution file (one value per line)")


def _add_test_args(sub) -> None:
    sub.add_argument("--tau", type=float, default=0.75)
    sub.add_argument("--alpha", type=float, default=0.05)
    sub.add_argument("--side", choices=tuple(_SIDE_NAMES), default="two")


def _add_monte_carlo_args(sub) -> None:
    """Arguments shared by power and samplesize."""
    _add_generator_args(sub)
    sub.add_argument("--test", choices=TEST_IDS, required=True)
    sub.add_argument("--allocation", choices=ALLOCATIONS, default="equal")
    _add_test_args(sub)
    sub.add_argument("--reps", type=int, required=True)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--workers", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coves",
        description="Tail-focused two-sample treatment-effect testing with covariate adjustment",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("test", help="run a test on a z,d,c CSV dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=TEST_IDS, default="coves")
    _add_test_args(p)
    p.add_argument("--out", required=True, help="JSON report path")
    p.set_defaults(func=cmd_test)

    p = subs.add_parser("simulate", help="write a synthetic dataset CSV")
    _add_generator_args(p)
    p.add_argument("--m", type=int, required=True, help="treatment group size")
    p.add_argument("--n", type=int, required=True, help="control group size")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("power", help="rejection-rate curve over sample sizes")
    _add_monte_carlo_args(p)
    p.add_argument("--sizes", required=True, help="N or START:STOP:STEP (control-group size)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_power)

    p = subs.add_parser("samplesize", help="search for the size reaching a target power")
    _add_monte_carlo_args(p)
    p.add_argument("--target", type=float, default=0.9)
    p.add_argument("--bounds", default="5:500", help="LO:HI bracket for the control-group size")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_samplesize)

    p = subs.add_parser("diagnose", help="quantile curves of covariate-adjusted outcomes")
    p.add_argument("--input", required=True)
    p.add_argument("--tau-fit", dest="tau_fit", default=",".join(map(str, DEFAULT_TAU_FIT)))
    p.add_argument("--grid", default="0.01:0.99:0.01")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except (DataError, NumericalError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericalError) else 2


if __name__ == "__main__":
    sys.exit(main())
