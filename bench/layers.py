"""Per-layer metrics from recorded spans.

Every metric is computed from span durations and self times (duration
minus direct children), so the layers' self times partition the traced
wall time up to what the harness itself spends outside any span.
"""

from __future__ import annotations

import statistics

from tracer import self_times

# Exception classes a replication can raise, counted by serial replay.
ERROR_CLASSES = (
    "NumericalError",
    "DegenerateDesignError",
    "ConvergenceError",
    "DegenerateSpreadError",
    "EmptyShortfallError",
    "DegenerateDensityError",
)
REPLICATION_LAYERS = ("coves_test.run", "baselines.run_ttest", "simgen.sampler")


def merge(span_lists: list[list[dict]]) -> list[dict]:
    """Concatenate span lists from separate processes, re-basing parents."""
    out: list[dict] = []
    for spans in span_lists:
        base = len(out)
        for s in spans:
            out.append(dict(s, parent=s["parent"] + base if s["parent"] >= 0 else -1))
    return out


def _mean(values: list[float], what: str) -> float:
    return statistics.fmean(_nonempty(values, what))


def _nonempty(values: list, what: str) -> list:
    if not values:
        raise ValueError(f"no spans recorded for {what}")
    return values


def _p99(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def _serial_estimate(span: dict) -> bool:
    return span["layer"] == "mc_engine.estimate" and not (span["attr"]["workers"] or 0) > 1


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Layer metrics over all spans; see BENCHMARK.json for definitions."""
    own = self_times(spans)
    dur = [s["end"] - s["start"] for s in spans]
    by_layer: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_layer.setdefault(s["layer"], []).append(i)

    def durs(layer):
        return [dur[i] for i in by_layer.get(layer, ())]

    def selfs(layer):
        return [own[i] for i in by_layer.get(layer, ())]

    # Index of the enclosing serial coves/es estimate, if any, per span.
    est_of = [-1] * len(spans)
    for i, s in enumerate(spans):
        p = s["parent"]
        if p >= 0:
            est_of[i] = p if _serial_estimate(spans[p]) else est_of[p]
    serial = [i for i in by_layer.get("mc_engine.estimate", ()) if _serial_estimate(spans[i])]
    adj = {i for i in serial if spans[i]["attr"]["test"] in ("coves", "es")}

    fits = by_layer.get("quantreg.fit_rq", [])
    fit_in_adj = sum(dur[i] for i in fits if est_of[i] in adj)
    reps = sum(spans[i]["attr"]["reps"] for i in serial)
    engine_self = sum(own[i] for i in serial) + sum(selfs("mc_engine.power_curve"))
    done_fits = [spans[i]["attr"] for i in fits if spans[i]["error"] is None]

    errors = {c: 0 for c in ERROR_CLASSES}
    for layer in REPLICATION_LAYERS:
        for i in by_layer.get(layer, ()):
            if est_of[i] >= 0 and spans[i]["error"] in errors:
                errors[spans[i]["error"]] += 1

    out = {
        "quantreg.fit_ms": 1e3 * _mean(durs("quantreg.fit_rq"), "fit_rq"),
        "quantreg.fit_p99_ms": 1e3 * _p99(durs("quantreg.fit_rq")),
        "quantreg.fit_share": fit_in_adj / sum(dur[i] for i in adj),
        "quantreg.validate_ms": 1e3 * _mean(durs("quantreg.RegressionData"), "RegressionData"),
        "quantreg.vertex_share": _mean(done_fits, "fit_rq results"),
        "coves_test.validate_ms": 1e3 * _mean(durs("coves_test.Dataset"), "Dataset"),
        "coves_test.self_ms": 1e3 * _mean(selfs("coves_test.run"), "run_coves/run_es"),
        "density.kde_ms": 1e3 * _mean(durs("density.kde"), "group_density_at_zero"),
        "simgen.sample_ms": 1e3 * _mean(selfs("simgen.sampler"), "sampler __call__"),
        "baselines.ttest_ms": 1e3 * _mean(durs("baselines.run_ttest"), "run_ttest"),
        "mc_engine.seed_us": 1e6 * _mean(durs("mc_engine.seed"), "replication_seed"),
        "mc_engine.self_us": 1e6 * engine_self / reps,
        "cli.import_s": statistics.median(durs("cli.import")),
        "cli.read_csv_ms": 1e3 * _mean(durs("cli.read_dataset_csv"), "read_dataset_csv"),
        # The CLI's own time per process: argument parsing, output
        # formatting, interpreter start-up and exit.
        "cli.self_s": (sum(selfs("cli.main")) + sum(selfs("cli.process")))
        / len(_nonempty(by_layer.get("cli.process", []), "cli.process")),
        "diagnostics.curves_ms": 1e3 * _mean(selfs("diagnostics.curves"), "adjusted_quantile_curves"),
    }
    for cls, count in errors.items():
        out[f"mc_engine.errors.{cls}"] = count
    return out
