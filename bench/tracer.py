"""Outside-in span recorder for the coves package.

``install`` replaces the public names that callers bind (module globals
and sampler ``__call__`` methods) with thin wrappers that record one
span per call: binding name, start, end, parent span and an optional
attribute.  Spans are kept in memory; ``Tracer.dump`` writes them out at
the end.  No file of the package is edited.

A span's self time is its duration minus the durations of its direct
children.  Calls are single-threaded within a process, so a stack gives
each span its parent.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter


# (module, attribute) rebound by ``install``; the span name is
# "<module>.<attribute>" and the layer is the function behind the name.
TARGETS = {
    ("mc_engine", "power_curve"): "mc_engine.power_curve",
    ("mc_engine", "estimate_rejection_rate"): "mc_engine.estimate",
    ("mc_engine", "replication_seed"): "mc_engine.seed",
    ("mc_engine", "run_coves"): "coves_test.run",
    ("mc_engine", "run_es"): "coves_test.run",
    ("mc_engine", "run_ttest"): "baselines.run_ttest",
    ("simgen", "Dataset"): "coves_test.Dataset",
    ("coves_test", "RegressionData"): "quantreg.RegressionData",
    ("coves_test", "fit_rq"): "quantreg.fit_rq",
    ("coves_test", "group_density_at_zero"): "density.kde",
    ("diagnostics", "RegressionData"): "quantreg.RegressionData",
    ("diagnostics", "fit_rq"): "quantreg.fit_rq",
    ("cli", "read_dataset_csv"): "cli.read_dataset_csv",
    ("cli", "adjusted_quantile_curves"): "diagnostics.curves",
    ("cli", "run_coves"): "coves_test.run",
    ("cli", "run_es"): "coves_test.run",
    ("cli", "run_ttest"): "baselines.run_ttest",
    ("cli", "sample_targeted"): "simgen.sample",
    ("cli", "sample_size_search"): "mc_engine.search",
}
SAMPLERS = ("ScenarioSampler", "TargetedSampler")


def _fit_attr(result, args, kwargs):
    """1 when the fit is a vertex: at least p residuals on the plane."""
    data = args[0]
    return int(result.zero_set.size >= data.X.shape[1])


def _estimate_attr(result, args, kwargs):
    """Probe identity and outcome, enough to replay it serially."""
    _, test_id, m, n, alpha, reps, seed = args[:7]
    return {
        "test": test_id,
        "m": m,
        "n": n,
        "alpha": alpha,
        "reps": reps,
        "seed": seed,
        "size_index": kwargs.get("size_index", 0),
        "tau": kwargs.get("tau", 0.75),
        "side": kwargs.get("side", "two-sided"),
        "workers": kwargs.get("workers"),
        "rejections": round(result.rate * result.reps),
        "errors": result.errors,
    }


ATTRS = {"quantreg.fit_rq": _fit_attr, "mc_engine.estimate": _estimate_attr}


class Tracer:
    """In-memory span list: (name, layer, start, end, parent, error, attr)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, layer: str, fn):
        spans, stack = self.spans, self._stack
        attr_fn = ATTRS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, layer, t0, t1, parent, type(exc).__name__, None)
                raise
            t1 = perf_counter()
            stack.pop()
            attr = attr_fn(out, args, kwargs) if attr_fn else None
            spans[idx] = (name, layer, t0, t1, parent, None, attr)
            return out

        return traced

    def install(self) -> "Tracer":
        """Rebind every target name; ``uninstall`` restores the originals."""
        import importlib

        for (mod_name, attr), layer in TARGETS.items():
            mod = importlib.import_module(f"coves.{mod_name}")
            orig = getattr(mod, attr)
            self._undo.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(f"{mod_name}.{attr}", layer, orig))
        simgen = importlib.import_module("coves.simgen")
        for cls_name in SAMPLERS:
            cls = getattr(simgen, cls_name)
            orig = cls.__call__
            self._undo.append((cls, "__call__", orig))
            cls.__call__ = self.wrap(f"simgen.{cls_name}.__call__", "simgen.sampler", orig)
        return self

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own (for harness-level spans)."""
        return self.wrap(name, layer, fn)(*args, **kwargs)

    def records(self) -> list[dict]:
        return [
            {
                "name": s[0],
                "layer": s[1],
                "start": s[2],
                "end": s[3],
                "parent": s[4],
                "error": s[5],
                "attr": s[6],
            }
            for s in self.spans
        ]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.records(), fh)


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
