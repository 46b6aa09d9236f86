"""Package-level contracts: import footprint and the benchmark's trace targets."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import coves

ROOT = Path(__file__).resolve().parents[1]


def test_import_leaves_scipy_stats_unloaded():
    # A fresh interpreter: the test modules themselves import scipy.stats.
    env = dict(os.environ)
    src = str(Path(coves.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, coves; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_bench_trace_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracer = importlib.import_module("tracer")
    for mod_name, attr in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(f"coves.{mod_name}"), attr)), (mod_name, attr)
    simgen = importlib.import_module("coves.simgen")
    for cls_name in tracer.SAMPLERS:
        assert callable(getattr(simgen, cls_name).__call__), cls_name


def test_bench_trace_sees_every_replication_layer(monkeypatch):
    # The targets are looked up through their module globals at call time,
    # so a traced run records a span for each layer it passes through.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracer = importlib.import_module("tracer")
    from coves import mc_engine
    from coves.simgen import ScenarioSampler, ScenarioSpec

    gen = ScenarioSampler(ScenarioSpec.from_scenario(2, 0.0))
    t = tracer.Tracer().install()
    try:
        for test in ("coves", "es", "ttest"):
            mc_engine.power_curve(gen, test, [(20, 20)], 0.05, 2, 0)
    finally:
        t.uninstall()
    names = {s["name"] for s in t.records()}
    want = {
        "mc_engine.power_curve",
        "mc_engine.estimate_rejection_rate",
        "mc_engine.replication_seed",
        "mc_engine.run_coves",
        "mc_engine.run_es",
        "mc_engine.run_ttest",
        "simgen.Dataset",
        "simgen.ScenarioSampler.__call__",
        "coves_test.RegressionData",
        "coves_test.fit_rq",
        "coves_test.group_density_at_zero",
    }
    assert want <= names, want - names
