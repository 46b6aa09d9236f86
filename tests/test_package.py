"""Package-level contracts: import footprint, the benchmark's trace targets and
where the treated/control split is made."""

import ast
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


def test_all_names_resolve():
    assert [name for name in coves.__all__ if not hasattr(coves, name)] == []
    namespace = {}
    exec("from coves import *", namespace)
    assert set(coves.__all__) <= namespace.keys()


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


def _group_split_sites(path: Path) -> list[str]:
    """Each comparison of ``d`` and each count of ``d`` in a module, outside
    ``Dataset.__post_init__``, as ``file:line: source``."""
    source = path.read_text()
    tree = ast.parse(source)
    exempt = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "Dataset"
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
        for node in ast.walk(fn)
    }

    def is_d(node):
        return (isinstance(node, ast.Name) and node.id == "d") or (
            isinstance(node, ast.Attribute) and node.attr == "d"
        )

    sites = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        compared = isinstance(node, ast.Compare) and any(map(is_d, [node.left, *node.comparators]))
        counted = (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "count_nonzero"
            and any(map(is_d, node.args))
        )
        if compared or counted:
            sites.append(f"{path.name}:{node.lineno}: {ast.get_source_segment(source, node)}")
    return sites


def test_group_split_is_made_once():
    # Dataset validation splits the rows into (treated, control) masks and
    # counts them; every other layer reads Dataset.groups, n_treat and
    # n_control.  simgen builds d, so it is the one other module that reads it.
    package = Path(coves.__file__).resolve().parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "simgen.py")
    assert modules
    assert [site for path in modules for site in _group_split_sites(path)] == []


def _rebound_names(path: Path) -> list[str]:
    """Each class or function name that a module body or a class body binds
    a second time, as ``file:line: name``."""
    tree = ast.parse(path.read_text())
    bodies = [tree.body, *(node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef))]
    rebound = []
    for body in bodies:
        seen = set()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name in seen:
                    rebound.append(f"{path.name}:{node.lineno}: {node.name}")
                seen.add(node.name)
    return rebound


def test_no_test_name_is_bound_twice():
    # The later binding replaces the earlier one, so pytest never collects
    # the tests of the first class or the first function of that name.
    modules = sorted((ROOT / "tests").glob("test_*.py"))
    assert modules
    assert [site for path in modules for site in _rebound_names(path)] == []
