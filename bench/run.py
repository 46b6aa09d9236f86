"""Benchmark of the coves package: Monte Carlo throughput and a cold-CLI session.

Usage (from the root of a checkout):

    python3 bench/run.py --workload mc-small --seed 1 --seconds 40 --trace 0

Workloads: ``mc-small`` and ``mc-large`` (listed, with their reasons, in
BENCHMARK.json) and ``cli-targeted``, a session of cold ``coves``
processes that runs the same way but is not listed there, because its
timings follow the host's slow phases (see workloads.py).  With
``--trace 0`` the last line of standard output reports the end-to-end
metrics, with ``--trace 1`` the per-layer metrics, as one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
is the run manifest.  Both, with the details behind them, are also
written to ``.bench_out/``.  All three workloads on the default seed,
which also checks the recorded outputs:

    for w in mc-small mc-large cli-targeted; do python3 bench/run.py --workload $w; done

``--record`` rewrites bench/expected.json, the default-seed counts,
p-values and output hashes that later runs on the default seed must
reproduce.
``python3 bench/selfcheck.py`` checks the benchmark's own code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# Pinned before numpy is imported here or in any child process, so that
# no workload runs more threads than it has processes (the pooled one
# runs two processes of one thread each).
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def host_ref_ms() -> float:
    """Median time of a fixed reference kernel that does not use coves.

    Recorded before and after each run to make a slower shared CPU
    visible; no metric is normalised by it.
    """
    import numpy as np

    a = np.arange(300 * 300, dtype=float).reshape(300, 300) / 7.0
    times = []
    for _ in range(7):
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        (a @ a).sum()
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def cpu_info() -> dict:
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    return {"cpu_model": model, **caches}


def source_digest() -> str:
    """sha256 over the package sources, the commit identity when git is absent."""
    h = hashlib.sha256()
    for path in sorted((SRC / "coves").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def manifest() -> dict:
    """What reproduces a run: code, library versions and the machine."""
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **cpu_info(),
        "blas_threads": BLAS_THREADS,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def record() -> None:
    """Default-seed counts, chunk-0 p-values and CLI output hashes at the current commit."""
    import workloads as w

    expected = {}
    for name, cfg in w.MC.items():
        gen = w.make_sampler(cfg)
        rows = w.mc_loop(cfg, gen, w.DEFAULT_SEED, 0.0, passes=cfg.chunks)
        expected[name] = {t: [list(row[t][1:]) for row in rows] for t in w.TESTS}
        for t in w.TESTS:
            expected[name][f"{t}.p"] = w.direct_replay(cfg, gen, w.chunk_seed(w.DEFAULT_SEED, 0), t)[3]
    workdir = w.OUT / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        (session,) = w.run_sessions(w.DEFAULT_SEED, [(workdir, False)])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if any(session["codes"].values()):
        raise SystemExit(f"session failed: {session['codes']}")
    expected[w.CLI_WORKLOAD] = session["hashes"]
    lines = [
        f'  "{workload}/{key}": {json.dumps(value, separators=(",", ":"))}'
        for workload, per_key in expected.items()
        for key, value in per_key.items()
    ]
    with open(w.EXPECTED, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def benchmark(workload: str, seed: int, seconds: float, trace: bool):
    """One run: (result line, manifest, workloads.Result)."""
    import workloads

    ref_before = host_ref_ms()
    probes = None if trace else workloads.SetupProbes(workload, seconds, workloads.SETUP_PROBES)
    res = workloads.run(workload, seed, seconds, trace, probes)
    if probes is not None:
        res.metrics["setup_s"] = probes.median()
    ref_after = host_ref_ms()

    units = declared_metrics(trace)
    missing = sorted(set(units) - set(res.metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    line = {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": res.metrics[k], "unit": u} for k, u in units.items()},
    }
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        **manifest(),
        "host_ref_ms": {"before": ref_before, "after": ref_after},
    }
    workloads.OUT.mkdir(exist_ok=True)
    out_path = workloads.OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"manifest": info, "result": line, "problems": res.problems,
                   "details": res.details}, fh, indent=1)
    return line, info, res


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("mc-small", "mc-large", "cli-targeted"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite bench/expected.json")
    args = parser.parse_args()
    if not (SRC / "coves" / "__init__.py").is_file():
        print(f"error: no coves package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    sys.path.insert(0, str(SRC))
    if args.record:
        record()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    line, info, res = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in res.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"manifest": info}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
