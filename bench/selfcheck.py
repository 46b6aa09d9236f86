"""Fast self-check of the benchmark's own code.

Usage (from the root of a checkout):  python3 bench/selfcheck.py

1. Runs every workload untraced and traced on tiny inputs and checks that
   each metric BENCHMARK.json names is emitted, with its unit, and that
   the run passes its own output checks.
2. Checks that the output checks fail when a recorded count, a replayed
   count, a repeated chunk's count, a recorded p-value or a CLI output
   hash is perturbed.

Takes about a minute; exits non-zero with a message on the first failure.
"""

from __future__ import annotations

import copy
import sys

import run  # pins the BLAS thread count before numpy is imported

sys.path.insert(0, str(run.SRC))

import workloads as w  # noqa: E402


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")


def check_emitted() -> None:
    w.MC["mc-small"] = w.McConfig(scenario=2, m=20, n=20, reps=3, chunks=2)
    w.MC["mc-large"] = w.McConfig(scenario=3, m=300, n=300, reps=2, chunks=2)
    w.SAMPLESIZE_REPS = 20
    w.SETUP_PROBES = 2
    for workload in w.WORKLOADS:
        for trace in (False, True):
            line, info, res = run.benchmark(workload, 1, 0.2, trace)
            units = run.declared_metrics(trace)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            require(got == units, f"{workload} trace={trace}: metrics {got} != declared {units}")
            for name, m in line["metrics"].items():
                require(isinstance(m["value"], (int, float)), f"{workload}: {name} is not a number")
            require(set(line) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            require(line["correct"] and line["attempted"] >= 1, f"{workload} trace={trace}: {res.problems}")
            require("src_sha256" in info and "host_ref_ms" in info, "manifest fields")
            print(f"ok  {workload} trace={int(trace)}: {len(got)} metrics, {line['attempted']} attempted")


def check_perturbed() -> None:
    cfg = w.MC["mc-small"]  # the recorded chunks
    gen = w.make_sampler(cfg)
    passes = w.mc_loop(cfg, gen, w.DEFAULT_SEED, 0.0, passes=cfg.chunks + 1)
    res = w.Result()
    w.check_mc(res, cfg, gen, w.DEFAULT_SEED, passes, "mc-small")
    require(res.failed == 0, f"unperturbed mc-small counts fail: {res.problems}")

    # Pass 0 disagrees with the direct replay, the record and its repeat
    # (pass `chunks`); pass 1 with the record; the repeat with pass 0.
    for k, test, expect in ((0, "coves", 3), (1, "es", 1), (cfg.chunks, "ttest", 1)):
        bad = copy.deepcopy(passes)
        wall, rej, err = bad[k][test]
        bad[k][test] = (wall, rej + 1, err)
        res = w.Result()
        w.check_mc(res, cfg, gen, w.DEFAULT_SEED, bad, "mc-small")
        require(res.failed == expect, f"perturbed pass {k} {test}: {res.failed} failures, {res.problems}")

    want = w.load_expected("mc-small")["es.p"]
    require(w.same_pvalues(list(want), want), "recorded p-values fail against themselves")
    for bad in (want[:-1], [want[0] * (1 + 1e-6), *want[1:]], [None, *want[1:]]):
        require(not w.same_pvalues(bad, want), "a perturbed p-value passes the check")

    hashes = w.load_expected(w.CLI_WORKLOAD)
    res = w.Result()
    w.check_hashes(res, w.DEFAULT_SEED, [{"hashes": hashes}, {"hashes": dict(hashes)}])
    require(res.failed == 0, f"recorded CLI hashes fail: {res.problems}")
    bad = dict(hashes, **{"samplesize.json": "0" * 64})
    for sessions in ([{"hashes": bad}], [{"hashes": hashes}, {"hashes": bad}]):
        res = w.Result()
        w.check_hashes(res, w.DEFAULT_SEED, sessions)
        require(res.failed == 1, f"perturbed CLI hash: {res.failed} failures")
    print("ok  output checks fail on perturbed counts, p-values and hashes")


if __name__ == "__main__":
    check_perturbed()
    check_emitted()
    print("selfcheck passed")
