"""Every result but the KDE's has the same bits under each CPU kernel
numpy picks.

A child interpreter runs with numpy's X86_V3 and X86_V4 kernels
switched off, so that it runs the baseline (X86_V2) ones, and hashes the
same results as this process: the stand-in distributions, targeted
draws with their ``run_es``, ``run_ttest`` and (1, d, c) ``fit_rq``
results, and ``run_es`` on the digest's signed-zero designs.
``run_coves`` is left out: its KDE's ``np.exp`` rounds differently on
each kernel.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import coves
from coves.baselines import run_ttest
from coves.coves_test import design_matrix, run_es
from coves.quantreg import RegressionData, fit_rq
from coves.simgen import TargetedSampler, load_standin
from test_digest import load_digest

BASELINE_ONLY = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
TAUS = (0.5, 0.75, 0.9)


def results_hash() -> str:
    """sha256 of every result the kernels could move."""
    digest = load_digest()
    f, g = load_standin()
    results = [f.values, g.values]
    sampler = TargetedSampler(f, g)
    for m, n in ((24, 12), (99, 50)):
        for seed in range(10):
            data = sampler(m, n, seed)
            rd = RegressionData(data.z, design_matrix(data))
            results += [data.z, data.c, digest.call(run_ttest, data)]
            results += [digest.call(run_es, data, tau) for tau in TAUS]
            results += [digest.call(fit_rq, rd, tau) for tau in TAUS]
    for _, data in digest.signed_zero_draws():
        results += [digest.call(run_es, data, tau) for tau in digest.SIGNED_ZERO_TAUS]
    return digest.sha(results)


def power_kernel() -> str:
    """The kernel numpy's float64 power runs in this process."""
    from numpy.lib.introspect import opt_func_info

    return opt_func_info(func_name="^power$")["power"]["ddd"]["current"]


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="switches off x86 kernels")
def test_baseline_kernels_give_the_same_bits():
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=BASELINE_ONLY,
               PYTHONPATH=os.pathsep.join([str(Path(coves.__file__).resolve().parents[1]), str(tests)]))
    # numpy ignores a feature name it does not know, so the child first
    # checks that the switch took effect.
    child = subprocess.run(
        [sys.executable, "-c", "import test_cpu_kernels as t; print(t.power_kernel()); print(t.results_hash())"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    kernel, got = child.stdout.split()
    assert kernel == "baseline(X86_V2)"
    assert got == results_hash()
