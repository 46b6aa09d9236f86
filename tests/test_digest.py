"""tools/digest.py: --diff compares two written sweeps without the
package, its counters hook package functions without changing them, and
its signed-zero designs tie zeros of both signs where they claim to."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from coves import density, quantreg

ROOT = Path(__file__).resolve().parents[1]


def load_digest():
    spec = importlib.util.spec_from_file_location("digest", ROOT / "tools" / "digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


def test_diff_names_moved_design_without_package(tmp_path):
    old = {
        "fit_rq/a/tau0.5": {"hash": "aa"},
        "run_es/b/tau0.5": {"hash": "bb", "info": {"s_counts": [24, 25], "objective": 1.0, "p_value": 0.0565}},
    }
    new = {
        "fit_rq/a/tau0.5": {"hash": "aa"},
        "run_es/b/tau0.5": {"hash": "cc", "info": {"s_counts": [25, 25], "objective": 1.0, "p_value": 0.0402}},
    }
    (tmp_path / "old.json").write_text(json.dumps(old))
    (tmp_path / "new.json").write_text(json.dumps(new))
    # No PYTHONPATH and a working directory outside the repository, so
    # the coves package cannot be imported.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "digest.py"), "--diff", "old.json", "new.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert out.returncode == 1, out.stderr
    lines = out.stdout.splitlines()
    assert any(line.startswith("run_es/b/tau0.5: ") and "[25, 25]" in line for line in lines), out.stdout
    assert not any(line.startswith("fit_rq/a") for line in lines), out.stdout
    assert "run_es            1 differ" in lines and "fit_rq            0 differ" in lines, out.stdout


def test_instrument_hook_sees_arguments_and_result(monkeypatch):
    digest = load_digest()
    bandwidth = density.bandwidth_rot
    monkeypatch.setattr(density, "bandwidth_rot", bandwidth)
    x = np.array([0.3, -1.2, 0.9, 2.4, -0.5])
    want = density.group_density_at_zero(x)
    seen = []
    assert digest.instrument(density, {"bandwidth_rot": lambda result, *args: seen.append((result, args))})
    assert density.bandwidth_rot is not bandwidth
    assert density.group_density_at_zero(x) == want
    assert density.group_density_at_zero(2.0 * x) == density.kde_at_zero(2.0 * x, bandwidth(2.0 * x))
    (h1, args1), (h2, args2) = seen
    assert len(args1) == 1 and args1[0] is x and h1 == bandwidth(x)
    assert len(args2) == 1 and np.array_equal(args2[0], 2.0 * x) and h2 == bandwidth(2.0 * x)


def test_instrument_wraps_nothing_when_a_name_is_missing(monkeypatch):
    digest = load_digest()
    bandwidth = density.bandwidth_rot
    monkeypatch.setattr(density, "bandwidth_rot", bandwidth)
    seen = []
    assert not digest.instrument(density, {"bandwidth_rot": seen.append, "no_such_function": seen.append})
    assert density.bandwidth_rot is bandwidth
    density.group_density_at_zero(np.array([0.3, -1.2, 0.9]))
    assert seen == []


def test_counter_without_its_names_is_left_out(monkeypatch):
    digest = load_digest()
    for name in ("_kinks_to_stop", "_start_basis", "_key_edge", "_greedy_rows", "_walk"):
        monkeypatch.setattr(quantreg, name, getattr(quantreg, name))
    key_edge = quantreg._key_edge
    # The start pass is missing only while the counters are hooked in:
    # every fit runs it.
    with monkeypatch.context() as mp:
        mp.delattr(quantreg, "_greedy_rows")
        rows = digest.instrumented()
    assert [line.split(":")[0] for _, line in rows] == ["kink sorts", "band walks"]
    assert quantreg._key_edge is key_edge
    rng = np.random.default_rng(0)
    X = np.column_stack([np.ones(30), rng.normal(size=30)])
    rd = quantreg.RegressionData(rng.normal(size=30), X)
    quantreg.fit_rq(rd, 0.5)
    (kinks, line), (band, band_line) = rows
    assert kinks["pivots"] >= 1 and kinks["most"] == kinks["pivots"]
    text = line.format_map(kinks)
    assert text.startswith(f"kink sorts: {kinks['pivots']} pivots")
    assert f"at most {kinks['pivots']} in one fit" in text
    assert band_line.format_map(band).startswith("band walks: 0 of 1 fits, 0 handed over early")
    # With the band walk at every size, the most pivots of one fit count
    # both walks.
    monkeypatch.setattr(quantreg, "BAND_MIN_N", 0)
    before = kinks["pivots"]
    quantreg.fit_rq(rd, 0.5)
    assert kinks["most"] == max(kinks["pivots"] - before, before)
    assert band["walks"] == 1 and band["fits"] == 2
    # The band: the near set's floor(4 sqrt(30)) = 21 rows and the start
    # basis's rows.
    assert 21 <= band["largest"] <= 21 + 2
    assert band_line.format_map(band).endswith(
        f"{band['after']} pivots on all rows after the band, largest band {band['largest']} rows"
    )


def test_signed_zero_designs_tie_both_zeros_at_each_tau():
    digest = load_digest()
    designs = list(digest.signed_zero_draws())
    assert len(designs) == 36
    for name, data in designs:
        for in_group in data.groups:
            z = data.z[in_group]
            zeros = np.signbit(z[z == 0.0])
            assert z.size >= 100 and zeros.any() and not zeros.all(), name
            for tau in digest.SIGNED_ZERO_TAUS:
                assert quantreg._lower_end(z, tau) == 0.0, (name, tau)
