"""tools/digest.py --diff compares two written sweeps without the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
