"""Every demo script runs to completion against this source tree.

Each runs with RuntimeWarning raised as an error, the gate the test suite
sets for itself, so an overflow or NaN in a demo fails here too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    if script.name == "05_certificates.py":
        reports = [
            json.loads(line)
            for line in result.stdout.splitlines()
            if line.startswith("{") and '"expected_rank"' in line
        ]
        assert reports and all(r["passed"] is True for r in reports)
