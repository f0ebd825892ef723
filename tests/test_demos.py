"""Every demo script, and README's library quick start, runs to completion against this source tree.

Each runs with RuntimeWarning raised as an error, the gate the test suite
sets for itself, so an overflow or NaN in a demo fails here too.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args):
    """Run ``python -W error::RuntimeWarning *args`` from the repo root against ``src``."""
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script):
    result = run_python(str(script))
    assert result.returncode == 0, result.stderr
    if script.name == "05_certificates.py":
        reports = [
            json.loads(line)
            for line in result.stdout.splitlines()
            if line.startswith("{") and '"expected_rank"' in line
        ]
        assert reports and all(r["passed"] is True for r in reports)


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0.0\n"
