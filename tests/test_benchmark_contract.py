"""What the benchmark's traced run needs from the program, checked before the benchmark runs.

``perfbench/run.py`` exits 1 in a traced run, with nothing measured, when
either of two steps fails:

- ``import_times`` reads ``python -X importtime -c "import logitgraph.cli"`` and
  looks up the ``numpy`` line. If ``logitgraph.cli`` stopped importing numpy,
  that lookup raises KeyError.
- The warm-up op runs once through ``perfbench/shim.py`` and the runner then
  deletes the spans file it wrote. If a layer module that the shim wraps does
  not import, no file is written and the delete fails.

Both steps run here as the benchmark runs them, each in a fresh process from
the repo root, so a change that would break the benchmark fails tier-1 first.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IMPORT_TIMES = (
    "import sys; sys.path.insert(0, 'perfbench'); import run; "
    "print(run.import_times(run.child_env()))"
)


def run(argv, env=None):
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_import_times_finds_numpy_and_the_package():
    result = run([sys.executable, "-c", IMPORT_TIMES])
    assert result.returncode == 0, result.stderr


def test_traced_warm_up_op_writes_its_spans(tmp_path):
    spans = tmp_path / "spans.npz"
    argv = [sys.executable, "perfbench/shim.py", str(spans), "0", "decompose",
            "demos/games/matching_pennies.json"]
    result = run(argv, dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert result.returncode == 0, result.stderr
    assert spans.exists()
