"""``cli.main`` in a real process: the same bytes and exit codes as ``run_cli``.

``main`` ends its process with ``os._exit``, so these tests never call it in
this interpreter; they start ``python -m logitgraph.cli`` (or a ``python -c``
wrapper around ``main``) and compare with ``run_cli`` run here.
"""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from logitgraph.cli import run_cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
PENNIES = str(ROOT / "demos" / "games" / "matching_pennies.json")
ZEROSUM = str(GOLDEN / "zerosum_3x3x3.json")
# argparse wraps --help to the terminal width; pin it on both sides. Without
# PYTHONUNBUFFERED, stdout on a pipe is block-buffered, as for most users, so a
# small output reaches the pipe only in main's flush.
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
ENV.pop("PYTHONUNBUFFERED", None)


def process(argv, stdout=subprocess.PIPE, env=ENV):
    """(exit code, stdout bytes, stderr bytes) of ``python -m logitgraph.cli argv``."""
    result = subprocess.run(
        [sys.executable, "-m", "logitgraph.cli", *argv],
        env=env,
        stdout=stdout,
        stderr=subprocess.PIPE,
        timeout=120,
    )
    return result.returncode, result.stdout, result.stderr


def in_process(argv):
    """(exit code, stdout bytes, stderr bytes) of ``run_cli`` in this interpreter."""
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, stdout=out, stderr=err)
    return code, out.getvalue().encode(), err.getvalue().encode()


def wrapped(prelude, argv):
    """``python -c`` running ``prelude`` and then ``main()`` on ``argv``."""
    code = f"{prelude}\nimport sys\nsys.argv[1:] = {argv!r}\nfrom logitgraph.cli import main\nmain()\n"
    return subprocess.run(
        [sys.executable, "-c", code], env=ENV, capture_output=True, timeout=120
    )


@pytest.mark.parametrize(
    "argv, expected_code",
    [
        (["trace", "--n-final", "400", ZEROSUM], 0),
        (["solve", "--n"], 1),
        (["--help"], 0),
        (["trace", "-h"], 0),
        (["decompose", "/nonexistent/game.json"], 1),
        (["invert-logit", "--n", "1e6", "--tol", "1e-30", str(GOLDEN / "target_stall.json")], 2),
        # forms the command path's reader leaves to argparse
        (["trace", "--n-f", "400", ZEROSUM], 0),
        (["--format=json", "solve", "--n", "1", PENNIES], 0),
        (["trace", "--n-final", "400", "-h"], 0),
        (["--format", "xml", "decompose", PENNIES], 1),
    ],
)
def test_process_matches_run_cli(argv, expected_code, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = in_process(argv)
    assert expected[0] == expected_code
    assert process(argv) == expected


def test_out_file_is_complete_and_stdout_empty(tmp_path):
    argv = ["trace", "--n-final", "400", ZEROSUM, "--out"]
    assert in_process(argv + [str(tmp_path / "here.csv")]) == (0, b"", b"")
    assert process(argv + [str(tmp_path / "there.csv")]) == (0, b"", b"")
    text = (tmp_path / "here.csv").read_bytes()
    assert text.startswith(b"n,player,action,probability,residual\n")
    assert (tmp_path / "there.csv").read_bytes() == text


def test_output_larger_than_a_pipe_buffer_arrives_complete():
    argv = ["trace", "--n-final", "1e308", PENNIES]
    code, out, err = in_process(argv)
    assert code == 0 and err == b"" and len(out) > 65536
    assert process(argv) == (code, out, err)


def test_overflowing_precision_writes_one_diagnosis_line():
    # n*x overflows in the inversion; numpy's RuntimeWarnings used to precede the diagnosis
    code, out, err = process(["invert-logit", "--n", "1e308", str(GOLDEN / "target_2x3.json")])
    assert (code, out) == (2, b"")
    assert err.startswith(b"convergence failure: ") and err.count(b"\n") == 1 and err.endswith(b"\n")


@pytest.mark.parametrize("command", [["trace", "--n-final", "400"], ["solve", "--n", "400"], ["verify"]])
def test_overflowing_payoffs_write_one_diagnosis_line(tmp_path, command):
    # n*max|u| overflows in the tracer's corrector; numpy's RuntimeWarnings used to precede the diagnosis
    game = tmp_path / "pennies.json"
    game.write_text('{"players": 2, "actions": [2, 2], "payoffs": [[1e308, -1e308, -1e308, 1e308], '
                    '[-1e308, 1e308, 1e308, -1e308]]}')
    code, out, err = process(command + [str(game)])
    diagnosis = b"convergence failure: step size underflow near n=3.59"
    if command == ["verify"]:  # every check still reports; the tracer's diagnosis fails game-logit-solve
        lines = out.splitlines()
        assert (code, err, len(lines)) == (1, b"", 15)
        assert all(line.startswith(b"PASS ") for line in lines[:14])
        assert lines[14].startswith(b"FAIL game-logit-solve: " + diagnosis)
        return
    assert (code, out) == (2, b"")
    assert err.startswith(diagnosis) and err.count(b"\n") == 1 and err.endswith(b"\n")


def test_atexit_handler_registered_before_main_runs(tmp_path):
    marker = tmp_path / "marker"
    prelude = f"import atexit\natexit.register(lambda: open({str(marker)!r}, 'w').write('ran'))"
    result = wrapped(prelude, ["decompose", PENNIES])
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == in_process(["decompose", PENNIES])[1]
    assert marker.read_text() == "ran"


def test_unexpected_exception_keeps_its_traceback():
    prelude = (
        "from logitgraph import cli\n"
        "def broken(args):\n"
        "    raise RuntimeError('injected')\n"
        "cli._dispatch = broken"
    )
    result = wrapped(prelude, ["decompose", PENNIES])
    assert result.returncode == 1 and result.stdout == b""
    assert result.stderr.startswith(b"Traceback (most recent call last):\n")
    assert result.stderr.endswith(b"RuntimeError: injected\n")


@pytest.mark.parametrize(
    "argv, env",
    [
        (["decompose", PENNIES], ENV),
        (["trace", "--n-final", "1e308", PENNIES], ENV),
        (["--help"], dict(ENV, PYTHONUNBUFFERED="1")),
    ],
    ids=["flush", "write", "help"],
)
def test_stdout_without_a_reader_exits_one_without_a_traceback(argv, env):
    # small outputs fail in main's flush, large ones in run_cli's write; an
    # unbuffered --help fails in the write that argparse's own printer swallowed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, _, err = process(argv, stdout=write_end, env=env)
    finally:
        os.close(write_end)
    assert code == 1
    assert err == b"error: cannot write output: Broken pipe\n"

