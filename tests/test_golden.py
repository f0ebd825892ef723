"""CLI ``trace`` and ``solve`` output against the corpus recorded in ``tests/golden``.

The corpus holds the JSON stdout of ``trace --n-final 400`` and ``solve --n
10`` for the demo games and two seeded pairwise zero-sum games (regenerate
with ``python tests/golden/record.py``). The precision grid must be the same
exactly; profiles may move in the last digits, and every stored residual must
meet the solve tolerance and equal ``logit_residual`` of the printed profile.
"""

import io
import json
import os
import sys
import warnings

import numpy as np
import pytest

from logitgraph import logit_residual, parse_game
from logitgraph.cli import run_cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
sys.path.insert(0, GOLDEN)
from record import COMMANDS, game_paths  # noqa: E402

TOL = 1e-10  # the CLI's default --tol, which recorded the corpus


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name", sorted(game_paths()))
def test_matches_golden(name, command):
    path = game_paths()[name]
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(["--format", "json"] + COMMANDS[command] + [path], stdout=out, stderr=err)
    assert code == 0, err.getvalue()
    with open(os.path.join(GOLDEN, f"{name}.{command}.json"), encoding="utf-8") as handle:
        want = json.load(handle)
    got = json.loads(out.getvalue())
    if command == "trace":
        got, want = got["entries"], want["entries"]
    else:
        got, want = [got], [want]
    assert [e["n"] for e in got] == [e["n"] for e in want]
    with open(path, "rb") as handle:
        game = parse_game(handle.read())
    for g, w in zip(got, want):
        for u, v in zip(g["x"], w["x"]):
            assert np.abs(np.array(u) - np.array(v)).max() <= 1e-9
        assert g["residual"] <= TOL
        with warnings.catch_warnings():
            # profiles near n = 400 carry entries that round to zero, which
            # logit_residual flags as boundary points; the value still counts
            warnings.simplefilter("ignore", RuntimeWarning)
            assert g["residual"] == logit_residual(game, g["x"], g["n"])
