"""CLI output against the corpus recorded in ``tests/golden``.

The corpus holds the JSON stdout of ``trace --n-final 400`` and ``solve --n
10`` for the demo games and two seeded pairwise zero-sum games, of ``study``
on two seeded forms, and of ``invert-nash`` and ``invert-logit --n 10`` on two
seeded targets (regenerate with ``python tests/golden/record.py``).

Tracer outputs: the precision grid must be the same exactly; profiles may move
in the last digits, and every stored residual must meet the solve tolerance
and equal ``logit_residual`` of the printed profile. Certificate outputs: the
form, seed, sample count, kind, ``n`` and ``lemma_bound`` must be the same
exactly; gaps, payoffs, probabilities and residuals within
``1e-12*max(1, |v|)``.
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
from record import COMMANDS, STUDIES, TARGET_COMMANDS, game_paths, target_paths  # noqa: E402

TOL = 1e-10  # the CLI's default --tol, which recorded the corpus
CLOSE = 1e-12  # relative (above 1) agreement of certificate numbers


def _run_json(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(["--format", "json"] + argv, stdout=out, stderr=err)
    assert code == 0, err.getvalue()
    return json.loads(out.getvalue())


def _load(name, command):
    with open(os.path.join(GOLDEN, f"{name}.{command}.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _assert_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= CLOSE * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name", sorted(game_paths()))
def test_matches_golden(name, command):
    path = game_paths()[name]
    got, want = _run_json(COMMANDS[command] + [path]), _load(name, command)
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


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_study_matches_golden(name):
    got, want = _run_json(STUDIES[name]), _load(name, "study")
    for key in ("form", "seed", "samples"):
        assert got[key] == want[key]
    assert len(got["rows"]) == len(want["rows"])
    for g, w in zip(got["rows"], want["rows"]):
        assert g["n"] == w["n"] and g["lemma_bound"] == w["lemma_bound"]
        _assert_close([g["sup_gap_x"], g["sup_gap_full"]], [w["sup_gap_x"], w["sup_gap_full"]])


@pytest.mark.parametrize("command", sorted(TARGET_COMMANDS))
@pytest.mark.parametrize("name", sorted(target_paths()))
def test_inversion_matches_golden(name, command):
    got = _run_json(TARGET_COMMANDS[command] + [target_paths()[name]])
    want = _load(name, command)
    assert sorted(got) == sorted(want)
    assert got["kind"] == want["kind"] and got.get("n") == want.get("n")
    assert {k: v for k, v in got["game"].items() if k != "payoffs"} == {
        k: v for k, v in want["game"].items() if k != "payoffs"
    }
    for g, w in zip(got["game"]["payoffs"] + got["x"], want["game"]["payoffs"] + want["x"]):
        _assert_close(g, w)
    _assert_close(got["residual"], want["residual"])
