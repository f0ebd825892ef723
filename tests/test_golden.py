"""CLI output against the corpus recorded in ``tests/golden``.

Every invocation of ``tests/golden/record.py`` (see its docstring for the
corpus) is run again here, JSON and CSV alike; a run without ``--format``
must match its command's default format. ``python tests/golden/record.py
--check`` is the byte-exact gate on one machine; these tests must pass on any
machine, so they allow the tolerances below.

Tracer outputs: the precision grid must be the same exactly; profiles may move
by 1e-9, and every stored residual must meet the solve tolerance and equal
``logit_residual`` of the printed profile. Certificate and decomposition
outputs: the form, seed, sample count, kind, ``n`` and ``lemma_bound`` must be
the same exactly; gaps, payoffs, probabilities and residuals within
``1e-12*max(1, |v|)``. ``verify``: the same check names, each PASS or FAIL
alike. Help screens: the same bytes. Error cases: the same exit code and
stderr, except the residual a stalled solve reports. The demos' stdout files
are gated by ``record.py --check`` alone; ``tests/test_demos.py`` runs the demos.
"""

import csv
import io
import json
import os
import re
import sys
import warnings

import numpy as np
import pytest

from logitgraph import logit_residual, parse_game

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
sys.path.insert(0, GOLDEN)
from record import cases, demo_cases, first_difference, invoke  # noqa: E402

TOL = 1e-10  # the CLI's default --tol, which recorded the corpus
CLOSE = 1e-12  # relative (above 1) agreement of certificate numbers


def _assert_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= CLOSE * np.maximum(1.0, np.abs(want)))


def _csv_rows(text):
    header, *rows = csv.reader(io.StringIO(text))
    return header, rows


def _append(nested, player, index, value):
    """Add ``value`` at ``nested[player][index]``; rows must come in that order."""
    if int(player) == len(nested):
        nested.append([])
    assert int(index) == len(nested[int(player)])
    nested[int(player)].append(float(value))


def _entries(command, ext, text):
    """Trace or solve output as a list of ``{"n", "x", "residual"}``."""
    if ext == "json":
        data = json.loads(text)
        return data["entries"] if command == "trace" else [data]
    header, rows = _csv_rows(text)
    assert header == ["n", "player", "action", "probability", "residual"]
    entries = []
    for n, player, action, probability, residual in rows:
        if not entries or entries[-1]["n"] != float(n):
            entries.append({"n": float(n), "x": [], "residual": float(residual)})
        assert float(residual) == entries[-1]["residual"]
        _append(entries[-1]["x"], player, action, probability)
    return entries


def _split(ext, text):
    """Decompose output as ``{"tilde_u", "bar_u"}``."""
    if ext == "json":
        return json.loads(text)
    header, rows = _csv_rows(text)
    assert header == ["player", "component", "index", "value"]
    out = {"tilde_u": [], "bar_u": []}
    for player, component, index, value in rows:
        _append(out[component], player, index, value)
    return out


def _study(ext, text):
    """Study output as its JSON object; the CSV carries only the rows."""
    if ext == "json":
        return json.loads(text)
    header, rows = _csv_rows(text)
    assert header == ["n", "sup_gap_x", "sup_gap_full", "lemma_bound"]
    return {"rows": [dict(zip(header, map(float, row))) for row in rows]}


def _inversion(ext, text):
    """Inversion output as ``{"payoffs", "x", "residual"}``, plus the rest of the JSON."""
    if ext == "json":
        data = json.loads(text)
        data["payoffs"] = data["game"].pop("payoffs")
        return data
    header, rows = _csv_rows(text)
    assert header == ["section", "player", "index", "value"]
    out = {"payoffs": [], "x": []}
    for section, player, index, value in rows:
        if section == "residual":
            out["residual"] = float(value)
        else:
            _append(out["payoffs" if section == "payoff" else "x"], player, index, value)
    return out


def _check_trace(command, ext, got, want, argv):
    got, want = _entries(command, ext, got), _entries(command, ext, want)
    assert [e["n"] for e in got] == [e["n"] for e in want]
    with open(argv[-1], "rb") as handle:
        game = parse_game(handle.read())
    for g, w in zip(got, want):
        for u, v in zip(g["x"], w["x"]):
            assert np.abs(np.array(u) - np.array(v)).max() <= 1e-9
            assert min(u) >= 0.0
        assert g["residual"] <= TOL
        with warnings.catch_warnings():
            # profiles near n = 400 carry entries that round to zero, which
            # logit_residual flags as boundary points; the value still counts
            warnings.simplefilter("ignore", RuntimeWarning)
            assert g["residual"] == logit_residual(game, g["x"], g["n"])


def _check_decompose(ext, got, want):
    got, want = _split(ext, got), _split(ext, want)
    assert sorted(got) == sorted(want)
    for key in want:
        assert len(got[key]) == len(want[key])
        for g, w in zip(got[key], want[key]):
            _assert_close(g, w)


def _check_study(ext, got, want):
    got, want = _study(ext, got), _study(ext, want)
    for key in ("form", "seed", "samples"):
        assert got.get(key) == want.get(key)
    assert len(got["rows"]) == len(want["rows"])
    for g, w in zip(got["rows"], want["rows"]):
        assert g["n"] == w["n"] and g["lemma_bound"] == w["lemma_bound"]
        _assert_close([g["sup_gap_x"], g["sup_gap_full"]], [w["sup_gap_x"], w["sup_gap_full"]])


def _check_inversion(ext, got, want):
    got, want = _inversion(ext, got), _inversion(ext, want)
    assert sorted(got) == sorted(want)
    assert got.get("kind") == want.get("kind") and got.get("n") == want.get("n")
    assert got.get("game") == want.get("game")
    assert len(got["payoffs"]) == len(want["payoffs"]) and len(got["x"]) == len(want["x"])
    for g, w in zip(got["payoffs"] + got["x"], want["payoffs"] + want["x"]):
        _assert_close(g, w)
    _assert_close(got["residual"], want["residual"])


def _checks(text):
    """(name, PASS or FAIL) of every line ``verify`` prints."""
    return [(line.split(" ", 1)[1].split(":", 1)[0], line.split(" ", 1)[0])
            for line in text.splitlines()]


def _mask_residual(stderr):
    return re.sub(r"at residual \S+", "at residual <r>", stderr)


CASES = cases()


@pytest.mark.parametrize(
    "file_name, argv",
    CASES,
    ids=[f"{name}-{argv[1] if argv[0] == '--format' else 'default'}" for name, argv in CASES],
)
def test_matches_golden(file_name, argv):
    with open(os.path.join(GOLDEN, file_name), encoding="utf-8") as handle:
        want = handle.read()
    code, got, err = invoke(argv)
    if file_name.endswith(".error.json"):
        want = json.loads(want)
        assert (code, got) == (want["exit_code"], "")
        assert _mask_residual(err) == _mask_residual(want["stderr"])
        return
    assert (code, err) == (0, "")
    command, ext = file_name.split(".")[-2:]
    if command in ("trace", "solve"):
        _check_trace(command, ext, got, want, argv)
    elif command == "decompose":
        _check_decompose(ext, got, want)
    elif command == "study":
        _check_study(ext, got, want)
    elif command.startswith("invert-"):
        _check_inversion(ext, got, want)
    elif command == "help":
        assert got == want
    else:
        assert command == "verify"
        assert _checks(got) == _checks(want)


def test_every_golden_file_is_a_case():
    recorded = {name for name, _ in CASES + demo_cases()}
    stored = {
        name for name in os.listdir(GOLDEN)
        if name.count(".") == 2
    }
    assert stored == recorded


def test_check_reports_the_first_differing_line():
    detail = first_difference(b"n,x\n1,0.25\n2,0.5\n", b"n,x\n1,0.26\n2,0.6\n")
    assert detail.splitlines() == [
        "  line 2, column 6",
        "    stored: '1,0.25\\n'",
        "    fresh:  '1,0.26\\n'",
    ]
    assert "line 3, column 1" in first_difference(b"a\nb\n", b"a\nb\nc\n")
    assert first_difference(None, b"a\n") == "  no stored file"
