"""The number of payoff contractions a fixed piece of work makes.

``games._contract`` is the library's only payoff contraction, so its call
count is a machine-independent measure of the work a trace, the property
suite or a study does. A change that should leave the work alone must leave
these counts alone too. The tracer's corrector builds one Jacobian
(``solver._homotopy``) per iterate, so its call count measures a trace's work
in the same way. ``maps._invert_rows`` is the only softmax-displacement
inverse, so its call count measures how many row batches the work is cut into.
Start-up work is counted too: the source text a fresh process generates and
executes while it imports the package.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import logitgraph
import logitgraph.solver
from logitgraph import (
    StrategicGameForm,
    approximation_gap,
    convergence_study,
    immersion_rank_check,
    phi,
    phi_inv,
    phi_n_inv,
    run_property_suite,
    sample_target_points,
    trace_logit_path,
)
from logitgraph.games import _contract
from logitgraph.maps import _invert_rows
from conftest import (
    ZERO_SUM_SHAPES,
    coordination_2x2,
    matching_pennies,
    one_player_game,
    random_game,
    zero_sum_games,
)


def _count_calls(monkeypatch, name, function):
    """A one-element list counting calls of ``function`` from every module that holds it as ``name``."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return function(*args)

    for info in pkgutil.iter_modules(logitgraph.__path__):
        module = importlib.import_module(f"logitgraph.{info.name}")
        if getattr(module, name, None) is function:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def contractions(monkeypatch):
    """A one-element list counting ``_contract`` calls."""
    return _count_calls(monkeypatch, "_contract", _contract)


@pytest.fixture
def inversions(monkeypatch):
    """A one-element list counting ``_invert_rows`` calls: one per row batch inverted."""
    return _count_calls(monkeypatch, "_invert_rows", _invert_rows)


@pytest.fixture
def jacobians(monkeypatch):
    """A one-element list counting ``solver._homotopy`` calls: one per corrector iterate."""
    calls = [0]
    homotopy = logitgraph.solver._homotopy

    def counted(*args):
        calls[0] += 1
        return homotopy(*args)

    monkeypatch.setattr(logitgraph.solver, "_homotopy", counted)
    return calls


def _seeded(shape, seed):
    return random_game(np.random.default_rng(seed), StrategicGameForm(shape), box=1.0)


@pytest.mark.parametrize(
    "make, expected",
    [
        (coordination_2x2, 50),
        (matching_pennies, 50),
        (lambda: one_player_game([1.0, 0.0]), 16),
        (lambda: _seeded((3, 3, 3), 1007), 1122),
        (lambda: _seeded((4, 4, 4), 1000), 1110),
    ],
    ids=["coordination", "pennies", "one-player", "3x3x3-1007", "4x4x4-1000"],
)
def test_trace_contractions(contractions, make, expected):
    game = make()
    trace_logit_path(game, 400.0)
    assert contractions[0] == expected


# pairwise zero-sum games drawn in form order from one default_rng(1000), as the
# benchmark corpus draws them (one branch without a fold each)
ZERO_SUM = dict(zip(ZERO_SUM_SHAPES, zero_sum_games(1000)))
TRACE_JACOBIANS = {(2, 2): (39, 22), (3, 3): (39, 32), (8, 8): (58, 30), (3, 3, 3): (60, 31),
                   (4, 4, 4): (54, 28)}  # traced to 400, to 10


@pytest.mark.parametrize("final", [0, 1], ids=["n400", "n10"])
@pytest.mark.parametrize("shape", ZERO_SUM_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_trace_jacobians(jacobians, shape, final):
    trace_logit_path(ZERO_SUM[shape], (400.0, 10.0)[final])
    assert jacobians[0] == TRACE_JACOBIANS[shape][final]


def test_property_suite_contractions(contractions):
    # the residual-relabeling check draws its 8 forms from the seed's stream
    run_property_suite(None)
    assert contractions[0] == 149


def test_property_suite_inversions(inversions):
    # the logit round trip inverts both of a form's precisions in one batch per action width
    run_property_suite(None)
    assert inversions[0] == 21


@pytest.mark.parametrize(
    "run, expected",
    [
        (lambda: convergence_study(StrategicGameForm((2, 3)), [1.0, 10.0], 20, 0), 2),
        (lambda: convergence_study(StrategicGameForm((5, 5, 5)), [1.0, 10.0, 100.0, 1000.0], 600, 7), 3),
        (lambda: phi_n_inv(10.0, sample_target_points(StrategicGameForm((2, 3)), 1, 0, 10.0)[0]), 2),
        (lambda: immersion_rank_check(10.0, StrategicGameForm((2, 3)), 5, 0), 2),
    ],
    ids=["study-2x3", "study-5x5x5-blocks", "phi_n_inv-2x3", "rank-check-2x3"],
)
def test_reconstruction_inversions(inversions, run, expected):
    # one batch per action width: every precision of a block, and every player of one width
    # (a 600-sample study at four precisions runs in three blocks of 256 samples)
    run()
    assert inversions[0] == expected


def test_study_contractions(contractions):
    # one block: the Nash payoffs and residual (3 + 3), then each n's payoffs (4 * 3)
    convergence_study(StrategicGameForm((3, 3, 3)), [1.0, 10.0, 100.0, 1000.0], 200, 7)
    assert contractions[0] == 18


def test_study_working_set():
    # each n's payoff rows are built from the block's own zero-mean rows, not a tiled copy
    form, n_list = StrategicGameForm((5, 5, 5)), [1.0, 10.0, 100.0, 1000.0]
    convergence_study(form, n_list, 60, 7)  # import and cache everything first
    tracemalloc.start()
    try:
        convergence_study(form, n_list, 60, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6  # bytes; 2.38e6 with every n's payoffs built over a tiled batch


def test_graph_map_contractions(contractions):
    for t in sample_target_points(StrategicGameForm((2, 3, 4)), 5, 3, 10.0):
        nash, logit = phi_inv(t), phi_n_inv(10.0, t)
        phi(nash)
        phi(logit)
        approximation_gap(10.0, t)
    assert contractions[0] == 150


def test_rank_check_contractions(contractions):
    immersion_rank_check(10.0, StrategicGameForm((2, 2, 2)), 5, 0)
    assert contractions[0] == 48


def test_property_suite_with_a_game_contractions(contractions):
    run_property_suite(matching_pennies())
    assert contractions[0] == 201


# run by a fresh interpreter: numpy is imported before the hook, so only the
# package's own imports are counted; the count is the same with or without bytecode
GENERATED_SOURCE = """
import importlib, pkgutil, sys, numpy, logitgraph
count = 0
def hook(event, args):
    global count
    count += event == "exec" and getattr(args[0], "co_filename", None) == "<string>"
sys.addaudithook(hook)
for info in pkgutil.iter_modules(logitgraph.__path__):
    importlib.import_module("logitgraph." + info.name)
print(count)
"""


def test_startup_generated_source_execs():
    # the records are plain classes: no decorator writes their methods as source text
    result = subprocess.run(
        [sys.executable, "-c", GENERATED_SOURCE],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) == 0  # 64 when dataclasses wrote the records' methods
