"""Each CLI command loads only the layers it runs, and package exports resolve on first use.

The module sets are read in a fresh interpreter, since this process has
imported every layer already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import logitgraph
from logitgraph.cli import _COMMANDS

ROOT = Path(__file__).resolve().parents[1]
GAME_JSON = '{"players": 2, "actions": [2, 2], "payoffs": [[1, -1, -1, 1], [-1, 1, 1, -1]]}'
TARGET_JSON = '{"tilde_u": [[0, 0]], "y_bar": [[1.5, 0.5]]}'
UNLOADED = ("dataclasses", "copy", "numpy.random")  # modules no CLI process needs
ARGPARSE = ("argparse", "gettext", "locale")  # loaded for help and usage errors only
FILE_FORMAT = {"io", "json"}  # loaded only to parse an input file or render a record


def fresh(code):
    """stdout of ``code`` run by a new interpreter on this source tree."""
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def loaded_layers(argv, exit_code=0):
    """The logitgraph submodules a fresh process holds after running the CLI on ``argv``.

    The set also names each module of ``UNLOADED`` and ``ARGPARSE``, and ``json``,
    that the process loaded.
    """
    code = (
        "import sys\n"
        "from logitgraph.cli import run_cli\n"
        f"assert run_cli({argv!r}) == {exit_code}\n"
        "print(' '.join([m[11:] for m in sys.modules if m.startswith('logitgraph.')]\n"
        f"               + [m for m in {UNLOADED + ARGPARSE + ('json',)!r} if m in sys.modules]))\n"
    )
    return set(fresh(code).splitlines()[-1].split())


@pytest.fixture
def inputs(tmp_path):
    game, target = tmp_path / "game.json", tmp_path / "target.json"
    game.write_text(GAME_JSON)
    target.write_text(TARGET_JSON)
    return str(game), str(target)


@pytest.mark.parametrize(
    "command, runs, skips",
    [
        (["trace", "--n-final", "5", "GAME"], "solver", {"maps", "graph_maps", "studies", "verification"}),
        (["solve", "--n", "5", "GAME"], "solver", {"maps", "graph_maps", "studies", "verification"}),
        (
            ["decompose", "GAME"],
            "games",
            {"maps", "graph_maps", "solver", "studies", "verification"},
        ),
        (["invert-logit", "--n", "5", "TARGET"], "graph_maps", {"solver", "studies", "verification"}),
        (["invert-nash", "TARGET"], "graph_maps", {"solver", "studies", "verification"}),
        (
            ["study", "--form", "2:2,2", "--n-list", "1,10", "--samples", "3", "--seed", "0"],
            "studies",
            {"solver", "verification"},
        ),
        (["verify", "none"], "verification", FILE_FORMAT),  # prints its own text
        (["verify", "GAME"], "verification", set()),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_command_loads_only_its_layers(inputs, command, runs, skips):
    argv = [{"GAME": inputs[0], "TARGET": inputs[1]}.get(a, a) for a in command]
    layers = loaded_layers(argv)
    assert runs in layers
    assert not layers & skips
    assert not layers & set(UNLOADED + ARGPARSE)
    # a command that parses a file or renders a record loads the file-format layer
    assert FILE_FORMAT <= layers | skips


@pytest.mark.parametrize(
    "command, exit_code",
    [
        *(([command, "-h"], 0) for command in _COMMANDS),
        (["solve", "GAME"], 1),  # usage error: --n is required
        (["solve", "--n", "-1", "GAME"], 1),
        (["solve", "--n", "5", "--tol", "nan", "GAME"], 1),
        (["decompose", "MISSING"], 1),  # an unreadable input
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_help_and_errors_load_no_file_format_layer(inputs, tmp_path, command, exit_code):
    paths = {"GAME": inputs[0], "MISSING": str(tmp_path / "missing.json")}
    layers = loaded_layers([paths.get(a, a) for a in command], exit_code)
    assert not layers & FILE_FORMAT


def test_help_loads_only_the_front_end_and_core():
    # -X importtime lists every module the process imports; cli itself runs as __main__
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "logitgraph.cli", "--help"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0 and result.stdout.startswith("usage: logitgraph")
    imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}
    assert not imported & set(UNLOADED)
    assert {m for m in imported if m.startswith("logitgraph.")} == {"logitgraph.errors", "logitgraph.games"}
    assert "json" not in imported


def test_bare_import_loads_no_layer_and_submodules_stay_reachable():
    code = (
        "import sys, logitgraph\n"
        "print(sorted(m for m in sys.modules if m.startswith('logitgraph.') or m == 'numpy'))\n"
        "print(logitgraph.solver.trace_logit_path.__module__)\n"
    )
    before, module = fresh(code).splitlines()
    assert before == "[]"
    assert module == "logitgraph.solver"


def test_every_export_is_its_home_module_object():
    for module, names in logitgraph._EXPORTS.items():
        home = getattr(logitgraph, module)
        for name in names:
            assert getattr(logitgraph, name) is getattr(home, name)
    # no name is exported by two modules
    assert len(logitgraph.__all__) == sum(map(len, logitgraph._EXPORTS.values()))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from logitgraph import *", namespace)
    for name in logitgraph.__all__:
        assert namespace[name] is getattr(logitgraph, name)


def test_dir_lists_exports_and_submodules():
    assert set(logitgraph.__all__) | {"cli", "solver", "verification"} <= set(dir(logitgraph))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        logitgraph.no_such_name
    assert not hasattr(logitgraph, "trace_path")


@pytest.mark.parametrize(
    "name", ["phi_n", "ConvergenceBound", "approximate_nash", "deviation_payoff", "TargetPoint"]
)
def test_removed_name_raises_attribute_error(name):
    # phi maps logit points at their own n, epsilon_bound returns the number, and
    # trace_logit_path and deviation_payoffs give what the two wrappers returned, and a
    # target is a KMRepresentation
    with pytest.raises(AttributeError, match=name):
        getattr(logitgraph, name)
    assert name not in logitgraph.__all__ and len(logitgraph.__all__) == 49
