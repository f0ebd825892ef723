"""Write or check the golden CLI corpus, from the repo root.

    python tests/golden/record.py           # rewrite every golden file here
    python tests/golden/record.py --check   # re-record into a temporary
                                            # directory, list the golden files
                                            # whose bytes differ with the first
                                            # differing line of each, stored
                                            # against fresh; exit 1 if any

The corpus runs every command below with ``--format json``, with ``--format
csv`` and with no ``--format``; the last stdout must equal the one of the
command's default format (CSV for ``trace``, JSON otherwise), so both share
one file, ``<name>.<command>.<json|csv>``. Commands:

- ``trace --n-final 400``, ``solve --n 10`` and ``decompose`` on the demo games
  and two pairwise zero-sum games drawn here with fixed seeds (each has one
  logit equilibrium at every n, so the traced branch has no fold);
- ``study`` on two seeded forms;
- ``invert-nash`` and ``invert-logit --n 10`` on two seeded target files
  drawn and written here;
- ``verify`` on ``none`` and on matching pennies, whose text output ignores
  ``--format`` (``<name>.verify.txt``);
- ``--help`` and ``<command> -h`` for every command, once, at 80 columns
  (``logitgraph.help.txt`` and ``<command>.help.txt``);
- every demo script, run from the repo root by a fresh interpreter with
  RuntimeWarning as an error, as ``tests/test_demos.py`` runs it
  (``<script>.demo.txt``, its stdout).

Every one of these must exit 0 with empty stderr. The error cases
(``<name>.error.json``) store the exit code and stderr of invocations that
must fail, with empty stdout.
"""

import io
import json
import os
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

from logitgraph.cli import run_cli  # noqa: E402
from logitgraph.games import KMRepresentation, StrategicGameForm, _split_payoff  # noqa: E402
from logitgraph.io import target_point_to_json  # noqa: E402

DEMO_GAMES = ("coordination", "matching_pennies", "one_player")
ZERO_SUM_GAMES = {"zerosum_3x3x3": ((3, 3, 3), 3), "zerosum_4x4x4": ((4, 4, 4), 4)}
COMMANDS = {
    "trace": ["trace", "--n-final", "400"],
    "solve": ["solve", "--n", "10"],
    "decompose": ["decompose"],
}
CSV_BY_DEFAULT = ("trace",)
STUDY_N_LIST = ["--n-list", "1,10,100,1000"]
STUDIES = {
    "study_2x2": ["study", "--form", "2:2,2", *STUDY_N_LIST, "--samples", "200", "--seed", "42"],
    "study_3x3x3": ["study", "--form", "3:3,3,3", *STUDY_N_LIST, "--samples", "100", "--seed", "7"],
}
TARGETS = {"target_2x3": ((2, 3), 11), "target_3x3x3": ((3, 3, 3), 12)}  # form, seed
TARGET_COMMANDS = {"invert-nash": ["invert-nash"], "invert-logit": ["invert-logit", "--n", "10"]}
# one-player target with an interior solution: at n = 1e6 one ulp of w moves
# softmax(n*w) by about 1e-11, so the inversion cannot reach tol 1e-30
STALL_TARGET = {"tilde_u": [[0, 0]], "y_bar": [[1.3, 0.7]]}
FORMATS = (["--format", "json"], ["--format", "csv"], [])
HELP_COMMANDS = (
    "decompose", "solve", "trace", "invert-nash", "invert-logit", "verify", "study",
)


def zero_sum_game(seed, shape):
    """Pairwise zero-sum polymatrix game: ``u_i(a) = sum_j A_ij[a_i, a_j]``, ``A_ji = -A_ij^T``."""
    rng = np.random.default_rng(seed)
    k = len(shape)
    tensors = [np.zeros(shape) for _ in shape]
    for i in range(k):
        for j in range(i + 1, k):
            block = rng.uniform(-1.0, 1.0, (shape[i], shape[j])) / (k - 1)
            axes = [shape[d] if d in (i, j) else 1 for d in range(k)]
            tensors[i] = tensors[i] + block.reshape(axes)
            tensors[j] = tensors[j] - block.reshape(axes)
    return {
        "players": k,
        "actions": list(shape),
        "payoffs": [t.ravel(order="F").tolist() for t in tensors],
    }


def target_point(seed, shape):
    """Target with entries uniform in ±10, the raw payoff tensors projected to zero opponent means.

    One ``default_rng(seed)`` row holds every player's raw tensor, then every ``y_bar``.
    """
    form = StrategicGameForm(shape)
    size, k = form.profile_count, form.num_players
    raw = np.random.default_rng(seed).uniform(-10.0, 10.0, size=(1, k * size + sum(shape)))
    tilde = tuple(_split_payoff(form, raw[:, i * size : (i + 1) * size], i)[0][0] for i in range(k))
    edges = np.cumsum((k * size,) + shape)
    return KMRepresentation(tilde_u=tilde, bar_u=tuple(raw[0, a:b] for a, b in zip(edges, edges[1:])))


def game_paths(directory=HERE):
    """Name -> game file path for every game of the corpus."""
    paths = {name: os.path.join(ROOT, "demos", "games", name + ".json") for name in DEMO_GAMES}
    paths.update({name: os.path.join(directory, name + ".json") for name in ZERO_SUM_GAMES})
    return paths


def target_paths(directory=HERE):
    """Name -> target file path for every seeded target of the corpus."""
    return {name: os.path.join(directory, name + ".json") for name in TARGETS}


def input_files():
    """File name -> contents of every input this script draws or writes."""
    files = {}
    for name, (shape, seed) in ZERO_SUM_GAMES.items():
        files[name + ".json"] = json.dumps(zero_sum_game(seed, shape)) + "\n"
    for name, (shape, seed) in TARGETS.items():
        files[name + ".json"] = target_point_to_json(target_point(seed, shape)) + "\n"
    files["target_stall.json"] = json.dumps(STALL_TARGET) + "\n"
    return files


def _formats(name, command, argv):
    """(file, argv) in every format; the run without ``--format`` shares the default's file."""
    default = "csv" if command in CSV_BY_DEFAULT else "json"
    return [(f"{name}.{command}.{fmt[1] if fmt else default}", fmt + argv) for fmt in FORMATS]


def cases(directory=HERE):
    """(golden file name, argv) of every recorded invocation, inputs read from ``directory``."""
    out = []
    for name, path in game_paths(directory).items():
        for command, argv in COMMANDS.items():
            out.extend(_formats(name, command, argv + [path]))
    for name, argv in STUDIES.items():
        out.extend(_formats(name, "study", argv))
    for name, path in target_paths(directory).items():
        for command, argv in TARGET_COMMANDS.items():
            out.extend(_formats(name, command, argv + [path]))
    for name, arg in (("none", "none"), ("matching_pennies", game_paths()["matching_pennies"])):
        out.extend((f"{name}.verify.txt", fmt + ["verify", arg]) for fmt in FORMATS)
    errors = {
        "solve_negative_n": ["solve", "--n", "-1", game_paths()["coordination"]],
        "invert_logit_zero_n": ["invert-logit", "--n", "0", target_paths(directory)["target_2x3"]],
        "missing_game": ["decompose", "/nonexistent/game.json"],
        "invert_logit_stall": [
            "invert-logit", "--n", "1e6", "--tol", "1e-30",
            os.path.join(directory, "target_stall.json"),
        ],
    }
    out.extend((f"{name}.error.json", argv) for name, argv in errors.items())
    out.append(("logitgraph.help.txt", ["--help"]))
    out.extend((f"{command}.help.txt", [command, "-h"]) for command in HELP_COMMANDS)
    return out


def invoke(argv):
    """Exit code, stdout and stderr of one in-process CLI run; help is wrapped to 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"):
        code = run_cli(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def demo_cases():
    """(golden file name, script path) of every demo script."""
    scripts = sorted(name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py"))
    return [(name[:-3] + ".demo.txt", os.path.join(ROOT, "demos", name)) for name in scripts]


def demo_stdout(script):
    """stdout of one demo script run as a user runs it; raises unless it exits 0 with empty stderr."""
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", script],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    if result.returncode != 0 or result.stderr:
        raise SystemExit(f"{script}: exit {result.returncode}: {result.stderr}")
    return result.stdout


def golden_text(file_name, argv):
    """What ``file_name`` holds for one run of ``argv``; raises if the run breaks its contract."""
    code, out, err = invoke(argv)
    if file_name.endswith(".error.json"):
        if code == 0 or out:
            raise SystemExit(f"{' '.join(argv)}: expected a failure, got exit {code}")
        return json.dumps({"exit_code": code, "stderr": err}) + "\n"
    if code != 0 or err:
        raise SystemExit(f"{' '.join(argv)}: exit {code}: {err}")
    return out


def record(directory):
    """Write every input and golden file into ``directory``; return the names written."""
    files = input_files()
    for name, text in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write(text)
    goldens = {}
    for file_name, argv in cases(directory):
        text = golden_text(file_name, argv)
        if goldens.setdefault(file_name, text) != text:
            raise SystemExit(f"{' '.join(argv)}: stdout differs from the other runs of {file_name}")
    goldens.update((file_name, demo_stdout(script)) for file_name, script in demo_cases())
    for name, text in goldens.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write(text)
    return sorted(files) + sorted(goldens)


def first_difference(stored, fresh):
    """The first differing line of two file contents, stored then fresh, around the change."""
    if stored is None:
        return "  no stored file"
    old = stored.decode("utf-8", "replace").splitlines(keepends=True)
    new = fresh.decode("utf-8", "replace").splitlines(keepends=True)
    line = next((k for k, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
    a, b = (lines[line] if line < len(lines) else "" for lines in (old, new))
    column = next((k for k, (p, q) in enumerate(zip(a, b)) if p != q), min(len(a), len(b)))
    start = max(0, column - 40)
    return (
        f"  line {line + 1}, column {column + 1}\n"
        f"    stored: {a[start : start + 80]!r}\n"
        f"    fresh:  {b[start : start + 80]!r}"
    )


def check():
    """Re-record into a temporary directory; return ``(name, first_difference)`` per differing file."""
    with tempfile.TemporaryDirectory() as scratch:
        names = record(scratch)
        differ = []
        for name in names:
            with open(os.path.join(scratch, name), "rb") as handle:
                fresh = handle.read()
            try:
                with open(os.path.join(HERE, name), "rb") as handle:
                    stored = handle.read()
            except FileNotFoundError:
                stored = None
            if fresh != stored:
                differ.append((name, first_difference(stored, fresh)))
    return differ


def main(argv):
    if argv == ["--check"]:
        differ = check()
        for name, detail in differ:
            print(f"differs: {name}")
            print(detail)
        return 1 if differ else 0
    if argv:
        raise SystemExit(f"usage: {sys.argv[0]} [--check]")
    record(HERE)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
