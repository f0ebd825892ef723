"""Write the golden CLI corpus: ``python tests/golden/record.py`` from the repo root.

For every game below it stores the JSON stdout of ``trace --n-final 400`` and
``solve --n 10`` next to this file. The two pairwise zero-sum games are drawn
here with fixed seeds, so their game files can be recreated too; each has one
logit equilibrium at every n, so the traced branch has no fold. It also stores
the JSON stdout of ``study`` on two seeded forms, and of ``invert-nash`` and
``invert-logit --n 10`` on two seeded target files written here.
"""

import io
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

from logitgraph.cli import run_cli  # noqa: E402
from logitgraph.games import StrategicGameForm  # noqa: E402
from logitgraph.io import target_point_to_json  # noqa: E402
from logitgraph.studies import sample_target_points  # noqa: E402

DEMO_GAMES = ("coordination", "matching_pennies", "one_player")
ZERO_SUM_GAMES = {"zerosum_3x3x3": ((3, 3, 3), 3), "zerosum_4x4x4": ((4, 4, 4), 4)}
COMMANDS = {"trace": ["trace", "--n-final", "400"], "solve": ["solve", "--n", "10"]}
STUDY_N_LIST = ["--n-list", "1,10,100,1000"]
STUDIES = {
    "study_2x2": ["study", "--form", "2:2,2", *STUDY_N_LIST, "--samples", "200", "--seed", "42"],
    "study_3x3x3": ["study", "--form", "3:3,3,3", *STUDY_N_LIST, "--samples", "100", "--seed", "7"],
}
TARGETS = {"target_2x3": ((2, 3), 11), "target_3x3x3": ((3, 3, 3), 12)}  # form, seed
TARGET_COMMANDS = {"invert-nash": ["invert-nash"], "invert-logit": ["invert-logit", "--n", "10"]}


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


def game_paths():
    """Name -> game file path for every game of the corpus."""
    paths = {name: os.path.join(ROOT, "demos", "games", name + ".json") for name in DEMO_GAMES}
    paths.update({name: os.path.join(HERE, name + ".json") for name in ZERO_SUM_GAMES})
    return paths


def target_paths():
    """Name -> target file path for every target of the corpus."""
    return {name: os.path.join(HERE, name + ".json") for name in TARGETS}


def _record(name, command, argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(["--format", "json"] + argv, stdout=out, stderr=err)
    if code != 0:
        raise SystemExit(f"{name} {command}: exit {code}: {err.getvalue()}")
    with open(os.path.join(HERE, f"{name}.{command}.json"), "w", encoding="utf-8") as handle:
        handle.write(out.getvalue())


def main():
    for name, (shape, seed) in ZERO_SUM_GAMES.items():
        with open(os.path.join(HERE, name + ".json"), "w", encoding="utf-8") as handle:
            json.dump(zero_sum_game(seed, shape), handle)
            handle.write("\n")
    for name, (shape, seed) in TARGETS.items():
        target = sample_target_points(StrategicGameForm(len(shape), shape), 1, seed, 10.0)[0]
        with open(target_paths()[name], "w", encoding="utf-8") as handle:
            handle.write(target_point_to_json(target) + "\n")
    for name, path in game_paths().items():
        for command, argv in COMMANDS.items():
            _record(name, command, argv + [path])
    for name, argv in STUDIES.items():
        _record(name, "study", argv)
    for name, path in target_paths().items():
        for command, argv in TARGET_COMMANDS.items():
            _record(name, command, argv + [path])


if __name__ == "__main__":
    main()
