"""Seeded corpus of CLI operations for each benchmark workload.

The workload seed is the only input. Games and targets are drawn with
``numpy.random.default_rng(seed)``, written as JSON into a work directory, and
each operation is one ``logitgraph`` command line over those files. The three
demo games and the two fold reproducers (4x4x4 games from generator seeds 0
and 1, whose logit branch turns back near n = 7) are fixed members. Games the
seed draws are never filtered: a draw that hits a fold stays in and fails.

``trace-zerosum`` runs the same commands on the demo games and on seeded
pairwise zero-sum polymatrix games. Such a game has one logit equilibrium at
every n (its regularized pseudo-gradient is strictly monotone), so its logit
branch has no fold and every op is expected to succeed.

A workload is a sequence of rounds. Round 0 holds the fixed members; every
later round draws fresh inputs, one per form, so that a run cut off by its
time budget still holds every form in the same proportion.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

# Contents of demos/games/*.json, kept here so the benchmark inputs do not
# change when the demos do.
DEMO_GAMES = {
    "coordination": {"players": 2, "actions": [2, 2], "payoffs": [[1, 0, 0, 1], [1, 0, 0, 1]]},
    "matching_pennies": {
        "players": 2,
        "actions": [2, 2],
        "payoffs": [[1, -1, -1, 1], [-1, 1, 1, -1]],
    },
    "one_player": {"players": 1, "actions": [2], "payoffs": [[1, 0]]},
}

FOLD_SEEDS = (0, 1)
FOLD_SHAPE = (4, 4, 4)

TRACE_N_FINAL = 400.0
SOLVE_N = 10.0
TRACE_SHAPES = ((2, 2), (3, 3), (8, 8), (3, 3, 3), (4, 4, 4))
LARGE_SHAPES = ((12, 12, 12), (6, 6, 6, 6))

STUDY_FORMS = ((2, 2), (3, 3, 3), (5, 5, 5))
STUDY_N_LIST = (1.0, 10.0, 100.0, 1000.0)
# samples per study form, chosen so each study process runs for about 0.5 s
STUDY_SAMPLES = {(2, 2): 200, (3, 3, 3): 60, (5, 5, 5): 60}
INVERT_NS = (1.0, 100.0, 1000.0)
TARGET_BOX = 10.0

WORKLOADS = ("trace", "trace-zerosum", "trace-large", "certify")


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must satisfy.

    ``args`` follow the program name. ``check`` names the checker and carries
    the parameters it needs (input paths, precision, form).
    """

    index: int
    command: str
    args: tuple[str, ...]
    check: dict


def uniform_game(rng, shape, low=-1.0, high=1.0):
    """Game document with each player's flat payoff tensor drawn uniform in [low, high]."""
    size = int(np.prod(shape))
    return {
        "players": len(shape),
        "actions": list(shape),
        "payoffs": [rng.uniform(low, high, size).tolist() for _ in shape],
    }


def zero_sum_game(rng, shape, low=-1.0, high=1.0):
    """Pairwise zero-sum polymatrix game: ``u_i(a) = sum_j A_ij[a_i, a_j]`` with ``A_ji = -A_ij^T``.

    Each ``A_ij`` (i < j) is drawn uniform in [low, high] and divided by the
    number of opponents, so payoffs stay in [low, high] for every player
    count. With two players this is a plain zero-sum game.
    """
    k = len(shape)
    tensors = [np.zeros(shape) for _ in shape]
    for i in range(k):
        for j in range(i + 1, k):
            block = rng.uniform(low, high, (shape[i], shape[j])) / max(k - 1, 1)
            axes = [shape[d] if d in (i, j) else 1 for d in range(k)]
            tensors[i] = tensors[i] + block.reshape(axes)
            tensors[j] = tensors[j] - block.reshape(axes)
    return {
        "players": k,
        "actions": list(shape),
        "payoffs": [t.ravel(order="F").tolist() for t in tensors],
    }


def fold_game(seed):
    """The fold reproducer: a 4x4x4 game from ``default_rng(seed)``."""
    return uniform_game(np.random.default_rng(seed), FOLD_SHAPE)


def zero_mean(shape, flat, player):
    """Remove the opponent-average of each own action from a flat column-major tensor."""
    tensor = np.asarray(flat, dtype=float).reshape(shape, order="F")
    axes = tuple(j for j in range(len(shape)) if j != player)
    return (tensor - tensor.mean(axis=axes, keepdims=True)).ravel(order="F")


def random_target(rng, shape):
    """Target document with zero-mean ``tilde_u`` and free ``y_bar``, entries in the box."""
    size = int(np.prod(shape))
    tilde = [
        zero_mean(shape, rng.uniform(-TARGET_BOX, TARGET_BOX, size), i).tolist()
        for i in range(len(shape))
    ]
    y_bar = [rng.uniform(-TARGET_BOX, TARGET_BOX, m).tolist() for m in shape]
    return {"tilde_u": tilde, "y_bar": y_bar}


def _form_arg(shape):
    return f"{len(shape)}:{','.join(str(m) for m in shape)}"


def _shape_name(shape):
    return "x".join(str(m) for m in shape)


class Corpus:
    """Lazily writes the inputs of one workload and yields its operations."""

    def __init__(self, workload, seed, workdir):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.workdir = workdir
        self._rng = np.random.default_rng(seed)
        self._count = itertools.count()

    def _write(self, name, document):
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        return path

    def _op(self, command, args, check):
        return Op(next(self._count), command, tuple(args), check)

    def _game_ops(self, name, document, commands=("trace", "solve")):
        path = self._write(name, document)
        ops = []
        for command in commands:
            flag, n = {"trace": ("--n-final", TRACE_N_FINAL), "solve": ("--n", SOLVE_N)}[command]
            args = ["--format", "json", command, flag, repr(n), path]
            ops.append(self._op(command, args, {"kind": command, "game": path, "n": n}))
        return ops

    def rounds(self):
        """Yield the workload's rounds (lists of Ops) without end."""
        for number in itertools.count():
            yield self._round(number)

    def _round(self, number):
        ops = []
        if self.workload in ("trace", "trace-zerosum"):
            if number == 0:
                for name, document in DEMO_GAMES.items():
                    ops += self._game_ops(f"demo-{name}", document)
                # the fold is already below n = 10, so `solve` on these would
                # repeat the same failure at the same cost
                if self.workload == "trace":
                    for seed in FOLD_SEEDS:
                        ops += self._game_ops(f"fold-s{seed}", fold_game(seed), ("trace",))
            else:
                draw = uniform_game if self.workload == "trace" else zero_sum_game
                for shape in TRACE_SHAPES:
                    name = f"r{number}-{_shape_name(shape)}"
                    ops += self._game_ops(name, draw(self._rng, shape))
        elif self.workload == "trace-large":
            for shape in LARGE_SHAPES:
                name = f"r{number}-{_shape_name(shape)}"
                ops += self._game_ops(name, uniform_game(self._rng, shape), ("trace",))
        else:
            for shape in STUDY_FORMS:
                seed = int(self._rng.integers(2**31))
                args = [
                    "--format", "json", "study",
                    "--form", _form_arg(shape),
                    "--n-list", ",".join(repr(n) for n in STUDY_N_LIST),
                    "--samples", str(STUDY_SAMPLES[shape]),
                    "--seed", str(seed),
                ]
                check = {
                    "kind": "study", "shape": list(shape), "n_list": list(STUDY_N_LIST),
                    "samples": STUDY_SAMPLES[shape], "seed": seed,
                }
                ops.append(self._op("study", args, check))
            for k, n in enumerate(INVERT_NS):
                shape = STUDY_FORMS[(number + k) % len(STUDY_FORMS)]
                path = self._write(
                    f"r{number}-target-{_shape_name(shape)}", random_target(self._rng, shape)
                )
                args = ["--format", "json", "invert-logit", "--n", repr(n), path]
                ops.append(self._op("invert-logit", args, {"kind": "invert-logit", "target": path, "n": n}))
            games = ["none"] + [self._write(f"demo-{name}", doc) for name, doc in DEMO_GAMES.items()]
            for game in games:
                ops.append(self._op("verify", ["verify", game], {"kind": "verify"}))
        return ops
