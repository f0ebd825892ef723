"""The command path's reader of argv against argparse, the reference grammar.

``cli._read_argv`` either declines an argv (returns None) or returns exactly
``vars()`` of the namespace that argparse's parser gives for it. On every argv
it declines, ``run_cli`` prints the bytes and returns the exit code of the
argparse path. The argvs: every invocation of the golden corpus, every argv
literal of the CLI test modules, and argvs drawn from the table by a seeded
generator that shuffles the flags, puts the global flags before, after or on
both sides of the command, and mixes in the forms the reader must decline.

argparse's grammar differs between Python versions; these tests pin the
reader to the argparse of the interpreter that runs them.
"""

import ast
import io
import os
import random
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

from logitgraph import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests" / "golden"))
from record import cases  # noqa: E402

PENNIES = str(ROOT / "demos" / "games" / "matching_pennies.json")
TARGET = str(ROOT / "tests" / "golden" / "target_2x3.json")


def argparse_vars(argv):
    """``vars()`` of argparse's namespace for ``argv``; None on a usage error or help."""
    parser = cli._build_parser(io.StringIO(), io.StringIO())
    try:
        return vars(parser.parse_args(argv, SimpleNamespace(**cli._GLOBAL_DEFAULTS)))
    except cli._ParserExit:
        return None


def exact(values):
    """Each value as its type and repr: equal for equal floats, NaN included."""
    return None if values is None else {k: (type(v), repr(v)) for k, v in values.items()}


def read(argv):
    """True when the reader accepts ``argv``, after checking its namespace against argparse's."""
    args = cli._read_argv(argv)
    if args is not None:
        assert exact(vars(args)) == exact(argparse_vars(argv)), argv
    return args is not None


def run(argv):
    """(exit code, stdout, stderr) of ``run_cli``."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"):
        code = cli.run_cli(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def assert_declined_like_argparse(argv):
    assert not read(argv), argv
    with mock.patch.object(cli, "_read_argv", lambda argv: None):
        expected = run(argv)
    assert run(argv) == expected, argv


def argv_literals(out, *names):
    """Every list literal (or sum of list literals) in these test modules that starts
    with a command or a flag; an item that is not a string constant becomes the path
    ``out`` where it follows ``--out``, so running a literal cannot overwrite an
    input, and a game path elsewhere.
    """
    for name in names:
        for node in ast.walk(ast.parse((ROOT / "tests" / name).read_text())):
            parts = [node.left, node.right] if isinstance(node, ast.BinOp) else [node]
            if not all(isinstance(p, ast.List) and p.elts for p in parts):
                continue
            items = []
            for e in (e for p in parts for e in p.elts):
                path = out if items[-1:] == ["--out"] else PENNIES
                items.append(e.value if isinstance(e, ast.Constant) else path)
            if all(isinstance(i, str) for i in items) and (items[0] in cli._COMMANDS or items[0][:1] == "-"):
                yield items


def test_golden_corpus_takes_the_reader_except_help():
    for _, argv in cases():
        if "-h" in argv or "--help" in argv or "-1" in argv:  # solve_negative_n
            assert_declined_like_argparse(argv)
        else:
            assert read(argv), argv


def test_argv_literals_of_the_cli_tests(tmp_path):
    out = str(tmp_path / "out.txt")
    literals = list(argv_literals(out, "test_io_cli.py", "test_cli_process.py"))
    assert len(literals) >= 40
    assert ["--out", out] in ([a, b] for argv in literals for a, b in zip(argv, argv[1:]))
    accepted = 0
    for argv in literals:
        if read(argv):
            accepted += 1
        else:
            assert_declined_like_argparse(argv)
    assert accepted >= 30


# Values each type takes in drawn argvs; float("1_0") and float("inf") parse on both paths.
VALUES = {float: ("400", "1e-3", "2.5", "1_0", "inf"), int: ("3", "0", "7"), str: ("2:2,2", "1,10")}
GLOBAL_VALUES = {"--tol": ("1e-8", "1e-10", "0"), "--format": ("json", "csv")}  # --out: a temporary file


def draw(rng, out):
    """(argv, mutation): an argv of exact forms over the table, then one form the reader
    must decline mixed in, or none (mutation None).
    """
    command = rng.choice(list(cli._COMMANDS))
    units, required = [], []
    for argument, spec in cli._COMMANDS[command][1].items():
        if argument[0] != "-":
            unit = [TARGET if argument == "target" else rng.choice((PENNIES, "none"))]
        elif spec.get("action"):
            unit = [argument] if rng.random() < 0.5 else None
        elif spec.get("required") or rng.random() < 0.5:
            unit = [argument, rng.choice(VALUES[spec.get("type", str)])]
        else:
            unit = None
        if unit and (argument[0] != "-" or spec.get("required")):
            required.append(unit)
        units += [unit] if unit else []
    before = []
    for flag in cli._GLOBAL_FLAGS:
        side = rng.choice(("neither", "before", "after", "both"))
        values = GLOBAL_VALUES.get(flag, (out,))
        if side in ("before", "both"):
            before.append([flag, rng.choice(values)])
        if side in ("after", "both"):
            units.append([flag, rng.choice(values)])
    rng.shuffle(units)
    mutation = rng.choice((None,) * 4 + MUTATIONS) if rng.random() < 0.5 else None
    if mutation is not None:
        mutation(rng, command, before, units, required)
    return [t for u in before for t in u] + [command] + [t for u in units for t in u], mutation


def _anywhere(rng, units, unit):
    units.insert(rng.randrange(len(units) + 1), unit)


def _valued(units):
    return [u for u in units if len(u) == 2]


def _help(rng, command, before, units, required):
    _anywhere(rng, rng.choice((before, units)), [rng.choice(("-h", "--help"))])


def _equals(rng, command, before, units, required):
    valued = _valued(units)
    if not valued:
        units.append(["--tol", "1e-8"])
        valued = _valued(units)
    unit = rng.choice(valued)
    unit[:] = [f"{unit[0]}={unit[1]}"]


def _abbreviation(rng, command, before, units, required):
    flags = {**cli._GLOBAL_FLAGS, **cli._COMMANDS[command][1]}
    flag = rng.choice([f for f in flags if f[:2] == "--" and len(f) > 4])
    prefix = flag[: rng.randrange(3, len(flag))]
    if prefix in flags:  # --n is a flag of its own, not an abbreviation of --n-list
        prefix = flag[:-1]
    spec = flags[flag]
    _anywhere(rng, units, [prefix] if spec.get("action") else [prefix, rng.choice(VALUES[spec.get("type", str)])])


def _negative(rng, command, before, units, required):
    valued = [u for u in _valued(units) if u[0] not in ("--format", "--out")]  # argparse takes -1 as a path
    if valued:
        rng.choice(valued)[1] = rng.choice(("-1", "-5.0", "-x"))
    else:
        _anywhere(rng, units, ["--tol", "-1"])


def _command_flag_first(rng, command, before, units, required):
    flags = [u for u in units if u[0] in cli._COMMANDS[command][1]]
    if flags:
        units.remove(flags[0])
        before.append(flags[0])
    else:
        before.append(["--n-final", "1"])


def _separator(rng, command, before, units, required):
    _anywhere(rng, units, ["--"])


def _bad_value(rng, command, before, units, required):
    flags = {**cli._GLOBAL_FLAGS, **cli._COMMANDS[command][1]}
    typed = [u for u in _valued(units) if {"type", "choices"} & set(flags[u[0]])]
    if typed:
        unit = rng.choice(typed)
        unit[1] = "xml" if unit[0] == "--format" else "abc"
    else:
        _anywhere(rng, units, ["--format", "xml"])


def _missing(rng, command, before, units, required):
    units.remove(rng.choice(required))


def _extra_positional(rng, command, before, units, required):
    _anywhere(rng, units, ["extra.json"])


MUTATIONS = (
    _help, _equals, _abbreviation, _negative, _command_flag_first, _separator, _bad_value, _missing,
    _extra_positional,
)


@pytest.mark.parametrize("seed", range(4))
def test_drawn_argvs_match_argparse(seed, tmp_path):
    rng, kinds = random.Random(seed), set()
    for _ in range(60):
        argv, mutation = draw(rng, str(tmp_path / "out.txt"))
        if mutation is None:
            assert read(argv), argv
        else:
            assert_declined_like_argparse(argv)
        kinds.add(mutation)
    assert len(kinds) >= 6


def test_global_flags_on_both_sides_keep_the_last_value():
    argv = ["--format", "csv", "--tol", "1e-8", "trace", "--n-final", "5", PENNIES, "--format", "json"]
    args = cli._read_argv(argv)
    assert (args.format, args.tol, args.n_final, args.game) == ("json", 1e-8, 5.0, PENNIES)
    assert read(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--n", "400", PENNIES],
        ["--fo", "json", "decompose", PENNIES],
        ["--format=json", "decompose", PENNIES],
        ["trace", "--n-final", "-1", PENNIES],
        ["--n-final", "400", "trace", PENNIES],
        ["decompose", "--", PENNIES],
        ["study", "--form", "2:2,2", "--n-list", "1", "--samples", "two", "--seed", "0"],
        ["--format", "xml", "decompose", PENNIES],
        ["solve", PENNIES],
        ["decompose"],
        ["decompose", PENNIES, PENNIES],
        ["-h"],
        ["invert-nash", "--help"],
        ["trace", "--n-final"],
        [],
    ],
)
def test_each_declined_form(argv):
    assert_declined_like_argparse(argv)
