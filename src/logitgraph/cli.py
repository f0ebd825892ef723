"""Command-line front end for batch use of the library.

Subcommands: ``decompose``, ``solve``, ``trace``, ``invert-nash``,
``invert-logit``, ``verify``, ``study``. Exit codes: 0 success, 1 validation
or usage error, 2 convergence failure.
"""

from __future__ import annotations

import atexit
import os
import sys
from types import SimpleNamespace

from .errors import ConvergenceError, InvalidInputError, ParseError
from .games import StrategicGameForm, _check_n_tol, km_decompose

# The command line, declared once: each flag and positional with its argparse keywords,
# the global ones here and each command's in _COMMANDS, below the functions that run them.
# The global flags work before or after the command; run_cli fills their defaults.
_GLOBAL_FLAGS = {
    "--tol": {"type": float, "help": "solver tolerance"},
    "--out": {"help": "write output to this path instead of stdout"},
    "--format": {"choices": ("json", "csv"), "help": "output format"},
}
_GLOBAL_DEFAULTS = {"tol": 1e-10, "out": None, "format": None}
_N, _TILDE = {"type": float, "required": True}, {"action": "store_true", "default": False}
_GAME, _TARGET = {"help": "path to a game JSON file"}, {"help": "path to a target JSON file"}


def _dest(argument):
    return argument.lstrip("-").replace("-", "_")


def _read_argv(argv):
    """The namespace argparse gives for ``argv`` if it has only exact forms, else None.

    The forms: the command, positionals and exact long flags, global ones before or
    after the command, each flag but ``--project-tilde`` with a value, none of them
    starting with ``-``. Everything else, help included, is left to argparse.
    """
    args, flags, arguments, positionals, tokens = {}, _GLOBAL_FLAGS, None, [], iter(argv)
    for token in tokens:
        if token[:1] != "-" and arguments is None:
            if token not in _COMMANDS:
                return None
            args["command"], arguments = token, _COMMANDS[token][1]
            flags = {**flags, **arguments}  # a positional's name does not start with -
            args.update((_dest(a), spec.get("default")) for a, spec in arguments.items())
        elif token[:1] != "-":
            positionals.append(token)
        elif token not in flags:
            return None
        elif "action" in flags[token]:  # --project-tilde
            args[_dest(token)] = True
        else:
            spec, value = flags[token], next(tokens, "-")
            try:
                value = None if value[:1] == "-" else spec.get("type", str)(value)
            except (TypeError, ValueError):
                return None
            if value is None or value not in spec.get("choices", (value,)):
                return None
            args[_dest(token)] = value
    names = [a for a in arguments or () if a[0] != "-"]
    args.update(zip(names, positionals))  # an argument still None is a required one not given
    if arguments is None or len(positionals) != len(names) or None in args.values():
        return None
    return SimpleNamespace(**{**_GLOBAL_DEFAULTS, **args})


class _ParserExit(Exception):
    """The parser wrote help to stdout or a usage error to stderr; ``args[0]`` is the exit code."""


def _build_parser(stdout, stderr):
    """argparse's parser of the table, for help, usage errors and every argv ``_read_argv`` declines."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # a subparser's error, too, shows the top-level usage
            stderr.write(parser.format_usage() + f"error: {message}\n")
            self.exit(1)

        def print_help(self, file=None):
            # argparse's own printer swallows a failed write; main() must see it
            (stdout if file is None else file).write(self.format_help())

        def exit(self, status=0, message=None):  # after help, or error() above
            raise _ParserExit(status)

    # the global flags, shared by the main parser and every subparser
    shared = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    for flag, spec in _GLOBAL_FLAGS.items():
        shared.add_argument(flag, **spec)
    parser = _Parser(prog="logitgraph", description=__doc__, parents=[shared])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, arguments, _, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, parents=[shared])
        for argument, spec in arguments.items():
            p.add_argument(argument, **spec)
    return parser


def _read(path):
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc.strerror}") from exc


def _parse_form(text):
    head, _, tail = text.partition(":")
    try:
        players = int(head)
        counts = tuple(int(part) for part in tail.split(","))
    except ValueError as exc:
        raise InvalidInputError(f"--form: expected players:m1,m2,...  got {text!r}") from exc
    if players != len(counts):
        raise InvalidInputError(f"expected {players} action counts, got {len(counts)}")
    return StrategicGameForm(counts)


def _parse_n_list(text):
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise InvalidInputError(f"--n-list: expected comma-separated numbers, got {text!r}") from exc


def _game(args):
    data = _read(args.game)
    from .io import parse_game

    return parse_game(data)


def _target(args):
    data = _read(args.target)
    from .io import parse_target_point

    return parse_target_point(data, project_tilde=args.project_tilde)


def _n(args):
    """The precision of solve, trace and invert-logit; 1.0, which passes every check, for the rest."""
    return getattr(args, "n", getattr(args, "n_final", 1.0))


# Each handler imports the layers it runs, so a process loads only those; the file-format
# layer, io, loads only once a command has read its input or has a record to render.
def _trace(args):
    from .solver import trace_logit_path

    trace = trace_logit_path(_game(args), n_final=_n(args), tol=args.tol)
    return trace if args.command == "trace" else trace.entries[-1]  # solve: the equilibrium at --n


def _invert_nash(args):
    from .graph_maps import phi_inv

    return phi_inv(_target(args))


def _invert_logit(args):
    from .graph_maps import phi_n_inv

    return phi_n_inv(args.n, _target(args), tol=args.tol)


def _study(args):
    from .studies import convergence_study

    form = _parse_form(args.form)
    return convergence_study(form, _parse_n_list(args.n_list), args.samples, args.seed, args.bound_box)


def _verify(args):
    from .verification import run_property_suite

    game = None if args.game == "none" else _game(args)
    results = run_property_suite(game)
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
    code = 0 if all(r.passed for r in results) else 1
    return "\n".join(lines) + "\n", code


# command -> (its help, its flags and positionals in help order, the function that builds its
# record, its default format: None when the function returns its own text and exit code)
_COMMANDS = {
    "decompose": ("split a game into mean and zero-mean payoff parts",
                  {"game": _GAME}, lambda args: km_decompose(_game(args)), "json"),
    "solve": ("logit equilibrium at a fixed precision, via the tracer", {"--n": _N, "game": {}}, _trace, "json"),
    "trace": ("follow logit equilibria up to a final precision", {"--n-final": _N, "game": {}}, _trace, "csv"),
    "invert-nash": ("reconstruct the Nash graph point of a target",
                    {"--project-tilde": _TILDE, "target": _TARGET}, _invert_nash, "json"),
    "invert-logit": ("reconstruct the logit graph point of a target",
                     {"--n": _N, "--project-tilde": _TILDE, "target": {}}, _invert_logit, "json"),
    "verify": ("run the desk-scale property suite",
               {"game": {"help": "path to a game JSON file, or 'none'"}}, _verify, None),
    "study": ("uniform-approximation study over sampled targets", {
        "--form": {"required": True, "help": "players:actions, e.g. 2:2,2"},
        "--n-list": {"required": True, "help": "comma-separated ascending precisions"},
        "--samples": {"type": int, "required": True},
        "--seed": {"type": int, "required": True},
        "--bound-box": {"type": float, "default": 10.0},
    }, _study, "json"),
}


def _dispatch(args):
    # checked before any input file is read: the precision of solve, trace and
    # invert-logit, and --tol, which only they read but every command rejects
    _check_n_tol(_n(args), args.tol)
    _, _, run, default_format = _COMMANDS[args.command]
    result = run(args)
    if default_format is None:  # the command's own text and exit code
        return result
    from .io import render

    return render(result, args.format or default_format), 0


def run_cli(argv, stdout=None, stderr=None):
    """Run one invocation, help included; returns the exit code without calling sys.exit."""
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    args = _read_argv(argv)
    if args is None:
        try:
            args = _build_parser(stdout, stderr).parse_args(argv, SimpleNamespace(**_GLOBAL_DEFAULTS))
        except _ParserExit as exc:
            return exc.args[0]
    try:
        text, code = _dispatch(args)
    except (ParseError, InvalidInputError) as exc:
        stderr.write(f"error: {exc}\n")
        return 1
    except ConvergenceError as exc:
        stderr.write(f"convergence failure: {exc}\n")
        return 2
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            stderr.write(f"error: cannot write {args.out}: {exc.strerror}\n")
            return 1
    else:
        stdout.write(text)
    return code


def main():
    """Console entry point: ``run_cli`` on ``sys.argv``, then end the process.

    Once the output is flushed and the ``atexit`` handlers have run,
    ``os._exit`` skips interpreter teardown, which would free numpy and every
    module one object at a time after the answer is already written.
    """
    try:
        code = run_cli(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError as exc:
        sys.stderr.write(f"error: cannot write output: {exc.strerror}\n")
        code = 1
    sys.stderr.flush()
    atexit._run_exitfuncs()
    os._exit(code)


if __name__ == "__main__":
    main()
