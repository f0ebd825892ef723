"""Command-line front end for batch use of the library.

Subcommands: ``decompose``, ``solve``, ``trace``, ``invert-nash``,
``invert-logit``, ``verify``, ``study``. Exit codes: 0 success, 1 validation
or usage error, 2 convergence failure.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys

from .errors import ConvergenceError, InvalidInputError, ParseError
from .games import StrategicGameForm, _check_n_tol, km_decompose
from .io import parse_game, parse_target_point, render


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def print_help(self, file=None):
        # argparse's own printer swallows a failed write; main() must see it
        (sys.stdout if file is None else file).write(self.format_help())


def _build_parser():
    # the global flags, shared by the main parser and every subparser so they
    # work before or after the command; run_cli fills their defaults
    shared = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    shared.add_argument("--tol", type=float, help="solver tolerance")
    shared.add_argument("--out", help="write output to this path instead of stdout")
    shared.add_argument("--format", choices=("json", "csv"), help="output format")
    parser = _Parser(prog="logitgraph", description=__doc__, parents=[shared])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        return sub.add_parser(name, help=help_text, parents=[shared])

    p = command("decompose", "split a game into mean and zero-mean payoff parts")
    p.add_argument("game", help="path to a game JSON file")

    p = command("solve", "logit equilibrium at a fixed precision, via the tracer")
    p.add_argument("--n", type=float, required=True)
    p.add_argument("game")

    p = command("trace", "follow logit equilibria up to a final precision")
    p.add_argument("--n-final", type=float, required=True)
    p.add_argument("game")

    p = command("invert-nash", "reconstruct the Nash graph point of a target")
    p.add_argument("--project-tilde", action="store_true")
    p.add_argument("target", help="path to a target JSON file")

    p = command("invert-logit", "reconstruct the logit graph point of a target")
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--project-tilde", action="store_true")
    p.add_argument("target")

    p = command("verify", "run the desk-scale property suite")
    p.add_argument("game", help="path to a game JSON file, or 'none'")

    p = command("study", "uniform-approximation study over sampled targets")
    p.add_argument("--form", required=True, help="players:actions, e.g. 2:2,2")
    p.add_argument("--n-list", required=True, help="comma-separated ascending precisions")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--bound-box", type=float, default=10.0)

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
    return StrategicGameForm(players, counts)


def _parse_n_list(text):
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise InvalidInputError(f"--n-list: expected comma-separated numbers, got {text!r}") from exc


def _game(args):
    return parse_game(_read(args.game))


def _target(args):
    return parse_target_point(_read(args.target), project_tilde=args.project_tilde)


# Each handler imports the layers it runs, so a process loads only those.
def _trace(args):
    from .solver import trace_logit_path

    return trace_logit_path(_game(args), n_final=args.n_final, tol=args.tol)


def _solve(args):
    from .solver import trace_logit_path

    return trace_logit_path(_game(args), n_final=args.n, tol=args.tol).entries[-1]


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


# command -> (builds its record from the parsed arguments, its default format)
_COMMANDS = {
    "decompose": (lambda args: km_decompose(_game(args)), "json"),
    "solve": (_solve, "json"),
    "trace": (_trace, "csv"),
    "invert-nash": (_invert_nash, "json"),
    "invert-logit": (_invert_logit, "json"),
    "study": (_study, "json"),
}


def _verify(args):
    from .verification import run_property_suite

    game = None if args.game == "none" else _game(args)
    results = run_property_suite(game)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
    ]
    code = 0 if all(r.passed for r in results) else 1
    return "\n".join(lines) + "\n", code


def _dispatch(args):
    # checked before any input file is read: the precision of solve, trace and
    # invert-logit, and --tol, which only they read but every command rejects
    _check_n_tol(getattr(args, "n", getattr(args, "n_final", 1.0)), args.tol)
    if args.command == "verify":
        return _verify(args)
    build, default_format = _COMMANDS[args.command]
    return render(build(args), args.format or default_format), 0


def run_cli(argv, stdout=None, stderr=None):
    """Run one invocation; returns the exit code without calling sys.exit."""
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv, argparse.Namespace(tol=1e-10, out=None, format=None))
    except _UsageError as exc:
        stderr.write(parser.format_usage())
        stderr.write(f"error: {exc}\n")
        return 1
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
        try:
            code = run_cli(sys.argv[1:])
        except SystemExit as exc:  # argparse after printing --help
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError as exc:
        sys.stderr.write(f"error: cannot write output: {exc.strerror}\n")
        code = 1
    sys.stderr.flush()
    atexit._run_exitfuncs()
    os._exit(code)


if __name__ == "__main__":
    main()
