"""Benchmark of the logitgraph command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload trace --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Each operation is one CLI process over inputs that ``corpus.py`` writes from
the seed. Operations run one at a time from this process (a closed loop with
one client), each under its workload's deadline, and ``checker.py`` verifies
every output. An operation fails when it exits nonzero, when it runs past the
deadline (it is then killed and timed at the deadline), or when its output
fails the check.

``--trace 0`` runs the workload's rounds for about ``--seconds`` and reports
end-to-end numbers: medians over the run, also as ratios to a reference
process (README.md explains why). ``--trace 1`` runs a fixed prefix of the same
operation list twice per operation, plain and through ``shim.py``, and
reports per-layer numbers from the spans plus the tracing overhead; its call
counts repeat exactly at a fixed seed. ``--workload all`` runs every workload
both ways and prints every metric.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Lines before it log failed operations and the
child environment, and print the metrics that are not part of the JSON.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

import layers
from checker import check
from corpus import WORKLOADS, Corpus

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
SHIM = os.path.join(HERE, "shim.py")

# Per-op deadline, about twice the slowest successful op seen at the commit
# that introduced this benchmark (5 s for trace, 7 s for trace-large, 1.5 s
# for certify). A fold costs 17-40 s before the tracer gives up, so folds
# are cut off here and counted as failures.
DEADLINE_S = {"trace": 10.0, "trace-zerosum": 10.0, "trace-large": 20.0, "certify": 10.0}
# Tracing slows the hot loops; a traced op gets this multiple of the deadline.
TRACED_DEADLINE_FACTOR = 3.0
# Rounds in the fixed op list of a traced run.
TRACED_ROUNDS = {"trace": 3, "trace-zerosum": 3, "trace-large": 1, "certify": 2}
IMPORTTIME_PROBES = 5
# Ops per probe in a plain run.
PROBE_EVERY = 4
# Reference process for the timing ratios: it runs no logitgraph code.
REFERENCE = [sys.executable, "-c", "import numpy"]

CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": SRC,
}


@dataclass
class Outcome:
    op: object
    seconds: float
    error: str | None  # None when the op succeeded
    kind: str | None  # "exit", "deadline" or "check"


def child_env():
    env = dict(os.environ)
    env.update(CHILD_ENV)
    return env


def run_process(argv, env, deadline):
    """(exit code or None on timeout, stdout, stderr, wall seconds); killed at the deadline."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True
    )
    try:
        out, err = proc.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return None, out, err, deadline
    return proc.returncode, out, err, time.perf_counter() - start


def cli_argv(op):
    return [sys.executable, "-m", "logitgraph.cli", *op.args]


def execute(op, env, deadline, argv=None):
    code, out, err, seconds = run_process(argv or cli_argv(op), env, deadline)
    first_err = err.strip().splitlines()[0] if err.strip() else ""
    if code is None:
        return Outcome(op, seconds, f"deadline {deadline:g} s; {first_err}", "deadline")
    if code != 0:
        return Outcome(op, seconds, f"exit {code}; {first_err}", "exit")
    reason = check(op.check, out)
    if reason is not None:
        return Outcome(op, seconds, reason, "check")
    return Outcome(op, seconds, None, None)


def log_failure(outcome, label=""):
    op = outcome.op
    print(
        f"# failed{label} op={op.index} kind={outcome.kind} cmd={op.command} "
        f"input={os.path.basename(op.args[-1])} after={outcome.seconds:.3f}s: {outcome.error}"
    )


def probe(env):
    """[reference, setup] wall seconds: a bare numpy start, then an import-only CLI process."""
    times = []
    for argv in (REFERENCE, [sys.executable, "-m", "logitgraph.cli", "--help"]):
        code, _, err, seconds = run_process(argv, env, 60)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv[1:])} failed: {err.strip()[:200]}")
        times.append(seconds)
    return times


def tail(values):
    """Highest percentile with at least ten samples above it, and at least the median.

    Returns (value, percentile, sample count).
    """
    ordered = sorted(values)
    index = max(len(ordered) - 11, (len(ordered) - 1) // 2)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


def _schedule(rounds):
    """The ops of successive rounds, with a probe (None) before every PROBE_EVERY ops."""
    for ops in rounds:
        for k, op in enumerate(ops):
            if k % PROBE_EVERY == 0:
                yield None
            yield op


def run_plain(workload, seed, seconds, env, workdir):
    rounds = Corpus(workload, seed, workdir).rounds()
    deadline = DEADLINE_S[workload]
    first = next(rounds)
    execute(first[0], env, deadline)  # warm-up: compiles .pyc files, not timed
    outcomes, probes = [], []
    start = time.perf_counter()
    for item in _schedule(itertools.chain([first], rounds)):
        if outcomes and time.perf_counter() - start >= seconds:
            break
        if item is None:
            probes.append(probe(env))
        else:
            outcomes.append(execute(item, env, deadline))

    # Single process times swing by about +-10% from one process to the next,
    # and the machine also runs at one of two speeds about 1.5x apart,
    # switching over seconds to minutes. Medians over every sample of the run
    # damp the first; op and set-up times are also given over the median time
    # of a reference process, which cancels the second.
    ref = statistics.median(r for r, _ in probes)
    times = [o.seconds for o in outcomes]
    ok = [o for o in outcomes if o.error is None]
    metrics = {
        "setup_s": (statistics.median(s for _, s in probes), "s"),
        "setup_per_ref": (statistics.median(s / r for r, s in probes), "ratio"),
        "op_p50_per_ref": (statistics.median(times) / ref, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB"),
    }
    tail_value, tail_pct, samples = tail(times)
    extra = {
        "ref_s": (ref, "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (tail_value, f"s (p{tail_pct:.0f} of {samples})"),
        "ok_ops_per_s": (len(ok) / sum(times), "1/s"),
        "fail_share": ((len(outcomes) - len(ok)) / len(outcomes), "1"),
        "ok_op_s_max": (max((o.seconds for o in ok), default=0.0), "s"),
        "probes": (len(probes), "count"),
    }
    for command in sorted({o.op.command for o in outcomes}):
        per = [o.seconds for o in outcomes if o.op.command == command]
        short = {"invert-logit": "invert"}.get(command, command)
        extra[f"{short}_s_p50"] = (statistics.median(per), f"s (of {len(per)})")
        extra[f"{short}_p50_per_ref"] = (statistics.median(per) / ref, "ratio")
        if command == "trace":
            value, pct, n = tail(per)
            extra["trace_s_tail"] = (value, f"s (p{pct:.0f} of {n})")
    for o in outcomes:
        if o.error is not None:
            log_failure(o)
    correct = not any(o.kind == "check" for o in outcomes)
    return correct, len(outcomes), len(outcomes) - len(ok), metrics, extra


def import_times(env):
    """Median cumulative import time of numpy, and of logitgraph without numpy, from -X importtime."""
    numpy_s, own_s = [], []
    for _ in range(IMPORTTIME_PROBES):
        argv = [sys.executable, "-X", "importtime", "-c", "import logitgraph.cli"]
        code, _, err, _ = run_process(argv, env, 60)
        if code != 0:
            raise RuntimeError(f"import of logitgraph failed: {err.strip()[-200:]}")
        cumulative = {}
        for line in err.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if match:
                cumulative[match.group(2)] = int(match.group(1)) * 1e-6
        numpy_s.append(cumulative["numpy"])
        own_s.append(cumulative["logitgraph"] - cumulative["numpy"])
    return statistics.median(numpy_s), statistics.median(own_s)


def run_traced(workload, seed, env, workdir):
    rounds = Corpus(workload, seed, workdir).rounds()
    ops = [op for batch in itertools.islice(rounds, TRACED_ROUNDS[workload]) for op in batch]
    deadline = DEADLINE_S[workload]

    def traced_argv(op):
        return [sys.executable, SHIM, spans_path(op), str(op.index), *op.args]

    def spans_path(op):
        return os.path.join(workdir, f"spans-{op.index}.npz")

    execute(ops[0], env, deadline)  # warm-up, plain and traced, not timed
    execute(ops[0], env, deadline * TRACED_DEADLINE_FACTOR, traced_argv(ops[0]))
    os.remove(spans_path(ops[0]))

    summary = layers.Summary()
    overhead = []
    failures = []
    traced_check_failed = False
    for op in ops:
        plain = execute(op, env, deadline)
        if plain.kind == "deadline":
            # tracing only adds time, so the traced twin would be cut off too
            # and leave no spans
            failures.append(plain)
            continue
        traced = execute(op, env, deadline * TRACED_DEADLINE_FACTOR, traced_argv(op))
        if plain.error is not None:
            failures.append(plain)
        if traced.error is not None:
            log_failure(traced, " (traced)")
            traced_check_failed |= traced.kind == "check"
        if os.path.exists(spans_path(op)):
            summary.add(layers.load(spans_path(op)))
            os.remove(spans_path(op))
        overhead.append(traced.seconds - plain.seconds)

    metrics = summary.metrics()
    numpy_s, own_s = import_times(env)
    metrics["setup.numpy_import_s"] = (numpy_s, "s")
    metrics["setup.logitgraph_import_s"] = (own_s, "s")
    metrics["tracing.overhead_s"] = (statistics.median(overhead) if overhead else 0.0, "s")
    metrics["ops.failed"] = (len(failures), "count")
    for o in failures:
        log_failure(o)
    correct = not traced_check_failed and not any(o.kind == "check" for o in failures)
    return correct, len(ops), len(failures), metrics, {}


def environment(env):
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "child_env": {key: env[key] for key in CHILD_ENV},
    }


def result_line(correct, attempted, failed, metrics):
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run_one(workload, seed, seconds, traced, env, workdir):
    if traced:
        return run_traced(workload, seed, env, workdir)
    return run_plain(workload, seed, seconds, env, workdir)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "logitgraph", "cli.py")):
        print(f"error: no logitgraph sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    print("# env " + json.dumps(environment(env)))
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        if args.workload != "all":
            correct, attempted, failed, metrics, extra = run_one(
                args.workload, args.seed, args.seconds, args.trace == 1, env, workdir
            )
            for name, (value, unit) in {**metrics, **extra}.items():
                print(f"{name} {value!r} {unit}")
            print(result_line(correct, attempted, failed, metrics))
            return 0
        summary = {}
        for workload in WORKLOADS:
            for traced in (False, True):
                label = f"{workload}{' traced' if traced else ''}"
                sub = os.path.join(workdir, label.replace(" ", "-"))
                os.makedirs(sub)
                correct, attempted, failed, metrics, extra = run_one(
                    workload, args.seed, args.seconds, traced, env, sub
                )
                print(f"## {label}: correct={correct} attempted={attempted} failed={failed}")
                for name, (value, unit) in {**metrics, **extra}.items():
                    print(f"{label} {name} {value!r} {unit}")
                summary[label] = correct
        print(json.dumps({"correct": all(summary.values()), "workloads": summary}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(WORK):
            os.rmdir(WORK)


if __name__ == "__main__":
    sys.exit(main())
