"""Run one logitgraph CLI invocation with a span around every layer call.

Usage: ``python3 shim.py SPANS_PATH OP_ID CLI_ARGS...``

Every public function of each layer module is wrapped, and the wrapper is
bound in every ``logitgraph`` namespace that held the original, so calls from
other modules and from private helpers are recorded too. Each span holds the
layer-qualified name, start, end, parent span, op id, whether it raised, and
for ``solver.trace_logit_path`` the number of path entries returned. Spans
stay in memory and are written with ``numpy.savez`` when the command returns;
a process killed before that leaves no spans.
"""

import functools
import importlib
import inspect
import sys
import time

import numpy as np

from layers import LAYERS

# result size recorded per span, by span name
SIZES = {"solver.trace_logit_path": lambda trace: len(trace.entries)}


class Recorder:
    """Span store; parents are indices into the same arrays."""

    def __init__(self):
        self.name_ids = {}
        self.name = []
        self.parent = []
        self.start = []
        self.end = []
        self.failed = []
        self.size = []
        self.stack = []

    def wrap(self, span_name, fn):
        name_id = self.name_ids.setdefault(span_name, len(self.name_ids))
        size_of = SIZES.get(span_name)
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.failed.append(0)
            self.size.append(0)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[index] = 1
                raise
            finally:
                self.end[index] = clock()
                stack.pop()
            if size_of is not None:
                self.size[index] = size_of(result)
            return result

        return traced

    def save(self, path, op_id):
        count = len(self.start)
        np.savez(
            path,
            names=np.array(list(self.name_ids), dtype=str),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            failed=np.array(self.failed, dtype=np.int8),
            size=np.array(self.size, dtype=np.int64),
            op=np.full(count, op_id, dtype=np.int64),
        )


def install(recorder):
    """Wrap each layer's public functions in every logitgraph namespace; return the cli module."""
    modules = {layer: importlib.import_module(f"logitgraph.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                wrapped[id(value)] = recorder.wrap(f"{layer}.{attr}", value)
    for name, module in list(sys.modules.items()):
        if name == "logitgraph" or name.startswith("logitgraph."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])
    return modules["cli"]


def main(argv):
    spans_path, op_id, cli_args = argv[0], int(argv[1]), argv[2:]
    recorder = Recorder()
    cli = install(recorder)
    try:
        code = cli.run_cli(cli_args)
    finally:
        recorder.save(spans_path, op_id)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
