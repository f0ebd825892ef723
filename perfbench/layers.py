"""Per-layer numbers from the spans that ``shim.py`` writes, one file per operation.

A span's self time is its duration minus the durations of its direct
children. Spans are stored in the order they started and nest properly, so
the descendants of span ``i`` are exactly the spans from ``i + 1`` up to the
first one that starts after span ``i`` ends.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

LAYERS = ("cli", "io", "games", "maps", "graph_maps", "solver", "studies", "verification")

# functions whose calls and self time are reported on their own
FUNCTIONS = (
    "games.deviation_payoffs",
    "maps.softmax",
    "maps.h_numeric",
    "maps.h_exact",
    "graph_maps.phi_n_inv",
    "graph_maps.phi_inv",
    "solver.trace_logit_path",
    "studies.convergence_study",
    "studies.sample_target_points",
    "verification.run_property_suite",
    "cli.run_cli",
)

TRACE = "solver.trace_logit_path"
H_NUMERIC = "maps.h_numeric"


def load(path):
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def self_times(spans):
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested], minlength=duration.size)
    return duration - children


class Summary:
    """Accumulates counts and self times over many operations' spans."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.failed = defaultdict(int)
        self.self_s = defaultdict(float)
        self.spans = 0
        self.traces = 0
        self.trace_entries = 0
        self.trace_dev_calls = 0
        self.h_iters = 0
        self.h_evals = 0

    def add(self, spans):
        names = [str(n) for n in spans["names"]]
        ids = spans["name"]
        failed = spans["failed"].astype(bool)
        own = self_times(spans)
        calls = np.bincount(ids, minlength=len(names))
        fails = np.bincount(ids, weights=failed, minlength=len(names))
        own_sums = np.bincount(ids, weights=own, minlength=len(names))
        for j, key in enumerate(names):
            self.calls[key] += int(calls[j])
            self.failed[key] += int(fails[j])
            self.self_s[key] += float(own_sums[j])
        self.spans += ids.size

        def is_named(key):
            return ids == names.index(key) if key in names else np.zeros(ids.size, dtype=bool)

        # deviation-payoff calls inside each successful trace, per path entry
        dev_before = np.concatenate([[0], np.cumsum(is_named("games.deviation_payoffs"))])
        for i in np.flatnonzero(is_named(TRACE) & ~failed):
            last = int(np.searchsorted(spans["start"], spans["end"][i], side="left"))
            self.traces += 1
            self.trace_entries += int(spans["size"][i])
            self.trace_dev_calls += int(dev_before[last] - dev_before[i + 1])

        # Newton iterations of h_numeric: one Jacobian per iteration
        parent = spans["parent"]
        under_h = np.zeros(ids.size, dtype=bool)
        nested = parent >= 0
        under_h[nested] = is_named(H_NUMERIC)[parent[nested]]
        self.h_iters += int((under_h & is_named("maps.g_jacobian")).sum())
        self.h_evals += int((under_h & is_named("maps.g_map")).sum())

    def metrics(self):
        """Flat metric name -> (value, unit)."""
        out = {}
        for fn in FUNCTIONS:
            out[f"{fn}.calls"] = (self.calls[fn], "count")
            out[f"{fn}.self_s"] = (self.self_s[fn], "s")
        for fn in (TRACE, H_NUMERIC):
            out[f"{fn}.failed"] = (self.failed[fn], "count")
        out["maps.h_numeric.iters"] = (self.h_iters, "count")
        out["maps.h_numeric.evals_per_iter"] = (self.h_evals / max(self.h_iters, 1), "evals/iter")
        out["solver.entries_per_trace"] = (self.trace_entries / max(self.traces, 1), "entries")
        out["solver.dev_calls_per_entry"] = (
            self.trace_dev_calls / max(self.trace_entries, 1), "calls/entry"
        )
        parse = sum(v for k, v in self.self_s.items() if k.startswith("io.parse"))
        out["io.parse.self_s"] = (parse, "s")
        out["io.emit.self_s"] = (
            sum(v for k, v in self.self_s.items() if k.startswith("io.")) - parse, "s"
        )
        for layer in LAYERS:
            total = sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))
            out[f"layer.{layer}.self_s"] = (total, "s")
        out["tracing.spans"] = (self.spans, "count")
        return out
