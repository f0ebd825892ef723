"""Independent checks of CLI outputs, written with numpy alone.

Each check re-derives what it needs from the operation's stdout and the
corpus files: deviation payoffs by repeated ``tensordot``, the softmax, the
zero-mean split and the uniform-limit level epsilon*(n) by its own bisection.
No logitgraph code is imported. A check returns ``None`` when the output
holds, else a one-line reason.
"""

from __future__ import annotations

import json
import math

import numpy as np

from corpus import zero_mean

# MixedProfile's own tolerance: entries >= -1e-9 and sum within 1e-9 of 1.
# Terminal profiles at n = 400 carry entries that underflow to about -1e-25.
SIMPLEX_TOL = 1e-9
LOGIT_GAP_TOL = 1e-8
ROUND_TRIP_TOL = 1e-9


def deviation_payoffs(payoffs, shape, vectors, player):
    """Expected payoff of each own action of ``player`` against the others' mixtures."""
    tensor = np.asarray(payoffs[player], dtype=float).reshape(shape, order="F")
    # contract the highest axis first so lower axis numbers stay valid
    for j in reversed(range(len(shape))):
        if j != player:
            tensor = np.tensordot(tensor, vectors[j], axes=([j], [0]))
    return tensor


def softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def epsilon_star(n):
    """Root of ``eps * (1 + exp(eps * n)) = 1`` in (0, 0.5]; the upper end of the final bracket."""
    def log_lhs(eps):
        t = eps * n
        return math.log(eps) + (t + math.log1p(math.exp(-t)) if t > 0 else math.log1p(math.exp(t)))

    lo, hi = 0.0, 0.5
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if mid > 0 and log_lhs(mid) <= 0.0:
            lo = mid
        else:
            hi = mid


def _profile(x, shape):
    if len(x) != len(shape):
        return None, f"profile has {len(x)} vectors for {len(shape)} players"
    vectors = [np.asarray(v, dtype=float) for v in x]
    for i, (v, m) in enumerate(zip(vectors, shape)):
        if v.shape != (m,) or not np.all(np.isfinite(v)):
            return None, f"profile[{i}] malformed"
        if v.min() < -SIMPLEX_TOL or abs(v.sum() - 1.0) > SIMPLEX_TOL:
            return None, f"profile[{i}] off the simplex (min {v.min():.3e}, sum {float(v.sum())!r})"
    return vectors, None


def logit_gap(payoffs, shape, vectors, n):
    return max(
        float(np.abs(vectors[i] - softmax(n * deviation_payoffs(payoffs, shape, vectors, i))).max())
        for i in range(len(shape))
    )


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _check_solution(game, n_expected, n, x):
    shape = tuple(game["actions"])
    if n != n_expected:
        return f"terminal n {n!r} != requested {n_expected!r}"
    vectors, error = _profile(x, shape)
    if error:
        return error
    gap = logit_gap(game["payoffs"], shape, vectors, n)
    if not gap <= LOGIT_GAP_TOL:
        return f"logit gap {gap:.3e} > {LOGIT_GAP_TOL:.0e} at n={n}"
    return None


def check_trace(spec, out):
    game = _load(spec["game"])
    if out["game"]["actions"] != game["actions"] or not np.array_equal(
        np.asarray(out["game"]["payoffs"], dtype=float), np.asarray(game["payoffs"], dtype=float)
    ):
        return "echoed game differs from the input"
    entries = out["entries"]
    if not entries:
        return "trace has no entries"
    ns = [e["n"] for e in entries]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        return "entries not strictly increasing in n"
    return _check_solution(game, spec["n"], entries[-1]["n"], entries[-1]["x"])


def check_solve(spec, out):
    return _check_solution(_load(spec["game"]), spec["n"], out["n"], out["x"])


def check_study(spec, out):
    shape = spec["shape"]
    if out["form"] != {"players": len(shape), "actions": shape}:
        return f"form {out['form']} != requested {shape}"
    if out["seed"] != spec["seed"] or out["samples"] != spec["samples"]:
        return "seed or sample count not echoed"
    rows = out["rows"]
    if [r["n"] for r in rows] != spec["n_list"]:
        return f"rows at n={[r['n'] for r in rows]}, expected one per n in {spec['n_list']}"
    for r in rows:
        bound = max(shape) * epsilon_star(r["n"])
        if not 0.0 <= r["sup_gap_x"] <= bound:
            return f"sup_gap_x {r['sup_gap_x']!r} outside [0, {bound!r}] at n={r['n']}"
    return None


def check_invert_logit(spec, out):
    target = _load(spec["target"])
    n = spec["n"]
    shape = tuple(len(v) for v in target["y_bar"])
    game = out["game"]
    if out["kind"] != "logit" or out["n"] != n or tuple(game["actions"]) != shape:
        return "graph point kind, n or form do not match the request"
    vectors, error = _profile(out["x"], shape)
    if error:
        return error
    payoffs = [np.asarray(p, dtype=float) for p in game["payoffs"]]
    for i in range(len(shape)):
        defect = float(np.abs(zero_mean(shape, payoffs[i], i) - target["tilde_u"][i]).max())
        if not defect <= ROUND_TRIP_TOL:
            return f"player {i}: zero-mean part misses tilde_u by {defect:.3e}"
        w = deviation_payoffs(payoffs, shape, vectors, i)
        defect = float(np.abs(w + softmax(n * w) - target["y_bar"][i]).max())
        if not defect <= ROUND_TRIP_TOL:
            return f"player {i}: w + softmax(n w) misses y_bar by {defect:.3e}"
    gap = logit_gap(payoffs, shape, vectors, n)
    if not gap <= LOGIT_GAP_TOL:
        return f"logit gap {gap:.3e} > {LOGIT_GAP_TOL:.0e}"
    return None


def check_verify(spec, stdout):
    lines = stdout.splitlines()
    if not lines:
        return "no output"
    for line in lines:
        if not line.startswith("PASS "):
            return f"not a PASS line: {line[:120]}"
    return None


_JSON_CHECKS = {
    "trace": check_trace,
    "solve": check_solve,
    "study": check_study,
    "invert-logit": check_invert_logit,
}


def check(spec, stdout):
    """Check one successful operation's stdout against its spec; None when correct."""
    if spec["kind"] == "verify":
        return check_verify(spec, stdout)
    try:
        out = json.loads(stdout)
        return _JSON_CHECKS[spec["kind"]](spec, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
