"""Logit equilibrium solvers: damped iteration, Newton, and continuation in ``n``.

All solvers measure convergence with the same sup-norm fixed-point gap that
``logit_residual`` reports, so any returned solution can be re-verified
independently. The tracer follows the branch that starts at the uniform
profile (the limit of the response map as ``n`` goes to 0) and raises the
precision multiplicatively with an adaptive step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidInputError, PathFailureError
from .games import Game, MixedProfile, _logit_gap, _payoff_kernel, _profile_vectors, nash_residual
from .maps import _check_n_tol


def logit_response(n, game, x):
    """Best-response smoothing: per player, softmax of ``n`` times the deviation payoffs.

    ``n = 0`` returns the uniform profile for any game. The output is strictly
    positive and on the simplex.
    """
    if not (n >= 0 and math.isfinite(n)):
        raise InvalidInputError(f"n must be nonnegative and finite, got {n}")
    responses, _ = _payoff_kernel(game, _profile_vectors(game.form, x), n)
    return MixedProfile(tuple(responses))


def _unstack(form, flat):
    out, pos = [], 0
    for m in form.action_counts:
        out.append(flat[pos : pos + m])
        pos += m
    return out


def _response_jacobian(n, form, responses, blocks):
    """Stacked response Jacobian: block (i, j) is ``n*(diag(s_i) - s_i s_i^T) dw_i/dx_j``."""
    edges = np.cumsum((0,) + form.action_counts)
    jac = np.zeros((edges[-1], edges[-1]))
    for (i, j), block in blocks.items():
        s = responses[i]
        jac[edges[i] : edges[i + 1], edges[j] : edges[j + 1]] = n * (
            s[:, None] * block - np.outer(s, s @ block)
        )
    return jac


def solve_fixed_point(n, game, x0, damping=0.5, tol=1e-10, max_iter=5000):
    """Damped iteration ``x <- (1-damping)*x + damping*response(x)`` until the gap <= tol.

    Raises ConvergenceError carrying the best iterate if the budget runs out;
    callers typically fall back to ``trace_logit_path``.
    """
    if not (0.0 < damping <= 1.0):
        raise InvalidInputError(f"damping must be in (0, 1], got {damping}")
    _check_n_tol(n, tol)
    if not max_iter > 0:
        raise InvalidInputError(f"max_iter must be positive, got {max_iter}")
    vectors = [np.array(v, dtype=float) for v in _profile_vectors(game.form, x0)]
    best_vecs, best_gap = vectors, np.inf
    for iteration in range(max_iter + 1):
        resp, _ = _payoff_kernel(game, vectors, n)
        gap = max(float(np.abs(v - r).max()) for v, r in zip(vectors, resp))
        if gap < best_gap:
            best_vecs, best_gap = vectors, gap
        if gap <= tol:
            return MixedProfile(tuple(vectors))
        if iteration == max_iter:
            break
        vectors = [(1.0 - damping) * v + damping * r for v, r in zip(vectors, resp)]
    raise ConvergenceError(
        f"fixed-point iteration stalled at gap {best_gap:.3e} (tol {tol:.3e})",
        best=best_vecs,
        residual=best_gap,
        iterations=max_iter,
    )


def _newton_solve(n, game, vectors, tol, max_iter, damping):
    """Newton on the fixed-point gap with damped-response fallback steps.

    Arguments are trusted raw arrays. The response and gap of an accepted
    line-search candidate carry over to the next iteration. Returns (vectors,
    iterations used, gap). Raises ConvergenceError on budget exhaustion.
    """
    form = game.form
    x, resp = np.concatenate(vectors), None
    best_x, best_gap = x, np.inf
    for iteration in range(max_iter + 1):
        if resp is None:
            resp = np.concatenate(_payoff_kernel(game, _unstack(form, x), n)[0])
            gap = float(np.abs(x - resp).max())
        if gap < best_gap:
            best_x, best_gap = x, gap
        if gap <= tol:
            return _unstack(form, x), iteration, gap
        if iteration == max_iter:
            break
        moved = False
        responses, blocks = _payoff_kernel(game, _unstack(form, x), n, jacobian=True)
        jac = np.eye(x.size) - _response_jacobian(n, form, responses, blocks)
        try:
            step = np.linalg.solve(jac, resp - x)
        except np.linalg.LinAlgError:
            step = None
        if step is not None and np.all(np.isfinite(step)):
            t = 1.0
            for _ in range(25):
                cand = x + t * step
                cand_resp = np.concatenate(_payoff_kernel(game, _unstack(form, cand), n)[0])
                cand_gap = float(np.abs(cand - cand_resp).max())
                if cand_gap <= (1.0 - 1e-4 * t) * gap:
                    x, resp, gap, moved = cand, cand_resp, cand_gap, True
                    break
                t *= 0.5
        if not moved:
            # Newton rejected: take a damped response step instead
            x, resp = (1.0 - damping) * x + damping * resp, None
    raise ConvergenceError(
        f"newton solve stalled at gap {best_gap:.3e} (tol {tol:.3e}) for n={n}",
        best=_unstack(form, best_x),
        residual=best_gap,
        iterations=max_iter,
    )


def solve_newton(n, game, x0, tol=1e-10, max_iter=100, damping=0.5):
    """Newton refinement of a logit equilibrium from an interior start ``x0``.

    The residual map is the fixed-point gap ``x - response(x)``. Its Jacobian is
    exact: block (i, j) of ``d response/dx`` is ``n*(diag(s_i) - s_i s_i^T) dw_i/dx_j``.
    Steps that fail to reduce the gap are replaced by damped response steps.
    """
    _check_n_tol(n, tol)
    vectors = _profile_vectors(game.form, x0)
    solution, _, _ = _newton_solve(n, game, vectors, tol, max_iter, damping)
    return MixedProfile(tuple(solution))


@dataclass(frozen=True, eq=False)
class PathEntry:
    """One solved point along a continuation path."""

    n: float
    profile: MixedProfile
    residual: float


@dataclass(frozen=True, eq=False)
class PathTrace:
    """Solutions at strictly increasing precisions, plus the terminal Nash gap."""

    entries: tuple[PathEntry, ...]
    game: Game
    terminal_nash_residual: float

    def __post_init__(self):
        ns = [e.n for e in self.entries]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise InvalidInputError("path entries must have strictly increasing n")
        for e in self.entries:
            recomputed = _logit_gap(self.game, e.profile.vectors, e.n)
            if abs(recomputed - e.residual) > 1e-12:
                raise InvalidInputError(
                    f"entry at n={e.n}: stored residual {e.residual:.3e} "
                    f"!= recomputed {recomputed:.3e}"
                )


MAX_PROFILE_STEP = 0.5  # declared sup-norm limit on accepted per-step movement


def trace_logit_path(game, n_final, n_start=1e-3, tol=1e-10, max_corrector_iter=200):
    """Follow logit equilibria from near-zero precision up to ``n_final``.

    Starts at the uniform profile, advances ``n`` by an adaptive multiplicative
    factor (initially 1.5, shrunk by half on corrector failure or when the
    solution moves more than ``MAX_PROFILE_STEP`` in sup norm, grown by 1.2 on
    fast success), and corrects each predictor with the Newton solver. The
    returned trace ends exactly at ``n_final``.

    If the corrector still converges far from the predictor at the minimal
    step, the branch through the previous point ends there and the move is
    accepted as a branch jump; every recorded point is a genuine solution at
    its ``n`` either way. Raises PathFailureError (carrying the partial trace)
    if the corrector keeps failing as the step factor underflows below 1e-12
    relative.
    """
    _check_n_tol(n_final, tol)
    if not 0 < n_start < n_final:
        raise InvalidInputError(f"need 0 < n_start < n_final, got {n_start}, {n_final}")

    entries = []

    def partial():
        if entries:
            terminal = nash_residual(game, entries[-1].profile)
        else:
            terminal = nash_residual(game, MixedProfile.uniform(game.form))
        return PathTrace(entries=tuple(entries), game=game, terminal_nash_residual=terminal)

    def record(n_value, vectors, gap):
        entries.append(PathEntry(n=n_value, profile=MixedProfile(tuple(vectors)), residual=gap))

    vectors = list(MixedProfile.uniform(game.form).vectors)
    try:
        vectors, _, gap = _newton_solve(n_start, game, vectors, tol, max_corrector_iter, 0.5)
    except ConvergenceError as exc:
        raise PathFailureError(
            f"correction failed at starting precision n={n_start}",
            partial_trace=partial(),
            best=exc.best,
            residual=exc.residual,
        ) from exc
    record(n_start, vectors, gap)

    n = n_start
    factor = 1.5
    while n < n_final:
        target = min(n * factor, n_final)
        try:
            new_vectors, iters, new_gap = _newton_solve(
                target, game, vectors, tol, max_corrector_iter, 0.5
            )
        except ConvergenceError as exc:
            factor = 1.0 + 0.5 * (factor - 1.0)
            if factor - 1.0 < 1e-12:
                raise PathFailureError(
                    f"step size underflow near n={n}",
                    partial_trace=partial(),
                    best=exc.best,
                    residual=exc.residual,
                ) from exc
            continue
        moved = max(
            float(np.abs(a - b).max()) for a, b in zip(new_vectors, vectors)
        )
        jumped = moved > MAX_PROFILE_STEP
        if jumped:
            factor = 1.0 + 0.5 * (factor - 1.0)
            if factor - 1.0 >= 1e-12:
                continue  # smaller precision step keeps a continuous branch inside the limit
            # converged far from the predictor even at the minimal step: the
            # branch ends here, accept the jump and restart the step size
        vectors, n = new_vectors, target
        record(n, vectors, new_gap)
        if jumped:
            factor = 1.5
        elif iters <= 5:
            factor = min(1.0 + 1.2 * (factor - 1.0), 8.0)
    return partial()


def approximate_nash(game, n_final, tol=1e-10):
    """Terminal profile of the continuation path and its Nash residual.

    The profile solves the softmax fixed point at ``n_final``, so every action
    carries positive probability (entries can still round to zero in floating
    point once ``n_final`` times the payoff gap passes the exp underflow
    threshold). Path failures propagate.
    """
    trace = trace_logit_path(game, n_final, tol=tol)
    terminal = trace.entries[-1]
    return terminal.profile, trace.terminal_nash_residual
