"""Logit equilibrium solvers: damped iteration, Newton, and continuation in ``n``.

All solvers measure convergence with the same sup-norm fixed-point gap that
``logit_residual`` reports, so any returned solution can be re-verified
independently. The tracer follows the branch that starts at the uniform
profile (the limit of the response map as ``n`` goes to 0) by arc length in
``(x, log n)``, through the folds where ``n`` turns back.
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
    """Solutions in branch order, plus the terminal Nash gap; ``n`` falls between a fold's turns."""

    entries: tuple[PathEntry, ...]
    game: Game
    terminal_nash_residual: float

    def __post_init__(self):
        for e in self.entries:
            recomputed = _logit_gap(self.game, e.profile.vectors, e.n)
            if abs(recomputed - e.residual) > 1e-12:
                raise InvalidInputError(
                    f"entry at n={e.n}: stored residual {e.residual:.3e} "
                    f"!= recomputed {recomputed:.3e}"
                )


TRACE_START = 1e-3  # precision of the first trace entry, solved from the uniform profile


def _homotopy(game, y):
    """``H(x, lam) = x - response(x, e^lam)`` at ``y = (x, lam)`` and its Jacobian ``[H_x, H_lam]``.

    ``ds_i/dlam = (diag(s_i) - s_i s_i^T) log s_i``: ``log s_i`` is ``n w_i`` up to a
    constant, which that matrix annihilates. ``e^lam`` saturates just below the largest float.
    """
    form, x, n = game.form, y[:-1], math.exp(min(y[-1], 709.78))
    responses, blocks = _payoff_kernel(game, _unstack(form, x), n, jacobian=True)
    ds = [r * np.log(r, out=np.zeros_like(r), where=r > 0) for r in responses]
    ds = np.concatenate([d - r * d.sum() for r, d in zip(responses, ds)])
    jac = np.eye(x.size) - _response_jacobian(n, form, responses, blocks)
    return x - np.concatenate(responses), np.column_stack([jac, -ds])


def _arclength_step(game, y, t, h, tol):
    """Newton from ``y + h*t`` on the hyperplane through it normal to ``t``: ``(y, tangent)``.

    None rejects the step: the tangent at the prediction turns from ``t`` by more
    than ``acos(0.98)``, the first update is longer than ``0.3*h``, or 8 updates
    do not reach ``tol``. Tangents solve ``[H_x, H_lam; t^T] t' = e_last``.
    """
    z, unit = y + h * t, np.eye(y.size)[-1]
    for updates in range(9):
        residual, jac = _homotopy(game, z)
        rhs = np.column_stack([unit, np.append(-residual, 0.0)])
        try:
            tangent, update = np.linalg.solve(np.vstack([jac, t]), rhs).T
        except np.linalg.LinAlgError:
            return None
        norm = np.linalg.norm(tangent)
        if updates == 0 and not (norm <= 1.0 / 0.98 and np.linalg.norm(update) <= 0.3 * h):
            return None
        if np.abs(residual).max() <= tol:
            return z, tangent / norm
        z = z + update
    return None


def trace_logit_path(game, n_final, tol=1e-10):
    """Follow the logit branch through the uniform profile from ``TRACE_START`` to ``n_final``.

    Pseudo-arclength continuation of ``H(x, log n) = 0`` (Turocy's QRE
    homotopy), through folds where ``n`` turns back: a rejected step halves the
    arclength step ``h``, an accepted one grows it by 1.3 up to 1. The last two
    accepted points bracket the first crossing of ``n_final``, solved from their
    chord. Raises PathFailureError (partial trace, last accepted point as
    ``best``) when ``h`` underflows 1e-12 or a solve at fixed ``n`` fails.
    """
    _check_n_tol(n_final, tol)
    if not n_final > TRACE_START:
        raise InvalidInputError(f"n_final must exceed TRACE_START={TRACE_START}, got {n_final}")
    form, entries = game.form, []

    def partial():
        last = entries[-1].profile if entries else MixedProfile.uniform(form)
        terminal = nash_residual(game, last)
        return PathTrace(entries=tuple(entries), game=game, terminal_nash_residual=terminal)

    def fail(message, best, residual):
        return PathFailureError(message, partial_trace=partial(), best=best, residual=residual)

    def record(n, vectors, gap):
        entries.append(PathEntry(n=n, profile=MixedProfile(tuple(vectors)), residual=gap))

    def solve(n, vectors):
        try:
            vectors, _, gap = _newton_solve(n, game, vectors, tol, 200, 0.5)
        except ConvergenceError as exc:
            raise fail(f"correction failed at n={n}", exc.best, exc.residual) from exc
        record(n, vectors, gap)

    solve(TRACE_START, MixedProfile.uniform(form).vectors)
    y = np.append(np.concatenate(entries[0].profile.vectors), math.log(TRACE_START))
    t, h, lam_final = np.eye(y.size)[-1], 1.0, math.log(n_final)
    while True:
        step = _arclength_step(game, y, t, h, tol)
        if step is None:
            h *= 0.5
            if h < 1e-12:
                e = entries[-1]
                raise fail(f"step size underflow near n={e.n}", e.profile.vectors, e.residual)
            continue
        if step[0][-1] >= lam_final:
            break
        (y, t), h = step, min(1.3 * h, 1.0)
        n, vectors = math.exp(y[-1]), _unstack(form, y[:-1])
        record(n, vectors, _logit_gap(game, vectors, n))  # the gap logit_residual reports
    ahead = step[0]
    chord = y + (lam_final - y[-1]) / (ahead[-1] - y[-1]) * (ahead - y)
    solve(n_final, _unstack(form, chord[:-1]))
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
