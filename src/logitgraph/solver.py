"""Logit equilibrium solvers: continuation in ``n`` and Newton refinement at a fixed ``n``.

Every solve runs one bordered Newton corrector on ``H(x, log n) = x -
response(x, n)`` and measures convergence with the same sup-norm fixed-point
gap that ``logit_residual`` reports, so any returned solution can be
re-verified independently. The tracer follows the branch that starts at the
uniform profile (the limit of the response map as ``n`` goes to 0) by arc
length in ``(x, log n)``, through the folds where ``n`` turns back.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ConvergenceError, InvalidInputError, PathFailureError
from .games import (
    Game,
    MixedProfile,
    Record,
    _check_n_tol,
    _check_real,
    _cross_blocks,
    _deviation_rows,
    _logit_gap,
    _one_row,
    _profile_vectors,
    nash_residual,
    softmax,
)


def logit_response(n, game, x):
    """Best-response smoothing: per player, softmax of ``n`` times the deviation payoffs.

    ``n = 0`` returns the uniform profile for any game. The output is strictly
    positive and on the simplex.
    """
    _check_real("n", n, "nonnegative")
    w = _deviation_rows(game.form, _one_row(game.payoffs), _one_row(_profile_vectors(game.form, x)))
    return MixedProfile(tuple(softmax(n * d[0]) for d in w))


def _unstack(form, flat):
    out, pos = [], 0
    for m in form.action_counts:
        out.append(flat[pos : pos + m])
        pos += m
    return out


class PathEntry(Record):
    """One solved point along a continuation path."""

    n: float
    profile: MixedProfile
    residual: float


class PathTrace(Record):
    """Solutions in branch order, plus the terminal Nash gap; ``n`` falls between a fold's turns."""

    entries: tuple[PathEntry, ...]
    game: Game

    def __post_init__(self):
        for e in self.entries:
            _profile_vectors(self.game.form, e.profile)
            recomputed = _logit_gap(self.game, e.profile.vectors, e.n)
            if not abs(recomputed - e.residual) <= 1e-12:
                raise InvalidInputError(
                    f"entry at n={e.n}: stored residual {e.residual:.3e} "
                    f"!= recomputed {recomputed:.3e}"
                )

    @property
    def terminal_nash_residual(self):
        """Nash residual of the last entry's profile, or of the uniform profile the branch starts at."""
        last = self.entries[-1].profile if self.entries else MixedProfile.uniform(self.game.form)
        return nash_residual(self.game, last)


START_CONTRACTION = 0.5  # Lipschitz bound of the response map where a trace starts
MAX_NEWTON_ITER = 100  # Newton updates a solve at fixed n may take


def _homotopy(game, x, n, out):
    """``H(x, lam) = x - response(x, n)`` at ``lam = log n``; ``[H_x, H_lam]`` into ``out[:x.size]``.

    Block (i, j) of the response Jacobian is ``n*(diag(s_i) - s_i s_i^T) dw_i/dx_j``, and
    ``w_i`` is block ``dw_i/dx_j`` times ``x_j`` for the last other player ``j``.
    ``ds_i/dlam = (diag(s_i) - s_i s_i^T) log s_i``: ``log s_i`` is ``n w_i`` up to a
    constant, which that matrix annihilates.
    """
    form, vectors = game.form, _unstack(game.form, x)
    blocks, k = _cross_blocks(form, game.payoffs, vectors), form.num_players
    responses = []
    for i, (w, rows) in enumerate(zip(game.payoffs, _unstack(form, out))):
        j = k - 1 if i < k - 1 else k - 2  # the last other player; a lone player's w is its payoffs
        s = softmax(n * (blocks[i, j] @ vectors[j] if j >= 0 else w))
        for l, part in enumerate(c.T for c in _unstack(form, rows.T)):  # block (i, l) of H_x
            b = blocks.get((i, l))  # None on the diagonal, where H_x is the identity
            part[:] = np.eye(len(s)) if b is None else n * (np.outer(s, s @ b) - s[:, None] * b)
        d = s * np.log(s, out=np.zeros_like(s), where=s > 0)
        rows[:, -1] = -(d - s * d.sum())
        responses.append(s)
    return x - np.concatenate(responses)


def _newton_iterates(game, z, normal, n=None):
    """Newton on ``H = 0`` in the hyperplane through ``z = (x, lam)`` normal to ``normal``.

    Yields ``(z, gap, tangent, update)`` per iterate: one solve of the bordered
    matrix ``[H_x, H_lam; normal^T]`` gives the update and the tangent, scaled to
    ``normal . tangent = 1``, both None where that matrix is singular. The iterates
    end there or at an update that is not finite. With ``n``, ``lam`` stays at
    ``log n`` and the response is taken at ``n`` itself; else at ``e^lam``, which
    saturates just below the largest float.
    """
    system, rhs = np.empty((z.size, z.size)), np.zeros((z.size, 2))  # refilled per iterate
    system[-1], rhs[-1, 0] = normal, 1.0
    while True:
        rhs[:-1, 1] = -_homotopy(game, z[:-1], math.exp(min(z[-1], 709.78)) if n is None else n, system)
        try:
            tangent, update = np.linalg.solve(system, rhs).T
        except np.linalg.LinAlgError:
            tangent = update = None
        yield z, float(np.abs(rhs[:-1, 1]).max()), tangent, update
        if update is None or not np.all(np.isfinite(update)):
            return
        z = z + update


def _arclength_step(game, y, t, h, tol):
    """Newton from ``y + h*t`` on the hyperplane through it normal to ``t``: ``(y, tangent)``.

    None rejects the step: the tangent at the prediction turns from ``t`` by more
    than ``acos(0.98)``, the first update is longer than ``0.3*h``, or 8 updates
    do not reach ``tol``. ``t . tangent = 1``, so the turn's cosine is ``1/|tangent|``.
    """
    iterates = itertools.islice(_newton_iterates(game, y + h * t, t), 9)
    for updates, (z, gap, tangent, update) in enumerate(iterates):
        if tangent is None:
            return None
        norm = np.linalg.norm(tangent)
        if updates == 0 and not (norm <= 1.0 / 0.98 and np.linalg.norm(update) <= 0.3 * h):
            return None
        if gap <= tol:
            return z, tangent / norm
    return None


def _newton_at(game, n, x, tol):
    """Plain Newton at fixed ``n`` from the raw stacked profile ``x``: ``(x, tangent)``.

    The bordering row keeps ``lam = log n``, so the update is the Newton step of
    ``H_x``, and the tangent of the branch comes with the last solve (None where
    ``H_x`` is singular). Raises ConvergenceError, carrying the best iterate and
    its gap, when ``MAX_NEWTON_ITER`` updates do not reach ``tol``.
    """
    best_x, best_gap = x, np.inf
    iterates = _newton_iterates(game, np.append(x, math.log(n)), np.eye(x.size + 1)[-1], n)
    iterates = itertools.islice(iterates, MAX_NEWTON_ITER + 1)  # the first is x itself
    for updates, (z, gap, tangent, _) in enumerate(iterates):
        if gap < best_gap:
            best_x, best_gap = z[:-1], gap
        if gap <= tol:
            return z[:-1], tangent
    raise ConvergenceError(
        f"newton solve stalled at gap {best_gap:.3e} (tol {tol:.3e}) for n={n}",
        best=_unstack(game.form, best_x),
        residual=best_gap,
        iterations=updates,
    )


@np.errstate(over="ignore", invalid="ignore")  # n*max|u| may overflow; the gap then fails
def solve_newton(n, game, x0, tol=1e-10):
    """Newton refinement of a logit equilibrium at precision ``n`` from a nearby ``x0``.

    Plain Newton steps on the fixed-point gap ``x - response(x)`` with its exact
    Jacobian (block (i, j) of ``d response/dx`` is ``n*(diag(s_i) - s_i s_i^T) dw_i/dx_j``)
    and no line search or damping: this refines a point near a solution, such as a
    trace entry, and does not solve from scratch; ``trace_logit_path(game, n)`` does.
    Raises ConvergenceError with the best iterate when the budget runs out.
    """
    _check_n_tol(n, tol)
    x, _ = _newton_at(game, n, np.concatenate(_profile_vectors(game.form, x0)), tol)
    return MixedProfile(tuple(_unstack(game.form, x)))


@np.errstate(over="ignore", invalid="ignore")  # as solve_newton
def trace_logit_path(game, n_final, tol=1e-10):
    """Follow the logit branch through the uniform profile up to ``n_final``.

    The first entry solves from the uniform profile at ``min(n_final, START_CONTRACTION /
    (max(k-1, 1) max(1, max|u|)))`` for ``k`` players, where the response map is a contraction:
    in the norm ``max_i |x_i|_1`` its Lipschitz constant is at most ``n (k-1) max|u|``, as the
    softmax Jacobian maps ``v`` to l1 size at most ``osc(v)/2`` and ``osc(dw_i) <= 2 max|u|
    sum_{j != i} |dx_j|_1``. From there pseudo-arclength continuation of ``H(x, log n) = 0``
    (Turocy's QRE homotopy) sets off along that solve's tangent and passes folds where ``n``
    turns back: a rejected step halves the arclength step ``h``, an accepted one grows it by
    1.3 up to 1. The last accepted point and a step past ``n_final`` bracket its first crossing,
    solved from their chord; a landing solve that fails rejects that step. Raises PathFailureError
    (partial trace) when the first solve fails, or when ``h`` underflows 1e-12: with the last
    failed landing's best iterate as ``best`` if a landing failed, else the last accepted point.
    """
    _check_n_tol(n_final, tol)
    form, entries, scale = game.form, [], max(1.0, max(float(np.abs(u).max()) for u in game.payoffs))
    start = min(n_final, START_CONTRACTION / (max(form.num_players - 1, 1) * scale))

    def partial():
        return PathTrace(entries=tuple(entries), game=game)

    def fail(message, best, residual):
        return PathFailureError(message, partial_trace=partial(), best=best, residual=residual)

    def record(n, x):
        vectors = _unstack(form, x)
        gap = _logit_gap(game, vectors, n)  # the gap logit_residual reports
        entries.append(PathEntry(n=n, profile=MixedProfile(tuple(vectors)), residual=gap))

    try:
        x, t = _newton_at(game, start, np.concatenate(MixedProfile.uniform(form).vectors), tol)
    except ConvergenceError as exc:
        raise fail(f"correction failed at n={start}", exc.best, exc.residual) from exc
    record(start, x)
    if n_final == start:
        return partial()
    y, t = np.append(x, math.log(start)), t / np.linalg.norm(t)
    h, lam_final, landing = 1.0, math.log(n_final), None
    while True:
        step = _arclength_step(game, y, t, h, tol)
        if step is not None and step[0][-1] >= lam_final:  # land on n_final from the chord
            ahead = step[0]
            chord = y + (lam_final - y[-1]) / (ahead[-1] - y[-1]) * (ahead - y)
            try:
                record(n_final, _newton_at(game, n_final, chord[:-1], tol)[0])
                return partial()
            except ConvergenceError as exc:  # a failed landing rejects the step
                landing, step = exc, None
        if step is None:
            h *= 0.5
            if h < 1e-12:
                if landing is not None:
                    raise fail(f"correction failed at n={n_final}", landing.best, landing.residual) from landing
                e = entries[-1]
                raise fail(f"step size underflow near n={e.n}", e.profile.vectors, e.residual)
            continue
        (y, t), h = step, min(1.3 * h, 1.0)
        record(math.exp(y[-1]), y[:-1])
