"""Coordinate maps between payoff space and the equilibrium graphs.

``phi`` sends a Nash graph point to split payoff coordinates and ``phi_inv``
reconstructs the unique graph point from any target; ``phi_n``/``phi_n_inv``
do the same for the logit graph at precision ``n``. Both inverses work one
player at a time: the profile comes straight out of the player's ``y_bar``
coordinate, then the mean payoffs are back-solved, so there is no fixed-point
coupling anywhere in the inverse direction. The reconstructions run on arrays
with a leading sample axis; the public inverses are batches of one.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, NotOnGraphError
from .games import (
    Game,
    GraphPoint,
    MixedProfile,
    TargetPoint,
    _deviation_rows,
    _graph_residual,
    _lift_bar,
    _logit_gap,
    _one_row,
    _profile_vectors,
    km_decompose,
    nash_residual,
)
from .maps import _check_n, _check_n_tol, _invert_rows, _stall_error, _water_level, softmax

GRAPH_RESIDUAL_TOL = 1e-8


def z_nash(game, x):
    """Per-player vectors ``deviation_payoffs + own probabilities``."""
    vectors = _profile_vectors(game.form, x)
    w = _deviation_rows(game.form, _one_row(game.payoffs), _one_row(vectors))
    return tuple(d[0] + v for d, v in zip(w, vectors))


def z_logit(n, game, x):
    """Per-player vectors ``w + softmax(n*w)`` with ``w`` the deviation payoffs.

    The softmax normalizes over the player's own actions, so on a logit graph
    point the added term equals the player's own probabilities and this map
    coincides with ``z_nash``.
    """
    _check_n(n)
    vectors = _profile_vectors(game.form, x)
    w = _deviation_rows(game.form, _one_row(game.payoffs), _one_row(vectors))
    return tuple(d[0] + softmax(n * d[0]) for d in w)


def phi(point, tol=GRAPH_RESIDUAL_TOL):
    """Split coordinates of a Nash graph point; the input's residual is re-verified."""
    if point.kind != "nash":
        raise InvalidInputError(f"expected a nash graph point, got kind {point.kind!r}")
    _graph_residual(point.game, point.profile, None, tol)
    rep = km_decompose(point.game)
    return TargetPoint(
        form=point.game.form,
        tilde_u=rep.tilde_u,
        y_bar=z_nash(point.game, point.profile),
    )


def phi_n(n, point, tol=GRAPH_RESIDUAL_TOL):
    """Split coordinates of a logit graph point at precision ``n``; residual re-verified."""
    if point.kind != "logit":
        raise InvalidInputError(f"expected a logit graph point, got kind {point.kind!r}")
    _graph_residual(point.game, point.profile, n, tol)
    rep = km_decompose(point.game)
    return TargetPoint(
        form=point.game.form,
        tilde_u=rep.tilde_u,
        y_bar=z_logit(n, point.game, point.profile),
    )


def _payoff_rows(form, tilde_u, values, x_vectors):
    """Payoffs ``tilde_u[i] + lift(bar_u[i])`` whose deviation payoffs at ``x_vectors`` equal ``values``.

    Every argument carries a leading sample axis, one array per player.
    """
    return tuple(
        t + _lift_bar(form, v - d, i)
        for i, (t, v, d) in enumerate(zip(tilde_u, values, _deviation_rows(form, tilde_u, x_vectors)))
    )


def _nash_rows(form, tilde_u, y_bar):
    """``phi_inv`` of every sample: returns (payoffs, profile vectors), one array per player."""
    values = tuple(np.minimum(b, _water_level(b)[:, None]) for b in y_bar)
    x_vectors = tuple(b - h for b, h in zip(y_bar, values))
    return _payoff_rows(form, tilde_u, values, x_vectors), x_vectors


def _logit_rows(n, form, tilde_u, y_bar, tol):
    """``phi_n_inv`` of every sample: returns (payoffs, profile vectors, failure).

    ``failure`` is None when every inversion reached ``tol``, else
    ``(sample, error)`` for the first failing sample, with the ConvergenceError
    ``h_numeric`` raises for its first failing player. The displacement
    ``y_bar - w`` equals ``softmax(n*w)`` up to the solve tolerance; the
    softmax form avoids cancellation and keeps tiny probabilities positive.
    """
    solved = [_invert_rows(n, b, tol) for b in y_bar]
    failure = None
    failed = np.array([r > tol for _, r in solved])  # (players, samples)
    if failed.any():
        row = int(np.flatnonzero(failed.any(axis=0))[0])
        w, r = solved[int(np.flatnonzero(failed[:, row])[0])]
        failure = (row, _stall_error(w[row], r[row], tol))
    values = tuple(w for w, _ in solved)
    x_vectors = tuple(softmax(n * w) for w in values)
    return _payoff_rows(form, tilde_u, values, x_vectors), x_vectors, failure


def phi_inv(t):
    """Reconstruct the Nash graph point mapped to ``t``.

    Per player, the water-filling split of ``y_bar`` gives the equilibrium
    probabilities (the simplex projection) and the deviation-payoff values
    (the clipped vector); the construction is total and the result's residual
    is exactly zero up to rounding.
    """
    payoffs, x_vectors = _nash_rows(t.form, _one_row(t.tilde_u), _one_row(t.y_bar))
    game = Game(t.form, tuple(p[0] for p in payoffs))
    profile = MixedProfile(tuple(x[0] for x in x_vectors))
    residual = nash_residual(game, profile)
    if residual > 1e-9:
        raise NotOnGraphError(f"reconstruction left nash residual {residual:.3e}")
    return GraphPoint(game=game, profile=profile, kind="nash", residual=residual)


def phi_n_inv(n, t, tol=1e-12):
    """Reconstruct the logit graph point at precision ``n`` mapped to ``t``.

    Per player, the softmax-displacement inverse of ``y_bar`` (the row kernel
    of ``h_numeric``) gives the deviation-payoff values; their softmax is the
    (strictly positive) probability vector. A failed inversion raises the
    ConvergenceError ``h_numeric`` would raise for the first failing player.
    """
    _check_n_tol(n, tol)
    payoffs, x_vectors, failure = _logit_rows(n, t.form, _one_row(t.tilde_u), _one_row(t.y_bar), tol)
    if failure:
        raise failure[1]
    game = Game(t.form, tuple(p[0] for p in payoffs))
    profile = MixedProfile(tuple(x[0] for x in x_vectors))
    residual = _logit_gap(game, profile.vectors, n)
    return GraphPoint(game=game, profile=profile, kind="logit", residual=residual, n=float(n))


def graph_point_gap(a, b):
    """Euclidean norm of the concatenated payoff and probability differences."""
    if a.game.form != b.game.form:
        raise InvalidInputError("graph points live over different forms")
    du = [pa - pb for pa, pb in zip(a.game.payoffs, b.game.payoffs)]
    dx = [xa - xb for xa, xb in zip(a.profile.vectors, b.profile.vectors)]
    return float(np.sqrt(sum(float(np.dot(v, v)) for v in du + dx)))


def approximation_gap(n, t, tol=1e-12):
    """Distance between the Nash and logit reconstructions of the same target."""
    return graph_point_gap(phi_inv(t), phi_n_inv(n, t, tol=tol))
