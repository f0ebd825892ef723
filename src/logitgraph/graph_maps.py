"""Coordinate maps between payoff space and the equilibrium graphs.

``phi`` sends a Nash graph point, or a logit graph point at its own precision
``n``, to split payoff coordinates; ``phi_inv`` and ``phi_n_inv`` reconstruct
the unique Nash and logit graph point from any target: a game in split
coordinates, a ``KMRepresentation`` whose ``bar_u`` is the paper's ``y_bar``.
Both inverses work one player at a time: the profile comes straight out of the
player's ``y_bar``, then the mean payoffs are back-solved, so there is no
fixed-point coupling anywhere in the inverse direction. The reconstructions run
on arrays with a leading sample axis; the public inverses are batches of one.
The points themselves are ``games.GraphPoint`` records.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, NotOnGraphError
from .games import (
    Game,
    GraphPoint,
    KMRepresentation,
    _check_real,
    _deviation_rows,
    _lift_bar,
    _nash_gap_rows,
    _on_graph,
    _one_row,
    _profile_vectors,
    km_decompose,
    softmax,
)
from .maps import _check_below_2_53, _invert_rows, _stall_error, _water_level

def _z_rows(form, payoffs, vectors, n=None):
    """``z_nash`` of every sample, or ``z_logit`` when ``n`` is given; one array per player."""
    w = _deviation_rows(form, payoffs, vectors)
    if n is None:
        return tuple(d + v for d, v in zip(w, vectors))
    return tuple(d + softmax(n * d) for d in w)


def z_nash(game, x):
    """Per-player vectors ``deviation_payoffs + own probabilities``."""
    vectors = _profile_vectors(game.form, x)
    return tuple(z[0] for z in _z_rows(game.form, _one_row(game.payoffs), _one_row(vectors)))


def z_logit(n, game, x):
    """Per-player vectors ``w + softmax(n*w)`` with ``w`` the deviation payoffs.

    The softmax normalizes over the player's own actions, so on a logit graph
    point the added term equals the player's own probabilities and this map
    coincides with ``z_nash``.
    """
    _check_real(n=n)
    vectors = _profile_vectors(game.form, x)
    return tuple(z[0] for z in _z_rows(game.form, _one_row(game.payoffs), _one_row(vectors), n))


def phi(point):
    """The target of a graph point: Nash, or logit at ``point.n``; its residual is re-verified."""
    game = _on_graph(point).game
    y_bar = _z_rows(game.form, _one_row(game.payoffs), _one_row(point.profile.vectors), point.n)
    return KMRepresentation(km_decompose(game).tilde_u, tuple(z[0] for z in y_bar))


def _payoff_rows(form, tilde_u, values, x_vectors):
    """Payoffs ``tilde_u[i] + lift(bar_u[i])`` whose deviation payoffs at ``x_vectors`` equal ``values``.

    Every argument carries a leading sample axis, one array per player.
    """
    return tuple(
        t + _lift_bar(form, v - d, i)
        for i, (t, v, d) in enumerate(zip(tilde_u, values, _deviation_rows(form, tilde_u, x_vectors)))
    )


def _nash_rows(form, tilde_u, y_bar):
    """``phi_inv`` of all samples: (payoffs, profile vectors); NotOnGraphError above residual 1e-9."""
    values = tuple(np.minimum(b, _water_level(b)[:, None]) for b in y_bar)
    x_vectors = tuple(b - h for b, h in zip(y_bar, values))
    payoffs = _payoff_rows(form, tilde_u, values, x_vectors)
    residual = _nash_gap_rows(form, payoffs, x_vectors)
    if not residual.max() <= 1e-9:
        raise NotOnGraphError(f"reconstruction left nash residual {residual.max():.3e}")
    return payoffs, x_vectors


def _logit_rows(ns, form, tilde_u, y_bar, tol):
    """Yield ``phi_n_inv`` of every sample at each ``n`` of ``ns`` in turn: (payoffs, profile vectors).

    Every precision and every player of one width are inverted in one kernel call. Before
    yielding the first precision with a failed inversion, it raises the ConvergenceError
    ``h_numeric`` would raise for that precision's first failing sample and that sample's
    first failing player, naming the sample's row as ``sample`` and the precision as ``n``.
    The displacement ``y_bar - w`` equals ``softmax(n*w)`` up to the solve tolerance; the
    softmax form avoids cancellation and keeps tiny probabilities positive.
    """
    size, solved = len(y_bar[0]), [None] * len(y_bar)
    rates = np.repeat(np.asarray(ns, dtype=float), size)  # every sample at the first n, then the next
    for m in {b.shape[1] for b in y_bar}:
        players = [i for i, b in enumerate(y_bar) if b.shape[1] == m]
        rows = np.concatenate([np.tile(y_bar[i], (len(ns), 1)) for i in players])
        stacked = _invert_rows(np.tile(rates, len(players)), rows, tol)
        for i, *part in zip(players, *(np.split(a, len(players)) for a in stacked)):
            solved[i] = part
    for j, n in enumerate(ns):
        w, r, iterations = (tuple(s[k][j * size : (j + 1) * size] for s in solved) for k in range(3))
        failed = np.array(r) > tol  # (players, samples)
        if failed.any():
            row = int(np.flatnonzero(failed.any(axis=0))[0])
            i = int(np.flatnonzero(failed[:, row])[0])
            stall = _stall_error(w[i][row], r[i][row], tol, iterations[i][row])
            stall.sample, stall.n = row, n
            raise stall
        with np.errstate(over="ignore"):  # n*w may overflow to -inf, whose softmax entry is 0
            x = tuple(softmax(float(n) * v) for v in w)
        yield _payoff_rows(form, tilde_u, w, x), x


def phi_inv(t):
    """Reconstruct the Nash graph point mapped to the target ``t``, a KMRepresentation.

    Per player, the water-filling split of ``y_bar = t.bar_u`` gives the
    equilibrium probabilities (the simplex projection) and the deviation-payoff
    values (the clipped vector); the construction is total and the result's
    residual is exactly zero up to rounding. A ``y_bar`` vector whose top entry
    is past 2**53 in magnitude raises InvalidInputError.

    ``phi_inv(km_decompose(v))`` is the Nash point that ``phi`` maps to the game
    ``v``, not a point of ``v``'s own graph: the point's game shares ``v``'s
    ``tilde_u``, but its ``bar_u`` is ``y_bar - x - dev(tilde_u; x)``.
    """
    _check_below_2_53("y_bar entry", max(abs(float(b.max())) for b in t.bar_u))
    payoffs, x_vectors = _nash_rows(t.form, _one_row(t.tilde_u), _one_row(t.bar_u))
    return GraphPoint(Game(t.form, tuple(p[0] for p in payoffs)), [x[0] for x in x_vectors])


def phi_n_inv(n, t, tol=1e-12):
    """Reconstruct the logit graph point at precision ``n`` mapped to the target ``t``.

    Per player, the softmax-displacement inverse of ``y_bar = t.bar_u`` (the row
    kernel of ``h_numeric``) gives the deviation-payoff values; their softmax is
    the probability vector. It is positive in exact arithmetic, but once ``n`` times
    a payoff gap passes about 745 an entry underflows to exactly 0.0, and ``phi`` of
    the point then warns, as ``logit_residual`` does at a boundary profile. A failed
    inversion raises the ConvergenceError ``h_numeric`` would raise for the first
    failing player.
    """
    _check_real(n=n, tol=tol)
    [(payoffs, x_vectors)] = _logit_rows([n], t.form, _one_row(t.tilde_u), _one_row(t.bar_u), tol)
    return GraphPoint(Game(t.form, tuple(p[0] for p in payoffs)), [x[0] for x in x_vectors], n)


def _gap_rows(a, b):
    """Per-sample Euclidean norm of ``a - b``, sequences of arrays with a leading sample axis."""
    squares = ((d[:, None, :] @ d[:, :, None])[:, 0, 0] for d in (u - v for u, v in zip(a, b)))
    return np.sqrt(sum(squares))  # the matmul row dot rounds as np.dot does


def graph_point_gap(a, b):
    """Euclidean norm of the concatenated payoff and probability differences."""
    if a.game.form != b.game.form:
        raise InvalidInputError("graph points live over different forms")
    rows = (_one_row(p.game.payoffs + p.profile.vectors) for p in (a, b))
    return float(_gap_rows(*rows)[0])


def approximation_gap(n, t, tol=1e-12):
    """Distance between the Nash and logit reconstructions of the same target."""
    return graph_point_gap(phi_inv(t), phi_n_inv(n, t, tol=tol))
