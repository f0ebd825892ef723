"""Coordinate maps between payoff space and the equilibrium graphs.

``phi`` sends a Nash graph point, or a logit graph point at its own precision
``n``, to split payoff coordinates; ``phi_inv`` and ``phi_n_inv`` reconstruct
the unique Nash and logit graph point from any target: a game in split
coordinates, a ``KMRepresentation`` whose ``bar_u`` is the paper's ``y_bar``.
Both inverses work one player at a time: the profile comes straight out of the
player's ``y_bar``, then the mean payoffs are back-solved, so there is no
fixed-point coupling anywhere in the inverse direction. The reconstructions run
on arrays with a leading sample axis; the public inverses are batches of one.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, NotOnGraphError
from .games import (
    Game,
    KMRepresentation,
    MixedProfile,
    Record,
    _check_n,
    _check_n_tol,
    _deviation_rows,
    _lift_bar,
    _logit_gap,
    _nash_gap_rows,
    _one_row,
    _profile_vectors,
    km_decompose,
    logit_residual,
    nash_residual,
    softmax,
)
from .maps import _check_below_2_53, _invert_rows, _stall_error, _water_level

GRAPH_RESIDUAL_TOL = 1e-8


class GraphPoint(Record):
    """A (game, profile) pair on the Nash graph, or on the logit graph at precision ``n``.

    ``kind`` (``"nash"`` or ``"logit"``) and ``residual`` are read off the
    fields: the residual is recomputed on each read, as ``nash_residual`` or
    the logit gap at ``n``, so a point cannot misreport it. Use the
    ``nash``/``logit`` factories to have the residual verified.
    """

    game: Game
    profile: MixedProfile
    n: float | None = None

    def __post_init__(self):
        _profile_vectors(self.game.form, self.profile)
        if self.n is not None:
            _check_n(self.n)

    @property
    def kind(self):
        return "nash" if self.n is None else "logit"

    @property
    def residual(self):
        if self.n is None:
            return nash_residual(self.game, self.profile)
        return _logit_gap(self.game, self.profile.vectors, self.n)

    @classmethod
    def nash(cls, game, profile):
        profile = profile if isinstance(profile, MixedProfile) else MixedProfile(tuple(profile))
        _graph_residual(game, profile, None)
        return cls(game=game, profile=profile)

    @classmethod
    def logit(cls, game, profile, n):
        profile = profile if isinstance(profile, MixedProfile) else MixedProfile(tuple(profile))
        _graph_residual(game, profile, n)
        return cls(game=game, profile=profile, n=float(n))


def _graph_residual(game, profile, n):
    """NotOnGraphError if the Nash (``n`` None) or logit residual at ``n`` exceeds GRAPH_RESIDUAL_TOL."""
    residual = nash_residual(game, profile) if n is None else logit_residual(game, profile, n)
    if not residual <= GRAPH_RESIDUAL_TOL:
        kind = "nash" if n is None else "logit"
        raise NotOnGraphError(f"{kind} residual {residual:.3e} exceeds {GRAPH_RESIDUAL_TOL:.1e}")


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
    _check_n(n)
    vectors = _profile_vectors(game.form, x)
    return tuple(z[0] for z in _z_rows(game.form, _one_row(game.payoffs), _one_row(vectors), n))


def phi(point):
    """The target of a graph point: Nash, or logit at ``point.n``; its residual is re-verified."""
    game = point.game
    _graph_residual(game, point.profile, point.n)
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


@np.errstate(over="ignore", invalid="ignore")  # a failed inversion's softmax may overflow
def _logit_values(n, y_bar, tol):
    """Invert every sample's ``y_bar``: returns (deviation-payoff values, profiles, failure).

    ``n`` is a scalar or one precision per sample; players of equal width are inverted
    in one kernel call. ``failure`` is None when every inversion reached ``tol``, else
    ``(sample, error)`` for the first failing sample, with the ConvergenceError
    ``h_numeric`` raises for its first failing player. The displacement
    ``y_bar - w`` equals ``softmax(n*w)`` up to the solve tolerance; the
    softmax form avoids cancellation and keeps tiny probabilities positive.
    """
    n, solved = np.broadcast_to(np.asarray(n, dtype=float), y_bar[0].shape[:1]), [None] * len(y_bar)
    for m in {b.shape[1] for b in y_bar}:
        players = [i for i, b in enumerate(y_bar) if b.shape[1] == m]
        stacked = _invert_rows(np.tile(n, len(players)), np.concatenate([y_bar[i] for i in players]), tol)
        for i, *part in zip(players, *(np.split(a, len(players)) for a in stacked)):
            solved[i] = part
    failure = None
    failed = np.array([r > tol for _, r, _ in solved])  # (players, samples)
    if failed.any():
        row = int(np.flatnonzero(failed.any(axis=0))[0])
        w, r, iterations = solved[int(np.flatnonzero(failed[:, row])[0])]
        failure = (row, _stall_error(w[row], r[row], tol, iterations[row]))
    values = tuple(w for w, _, _ in solved)
    return values, tuple(softmax(n[:, None] * w) for w in values), failure


def _logit_rows(n, form, tilde_u, y_bar, tol):
    """``phi_n_inv`` of every sample: (payoffs, profile vectors, failure) as in ``_logit_values``."""
    values, x_vectors, failure = _logit_values(n, y_bar, tol)
    return _payoff_rows(form, tilde_u, values, x_vectors), x_vectors, failure


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
    profile = MixedProfile(tuple(x[0] for x in x_vectors))
    return GraphPoint(Game(t.form, tuple(p[0] for p in payoffs)), profile)


def phi_n_inv(n, t, tol=1e-12):
    """Reconstruct the logit graph point at precision ``n`` mapped to the target ``t``.

    Per player, the softmax-displacement inverse of ``y_bar = t.bar_u`` (the row
    kernel of ``h_numeric``) gives the deviation-payoff values; their softmax is
    the (strictly positive) probability vector. A failed inversion raises the
    ConvergenceError ``h_numeric`` would raise for the first failing player.
    """
    _check_n_tol(n, tol)
    payoffs, x_vectors, failure = _logit_rows(n, t.form, _one_row(t.tilde_u), _one_row(t.bar_u), tol)
    if failure:
        raise failure[1]
    profile = MixedProfile(tuple(x[0] for x in x_vectors))
    return GraphPoint(Game(t.form, tuple(p[0] for p in payoffs)), profile, float(n))


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
