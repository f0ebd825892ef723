"""Finite normal-form games: payoffs, residuals, and the payoff-space split.

Payoff tensors are stored flat, one per player, in column-major order: the
flat index of the pure profile ``a`` is ``a[0] + m0*(a[1] + m1*(a[2] + ...))``
where ``m[j]`` is player ``j``'s action count, so player 0's action index
moves fastest. ``Game.payoff_tensor`` reshapes to the d-dimensional view.
"""

from __future__ import annotations

import string
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .maps import softmax

PROBABILITY_TOL = 1e-9
ZERO_MEAN_TOL = 1e-9

_AXES = string.ascii_lowercase


def _freeze(arr, dtype=float):
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StrategicGameForm:
    """Player count and per-player action counts; fixes the profile index space."""

    num_players: int
    action_counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "num_players", int(self.num_players))
        object.__setattr__(self, "action_counts", tuple(int(m) for m in self.action_counts))
        if self.num_players < 1:
            raise InvalidInputError(f"num_players must be >= 1, got {self.num_players}")
        if len(self.action_counts) != self.num_players:
            raise InvalidInputError(
                f"expected {self.num_players} action counts, got {len(self.action_counts)}"
            )
        if any(m < 1 for m in self.action_counts):
            raise InvalidInputError(f"action counts must be >= 1, got {self.action_counts}")

    @property
    def profile_count(self):
        """Number of pure profiles |A|."""
        return int(np.prod(self.action_counts, dtype=np.int64))

    @property
    def payoff_coordinate_count(self):
        """Total payoff entries across players, |A| * number of players."""
        return self.num_players * self.profile_count


@dataclass(frozen=True, eq=False)
class Game:
    """A strategic form plus one flat payoff tensor per player."""

    form: StrategicGameForm
    payoffs: tuple[np.ndarray, ...]

    def __post_init__(self):
        payoffs = tuple(_freeze(p) for p in self.payoffs)
        if len(payoffs) != self.form.num_players:
            raise InvalidInputError(
                f"expected {self.form.num_players} payoff tensors, got {len(payoffs)}"
            )
        size = self.form.profile_count
        for i, p in enumerate(payoffs):
            if p.ndim != 1 or p.size != size:
                raise InvalidInputError(
                    f"payoffs[{i}]: length {p.size} != expected {size}"
                )
            if not np.all(np.isfinite(p)):
                raise InvalidInputError(f"payoffs[{i}]: entries must be finite")
        object.__setattr__(self, "payoffs", payoffs)

    @classmethod
    def from_payoff_tensors(cls, tensors):
        """Build from d-dimensional arrays indexed ``[a_0, a_1, ..., a_{d-1}]``."""
        tensors = [np.asarray(t, dtype=float) for t in tensors]
        shape = tensors[0].shape
        form = StrategicGameForm(len(shape), shape)
        return cls(form, tuple(t.ravel(order="F") for t in tensors))

    def payoff_tensor(self, player):
        """Player's payoffs as a d-dimensional array, axis ``j`` = player ``j``'s action."""
        return self.payoffs[player].reshape(self.form.action_counts, order="F")


@dataclass(frozen=True, eq=False)
class MixedProfile:
    """One probability vector per player; validated on construction.

    Each vector must be nonnegative and sum to 1 within 1e-9. Residual
    functions deliberately accept raw vectors too, so solvers can score
    slightly off-simplex iterates; this type is the validated boundary.
    """

    vectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        vectors = tuple(_freeze(v) for v in self.vectors)
        for i, v in enumerate(vectors):
            if v.ndim != 1 or v.size == 0:
                raise InvalidInputError(f"profile[{i}] must be a nonempty vector")
            if not np.all(np.isfinite(v)):
                raise InvalidInputError(f"profile[{i}] must be finite")
            if v.min() < -PROBABILITY_TOL:
                raise InvalidInputError(f"profile[{i}] has negative entry {v.min()}")
            if abs(v.sum() - 1.0) > PROBABILITY_TOL:
                raise InvalidInputError(f"profile[{i}] sums to {v.sum()}, expected 1")
        object.__setattr__(self, "vectors", vectors)

    @classmethod
    def uniform(cls, form):
        return cls(tuple(np.full(m, 1.0 / m) for m in form.action_counts))

    def __iter__(self):
        return iter(self.vectors)

    def __len__(self):
        return len(self.vectors)


def _check_rows(form, payoffs, vectors, first=0):
    """The Game and MixedProfile checks over a leading sample axis, one array per player.

    Payoffs must be finite; each probability vector finite, nonnegative and
    summing to 1 within PROBABILITY_TOL. Raises for the first failing sample,
    numbered from ``first``.
    """
    bad = np.zeros(len(vectors[0]), dtype=bool)
    for p in payoffs:
        bad |= ~np.isfinite(p).all(axis=1)
    for v in vectors:
        bad |= ~np.isfinite(v).all(axis=1)
        bad |= v.min(axis=1) < -PROBABILITY_TOL
        bad |= np.abs(v.sum(axis=1) - 1.0) > PROBABILITY_TOL
    if bad.any():
        raise InvalidInputError(
            f"sample {first + int(np.flatnonzero(bad)[0])}: reconstructed payoffs are not"
            " finite or a profile vector is off the probability simplex"
        )


def _profile_vectors(form, x):
    """Accept a MixedProfile or any sequence of per-player vectors; check shapes only."""
    vectors = x.vectors if isinstance(x, MixedProfile) else tuple(np.asarray(v, dtype=float) for v in x)
    if len(vectors) != form.num_players:
        raise InvalidInputError(
            f"profile has {len(vectors)} vectors, form has {form.num_players} players"
        )
    for i, (v, m) in enumerate(zip(vectors, form.action_counts)):
        if v.ndim != 1 or v.size != m:
            raise InvalidInputError(f"profile[{i}]: length {v.size} != action count {m}")
    return vectors


def _deviation_from_flat(form, flat, player, vectors):
    """Expected value of a flat tensor at (a_i, x_{-i}) for each own action a_i.

    A 2-d ``flat`` of shape ``(samples, |A|)`` with ``(samples, m_j)`` vectors
    contracts every sample at once and returns ``(samples, m_i)``.
    """
    d = form.num_players
    flat = np.asarray(flat, dtype=float)
    letters = _AXES[:d]
    others = [j for j in range(d) if j != player]
    if flat.ndim == 1:
        tensor = flat.reshape(form.action_counts, order="F")
        eq = letters + "".join("," + letters[j] for j in others) + "->" + letters[player]
    else:
        # C order over the reversed action axes is the column-major profile order
        tensor = flat.reshape(flat.shape[:1] + form.action_counts[::-1])
        eq = (
            "Z" + letters[::-1] + "".join(",Z" + letters[j] for j in others)
            + "->Z" + letters[player]
        )
    return np.einsum(eq, tensor, *[vectors[j] for j in others])


def deviation_payoffs(game, player, x):
    """Vector of expected payoffs to each pure action of ``player`` against ``x_{-i}``.

    Ignores the player's own mixture.
    """
    if not 0 <= player < game.form.num_players:
        raise InvalidInputError(f"player index {player} out of range")
    vectors = _profile_vectors(game.form, x)
    return _deviation_from_flat(game.form, game.payoffs[player], player, vectors)


def deviation_payoff(game, player, action, x):
    """Expected payoff of one pure action against the others' mixed strategies."""
    if not 0 <= player < game.form.num_players:
        raise InvalidInputError(f"player index {player} out of range")
    if not 0 <= action < game.form.action_counts[player]:
        raise InvalidInputError(
            f"action index {action} out of range for player {player}"
        )
    return float(deviation_payoffs(game, player, x)[action])


def evaluate_mixed(game, player, x):
    """Multilinear payoff extension: expected payoff to ``player`` under profile ``x``."""
    if not 0 <= player < game.form.num_players:
        raise InvalidInputError(f"player index {player} out of range")
    vectors = _profile_vectors(game.form, x)
    return float(np.dot(vectors[player], deviation_payoffs(game, player, vectors)))


def nash_residual(game, x):
    """Largest payoff any player gains by a unilateral pure deviation; 0 iff Nash.

    Accepts any shape-compatible vectors, on or off the simplex.
    """
    vectors = _profile_vectors(game.form, x)
    worst = 0.0
    for i in range(game.form.num_players):
        dev = deviation_payoffs(game, i, vectors)
        value = float(np.dot(vectors[i], dev))
        worst = max(worst, float(dev.max()) - value)
    return max(0.0, worst)


def _nash_gap_rows(form, payoffs, vectors):
    """``nash_residual`` of every sample, for payoffs and profiles with a leading sample axis."""
    worst = np.zeros(len(vectors[0]))
    for i in range(form.num_players):
        dev = _deviation_from_flat(form, payoffs[i], i, vectors)
        worst = np.maximum(worst, dev.max(axis=1) - (vectors[i] * dev).sum(axis=1))
    return worst


def logit_residual(game, x, n):
    """Sup-norm gap between ``x`` and the softmax response at precision ``n``.

    Zero exactly when every player's mixture equals the softmax of ``n`` times
    their deviation payoffs. Interior profiles are the intended inputs;
    boundary entries are still scored but raise a RuntimeWarning because the
    gap no longer certifies an interior fixed point.
    """
    if not n > 0:
        raise InvalidInputError(f"n must be positive, got {n}")
    vectors = _profile_vectors(game.form, x)
    if any(v.min() <= 0.0 for v in vectors):
        warnings.warn(
            "logit residual evaluated at a boundary profile; pass interior points",
            RuntimeWarning,
            stacklevel=2,
        )
    return _logit_gap(game, vectors, n)


def _logit_gap(game, vectors, n):
    responses, _ = _payoff_kernel(game, vectors, n)
    return max(float(np.abs(v - s).max()) for v, s in zip(vectors, responses))


def _payoff_kernel(game, vectors, n, jacobian=False):
    """``(s, blocks)``: responses ``s_i = softmax(n*w_i)`` to raw, trusted ``vectors``.

    ``w_i`` is computed as in ``deviation_payoffs``. With ``jacobian``, ``blocks[i, j]``
    is ``dw_i/dx_j``: player i's tensor contracted over everyone except i and j, one
    einsum per ordered pair; ``w_i`` is then one block times ``x_j``. Else ``blocks`` is None.
    """
    form, letters = game.form, _AXES[: game.form.num_players]
    responses, blocks = [], {} if jacobian else None
    for i, flat in enumerate(game.payoffs):
        others = [j for j in range(form.num_players) if j != i]
        if not (jacobian and others):
            responses.append(softmax(n * _deviation_from_flat(form, flat, i, vectors)))
            continue
        tensor = flat.reshape(form.action_counts, order="F")
        for j in others:
            rest = [k for k in others if k != j]
            eq = letters + "".join("," + letters[k] for k in rest) + "->" + letters[i] + letters[j]
            blocks[i, j] = np.einsum(eq, tensor, *[vectors[k] for k in rest])
        responses.append(softmax(n * (blocks[i, j] @ vectors[j])))
    return responses, blocks


@dataclass(frozen=True, eq=False)
class KMRepresentation:
    """Payoffs split into own-action means and a zero-mean remainder.

    ``bar_u[i][a_i]`` is the mean of player ``i``'s payoff to ``a_i`` over all
    opponent profiles; ``tilde_u[i]`` is the flat remainder, whose mean over
    opponent profiles is zero for every own action. The split is a linear
    bijection on payoff space.
    """

    form: StrategicGameForm
    tilde_u: tuple[np.ndarray, ...]
    bar_u: tuple[np.ndarray, ...]

    def __post_init__(self):
        tilde = tuple(_freeze(t) for t in self.tilde_u)
        bar = tuple(_freeze(b) for b in self.bar_u)
        if len(tilde) != self.form.num_players or len(bar) != self.form.num_players:
            raise InvalidInputError("component count does not match the number of players")
        size = self.form.profile_count
        for i, (t, b) in enumerate(zip(tilde, bar)):
            if t.size != size:
                raise InvalidInputError(f"tilde_u[{i}]: length {t.size} != expected {size}")
            if b.size != self.form.action_counts[i]:
                raise InvalidInputError(
                    f"bar_u[{i}]: length {b.size} != action count {self.form.action_counts[i]}"
                )
            worst = _max_abs_opponent_mean(self.form, t, i)
            if worst > ZERO_MEAN_TOL:
                raise InvalidInputError(
                    f"tilde_u[{i}]: opponent means up to {worst:.3e} exceed {ZERO_MEAN_TOL}"
                )
        object.__setattr__(self, "tilde_u", tilde)
        object.__setattr__(self, "bar_u", bar)


def _max_abs_opponent_mean(form, flat, player):
    tensor = np.asarray(flat, dtype=float).reshape(form.action_counts, order="F")
    axes = tuple(j for j in range(form.num_players) if j != player)
    return float(np.abs(tensor.mean(axis=axes)).max())


def _split_payoff(form, flat, player):
    """Return (tilde_flat, bar_vector) for one player's flat payoff tensor.

    Leading axes of ``flat`` are carried through: ``(samples, |A|)`` gives
    ``(samples, |A|)`` and ``(samples, m_i)``.
    """
    flat = np.asarray(flat, dtype=float)
    lead, d = flat.shape[:-1], form.num_players
    # C order over the reversed action axes is the column-major profile order
    tensor = flat.reshape(lead + form.action_counts[::-1])
    axes = tuple(len(lead) + d - 1 - j for j in range(d) if j != player)
    bar = tensor.mean(axis=axes, keepdims=True)
    return (tensor - bar).reshape(flat.shape), bar.reshape(lead + (form.action_counts[player],))


def _lift_bar(form, bar, player):
    """Broadcast a per-action vector (leading axes allowed) to a flat tensor over all profiles."""
    bar = np.asarray(bar, dtype=float)
    lead, d = bar.shape[:-1], form.num_players
    shape = [1] * d
    shape[d - 1 - player] = form.action_counts[player]
    return np.broadcast_to(
        bar.reshape(lead + tuple(shape)), lead + form.action_counts[::-1]
    ).reshape(lead + (form.profile_count,))


def km_decompose(game):
    """Split each player's payoffs into opponent-averages plus a zero-mean part."""
    parts = [_split_payoff(game.form, game.payoffs[i], i) for i in range(game.form.num_players)]
    return KMRepresentation(
        form=game.form,
        tilde_u=tuple(t for t, _ in parts),
        bar_u=tuple(b for _, b in parts),
    )


def km_recompose(rep):
    """Exact inverse of ``km_decompose``: add the lifted means back to the remainder."""
    payoffs = tuple(
        np.asarray(t, dtype=float) + _lift_bar(rep.form, b, i)
        for i, (t, b) in enumerate(zip(rep.tilde_u, rep.bar_u))
    )
    return Game(rep.form, payoffs)


@dataclass(frozen=True, eq=False)
class TargetPoint:
    """A payoff-space point in split coordinates: zero-mean part plus free per-action vectors.

    ``y_bar`` is unconstrained; ``tilde_u`` must satisfy the same zero-mean
    invariant as in KMRepresentation. These are the coordinates the graph maps
    in :mod:`logitgraph.graph_maps` land in and invert from.
    """

    form: StrategicGameForm
    tilde_u: tuple[np.ndarray, ...]
    y_bar: tuple[np.ndarray, ...]

    def __post_init__(self):
        tilde = tuple(_freeze(t) for t in self.tilde_u)
        ybar = tuple(_freeze(b) for b in self.y_bar)
        if len(tilde) != self.form.num_players or len(ybar) != self.form.num_players:
            raise InvalidInputError("component count does not match the number of players")
        size = self.form.profile_count
        for i, (t, b) in enumerate(zip(tilde, ybar)):
            if t.size != size:
                raise InvalidInputError(f"tilde_u[{i}]: length {t.size} != expected {size}")
            if b.size != self.form.action_counts[i]:
                raise InvalidInputError(
                    f"y_bar[{i}]: length {b.size} != action count {self.form.action_counts[i]}"
                )
            if not (np.all(np.isfinite(t)) and np.all(np.isfinite(b))):
                raise InvalidInputError(f"components[{i}] must be finite")
            worst = _max_abs_opponent_mean(self.form, t, i)
            if worst > ZERO_MEAN_TOL:
                raise InvalidInputError(
                    f"tilde_u[{i}]: opponent means up to {worst:.3e} exceed {ZERO_MEAN_TOL}"
                )
        object.__setattr__(self, "tilde_u", tilde)
        object.__setattr__(self, "y_bar", ybar)


@dataclass(frozen=True, eq=False)
class GraphPoint:
    """A (game, profile) pair asserted to lie on an equilibrium graph.

    ``kind`` is ``"nash"`` or ``"logit"``; ``n`` is the logit precision and is
    present exactly when ``kind == "logit"``. ``residual`` records the check
    value at construction time. Use the ``nash``/``logit`` factories to have
    the residual computed and verified.
    """

    game: Game
    profile: MixedProfile
    kind: str
    residual: float
    n: float | None = None

    def __post_init__(self):
        if self.kind not in ("nash", "logit"):
            raise InvalidInputError(f"kind must be 'nash' or 'logit', got {self.kind!r}")
        if (self.kind == "logit") != (self.n is not None):
            raise InvalidInputError("n must be present exactly when kind is 'logit'")
        if self.n is not None and not self.n > 0:
            raise InvalidInputError(f"n must be positive, got {self.n}")

    @classmethod
    def nash(cls, game, profile, tol=1e-8):
        from .errors import NotOnGraphError

        profile = profile if isinstance(profile, MixedProfile) else MixedProfile(tuple(profile))
        residual = nash_residual(game, profile)
        if residual > tol:
            raise NotOnGraphError(f"nash residual {residual:.3e} exceeds {tol:.1e}")
        return cls(game=game, profile=profile, kind="nash", residual=residual)

    @classmethod
    def logit(cls, game, profile, n, tol=1e-8):
        from .errors import NotOnGraphError

        profile = profile if isinstance(profile, MixedProfile) else MixedProfile(tuple(profile))
        residual = logit_residual(game, profile, n)
        if residual > tol:
            raise NotOnGraphError(f"logit residual {residual:.3e} exceeds {tol:.1e}")
        return cls(game=game, profile=profile, kind="logit", residual=residual, n=float(n))
