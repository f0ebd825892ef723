"""Finite normal-form games: payoffs, residuals, the softmax response and the payoff-space split.

Payoff tensors are stored flat, one per player, in column-major order: the
flat index of the pure profile ``a`` is ``a[0] + m0*(a[1] + m1*(a[2] + ...))``
where ``m[j]`` is player ``j``'s action count, so player 0's action index
moves fastest. ``Game.payoff_tensor`` reshapes to the d-dimensional view.
This is the bottom layer: it imports no other, and every other layer sits on it.
"""

from __future__ import annotations

import math
import numbers
import warnings

import numpy as np

from .errors import InvalidInputError

PROBABILITY_TOL = 1e-9
ZERO_MEAN_TOL = 1e-9


def _is_integer(value):
    """A Python or NumPy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _freeze(arr, dtype=float):
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


class Record:
    """Base of the frozen result records: the fields are the class's own annotations, in order.

    A class attribute of the same name is a field's default. ``class R(Record, eq=True)``
    compares and hashes by field values; other records compare by identity.
    """

    def __init_subclass__(cls, eq=False):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        if eq:
            cls.__eq__ = lambda a, b: a._asdict() == b._asdict() if type(b) is type(a) else NotImplemented
            cls.__hash__ = lambda a: hash(tuple(a._asdict().values()))

    def __init__(self, *args, **kwargs):
        fields, bound = self._fields, dict(zip(self._fields, args))
        values = {**self._defaults, **bound, **kwargs}
        if len(args) > len(fields) or bound.keys() & kwargs.keys() or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {fields}, got {len(args)} "
                            f"positional and the keywords {sorted(kwargs)}")
        for name in fields:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self):
        """Checks and normalizes the bound fields; a record with checks overrides it."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def _asdict(self):
        return {name: getattr(self, name) for name in self._fields}


class StrategicGameForm(Record, eq=True):
    """Per-player action counts; fixes the player count and the profile index space."""

    action_counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(self.action_counts) if np.iterable(self.action_counts) else (None,)
        if not all(map(_is_integer, counts)):  # a non-sequence fails as the one count None
            raise InvalidInputError(f"action counts must be integers, got {self.action_counts!r}")
        object.__setattr__(self, "action_counts", tuple(map(int, counts)))
        if self.num_players < 1:
            raise InvalidInputError(f"num_players must be >= 1, got {self.num_players}")
        if self.num_players > 31:  # numpy 1.x caps arrays at 32 axes and einsum at 32 operands
            raise InvalidInputError(f"num_players must be <= 31, got {self.num_players}")
        if any(m < 1 for m in self.action_counts):
            raise InvalidInputError(f"action counts must be >= 1, got {self.action_counts}")

    @property
    def num_players(self):
        return len(self.action_counts)

    @property
    def profile_count(self):
        """Number of pure profiles |A|."""
        return math.prod(self.action_counts)

    @property
    def payoff_coordinate_count(self):
        """Total payoff entries across players, |A| * number of players."""
        return self.num_players * self.profile_count


class Game(Record):
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
            if p.ndim != 1:
                raise InvalidInputError(f"payoffs[{i}]: expected a vector, got shape {p.shape}")
            if p.size != size:
                raise InvalidInputError(f"payoffs[{i}]: length {p.size} != expected {size}")
            if not np.all(np.isfinite(p)):
                raise InvalidInputError(f"payoffs[{i}]: entries must be finite")
        object.__setattr__(self, "payoffs", payoffs)

    @classmethod
    def from_payoff_tensors(cls, tensors):
        """Build from d-dimensional arrays indexed ``[a_0, a_1, ..., a_{d-1}]``."""
        tensors = [np.asarray(t, dtype=float) for t in tensors]
        if not tensors:
            raise InvalidInputError("payoff tensor list is empty")
        form = StrategicGameForm(tensors[0].shape)
        return cls(form, tuple(t.ravel(order="F") for t in tensors))

    def payoff_tensor(self, player):
        """Player's payoffs as a d-dimensional array, axis ``j`` = player ``j``'s action."""
        return self.payoffs[player].reshape(self.form.action_counts, order="F")


class MixedProfile(Record):
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


def _check_rows(payoffs, vectors, first=0):
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


def _one_row(vectors):
    """A batch of one: each array gets a leading sample axis of length 1."""
    return tuple(v[None] for v in vectors)


def _contract(form, flat_rows, vector_rows, keep):
    """Contract flat payoff rows with the mixtures of every player not in ``keep``.

    ``flat_rows`` is ``(samples, |A|)`` and ``vector_rows[j]`` is ``(samples, m_j)``;
    the result is ``(samples, m_i, ...)`` over the players ``i`` in ``keep``.
    ``keep=(i,)`` gives player i's deviation payoffs, ``keep=(i, j)`` the block
    ``dw_i/dx_j``. This is the library's only payoff contraction.
    """
    k = form.num_players  # einsum labels: player j's axis is j, the sample axis k
    # C order over the reversed action axes is the column-major profile order
    tensor = flat_rows.reshape(flat_rows.shape[:1] + form.action_counts[::-1])
    mixtures = [x for j in range(k) if j not in keep for x in (vector_rows[j], [k, j])]
    return np.einsum(tensor, list(range(k, -1, -1)), *mixtures, [k, *keep])


def _deviation_rows(form, payoffs, vectors):
    """Every player's deviation payoffs, for payoffs and profiles with a leading sample axis."""
    return tuple(_contract(form, p, vectors, (i,)) for i, p in enumerate(payoffs))


def softmax(v):
    """Overflow-safe softmax over the last axis: subtracts each row's max before exponentiating."""
    v = np.asarray(v, dtype=float)
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _check_real(name, value, sign="positive"):
    """InvalidInputError unless ``value`` is a real number, not a bool, a finite double and ``sign``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        finite = real and math.isfinite(value)
    except OverflowError:  # an int past the double range, too long to print
        finite, value = False, "an integer past the double range"
    if not (finite and (value > 0 if sign == "positive" else value >= 0)):
        raise InvalidInputError(f"{name} must be {sign} and finite, got {value}")


def _check_n(n):
    _check_real("n", n)


def _check_n_tol(n, tol):
    _check_real("n", n)
    _check_real("tol", tol)


def _cross_blocks(form, payoffs, vectors):
    """``{(i, j): dw_i/dx_j}`` for every pair of distinct players at one profile, no sample axis."""
    rows = _one_row(vectors)
    return {
        (i, j): _contract(form, p[None], rows, (i, j))[0]
        for i, p in enumerate(payoffs) for j in range(form.num_players) if j != i
    }


def deviation_payoffs(game, player, x):
    """Vector of expected payoffs to each pure action of ``player`` against ``x_{-i}``.

    Ignores the player's own mixture.
    """
    if not _is_integer(player):
        raise InvalidInputError(f"player index must be an integer, got {player!r}")
    if not 0 <= player < game.form.num_players:
        raise InvalidInputError(f"player index {player} out of range")
    vectors = _profile_vectors(game.form, x)
    return _contract(game.form, game.payoffs[player][None], _one_row(vectors), (player,))[0]


def evaluate_mixed(game, player, x):
    """Multilinear payoff extension: expected payoff to ``player`` under profile ``x``."""
    w = deviation_payoffs(game, player, x)  # checks player and x
    return float(np.dot(_profile_vectors(game.form, x)[player], w))


def nash_residual(game, x):
    """Largest payoff any player gains by a unilateral pure deviation; 0 iff Nash.

    Accepts any shape-compatible vectors, on or off the simplex.
    """
    vectors = _profile_vectors(game.form, x)
    return float(_nash_gap_rows(game.form, _one_row(game.payoffs), _one_row(vectors))[0])


def _nash_gap_rows(form, payoffs, vectors):
    """``nash_residual`` of every sample, for payoffs and profiles with a leading sample axis."""
    worst = np.zeros(len(vectors[0]))
    for v, dev in zip(vectors, _deviation_rows(form, payoffs, vectors)):
        value = (v[:, None, :] @ dev[:, :, None])[:, 0, 0]  # row-wise np.dot via matmul
        worst = np.maximum(worst, dev.max(axis=1) - value)
    return worst


def logit_residual(game, x, n):
    """Sup-norm gap between ``x`` and the softmax response at precision ``n``.

    Zero exactly when every player's mixture equals the softmax of ``n`` times
    their deviation payoffs. Interior profiles are the intended inputs;
    boundary entries are still scored but raise a RuntimeWarning because the
    gap no longer certifies an interior fixed point.
    """
    _check_n(n)
    vectors = _profile_vectors(game.form, x)
    if any(v.min() <= 0.0 for v in vectors):
        warnings.warn(
            "logit residual evaluated at a boundary profile; pass interior points",
            RuntimeWarning,
            stacklevel=2,
        )
    return _logit_gap(game, vectors, n)


def _logit_gap(game, vectors, n):
    w = _deviation_rows(game.form, _one_row(game.payoffs), _one_row(vectors))
    return max(float(np.abs(v - softmax(n * d[0])).max()) for v, d in zip(vectors, w))


class KMRepresentation(Record):
    """Payoffs split into own-action means and a zero-mean remainder.

    ``bar_u[i][a_i]`` is the mean of player ``i``'s payoff to ``a_i`` over all
    opponent profiles; ``tilde_u[i]`` is the flat remainder, whose mean over
    opponent profiles is zero for every own action. The split is a linear
    bijection on payoff space, and the split coordinates are also where the
    graph maps land: ``phi`` returns one, with ``bar_u`` the paper's ``y_bar``.
    ``form`` is read off the sizes of ``bar_u``.

    Per player, both parts must be finite vectors, ``tilde_u[i]`` with ``|A|``
    entries, and ``tilde_u[i]``'s opponent means must vanish within ZERO_MEAN_TOL times
    ``max(1, max|tilde_u[i]|)``, so that the rounding of a split passes at any payoff scale.
    """

    tilde_u: tuple[np.ndarray, ...]
    bar_u: tuple[np.ndarray, ...]

    def __post_init__(self):
        tilde = tuple(_freeze(t) for t in self.tilde_u)
        bar = tuple(_freeze(b) for b in self.bar_u)
        for field, parts in (("tilde_u", tilde), ("bar_u", bar)):
            for i, part in enumerate(parts):
                if part.ndim != 1:
                    raise InvalidInputError(f"{field}[{i}]: expected a vector, got shape {part.shape}")
        form = StrategicGameForm(tuple(b.size for b in bar))
        if len(tilde) != form.num_players:
            raise InvalidInputError("component count does not match the number of players")
        size = form.profile_count
        for i, (t, b) in enumerate(zip(tilde, bar)):
            if t.size != size:
                raise InvalidInputError(f"tilde_u[{i}]: length {t.size} != expected {size}")
            if not (np.all(np.isfinite(t)) and np.all(np.isfinite(b))):
                raise InvalidInputError(f"components[{i}] must be finite")
            tol = ZERO_MEAN_TOL * max(1.0, float(np.abs(t).max()))
            worst = float(np.abs(_split_payoff(form, t, i)[1]).max())
            if worst > tol:
                raise InvalidInputError(f"tilde_u[{i}]: opponent means up to {worst:.3e} exceed {tol:g}")
        for field, value in (("form", form), ("tilde_u", tilde), ("bar_u", bar)):
            object.__setattr__(self, field, value)


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
    return KMRepresentation(tilde_u=tuple(t for t, _ in parts), bar_u=tuple(b for _, b in parts))


def km_recompose(rep):
    """Exact inverse of ``km_decompose``: add the lifted means back to the remainder."""
    payoffs = tuple(
        np.asarray(t, dtype=float) + _lift_bar(rep.form, b, i)
        for i, (t, b) in enumerate(zip(rep.tilde_u, rep.bar_u))
    )
    return Game(rep.form, payoffs)
