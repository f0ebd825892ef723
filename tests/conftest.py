import itertools

import numpy as np
import pytest

from logitgraph import Game, MixedProfile, StrategicGameForm


def matching_pennies():
    return Game.from_payoff_tensors(
        [np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([[-1.0, 1.0], [1.0, -1.0]])]
    )


def coordination_2x2():
    same = np.array([[1.0, 0.0], [0.0, 1.0]])
    return Game.from_payoff_tensors([same, same.copy()])


def one_player_game(values):
    values = np.asarray(values, dtype=float)
    return Game(StrategicGameForm(1, (values.size,)), (values,))


def random_game(rng, form, box=10.0):
    return Game(
        form,
        tuple(rng.uniform(-box, box, size=form.profile_count) for _ in range(form.num_players)),
    )


def random_interior_profile(rng, form):
    raw = [rng.uniform(0.05, 1.0, size=m) for m in form.action_counts]
    return MixedProfile(tuple(v / v.sum() for v in raw))


def brute_force_expected_payoff(game, player, vectors):
    """Independent oracle: enumerate every pure profile and sum the products."""
    total = 0.0
    counts = game.form.action_counts
    for profile in itertools.product(*[range(m) for m in counts]):
        flat = 0
        stride = 1
        for j, a in enumerate(profile):
            flat += a * stride
            stride *= counts[j]
        weight = 1.0
        for j, a in enumerate(profile):
            weight *= vectors[j][a]
        total += game.payoffs[player][flat] * weight
    return total


def fd_jacobian(func, x, step=1e-6):
    """Independent oracle: central finite differences column by column."""
    x = np.asarray(x, dtype=float)
    columns = []
    for k in range(x.size):
        bump = np.zeros_like(x)
        bump[k] = step
        columns.append((func(x + bump) - func(x - bump)) / (2.0 * step))
    return np.column_stack(columns)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
