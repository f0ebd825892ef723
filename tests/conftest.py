import itertools

import numpy as np
import pytest

from logitgraph import (
    Game,
    MixedProfile,
    StrategicGameForm,
    deviation_payoffs,
    logit_response,
    solve_newton,
)
from logitgraph.games import _payoff_kernel
from logitgraph.solver import _response_jacobian


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


def fine_branch(game, n_final):
    """Independent oracle: natural continuation from the centroid in small precision steps.

    Multiplies ``n`` by 1.01 from 1e-3 up to ``n_final`` and corrects each step
    with ``solve_newton`` (tol 1e-12) from the previous point. Asserts that no
    step moves the profile more than 0.05 in sup norm, so the oracle itself
    cannot jump branches. Returns the terminal profile.
    """
    n = 1e-3
    x = solve_newton(n, game, MixedProfile.uniform(game.form), tol=1e-12)
    while n < n_final:
        n = min(n * 1.01, n_final)
        new = solve_newton(n, game, x, tol=1e-12)
        step = max(float(np.abs(a - b).max()) for a, b in zip(new.vectors, x.vectors))
        assert step <= 0.05, f"oracle step moved {step:.3g} at n={n:.6g}"
        x = new
    return x


def fine_arclength(game, n_final, h=0.02):
    """Independent oracle: fixed-step pseudo-arclength continuation from the centroid.

    Follows ``H(x, lam) = x - logit_response(e^lam, game, x)`` from ``n = 1e-3`` in
    steps of ``h`` in ``(x, lam)`` with no step control. The tangent is the null
    vector of ``[H_x, H_lam]`` (SVD) oriented by the previous one; ``H_lam`` is
    ``-n (diag(s_i) - s_i s_i^T) w_i`` from ``deviation_payoffs``. Each prediction is
    corrected by Newton on the hyperplane through it (tol 1e-12), and every
    update must stay within ``0.5*h``, so the oracle cannot leave the branch.
    The first crossing of ``n_final`` is solved by ``solve_newton`` from the chord
    between the two points that bracket it. Returns the terminal profile.
    """
    form = game.form

    def split(x):
        return tuple(np.split(x, np.cumsum(form.action_counts)[:-1]))

    def homotopy(y):
        n, x = np.exp(y[-1]), split(y[:-1])
        responses, blocks = _payoff_kernel(game, x, n, jacobian=True)
        s = np.concatenate(logit_response(n, game, x).vectors)
        ds = []
        for i, r in enumerate(responses):
            w = deviation_payoffs(game, i, x)
            ds.append(-n * (r * w - r * (r @ w)))
        jac = np.eye(y.size - 1) - _response_jacobian(n, form, responses, blocks)
        return y[:-1] - s, np.column_stack([jac, np.concatenate(ds)])

    start = solve_newton(1e-3, game, MixedProfile.uniform(form), tol=1e-12)
    y = np.append(np.concatenate(start.vectors), np.log(1e-3))
    t = np.append(np.zeros(y.size - 1), 1.0)
    while y[-1] < np.log(n_final):
        z = y + h * t
        for _ in range(50):
            residual, jac = homotopy(z)
            if np.abs(residual).max() <= 1e-12:
                break
            update = np.linalg.solve(np.vstack([jac, t]), np.append(-residual, 0.0))
            assert np.linalg.norm(update) <= 0.5 * h, f"oracle update {np.linalg.norm(update):.3g}"
            z = z + update
        else:
            raise AssertionError(f"oracle corrector stalled at n={np.exp(z[-1]):.6g}")
        tangent = np.linalg.svd(homotopy(z)[1])[2][-1]
        t, y, previous = (tangent if tangent @ t > 0 else -tangent), z, y
    chord = previous + (np.log(n_final) - previous[-1]) / (y[-1] - previous[-1]) * (y - previous)
    return solve_newton(n_final, game, split(chord[:-1]), tol=1e-12)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
