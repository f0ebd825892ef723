import itertools

import numpy as np
import pytest

from logitgraph import (
    ConvergenceError,
    Game,
    InvalidInputError,
    MixedProfile,
    StrategicGameForm,
    deviation_payoffs,
    logit_response,
    solve_newton,
)
from logitgraph.games import _check_n_tol, _profile_vectors
from logitgraph.solver import _homotopy


def matching_pennies():
    return Game.from_payoff_tensors(
        [np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([[-1.0, 1.0], [1.0, -1.0]])]
    )


def coordination_2x2():
    same = np.array([[1.0, 0.0], [0.0, 1.0]])
    return Game.from_payoff_tensors([same, same.copy()])


def one_player_game(values):
    values = np.asarray(values, dtype=float)
    return Game(StrategicGameForm((values.size,)), (values,))


def random_game(rng, form, box=10.0):
    return Game(
        form,
        tuple(rng.uniform(-box, box, size=form.profile_count) for _ in range(form.num_players)),
    )


def zero_sum_game(rng, shape):
    """Pairwise zero-sum polymatrix game, drawn as the benchmark corpus draws it.

    ``u_i(a) = sum_j A_ij[a_i, a_j]`` with ``A_ji = -A_ij^T`` and each ``A_ij``
    (i < j) uniform in [-1, 1] over the number of opponents. Such a game has
    one logit equilibrium at every ``n``, so its branch has no fold.
    """
    k = len(shape)
    tensors = [np.zeros(shape) for _ in shape]
    for i in range(k):
        for j in range(i + 1, k):
            block = rng.uniform(-1.0, 1.0, (shape[i], shape[j])) / max(k - 1, 1)
            axes = [shape[d] if d in (i, j) else 1 for d in range(k)]
            tensors[i] = tensors[i] + block.reshape(axes)
            tensors[j] = tensors[j] - block.reshape(axes)
    return Game.from_payoff_tensors(tensors)


ZERO_SUM_SHAPES = ((2, 2), (3, 3), (8, 8), (3, 3, 3), (4, 4, 4))


def zero_sum_games(seed):
    """One zero-sum game per form of ``ZERO_SUM_SHAPES``, drawn in order from one generator."""
    rng = np.random.default_rng(seed)
    return [zero_sum_game(rng, shape) for shape in ZERO_SUM_SHAPES]


def uniform_draws(rng, low, high, count):
    """``count`` doubles uniform in ``[low, high)`` from the ``random.Random`` ``rng``, one at a time.

    Each is the top 53 bits of its own ``getrandbits(64)`` times 2**-53, the stream
    the study and the property suite take in one ``getrandbits`` call per draw.
    """
    return np.array([low + (high - low) * ((rng.getrandbits(64) >> 11) * 2.0**-53) for _ in range(count)])


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


# Independent oracle for the Newton corrector: damped response iteration.
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
        resp = logit_response(n, game, vectors).vectors
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
    vector of ``[H_x, H_lam]`` (SVD) oriented by the previous one; ``H_x`` is the
    tracer's own (from ``_homotopy``, checked against finite differences in
    ``TestResponseJacobian``) and ``H_lam`` is ``-n (diag(s_i) - s_i s_i^T) w_i``
    from ``deviation_payoffs``. Each prediction is
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
        responses = logit_response(n, game, x).vectors
        ds = []
        for i, r in enumerate(responses):
            w = deviation_payoffs(game, i, x)
            ds.append(-n * (r * w - r * (r @ w)))
        jac = np.empty((y.size - 1, y.size))
        _homotopy(game, y[:-1], n, jac)
        jac = jac[:, :-1]
        return y[:-1] - np.concatenate(responses), np.column_stack([jac, np.concatenate(ds)])

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
