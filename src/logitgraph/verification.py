"""Desk-scale property suite behind the ``verify`` command.

Each check draws seed-fixed samples, tests a documented invariant, and returns
a pass/fail result with a one-line detail. The suite is a quick self-audit,
not a replacement for the test suite.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError
from .games import (
    Game,
    MixedProfile,
    Record,
    StrategicGameForm,
    _check_rows,
    _deviation_rows,
    _split_payoff,
    km_decompose,
    km_recompose,
    logit_residual,
    nash_residual,
    softmax,
)
from .graph_maps import _logit_rows, _nash_rows, _z_rows, z_logit, z_nash
from .maps import _cl_rows, _invert_rows, _jacobian_rows, _stall_error, _water_level, epsilon_bound
from .solver import logit_response, trace_logit_path
from .studies import _check_seed, _rng, _target_blocks, _uniform


class CheckResult(Record, eq=True):
    name: str
    passed: bool
    detail: str


def _vectors(rng, widths, low, high):
    """An iterator over consecutive vectors of the given ``widths`` from one draw in ``[low, high)``."""
    return iter(np.split(_uniform(rng, low, high, sum(widths)), np.cumsum(widths)[:-1]))


def _sample_nv(rng, samples=150, decades=3, radius=lambda n: 10.0):
    """Draws ``(v, n)``: ``n`` log-uniform in ``10**±decades``, ``v`` of width 1..8 in ``±radius(n)``.

    The widths are drawn first, then every ``n`` in one draw, then every ``v`` in one.
    """
    widths = [rng.randrange(1, 9) for _ in range(samples)]
    ns = [10.0**e for e in _uniform(rng, -decades, decades, samples).tolist()]
    box = np.repeat([radius(n) for n in ns], widths)
    return list(zip(_vectors(rng, widths, -box, box), ns))


def _by_width(kernel, draws):
    """``(draw, outputs)`` per draw ``(v, ...)``, in draw order; ``kernel`` runs once per width of ``v``."""
    outputs = {}
    for d in {draw[0].size for draw in draws}:
        index = [i for i, draw in enumerate(draws) if draw[0].size == d]
        columns = map(np.array, zip(*(draws[i] for i in index)))  # the v rows, then each other field
        outputs.update(zip(index, zip(*kernel(*columns))))
    return [(draw, outputs[i]) for i, draw in enumerate(draws)]


def _inverse_gaps(y, n, target):
    """``_invert_rows`` of the rows ``y`` at ``tol=1e-12``, and each row's sup-norm gap to ``target``."""
    x, residual, iterations = _invert_rows(n, y, 1e-12)
    return x, residual, iterations, np.abs(x - target).max(axis=1)


def _random_games(rng, forms):
    """One game per form, payoffs uniform in ±10: every tensor from one draw, in game and player order."""
    tensors = _vectors(rng, [f.profile_count for f in forms for _ in range(f.num_players)], -10.0, 10.0)
    return [Game(f, tuple(next(tensors) for _ in range(f.num_players))) for f in forms]


def _max_gap(a, b):
    """Largest entry gap between two sequences of arrays, paired in order."""
    return max(float(np.abs(u - v).max()) for u, v in zip(a, b))


def _permuted(games, rng):
    """Per game: an interior profile, and the game and profile with actions relabeled.

    Every profile entry is drawn in one call, then each player's permutation in game order.
    """
    raw = _vectors(rng, [m for g in games for m in g.form.action_counts], 0.05, 1.0)
    results = []
    for game in games:
        profile = MixedProfile(tuple(v / v.sum() for _, v in zip(game.form.action_counts, raw)))
        perms = [rng.sample(range(m), m) for m in game.form.action_counts]
        tensors = [game.payoff_tensor(i)[np.ix_(*perms)] for i in range(game.form.num_players)]
        permuted_profile = MixedProfile(tuple(v[p] for v, p in zip(profile.vectors, perms)))
        results.append((profile, Game.from_payoff_tensors(tensors), permuted_profile))
    return results


def check_displacement_identities(seed=0):
    def rows(v, n):
        g = v + softmax(n[:, None] * v)
        reordered = np.diff(np.take_along_axis(g, np.argsort(v, axis=1), axis=1), axis=1) < -1e-12
        too_far = np.linalg.norm(g - v, axis=1) > 1.0 + 1e-12
        return np.abs(g.sum(1) - 1.0 - v.sum(1)), too_far, reordered.any(1)

    worst = 0.0
    for _, (defect, too_far, reordered) in _by_width(rows, _sample_nv(_rng(seed))):
        worst = max(worst, defect)
        if too_far or reordered:
            detail = "displacement norm exceeds 1" if too_far else "order not preserved"
            return CheckResult("displacement-identities", False, detail)
    return CheckResult("displacement-identities", worst <= 1e-12, f"max sum defect {worst:.2e}")


def check_jacobian_columns(seed=1):
    draws = _sample_nv(_rng(seed))
    columns = _by_width(lambda v, n: (_jacobian_rows(v, n).sum(axis=1),), draws)
    worst = max(float(np.abs(cols - 1.0).max()) for _, (cols,) in columns)
    return CheckResult("jacobian-column-sums", worst <= 1e-12, f"max defect {worst:.2e}")


def check_cl_certificate(seed=2):
    draws = _sample_nv(_rng(seed), radius=lambda n: min(3.0, 150.0 / n))
    for (v, n), (certified,) in _by_width(lambda v, n: (_cl_rows(_jacobian_rows(v, n)),), draws):
        if not certified:
            return CheckResult("cl-certificate", False, f"failed at n={n:.3g}, d={v.size}")
    return CheckResult("cl-certificate", True, "150 Jacobians certified")


def check_water_filling(seed=3):
    def rows(y):  # the h_exact split of every row: how far its projection weights sum from 1
        return (np.abs(np.maximum(y - _water_level(y)[:, None], 0.0).sum(1) - 1.0),)

    rng = _rng(seed)
    draws = [(y,) for y in _vectors(rng, [rng.randrange(1, 9) for _ in range(150)], -10.0, 10.0)]
    worst = max(float(defect) for _, (defect,) in _by_width(rows, draws))
    return CheckResult("water-filling", worst <= 1e-12, f"max defect {worst:.2e}")


def check_inverse_round_trip(seed=4):
    draws = _sample_nv(_rng(seed), 60, 2, lambda n: 5.0)
    round_trips = _by_width(lambda v, n: _inverse_gaps(v + softmax(n[:, None] * v), n, v), draws)
    worst = 0.0
    for _, (x, residual, iterations, error) in round_trips:
        if residual > 1e-12:
            raise _stall_error(x, residual, 1e-12, iterations)
        worst = max(worst, float(error))
    return CheckResult("inverse-round-trip", worst <= 1e-9, f"max error {worst:.2e}")


def check_uniform_limit_bound(seed=5):
    rng = _rng(seed)
    ceilings = {n: epsilon_bound(n) * (1.0 + 1e-6) for n in (1.0, 10.0, 100.0, 1000.0)}
    ns = [n for n in ceilings for _ in range(40)]
    draws = list(zip(_vectors(rng, [rng.randrange(1, 9) for _ in ns], -10.0, 10.0), ns))
    limits = _by_width(lambda y, n: _inverse_gaps(y, n, np.minimum(y, _water_level(y)[:, None])), draws)
    for (y, n), (x, residual, iterations, gap) in limits:
        if residual > 1e-12:
            raise _stall_error(x, residual, 1e-12, iterations)
        if gap > y.size * ceilings[n]:
            detail = f"gap {gap:.3e} > {y.size * ceilings[n]:.3e} at n={n}"
            return CheckResult("uniform-limit-bound", False, detail)
    return CheckResult("uniform-limit-bound", True, "bound holds at n in {1,10,100,1000}")


def check_epsilon_bound():
    if abs(epsilon_bound(0) - 0.5) > 1e-12:
        return CheckResult("epsilon-bound", False, "value at n=0 is not 0.5")
    previous = 0.5
    for n in (0.5, 1.0, 5.0, 10.0, 100.0, 1000.0):
        eps = epsilon_bound(n)
        defect = abs(eps * (1.0 + np.exp(min(eps * n, 700.0))) - 1.0)
        if defect > 1e-12:
            return CheckResult("epsilon-bound", False, f"equation defect {defect:.2e} at n={n}")
        if eps > previous:
            return CheckResult("epsilon-bound", False, f"not nonincreasing at n={n}")
        previous = eps
    return CheckResult("epsilon-bound", True, "defining equation and monotonicity hold")


_SUITE_FORMS = (
    StrategicGameForm((2,)),
    StrategicGameForm((2, 2)),
    StrategicGameForm((3, 2)),
    StrategicGameForm((2, 2, 2)),
)


def check_km_round_trip(seed=6):
    worst = 0.0
    for game in _random_games(_rng(seed), [f for f in _SUITE_FORMS for _ in range(6)]):
        worst = max(worst, _max_gap(game.payoffs, km_recompose(km_decompose(game)).payoffs))
    return CheckResult("km-round-trip", worst <= 1e-12, f"max defect {worst:.2e}")


def check_residual_relabeling(seed=7):
    rng = _rng(seed)
    games = _random_games(rng, [_SUITE_FORMS[rng.randrange(len(_SUITE_FORMS))] for _ in range(8)])
    worst = 0.0
    for game, (profile, permuted_game, permuted_profile) in zip(games, _permuted(games, rng)):
        worst = max(
            worst,
            abs(nash_residual(game, profile) - nash_residual(permuted_game, permuted_profile)),
            abs(
                logit_residual(game, profile, 3.0)
                - logit_residual(permuted_game, permuted_profile, 3.0)
            ),
        )
    return CheckResult("residual-relabeling", worst <= 1e-12, f"max defect {worst:.2e}")


def _round_trip_defect(form, tilde, y_bar, payoffs, back_y_bar):
    """Largest gap between sampled targets and the split coordinates of their reconstructions."""
    back_tilde = tuple(_split_payoff(form, p, i)[0] for i, p in enumerate(payoffs))
    return _max_gap(tilde + y_bar, back_tilde + back_y_bar)


def check_nash_round_trip(seed=8):
    worst = 0.0
    for form in _SUITE_FORMS:
        _, tilde, y_bar = next(_target_blocks(form, 8, seed, 10.0, 8))
        payoffs, x = _nash_rows(form, tilde, y_bar)
        _check_rows(payoffs, x)
        back = _z_rows(form, payoffs, x)
        worst = max(worst, _round_trip_defect(form, tilde, y_bar, payoffs, back))
    return CheckResult("nash-round-trip", worst <= 1e-9, f"max defect {worst:.2e}")


def check_logit_round_trip(seed=9):
    worst, ns, samples = 0.0, (1.0, 10.0), 8
    for form in _SUITE_FORMS:
        _, tilde, y_bar = next(_target_blocks(form, samples, seed, 10.0, samples))
        for n, (payoffs, x) in zip(ns, _logit_rows(ns, form, tilde, y_bar, 1e-12)):  # both n in one batch
            _check_rows(payoffs, x)
            w = _deviation_rows(form, payoffs, x)
            s = tuple(softmax(n * d) for d in w)
            residual = _max_gap(x, s)
            if residual > 1e-9:
                return CheckResult("logit-round-trip", False, f"residual {residual:.2e}")
            if min(v.min() for v in x) <= 0:
                return CheckResult("logit-round-trip", False, "profile not strictly positive")
            back = tuple(d + r for d, r in zip(w, s))
            worst = max(worst, _round_trip_defect(form, tilde, y_bar, payoffs, back))
    return CheckResult("logit-round-trip", worst <= 1e-9, f"max defect {worst:.2e}")


def check_solver_closed_forms():
    one_player = Game(StrategicGameForm((2,)), (np.array([1.0, 0.0]),))
    solved = logit_response(1.0, one_player, MixedProfile.uniform(one_player.form))
    expected = np.exp(1.0) / (1.0 + np.exp(1.0))
    defect = abs(solved.vectors[0][0] - expected)
    pennies = Game.from_payoff_tensors(
        [np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([[-1.0, 1.0], [1.0, -1.0]])]
    )
    trace = trace_logit_path(pennies, 50.0, tol=1e-12)
    for entry in trace.entries:
        defect = max(defect, max(float(np.abs(v - 0.5).max()) for v in entry.profile.vectors))
    defect = max(defect, trace.terminal_nash_residual)
    return CheckResult("solver-closed-forms", defect <= 1e-12, f"max defect {defect:.2e}")


def _game_checks(game, seed=10):
    results = []

    defect = _max_gap(game.payoffs, km_recompose(km_decompose(game)).payoffs)
    results.append(CheckResult("game-km-round-trip", defect <= 1e-12, f"defect {defect:.2e}"))

    [(profile, permuted_game, permuted_profile)] = _permuted([game], _rng(seed))
    defect = abs(nash_residual(game, profile) - nash_residual(permuted_game, permuted_profile))
    results.append(CheckResult("game-residual-relabeling", defect <= 1e-12, f"defect {defect:.2e}"))

    try:
        entries = [trace_logit_path(game, n, tol=1e-11).entries[-1] for n in (1.0, 10.0)]
    except ConvergenceError as exc:  # a game the tracer cannot follow fails this check alone
        return results + [CheckResult("game-logit-solve", False, f"convergence failure: {exc}")]
    worst = 0.0
    for entry in entries:  # each lands exactly on its n
        defect = _max_gap(z_logit(entry.n, game, entry.profile), z_nash(game, entry.profile))
        worst = max(worst, entry.residual, defect)  # residual: the gap logit_residual reports
    results.append(
        CheckResult("game-logit-solve", worst <= 1e-8, f"max residual/defect {worst:.2e}")
    )
    return results


def run_property_suite(game=None, seed=0):
    """Run every desk-scale check from a nonnegative integer ``seed``; audit ``game`` if given."""
    _check_seed(seed)
    results = [
        check_displacement_identities(seed),
        check_jacobian_columns(seed + 1),
        check_cl_certificate(seed + 2),
        check_water_filling(seed + 3),
        check_inverse_round_trip(seed + 4),
        check_uniform_limit_bound(seed + 5),
        check_epsilon_bound(),
        check_km_round_trip(seed + 6),
        check_residual_relabeling(seed + 7),
        check_nash_round_trip(seed + 8),
        check_logit_round_trip(seed + 9),
        check_solver_closed_forms(),
    ]
    if game is not None:
        results.extend(_game_checks(game, seed + 10))
    return results
