"""Desk-scale property suite behind the ``verify`` command.

Each check draws seed-fixed samples, tests a documented invariant, and returns
a pass/fail result with a one-line detail. The suite is a quick self-audit,
not a replacement for the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import (
    Game,
    MixedProfile,
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
from .maps import epsilon_bound, g_jacobian, g_map, h_exact, h_numeric, is_cl_matrix
from .solver import logit_response, trace_logit_path
from .studies import _check_seed, _target_blocks


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _sample_nv(rng, scale_box_to_n=False):
    for _ in range(150):
        d = int(rng.integers(1, 9))
        n = float(10.0 ** rng.uniform(-3, 3))
        radius = min(3.0, 150.0 / n) if scale_box_to_n else 10.0
        yield n, rng.uniform(-radius, radius, size=d)


def _random_game(rng, form):
    return Game(
        form,
        tuple(rng.uniform(-10, 10, size=form.profile_count) for _ in range(form.num_players)),
    )


def _max_gap(a, b):
    """Largest entry gap between two sequences of arrays, paired in order."""
    return max(float(np.abs(u - v).max()) for u, v in zip(a, b))


def _permuted(game, rng):
    """An interior profile drawn from ``rng``, and the game and profile with actions relabeled."""
    raw = [rng.uniform(0.05, 1.0, size=m) for m in game.form.action_counts]
    profile = MixedProfile(tuple(v / v.sum() for v in raw))
    perms = [rng.permutation(m) for m in game.form.action_counts]
    tensors = [game.payoff_tensor(i)[np.ix_(*perms)] for i in range(game.form.num_players)]
    permuted_game = Game.from_payoff_tensors(tensors)
    permuted_profile = MixedProfile(tuple(v[p] for v, p in zip(profile.vectors, perms)))
    return profile, permuted_game, permuted_profile


def check_displacement_identities(seed=0):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n, v in _sample_nv(rng):
        g = g_map(n, v)
        worst = max(worst, abs(g.sum() - 1.0 - v.sum()))
        if np.linalg.norm(g - v) > 1.0 + 1e-12:
            return CheckResult("displacement-identities", False, "displacement norm exceeds 1")
        order = np.argsort(v)
        if np.any(np.diff(g[order]) < -1e-12):
            return CheckResult("displacement-identities", False, "order not preserved")
    return CheckResult("displacement-identities", worst <= 1e-12, f"max sum defect {worst:.2e}")


def check_jacobian_columns(seed=1):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n, v in _sample_nv(rng):
        cols = g_jacobian(n, v).sum(axis=0)
        worst = max(worst, float(np.abs(cols - 1.0).max()))
    return CheckResult("jacobian-column-sums", worst <= 1e-12, f"max defect {worst:.2e}")


def check_cl_certificate(seed=2):
    rng = np.random.default_rng(seed)
    for n, v in _sample_nv(rng, scale_box_to_n=True):
        if not is_cl_matrix(g_jacobian(n, v)):
            return CheckResult("cl-certificate", False, f"failed at n={n:.3g}, d={v.size}")
    return CheckResult("cl-certificate", True, "150 Jacobians certified")


def check_water_filling(seed=3):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(150):
        d = int(rng.integers(1, 9))
        y = rng.uniform(-10, 10, size=d)
        split = h_exact(y)
        worst = max(
            worst,
            abs(np.maximum(y - split.alpha_star, 0.0).sum() - 1.0),
            abs(split.residual.sum() - 1.0),
            float(np.abs(split.h_value - np.minimum(y, split.alpha_star)).max()),
        )
        if split.residual.min() < 0:
            return CheckResult("water-filling", False, "negative projection weight")
    return CheckResult("water-filling", worst <= 1e-12, f"max defect {worst:.2e}")


def check_inverse_round_trip(seed=4):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(60):
        d = int(rng.integers(1, 9))
        n = float(10.0 ** rng.uniform(-2, 2))
        v = rng.uniform(-5, 5, size=d)
        x = h_numeric(n, g_map(n, v), tol=1e-12)
        worst = max(worst, float(np.abs(x - v).max()))
    return CheckResult("inverse-round-trip", worst <= 1e-9, f"max error {worst:.2e}")


def check_uniform_limit_bound(seed=5):
    rng = np.random.default_rng(seed)
    for n in (1.0, 10.0, 100.0, 1000.0):
        ceiling = epsilon_bound(n).epsilon_star * (1.0 + 1e-6)
        for _ in range(40):
            d = int(rng.integers(1, 9))
            y = rng.uniform(-10, 10, size=d)
            gap = float(np.abs(h_numeric(n, y, tol=1e-12) - h_exact(y).h_value).max())
            if gap > d * ceiling:
                return CheckResult(
                    "uniform-limit-bound", False, f"gap {gap:.3e} > {d * ceiling:.3e} at n={n}"
                )
    return CheckResult("uniform-limit-bound", True, "bound holds at n in {1,10,100,1000}")


def check_epsilon_bound():
    if abs(epsilon_bound(0).epsilon_star - 0.5) > 1e-12:
        return CheckResult("epsilon-bound", False, "value at n=0 is not 0.5")
    previous = 0.5
    for n in (0.5, 1.0, 5.0, 10.0, 100.0, 1000.0):
        eps = epsilon_bound(n).epsilon_star
        defect = abs(eps * (1.0 + np.exp(min(eps * n, 700.0))) - 1.0)
        if defect > 1e-12:
            return CheckResult("epsilon-bound", False, f"equation defect {defect:.2e} at n={n}")
        if eps > previous:
            return CheckResult("epsilon-bound", False, f"not nonincreasing at n={n}")
        previous = eps
    return CheckResult("epsilon-bound", True, "defining equation and monotonicity hold")


_SUITE_FORMS = (
    StrategicGameForm(1, (2,)),
    StrategicGameForm(2, (2, 2)),
    StrategicGameForm(2, (3, 2)),
    StrategicGameForm(3, (2, 2, 2)),
)


def check_km_round_trip(seed=6):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for form in _SUITE_FORMS:
        for _ in range(6):
            game = _random_game(rng, form)
            worst = max(worst, _max_gap(game.payoffs, km_recompose(km_decompose(game)).payoffs))
    return CheckResult("km-round-trip", worst <= 1e-12, f"max defect {worst:.2e}")


def check_residual_relabeling(seed=7):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(8):
        form = _SUITE_FORMS[int(rng.integers(len(_SUITE_FORMS)))]
        game = _random_game(rng, form)
        profile, permuted_game, permuted_profile = _permuted(game, rng)
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
        payoffs, x, _ = _nash_rows(form, tilde, y_bar)
        _check_rows(form, payoffs, x)
        back = _z_rows(form, payoffs, x)
        worst = max(worst, _round_trip_defect(form, tilde, y_bar, payoffs, back))
    return CheckResult("nash-round-trip", worst <= 1e-9, f"max defect {worst:.2e}")


def check_logit_round_trip(seed=9):
    worst = 0.0
    for form in _SUITE_FORMS:
        _, tilde, y_bar = next(_target_blocks(form, 8, seed, 10.0, 8))
        for n in (1.0, 10.0):
            payoffs, x, failure = _logit_rows(n, form, tilde, y_bar, 1e-12)
            if failure:
                raise failure[1]
            _check_rows(form, payoffs, x)
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
    one_player = Game(StrategicGameForm(1, (2,)), (np.array([1.0, 0.0]),))
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
    rng = np.random.default_rng(seed)
    results = []

    defect = _max_gap(game.payoffs, km_recompose(km_decompose(game)).payoffs)
    results.append(CheckResult("game-km-round-trip", defect <= 1e-12, f"defect {defect:.2e}"))

    profile, permuted_game, permuted_profile = _permuted(game, rng)
    defect = abs(nash_residual(game, profile) - nash_residual(permuted_game, permuted_profile))
    results.append(CheckResult("game-residual-relabeling", defect <= 1e-12, f"defect {defect:.2e}"))

    worst = 0.0
    for n in (1.0, 10.0):
        entry = trace_logit_path(game, n, tol=1e-11).entries[-1]
        defect = _max_gap(z_logit(n, game, entry.profile), z_nash(game, entry.profile))
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
