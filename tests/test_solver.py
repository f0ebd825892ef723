import itertools
import math

import numpy as np
import pytest

from logitgraph import (
    ConvergenceError,
    Game,
    GraphPoint,
    InvalidInputError,
    KMRepresentation,
    MixedProfile,
    PathEntry,
    PathFailureError,
    PathTrace,
    StrategicGameForm,
    epsilon_bound,
    h_numeric,
    logit_residual,
    logit_response,
    nash_residual,
    phi_n_inv,
    solve_newton,
    trace_logit_path,
)
from logitgraph.solver import START_CONTRACTION, _homotopy, _newton_iterates, _unstack
from conftest import (
    coordination_2x2,
    fd_jacobian,
    fine_arclength,
    fine_branch,
    matching_pennies,
    one_player_game,
    random_game,
    random_interior_profile,
    solve_fixed_point,
    zero_sum_games,
)

E = np.e
SOFTMAX_10 = np.array([E / (1 + E), 1 / (1 + E)])


class TestLogitResponse:
    def test_zero_precision_gives_uniform(self, rng):
        form = StrategicGameForm((3, 2))
        game = random_game(rng, form)
        out = logit_response(0.0, game, MixedProfile.uniform(form))
        assert np.allclose(out.vectors[0], 1 / 3) and np.allclose(out.vectors[1], 0.5)

    def test_matching_pennies_uniform_fixed(self):
        game = matching_pennies()
        for n in (1.0, 50.0):
            out = logit_response(n, game, MixedProfile.uniform(game.form))
            for v in out.vectors:
                assert np.array_equal(v, [0.5, 0.5])

    def test_one_player_softmax(self):
        game = one_player_game([1.0, 0.0])
        out = logit_response(1.0, game, MixedProfile.uniform(game.form))
        assert out.vectors[0] == pytest.approx(SOFTMAX_10, abs=1e-15)

    def test_interior_and_normalized(self, rng):
        form = StrategicGameForm((2, 2, 2))
        for _ in range(10):
            game = random_game(rng, form)
            out = logit_response(4.0, game, MixedProfile.uniform(form))
            for v in out.vectors:
                assert v.min() > 0.0
                assert abs(v.sum() - 1.0) <= 1e-12

    def test_negative_precision_rejected(self):
        game = matching_pennies()
        with pytest.raises(InvalidInputError):
            logit_response(-1.0, game, MixedProfile.uniform(game.form))


class TestNonFinitePrecision:
    @pytest.mark.parametrize("n", [np.inf, np.nan])
    def test_rejected_at_every_solver_boundary(self, n):
        game = coordination_2x2()
        x = MixedProfile.uniform(game.form)
        for call in (
            lambda: logit_response(n, game, x),
            lambda: solve_newton(n, game, x),
            lambda: trace_logit_path(game, n),
        ):
            with pytest.raises(InvalidInputError, match="n must be .*finite"):
                call()


class TestInfiniteTolerance:
    def test_rejected_at_every_solve_boundary(self):
        # a tol of inf would accept any iterate, such as the start of a solve
        game = coordination_2x2()
        x = MixedProfile.uniform(game.form)
        target = KMRepresentation((np.zeros(4), np.zeros(4)), (np.ones(2), np.ones(2)))
        for call in (
            lambda: h_numeric(10.0, [1.5, 0.5], tol=np.inf),
            lambda: phi_n_inv(10.0, target, tol=np.inf),
            lambda: solve_newton(10.0, game, x, tol=np.inf),
            lambda: trace_logit_path(game, 10.0, tol=np.inf),
        ):
            with pytest.raises(InvalidInputError, match="tol must be positive and finite"):
                call()


class TestPrecisionIsARealNumber:
    """A precision or a tolerance is a real number: a bool, a string or None is rejected."""

    @pytest.mark.parametrize("value", [True, "5", None], ids=repr)
    def test_rejected_at_every_boundary(self, value):
        # True used to run as 1 and render as "n": true; "5" and None raised a bare TypeError
        game = coordination_2x2()
        x = MixedProfile.uniform(game.form)
        target = KMRepresentation((np.zeros(4), np.zeros(4)), (np.ones(2), np.ones(2)))
        calls = {
            "n must be positive": (
                lambda: trace_logit_path(game, value),
                lambda: solve_newton(value, game, x),
                lambda: h_numeric(value, [1.5, 0.5]),
                lambda: phi_n_inv(value, target),
                lambda: logit_residual(game, x, value),
            ),
            "n must be nonnegative": (
                lambda: logit_response(value, game, x),
                lambda: epsilon_bound(value),
            ),
            "tol must be positive": (
                lambda: trace_logit_path(game, 5.0, tol=value),
                lambda: solve_newton(5.0, game, x, tol=value),
                lambda: h_numeric(10.0, [1.5, 0.5], tol=value),
                lambda: phi_n_inv(10.0, target, tol=value),
            ),
        }
        for start, group in calls.items():
            for call in group:
                with pytest.raises(InvalidInputError, match=f"^{start} and finite, got {value}$"):
                    call()

    def test_graph_point_rejects_a_bool_precision(self):
        # None is a Nash point's precision, so only the bool is checked here
        game = coordination_2x2()
        with pytest.raises(InvalidInputError, match="^n must be positive and finite, got True$"):
            GraphPoint(game, MixedProfile.uniform(game.form), True)

    def test_numpy_scalars_are_real_numbers(self):
        game = coordination_2x2()
        x = MixedProfile.uniform(game.form)
        assert trace_logit_path(game, np.int64(5), tol=np.float32(1e-6)).entries[-1].n == 5.0
        assert logit_response(np.float32(0), game, x).vectors[0].tolist() == [0.5, 0.5]


class TestResponseJacobian:
    @pytest.mark.parametrize(
        "counts", [(3,), (2, 2), (3, 2), (2, 2, 2), (3, 3, 3), (2, 3, 4, 2), (2, 3, 2, 2)]
    )
    @pytest.mark.parametrize("n", [0.1, 3.0, 30.0])
    def test_matches_finite_differences(self, rng, counts, n):
        form = StrategicGameForm(counts)
        game = random_game(rng, form, box=1.0)

        def homotopy(y):  # H(x, lam) = x - response(x, e^lam)
            response = logit_response(np.exp(y[-1]), game, _unstack(form, y[:-1]))
            return y[:-1] - np.concatenate(response.vectors)

        for _ in range(3):
            x = random_interior_profile(rng, form).vectors
            # [H_x, H_lam], differenced over (x, log n)
            y = np.append(np.concatenate(x), np.log(n))
            jac = np.empty((y.size - 1, y.size))
            residual = _homotopy(game, y[:-1], n, jac)
            oracle = fd_jacobian(homotopy, y)
            assert np.abs(jac - oracle).max() <= 1e-6 * np.abs(oracle).max()
            assert np.abs(residual - homotopy(y)).max() <= 1e-14 * n


def _terminal_gap(game, oracle):
    traced = trace_logit_path(game, 400.0).entries[-1].profile
    return max(float(np.abs(a - b).max()) for a, b in zip(traced.vectors, oracle.vectors))


def _seeded(shape, seed):
    return random_game(np.random.default_rng(seed), StrategicGameForm(shape), box=1.0)


def _case_id(value):
    return "x".join(map(str, value)) if isinstance(value, tuple) else str(value)


class TestFollowsTheCentroidBranch:
    """The traced terminal profile at n = 400 against the branch through the centroid.

    Seeded uniform games (box 1). On the fold-free ones ``fine_branch`` is the
    reference: a tracer that stepped in ``n`` ended 0.41 to 1.0 away from it
    on each of these seeds but 3x3 1000, while the oracle never moves more than 0.05 per
    step, and every point it returned was still a genuine logit equilibrium,
    so no residual check could see it. On the others the branch turns back in
    ``n``, so ``fine_branch`` cannot pass and ``fine_arclength`` is the
    reference; the trace must fall in ``n`` somewhere.
    """

    @pytest.mark.parametrize(
        "shape, seed",
        [((3, 3), 1000), ((3, 3), 1009), ((3, 3), 1010), ((8, 8), 1001), ((8, 8), 1008),
         ((3, 3, 3), 1008), ((4, 4, 4), 1005)],
        ids=_case_id,
    )
    def test_fold_free_branch_matches_natural_continuation(self, shape, seed):
        game = _seeded(shape, seed)
        assert _terminal_gap(game, fine_branch(game, 400.0)) <= 1e-9

    # seeds 0 and 1 at 4x4x4 are the fold reproducers: the first draw of default_rng(0) and (1)
    @pytest.mark.parametrize(
        "shape, seed",
        [((3, 3, 3), 1007), ((3, 3, 3), 1011), ((4, 4, 4), 1000), ((4, 4, 4), 1008),
         ((8, 8), 1000), ((4, 4, 4), 0), ((4, 4, 4), 1)],
        ids=_case_id,
    )
    def test_branch_through_a_fold_matches_arclength(self, shape, seed):
        game = _seeded(shape, seed)
        ns = [e.n for e in trace_logit_path(game, 400.0).entries]
        assert any(b < a for a, b in zip(ns, ns[1:]))
        assert _terminal_gap(game, fine_arclength(game, 400.0)) <= 1e-9


class TestPayoffScale:
    """Payoffs ``B*u`` at precision ``n`` are payoffs ``u`` at ``B*n``, so the traces agree.

    The trace starts at ``START_CONTRACTION / ((k-1) max|u|)``, where the response map
    is a contraction. A start fixed at ``n = 1e-3`` underflowed its first step,
    failed correction, or ended 0.59 and 0.94 away on another branch on these
    draws.
    """

    @pytest.mark.parametrize(
        "scale, shape, seed",
        [(1e3, (2, 2), 0), (1e4, (2, 2), 3), (1e4, (3, 3), 16), (1e5, (3, 3), 0),
         (1e5, (3, 3, 3), 10)],
        ids=_case_id,
    )
    def test_trace_does_not_depend_on_the_payoff_scale(self, scale, shape, seed):
        game = _seeded(shape, seed)
        scaled = Game(game.form, tuple(scale * u for u in game.payoffs))
        trace = trace_logit_path(scaled, 10.0)
        largest = max(np.abs(u).max() for u in scaled.payoffs)
        assert trace.entries[0].n == START_CONTRACTION / (max(len(shape) - 1, 1) * largest)
        reference = trace_logit_path(game, 10.0 * scale).entries[-1].profile
        terminal = trace.entries[-1].profile
        assert max(np.abs(a - b).max() for a, b in zip(terminal.vectors, reference.vectors)) <= 1e-9


def _start(game):
    largest = max(1.0, max(float(np.abs(u).max()) for u in game.payoffs))
    return START_CONTRACTION / (max(game.form.num_players - 1, 1) * largest)


def _max_l1(a, b):
    return max(float(np.abs(u - v).sum()) for u, v in zip(a, b))


START_FORMS = [(3,), (2, 3), (4, 4), (2, 2, 2), (3, 2, 4), (2, 2, 2, 2)]


class TestStartIsAContraction:
    """At the first trace entry the response map halves distances in ``max_i |x_i|_1``.

    So the start has one fixed point, and Newton from the centroid reaches it.
    Pairs include profiles near the vertices, where the softmax bound is tightest.
    """

    @pytest.mark.parametrize("box", [1.0, 10.0, 1e4])
    @pytest.mark.parametrize("counts", START_FORMS, ids=_case_id)
    def test_response_halves_distances(self, rng, counts, box):
        form = StrategicGameForm(counts)
        game = random_game(rng, form, box=box)
        n = _start(game)
        assert trace_logit_path(game, 2.0 * n).entries[0].n == n
        for _ in range(20):
            x, y = (
                [rng.dirichlet(np.full(m, concentration)) for m in counts]
                for concentration in (rng.choice([0.1, 1.0]), rng.choice([0.1, 1.0]))
            )
            moved = _max_l1(logit_response(n, game, x).vectors, logit_response(n, game, y).vectors)
            assert moved <= 0.5 * _max_l1(x, y) + 1e-15

    @pytest.mark.parametrize("box", [1.0, 10.0, 1e4])
    @pytest.mark.parametrize("counts", START_FORMS, ids=_case_id)
    def test_start_solve_takes_at_most_five_updates(self, rng, counts, box):
        form = StrategicGameForm(counts)
        game = random_game(rng, form, box=box)
        n = _start(game)
        z = np.append(np.concatenate(MixedProfile.uniform(form).vectors), np.log(n))
        normal = np.append(np.zeros(z.size - 1), 1.0)
        gaps = [gap for _, gap, _, _ in itertools.islice(_newton_iterates(game, z, normal, n), 6)]
        assert min(gaps) <= 1e-10, gaps


def _tensordot_gap(game, vectors, n):
    """The logit gap as the benchmark checker computes it: deviation payoffs by ``np.tensordot``."""
    gap = 0.0
    for i in range(game.form.num_players):
        tensor = game.payoff_tensor(i)
        for j in reversed(range(game.form.num_players)):
            if j != i:
                tensor = np.tensordot(tensor, vectors[j], axes=([j], [0]))
        e = np.exp(n * tensor - (n * tensor).max())
        gap = max(gap, float(np.abs(vectors[i] - e / e.sum()).max()))
    return gap


class TestZeroSumTracesPassTheBenchmarkChecks:
    """Seeded zero-sum traces against the benchmark's trace checks.

    A pairwise zero-sum game has one logit equilibrium at every ``n``, so its
    trace must climb in ``n``, end at exactly ``n_final`` with a logit gap of at
    most 1e-8 recomputed without the library's contraction, and print no entry
    below -1e-9.
    """

    @pytest.mark.parametrize("n_final", [400.0, 10.0])
    @pytest.mark.parametrize("seed", [1000, 1001, 1002, 1003])
    def test_trace_passes(self, seed, n_final):
        for game in zero_sum_games(seed):
            entries = trace_logit_path(game, n_final).entries
            ns = [e.n for e in entries]
            assert all(b > a for a, b in zip(ns, ns[1:]))
            assert ns[-1] == n_final
            assert _tensordot_gap(game, entries[-1].profile.vectors, n_final) <= 1e-8
            assert min(float(v.min()) for e in entries for v in e.profile.vectors) >= -1e-9


    @pytest.mark.parametrize("n_final", [390.0, 400.0, 410.0])
    def test_failed_landing_is_a_rejected_step(self, n_final):
        # the benchmark corpus's trace-zerosum seed 3006, round 9, 3x3 game: the chord from
        # n = 281 to the step past n_final started a landing solve that did not converge
        u = np.array([-0.6801068493177995, -0.3602719469831408, -0.4839930615996155,
                      0.5210120324032739, 0.4785068763135816, -0.5552644965616822,
                      0.6484870151483075, -0.35776953502411013, -0.11219318146287005])
        game = Game(StrategicGameForm((3, 3)), (u, -u))
        entries = trace_logit_path(game, n_final).entries
        ns = [e.n for e in entries]
        assert all(b > a for a, b in zip(ns, ns[1:]))
        assert ns[-1] == n_final and len(ns) == 12
        assert _tensordot_gap(game, entries[-1].profile.vectors, n_final) <= 1e-8
        assert min(float(v.min()) for e in entries for v in e.profile.vectors) >= -1e-9


class TestSolveFixedPoint:
    def test_one_player_single_step(self):
        game = one_player_game([1.0, 0.0])
        out = solve_fixed_point(
            1.0, game, MixedProfile.uniform(game.form), damping=1.0, tol=1e-14, max_iter=1
        )
        assert out.vectors[0] == pytest.approx(SOFTMAX_10, abs=1e-15)

    def test_matching_pennies_already_fixed(self):
        game = matching_pennies()
        out = solve_fixed_point(2.0, game, MixedProfile.uniform(game.form), tol=1e-14)
        for v in out.vectors:
            assert np.array_equal(v, [0.5, 0.5])

    def test_coordination_uniform_branch(self):
        # deviation payoffs tie at the uniform profile, so it is a fixed point
        game = coordination_2x2()
        out = solve_fixed_point(1.0, game, MixedProfile.uniform(game.form), tol=1e-13)
        for v in out.vectors:
            assert np.abs(v - 0.5).max() <= 1e-13

    def test_solution_recheck(self, rng):
        form = StrategicGameForm((2, 2))
        for _ in range(5):
            game = random_game(rng, form, box=2.0)
            out = solve_fixed_point(3.0, game, MixedProfile.uniform(form), tol=1e-11)
            assert logit_residual(game, out, 3.0) <= 1e-11

    def test_budget_exhaustion(self, rng):
        game = random_game(rng, StrategicGameForm((2, 2)), box=2.0)
        with pytest.raises(ConvergenceError) as info:
            solve_fixed_point(5.0, game, MixedProfile.uniform(game.form), tol=1e-14, max_iter=2)
        assert info.value.best is not None
        assert info.value.residual > 0.0

    def test_damping_validation(self):
        game = matching_pennies()
        with pytest.raises(InvalidInputError):
            solve_fixed_point(1.0, game, MixedProfile.uniform(game.form), damping=0.0)


class TestSolveNewton:
    def test_one_player_matches_response(self):
        game = one_player_game([1.0, 0.0])
        out = solve_newton(3.0, game, MixedProfile.uniform(game.form), tol=1e-13)
        expected = logit_response(3.0, game, MixedProfile.uniform(game.form))
        assert np.abs(out.vectors[0] - expected.vectors[0]).max() <= 1e-13

    def test_matching_pennies_stays_uniform(self):
        game = matching_pennies()
        out = solve_newton(10.0, game, MixedProfile.uniform(game.form), tol=1e-13)
        for v in out.vectors:
            assert np.array_equal(v, [0.5, 0.5])

    def test_budget_exhaustion_reports_best_iterate(self):
        # plain Newton from the centroid does not converge on this draw at n = 1
        form = StrategicGameForm((2, 2))
        game = random_game(np.random.default_rng(37), form, box=10.0)
        start = MixedProfile.uniform(form)
        with pytest.raises(ConvergenceError) as info:
            solve_newton(1.0, game, start, tol=1e-11)
        best, residual = info.value.best, info.value.residual
        assert [np.shape(v) for v in best] == [(2,), (2,)]
        assert residual == pytest.approx(logit_residual(game, best, 1.0), rel=1e-12)
        assert 1e-11 < residual <= logit_residual(game, start, 1.0)

    def test_refines_fixed_point_solution(self, rng):
        form = StrategicGameForm((2, 2))
        game = random_game(rng, form, box=1.5)
        coarse = solve_fixed_point(5.0, game, MixedProfile.uniform(form), tol=1e-4)
        fine = solve_newton(5.0, game, coarse, tol=1e-12)
        assert logit_residual(game, fine, 5.0) <= 1e-12
        for a, b in zip(fine.vectors, coarse.vectors):
            assert np.abs(a - b).max() <= 1e-4

    def test_cross_solver_agreement(self, rng):
        # small n keeps the response map contractive, so the fixed point is
        # unique and both solvers must land on it from the uniform start
        form = StrategicGameForm((3, 2))
        for _ in range(5):
            game = random_game(rng, form, box=1.0)
            a = solve_fixed_point(1.2, game, MixedProfile.uniform(form), tol=1e-11)
            b = solve_newton(1.2, game, MixedProfile.uniform(form), tol=1e-11)
            for va, vb in zip(a.vectors, b.vectors):
                assert np.abs(va - vb).max() <= 1e-10


class TestTraceLogitPath:
    def test_matching_pennies_constant_uniform(self):
        trace = trace_logit_path(matching_pennies(), 100.0, tol=1e-12)
        for entry in trace.entries:
            for v in entry.profile.vectors:
                assert np.array_equal(v, [0.5, 0.5])
            assert entry.residual == 0.0
        assert trace.terminal_nash_residual == 0.0
        assert trace.entries[-1].n == 100.0

    def test_one_player_closed_form_terminal(self):
        trace = trace_logit_path(one_player_game([1.0, 0.0]), 20.0, tol=1e-13)
        terminal = trace.entries[-1]
        expected = np.exp(-20.0) / (1.0 + np.exp(-20.0))
        assert terminal.profile.vectors[0][1] == pytest.approx(expected, rel=1e-10)
        assert trace.terminal_nash_residual == pytest.approx(2.0611536181902036e-09, abs=1e-15)

    def test_coordination_centroid_branch(self):
        trace = trace_logit_path(coordination_2x2(), 50.0, tol=1e-12)
        for entry in trace.entries:
            for v in entry.profile.vectors:
                assert np.abs(v - 0.5).max() <= 1e-12
        assert trace.terminal_nash_residual <= 1e-12

    def test_lands_where_the_jacobian_is_singular(self):
        # the centroid branch of coordination bifurcates at n = 2, where H_x is
        # exactly singular; the centroid still solves there with gap 0
        trace = trace_logit_path(coordination_2x2(), 2.0, tol=1e-12)
        assert trace.entries[-1].n == 2.0 and trace.entries[-1].residual == 0.0

    def test_precisions_strictly_increase(self, rng):
        game = random_game(rng, StrategicGameForm((2, 2)), box=1.0)
        trace = trace_logit_path(game, 30.0, tol=1e-10)
        ns = [e.n for e in trace.entries]
        assert all(b > a for a, b in zip(ns, ns[1:]))
        assert ns[-1] == 30.0

    def test_entries_satisfy_solve_tolerance(self, rng):
        game = random_game(rng, StrategicGameForm((3, 2)), box=1.0)
        trace = trace_logit_path(game, 25.0, tol=1e-10)
        for entry in trace.entries:
            assert entry.residual <= 1e-10
            assert logit_residual(game, entry.profile, entry.n) == pytest.approx(
                entry.residual, abs=1e-12
            )

    @pytest.mark.parametrize("counts", [(2, 2), (3, 3), (3, 3, 3)])
    def test_consecutive_entries_are_continuous(self, rng, counts):
        # an accepted step is at most 1 along the tangent plus corrector updates
        # whose first is at most 0.3 of the step, in (x, log n)
        form = StrategicGameForm(counts)
        for _ in range(4):
            game = random_game(rng, form, box=1.0)
            points = [
                np.append(np.concatenate(e.profile.vectors), np.log(e.n))
                for e in trace_logit_path(game, 200.0, tol=1e-10).entries
            ]
            for a, b in zip(points, points[1:]):
                assert np.linalg.norm(b - a) <= 1.0 + 2 * 0.3

    def test_resolvable_at_recorded_precisions(self, rng):
        # independent damped resolve reaches the solve tolerance at every n
        game = random_game(rng, StrategicGameForm((2, 2)), box=1.0)
        trace = trace_logit_path(game, 15.0, tol=1e-10)
        for entry in trace.entries[:: max(1, len(trace.entries) // 4)]:
            again = solve_fixed_point(
                entry.n, game, MixedProfile.uniform(game.form), tol=1e-10, max_iter=20000
            )
            assert logit_residual(game, again, entry.n) <= 1e-10

    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    def test_final_precision_at_or_below_the_start(self, rng, fraction):
        # two players with payoffs in [-1, 1] start at START_CONTRACTION; below it
        # the start solve is the trace
        game = random_game(rng, StrategicGameForm((3, 2)), box=1.0)
        n_final = fraction * START_CONTRACTION
        trace = trace_logit_path(game, n_final, tol=1e-12)
        assert [e.n for e in trace.entries] == [n_final]
        assert trace.entries[0].residual <= 1e-12

    def test_invalid_range(self):
        game = matching_pennies()
        for n_final in (-5.0, 0.0, np.inf, np.nan):
            with pytest.raises(InvalidInputError):
                trace_logit_path(game, n_final)

    @pytest.mark.parametrize(
        "game",
        [
            Game.from_payoff_tensors([s * np.array([[1e308, -1e308], [-1e308, 1e308]]) for s in (1, -1)]),
            Game.from_payoff_tensors([np.array([[1e308, 0.0], [0.0, 5e307]])] * 2),
        ],
        ids=["pennies", "coordination"],
    )
    def test_overflowing_payoffs_fail_without_warnings(self, game):
        # n*max|u| overflows a double in the corrector; the suite turns RuntimeWarnings into errors
        with pytest.raises(PathFailureError, match="step size underflow"):
            trace_logit_path(game, 400.0)
        with pytest.raises(ConvergenceError):
            solve_newton(400.0, game, MixedProfile((np.array([0.9, 0.1]),) * 2))

    def test_unreachable_tolerance_fails_with_partial_trace(self, rng):
        game = random_game(rng, StrategicGameForm((2, 2)), box=1.0)
        with pytest.raises(PathFailureError) as info:
            trace_logit_path(game, 10.0, tol=1e-30)
        assert info.value.partial_trace is not None
        assert info.value.best is not None and info.value.residual > 1e-30

    @pytest.mark.parametrize("game", [matching_pennies(), one_player_game([1.0, 0.0])])
    @pytest.mark.parametrize("n_final", [1e300, 1e308, np.finfo(float).max])
    def test_extreme_final_precision_ends_there(self, game, n_final):
        # steps past log(n_final) near the top of the float range must not overflow
        trace = trace_logit_path(game, n_final)
        assert trace.entries[-1].n == n_final
        assert trace.entries[-1].residual <= 1e-10


class TestTerminalNashResidual:
    def test_matching_pennies(self):
        trace = trace_logit_path(matching_pennies(), 100.0, tol=1e-12)
        assert trace.terminal_nash_residual == 0.0
        for v in trace.entries[-1].profile.vectors:
            assert np.array_equal(v, [0.5, 0.5])

    def test_one_player_tiny_residual(self):
        trace = trace_logit_path(one_player_game([1.0, 0.0]), 30.0, tol=1e-12)
        assert trace.terminal_nash_residual <= 1e-12

    def test_residual_shrinks_with_precision(self, rng):
        form = StrategicGameForm((2, 2))
        game = random_game(rng, form, box=1.0)
        res_short = trace_logit_path(game, 200.0, tol=1e-10).terminal_nash_residual
        res_long = trace_logit_path(game, 400.0, tol=1e-10).terminal_nash_residual
        assert res_short <= 1e-2
        assert res_long < res_short or res_long <= 1e-12


class TestPathTrace:
    def test_accepts_precisions_that_fall_at_a_fold(self):
        game = matching_pennies()
        x = MixedProfile.uniform(game.form)
        entries = (
            PathEntry(n=2.0, profile=x, residual=0.0),
            PathEntry(n=1.0, profile=x, residual=0.0),
        )
        trace = PathTrace(entries=entries, game=game)
        assert [e.n for e in trace.entries] == [2.0, 1.0]

    def test_terminal_nash_residual_is_read_off_the_last_entry(self):
        game = one_player_game([1.0, 0.0])
        # with no entry the branch has not left its start, the uniform profile
        assert PathTrace(entries=(), game=game).terminal_nash_residual == 0.5
        profiles = [MixedProfile.uniform(game.form), MixedProfile((np.array([0.75, 0.25]),))]
        entries = tuple(PathEntry(n, x, logit_residual(game, x, n)) for n, x in zip((1.0, 2.0), profiles))
        assert PathTrace(entries=entries, game=game).terminal_nash_residual == 0.25

    def test_rejects_inconsistent_residual(self):
        game = one_player_game([1.0, 0.0])
        x = MixedProfile((np.array([0.5, 0.5]),))
        entries = (PathEntry(n=1.0, profile=x, residual=0.0),)
        with pytest.raises(InvalidInputError, match="residual"):
            PathTrace(entries=entries, game=game)

    def test_rejects_a_nan_stored_residual(self):
        game = matching_pennies()
        entries = (PathEntry(n=1.0, profile=MixedProfile.uniform(game.form), residual=math.nan),)
        with pytest.raises(InvalidInputError, match="stored residual nan"):
            PathTrace(entries=entries, game=game)

    def test_rejects_a_profile_of_another_form(self):
        game = matching_pennies()
        three = MixedProfile((np.full(3, 1 / 3), np.full(2, 0.5)))
        entries = (PathEntry(n=1.0, profile=three, residual=0.0),)
        with pytest.raises(InvalidInputError, match=r"profile\[0\]: length 3 != action count 2"):
            PathTrace(entries=entries, game=game)
