import numpy as np
import pytest

from logitgraph import (
    ConvergenceError,
    InvalidInputError,
    MixedProfile,
    PathEntry,
    PathFailureError,
    PathTrace,
    StrategicGameForm,
    approximate_nash,
    logit_residual,
    logit_response,
    nash_residual,
    solve_fixed_point,
    solve_newton,
    trace_logit_path,
)
from logitgraph.games import _payoff_kernel
from logitgraph.solver import _response_jacobian, _unstack
from conftest import (
    coordination_2x2,
    fd_jacobian,
    matching_pennies,
    one_player_game,
    random_game,
    random_interior_profile,
)

E = np.e
SOFTMAX_10 = np.array([E / (1 + E), 1 / (1 + E)])


class TestLogitResponse:
    def test_zero_precision_gives_uniform(self, rng):
        form = StrategicGameForm(2, (3, 2))
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
        form = StrategicGameForm(3, (2, 2, 2))
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
            lambda: solve_fixed_point(n, game, x),
            lambda: solve_newton(n, game, x),
            lambda: trace_logit_path(game, n),
        ):
            with pytest.raises(InvalidInputError, match="n must be .*finite"):
                call()


class TestResponseJacobian:
    @pytest.mark.parametrize(
        "counts", [(3,), (2, 2), (3, 2), (2, 2, 2), (3, 3, 3), (2, 3, 4, 2)]
    )
    @pytest.mark.parametrize("n", [0.1, 3.0, 30.0])
    def test_matches_finite_differences(self, rng, counts, n):
        form = StrategicGameForm(len(counts), counts)
        game = random_game(rng, form, box=1.0)

        def response(flat):
            return np.concatenate(logit_response(n, game, _unstack(form, flat)).vectors)

        for _ in range(3):
            x = random_interior_profile(rng, form).vectors
            responses, blocks = _payoff_kernel(game, x, n, jacobian=True)
            jac = _response_jacobian(n, form, responses, blocks)
            oracle = fd_jacobian(response, np.concatenate(x))
            assert np.abs(jac - oracle).max() <= 1e-6 * np.abs(oracle).max()
            assert np.abs(np.concatenate(responses) - response(np.concatenate(x))).max() <= 1e-14 * n


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
        form = StrategicGameForm(2, (2, 2))
        for _ in range(5):
            game = random_game(rng, form, box=2.0)
            out = solve_fixed_point(3.0, game, MixedProfile.uniform(form), tol=1e-11)
            assert logit_residual(game, out, 3.0) <= 1e-11

    def test_budget_exhaustion(self, rng):
        game = random_game(rng, StrategicGameForm(2, (2, 2)), box=2.0)
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

    def test_refines_fixed_point_solution(self, rng):
        form = StrategicGameForm(2, (2, 2))
        game = random_game(rng, form, box=1.5)
        coarse = solve_fixed_point(5.0, game, MixedProfile.uniform(form), tol=1e-4)
        fine = solve_newton(5.0, game, coarse, tol=1e-12)
        assert logit_residual(game, fine, 5.0) <= 1e-12
        for a, b in zip(fine.vectors, coarse.vectors):
            assert np.abs(a - b).max() <= 1e-4

    def test_cross_solver_agreement(self, rng):
        # small n keeps the response map contractive, so the fixed point is
        # unique and both solvers must land on it from the uniform start
        form = StrategicGameForm(2, (3, 2))
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

    def test_precisions_strictly_increase(self, rng):
        game = random_game(rng, StrategicGameForm(2, (2, 2)), box=1.0)
        trace = trace_logit_path(game, 30.0, tol=1e-10)
        ns = [e.n for e in trace.entries]
        assert all(b > a for a, b in zip(ns, ns[1:]))
        assert ns[-1] == 30.0

    def test_entries_satisfy_solve_tolerance(self, rng):
        game = random_game(rng, StrategicGameForm(2, (3, 2)), box=1.0)
        trace = trace_logit_path(game, 25.0, tol=1e-10)
        for entry in trace.entries:
            assert entry.residual <= 1e-10
            assert logit_residual(game, entry.profile, entry.n) == pytest.approx(
                entry.residual, abs=1e-12
            )

    def test_consecutive_steps_respect_declared_limit(self, rng):
        from logitgraph.solver import MAX_PROFILE_STEP

        form = StrategicGameForm(2, (2, 2))
        for _ in range(8):
            game = random_game(rng, form, box=1.0)
            trace = trace_logit_path(game, 200.0, tol=1e-10)
            for a, b in zip(trace.entries, trace.entries[1:]):
                moved = max(
                    float(np.abs(u - v).max())
                    for u, v in zip(a.profile.vectors, b.profile.vectors)
                )
                assert moved <= MAX_PROFILE_STEP

    def test_resolvable_at_recorded_precisions(self, rng):
        # independent damped resolve reaches the solve tolerance at every n
        game = random_game(rng, StrategicGameForm(2, (2, 2)), box=1.0)
        trace = trace_logit_path(game, 15.0, tol=1e-10)
        for entry in trace.entries[:: max(1, len(trace.entries) // 4)]:
            again = solve_fixed_point(
                entry.n, game, MixedProfile.uniform(game.form), tol=1e-10, max_iter=20000
            )
            assert logit_residual(game, again, entry.n) <= 1e-10

    def test_invalid_range(self):
        game = matching_pennies()
        with pytest.raises(InvalidInputError):
            trace_logit_path(game, 1.0, n_start=2.0)
        with pytest.raises(InvalidInputError):
            trace_logit_path(game, -5.0)

    def test_unreachable_tolerance_fails_with_partial_trace(self, rng):
        game = random_game(rng, StrategicGameForm(2, (2, 2)), box=1.0)
        with pytest.raises(PathFailureError) as info:
            trace_logit_path(game, 10.0, tol=1e-30, max_corrector_iter=20)
        assert info.value.partial_trace is not None


class TestApproximateNash:
    def test_matching_pennies(self):
        profile, residual = approximate_nash(matching_pennies(), 100.0, tol=1e-12)
        assert residual == 0.0
        for v in profile.vectors:
            assert np.array_equal(v, [0.5, 0.5])

    def test_one_player_tiny_residual(self):
        _, residual = approximate_nash(one_player_game([1.0, 0.0]), 30.0, tol=1e-12)
        assert residual <= 1e-12

    def test_residual_shrinks_with_precision(self, rng):
        form = StrategicGameForm(2, (2, 2))
        game = random_game(rng, form, box=1.0)
        _, res_short = approximate_nash(game, 200.0, tol=1e-10)
        _, res_long = approximate_nash(game, 400.0, tol=1e-10)
        assert res_short <= 1e-2
        assert res_long < res_short or res_long <= 1e-12


class TestPathTrace:
    def test_rejects_decreasing_precisions(self):
        game = matching_pennies()
        x = MixedProfile.uniform(game.form)
        entries = (
            PathEntry(n=2.0, profile=x, residual=0.0),
            PathEntry(n=1.0, profile=x, residual=0.0),
        )
        with pytest.raises(InvalidInputError):
            PathTrace(entries=entries, game=game, terminal_nash_residual=0.0)

    def test_rejects_inconsistent_residual(self):
        game = one_player_game([1.0, 0.0])
        x = MixedProfile((np.array([0.5, 0.5]),))
        entries = (PathEntry(n=1.0, profile=x, residual=0.0),)
        with pytest.raises(InvalidInputError, match="residual"):
            PathTrace(entries=entries, game=game, terminal_nash_residual=0.0)
