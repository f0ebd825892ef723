import numpy as np
import pytest

from logitgraph import (
    Game,
    GraphPoint,
    InvalidInputError,
    KMRepresentation,
    MixedProfile,
    NotOnGraphError,
    StrategicGameForm,
    approximation_gap,
    epsilon_bound,
    g_jacobian,
    g_map,
    graph_point_gap,
    km_decompose,
    logit_residual,
    nash_residual,
    phi,
    phi_inv,
    phi_n_inv,
    sample_target_points,
    solve_newton,
    z_logit,
    z_nash,
)
from logitgraph import graph_maps
from conftest import matching_pennies, one_player_game, random_game

E = np.e

PIN_FORMS = [
    StrategicGameForm((3,)),
    StrategicGameForm((3, 2)),
    StrategicGameForm((2, 2, 2)),
]
FORMS = [
    StrategicGameForm((2,)),
    StrategicGameForm((2, 2)),
    StrategicGameForm((3, 2)),
    StrategicGameForm((2, 2, 2)),
]


def one_player_target(y_bar):
    return KMRepresentation(tilde_u=(np.zeros(len(y_bar)),), bar_u=(np.asarray(y_bar, dtype=float),))


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def max_target_diff(a, b):
    return max(
        max(float(np.abs(s - t).max()) for s, t in zip(a.tilde_u, b.tilde_u)),
        max(float(np.abs(s - t).max()) for s, t in zip(a.bar_u, b.bar_u)),
    )


class TestZMaps:
    def test_z_nash_matching_pennies_uniform(self):
        game = matching_pennies()
        for row in z_nash(game, MixedProfile.uniform(game.form)):
            assert np.allclose(row, [0.5, 0.5], atol=1e-15)

    def test_z_nash_one_player(self):
        game = one_player_game([1.0, 0.0])
        (row,) = z_nash(game, MixedProfile((np.array([1.0, 0.0]),)))
        assert row.tolist() == [2.0, 0.0]

    def test_z_nash_2x2(self):
        game = Game.from_payoff_tensors(
            [np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros((2, 2))]
        )
        x = MixedProfile((np.array([1.0, 0.0]), np.array([0.25, 0.75])))
        assert np.allclose(z_nash(game, x)[0], [1.25, 0.0], atol=1e-15)

    def test_z_logit_matching_pennies_uniform(self):
        game = matching_pennies()
        for n in (0.5, 3.0, 40.0):
            for row in z_logit(n, game, MixedProfile.uniform(game.form)):
                assert np.allclose(row, [0.5, 0.5], atol=1e-15)

    def test_z_logit_one_player(self):
        game = one_player_game([1.0, 0.0])
        (row,) = z_logit(1.0, game, MixedProfile((np.array([0.2, 0.8]),)))
        assert row == pytest.approx([1.7310585786300049, 0.2689414213699951], abs=1e-12)

    def test_z_logit_constant_deviations(self):
        form = StrategicGameForm((3, 2))
        game = Game(form, (np.full(6, 2.0), np.full(6, -1.0)))
        rows = z_logit(5.0, game, MixedProfile.uniform(form))
        assert np.allclose(rows[0], 2.0 + 1.0 / 3.0, atol=1e-14)
        assert np.allclose(rows[1], -1.0 + 0.5, atol=1e-14)

    def test_z_logit_matches_z_nash_on_logit_points(self, rng):
        form = StrategicGameForm((2, 2))
        game = random_game(rng, form, box=2.0)
        for n in (1.0, 6.0):
            x = solve_newton(n, game, MixedProfile.uniform(form), tol=1e-13)
            for a, b in zip(z_logit(n, game, x), z_nash(game, x)):
                assert np.abs(a - b).max() <= 1e-12

    def test_z_logit_requires_positive_n(self):
        game = matching_pennies()
        with pytest.raises(InvalidInputError):
            z_logit(0.0, game, MixedProfile.uniform(game.form))


class TestPhi:
    def test_matching_pennies_uniform(self):
        game = matching_pennies()
        point = GraphPoint.nash(game, MixedProfile.uniform(game.form))
        target = phi(point)
        for i in range(2):
            assert np.array_equal(target.tilde_u[i], game.payoffs[i])
            assert np.allclose(target.bar_u[i], [0.5, 0.5], atol=1e-15)

    def test_one_player_tie(self):
        game = one_player_game([0.5, 0.5])
        point = GraphPoint.nash(game, MixedProfile((np.array([1.0, 0.0]),)))
        target = phi(point)
        assert np.allclose(target.tilde_u[0], 0.0, atol=1e-15)
        assert np.allclose(target.bar_u[0], [1.5, 0.5], atol=1e-15)

    def test_zero_game(self):
        game = one_player_game([0.0, 0.0])
        point = GraphPoint.nash(game, MixedProfile((np.array([0.5, 0.5]),)))
        target = phi(point)
        assert np.allclose(target.tilde_u[0], 0.0)
        assert np.allclose(target.bar_u[0], [0.5, 0.5])

    def test_rejects_non_equilibrium(self):
        game = matching_pennies()
        bad = GraphPoint(game=game, profile=MixedProfile((np.array([1.0, 0.0]), np.array([1.0, 0.0]))))
        # the residual is read off the point, so it cannot claim to be on the graph
        assert bad.kind == "nash" and bad.residual == nash_residual(game, bad.profile) == 2.0
        with pytest.raises(NotOnGraphError):
            phi(bad)

    @pytest.mark.parametrize("form", PIN_FORMS, ids=str)
    def test_nash_point_pins_to_its_split_and_z_nash(self, form):
        for t in sample_target_points(form, 3, 11, 10.0):
            point = phi_inv(t)
            target = phi(point)
            assert_same_arrays(target.tilde_u, km_decompose(point.game).tilde_u)
            assert_same_arrays(target.bar_u, z_nash(point.game, point.profile))

    @pytest.mark.parametrize("form", PIN_FORMS, ids=str)
    @pytest.mark.parametrize("n", [0.5, 10.0, 1000.0])
    def test_logit_point_maps_at_its_own_n(self, form, n):
        for t in sample_target_points(form, 3, 12, 5.0 / n):  # interior profiles at every n
            point = phi_n_inv(n, t)
            target = phi(point)
            assert_same_arrays(target.tilde_u, km_decompose(point.game).tilde_u)
            assert_same_arrays(target.bar_u, z_logit(point.n, point.game, point.profile))

    def test_takes_no_tolerance(self):
        game = matching_pennies()
        x = MixedProfile.uniform(game.form)
        for call in (
            lambda: phi(GraphPoint.nash(game, x), tol=1.0),
            lambda: GraphPoint.nash(game, x, tol=1.0),
            lambda: GraphPoint.logit(game, x, 1.0, tol=1.0),
        ):
            with pytest.raises(TypeError):
                call()


class TestPhiInv:
    def test_water_filling_example(self):
        point = phi_inv(one_player_target([1.5, 0.5]))
        assert np.allclose(point.game.payoffs[0], [0.5, 0.5], atol=1e-15)
        assert np.allclose(point.profile.vectors[0], [1.0, 0.0], atol=1e-15)
        assert point.residual == 0.0

    def test_symmetric_example(self):
        point = phi_inv(one_player_target([0.5, 0.5]))
        assert np.allclose(point.game.payoffs[0], [0.0, 0.0], atol=1e-15)
        assert np.allclose(point.profile.vectors[0], [0.5, 0.5], atol=1e-15)

    def test_round_trip_from_matching_pennies(self):
        game = matching_pennies()
        point = GraphPoint.nash(game, MixedProfile.uniform(game.form))
        recovered = phi_inv(phi(point))
        for a, b in zip(recovered.game.payoffs, game.payoffs):
            assert np.abs(a - b).max() <= 1e-12
        for a, b in zip(recovered.profile.vectors, point.profile.vectors):
            assert np.abs(a - b).max() <= 1e-12

    def test_nan_reconstruction_residual_rejected(self, monkeypatch):
        # the gate reads "not residual <= 1e-9", so a NaN residual cannot pass it
        monkeypatch.setattr(graph_maps, "_nash_gap_rows", lambda *args: np.array([np.nan]))
        with pytest.raises(NotOnGraphError, match="nash residual nan"):
            phi_inv(one_player_target([1.5, 0.5]))

    def test_top_entry_past_2_to_the_53_rejected(self):
        for y in ([1e17, 0.0], [-1e17, -2e17]):
            with pytest.raises(InvalidInputError, match=r"y_bar entry 1e\+17 exceeds 2\*\*53"):
                phi_inv(one_player_target(y))

    def test_entry_far_below_the_top_splits_exactly(self):
        point = phi_inv(one_player_target([-1e17, 0.0]))
        assert point.profile.vectors[0].tolist() == [0.0, 1.0] and point.residual == 0.0
        assert point.game.payoffs[0].tolist() == [-1e17, -1.0]

    @pytest.mark.parametrize("form", FORMS, ids=str)
    def test_forward_round_trip(self, form):
        for t in sample_target_points(form, 40, 314, 10.0):
            point = phi_inv(t)
            assert point.residual <= 1e-9
            assert nash_residual(point.game, point.profile) <= 1e-9
            assert max_target_diff(t, phi(point)) <= 1e-9


class TestNonFinitePrecision:
    @pytest.mark.parametrize("n", [np.inf, np.nan])
    def test_rejected_at_every_graph_boundary(self, n):
        game = matching_pennies()
        x = MixedProfile.uniform(game.form)
        for call in (
            lambda: logit_residual(game, x, n),
            lambda: GraphPoint(game, x, n),
            lambda: GraphPoint.logit(game, x, n),
            lambda: z_logit(n, game, x),
            lambda: g_map(n, [0.1, 0.2]),
            lambda: g_jacobian(n, [0.1, 0.2]),
        ):
            with pytest.raises(InvalidInputError, match="n must be positive and finite"):
                call()


class TestPhiN:
    def test_one_player_example(self):
        game = one_player_game([1.0, 0.0])
        x = MixedProfile((np.array([E / (1 + E), 1 / (1 + E)]),))
        target = phi(GraphPoint.logit(game, x, 1.0))
        assert np.allclose(target.tilde_u[0], 0.0, atol=1e-15)
        assert target.bar_u[0] == pytest.approx(
            [1.7310585786300049, 0.2689414213699951], abs=1e-12
        )

    def test_matching_pennies_uniform(self):
        game = matching_pennies()
        for n in (1.0, 25.0):
            point = GraphPoint.logit(game, MixedProfile.uniform(game.form), n)
            target = phi(point)
            for i in range(2):
                assert np.array_equal(target.tilde_u[i], game.payoffs[i])
                assert np.allclose(target.bar_u[i], [0.5, 0.5], atol=1e-15)

    def test_zero_game_uniform(self):
        form = StrategicGameForm((3, 2))
        game = Game(form, (np.zeros(6), np.zeros(6)))
        point = GraphPoint.logit(game, MixedProfile.uniform(form), 1.0)
        target = phi(point)
        assert np.allclose(target.bar_u[0], 1.0 / 3.0, atol=1e-15)
        assert np.allclose(target.bar_u[1], 0.5, atol=1e-15)

    def test_rejects_non_equilibrium(self):
        game = one_player_game([1.0, 0.0])
        bad = GraphPoint(game=game, profile=MixedProfile((np.array([0.5, 0.5]),)), n=1.0)
        assert bad.kind == "logit" and bad.residual == logit_residual(game, bad.profile, 1.0) > 0.2
        with pytest.raises(NotOnGraphError):
            phi(bad)

    def test_boundary_profile_warns(self):
        # phi re-verifies a logit point through logit_residual at the point's n
        point = GraphPoint(one_player_game([1.0, 0.0]), MixedProfile((np.array([1.0, 0.0]),)), 1.0)
        with pytest.warns(RuntimeWarning, match="boundary profile"), pytest.raises(NotOnGraphError):
            phi(point)


class TestPhiNInv:
    def test_one_player_example(self):
        point = phi_n_inv(1.0, one_player_target([1.7310585786300049, 0.2689414213699951]))
        assert point.game.payoffs[0] == pytest.approx([1.0, 0.0], abs=1e-9)
        assert point.profile.vectors[0] == pytest.approx(
            [0.7310585786300049, 0.2689414213699951], abs=1e-9
        )

    def test_symmetric_point(self):
        point = phi_n_inv(1.0, one_player_target([0.5, 0.5]))
        assert np.allclose(point.game.payoffs[0], [0.0, 0.0], atol=1e-12)
        assert np.allclose(point.profile.vectors[0], [0.5, 0.5], atol=1e-12)

    def test_round_trip_through_solver_point(self, rng):
        form = StrategicGameForm((2, 2))
        game = random_game(rng, form, box=3.0)
        x = solve_newton(5.0, game, MixedProfile.uniform(form), tol=1e-13)
        point = GraphPoint.logit(game, x, 5.0)
        recovered = phi_n_inv(5.0, phi(point), tol=1e-12)
        for a, b in zip(recovered.game.payoffs, game.payoffs):
            assert np.abs(a - b).max() <= 1e-8
        for a, b in zip(recovered.profile.vectors, x.vectors):
            assert np.abs(a - b).max() <= 1e-8

    @pytest.mark.parametrize("form", FORMS, ids=str)
    @pytest.mark.parametrize("n", [1.0, 10.0])
    def test_forward_round_trip(self, form, n):
        for t in sample_target_points(form, 25, 2718, 10.0):
            point = phi_n_inv(n, t, tol=1e-12)
            assert point.residual <= 1e-9
            assert logit_residual(point.game, point.profile, n) <= 1e-9
            assert min(v.min() for v in point.profile.vectors) > 0.0
            assert max_target_diff(t, phi(point)) <= 1e-9

    def test_x_part_bound(self, rng):
        form = StrategicGameForm((3, 2))
        for n in (1.0, 10.0, 100.0):
            ceiling = max(form.action_counts) * epsilon_bound(n) * (1 + 1e-6)
            for t in sample_target_points(form, 20, int(n), 10.0):
                nash_point = phi_inv(t)
                logit_point = phi_n_inv(n, t, tol=1e-12)
                gap = max(
                    float(np.abs(a - b).max())
                    for a, b in zip(nash_point.profile.vectors, logit_point.profile.vectors)
                )
                assert gap <= ceiling

    def test_requires_positive_n(self):
        with pytest.raises(InvalidInputError):
            phi_n_inv(0.0, one_player_target([0.5, 0.5]))


class TestApproximationGap:
    def test_symmetric_targets_have_zero_gap(self):
        target = KMRepresentation(
            tilde_u=(matching_pennies().payoffs[0], matching_pennies().payoffs[1]),
            bar_u=(np.array([0.5, 0.5]), np.array([0.5, 0.5])),
        )
        for n in (1.0, 10.0, 100.0):
            assert approximation_gap(n, target) <= 1e-9

    def test_monotone_trend(self):
        form = StrategicGameForm((2, 2))
        for t in sample_target_points(form, 10, 5, 10.0):
            assert approximation_gap(1000.0, t) <= approximation_gap(10.0, t) + 1e-12

    def test_one_player_bound(self):
        t = one_player_target([1.5, 0.5])
        eps = epsilon_bound(100.0)
        assert approximation_gap(100.0, t) <= 2.0 * np.sqrt(2.0) * eps * (1 + 1e-6)

    def test_gap_of_mismatched_forms_rejected(self):
        a = phi_inv(one_player_target([1.5, 0.5]))
        form = StrategicGameForm((2, 2))
        b = phi_inv(sample_target_points(form, 1, 0, 1.0)[0])
        with pytest.raises(InvalidInputError):
            graph_point_gap(a, b)


class TestChart:
    """A target is a game in split coordinates: ``phi`` sends every reconstruction back to it."""

    # at n = 100 the one-player game's worse action has a probability below the
    # smallest double, so phi scores a boundary profile, which logit_residual warns of
    @pytest.mark.filterwarnings("ignore:logit residual evaluated at a boundary profile")
    @pytest.mark.parametrize("form", FORMS, ids=str)
    def test_phi_inverts_the_reconstructions_of_a_game(self, form):
        v = random_game(np.random.default_rng(29), form)
        target = km_decompose(v)
        assert max_target_diff(phi(phi_inv(target)), target) <= 1e-9
        for n in (1.0, 10.0, 100.0):
            assert max_target_diff(phi(phi_n_inv(n, target)), target) <= 1e-9

    def test_tilde_recovered_by_decompose(self, rng):
        # the zero-mean part of a reconstructed game equals the target's
        form = StrategicGameForm((3, 2))
        for t in sample_target_points(form, 10, 99, 5.0):
            rep = km_decompose(phi_inv(t).game)
            for a, b in zip(rep.tilde_u, t.tilde_u):
                assert np.abs(a - b).max() <= 1e-12
