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
    deviation_payoffs,
    evaluate_mixed,
    graph_point_gap,
    km_decompose,
    km_recompose,
    logit_residual,
    nash_residual,
)
from logitgraph.games import _contract, _nash_gap_rows
from logitgraph.graph_maps import _gap_rows
from conftest import (
    brute_force_expected_payoff,
    matching_pennies,
    one_player_game,
    random_game,
    random_interior_profile,
)

E = np.e


def uniform(game):
    return MixedProfile.uniform(game.form)


def random_batch(rng, form, rows):
    """Games and interior profiles, plus the same stacked along a leading sample axis."""
    games = [random_game(rng, form) for _ in range(rows)]
    profiles = [random_interior_profile(rng, form).vectors for _ in range(rows)]
    players = range(form.num_players)
    payoffs = tuple(np.stack([g.payoffs[i] for g in games]) for i in players)
    vectors = tuple(np.stack([x[i] for x in profiles]) for i in players)
    return games, profiles, payoffs, vectors


class TestTypes:
    def test_form_validation(self):
        with pytest.raises(InvalidInputError, match="num_players must be >= 1, got 0"):
            StrategicGameForm(())
        with pytest.raises(InvalidInputError, match=r"action counts must be >= 1, got \(2, 0\)"):
            StrategicGameForm((2, 0))
        # numpy 1.x caps arrays at 32 axes: 31 players and the sample axis
        assert StrategicGameForm((1,) * 31).profile_count == 1
        with pytest.raises(InvalidInputError, match="num_players must be <= 31, got 32"):
            StrategicGameForm((1,) * 32)
        form = StrategicGameForm((3, 2))
        assert form.num_players == 2
        assert form.profile_count == 6
        assert form.payoff_coordinate_count == 12

    @pytest.mark.parametrize("counts", [(2.7, 2), (True, 2), ("3", 2), 3, None], ids=repr)
    def test_form_rejects_counts_that_are_not_integers(self, counts):
        with pytest.raises(InvalidInputError, match="action counts must be integers"):
            StrategicGameForm(counts)

    def test_empty_tensor_list_rejected(self):
        with pytest.raises(InvalidInputError, match="payoff tensor list is empty"):
            Game.from_payoff_tensors([])

    def test_game_validation(self):
        form = StrategicGameForm((2, 2))
        with pytest.raises(InvalidInputError, match="payoff"):
            Game(form, (np.zeros(4),))
        with pytest.raises(InvalidInputError, match=r"payoffs\[1\]"):
            Game(form, (np.zeros(4), np.zeros(3)))
        with pytest.raises(InvalidInputError, match="finite"):
            Game(form, (np.zeros(4), np.array([1.0, np.inf, 0.0, 0.0])))

    def test_flat_layout_player0_fastest(self):
        # tensor[a0, a1] must land at flat index a0 + 2*a1
        tensor = np.array([[11.0, 12.0], [21.0, 22.0]])
        game = Game.from_payoff_tensors([tensor, tensor])
        assert game.payoffs[0].tolist() == [11.0, 21.0, 12.0, 22.0]
        assert np.array_equal(game.payoff_tensor(0), tensor)

    def test_profile_validation(self):
        with pytest.raises(InvalidInputError, match="negative"):
            MixedProfile((np.array([1.1, -0.1]),))
        with pytest.raises(InvalidInputError, match="sums"):
            MixedProfile((np.array([0.6, 0.6]),))
        profile = MixedProfile.uniform(StrategicGameForm((3, 2)))
        assert [v.tolist() for v in profile] == [[1 / 3] * 3, [0.5, 0.5]]

    def test_payoffs_are_immutable(self):
        game = matching_pennies()
        with pytest.raises(ValueError):
            game.payoffs[0][0] = 7.0


class TestEvaluateMixed:
    def test_matching_pennies_uniform_is_zero(self):
        game = matching_pennies()
        assert evaluate_mixed(game, 0, uniform(game)) == pytest.approx(0.0, abs=1e-15)

    def test_pure_profile_selects_entry(self, rng):
        form = StrategicGameForm((3, 2))
        game = random_game(rng, form)
        for a0 in range(3):
            for a1 in range(2):
                x = MixedProfile((np.eye(3)[a0], np.eye(2)[a1]))
                expected = game.payoff_tensor(0)[a0, a1]
                assert evaluate_mixed(game, 0, x) == expected

    def test_2x2_quarter(self):
        game = Game.from_payoff_tensors(
            [np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros((2, 2))]
        )
        x = uniform(game)
        assert evaluate_mixed(game, 0, x) == pytest.approx(0.25, abs=1e-15)
        oracle = brute_force_expected_payoff(game, 0, x.vectors)
        assert oracle == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize(
        "counts",
        [(2,), (4,), (2, 3), (3, 4), (2, 2, 2), (4, 4, 4), (2, 3, 2, 2)]
        + [(2, 2, 2) + (1,) * 24, (1,) * 14 + (2, 2) + (1,) * 15],  # 27 and 31 players
    )
    def test_agrees_with_brute_force(self, rng, counts):
        form = StrategicGameForm(counts)
        game = random_game(rng, form)
        x = random_interior_profile(rng, form)
        for player in range(form.num_players):
            exact = brute_force_expected_payoff(game, player, x.vectors)
            assert evaluate_mixed(game, player, x) == pytest.approx(exact, abs=1e-12)
        # several rows through the row kernel at once, each checked on its own
        games, profiles, payoffs, vectors = random_batch(rng, form, 4)
        for player, m in enumerate(counts):
            dev = _contract(form, payoffs[player], vectors, (player,))
            assert dev.shape == (4, m)
            for row, (g, p) in enumerate(zip(games, profiles)):
                for action in range(m):
                    pure = p[:player] + (np.eye(m)[action],) + p[player + 1 :]
                    exact = brute_force_expected_payoff(g, player, pure)
                    assert dev[row, action] == pytest.approx(exact, abs=1e-12)
                for other in range(form.num_players):
                    if other != player:
                        block = _contract(form, payoffs[player], vectors, (player, other))[row]
                        assert np.allclose(block @ p[other], dev[row], rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        game = matching_pennies()
        with pytest.raises(InvalidInputError):
            evaluate_mixed(game, 0, (np.array([0.5, 0.5]),))
        with pytest.raises(InvalidInputError):
            evaluate_mixed(game, 0, (np.array([0.5, 0.5]), np.array([1 / 3] * 3)))
        with pytest.raises(InvalidInputError):
            evaluate_mixed(game, 5, MixedProfile.uniform(game.form))


class TestDeviationPayoff:
    def test_matching_pennies_uniform(self):
        game = matching_pennies()
        for action in range(2):
            assert deviation_payoffs(game, 0, uniform(game))[action] == pytest.approx(
                0.0, abs=1e-15
            )

    def test_one_player_no_opponents(self):
        game = one_player_game([1.0, 0.0])
        x = MixedProfile((np.array([0.3, 0.7]),))
        assert deviation_payoffs(game, 0, x).tolist() == [1.0, 0.0]

    def test_2x2_expectation(self):
        game = Game.from_payoff_tensors(
            [np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros((2, 2))]
        )
        x = MixedProfile((np.array([1.0, 0.0]), np.array([0.25, 0.75])))
        # brute-force expectation over opponent actions: 1*0.25 + 0*0.75
        assert deviation_payoffs(game, 0, x)[0] == pytest.approx(0.25, abs=1e-15)

    def test_ignores_own_mixture(self, rng):
        form = StrategicGameForm((3, 2))
        game = random_game(rng, form)
        base = random_interior_profile(rng, form)
        other = MixedProfile((np.array([1.0, 0.0, 0.0]), base.vectors[1]))
        assert np.allclose(
            deviation_payoffs(game, 0, base), deviation_payoffs(game, 0, other)
        )

    def test_player_index_error(self):
        game = matching_pennies()
        with pytest.raises(InvalidInputError):
            deviation_payoffs(game, 2, uniform(game))

    @pytest.mark.parametrize("player", [1.5, True, "0", None], ids=repr)
    @pytest.mark.parametrize("call", [deviation_payoffs, evaluate_mixed])
    def test_player_index_must_be_an_integer(self, call, player):
        game = matching_pennies()
        with pytest.raises(InvalidInputError, match="player index must be an integer"):
            call(game, player, uniform(game))

    def test_numpy_player_index_accepted(self):
        game = matching_pennies()
        assert evaluate_mixed(game, np.int64(1), uniform(game)) == evaluate_mixed(game, 1, uniform(game))


class TestNashResidual:
    def test_matching_pennies_uniform(self):
        game = matching_pennies()
        assert nash_residual(game, uniform(game)) == 0.0

    def test_matching_pennies_pure(self):
        game = matching_pennies()
        x = MixedProfile((np.array([1.0, 0.0]), np.array([1.0, 0.0])))
        # player 1 gains from -1 to +1 by deviating
        assert nash_residual(game, x) == pytest.approx(2.0, abs=1e-15)

    def test_one_player_best_action(self):
        game = one_player_game([1.0, 0.0])
        assert nash_residual(game, MixedProfile((np.array([1.0, 0.0]),))) == 0.0

    def test_nonnegative(self, rng):
        form = StrategicGameForm((2, 2, 2))
        for _ in range(20):
            game = random_game(rng, form)
            assert nash_residual(game, random_interior_profile(rng, form)) >= 0.0

    @pytest.mark.parametrize("counts", [(3,), (2, 2), (3, 4), (2, 3, 2), (2, 3, 2, 2)])
    def test_batched_rows_equal_the_np_dot_formula_bit_for_bit(self, rng, counts):
        # the batched gap rounds its row dot as np.dot does, so one profile scores
        # the same alone, in a batch, and by the per-player formula
        form = StrategicGameForm(counts)
        games, profiles, payoffs, vectors = random_batch(rng, form, 20)
        for gap, game, x in zip(_nash_gap_rows(form, payoffs, vectors), games, profiles):
            devs = [deviation_payoffs(game, i, x) for i in range(form.num_players)]
            formula = max(0.0, max(float(d.max() - np.dot(v, d)) for d, v in zip(devs, x)))
            assert gap == formula == nash_residual(game, x)
        # the graph gap rounds the same row dot: alone, in a batch and by np.dot
        points = [GraphPoint(g, MixedProfile(x)) for g, x in zip(games, profiles)]
        rows = payoffs + vectors
        batched = _gap_rows(tuple(r[:-1] for r in rows), tuple(r[1:] for r in rows))
        for gap, a, b in zip(batched, points, points[1:]):
            du = [u - v for u, v in zip(a.game.payoffs, b.game.payoffs)]
            dx = [u - v for u, v in zip(a.profile.vectors, b.profile.vectors)]
            formula = float(np.sqrt(sum(float(np.dot(d, d)) for d in du + dx)))
            assert gap == formula == graph_point_gap(a, b)


class TestLogitResidual:
    def test_matching_pennies_uniform_any_n(self):
        game = matching_pennies()
        for n in (0.5, 1.0, 7.0, 300.0):
            assert logit_residual(game, uniform(game), n) <= 1e-15

    def test_one_player_closed_form(self):
        game = one_player_game([1.0, 0.0])
        x = MixedProfile((np.array([E / (1 + E), 1 / (1 + E)]),))
        assert logit_residual(game, x, 1.0) <= 1e-12

    def test_one_player_half(self):
        game = one_player_game([1.0, 0.0])
        x = MixedProfile((np.array([0.5, 0.5]),))
        assert logit_residual(game, x, 1.0) == pytest.approx(
            0.23105857863000488, abs=1e-9
        )

    def test_uniform_when_deviations_tie(self, rng):
        # constant payoffs: softmax of a constant vector is uniform
        form = StrategicGameForm((3, 2))
        game = Game(form, tuple(np.full(6, c) for c in (2.5, -1.0)))
        assert logit_residual(game, MixedProfile.uniform(form), 4.0) <= 1e-15

    def test_invalid_n(self):
        game = matching_pennies()
        with pytest.raises(InvalidInputError):
            logit_residual(game, uniform(game), 0.0)
        with pytest.raises(InvalidInputError):
            logit_residual(game, uniform(game), -1.0)

    def test_boundary_profile_warns_but_reports(self):
        game = matching_pennies()
        x = MixedProfile((np.array([1.0, 0.0]), np.array([0.5, 0.5])))
        with pytest.warns(RuntimeWarning):
            value = logit_residual(game, x, 2.0)
        assert value == pytest.approx(0.5, abs=1e-15)


class TestResidualInvariance:
    @pytest.mark.parametrize("counts", [(2, 2), (3, 2), (2, 2, 2)])
    def test_relabeling_actions(self, rng, counts):
        form = StrategicGameForm(counts)
        game = random_game(rng, form)
        x = random_interior_profile(rng, form)
        perms = [rng.permutation(m) for m in counts]
        permuted = Game.from_payoff_tensors(
            [game.payoff_tensor(i)[np.ix_(*perms)] for i in range(form.num_players)]
        )
        x_perm = MixedProfile(tuple(v[p] for v, p in zip(x.vectors, perms)))
        assert nash_residual(game, x) == pytest.approx(
            nash_residual(permuted, x_perm), abs=1e-12
        )
        assert logit_residual(game, x, 3.0) == pytest.approx(
            logit_residual(permuted, x_perm, 3.0), abs=1e-12
        )


class TestKMDecomposition:
    def test_matching_pennies(self):
        rep = km_decompose(matching_pennies())
        for i in range(2):
            assert np.array_equal(rep.tilde_u[i], matching_pennies().payoffs[i])
            assert np.array_equal(rep.bar_u[i], np.zeros(2))

    def test_constant_game(self):
        form = StrategicGameForm((2, 3))
        game = Game(form, (np.full(6, 4.5), np.full(6, -2.0)))
        rep = km_decompose(game)
        assert np.allclose(rep.tilde_u[0], 0.0) and np.allclose(rep.tilde_u[1], 0.0)
        assert np.allclose(rep.bar_u[0], 4.5) and np.allclose(rep.bar_u[1], -2.0)

    def test_one_player(self):
        rep = km_decompose(one_player_game([1.0, 0.0]))
        assert np.array_equal(rep.tilde_u[0], np.zeros(2))
        assert np.array_equal(rep.bar_u[0], np.array([1.0, 0.0]))

    def test_recompose_simple(self):
        rep = KMRepresentation((np.zeros(2),), (np.array([1.0, 0.0]),))
        game = km_recompose(rep)
        assert game.form == StrategicGameForm((2,)) and game.payoffs[0].tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("counts", [(2,), (2, 3), (3, 2), (2, 2, 2), (4, 3, 2)])
    def test_round_trip_identity(self, rng, counts):
        form = StrategicGameForm(counts)
        for _ in range(5):
            game = random_game(rng, form)
            rebuilt = km_recompose(km_decompose(game))
            for a, b in zip(game.payoffs, rebuilt.payoffs):
                assert np.abs(a - b).max() <= 1e-12

    def test_zero_mean_invariant(self, rng):
        form = StrategicGameForm((2, 3, 2))
        rep = km_decompose(random_game(rng, form))
        for i in range(3):
            tensor = rep.tilde_u[i].reshape(form.action_counts, order="F")
            axes = tuple(j for j in range(3) if j != i)
            assert np.abs(tensor.mean(axis=axes)).max() <= 1e-9

    def test_invalid_representation_rejected(self):
        biased = np.array([0.5, 0.5, 0.5, 0.5])  # opponent mean 0.5, not 0
        with pytest.raises(InvalidInputError, match="tilde_u"):
            KMRepresentation((biased, np.zeros(4)), (np.zeros(2), np.zeros(2)))

    def test_non_finite_representation_rejected(self):
        # a NaN remainder has NaN opponent means, which no "> tol" test catches
        with pytest.raises(InvalidInputError, match="finite"):
            KMRepresentation((np.full(4, np.nan), np.zeros(4)), (np.zeros(2), np.zeros(2)))
        with pytest.raises(InvalidInputError, match="finite"):
            KMRepresentation((np.zeros(4), np.zeros(4)), (np.array([np.inf, 0.0]), np.zeros(2)))

    def test_representation_messages_name_the_field(self):
        with pytest.raises(InvalidInputError, match="component count"):
            KMRepresentation((np.zeros(4),), (np.zeros(2), np.zeros(2)))
        # the form comes from bar_u, so a bar_u of another width is a tilde_u of the wrong length
        with pytest.raises(InvalidInputError, match=r"tilde_u\[0\]: length 4 != expected 6"):
            KMRepresentation((np.zeros(4), np.zeros(4)), (np.zeros(2), np.zeros(3)))


class TestGraphPoint:
    def test_nash_factory_checks_residual(self):
        game = matching_pennies()
        point = GraphPoint.nash(game, MixedProfile.uniform(game.form))
        assert point.kind == "nash" and point.residual == 0.0
        with pytest.raises(NotOnGraphError):
            GraphPoint.nash(game, MixedProfile((np.array([1.0, 0.0]), np.array([1.0, 0.0]))))

    def test_logit_factory_checks_residual(self):
        game = one_player_game([1.0, 0.0])
        x = MixedProfile((np.array([E / (1 + E), 1 / (1 + E)]),))
        point = GraphPoint.logit(game, x, 1.0)
        assert point.kind == "logit" and point.n == 1.0
        with pytest.raises(NotOnGraphError):
            GraphPoint.logit(game, MixedProfile((np.array([0.5, 0.5]),)), 1.0)

    def test_profile_of_another_form_rejected(self):
        game = matching_pennies()
        three = MixedProfile((np.full(3, 1 / 3), np.full(2, 0.5)))
        for n in (None, 2.0):
            with pytest.raises(InvalidInputError, match=r"profile\[0\]: length 3 != action count 2"):
                GraphPoint(game, three, n)

    def test_logit_factory_rejects_a_nan_residual(self):
        # at n = 1e308 the response overflows and logit_residual is NaN, which
        # used to pass the "residual > tol" test as on the graph
        game = Game.from_payoff_tensors(
            [np.array([[4.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [0.0, 4.0]])]
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NotOnGraphError, match="logit residual nan"):
                GraphPoint.logit(game, uniform(game), 1e308)
