import json
import math
import random
import re

import numpy as np
import pytest
from conftest import fd_jacobian, uniform_draws

import logitgraph.studies as studies

from logitgraph import (
    ConvergenceError,
    ConvergenceReport,
    Game,
    InvalidInputError,
    KMRepresentation,
    ReportRow,
    StrategicGameForm,
    TargetPoint,
    convergence_study,
    epsilon_bound,
    immersion_rank_check,
    km_decompose,
    km_recompose,
    phi_n_inv,
    run_property_suite,
    sample_target_points,
)
from logitgraph.io import render
from logitgraph.studies import RANK_SAMPLE_BOX, _reconstruction_jacobian, _uniform

FORM_1X2 = StrategicGameForm((2,))
FORM_2X2 = StrategicGameForm((2, 2))


class TestSampling:
    def test_deterministic(self):
        a = sample_target_points(FORM_2X2, 3, 7, 10.0)
        b = sample_target_points(FORM_2X2, 3, 7, 10.0)
        for ta, tb in zip(a, b):
            for ra, rb in zip(ta.tilde_u, tb.tilde_u):
                assert np.array_equal(ra, rb)
            for ra, rb in zip(ta.y_bar, tb.y_bar):
                assert np.array_equal(ra, rb)

    def test_entries_in_box(self):
        for t in sample_target_points(FORM_2X2, 5, 1, 2.0):
            assert all(np.abs(b).max() <= 2.0 for b in t.y_bar)
            # zero-mean projection can push tilde entries slightly past the box
            assert all(np.abs(row).max() <= 4.0 for row in t.tilde_u)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            sample_target_points(FORM_2X2, 0, 1, 1.0)
        with pytest.raises(InvalidInputError):
            sample_target_points(FORM_2X2, 1, 1, 0.0)

    @pytest.mark.parametrize("box", [math.inf, 1e308])
    def test_box_too_wide_to_draw(self, box):
        with pytest.raises(InvalidInputError, match="cannot draw 2 samples of form 2:2,2"):
            sample_target_points(FORM_2X2, 2, 0, box)

    def test_box_past_2_to_the_53_is_rejected_before_any_sample(self):
        # doubles are 2 apart there, so no reconstructed profile can sum to 1
        prefix = "cannot draw 20 samples of form 2:2,2: "
        with pytest.raises(InvalidInputError, match=rf"^{prefix}.*2\*\*53"):
            convergence_study(FORM_2X2, [1.0], 20, 0, bound_box=1e16)

    def test_unshapeable_draw_names_form_and_samples(self):
        form = StrategicGameForm((4611686018427387905, 4))
        with pytest.raises(InvalidInputError, match="1 samples of form 2:4611686018427387905,4"):
            sample_target_points(form, 1, 1, 1.0)

    def test_failed_allocation_names_form_and_samples(self, monkeypatch):
        # the study's draw fails as numpy does when it cannot allocate, so nothing is allocated
        def out_of_memory(rng, low, high, size):
            raise MemoryError("Unable to allocate 137. GiB")

        monkeypatch.setattr(studies, "_uniform", out_of_memory)
        form = StrategicGameForm((3000, 3000))
        with pytest.raises(InvalidInputError, match="2000 samples of form 2:3000,3000: Unable"):
            convergence_study(form, [1.0], 2000, 0)


class TestUniform:
    """The draw helper of the study and the property suite, on ``random.Random``."""

    def test_first_targets_are_pinned(self):
        t = sample_target_points(FORM_2X2, 1, 0, 1.0)[0]
        assert [v.tolist() for v in t.y_bar] == [
            [-0.28390125209624095, 0.7833213175569576],
            [-0.5631145416255516, -0.7214525814611992],
        ]
        assert [v.tolist() for v in t.tilde_u] == [
            [0.34476092700470473, -0.07522097032073938, -0.34476092700470473, 0.07522097032073938],
            [-0.4323066356344287, 0.4323066356344287, -0.1379470914880545, 0.1379470914880545],
        ]

    def test_one_draw_equals_draws_one_at_a_time(self, monkeypatch):
        whole = _uniform(random.Random(5), -2.0, 3.0, (6, 7))
        assert np.array_equal(whole.ravel(), uniform_draws(random.Random(5), -2.0, 3.0, 42))
        rng = random.Random(5)  # consecutive draws, each in chunks of 4 values
        monkeypatch.setattr(studies, "DRAW_CHUNK", 4)
        parts = [_uniform(rng, -2.0, 3.0, size) for size in (3, 0, 11, (4, 7))]
        assert np.array_equal(np.concatenate([p.ravel() for p in parts]), whole.ravel())

    def test_bounds_broadcast_per_entry(self):
        box = np.array([1.0, 10.0, 100.0])
        each = [uniform_draws(random.Random(1), -b, b, 3)[k] for k, b in enumerate(box)]
        assert np.array_equal(_uniform(random.Random(1), -box, box, 3), each)

    @pytest.mark.parametrize(
        "size, error", [((2**36, 2**20), MemoryError), ((2**40, 2**21), ValueError)], ids=["memory", "shape"]
    )
    def test_draw_numpy_cannot_hold_raises_before_any_bits(self, size, error):
        class Counting(random.Random):
            calls = 0

            def getrandbits(self, k):
                self.calls += 1
                return super().getrandbits(k)

        rng = Counting(0)
        with pytest.raises(error):
            _uniform(rng, 0.0, 1.0, size)
        assert rng.calls == 0


@pytest.mark.parametrize("seed", range(20))
def test_property_suite_passes(seed):
    results = run_property_suite(seed=seed)
    assert [r.name for r in results if not r.passed] == []


def test_game_the_tracer_cannot_follow_fails_only_its_logit_check():
    # n*max|u| overflows in the tracer's corrector; the other 14 checks still report
    big = 1e308 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    results = run_property_suite(Game.from_payoff_tensors([big, -big]))
    assert results[:12] == run_property_suite()
    assert [r.name for r in results[12:]] == ["game-km-round-trip", "game-residual-relabeling", "game-logit-solve"]
    assert [r.passed for r in results] == [True] * 14 + [False]
    assert results[-1].detail.startswith("convergence failure: step size underflow near n=3.59")


class TestSeed:
    """Every seeded draw takes a nonnegative integer seed, and nothing else."""

    DRAWS = {
        "sample_target_points": lambda seed: sample_target_points(FORM_2X2, 2, seed, 1.0),
        "convergence_study": lambda seed: convergence_study(FORM_2X2, [1.0], 2, seed),
        "immersion_rank_check": lambda seed: immersion_rank_check(1.0, FORM_1X2, 2, seed),
        "run_property_suite": lambda seed: run_property_suite(seed=seed),
    }

    @pytest.mark.parametrize("name", DRAWS)
    @pytest.mark.parametrize("seed", [-1, 1.5, None, np.int64(-1)], ids=repr)
    def test_rejects_what_is_not_a_nonnegative_integer(self, name, seed):
        # -1 used to fail inside numpy, 1.5 with a numpy TypeError, and None
        # drew from OS entropy
        message = f"seed must be a nonnegative integer, got {seed!r}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            self.DRAWS[name](seed)

    def test_numpy_integer_draws_as_the_python_integer(self):
        # random.Random rejects a NumPy integer seed, so the draws seed with int(seed)
        for a, b in zip(*(sample_target_points(FORM_2X2, 2, s, 1.0) for s in (7, np.uint8(7)))):
            assert all(np.array_equal(u, v) for u, v in zip(a.y_bar + a.tilde_u, b.y_bar + b.tilde_u))
        assert run_property_suite(seed=np.int64(3)) == run_property_suite(seed=3)


class TestConvergenceStudy:
    def test_shape_contract(self):
        report = convergence_study(FORM_1X2, [1.0], samples=1, seed=0)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.n == 1.0
        assert row.sup_gap_x >= 0.0 and row.sup_gap_full >= 0.0

    def test_gaps_shrink_and_respect_bound(self):
        report = convergence_study(FORM_2X2, [1.0, 10.0, 100.0, 1000.0], 30, seed=42)
        for row, bound in zip(report.rows, report.lemma_bounds):
            assert row.sup_gap_x <= bound * (1 + 1e-6)
        fulls = [row.sup_gap_full for row in report.rows]
        assert all(b <= a * 1.05 for a, b in zip(fulls, fulls[1:]))

    def test_deterministic_and_byte_identical(self):
        a = convergence_study(FORM_2X2, [1.0, 10.0], 10, seed=3)
        b = convergence_study(FORM_2X2, [1.0, 10.0], 10, seed=3)
        assert render(a, "json") == render(b, "json")
        assert render(a, "csv") == render(b, "csv")

    def test_rejects_bad_n_list(self):
        with pytest.raises(InvalidInputError):
            convergence_study(FORM_2X2, [], 1, seed=0)
        with pytest.raises(InvalidInputError):
            convergence_study(FORM_2X2, [10.0, 1.0], 1, seed=0)
        with pytest.raises(InvalidInputError):
            convergence_study(FORM_2X2, [-1.0, 1.0], 1, seed=0)

    @pytest.mark.parametrize("n_list", [[1.0, math.inf], [math.nan], [1.0, math.nan]], ids=str)
    def test_rejects_non_finite_precision_before_drawing(self, n_list, monkeypatch):
        def draw(*args):
            raise AssertionError("drew targets")

        monkeypatch.setattr(studies, "_target_blocks", draw)
        message = f"n must be positive and finite, got {n_list[-1]}"
        with pytest.raises(InvalidInputError, match=message):
            convergence_study(FORM_2X2, n_list, 2, seed=0)

    def test_report_enforces_row_invariant(self):
        bad = ReportRow(n=1.0, sup_gap_x=1.0, sup_gap_full=1.0)
        with pytest.raises(InvalidInputError, match="bound"):
            ConvergenceReport(form=FORM_2X2, seed=0, samples=1, rows=(bad,))

    @pytest.mark.parametrize("form", [FORM_1X2, FORM_2X2, StrategicGameForm((3, 2))], ids=str)
    def test_hand_built_report_is_gated_on_the_proven_bound(self, form):
        # the bound comes from the form and n alone, so no caller can loosen it
        bounds = [max(form.action_counts) * epsilon_bound(n) for n in (1.0, 10.0)]
        at = [ReportRow(n, b, 0.0) for n, b in zip((1.0, 10.0), bounds)]
        report = ConvergenceReport(form=form, seed=0, samples=1, rows=at)
        assert report.lemma_bounds == tuple(bounds)
        over = ReportRow(10.0, bounds[1] * (1.0 + 1e-5), 0.0)
        with pytest.raises(InvalidInputError, match="exceeds bound .* at n=10.0"):
            ConvergenceReport(form=form, seed=0, samples=1, rows=(at[0], over))

    def test_report_requires_sorted_rows(self):
        rows = (
            ReportRow(n=10.0, sup_gap_x=0.0, sup_gap_full=0.0),
            ReportRow(n=1.0, sup_gap_x=0.0, sup_gap_full=0.0),
        )
        with pytest.raises(InvalidInputError, match="sorted"):
            ConvergenceReport(form=FORM_2X2, seed=0, samples=1, rows=rows)

    def test_json_round_trip(self):
        report = convergence_study(FORM_2X2, [1.0, 10.0], 5, seed=9)
        loaded = json.loads(render(report, "json"))
        assert loaded["form"] == {"players": 2, "actions": [2, 2]}
        assert loaded["seed"] == 9 and loaded["samples"] == 5
        for row, bound, parsed in zip(report.rows, report.lemma_bounds, loaded["rows"]):
            assert parsed["n"] == row.n
            assert parsed["sup_gap_x"] == row.sup_gap_x
            assert parsed["sup_gap_full"] == row.sup_gap_full
            assert parsed["lemma_bound"] == bound


class TestImmersionRankCheck:
    def test_one_player_form(self):
        report = immersion_rank_check(1.0, FORM_1X2, 5, seed=0)
        assert report.expected_rank == 2
        assert report.min_singular_value > 1e-6
        assert report.passed

    def test_two_player_form(self):
        report = immersion_rank_check(1.0, FORM_2X2, 3, seed=0)
        assert report.expected_rank == 8
        assert report.min_singular_value > 1e-6

    def test_deterministic(self):
        a = immersion_rank_check(2.0, FORM_1X2, 4, seed=5)
        b = immersion_rank_check(2.0, FORM_1X2, 4, seed=5)
        assert render(a, "json") == render(b, "json")

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            immersion_rank_check(1.0, FORM_1X2, 0, seed=0)
        with pytest.raises(InvalidInputError):
            immersion_rank_check(0.0, FORM_1X2, 1, seed=0)
        for n in (float("inf"), float("nan")):
            with pytest.raises(InvalidInputError, match="finite"):
                immersion_rank_check(n, FORM_1X2, 1, seed=0)

    @pytest.mark.parametrize("n", [1e6, 1e7])
    def test_failed_reconstruction_names_sample(self, n):
        # sample 0 of this draw sits past the solver's precision floor at these n
        with pytest.raises(ConvergenceError, match=rf"seed=0, sample=0, n={n}\b"):
            immersion_rank_check(n, FORM_2X2, 3, seed=0)

    def test_failed_reconstruction_names_the_first_failing_sample(self):
        # samples 0 and 1 of this draw reconstruct at n = 1e6, sample 2 does not
        with pytest.raises(ConvergenceError, match=r"seed=1, sample=2, n=1000000\.0\b"):
            immersion_rank_check(1e6, FORM_2X2, 3, seed=1)


@pytest.mark.parametrize("counts", [(2,), (2, 2), (3, 2), (2, 2, 2)])
@pytest.mark.parametrize("n", [1.0, 10.0, 100.0])
def test_reconstruction_jacobian_matches_finite_differences(counts, n):
    """The closed-form derivative against central differences of the public maps."""
    form = StrategicGameForm(counts)
    size = form.profile_count

    def reconstruct(u):
        rep = km_decompose(Game(form, tuple(u[i * size : (i + 1) * size] for i in range(len(counts)))))
        point = phi_n_inv(n, TargetPoint(tilde_u=rep.tilde_u, y_bar=rep.bar_u), tol=1e-13)
        return np.concatenate(point.game.payoffs + point.profile.vectors)

    t = sample_target_points(form, 1, 0, RANK_SAMPLE_BOX)[0]
    # the payoff coordinates that split into t: y_bar lifted onto the zero-mean part
    base = np.concatenate(km_recompose(KMRepresentation(t.tilde_u, t.y_bar)).payoffs)
    exact = _reconstruction_jacobian(n, form, t.tilde_u, phi_n_inv(n, t).profile.vectors)
    assert exact.shape == (form.payoff_coordinate_count + sum(counts), form.payoff_coordinate_count)
    assert np.abs(fd_jacobian(reconstruct, base) - exact).max() <= 1e-6
