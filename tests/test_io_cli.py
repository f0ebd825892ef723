import io
import json

import numpy as np
import pytest

from logitgraph import (
    MixedProfile,
    ParseError,
    StrategicGameForm,
    deviation_payoff,
    parse_game,
    parse_target_point,
)
from logitgraph.cli import run_cli
from logitgraph.io import (
    game_to_json,
    target_point_to_json,
    trace_to_csv,
    trace_to_dict,
    trace_to_json,
)
from logitgraph.solver import trace_logit_path
from conftest import matching_pennies, one_player_game

PENNIES_JSON = '{"players": 2, "actions": [2, 2], "payoffs": [[1, -1, -1, 1], [-1, 1, 1, -1]]}'
ONE_PLAYER_JSON = '{"players": 1, "actions": [2], "payoffs": [[1, 0]]}'
TARGET_JSON = '{"tilde_u": [[0, 0]], "y_bar": [[1.5, 0.5]]}'


class TestParseGame:
    def test_one_player(self):
        game = parse_game(ONE_PLAYER_JSON)
        assert game.form.num_players == 1
        assert game.payoffs[0].tolist() == [1.0, 0.0]

    def test_matching_pennies_layout(self):
        game = parse_game(PENNIES_JSON.encode("utf-8"))
        # hand-mapped: entry at flat index 1 is profile (a0=1, a1=0)
        assert game.payoff_tensor(0)[1, 0] == -1.0
        assert game.payoff_tensor(0)[0, 0] == 1.0
        x = MixedProfile.uniform(game.form)
        assert deviation_payoff(game, 0, 0, x) == 0.0

    def test_wrong_tensor_length(self):
        bad = '{"players": 2, "actions": [2, 2], "payoffs": [[1, 2, 3]]}'
        with pytest.raises(ParseError, match=r"payoffs\[0\].*3.*4"):
            parse_game(bad)

    def test_malformed_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_game("{not json")

    def test_missing_keys_named(self):
        with pytest.raises(ParseError, match="actions"):
            parse_game('{"players": 1, "payoffs": [[1, 0]]}')

    def test_nonfinite_entry_named(self):
        with pytest.raises(ParseError, match=r"payoffs\[0\]\[1\]"):
            parse_game('{"players": 1, "actions": [2], "payoffs": [[1, Infinity]]}')

    def test_bad_players_value(self):
        with pytest.raises(ParseError, match="players"):
            parse_game('{"players": 0, "actions": [], "payoffs": []}')
        with pytest.raises(ParseError, match="players"):
            parse_game('{"players": true, "actions": [2], "payoffs": [[1, 0]]}')

    def test_round_trip(self):
        game = matching_pennies()
        again = parse_game(game_to_json(game))
        for a, b in zip(game.payoffs, again.payoffs):
            assert np.array_equal(a, b)


class TestParseTargetPoint:
    def test_valid(self):
        t = parse_target_point(TARGET_JSON)
        assert t.form == StrategicGameForm(1, (2,))
        assert t.y_bar[0].tolist() == [1.5, 0.5]

    def test_zero_mean_violation_rejected(self):
        bad = '{"tilde_u": [[0.5, 0.5, 0.5, 0.5], [0, 0, 0, 0]], "y_bar": [[0, 0], [0, 0]]}'
        with pytest.raises(ParseError, match=r"tilde_u\[0\]"):
            parse_target_point(bad)

    def test_projection_flag_removes_means(self):
        bad = '{"tilde_u": [[0.5, 0.5, 0.5, 0.5], [0, 0, 0, 0]], "y_bar": [[0, 0], [0, 0]]}'
        t = parse_target_point(bad, project_tilde=True)
        assert np.abs(t.tilde_u[0]).max() <= 1e-15

    def test_round_trip(self):
        t = parse_target_point(TARGET_JSON)
        again = parse_target_point(target_point_to_json(t))
        assert np.array_equal(t.y_bar[0], again.y_bar[0])
        assert np.array_equal(t.tilde_u[0], again.tilde_u[0])

    def test_shape_mismatch_named(self):
        bad = '{"tilde_u": [[0, 0, 0]], "y_bar": [[1, 0]]}'
        with pytest.raises(ParseError, match=r"tilde_u\[0\]"):
            parse_target_point(bad)


class TestTraceSerialization:
    def test_csv_round_trip(self):
        trace = trace_logit_path(one_player_game([1.0, 0.0]), 5.0, tol=1e-12)
        text = trace_to_csv(trace)
        lines = text.strip().split("\n")
        assert lines[0] == "n,player,action,probability,residual"
        parsed = [line.split(",") for line in lines[1:]]
        assert len(parsed) == 2 * len(trace.entries)
        # probabilities re-read to the exact doubles that were written
        for entry in trace.entries:
            rows = [r for r in parsed if float(r[0]) == entry.n]
            got = np.array([float(r[3]) for r in sorted(rows, key=lambda r: int(r[2]))])
            assert np.array_equal(got, entry.profile.vectors[0])

    def test_json_mirrors_fields(self):
        trace = trace_logit_path(one_player_game([1.0, 0.0]), 5.0, tol=1e-12)
        data = json.loads(trace_to_json(trace))
        assert set(data) == {"game", "entries", "terminal_nash_residual"}
        assert data["terminal_nash_residual"] == trace.terminal_nash_residual
        assert len(data["entries"]) == len(trace.entries)
        assert data["entries"][0]["n"] == trace.entries[0].n
        # the embedded game re-parses under the game schema
        again = parse_game(json.dumps(data["game"]))
        assert np.array_equal(again.payoffs[0], trace.game.payoffs[0])

    def test_dict_matches_json(self):
        trace = trace_logit_path(one_player_game([1.0, 0.0]), 2.0, tol=1e-12)
        assert json.loads(trace_to_json(trace)) == trace_to_dict(trace)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestCli:
    def test_decompose_matching_pennies(self, tmp_path):
        path = tmp_path / "pennies.json"
        path.write_text(PENNIES_JSON)
        code, out, err = invoke(["decompose", str(path)])
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["bar_u"] == [[0.0, 0.0], [0.0, 0.0]]
        assert data["tilde_u"][0] == [1.0, -1.0, -1.0, 1.0]

    def test_solve_one_player(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(ONE_PLAYER_JSON)
        code, out, err = invoke(["solve", "--n", "1", str(path)])
        assert code == 0
        data = json.loads(out)
        assert data["x"][0] == pytest.approx(
            [0.7310585786300049, 0.2689414213699951], abs=1e-9
        )
        assert data["residual"] <= 1e-10

    def test_invert_nash(self, tmp_path):
        path = tmp_path / "target.json"
        path.write_text(TARGET_JSON)
        code, out, err = invoke(["invert-nash", str(path)])
        assert code == 0
        data = json.loads(out)
        assert data["game"]["payoffs"][0] == [0.5, 0.5]
        assert data["x"][0] == [1.0, 0.0]
        assert data["residual"] == 0.0
        # output game re-parses under the declared schema
        parse_game(json.dumps(data["game"]))

    def test_invert_logit(self, tmp_path):
        path = tmp_path / "target.json"
        path.write_text(
            '{"tilde_u": [[0, 0]], "y_bar": [[1.7310585786300049, 0.2689414213699951]]}'
        )
        code, out, err = invoke(["invert-logit", "--n", "1", str(path), "--tol", "1e-12"])
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 1.0
        assert data["game"]["payoffs"][0] == pytest.approx([1.0, 0.0], abs=1e-9)
        assert data["x"][0] == pytest.approx(
            [0.7310585786300049, 0.2689414213699951], abs=1e-9
        )

    def test_project_tilde_flag(self, tmp_path):
        path = tmp_path / "target.json"
        path.write_text('{"tilde_u": [[0.5, 1.5]], "y_bar": [[1.5, 0.5]]}')
        code, _, err = invoke(["invert-nash", str(path)])
        assert code == 1 and "tilde_u" in err
        code, out, _ = invoke(["invert-nash", "--project-tilde", str(path)])
        assert code == 0
        data = json.loads(out)
        assert data["x"][0] == [1.0, 0.0]

    def test_trace_csv_and_out_file(self, tmp_path):
        game_path = tmp_path / "one.json"
        game_path.write_text(ONE_PLAYER_JSON)
        out_path = tmp_path / "trace.csv"
        code, out, err = invoke(
            ["trace", "--n-final", "5", str(game_path), "--out", str(out_path)]
        )
        assert code == 0 and out == ""
        text = out_path.read_text()
        assert text.startswith("n,player,action,probability,residual\n")

    def test_trace_json_format(self, tmp_path):
        game_path = tmp_path / "one.json"
        game_path.write_text(ONE_PLAYER_JSON)
        code, out, _ = invoke(["trace", "--n-final", "2", str(game_path), "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["entries"][-1]["n"] == 2.0

    def test_study_json_and_csv(self):
        argv = ["study", "--form", "2:2,2", "--n-list", "1,10", "--samples", "3", "--seed", "1"]
        code, out, _ = invoke(argv)
        assert code == 0
        data = json.loads(out)
        assert [row["n"] for row in data["rows"]] == [1.0, 10.0]
        code, out_csv, _ = invoke(argv + ["--format", "csv"])
        assert code == 0
        assert out_csv.startswith("n,sup_gap_x,sup_gap_full,lemma_bound\n")

    def test_study_byte_identical(self):
        argv = ["study", "--form", "2:2,2", "--n-list", "1,10", "--samples", "4", "--seed", "7"]
        _, first, _ = invoke(argv)
        _, second, _ = invoke(argv)
        assert first == second

    def test_verify_none(self):
        code, out, _ = invoke(["verify", "none"])
        assert code == 0
        assert out.count("PASS") >= 10 and "FAIL" not in out

    def test_verify_game(self, tmp_path):
        path = tmp_path / "pennies.json"
        path.write_text(PENNIES_JSON)
        code, out, _ = invoke(["verify", str(path)])
        assert code == 0
        assert "game-logit-solve" in out

    def test_unknown_command_exits_one(self):
        code, out, err = invoke(["frobnicate"])
        assert code == 1 and "usage" in err.lower()

    def test_unknown_flag_exits_one(self):
        code, _, err = invoke(["decompose", "--bogus", "x.json"])
        assert code == 1 and "usage" in err.lower()

    def test_missing_file_exits_one(self):
        code, _, err = invoke(["decompose", "/nonexistent/game.json"])
        assert code == 1 and "cannot read" in err

    def test_invalid_game_file_exits_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"players": 2, "actions": [2, 2], "payoffs": [[1, 2, 3]]}')
        code, _, err = invoke(["decompose", str(path)])
        assert code == 1 and "payoffs[0]" in err

    def test_convergence_failure_exits_two(self, tmp_path):
        # an interior solution at n = 1e6: one ulp of w moves softmax(n*w) by
        # about 1e-11, so the inner Newton inversion bottoms out near 1e-12
        path = tmp_path / "target.json"
        path.write_text('{"tilde_u": [[0, 0]], "y_bar": [[1.3, 0.7]]}')
        code, _, err = invoke(["invert-logit", "--n", "1e6", str(path), "--tol", "1e-30"])
        assert code == 2 and "convergence failure" in err

    @pytest.mark.parametrize(
        "argv", [["solve", "--n", "inf"], ["trace", "--n-final", "inf"]]
    )
    def test_infinite_precision_exits_one(self, tmp_path, argv):
        path = tmp_path / "pennies.json"
        path.write_text(PENNIES_JSON)
        code, out, err = invoke(argv + [str(path)])
        assert code == 1 and out == ""
        assert "must be positive and finite" in err

    def test_global_flags_before_subcommand(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(ONE_PLAYER_JSON)
        code, out, _ = invoke(["--format", "csv", "solve", "--n", "1", str(path)])
        assert code == 0
        assert out.startswith("n,player,action,probability,residual\n")
