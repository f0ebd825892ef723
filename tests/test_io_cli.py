import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from logitgraph import (
    Game,
    KMRepresentation,
    MixedProfile,
    ParseError,
    StrategicGameForm,
    convergence_study,
    deviation_payoffs,
    immersion_rank_check,
    km_decompose,
    parse_game,
    parse_target_point,
    phi_inv,
    phi_n_inv,
    sample_target_points,
)
from logitgraph import InvalidInputError, cli, graph_maps
from logitgraph.cli import run_cli
from logitgraph.games import _check_n_tol
from logitgraph.io import (
    _RECORDS,
    _load_json,
    _require_number_list,
    game_to_json,
    render,
    target_point_to_json,
    trace_to_dict,
)
from logitgraph.solver import trace_logit_path
from conftest import matching_pennies, one_player_game, random_game

ROOT = Path(__file__).resolve().parents[1]
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
        assert deviation_payoffs(game, 0, x)[0] == 0.0

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

    @pytest.mark.parametrize(
        "actions, payoffs, path",
        [
            # the int64 product of these counts wraps around to 4
            ("[4611686018427387905, 4]", "[[1, 2, 3, 4], [1, 2, 3, 4]]", r"payoffs\[0\]"),
            ("[18446744073709551616, 2]", "[[1, 2], [1, 2]]", r"payoffs\[0\]"),
            ("[2]", "[[1, 1" + "0" * 400 + "]]", r"payoffs\[0\]\[1\]"),
            ("[2]", "[[1, 1" + "0" * 5000 + "]]", "invalid JSON"),
        ],
        ids=["wrapping-product", "count-above-int64", "1e400-literal", "5000-digit-literal"],
    )
    def test_out_of_range_integers_rejected(self, actions, payoffs, path):
        text = f'{{"players": {actions.count(",") + 1}, "actions": {actions}, "payoffs": {payoffs}}}'
        with pytest.raises(ParseError, match=path):
            parse_game(text)

    def test_deep_nesting_rejected(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_game("[" * 100000 + "]" * 100000)

    def test_profile_count_is_exact(self):
        form = StrategicGameForm((4611686018427387905, 4))
        assert form.profile_count == 4611686018427387905 * 4

    def test_round_trip(self):
        game = matching_pennies()
        again = parse_game(game_to_json(game))
        for a, b in zip(game.payoffs, again.payoffs):
            assert np.array_equal(a, b)


class TestParseTargetPoint:
    def test_valid(self):
        t = parse_target_point(TARGET_JSON)
        assert t.form == StrategicGameForm((2,))
        assert t.bar_u[0].tolist() == [1.5, 0.5]

    def test_zero_mean_violation_rejected(self):
        bad = '{"tilde_u": [[0.5, 0.5, 0.5, 0.5], [0, 0, 0, 0]], "y_bar": [[0, 0], [0, 0]]}'
        with pytest.raises(ParseError, match=r"tilde_u\[0\]"):
            parse_target_point(bad)

    def test_projection_flag_removes_means(self):
        bad = '{"tilde_u": [[0.5, 0.5, 0.5, 0.5], [0, 0, 0, 0]], "y_bar": [[0, 0], [0, 0]]}'
        t = parse_target_point(bad, project_tilde=True)
        assert np.abs(t.tilde_u[0]).max() <= 1e-15

    @pytest.mark.parametrize("scale", [1e8, 1e11])
    def test_large_target_round_trip(self, scale):
        # the written zero-mean parts re-split with means near 1e-16 of their entries
        for t in sample_target_points(StrategicGameForm((3, 3, 3)), 20, 1, scale):
            again = parse_target_point(target_point_to_json(t))
            assert all(np.array_equal(a, b) for a, b in zip(t.bar_u, again.bar_u))
            assert max(float(np.abs(a - b).max()) for a, b in zip(t.tilde_u, again.tilde_u)) <= 1e-15 * scale

    def test_relative_mean_past_the_noise_floor_rejected(self):
        # opponent means of 1e-6 of the payoffs are noise; ten times that is not
        for scale in (1.0, 1e8):
            row = [scale * (v + 1e-5) for v in (1.0, -1.0, -1.0, 1.0)]
            bad = json.dumps({"tilde_u": [row, [0, 0, 0, 0]], "y_bar": [[0, 0], [0, 0]]})
            with pytest.raises(ParseError, match=r"tilde_u\[0\]: opponent means up to"):
                parse_target_point(bad)

    def test_round_trip(self):
        t = parse_target_point(TARGET_JSON)
        again = parse_target_point(target_point_to_json(t))
        assert np.array_equal(t.bar_u[0], again.bar_u[0])
        assert np.array_equal(t.tilde_u[0], again.tilde_u[0])

    def test_shape_mismatch_named(self):
        bad = '{"tilde_u": [[0, 0, 0]], "y_bar": [[1, 0]]}'
        with pytest.raises(ParseError, match=r"tilde_u\[0\]"):
            parse_target_point(bad)

    def test_integer_too_large_for_a_double_named(self):
        bad = '{"tilde_u": [[0, 0]], "y_bar": [[1' + "0" * 400 + ', 0]]}'
        with pytest.raises(ParseError, match=r"y_bar\[0\]\[0\]"):
            parse_target_point(bad)


class TestErrorPaths:
    """Each input error names the path of the offending value; each case checks type and path."""

    @pytest.mark.parametrize(
        "data", [b"\xff\xfe", bytearray(b'{"players": "\xe9"}')], ids=["bytes", "bytearray"]
    )
    def test_load_json_rejects_bytes_that_are_not_utf8(self, data):
        with pytest.raises(ParseError) as caught:
            _load_json(data)
        assert str(caught.value).startswith("input is not valid UTF-8: ")

    @pytest.mark.parametrize(
        "values, path",
        [({"a": 1}, "tilde_u[1]"), ("1, 2", "tilde_u[1]"), ([1.0, "2"], "tilde_u[1][1]"),
         ([None], "tilde_u[1][0]"), ([0.5, True], "tilde_u[1][1]")],
        ids=["object", "string", "string-entry", "null-entry", "bool-entry"],
    )
    def test_require_number_list(self, values, path):
        with pytest.raises(ParseError) as caught:
            _require_number_list(values, "tilde_u[1]")
        assert str(caught.value).startswith(f"{path}: expected a ")

    @pytest.mark.parametrize(
        "text, path",
        [
            ("[1, 2]", "top level"),
            ('{"players": 2, "actions": [2], "payoffs": []}', "actions"),
            ('{"players": 2, "actions": 2, "payoffs": []}', "actions"),
            ('{"players": 2, "actions": [2, 0], "payoffs": []}', "actions[1]"),
            ('{"players": 1, "actions": [-2], "payoffs": []}', "actions[0]"),
            ('{"players": 1, "actions": [2], "payoffs": {"0": [1, 0]}}', "payoffs"),
            ('{"players": 2, "actions": [2, 2], "payoffs": [[1, -1, -1, 1]]}', "payoffs"),
            ('{"players": 1, "actions": [2], "payoffs": [[1, 0], [0, 1]]}', "payoffs"),
        ],
        ids=["not-an-object", "actions-short", "actions-not-a-list", "action-zero",
             "action-negative", "payoffs-not-a-list", "too-few-tensors", "too-many-tensors"],
    )
    def test_parse_game(self, text, path):
        with pytest.raises(ParseError) as caught:
            parse_game(text)
        assert str(caught.value).startswith(f"{path}: ")

    @pytest.mark.parametrize(
        "text, path",
        [
            ('"target"', "top level"),
            ('{"tilde_u": [[0, 0]]}', "y_bar"),
            ('{"y_bar": [[1.5, 0.5]]}', "tilde_u"),
            ('{"tilde_u": [], "y_bar": [[1.5, 0.5]]}', "tilde_u"),
            ('{"tilde_u": [[0, 0]], "y_bar": []}', "y_bar"),
            ('{"tilde_u": [[0, 0], [0, 0]], "y_bar": [[1.5, 0.5]]}', "tilde_u"),
        ],
        ids=["not-an-object", "y_bar-missing", "tilde_u-missing", "tilde_u-empty", "y_bar-empty",
             "tilde_u-rows"],
    )
    def test_parse_target_point(self, text, path):
        with pytest.raises(ParseError) as caught:
            parse_target_point(text)
        assert str(caught.value).startswith(f"{path}: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["study", "--form", "2:2,2", "--n-list", "1,x", "--samples", "2", "--seed", "0"],
             "error: --n-list: expected comma-separated numbers, got '1,x'"),
            (["decompose", str(ROOT / "demos" / "games" / "matching_pennies.json"), "--out", "{missing}"],
             "error: cannot write {missing}: No such file or directory"),
        ],
        ids=["n-list", "out-dir"],
    )
    def test_run_cli(self, tmp_path, argv, message):
        missing = str(tmp_path / "missing" / "out.json")
        code, out, err = invoke([a.format(missing=missing) for a in argv])
        assert (code, out, err) == (1, "", message.format(missing=missing) + "\n")
        assert not (tmp_path / "missing").exists()


class TestTraceSerialization:
    def test_csv_round_trip(self):
        trace = trace_logit_path(one_player_game([1.0, 0.0]), 5.0, tol=1e-12)
        text = render(trace, "csv")
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
        data = json.loads(render(trace, "json"))
        assert set(data) == {"game", "entries", "terminal_nash_residual"}
        assert data["terminal_nash_residual"] == trace.terminal_nash_residual
        assert len(data["entries"]) == len(trace.entries)
        assert data["entries"][0]["n"] == trace.entries[0].n
        # the embedded game re-parses under the game schema
        again = parse_game(json.dumps(data["game"]))
        assert np.array_equal(again.payoffs[0], trace.game.payoffs[0])

    def test_dict_matches_json(self):
        trace = trace_logit_path(one_player_game([1.0, 0.0]), 2.0, tol=1e-12)
        assert json.loads(render(trace, "json")) == trace_to_dict(trace)


def _records():
    game = one_player_game([1.0, 0.0])
    trace = trace_logit_path(game, 5.0, tol=1e-12)
    target = parse_target_point(TARGET_JSON)
    return [
        km_decompose(matching_pennies()),
        trace.entries[-1],
        trace,
        phi_inv(target),
        phi_n_inv(3.0, target),
        convergence_study(StrategicGameForm((2, 2)), [1.0, 10.0], 3, seed=1),
        immersion_rank_check(2.0, StrategicGameForm((2,)), 2, seed=0),
    ]


# the CSV headers the README documents
HEADERS = {
    "KMRepresentation": "player,component,index,value",
    "PathEntry": "n,player,action,probability,residual",
    "PathTrace": "n,player,action,probability,residual",
    "GraphPoint": "section,player,index,value",
    "ConvergenceReport": "n,sup_gap_x,sup_gap_full,lemma_bound",
    "RankReport": "n,sample_points,expected_rank,min_singular_value,threshold,passed",
}


class TestRender:
    def test_every_record_type_is_covered(self):
        assert {type(r).__name__ for r in _records()} == set(_RECORDS) == set(HEADERS)

    @pytest.mark.parametrize("index", range(7))
    def test_json_and_csv(self, index):
        record = _records()[index]
        to_dict, rows, _ = _RECORDS[type(record).__name__]
        text = render(record, "json")
        assert text.endswith("\n") and text.count("\n") == 1
        assert json.loads(text) == to_dict(record)
        header, *lines = render(record, "csv").splitlines()
        assert header == HEADERS[type(record).__name__]
        rows = list(rows(record))
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            cells = line.split(",")
            assert len(cells) == len(row) == header.count(",") + 1
            for cell, value in zip(cells, row):
                if isinstance(value, (float, np.floating)):
                    assert float(cell) == value

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            render(_records()[0], "xml")


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

    def test_large_payoffs_split_and_invert(self, tmp_path):
        # payoffs in +-1e8: the split's rounding used to fail the absolute zero-mean checks
        game = random_game(np.random.default_rng(0), StrategicGameForm((3, 3, 3)), box=1e8)
        game_path, target_path = tmp_path / "game.json", tmp_path / "target.json"
        game_path.write_text(game_to_json(game))
        code, out, err = invoke(["decompose", str(game_path)])
        assert (code, err) == (0, "")
        data = json.loads(out)
        target_path.write_text(json.dumps({"tilde_u": data["tilde_u"], "y_bar": data["bar_u"]}))
        for flags in ([], ["--project-tilde"]):
            code, out, err = invoke(["invert-nash", *flags, str(target_path)])
            assert (code, err) == (0, "")

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

    def test_study_form_too_large_to_draw_exits_one(self):
        argv = ["study", "--form", "2:4611686018427387905,4", "--n-list", "1", "--samples", "1"]
        code, out, err = invoke(argv + ["--seed", "1"])
        assert code == 1 and out == ""
        assert err.startswith("error: cannot draw 1 samples of form 2:4611686018427387905,4: ")

    @pytest.mark.parametrize("box", ["inf", "1e308"])
    def test_study_box_too_wide_to_draw_exits_one(self, box):
        # run_cli returns instead of raising, so the CLI prints no traceback
        argv = ["study", "--form", "2:2,2", "--n-list", "1", "--samples", "2", "--seed", "0"]
        code, out, err = invoke(argv + ["--bound-box", box])
        assert code == 1 and out == ""
        assert err.startswith("error: cannot draw 2 samples of form 2:2,2: ")

    def test_study_box_past_2_to_the_53_exits_one_without_blaming_a_sample(self):
        argv = ["study", "--form", "3:3,3,3", "--n-list", "1", "--samples", "200", "--seed", "0"]
        code, out, err = invoke(argv + ["--bound-box", "9.0e15"])
        assert code == 0 and err == ""
        code, out, err = invoke(argv + ["--bound-box", "9.1e15"])
        assert code == 1 and out == ""
        assert err.startswith("error: cannot draw 200 samples of form 3:3,3,3: ")
        assert "exceeds 2**53" in err

    @pytest.mark.parametrize("n_list", ["1,inf", "nan", "1,nan"])
    def test_study_non_finite_precision_exits_one(self, n_list):
        argv = ["study", "--form", "2:2,2", "--n-list", n_list, "--samples", "2", "--seed", "0"]
        code, out, err = invoke(argv)
        assert (code, out) == (1, "")
        assert err == f"error: n must be positive and finite, got {n_list.split(',')[-1]}\n"

    def test_study_huge_finite_precision_stays_a_convergence_failure(self):
        argv = ["study", "--form", "2:2,2", "--n-list", "1,1e308", "--samples", "2", "--seed", "0"]
        code, out, err = invoke(argv)
        assert (code, out) == (2, "")
        failure = "convergence failure: logit reconstruction failed (seed=0, sample=0, n=1e+308)"
        assert err.startswith(failure)

    def test_study_negative_seed_exits_one_without_a_traceback(self):
        # a process, so an exception escaping run_cli would show as a traceback
        argv = ["study", "--form", "2:2,2", "--n-list", "1", "--samples", "2", "--seed", "-1"]
        result = subprocess.run(
            [sys.executable, "-m", "logitgraph.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr == "error: seed must be a nonnegative integer, got -1\n"

    @pytest.mark.parametrize("seed", [0, 2])
    def test_invert_nash_target_past_2_to_the_53_exits_one(self, tmp_path, seed):
        # y_bar uniform in +-1e100 used to fail as "nash residual 2.899e+299" (seed 0)
        form = StrategicGameForm((2, 3))
        tilde = sample_target_points(form, 1, seed, 1.0)[0].tilde_u
        rng = np.random.default_rng(seed)
        path = tmp_path / "target.json"
        for box in (1e100, 1e15):
            y_bar = tuple(rng.uniform(-box, box, size=m) for m in form.action_counts)
            path.write_text(target_point_to_json(KMRepresentation(tilde, y_bar)))
            code, out, err = invoke(["invert-nash", str(path)])
            if box == 1e100:
                assert code == 1 and out == ""
                assert err.startswith("error: y_bar entry ") and "exceeds 2**53" in err
            else:
                assert code == 0 and err == ""
                assert json.loads(out)["residual"] == 0.0

    @pytest.mark.parametrize(
        "command, text",
        [(["invert-logit", "--n", "10"], TARGET_JSON), (["trace", "--n-final", "10"], PENNIES_JSON)],
    )
    def test_infinite_tol_exits_one(self, tmp_path, command, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        code, out, err = invoke(command + ["--tol", "inf", str(path)])
        assert code == 1 and out == ""
        assert err == "error: tol must be positive and finite, got inf\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--n", "1", "GAME", "--tol", "0"],
            ["study", "--form", "2:2,2", "--n-list", "1", "--samples", "1", "--seed", "0", "--tol", "-5"],
            ["decompose", "GAME", "--tol", "nan"],
            ["verify", "none", "--tol", "-1"],
            ["invert-nash", "TARGET", "--tol", "inf"],
        ],
    )
    def test_bad_tol_exits_one_on_every_command(self, tmp_path, argv):
        # study, decompose, verify and invert-nash never read --tol
        (tmp_path / "game.json").write_text(PENNIES_JSON)
        (tmp_path / "target.json").write_text(TARGET_JSON)
        paths = {"GAME": str(tmp_path / "game.json"), "TARGET": str(tmp_path / "target.json")}
        code, out, err = invoke([paths.get(arg, arg) for arg in argv])
        with pytest.raises(InvalidInputError) as library:
            _check_n_tol(1.0, float(argv[-1]))
        assert code == 1 and out == ""
        assert err == f"error: {library.value}\n"

    @pytest.mark.parametrize(
        "command, flag, value",
        [("solve", "--n", "inf"), ("invert-logit", "--n", "nan"), ("trace", "--n-final", "-1")],
    )
    def test_bad_precision_exits_one_before_reading_input(self, command, flag, value):
        code, out, err = invoke([command, flag, value, "/nonexistent/input.json"])
        with pytest.raises(InvalidInputError) as library:
            _check_n_tol(float(value), 1e-10)
        assert code == 1 and out == ""
        assert err == f"error: {library.value}\n"

    def test_verify_none(self):
        code, out, _ = invoke(["verify", "none"])
        assert code == 0
        assert out.count("PASS") >= 10 and "FAIL" not in out

    def test_verify_nash_round_trip_off_the_graph_exits_one(self, monkeypatch):
        # the reconstruction's own residual check raises, as the logit round
        # trip's failed inversion does, so the suite prints no FAIL line
        def far(form, payoffs, vectors):
            return np.ones(len(vectors[0]))

        monkeypatch.setattr(graph_maps, "_nash_gap_rows", far)
        code, out, err = invoke(["verify", "none"])
        assert code == 1 and out == ""
        assert err == "error: reconstruction left nash residual 1.000e+00\n"

    def test_verify_game(self, tmp_path):
        path = tmp_path / "pennies.json"
        path.write_text(PENNIES_JSON)
        code, out, _ = invoke(["verify", str(path)])
        assert code == 0
        assert "game-logit-solve" in out

    def test_verify_game_whose_centroid_newton_solve_stalls(self, tmp_path):
        # Newton from the uniform profile stalled at gap 0.128 for n = 1 on this
        # draw, while solve --n 1 traced it; the check reads the traced entry
        game = random_game(np.random.default_rng(5), StrategicGameForm((2, 2)), box=10.0)
        path = tmp_path / "game.json"
        path.write_text(game_to_json(game))
        code, out, err = invoke(["verify", str(path)])
        assert code == 0 and err == ""
        assert "PASS game-logit-solve" in out

    def test_trace_below_the_start_precision(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(ONE_PLAYER_JSON)
        code, out, err = invoke(["trace", "--n-final", "1e-4", "--format", "json", str(path)])
        assert code == 0 and err == ""
        assert [e["n"] for e in json.loads(out)["entries"]] == [1e-4]

    @pytest.mark.parametrize("seed", [3, 5])
    def test_solve_below_the_start_on_scaled_payoffs(self, tmp_path, seed):
        # 1e4*G at n = 1e-3 is G at n = 10; Newton from the uniform profile
        # ended 0.67 off that branch point (seed 3) or stalled (seed 5)
        form = StrategicGameForm((2, 2))
        game = random_game(np.random.default_rng(seed), form, box=1.0)
        path = tmp_path / "game.json"
        path.write_text(game_to_json(Game(form, tuple(1e4 * u for u in game.payoffs))))
        code, out, err = invoke(["solve", "--n", "1e-3", str(path)])
        assert code == 0 and err == ""
        expected = trace_logit_path(game, 10.0).entries[-1].profile
        for got, want in zip(json.loads(out)["x"], expected.vectors):
            assert np.abs(np.array(got) - want).max() <= 1e-9

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

    def test_overflowing_precision_is_a_convergence_failure(self):
        # n*x overflows in the inversion; a NaN residual used to pass as converged
        # and the NaN payoffs then failed as "error: payoffs[0]: entries must be finite"
        target = str(ROOT / "tests" / "golden" / "target_2x3.json")
        code, out, err = invoke(["invert-logit", "--n", "1e308", target])
        assert code == 2 and out == ""
        assert err.startswith("convergence failure: softmax-displacement inversion stalled at ")
        assert "residual inf" in err

    def test_more_than_31_players_exits_one(self, tmp_path):
        path = tmp_path / "game.json"
        game = {"players": 32, "actions": [2] + [1] * 31, "payoffs": [[0, 1]] * 32}
        path.write_text(json.dumps(game))
        for argv in (["decompose"], ["solve", "--n", "1"], ["verify"]):
            code, out, err = invoke(argv + [str(path)])
            assert code == 1 and out == ""
            assert err == "error: num_players must be <= 31, got 32\n"

    @pytest.mark.parametrize(
        "argv", [["solve", "--n", "inf"], ["trace", "--n-final", "inf"]]
    )
    def test_infinite_precision_exits_one(self, tmp_path, argv):
        path = tmp_path / "pennies.json"
        path.write_text(PENNIES_JSON)
        code, out, err = invoke(argv + [str(path)])
        assert code == 1 and out == ""
        assert "must be positive and finite" in err

    def test_every_subcommand_has_a_table_entry(self):
        formats = {c: fmt for c, (_, _, _, fmt) in cli._COMMANDS.items()}
        assert formats == {**dict.fromkeys(formats, "json"), "trace": "csv", "verify": None}

    @pytest.mark.parametrize("command", [None, *cli._COMMANDS])
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_returns_through_run_cli(self, command, flag, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = invoke([flag] if command is None else [command, flag])
        golden = ROOT / "tests" / "golden" / f"{command or 'logitgraph'}.help.txt"
        assert (code, out, err) == (0, golden.read_text(), "")
        assert capsys.readouterr() == ("", "")  # nothing reached the process's own streams

    @pytest.mark.parametrize(
        "text, path",
        [
            (
                '{"players": 2, "actions": [4611686018427387905, 4],'
                ' "payoffs": [[1, 2, 3, 4], [1, 2, 3, 4]]}',
                "payoffs[0]",
            ),
            (
                '{"players": 1, "actions": [2], "payoffs": [[1, 1' + "0" * 400 + "]]}",
                "payoffs[0][1]",
            ),
        ],
        ids=["wrapping-product", "1e400-literal"],
    )
    def test_out_of_range_game_exits_one(self, tmp_path, text, path):
        game_path = tmp_path / "game.json"
        game_path.write_text(text)
        code, out, err = invoke(["decompose", str(game_path)])
        assert code == 1 and out == ""
        assert err.startswith("error: " + path)

    def test_global_flags_before_subcommand(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(ONE_PLAYER_JSON)
        code, out, _ = invoke(["--format", "csv", "solve", "--n", "1", str(path)])
        assert code == 0
        assert out.startswith("n,player,action,probability,residual\n")
