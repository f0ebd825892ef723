"""File formats: game and target JSON, trace CSV/JSON, report serialization.

Game schema: ``{"players": int, "actions": [int], "payoffs": [[real]]}``, with
``payoffs[i]`` the flat column-major tensor described in
:mod:`logitgraph.games`. Target schema: ``{"tilde_u": [[real]], "y_bar":
[[real]]}``. JSON floats use Python's shortest round-trip representation; CSV
floats use 17 significant digits. Both re-read to the identical double.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ParseError
from .games import Game, StrategicGameForm, TargetPoint, _split_payoff


def _fmt(value):
    return format(float(value), ".17g")


def _decode(data):
    if isinstance(data, (bytes, bytearray)):
        try:
            return bytes(data).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from exc
    return data


def _load_json(data):
    try:
        return json.loads(_decode(data))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def _require_number_list(values, path):
    if not isinstance(values, list):
        raise ParseError(f"{path}: expected a list")
    out = []
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ParseError(f"{path}[{i}]: expected a number, got {type(v).__name__}")
        if not math.isfinite(v):
            raise ParseError(f"{path}[{i}]: entry must be finite, got {v}")
        out.append(float(v))
    return np.array(out, dtype=float)


def parse_game(data):
    """Parse and validate a game document; errors name the offending path."""
    obj = _load_json(data)
    if not isinstance(obj, dict):
        raise ParseError("top level: expected an object")
    for key in ("players", "actions", "payoffs"):
        if key not in obj:
            raise ParseError(f"{key}: missing")
    players = obj["players"]
    if isinstance(players, bool) or not isinstance(players, int) or players < 1:
        raise ParseError(f"players: expected a positive integer, got {players!r}")
    actions = obj["actions"]
    if not isinstance(actions, list) or len(actions) != players:
        raise ParseError(f"actions: expected a list of {players} integers")
    for i, m in enumerate(actions):
        if isinstance(m, bool) or not isinstance(m, int) or m < 1:
            raise ParseError(f"actions[{i}]: expected a positive integer, got {m!r}")
    size = int(np.prod(actions, dtype=np.int64))
    payoffs_obj = obj["payoffs"]
    if not isinstance(payoffs_obj, list):
        raise ParseError("payoffs: expected a list of per-player tensors")
    payoffs = []
    for i, row in enumerate(payoffs_obj):
        tensor = _require_number_list(row, f"payoffs[{i}]")
        if tensor.size != size:
            raise ParseError(f"payoffs[{i}]: length {tensor.size} != expected {size}")
        payoffs.append(tensor)
    if len(payoffs) != players:
        raise ParseError(f"payoffs: expected {players} tensors, got {len(payoffs)}")
    return Game(StrategicGameForm(players, tuple(actions)), tuple(payoffs))


def game_to_dict(game):
    return {
        "players": game.form.num_players,
        "actions": list(game.form.action_counts),
        "payoffs": [p.tolist() for p in game.payoffs],
    }


def game_to_json(game):
    return json.dumps(game_to_dict(game))


def parse_target_point(data, project_tilde=False):
    """Parse a target document and validate the zero-mean component.

    Residual means up to 1e-6 are treated as serialization noise and removed;
    larger means are rejected unless ``project_tilde`` is set, in which case
    they are removed too.
    """
    obj = _load_json(data)
    if not isinstance(obj, dict):
        raise ParseError("top level: expected an object")
    for key in ("tilde_u", "y_bar"):
        if key not in obj:
            raise ParseError(f"{key}: missing")
        if not isinstance(obj[key], list) or not obj[key]:
            raise ParseError(f"{key}: expected a nonempty list")
    y_bar = [_require_number_list(row, f"y_bar[{i}]") for i, row in enumerate(obj["y_bar"])]
    players = len(y_bar)
    if len(obj["tilde_u"]) != players:
        raise ParseError(
            f"tilde_u: expected {players} rows to match y_bar, got {len(obj['tilde_u'])}"
        )
    form = StrategicGameForm(players, tuple(v.size for v in y_bar))
    size = form.profile_count
    tilde = []
    for i, row in enumerate(obj["tilde_u"]):
        flat = _require_number_list(row, f"tilde_u[{i}]")
        if flat.size != size:
            raise ParseError(f"tilde_u[{i}]: length {flat.size} != expected {size}")
        zero_mean, means = _split_payoff(form, flat, i)
        worst = float(np.abs(means).max())
        if worst > 1e-6 and not project_tilde:
            raise ParseError(
                f"tilde_u[{i}]: opponent means up to {worst:.3e} exceed 1e-6 "
                "(pass project_tilde to remove them)"
            )
        tilde.append(zero_mean)
    return TargetPoint(form=form, tilde_u=tuple(tilde), y_bar=tuple(y_bar))


def target_point_to_dict(t):
    return {
        "tilde_u": [row.tolist() for row in t.tilde_u],
        "y_bar": [row.tolist() for row in t.y_bar],
    }


def target_point_to_json(t):
    return json.dumps(target_point_to_dict(t))


def km_representation_to_dict(rep):
    return {
        "tilde_u": [row.tolist() for row in rep.tilde_u],
        "bar_u": [row.tolist() for row in rep.bar_u],
    }


def km_representation_to_json(rep):
    return json.dumps(km_representation_to_dict(rep))


def km_representation_to_csv(rep):
    lines = ["player,component,index,value"]
    for i in range(rep.form.num_players):
        for idx, value in enumerate(rep.tilde_u[i]):
            lines.append(f"{i},tilde_u,{idx},{_fmt(value)}")
        for idx, value in enumerate(rep.bar_u[i]):
            lines.append(f"{i},bar_u,{idx},{_fmt(value)}")
    return "\n".join(lines) + "\n"


def profile_to_lists(profile):
    return [v.tolist() for v in profile.vectors]


def _profile_csv_rows(n, profile, residual):
    rows = []
    for player, vector in enumerate(profile.vectors):
        for action, probability in enumerate(vector):
            rows.append(f"{_fmt(n)},{player},{action},{_fmt(probability)},{_fmt(residual)}")
    return rows


def solution_to_dict(n, profile, residual):
    return {"n": float(n), "x": profile_to_lists(profile), "residual": float(residual)}


def solution_to_json(n, profile, residual):
    return json.dumps(solution_to_dict(n, profile, residual))


def solution_to_csv(n, profile, residual):
    return "\n".join(["n,player,action,probability,residual"] + _profile_csv_rows(n, profile, residual)) + "\n"


def trace_to_csv(trace):
    lines = ["n,player,action,probability,residual"]
    for entry in trace.entries:
        lines.extend(_profile_csv_rows(entry.n, entry.profile, entry.residual))
    return "\n".join(lines) + "\n"


def trace_to_dict(trace):
    return {
        "game": game_to_dict(trace.game),
        "entries": [
            {"n": e.n, "x": profile_to_lists(e.profile), "residual": e.residual}
            for e in trace.entries
        ],
        "terminal_nash_residual": trace.terminal_nash_residual,
    }


def trace_to_json(trace):
    return json.dumps(trace_to_dict(trace))


def graph_point_to_dict(point):
    out = {
        "game": game_to_dict(point.game),
        "x": profile_to_lists(point.profile),
        "kind": point.kind,
        "residual": point.residual,
    }
    if point.n is not None:
        out["n"] = point.n
    return out


def graph_point_to_json(point):
    return json.dumps(graph_point_to_dict(point))


def graph_point_to_csv(point):
    lines = ["section,player,index,value"]
    for player, tensor in enumerate(point.game.payoffs):
        for idx, value in enumerate(tensor):
            lines.append(f"payoff,{player},{idx},{_fmt(value)}")
    for player, vector in enumerate(point.profile.vectors):
        for idx, value in enumerate(vector):
            lines.append(f"probability,{player},{idx},{_fmt(value)}")
    lines.append(f"residual,,,{_fmt(point.residual)}")
    return "\n".join(lines) + "\n"


def form_to_dict(form):
    return {"players": form.num_players, "actions": list(form.action_counts)}


def convergence_report_to_dict(report):
    return {
        "form": form_to_dict(report.form),
        "seed": report.seed,
        "samples": report.samples,
        "rows": [
            {
                "n": r.n,
                "sup_gap_x": r.sup_gap_x,
                "sup_gap_full": r.sup_gap_full,
                "lemma_bound": r.lemma_bound,
            }
            for r in report.rows
        ],
    }


def convergence_report_to_json(report):
    return json.dumps(convergence_report_to_dict(report))


def convergence_report_to_csv(report):
    lines = ["n,sup_gap_x,sup_gap_full,lemma_bound"]
    for r in report.rows:
        lines.append(f"{_fmt(r.n)},{_fmt(r.sup_gap_x)},{_fmt(r.sup_gap_full)},{_fmt(r.lemma_bound)}")
    return "\n".join(lines) + "\n"


def rank_report_to_dict(report):
    return {
        "n": report.n,
        "form": form_to_dict(report.form),
        "sample_points": report.sample_points,
        "expected_rank": report.expected_rank,
        "min_singular_value": report.min_singular_value,
        "threshold": report.threshold,
        "passed": report.passed,
    }


def rank_report_to_json(report):
    return json.dumps(rank_report_to_dict(report))


def rank_report_to_csv(report):
    header = "n,sample_points,expected_rank,min_singular_value,threshold,passed"
    row = ",".join(
        [
            _fmt(report.n),
            str(report.sample_points),
            str(report.expected_rank),
            _fmt(report.min_singular_value),
            _fmt(report.threshold),
            str(report.passed).lower(),
        ]
    )
    return header + "\n" + row + "\n"
