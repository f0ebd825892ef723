"""File formats: game and target JSON in and out, and ``render`` for every result record.

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
from .games import Game, KMRepresentation, StrategicGameForm, _split_payoff


def _load_json(data):
    if isinstance(data, (bytes, bytearray)):
        try:
            data = bytes(data).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from exc
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integer literals past the
        # interpreter's digit limit; RecursionError, nesting too deep to parse
        raise ParseError(f"invalid JSON: {exc}") from exc


def _require_number_list(values, path):
    if not isinstance(values, list):
        raise ParseError(f"{path}: expected a list")
    out = []
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ParseError(f"{path}[{i}]: expected a number, got {type(v).__name__}")
        try:
            value = float(v)
        except OverflowError as exc:
            raise ParseError(f"{path}[{i}]: integer too large for a double") from exc
        if not math.isfinite(value):
            raise ParseError(f"{path}[{i}]: entry must be finite, got {v}")
        out.append(value)
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
    form = StrategicGameForm(tuple(actions))
    size = form.profile_count
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
    return Game(form, tuple(payoffs))


def game_to_dict(game):
    return {**_form_dict(game.form), "payoffs": _vectors(game.payoffs)}


def game_to_json(game):
    return json.dumps(game_to_dict(game))


def parse_target_point(data, project_tilde=False):
    """Parse a target document into a KMRepresentation, ``y_bar`` as its ``bar_u``.

    Residual means up to 1e-6 times ``max(1, max|tilde_u[i]|)`` are treated as
    serialization noise and removed; larger means are rejected unless
    ``project_tilde`` is set, in which case they are removed too.
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
    form = StrategicGameForm(tuple(v.size for v in y_bar))
    size = form.profile_count
    tilde = []
    for i, row in enumerate(obj["tilde_u"]):
        flat = _require_number_list(row, f"tilde_u[{i}]")
        if flat.size != size:
            raise ParseError(f"tilde_u[{i}]: length {flat.size} != expected {size}")
        zero_mean, means = _split_payoff(form, flat, i)
        worst, tol = float(np.abs(means).max()), 1e-6 * max(1.0, float(np.abs(flat).max()))
        if worst > tol and not project_tilde:
            raise ParseError(
                f"tilde_u[{i}]: opponent means up to {worst:.3e} exceed {tol:g} "
                "(pass project_tilde to remove them)"
            )
        tilde.append(zero_mean)
    return KMRepresentation(tilde_u=tuple(tilde), bar_u=tuple(y_bar))


def target_point_to_json(t):
    return json.dumps({"tilde_u": _vectors(t.tilde_u), "y_bar": _vectors(t.bar_u)})


def trace_to_dict(trace):
    return {
        "game": game_to_dict(trace.game),
        "entries": [_entry_dict(e) for e in trace.entries],
        "terminal_nash_residual": trace.terminal_nash_residual,
    }


def _form_dict(form):
    return {"players": form.num_players, "actions": list(form.action_counts)}


def _vectors(vectors):
    return [v.tolist() for v in vectors]


def _split_rows(rep):
    for i, (tilde, bar) in enumerate(zip(rep.tilde_u, rep.bar_u)):
        for component, values in (("tilde_u", tilde), ("bar_u", bar)):
            for idx, value in enumerate(values):
                yield i, component, idx, value


def _entry_dict(e):
    return {"n": e.n, "x": _vectors(e.profile.vectors), "residual": e.residual}


def _entry_rows(e):
    for player, vector in enumerate(e.profile.vectors):
        for action, probability in enumerate(vector):
            yield e.n, player, action, probability, e.residual


def _point_dict(point):
    out = {
        "game": game_to_dict(point.game),
        "x": _vectors(point.profile.vectors),
        "kind": point.kind,
        "residual": point.residual,
    }
    if point.n is not None:
        out["n"] = point.n
    return out


def _point_rows(point):
    for section, vectors in (("payoff", point.game.payoffs), ("probability", point.profile.vectors)):
        for player, vector in enumerate(vectors):
            for idx, value in enumerate(vector):
                yield section, player, idx, value
    yield "residual", "", "", point.residual


def _study_rows(report):  # each row's fields, then the bound the report derived for it
    return [{**r._asdict(), "lemma_bound": b} for r, b in zip(report.rows, report.lemma_bounds)]


def _study_dict(report):
    return {
        "form": _form_dict(report.form),
        "seed": report.seed,
        "samples": report.samples,
        "rows": _study_rows(report),
    }


def _rank_dict(report):
    names = ("n", "form", "sample_points", "expected_rank", "min_singular_value", "threshold", "passed")
    return {**{name: getattr(report, name) for name in names}, "form": _form_dict(report.form)}


# record class name -> (JSON dict builder, CSV row generator, CSV header); keyed
# by name so that rendering a record does not import the layers of the others
_RECORDS = {
    "KMRepresentation": (
        lambda rep: {"tilde_u": _vectors(rep.tilde_u), "bar_u": _vectors(rep.bar_u)},
        _split_rows,
        "player,component,index,value",
    ),
    "PathEntry": (_entry_dict, _entry_rows, "n,player,action,probability,residual"),
    "PathTrace": (
        trace_to_dict,
        lambda trace: (row for e in trace.entries for row in _entry_rows(e)),
        "n,player,action,probability,residual",
    ),
    "GraphPoint": (_point_dict, _point_rows, "section,player,index,value"),
    "ConvergenceReport": (
        _study_dict,
        lambda report: (r.values() for r in _study_rows(report)),
        "n,sup_gap_x,sup_gap_full,lemma_bound",
    ),
    "RankReport": (
        _rank_dict,
        lambda report: [tuple(v for k, v in _rank_dict(report).items() if k != "form")],
        "n,sample_points,expected_rank,min_singular_value,threshold,passed",
    ),
}


def _cell(value):
    """CSV cell: floats in 17 significant digits, so they re-read to the same double."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, str)):
        return str(value)
    return format(float(value), ".17g")


def render(record, fmt):
    """``record`` as one JSON line (``fmt="json"``) or as CSV, header first (``fmt="csv"``).

    Records: ``KMRepresentation``, ``PathEntry``, ``PathTrace``, ``GraphPoint``,
    ``ConvergenceReport`` and ``RankReport``. The text ends with a newline.
    """
    if fmt not in ("json", "csv"):
        raise ValueError(f"format must be 'json' or 'csv', got {fmt!r}")
    to_dict, rows, header = _RECORDS[type(record).__name__]
    if fmt == "json":
        return json.dumps(to_dict(record)) + "\n"
    return "\n".join([header] + [",".join(map(_cell, row)) for row in rows(record)]) + "\n"
