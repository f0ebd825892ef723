"""The behaviour every result record shares: construction, defaults, immutability, repr and equality.

Each of the library's 13 records is built once by position and once by
keyword from the same values. Three records compare by value (``StrategicGameForm``,
``ReportRow`` and ``CheckResult``); the other ten compare by identity. The
``render`` bytes of the two study reports are pinned here, since no golden
file holds a ``RankReport``.
"""

import numpy as np
import pytest
from conftest import matching_pennies

from logitgraph import (
    CheckResult,
    ConvergenceReport,
    Game,
    GraphPoint,
    InvalidInputError,
    KMRepresentation,
    MixedProfile,
    PathEntry,
    PathTrace,
    RankReport,
    ReportRow,
    SimplexProjection,
    StrategicGameForm,
    alpha_star,
    h_exact,
    km_decompose,
    parse_target_point,
    trace_logit_path,
)
from logitgraph.io import render

FORM = StrategicGameForm((2, 2))
UNIFORM = (np.array([0.5, 0.5]), np.array([0.5, 0.5]))


def _km():
    return km_decompose(matching_pennies())


def _target():
    return parse_target_point('{"tilde_u": [[0, 0]], "y_bar": [[1.5, 0.5]]}')


def _trace():
    return trace_logit_path(matching_pennies(), 2.0)


def _rows():
    return (ReportRow(1.0, 0.125, 0.25), ReportRow(10.0, 0.1, 0.2))


# record -> (its fields in order, a function returning valid values for them)
RECORDS = {
    StrategicGameForm: (("action_counts",), lambda: ((2, 2),)),
    Game: (("form", "payoffs"), lambda: (FORM, matching_pennies().payoffs)),
    MixedProfile: (("vectors",), lambda: (UNIFORM,)),
    KMRepresentation: (("tilde_u", "bar_u"), lambda: (_km().tilde_u, _km().bar_u)),
    SimplexProjection: (("h_value", "residual"), lambda: (np.array([0.5, 0.2]), np.array([0.5, 0.0]))),
    GraphPoint: (("game", "profile", "n"), lambda: (matching_pennies(), MixedProfile(UNIFORM), 3.0)),
    PathEntry: (("n", "profile", "residual"), lambda: (2.0, MixedProfile(UNIFORM), 0.0)),
    PathTrace: (("entries", "game"), lambda: (_trace().entries, _trace().game)),
    ReportRow: (("n", "sup_gap_x", "sup_gap_full"), lambda: (1.0, 0.125, 0.25)),
    ConvergenceReport: (("form", "seed", "samples", "rows"), lambda: (FORM, 3, 5, _rows())),
    RankReport: (
        ("n", "form", "sample_points", "min_singular_value"),
        lambda: (2.0, StrategicGameForm((2,)), 2, 0.5),
    ),
    CheckResult: (("name", "passed", "detail"), lambda: ("water-filling", True, "ok")),
}
BY_VALUE = {StrategicGameForm, ReportRow, CheckResult}
IDS = [cls.__name__ for cls in RECORDS]


def _same(a, b):
    """Equal values: records field by field, tuples entry by entry, arrays elementwise."""
    if type(a) in RECORDS:
        return type(a) is type(b) and all(_same(getattr(a, f), getattr(b, f)) for f in RECORDS[type(a)][0])
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
class TestConstruction:
    def test_positional_and_keyword_agree(self, cls):
        fields, values = RECORDS[cls]
        by_position = cls(*values())
        by_keyword = cls(**dict(zip(fields, values())))
        assert _same(by_position, by_keyword)
        mixed = cls(*values()[:1], **dict(zip(fields[1:], values()[1:])))
        assert _same(by_position, mixed)

    def test_fields_read_back_in_order(self, cls):
        fields, values = RECORDS[cls]
        record = cls(*values())
        assert tuple(cls.__annotations__) == fields
        for name, value in zip(fields, values()):
            assert _same(getattr(record, name), value)

    def test_missing_field_raises_type_error(self, cls):
        fields, values = RECORDS[cls]
        with pytest.raises(TypeError):
            cls(**dict(zip(fields[1:], values()[1:])))
        with pytest.raises(TypeError):
            cls()

    def test_unknown_repeated_or_extra_field_raises_type_error(self, cls):
        fields, values = RECORDS[cls]
        with pytest.raises(TypeError):
            cls(*values(), no_such_field=1)
        with pytest.raises(TypeError):
            cls(*values(), **{fields[0]: values()[0]})
        with pytest.raises(TypeError):
            cls(*values(), None)

    def test_assignment_and_deletion_raise_attribute_error(self, cls):
        fields, values = RECORDS[cls]
        record = cls(*values())
        for name in (fields[0], fields[-1], "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, values()[0])
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert _same(record, cls(*values()))

    def test_equality(self, cls):
        values = RECORDS[cls][1]
        a, b = cls(*values()), cls(*values())
        assert a == a and hash(a) == hash(a)
        if cls in BY_VALUE:
            assert a == b and hash(a) == hash(b) and not a != b
            assert hash(a) == hash(values())
        else:
            assert a != b and not a == b
            assert len({a, b}) == 2
        assert a != values() and a != object()


class TestDefaults:
    def test_graph_point_n_defaults_to_none(self):
        point = GraphPoint(matching_pennies(), MixedProfile(UNIFORM))
        assert point.n is None and GraphPoint.n is None
        assert GraphPoint(game=point.game, profile=point.profile).n is None

    def test_rank_report_threshold_defaults(self):
        report = RankReport(2.0, StrategicGameForm((2,)), 2, 0.5)
        assert report.threshold == 1e-6 and RankReport.threshold == 1e-6
        assert report.passed
        assert not RankReport(2.0, StrategicGameForm((2,)), 2, 1e-7).passed


class TestDerivedFacts:
    """The facts a record's own fields fix are read off them, so no argument can contradict them."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: GraphPoint(matching_pennies(), MixedProfile(UNIFORM), kind="nash"),
            lambda: GraphPoint(matching_pennies(), MixedProfile(UNIFORM), residual=0.0),
            lambda: PathTrace(_trace().entries, _trace().game, terminal_nash_residual=0.0),
            lambda: ReportRow(1.0, 0.125, 0.25, lemma_bound=0.5),
            lambda: RankReport(2.0, FORM, 2, 0.5, expected_rank=8),
            lambda: RankReport(2.0, FORM, 2, 0.5, threshold=1e-3),
            lambda: StrategicGameForm(2, (2, 2)),
            lambda: StrategicGameForm((2, 2), num_players=2),
            lambda: KMRepresentation(FORM, _km().tilde_u, _km().bar_u),
            lambda: SimplexProjection(0.5, np.array([0.5, 0.2]), np.array([0.5, 0.0])),
        ],
        ids=[
            "point-kind", "point-residual", "trace-terminal", "row-bound", "rank-expected",
            "rank-threshold", "form-players", "form-players-keyword", "km-form",
            "projection-level",
        ],
    )
    def test_derived_names_are_not_arguments(self, build):
        with pytest.raises(TypeError):
            build()

    def test_derived_values_read_back_outside_the_fields(self):
        form, km, target, split = StrategicGameForm((2, 3)), _km(), _target(), h_exact([1.5, 0.2, 0.5])
        assert form.num_players == 2 and km.form == FORM and target.form == StrategicGameForm((2,))
        assert split.alpha_star == alpha_star([1.5, 0.2, 0.5]) == 0.5
        for record, name in ((form, "num_players"), (km, "form"), (target, "form"), (split, "alpha_star")):
            assert name not in record._asdict() and f"{name}=" not in repr(record)


class TestValueEquality:
    def test_distinct_values_differ(self):
        assert StrategicGameForm((2, 3)) != StrategicGameForm((3, 2))
        assert ReportRow(1.0, 0.1, 0.2) != ReportRow(1.0, 0.1, 0.3)
        assert CheckResult("a", True, "") != CheckResult("a", False, "")

    def test_post_init_normalizes_before_comparing(self):
        assert StrategicGameForm([2, np.int64(2)]) == StrategicGameForm((2, 2))
        assert hash(StrategicGameForm([2, 2])) == hash(((2, 2),))

    def test_usable_as_keys(self):
        table = {StrategicGameForm((2, 2)): "a", CheckResult("x", True, "d"): "b"}
        assert table[StrategicGameForm((2, 2))] == "a"
        assert table[CheckResult("x", True, "d")] == "b"


class TestRepr:
    @pytest.mark.parametrize(
        "record, text",
        [
            (StrategicGameForm((2, 3)), "StrategicGameForm(action_counts=(2, 3))"),
            (
                ReportRow(1.0, 0.125, 0.25),
                "ReportRow(n=1.0, sup_gap_x=0.125, sup_gap_full=0.25)",
            ),
            (
                CheckResult("water-filling", True, "ok"),
                "CheckResult(name='water-filling', passed=True, detail='ok')",
            ),
            (
                RankReport(2.0, StrategicGameForm((2,)), 2, 0.5),
                "RankReport(n=2.0, form=StrategicGameForm(action_counts=(2,)), "
                "sample_points=2, min_singular_value=0.5)",
            ),
            (
                ConvergenceReport(FORM, 3, 5, [ReportRow(1.0, 0.125, 0.25)]),
                "ConvergenceReport(form=StrategicGameForm(action_counts=(2, 2)), "
                "seed=3, samples=5, rows=(ReportRow(n=1.0, sup_gap_x=0.125, sup_gap_full=0.25),))",
            ),
        ],
        ids=lambda v: type(v).__name__ if not isinstance(v, str) else None,
    )
    def test_repr(self, record, text):
        assert repr(record) == text


class TestPostInitChecks:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: StrategicGameForm(()),
            lambda: StrategicGameForm((2, 0)),
            lambda: Game(FORM, matching_pennies().payoffs[:1]),
            lambda: Game(FORM, (np.array([1.0, np.inf, 0.0, 0.0]), np.zeros(4))),
            lambda: MixedProfile((np.array([0.5, 0.6]),)),
            lambda: KMRepresentation((np.ones(4), np.zeros(4)), _km().bar_u),
            lambda: GraphPoint(matching_pennies(), MixedProfile(UNIFORM), -3.0),
            lambda: PathTrace((PathEntry(2.0, MixedProfile(UNIFORM), 0.5),), matching_pennies()),
            lambda: ConvergenceReport(FORM, 3, 5, _rows()[::-1]),
            lambda: ConvergenceReport(FORM, 3, 5, (ReportRow(1.0, 0.9, 0.25),)),
            lambda: ConvergenceReport(FORM, 3, 5, (ReportRow(1.0, np.nan, 0.25),)),
            lambda: ConvergenceReport(FORM, 3, 5, (ReportRow(1.0, 0.125, np.nan),)),
        ],
        ids=[
            "form-players", "form-counts", "game-tensors", "game-finite", "profile-sum",
            "km-zero-mean", "point-n", "trace-residual",
            "report-order", "report-bound", "report-nan-gap-x", "report-nan-gap-full",
        ],
    )
    def test_invalid_values_raise(self, build):
        with pytest.raises(InvalidInputError):
            build()


class TestRenderBytes:
    def test_convergence_report(self):
        report = ConvergenceReport(FORM, 3, 5, _rows())
        assert render(report, "json") == (
            '{"form": {"players": 2, "actions": [2, 2]}, "seed": 3, "samples": 5, "rows": ['
            '{"n": 1.0, "sup_gap_x": 0.125, "sup_gap_full": 0.25, "lemma_bound": 0.802116275083094}, '
            '{"n": 10.0, "sup_gap_x": 0.1, "sup_gap_full": 0.2, "lemma_bound": 0.3267012340311693}]}\n'
        )
        assert render(report, "csv") == (
            "n,sup_gap_x,sup_gap_full,lemma_bound\n"
            "1,0.125,0.25,0.80211627508309402\n"
            "10,0.10000000000000001,0.20000000000000001,0.3267012340311693\n"
        )

    @pytest.mark.parametrize(
        "value, passed", [(0.5, "true"), (1e-7, "false")], ids=["passes", "fails"]
    )
    def test_rank_report(self, value, passed):
        report = RankReport(2.0, StrategicGameForm((2,)), 4, value)
        assert render(report, "json") == (
            '{"n": 2.0, "form": {"players": 1, "actions": [2]}, "sample_points": 4, '
            f'"expected_rank": 2, "min_singular_value": {value!r}, "threshold": 1e-06, '
            f'"passed": {passed}}}\n'
        )
        assert render(report, "csv") == (
            "n,sample_points,expected_rank,min_singular_value,threshold,passed\n"
            f"2,4,2,{format(value, '.17g')},9.9999999999999995e-07,{passed}\n"
        )
