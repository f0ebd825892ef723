"""Tests of the benchmark itself: checker, spans and corpus.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.
"""

import json
import os
import statistics

import numpy as np
import pytest

import checker
import corpus
import layers
import run

PENNIES = corpus.DEMO_GAMES["matching_pennies"]


def _write(tmp_path, name, document):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(document))
    return str(path)


def _solve_output(x, n=10.0):
    return json.dumps({"n": n, "x": x, "residual": 0.0})


def test_checker_accepts_exact_solution_and_rejects_perturbed_profiles(tmp_path):
    game = _write(tmp_path, "pennies", PENNIES)
    spec = {"kind": "solve", "game": game, "n": 10.0}
    assert checker.check(spec, _solve_output([[0.5, 0.5], [0.5, 0.5]])) is None
    # still on the simplex, but no longer a logit equilibrium
    assert "logit gap" in checker.check(spec, _solve_output([[0.5 + 1e-6, 0.5 - 1e-6], [0.5, 0.5]]))
    assert "off the simplex" in checker.check(spec, _solve_output([[0.6, 0.5], [0.5, 0.5]]))
    assert "terminal n" in checker.check(spec, _solve_output([[0.5, 0.5], [0.5, 0.5]], n=9.0))

    trace = {"kind": "trace", "game": game, "n": 400.0}
    entry = {"n": 400.0, "x": [[0.5, 0.5], [0.5, 0.5]], "residual": 0.0}
    out = {"game": PENNIES, "entries": [entry], "terminal_nash_residual": 0.0}
    assert checker.check(trace, json.dumps(out)) is None
    entry["x"] = [[0.5, 0.5], [0.5 - 1e-7, 0.5 + 1e-7]]
    assert "logit gap" in checker.check(trace, json.dumps(out))


def _study_output(spec, gaps):
    rows = [
        {"n": n, "sup_gap_x": g, "sup_gap_full": g, "lemma_bound": 1.0}
        for n, g in zip(spec["n_list"], gaps)
    ]
    form = {"players": len(spec["shape"]), "actions": spec["shape"]}
    return json.dumps({"form": form, "seed": spec["seed"], "samples": spec["samples"], "rows": rows})


def test_checker_rejects_study_row_above_the_bound():
    spec = {"kind": "study", "shape": [3, 3, 3], "n_list": [1.0, 10.0, 100.0, 1000.0],
            "samples": 5, "seed": 7}
    bounds = [3 * checker.epsilon_star(n) for n in spec["n_list"]]
    assert checker.check(spec, _study_output(spec, [0.5 * b for b in bounds])) is None
    above = [0.5 * b for b in bounds]
    above[2] = bounds[2] * (1 + 1e-9)
    assert "sup_gap_x" in checker.check(spec, _study_output(spec, above))
    assert "one per n" in checker.check(spec, _study_output(spec, bounds[:3]))


def test_epsilon_star_solves_its_equation():
    for n in (0.5, 1.0, 10.0, 100.0, 1000.0):
        eps = checker.epsilon_star(n)
        assert abs(eps * (1.0 + np.exp(eps * n)) - 1.0) < 1e-12


def test_checker_round_trips_an_invert_logit_output(tmp_path):
    rng = np.random.default_rng(3)
    shape = (2, 3)
    target = corpus.random_target(rng, shape)
    path = _write(tmp_path, "target", target)
    spec = {"kind": "invert-logit", "target": path, "n": 100.0}
    code, out, err, _ = run.run_process(
        run.cli_argv(corpus.Op(0, "invert-logit", ("--format", "json", "invert-logit",
                                                   "--n", "100.0", path), spec)),
        run.child_env(), 60,
    )
    assert code == 0, err
    assert checker.check(spec, out) is None
    document = json.loads(out)
    document["game"]["payoffs"][1][0] += 1e-6
    assert "misses" in checker.check(spec, json.dumps(document))


def test_verify_check_needs_every_line_to_pass():
    spec = {"kind": "verify"}
    assert checker.check(spec, "PASS a: ok\nPASS b: ok\n") is None
    assert "not a PASS line" in checker.check(spec, "PASS a: ok\nFAIL b: off\n")


def test_span_self_times_add_up_to_the_op_wall_time(tmp_path):
    env = run.child_env()
    game = _write(tmp_path, "pennies", PENNIES)
    spans_path = str(tmp_path / "spans.npz")
    op = corpus.Op(5, "trace", ("--format", "json", "trace", "--n-final", "50.0", game),
                   {"kind": "trace", "game": game, "n": 50.0})
    argv = [run.sys.executable, run.SHIM, spans_path, "5", *op.args]
    run.execute(op, env, 60, argv)  # compile caches before timing
    outcome = run.execute(op, env, 60, argv)
    assert outcome.error is None, outcome.error
    spans = layers.load(spans_path)
    names = [str(n) for n in spans["names"]]
    roots = spans["parent"] < 0
    assert [names[i] for i in spans["name"][roots]] == ["cli.run_cli"]
    assert set(spans["op"]) == {5}
    own = layers.self_times(spans)
    root_time = float((spans["end"] - spans["start"])[roots].sum())
    assert np.all(own >= -1e-9)
    assert abs(own.sum() - root_time) < 1e-9
    # the rest of the process wall time is start-up and the tracer's own cost
    setup = statistics.median(run.probe(env)[1] for _ in range(3))
    assert 0 < outcome.seconds - own.sum() < 3 * setup + 0.2

    summary = layers.Summary()
    summary.add(spans)
    metrics = summary.metrics()
    assert metrics["solver.trace_logit_path.calls"][0] == 1
    assert metrics["solver.entries_per_trace"][0] == len(json.loads(
        run.run_process(run.cli_argv(op), env, 60)[1])["entries"])
    assert metrics["games.deviation_payoffs.calls"][0] > 0
    total = sum(metrics[f"layer.{layer}.self_s"][0] for layer in layers.LAYERS)
    assert abs(total - own.sum()) < 1e-9


def _corpus_files(workload, seed, workdir, rounds=3):
    source = corpus.Corpus(workload, seed, str(workdir)).rounds()
    ops = [op for _ in range(rounds) for op in next(source)]
    files = {name: (workdir / name).read_bytes() for name in sorted(os.listdir(workdir))}
    args = [tuple(a.replace(str(workdir), "") for a in op.args) for op in ops]
    return args, files


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_repeats_for_a_seed_and_changes_with_it(tmp_path, workload):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = _corpus_files(workload, 11, dirs[0])
    assert _corpus_files(workload, 11, dirs[1]) == first
    other = _corpus_files(workload, 12, dirs[2])
    assert other != first
    assert set(other[1]) == set(first[1])  # same inputs by name, drawn differently


def test_fixed_members_match_the_demos_and_the_fold_reproducer():
    demos = os.path.join(run.ROOT, "demos", "games")
    for name, document in corpus.DEMO_GAMES.items():
        path = os.path.join(demos, f"{name}.json")
        if os.path.exists(path):
            with open(path) as handle:
                assert json.load(handle) == document
    rng = np.random.default_rng(1)
    expected = [rng.uniform(-1, 1, 64).tolist() for _ in range(3)]
    assert corpus.fold_game(1)["payoffs"] == expected


def test_tail_has_ten_samples_beyond_it():
    values = list(range(100))
    value, percentile, samples = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert (percentile, samples) == (90.0, 100)
    # too few samples for a tail: fall back to the median
    assert run.tail([3.0, 1.0, 2.0])[0] == 2.0


def test_zero_sum_game_payoffs_cancel_at_every_profile():
    rng = np.random.default_rng(3)
    for shape in corpus.TRACE_SHAPES:
        game = corpus.zero_sum_game(rng, shape)
        payoffs = np.array(game["payoffs"])
        assert payoffs.shape == (len(shape), int(np.prod(shape)))
        assert np.abs(payoffs.sum(axis=0)).max() < 1e-12
        assert np.abs(payoffs).max() <= 1.0
