"""The batched reconstruction kernels against a per-sample scalar reference.

The reference below is the earlier algorithm, kept here as the oracle: one
dense-Jacobian Newton solve (``np.linalg.solve``) per player and per sample,
one ``random.Random`` draw per payoff and ``y_bar`` entry, and a Python loop
over samples in the study.
"""

import random
import re

import numpy as np
import pytest
from conftest import uniform_draws

from logitgraph import (
    ConvergenceError,
    Game,
    InvalidInputError,
    KMRepresentation,
    MixedProfile,
    StrategicGameForm,
    convergence_study,
    deviation_payoffs,
    epsilon_bound,
    g_jacobian,
    g_map,
    h_exact,
    km_recompose,
    phi_inv,
    phi_n_inv,
    sample_target_points,
    softmax,
)
from logitgraph.games import _split_payoff
from logitgraph.maps import _invert_rows

FORMS = [StrategicGameForm((3,)), StrategicGameForm((3, 4)), StrategicGameForm((2, 3, 4))]
NS = [1e-2, 1.0, 10.0, 1000.0]
# Both solves stop at sup-norm residual <= 1e-12; since g_jacobian has every
# eigenvalue >= 1 their iterates differ by a few 1e-12 at most, and softmax(n*w)
# spreads that by at most n/2. Rows must agree within AGREEMENT * max(1, n).
AGREEMENT = 1e-10


def reference_h_numeric(n, y, tol=1e-12, max_iter=200):
    y = np.asarray(y, dtype=float)
    x = h_exact(y).h_value.copy() if n >= 1.0 else y - 1.0 / y.size
    r = y - g_map(n, x)
    best_x, best_res = x, float(np.abs(r).max())
    for _ in range(max_iter):
        res_inf = float(np.abs(r).max())
        if res_inf < best_res:
            best_x, best_res = x, res_inf
        if res_inf <= tol:
            return x
        step = np.linalg.solve(g_jacobian(n, x), r)
        r_norm = float(np.linalg.norm(r))
        t = 1.0
        while True:
            x_new = x + t * step
            r_new = y - g_map(n, x_new)
            if float(np.linalg.norm(r_new)) <= (1.0 - 1e-4 * t) * r_norm or t < 1e-12:
                break
            t *= 0.5
        if t < 1e-12 and float(np.linalg.norm(r_new)) >= r_norm:
            break
        x, r = x_new, r_new
    res_inf = float(np.abs(r).max())
    if res_inf <= tol:
        return x
    raise ConvergenceError("reference inversion stalled", best=best_x, residual=min(best_res, res_inf))


def reference_reconstruct(t, values, x_vectors):
    tilde_game = Game(t.form, t.tilde_u)
    bar_u = tuple(
        values[i] - deviation_payoffs(tilde_game, i, x_vectors) for i in range(t.form.num_players)
    )
    return km_recompose(KMRepresentation(tilde_u=t.tilde_u, bar_u=bar_u))


def reference_phi_inv(t):
    splits = [h_exact(b) for b in t.bar_u]
    x_vectors = tuple(s.residual for s in splits)
    game = reference_reconstruct(t, tuple(s.h_value for s in splits), x_vectors)
    return game, MixedProfile(x_vectors)


def reference_phi_n_inv(n, t):
    values = tuple(reference_h_numeric(n, b) for b in t.bar_u)
    x_vectors = tuple(softmax(n * w) for w in values)
    return reference_reconstruct(t, values, x_vectors), MixedProfile(x_vectors)


def reference_targets(form, samples, seed, bound_box):
    rng = random.Random(seed)
    points = []
    for _ in range(samples):
        tilde = tuple(
            _split_payoff(form, uniform_draws(rng, -bound_box, bound_box, form.profile_count), i)[0]
            for i in range(form.num_players)
        )
        y_bar = tuple(uniform_draws(rng, -bound_box, bound_box, m) for m in form.action_counts)
        points.append(KMRepresentation(tilde_u=tilde, bar_u=y_bar))
    return points


def reference_study_row(form, n, points):
    sup_x, sup_full = 0.0, 0.0
    for t in points:
        nash_game, nash_profile = reference_phi_inv(t)
        game, profile = reference_phi_n_inv(n, t)
        gap_x = max(float(np.abs(a - b).max()) for a, b in zip(nash_profile, profile))
        du = [a - b for a, b in zip(nash_game.payoffs, game.payoffs)]
        dx = [a - b for a, b in zip(nash_profile.vectors, profile.vectors)]
        sup_x = max(sup_x, gap_x)
        sup_full = max(sup_full, float(np.sqrt(sum(float(np.dot(v, v)) for v in du + dx))))
    return sup_x, sup_full


def max_difference(a, b):
    return max(float(np.abs(u - v).max()) for u, v in zip(a, b))


@pytest.mark.parametrize("form", FORMS, ids=str)
def test_sampling_matches_per_sample_draws(form):
    for seed, samples in ((0, 1), (7, 5), (123, 33)):
        batched = sample_target_points(form, samples, seed, 3.0)
        reference = reference_targets(form, samples, seed, 3.0)
        for a, b in zip(batched, reference):
            for u, v in zip(a.tilde_u + a.bar_u, b.tilde_u + b.bar_u):
                assert np.array_equal(u, v)


@pytest.mark.parametrize("form", FORMS, ids=str)
def test_nash_rows_equal_reference(form):
    for t in sample_target_points(form, 12, 4, 10.0):
        point = phi_inv(t)
        game, profile = reference_phi_inv(t)
        for u, v in zip(point.game.payoffs + point.profile.vectors, game.payoffs + profile.vectors):
            assert np.array_equal(u, v)


@pytest.mark.parametrize("form", FORMS, ids=str)
@pytest.mark.parametrize("n", NS)
def test_logit_rows_agree_with_reference(form, n):
    bound = AGREEMENT * max(1.0, n)
    for t in sample_target_points(form, 12, 5, 10.0):
        point = phi_n_inv(n, t)
        game, profile = reference_phi_n_inv(n, t)
        assert max_difference(point.profile.vectors, profile.vectors) <= bound
        assert max_difference(point.game.payoffs, game.payoffs) <= bound


@pytest.mark.parametrize("form", FORMS, ids=str)
def test_study_agrees_with_per_sample_loop(form):
    samples, seed = 15, 6
    report = convergence_study(form, NS, samples, seed)
    points = reference_targets(form, samples, seed, 10.0)
    for row, lemma_bound in zip(report.rows, report.lemma_bounds):
        sup_x, sup_full = reference_study_row(form, row.n, points)
        bound = AGREEMENT * max(1.0, row.n)
        assert abs(row.sup_gap_x - sup_x) <= bound
        assert abs(row.sup_gap_full - sup_full) <= bound
        assert lemma_bound == max(form.action_counts) * epsilon_bound(row.n)


def test_study_block_boundaries_do_not_change_the_report(monkeypatch):
    import logitgraph.studies as studies

    form = FORMS[2]
    whole = convergence_study(form, NS, 10, 8)
    monkeypatch.setattr(studies, "STUDY_BLOCK", 3)
    blocked = convergence_study(form, NS, 10, 8)
    for a, b in zip(whole.rows, blocked.rows):
        assert (a.sup_gap_x, a.sup_gap_full) == (b.sup_gap_x, b.sup_gap_full)


def test_row_alone_matches_row_in_batch():
    rng = np.random.default_rng(11)
    for n in NS + [1e4]:
        y = rng.uniform(-10, 10, size=(50, 4))
        x, residual, iterations = _invert_rows(n, y, 1e-12)
        for k in range(y.shape[0]):
            alone, alone_residual, alone_iterations = _invert_rows(n, y[k : k + 1], 1e-12)
            assert np.abs(alone[0] - x[k]).max() <= 1e-14
            assert abs(alone_residual[0] - residual[k]) <= 1e-14
            assert alone_iterations[0] == iterations[k]


def test_one_precision_per_row_matches_one_call_per_precision():
    rng = np.random.default_rng(12)
    y = rng.uniform(-10, 10, size=(40, 3))
    n = np.repeat(NS + [1e6], 8)
    x, residual, iterations = _invert_rows(n, y, 1e-12)
    for value in set(n):
        rows = n == value
        alone = _invert_rows(value, y[rows], 1e-12)
        assert all(np.array_equal(a, b[rows]) for a, b in zip(alone, (x, residual, iterations)))


def test_study_failure_names_the_first_failing_precision():
    form = StrategicGameForm((2, 3))
    with pytest.raises(ConvergenceError) as alone:
        convergence_study(form, [1e6], 20, 0)
    with pytest.raises(ConvergenceError) as info:
        convergence_study(form, [1.0, 1e6, 1e7], 20, 0)
    assert str(info.value) == str(alone.value)


def test_study_profile_check_at_an_earlier_precision_raises_first(monkeypatch):
    import logitgraph.studies as studies

    checks, check_rows = [], studies._check_rows

    def failing_second(payoffs, vectors, first=0):  # the first is the Nash check
        checks.append(first)
        if len(checks) == 2:
            raise InvalidInputError("profile check at n = 1")
        check_rows(payoffs, vectors, first)

    monkeypatch.setattr(studies, "_check_rows", failing_second)
    with pytest.raises(InvalidInputError, match="profile check at n = 1"):
        convergence_study(StrategicGameForm((2, 3)), [1.0, 1e6], 20, 0)


def test_study_failure_names_a_failing_sample():
    form = StrategicGameForm((2, 3))
    with pytest.raises(ConvergenceError) as info:
        convergence_study(form, [1e6], 20, 0)
    err = info.value
    match = re.search(r"seed=0, sample=(\d+), n=1000000\.0", str(err))
    assert match, str(err)
    assert err.best is not None and err.residual > 1e-12 and err.iterations == 7
    target = sample_target_points(form, 20, 0, 10.0)[int(match.group(1))]
    with pytest.raises(ConvergenceError):
        phi_n_inv(1e6, target)
    with pytest.raises(ConvergenceError):
        reference_phi_n_inv(1e6, target)
