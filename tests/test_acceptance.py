"""Acceptance suite: every criterion at its stated sample count and tolerance.

Each test prints one ``[criterion N] PASS/FAIL`` line (visible with ``-s`` or
in captured output on failure) and asserts the same condition.
"""

import numpy as np
import pytest

from logitgraph import (
    Game,
    MixedProfile,
    StrategicGameForm,
    epsilon_bound,
    g_jacobian,
    g_map,
    h_exact,
    h_numeric,
    is_cl_matrix,
    logit_residual,
    nash_residual,
    phi,
    phi_inv,
    phi_n_inv,
    sample_target_points,
    solve_newton,
    convergence_study,
    immersion_rank_check,
    trace_logit_path,
)
from conftest import matching_pennies, one_player_game, solve_fixed_point

ROUND_TRIP_FORMS = [
    StrategicGameForm((2,)),
    StrategicGameForm((2, 2)),
    StrategicGameForm((3, 2)),
    StrategicGameForm((2, 2, 2)),
]


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {name}{suffix}")
    assert passed, f"criterion {number} failed: {name}{suffix}"


def test_criterion_1_sum_identity_and_column_sums():
    rng = np.random.default_rng(1001)
    worst_sum, worst_col = 0.0, 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        n = float(10.0 ** rng.uniform(-3, 3))
        v = rng.uniform(-10.0, 10.0, size=d)
        worst_sum = max(worst_sum, abs(g_map(n, v).sum() - 1.0 - v.sum()))
        cols = g_jacobian(n, v).sum(axis=0)
        worst_col = max(worst_col, float(np.abs(cols - 1.0).max()))
    report(
        1,
        "coordinate-sum identity and Jacobian column sums within 1e-12",
        worst_sum <= 1e-12 and worst_col <= 1e-12,
        f"sum defect {worst_sum:.2e}, column defect {worst_col:.2e}",
    )


def test_criterion_2_cl_matrix_certificate():
    rng = np.random.default_rng(1002)
    certified = 0
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        n = float(10.0 ** rng.uniform(-3, 3))
        # box scaled with n so exp(n * spread) stays above double underflow,
        # keeping the strict sign pattern representable
        radius = min(3.0, 150.0 / n)
        v = rng.uniform(-radius, radius, size=d)
        certified += bool(is_cl_matrix(g_jacobian(n, v)))
    report(2, "all 1000 Jacobians are CL matrices", certified == 1000, f"{certified}/1000")


def test_criterion_3_inverse_round_trip():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(1, 9))
        n = float(10.0 ** rng.uniform(-2, 2))
        v = rng.uniform(-5.0, 5.0, size=d)
        x = h_numeric(n, g_map(n, v), tol=1e-12)
        worst = max(worst, float(np.abs(x - v).max()))
    report(3, "numeric inverse round trip within 1e-9", worst <= 1e-9, f"max error {worst:.2e}")


def test_criterion_4_uniform_limit_bound():
    rng = np.random.default_rng(1004)
    eps0 = epsilon_bound(0)
    ok = abs(eps0 - 0.5) <= 1e-12
    worst_ratio = 0.0
    for n in (1.0, 10.0, 100.0, 1000.0):
        eps = epsilon_bound(n)
        for _ in range(500):
            d = int(rng.integers(1, 9))
            y = rng.uniform(-10.0, 10.0, size=d)
            gap = float(np.abs(h_numeric(n, y, tol=1e-12) - h_exact(y).h_value).max())
            ceiling = d * eps * (1.0 + 1e-6)
            worst_ratio = max(worst_ratio, gap / ceiling)
            ok = ok and gap <= ceiling
    report(
        4,
        "limit-map distance within d*eps*(n) at n in {1,10,100,1000}; eps*(0)=0.5",
        ok,
        f"worst gap/bound ratio {worst_ratio:.3f}",
    )


def test_criterion_5_graph_round_trips():
    ok = True
    worst = 0.0
    for form in ROUND_TRIP_FORMS:
        points = sample_target_points(form, 200, seed=505, bound_box=10.0)
        for index, t in enumerate(points):
            nash_point = phi_inv(t)
            ok = ok and nash_residual(nash_point.game, nash_point.profile) <= 1e-9
            back = phi(nash_point)
            defect = max(
                max(float(np.abs(a - b).max()) for a, b in zip(t.tilde_u, back.tilde_u)),
                max(float(np.abs(a - b).max()) for a, b in zip(t.bar_u, back.bar_u)),
            )
            worst = max(worst, defect)
            ok = ok and defect <= 1e-9

            n = 1.0 if index % 2 == 0 else 10.0
            logit_point = phi_n_inv(n, t, tol=1e-12)
            ok = ok and logit_residual(logit_point.game, logit_point.profile, n) <= 1e-9
            ok = ok and min(v.min() for v in logit_point.profile.vectors) > 0.0
            back_n = phi(logit_point)
            defect = max(
                max(float(np.abs(a - b).max()) for a, b in zip(t.tilde_u, back_n.tilde_u)),
                max(float(np.abs(a - b).max()) for a, b in zip(t.bar_u, back_n.bar_u)),
            )
            worst = max(worst, defect)
            ok = ok and defect <= 1e-9
    report(
        5,
        "graph round trips within 1e-9 with verified membership and positivity",
        ok,
        f"max round-trip defect {worst:.2e}",
    )


def test_criterion_6_uniform_approximation_certificate():
    form = StrategicGameForm((2, 2))
    study = convergence_study(form, [1.0, 10.0, 100.0, 1000.0], samples=100, seed=42)
    bound_ok = all(r.sup_gap_x <= b * (1.0 + 1e-6) for r, b in zip(study.rows, study.lemma_bounds))
    fulls = [r.sup_gap_full for r in study.rows]
    trend_ok = all(b <= a * 1.05 for a, b in zip(fulls, fulls[1:]))
    detail = "; ".join(
        f"n={r.n:g}: gap_x={r.sup_gap_x:.3e}<=bound={b:.3e}, full={r.sup_gap_full:.3e}"
        for r, b in zip(study.rows, study.lemma_bounds)
    )
    report(6, "profile gaps respect the bound and full gaps shrink", bound_ok and trend_ok, detail)


def test_criterion_7_immersion_rank_certificate():
    ok = True
    details = []
    for form in (StrategicGameForm((2,)), StrategicGameForm((2, 2))):
        for n in (1.0, 10.0):
            rep = immersion_rank_check(n, form, sample_points=5, seed=0)
            ok = ok and rep.passed
            ok = ok and rep.expected_rank == form.payoff_coordinate_count
            details.append(f"{form.action_counts}@n={n:g}: sv={rep.min_singular_value:.2e}")
    report(7, "reconstruction derivative has full rank (min sv > 1e-6)", ok, "; ".join(details))


def test_criterion_8_limit_to_nash():
    rng = np.random.default_rng(808)
    form = StrategicGameForm((2, 2))
    residuals_ok = True
    improved = 0
    worst = 0.0
    for _ in range(50):
        game = Game(form, tuple(rng.uniform(-1.0, 1.0, size=4) for _ in range(2)))
        # solve tight enough that mixed-limit residuals saturate below 1e-12
        # instead of at the corrector noise floor
        short = trace_logit_path(game, 400.0, tol=1e-12).terminal_nash_residual
        long = trace_logit_path(game, 800.0, tol=1e-12).terminal_nash_residual
        worst = max(worst, short)
        residuals_ok = residuals_ok and short <= 1e-2
        improved += bool(long < short or long <= 1e-12)
    report(
        8,
        "terminal Nash residual <= 1e-2 at n=400 and doubling helps in >= 95%",
        residuals_ok and improved >= 48,
        f"worst residual {worst:.2e}, improved {improved}/50",
    )


def test_criterion_9_closed_forms():
    e = np.e
    one = one_player_game([1.0, 0.0])
    expected = np.array([e / (1.0 + e), 1.0 / (1.0 + e)])
    newton = solve_newton(1.0, one, MixedProfile.uniform(one.form), tol=1e-13)
    damped = solve_fixed_point(1.0, one, MixedProfile.uniform(one.form), damping=1.0, tol=1e-13)
    defect = max(
        float(np.abs(newton.vectors[0] - expected).max()),
        float(np.abs(damped.vectors[0] - expected).max()),
    )
    pennies = matching_pennies()
    for n in (1.0, 10.0, 100.0):
        solved = solve_newton(n, pennies, MixedProfile.uniform(pennies.form), tol=1e-13)
        defect = max(defect, max(float(np.abs(v - 0.5).max()) for v in solved.vectors))
    trace = trace_logit_path(pennies, 100.0, tol=1e-12)
    for entry in trace.entries:
        defect = max(defect, max(float(np.abs(v - 0.5).max()) for v in entry.profile.vectors))
    report(
        9,
        "closed-form solutions match within 1e-12",
        defect <= 1e-12,
        f"max defect {defect:.2e}",
    )
