"""The property suite's batched map checks against their per-sample loops.

The references below are the earlier loop bodies, kept here as the oracle:
one ``g_map``, ``h_exact`` or ``h_numeric`` call, or one Jacobian and CL test,
per drawn sample, in draw order, returning at the first failing sample. They
draw every value on its own from ``random.Random(seed)``: the vector widths
first, then each ``n``, then each vector. The suite draws the same values in
one call per kind and evaluates each vector width in one batch, so every check
must return the same result, name the same failing sample and raise the same
ConvergenceError as its reference. ``g_jacobian`` and ``is_cl_matrix``
share their row kernels with the suite, so the Jacobian and the CL test are
written out here, as a second implementation.
"""

import random

import numpy as np
import pytest
from conftest import uniform_draws

import logitgraph.maps as maps
import logitgraph.verification as verification
from logitgraph import ConvergenceError, run_property_suite
from logitgraph.games import softmax
from logitgraph.verification import CheckResult


def reference_widths(rng, count):
    return [rng.randrange(1, 9) for _ in range(count)]


def reference_sample_nv(rng, scale_box_to_n=False, samples=150, decades=3, box=10.0):
    widths = reference_widths(rng, samples)
    ns = [10.0 ** float(e) for e in uniform_draws(rng, -decades, decades, samples)]
    for d, n in zip(widths, ns):
        radius = min(3.0, 150.0 / n) if scale_box_to_n else box
        yield n, uniform_draws(rng, -radius, radius, d)


def reference_displacement_identities(seed=0):
    rng = random.Random(seed)
    worst = 0.0
    for n, v in reference_sample_nv(rng):
        g = maps.g_map(n, v)
        worst = max(worst, abs(g.sum() - 1.0 - v.sum()))
        if np.linalg.norm(g - v) > 1.0 + 1e-12:
            return CheckResult("displacement-identities", False, "displacement norm exceeds 1")
        order = np.argsort(v)
        if np.any(np.diff(g[order]) < -1e-12):
            return CheckResult("displacement-identities", False, "order not preserved")
    return CheckResult("displacement-identities", worst <= 1e-12, f"max sum defect {worst:.2e}")


def reference_jacobian(n, v):
    """``I + n*(diag(s) - s s^T)`` with ``s`` the softmax of ``n*v`` that ``maps`` calls."""
    s = maps.softmax(n * v)
    return np.eye(v.size) + n * (np.diag(s) - np.outer(s, s))


def reference_is_cl(m):
    """Positive diagonal, negative off-diagonal and positive column sums."""
    off = m[~np.eye(len(m), dtype=bool)]
    return bool((np.diagonal(m) > 0).all() and (off < 0).all() and (m.sum(axis=0) > 0).all())


def reference_jacobian_columns(seed=1):
    rng = random.Random(seed)
    worst = 0.0
    for n, v in reference_sample_nv(rng):
        cols = reference_jacobian(n, v).sum(axis=0)
        worst = max(worst, float(np.abs(cols - 1.0).max()))
    return CheckResult("jacobian-column-sums", worst <= 1e-12, f"max defect {worst:.2e}")


def reference_cl_certificate(seed=2):
    rng = random.Random(seed)
    for n, v in reference_sample_nv(rng, scale_box_to_n=True):
        if not reference_is_cl(reference_jacobian(n, v)):
            return CheckResult("cl-certificate", False, f"failed at n={n:.3g}, d={v.size}")
    return CheckResult("cl-certificate", True, "150 Jacobians certified")


def reference_water_filling(seed=3):
    rng = random.Random(seed)
    worst = 0.0
    for d in reference_widths(rng, 150):
        y = uniform_draws(rng, -10.0, 10.0, d)
        split = maps.h_exact(y)
        worst = max(
            worst,
            abs(np.maximum(y - split.alpha_star, 0.0).sum() - 1.0),
            abs(split.residual.sum() - 1.0),
            float(np.abs(split.h_value - np.minimum(y, split.alpha_star)).max()),
        )
        if split.residual.min() < 0:
            return CheckResult("water-filling", False, "negative projection weight")
    return CheckResult("water-filling", worst <= 1e-12, f"max defect {worst:.2e}")


def reference_inverse_round_trip(seed=4):
    worst = 0.0
    for n, v in reference_sample_nv(random.Random(seed), samples=60, decades=2, box=5.0):
        x = maps.h_numeric(n, maps.g_map(n, v), tol=1e-12)
        worst = max(worst, float(np.abs(x - v).max()))
    return CheckResult("inverse-round-trip", worst <= 1e-9, f"max error {worst:.2e}")


def reference_uniform_limit_bound(seed=5):
    rng = random.Random(seed)
    widths = iter(reference_widths(rng, 160))
    for n in (1.0, 10.0, 100.0, 1000.0):
        ceiling = maps.epsilon_bound(n) * (1.0 + 1e-6)
        for _ in range(40):
            d = next(widths)
            y = uniform_draws(rng, -10.0, 10.0, d)
            gap = float(np.abs(maps.h_numeric(n, y, tol=1e-12) - maps.h_exact(y).h_value).max())
            if gap > d * ceiling:
                return CheckResult(
                    "uniform-limit-bound", False, f"gap {gap:.3e} > {d * ceiling:.3e} at n={n}"
                )
    return CheckResult("uniform-limit-bound", True, "bound holds at n in {1,10,100,1000}")


CHECKS = {
    "displacement-identities": (
        verification.check_displacement_identities,
        reference_displacement_identities,
    ),
    "jacobian-column-sums": (verification.check_jacobian_columns, reference_jacobian_columns),
    "cl-certificate": (verification.check_cl_certificate, reference_cl_certificate),
    "water-filling": (verification.check_water_filling, reference_water_filling),
    "inverse-round-trip": (verification.check_inverse_round_trip, reference_inverse_round_trip),
    "uniform-limit-bound": (verification.check_uniform_limit_bound, reference_uniform_limit_bound),
}


def outcome(check, seed):
    """The check's CheckResult, or the fields of the ConvergenceError it raises."""
    try:
        return check(seed)
    except ConvergenceError as exc:
        return str(exc), exc.iterations, exc.residual, exc.best.tobytes()


def patch_softmax(monkeypatch, faulty):
    """Replace the softmax that ``g_map``, the reference Jacobian and the batched checks call."""
    monkeypatch.setattr(maps, "softmax", faulty)
    monkeypatch.setattr(verification, "softmax", faulty)


@pytest.mark.parametrize("name", CHECKS)
@pytest.mark.parametrize("seed", range(10))
def test_batched_check_equals_per_sample_loop(name, seed):
    batched, reference = CHECKS[name]
    result = batched(seed)
    assert result == reference(seed)
    assert result.name == name and result.passed


def test_displacement_failure_is_the_first_failing_draw(monkeypatch):
    def faulty(z):  # rows whose largest entry passes 200 leave the unit ball, those above 2 reorder
        top = z.max(axis=-1, keepdims=True)
        return np.where(top > 200, 3.0 * softmax(z), np.where(top > 2, softmax(-1e3 * z), softmax(z)))

    patch_softmax(monkeypatch, faulty)
    details = set()
    for seed in range(20):  # seeds 14 and 18 fail on the order, the others on the norm
        result = verification.check_displacement_identities(seed)
        assert result == reference_displacement_identities(seed)
        assert not result.passed
        details.add(result.detail)
    assert details == {"displacement norm exceeds 1", "order not preserved"}


def test_cl_failure_names_the_first_failing_draw(monkeypatch):
    def faulty(z):  # a row whose largest entry passes 5 gets negative weights: no CL matrix
        return softmax(z) - 100.0 * (z.max(axis=-1, keepdims=True) > 5)

    patch_softmax(monkeypatch, faulty)
    for seed in range(10):
        draws = list(reference_sample_nv(random.Random(seed), scale_box_to_n=True))
        n, v = next((n, v) for n, v in draws if (n * v).max() > 5)
        result = verification.check_cl_certificate(seed)
        assert result == CheckResult("cl-certificate", False, f"failed at n={n:.3g}, d={v.size}")
        assert result == reference_cl_certificate(seed)


def test_uniform_limit_failure_names_the_first_failing_draw(monkeypatch):
    bound = maps.epsilon_bound

    def tight(n):  # a ceiling the gaps pass at n = 100 and 1000
        return bound(n) * (1e-3 if n > 10 else 1.0)

    monkeypatch.setattr(maps, "epsilon_bound", tight)
    monkeypatch.setattr(verification, "epsilon_bound", tight)
    for seed in range(10):
        result = verification.check_uniform_limit_bound(seed)
        assert result == reference_uniform_limit_bound(seed)
        assert not result.passed and result.detail.endswith("at n=100.0")


@pytest.mark.parametrize("iterations", [1, 3, 5])
@pytest.mark.parametrize("name", ["inverse-round-trip", "uniform-limit-bound"])
def test_unconverged_draw_raises_the_reference_error(monkeypatch, name, iterations):
    monkeypatch.setattr(maps, "MAX_INVERSE_ITER", iterations)
    batched, reference = CHECKS[name]
    for seed in range(5):
        assert outcome(batched, seed) == outcome(reference, seed)


def test_suite_raises_the_reference_error(monkeypatch):
    monkeypatch.setattr(maps, "MAX_INVERSE_ITER", 1)
    with pytest.raises(ConvergenceError) as raised:
        run_property_suite(None)
    with pytest.raises(ConvergenceError) as expected:
        reference_inverse_round_trip(4)
    assert str(raised.value) == str(expected.value)
    assert raised.value.iterations == expected.value.iterations == 1
    assert np.array_equal(raised.value.best, expected.value.best)
