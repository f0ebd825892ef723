import math
import sys

import numpy as np
import pytest

from logitgraph import (
    ConvergenceError,
    InvalidInputError,
    alpha_star,
    epsilon_bound,
    g_jacobian,
    g_map,
    h_exact,
    h_numeric,
    is_cl_matrix,
    softmax,
)
from logitgraph import maps
from conftest import fd_jacobian

E = np.e


def bisect_alpha(y, iterations=200):
    """Independent oracle: bisection on a -> sum(max(y - a, 0)) - 1."""
    y = np.asarray(y, dtype=float)
    lo, hi = y.min() - 2.0, y.max()
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if np.maximum(y - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSoftmax:
    @pytest.mark.parametrize("d", [1, 2, 5, 9])
    def test_rows_match_one_dimensional_softmax_bit_for_bit(self, rng, d):
        v = rng.uniform(-50.0, 50.0, size=(200, d))
        rows = softmax(v)
        assert rows.shape == v.shape
        for row, out in zip(v, rows):
            assert np.array_equal(out, softmax(row))


class TestGMap:
    def test_singleton(self):
        assert g_map(3.7, [0.0]).tolist() == [1.0]

    def test_symmetric_pair(self):
        assert np.allclose(g_map(1.0, [0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_frozen_value(self):
        out = g_map(1.0, [1.0, 0.0])
        assert out == pytest.approx([1.7310585786300049, 0.2689414213699951], abs=1e-9)

    def test_sum_identity(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 9))
            n = float(10.0 ** rng.uniform(-3, 3))
            v = rng.uniform(-10, 10, size=d)
            assert abs(g_map(n, v).sum() - 1.0 - v.sum()) <= 1e-12

    def test_bounded_displacement(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 9))
            n = float(10.0 ** rng.uniform(-3, 3))
            v = rng.uniform(-10, 10, size=d)
            assert np.linalg.norm(g_map(n, v) - v) <= 1.0 + 1e-12

    def test_order_preserved(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 9))
            v = np.sort(rng.uniform(-5, 5, size=d))
            g = g_map(float(10.0 ** rng.uniform(-2, 2)), v)
            assert np.all(np.diff(g) >= -1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            g_map(1.0, [])
        with pytest.raises(InvalidInputError):
            g_map(0.0, [1.0])
        with pytest.raises(InvalidInputError):
            g_map(-2.0, [1.0])
        with pytest.raises(InvalidInputError):
            g_map(1.0, [np.nan])


class TestGJacobian:
    def test_symmetric_pair(self):
        jac = g_jacobian(1.0, [0.0, 0.0])
        assert np.allclose(jac, [[1.25, -0.25], [-0.25, 1.25]], atol=1e-15)

    def test_singleton(self):
        assert g_jacobian(5.0, [3.0]).tolist() == [[1.0]]

    def test_against_finite_differences_fixed_point(self):
        v = np.array([0.3, -0.1, 0.7])
        jac = g_jacobian(2.0, v)
        oracle = fd_jacobian(lambda x: g_map(2.0, x), v)
        assert np.abs(jac - oracle).max() <= 1e-6

    def test_against_finite_differences_random(self, rng):
        for _ in range(25):
            d = int(rng.integers(1, 7))
            n = float(10.0 ** rng.uniform(-1, 1))
            v = rng.uniform(-3, 3, size=d)
            oracle = fd_jacobian(lambda x: g_map(n, x), v)
            assert np.abs(g_jacobian(n, v) - oracle).max() <= 1e-6

    def test_column_sums_are_one(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 9))
            n = float(10.0 ** rng.uniform(-3, 3))
            v = rng.uniform(-10, 10, size=d)
            cols = g_jacobian(n, v).sum(axis=0)
            assert np.abs(cols - 1.0).max() <= 1e-12


class TestCLMatrix:
    def test_jacobian_example(self):
        assert is_cl_matrix(np.array([[1.25, -0.25], [-0.25, 1.25]]))

    def test_identity_fails_off_diagonal(self):
        assert not is_cl_matrix(np.eye(2))

    def test_negative_column_sum_fails(self):
        assert not is_cl_matrix(np.array([[1.0, -2.0], [-2.0, 1.0]]))

    def test_one_by_one(self):
        assert is_cl_matrix(np.array([[1.0]]))
        assert not is_cl_matrix(np.array([[-1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInputError):
            is_cl_matrix(np.zeros((2, 3)))

    def test_jacobians_certified(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 9))
            n = float(10.0 ** rng.uniform(-3, 3))
            radius = min(3.0, 150.0 / n)  # keeps exp(n*spread) above underflow
            v = rng.uniform(-radius, radius, size=d)
            assert is_cl_matrix(g_jacobian(n, v))


class TestAlphaStar:
    def test_singleton_forced(self):
        assert alpha_star([3.0]) == pytest.approx(2.0, abs=1e-15)

    def test_two_values(self):
        assert alpha_star([1.5, 0.5]) == pytest.approx(0.5, abs=1e-12)
        assert alpha_star([1.0, 1.0]) == pytest.approx(0.5, abs=1e-12)

    def test_against_bisection(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 9))
            y = rng.uniform(-10, 10, size=d)
            assert alpha_star(y) == pytest.approx(bisect_alpha(y), abs=1e-10)

    def test_defining_equation(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 9))
            y = rng.uniform(-10, 10, size=d)
            a = alpha_star(y)
            assert abs(np.maximum(y - a, 0.0).sum() - 1.0) <= 1e-12

    def test_ties_stable_under_permutation(self, rng):
        y = np.array([2.0, 2.0, 0.5, 2.0, -1.0])
        reference = alpha_star(y)
        for _ in range(10):
            assert alpha_star(y[rng.permutation(y.size)]) == reference

    def test_entry_past_2_to_the_53_rejected(self):
        # past 2**53 the split cannot hold a unit sum: [1e17, 0] used to give level
        # 5e16 and the "probability vector" [5e16, 0]
        for call in (alpha_star, h_exact):
            with pytest.raises(InvalidInputError, match=r"y entry 1e\+17 exceeds 2\*\*53"):
                call([1e17, 0.0])
            with pytest.raises(InvalidInputError, match=r"y entry 1e\+17 exceeds 2\*\*53"):
                call([-1e17, -2e17])  # the top entry's magnitude
        split = h_exact([2.0**53, 0.0])
        assert split.alpha_star == 2.0**53 - 1.0 and split.residual.tolist() == [1.0, 0.0]

    def test_entries_far_below_the_top_split_exactly(self):
        # only entries within 1 of the top carry probability
        split = h_exact([-1e17, 0.0])
        assert split.alpha_star == -1.0 and split.residual.tolist() == [0.0, 1.0]
        assert split.h_value.tolist() == [-1e17, -1.0] and alpha_star([0.0, -1e300]) == -1.0


class TestHExact:
    def test_examples(self):
        split = h_exact([1.5, 0.5])
        assert np.allclose(split.h_value, [0.5, 0.5], atol=1e-12)
        assert np.allclose(split.residual, [1.0, 0.0], atol=1e-12)
        split = h_exact([1.0, 1.0])
        assert np.allclose(split.h_value, [0.5, 0.5], atol=1e-12)
        assert np.allclose(split.residual, [0.5, 0.5], atol=1e-12)
        split = h_exact([3.0])
        assert split.h_value.tolist() == [2.0] and split.residual.tolist() == [1.0]

    def test_residual_is_probability_vector(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 9))
            split = h_exact(rng.uniform(-10, 10, size=d))
            assert split.residual.min() >= 0.0
            assert abs(split.residual.sum() - 1.0) <= 1e-12
            assert np.array_equal(
                split.h_value, np.minimum(split.h_value + split.residual, split.alpha_star)
            )


class TestHNumeric:
    def test_symmetric_round_trip(self):
        assert np.abs(h_numeric(1.0, [0.5, 0.5], tol=1e-12)).max() <= 1e-12

    def test_frozen_inverse(self):
        x = h_numeric(1.0, [1.7310585786300049, 0.2689414213699951], tol=1e-10)
        assert x == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_singleton_shift(self):
        assert h_numeric(7.0, [5.0], tol=1e-12) == pytest.approx([4.0], abs=1e-12)

    def test_inverse_round_trip(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 9))
            n = float(10.0 ** rng.uniform(-2, 2))
            v = rng.uniform(-5, 5, size=d)
            x = h_numeric(n, g_map(n, v), tol=1e-12)
            assert np.abs(x - v).max() <= 1e-9

    def test_small_n_start(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 6))
            v = rng.uniform(-3, 3, size=d)
            n = float(10.0 ** rng.uniform(-3, -0.5))
            x = h_numeric(n, g_map(n, v), tol=1e-12)
            assert np.abs(x - v).max() <= 1e-9

    def test_uniform_limit_bound(self, rng):
        for n in (1.0, 10.0, 100.0, 1000.0):
            ceiling = epsilon_bound(n) * (1.0 + 1e-6)
            for _ in range(40):
                d = int(rng.integers(1, 9))
                y = rng.uniform(-10, 10, size=d)
                gap = np.abs(h_numeric(n, y, tol=1e-12) - h_exact(y).h_value).max()
                assert gap <= d * ceiling

    def test_budget_exhaustion_carries_best(self, monkeypatch):
        monkeypatch.setattr(maps, "MAX_INVERSE_ITER", 1)
        with pytest.raises(ConvergenceError) as info:
            h_numeric(5.0, [4.0, -3.0, 1.0], tol=1e-12)
        err = info.value
        assert err.best is not None and err.best.shape == (3,)
        assert err.residual is not None and err.residual > 1e-12

    def test_stall_reports_the_iterations_run(self):
        # an unreachable tol: the row stops at its floating-point floor, well
        # before the MAX_INVERSE_ITER budget, and says how far it got
        with pytest.raises(ConvergenceError) as info:
            h_numeric(1e6, [1.3, 0.7], tol=1e-30)
        err = info.value
        assert err.iterations == 7
        assert 0 < err.residual < 1e-11

    def test_overflowing_precision_fails_instead_of_reporting_nan(self):
        # n*x overflows, so every iterate's residual is NaN; the row used to leave
        # with residual NaN, which passed the "residual > tol" test as converged,
        # and then stepped all MAX_INVERSE_ITER iterations; numpy's warnings stay
        # inside the kernel, which the suite's RuntimeWarning gate checks
        with pytest.raises(ConvergenceError) as info:
            h_numeric(1e308, [3.0, -2.0, 0.1])
        assert info.value.residual == math.inf and np.isfinite(info.value.best).all()
        assert info.value.iterations <= 1

    def test_invalid_tol(self):
        with pytest.raises(InvalidInputError):
            h_numeric(1.0, [1.0], tol=0.0)


class TestEpsilonBound:
    def test_zero_precision_is_half(self):
        assert type(epsilon_bound(0)) is float and epsilon_bound(0) == 0.5

    def test_frozen_value_at_ten(self):
        # recomputed with a 50-digit bisection oracle before freezing
        assert epsilon_bound(10) == pytest.approx(
            0.16335061701558464, abs=1e-10
        )

    @pytest.mark.parametrize("n", [0.25, 1.0, 4.0, 10.0, 100.0, 1000.0])
    def test_defining_equation(self, n):
        eps = epsilon_bound(n)
        assert abs(eps * (1.0 + np.exp(eps * n)) - 1.0) <= 1e-12

    def test_nonincreasing_in_n(self):
        values = [epsilon_bound(n) for n in (0, 1, 5, 10, 100, 1000)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert epsilon_bound(100) < epsilon_bound(10)

    def test_negative_precision_rejected(self):
        with pytest.raises(InvalidInputError):
            epsilon_bound(-1.0)

    @staticmethod
    def linear_bisection(n):
        """The earlier bisection over [1e-300, 0.5]; reaches adjacent doubles for n <= 1e40."""
        def log_equation(eps):
            t = eps * n
            return math.log(eps) + (t + math.log1p(math.exp(-t)) if t > 0 else math.log1p(math.exp(t)))

        lo, hi = 1e-300, 0.5
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if log_equation(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        return min((lo, hi), key=lambda e: abs(math.expm1(log_equation(e))))

    def test_matches_linear_bisection_up_to_1e40(self):
        grid = [1.0, 10.0, 100.0, 1000.0, 0.25, 4.0, 6.0] + list(np.logspace(-3, 40, 400))
        for n in grid:
            value = epsilon_bound(float(n))
            assert type(value) is float and value == self.linear_bisection(float(n)), n

    def test_huge_precision(self):
        ns = [1e40, 1e50, 1e60, 1e100, 1e300, sys.float_info.max]
        values = [epsilon_bound(n) for n in ns]
        assert all(b < a for a, b in zip(values, values[1:]))
        for n, eps in zip(ns, values):
            t = eps * n
            log_defect = math.log(eps) + t + math.log1p(math.exp(-t))
            assert abs(log_defect) <= 1e-12, (n, log_defect)
