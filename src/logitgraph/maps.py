"""Softmax displacement maps, their Jacobians, and the water-filling limit.

The central object is the map ``g_map(n, v) = v + softmax(n*v)``, which is
invertible for every ``n > 0``. Its inverse is computed numerically by
``h_numeric``; as ``n`` grows the inverse approaches the exact water-filling
map ``h_exact``, with a uniform error controlled by ``epsilon_bound``. The
softmax itself is ``games.softmax``, re-exported here.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, InvalidInputError
from .games import Record, _check_n, _check_n_tol, softmax

MAX_INVERSE_ITER = 200  # Newton iterations per row of the softmax-displacement inverse


def _as_vector(v, name="v"):
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInputError(f"{name} must be a nonempty 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} must be finite")
    return arr


def g_map(n, v):
    """Displace ``v`` by the softmax of ``n*v``: returns ``v + softmax(n*v)``.

    The coordinate sum grows by exactly 1 and the displacement has Euclidean
    norm at most 1 (it is a probability vector).
    """
    v = _as_vector(v)
    _check_n(n)
    return v + softmax(n * v)


def g_jacobian(n, v):
    """Jacobian of ``g_map`` at ``v``: ``I + n*(diag(s) - s s^T)`` with ``s = softmax(n*v)``.

    Symmetric positive definite; every column sums to 1.
    """
    v = _as_vector(v)
    _check_n(n)
    return _jacobian_rows(v[None], np.array([n], dtype=float))[0]


def _jacobian_rows(v, n):
    """``g_jacobian`` at every row of ``v``, each at its own ``n``, as a ``(rows, d, d)`` array."""
    s, eye = softmax(n[:, None] * v), np.eye(v.shape[1])
    return eye + n[:, None, None] * (s[:, :, None] * eye - s[:, :, None] * s[:, None, :])


def is_cl_matrix(m):
    """True iff ``m`` has positive diagonal, negative off-diagonal, positive column sums.

    Matrices of this form are strictly column diagonally dominant, hence
    invertible. Raises on non-square input.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    return bool(_cl_rows(m[None])[0])


def _cl_rows(m):
    """``is_cl_matrix`` of every matrix in a ``(rows, d, d)`` stack, as a ``(rows,)`` bool array."""
    off = ~np.eye(m.shape[1], dtype=bool)
    return (np.diagonal(m, 0, 1, 2) > 0).all(1) & (m[:, off] < 0).all(1) & (m.sum(1) > 0).all(1)


def _check_below_2_53(what, magnitude):
    """Reject a coordinate magnitude past 2**53, where no reconstructed profile can sum to 1.

    Callers pass the magnitude of a vector's top entry: only entries within 1 of the
    top carry probability, so entries far below it never touch the unit sum.
    """
    if magnitude > 2.0**53:
        reason = "past 2**53 doubles are 2 apart, so a profile cannot sum to 1"
        raise InvalidInputError(f"{what} {magnitude:g} exceeds 2**53: {reason}")


def alpha_star(y):
    """Water level: the unique ``a`` with ``sum(max(y_i - a, 0)) = 1``.

    Computed by the sort rule: sort descending, take the largest ``k`` with
    ``y_(k) > (sum of top k - 1)/k``, return that threshold. ``y - min(y, a)``
    is then the Euclidean projection of ``y`` onto the probability simplex.
    A top entry past 2**53 in magnitude raises InvalidInputError.
    """
    y = _as_vector(y, "y")
    _check_below_2_53("y entry", abs(float(y.max())))
    return float(_water_level(y[None])[0])


def _water_level(y):
    """Row-wise ``alpha_star`` of a ``(rows, d)`` array, by the same sort rule."""
    u = np.sort(y, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    thresholds = (css - 1.0) / np.arange(1, y.shape[1] + 1)
    # the largest k with u_(k) > threshold_k: the first hit scanning from the right
    k = y.shape[1] - 1 - np.argmax((u > thresholds)[:, ::-1], axis=1)
    return thresholds[np.arange(y.shape[0]), k]


class SimplexProjection(Record):
    """Water-filling split of a vector ``y``.

    ``h_value = min(y, alpha_star)`` coordinatewise; ``residual = y - h_value``
    is a probability vector (the simplex projection of ``y``).
    """

    h_value: np.ndarray
    residual: np.ndarray

    @property
    def alpha_star(self):
        # the residual's weights sum to 1, so some entry is clipped, and a clipped
        # entry is the water level itself: this is the value h_exact clipped at
        return float(self.h_value.max())


def h_exact(y):
    """Clip ``y`` at its water level and return the split as a SimplexProjection."""
    y = _as_vector(y, "y")
    h = np.minimum(y, alpha_star(y))
    return SimplexProjection(h_value=h, residual=y - h)


def _stall_error(best, residual, tol, iterations):
    return ConvergenceError(
        f"softmax-displacement inversion stalled at residual {residual:.3e} (tol {tol:.3e})",
        best=best,
        residual=float(residual),
        iterations=int(iterations),
    )


def h_numeric(n, y, tol=1e-10):
    """Invert ``g_map``: find ``x`` with ``max|g_map(n, x) - y| <= tol``.

    Validates its arguments once, then runs the row kernel on ``y`` as a batch
    of one. The kernel is a damped Newton iteration with Armijo backtracking
    on the Euclidean residual norm. The Jacobian ``I + n*diag(s) - n*s s^T``
    is a diagonal plus a rank-one term, so each Newton step is solved in
    closed form by the Sherman-Morrison formula in O(d), without forming the
    matrix. The Jacobian is symmetric positive definite, so the Newton
    direction is always a descent direction for the residual and the
    iteration converges from any start; the water-filling value warm-starts
    it for ``n >= 1``.

    Raises ConvergenceError (carrying the best iterate, its residual and the
    iterations it ran) if the tolerance is not reached.
    """
    y = _as_vector(y, "y")
    _check_n_tol(n, tol)
    x, residual, iterations = _invert_rows(n, y[None], tol)
    if residual[0] > tol:
        raise _stall_error(x[0], residual[0], tol, iterations[0])
    return x[0]


def _g_solve(n, s, r):
    """Row-wise ``J^{-1} r`` for ``J = g_jacobian = diag(a) - n s s^T``, ``a = 1 + n s``.

    Sherman-Morrison in O(d); its denominator ``1 - n s.(s/a)`` equals ``sum(s/a) > 0``.
    ``s`` has the rows of ``r`` or one row for all; ``n`` is a scalar or one per row, a column.
    """
    a = 1.0 + n * s
    u = s / a
    return r / a + u * (n * (u * r).sum(axis=1, keepdims=True) / u.sum(axis=1, keepdims=True))


@np.errstate(over="ignore", invalid="ignore")
def _invert_rows(n, y, tol):
    """Row kernel of ``h_numeric``: solve ``x + softmax(n*x) = y`` for every row of ``y``.

    ``y`` is a finite ``(rows, d)`` array; ``n`` (a scalar, or a ``(rows,)`` array
    of one precision per row) and ``tol`` are trusted. Rows iterate independently
    and leave the live set once their sup-norm residual is at most ``tol`` or not
    finite, once backtracking finds no decrease (the floating-point floor for that
    row), or after ``MAX_INVERSE_ITER`` steps. Overflow and invalid-value warnings
    are silenced: a non-finite residual is the diagnosis.
    Returns ``(x, residual, iterations)``: per row the first iterate within
    ``tol``, or else the best iterate seen, its sup-norm residual and the
    iterations it ran. A row converged exactly when its residual is at most ``tol``;
    a row whose every residual is NaN reports ``inf``.
    """
    n = np.broadcast_to(np.asarray(n, dtype=float), y.shape[:1])[:, None]
    x = np.where(n >= 1.0, np.minimum(y, _water_level(y)[:, None]), y - 1.0 / y.shape[1])
    s = softmax(n * x)
    r = y - (x + s)
    norm = np.sqrt((r * r).sum(axis=1))
    out_x, out_res, out_iter = np.empty_like(y), np.empty(y.shape[0]), np.empty(y.shape[0], int)
    live, target = np.arange(y.shape[0]), y
    best_x, best_res = x.copy(), np.full(y.shape[0], np.inf)  # per live row
    stuck = False
    for iteration in range(MAX_INVERSE_ITER + 1):
        res = np.abs(r).max(axis=1)
        better = res < best_res
        if better.any():
            best_x[better] = x[better]
            best_res[better] = res[better]
        leave = (res <= tol) | ~np.isfinite(res) | stuck | (iteration == MAX_INVERSE_ITER)
        if leave.any():
            rows = live[leave]
            out_x[rows], out_res[rows], out_iter[rows] = best_x[leave], best_res[leave], iteration
            keep = ~leave
            if not keep.any():
                break
            live, n, target, x, s, r, norm = (v[keep] for v in (live, n, target, x, s, r, norm))
            best_x, best_res = best_x[keep], best_res[keep]
        step = _g_solve(n, s, r)
        x_new = x + step
        s_new = softmax(n * x_new)
        r_new = target - (x_new + s_new)
        new_norm = np.sqrt((r_new * r_new).sum(axis=1))
        retry = np.flatnonzero(new_norm > (1.0 - 1e-4) * norm)
        stuck = False
        if retry.size:  # Armijo backtracking, halving t per row
            t = np.ones(live.size)
            while retry.size:
                t[retry] *= 0.5
                x_new[retry] = x[retry] + t[retry, None] * step[retry]
                s_new[retry] = softmax(n[retry] * x_new[retry])
                r_new[retry] = target[retry] - (x_new[retry] + s_new[retry])
                new_norm[retry] = np.sqrt((r_new[retry] * r_new[retry]).sum(axis=1))
                done = new_norm[retry] <= (1.0 - 1e-4 * t[retry]) * norm[retry]
                retry = retry[~(done | (t[retry] < 1e-12))]
            stuck = (t < 1e-12) & (new_norm >= norm)  # at the floor: keep x, then leave
            for new, old in ((x_new, x), (s_new, s), (r_new, r), (new_norm, norm)):
                new[stuck] = old[stuck]
        x, s, r, norm = x_new, s_new, r_new, new_norm
    return out_x, out_res, out_iter


def _eps_equation_log(eps, n):
    # log of eps*(1+exp(eps*n)); stable for large eps*n
    t = eps * n
    softplus = t + math.log1p(math.exp(-t)) if t > 0 else math.log1p(math.exp(t))
    return math.log(eps) + softplus


def epsilon_bound(n):
    """``epsilon_star(n)``: the unique root in (0, 0.5] of ``eps*(1+exp(eps*n)) = 1``.

    The inverse of ``g_map`` differs from the water-filling map by at most
    ``d * epsilon_star`` in sup norm on vectors of length ``d``. The left side
    is strictly increasing in ``eps``, so bisection converges; the bracket is
    refined to full double precision. ``n = 0`` gives exactly 0.5.
    """
    if n < 0 or not math.isfinite(n):
        raise InvalidInputError(f"n must be nonnegative and finite, got {n}")
    if n == 0:
        return 0.5
    # f(1/(n+2)) < 1 for every n > 0, and f((1 + log n)/n) > e for n > 1
    lo = 1.0 / (n + 2.0)
    hi = min(0.5, (1.0 + math.log(n)) / n) if n > 1.0 else 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _eps_equation_log(mid, n) > 0.0:
            hi = mid
        else:
            lo = mid
    # pick the endpoint with the smaller defining-equation residual
    return min((lo, hi), key=lambda e: abs(math.expm1(_eps_equation_log(e, n))))
