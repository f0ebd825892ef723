"""Softmax displacement maps, their Jacobians, and the water-filling limit.

The central object is the map ``g_map(n, v) = v + softmax(n*v)``, which is
invertible for every ``n > 0``. Its inverse is computed numerically by
``h_numeric``; as ``n`` grows the inverse approaches the exact water-filling
map ``h_exact``, with a uniform error controlled by ``epsilon_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidInputError

MAX_INVERSE_ITER = 200  # Newton iterations per row of the softmax-displacement inverse


def _as_vector(v, name="v"):
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInputError(f"{name} must be a nonempty 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} must be finite")
    return arr


def softmax(v):
    """Overflow-safe softmax: subtracts the max coordinate before exponentiating."""
    v = np.asarray(v, dtype=float)
    e = np.exp(v - v.max())
    return e / e.sum()


def g_map(n, v):
    """Displace ``v`` by the softmax of ``n*v``: returns ``v + softmax(n*v)``.

    The coordinate sum grows by exactly 1 and the displacement has Euclidean
    norm at most 1 (it is a probability vector).
    """
    v = _as_vector(v)
    if not (n > 0 and math.isfinite(n)):
        raise InvalidInputError(f"n must be positive and finite, got {n}")
    return v + softmax(n * v)


def g_jacobian(n, v):
    """Jacobian of ``g_map`` at ``v``: ``I + n*(diag(s) - s s^T)`` with ``s = softmax(n*v)``.

    Symmetric positive definite; every column sums to 1.
    """
    v = _as_vector(v)
    if not (n > 0 and math.isfinite(n)):
        raise InvalidInputError(f"n must be positive and finite, got {n}")
    s = softmax(n * v)
    return np.eye(v.size) + n * (np.diag(s) - np.outer(s, s))


def is_cl_matrix(m):
    """True iff ``m`` has positive diagonal, negative off-diagonal, positive column sums.

    Matrices of this form are strictly column diagonally dominant, hence
    invertible. Raises on non-square input.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    d = m.shape[0]
    diag = np.diagonal(m)
    if not np.all(diag > 0):
        return False
    off = m[~np.eye(d, dtype=bool)]
    if off.size and not np.all(off < 0):
        return False
    return bool(np.all(m.sum(axis=0) > 0))


def alpha_star(y):
    """Water level: the unique ``a`` with ``sum(max(y_i - a, 0)) = 1``.

    Computed by the sort rule: sort descending, take the largest ``k`` with
    ``y_(k) > (sum of top k - 1)/k``, return that threshold. ``y - min(y, a)``
    is then the Euclidean projection of ``y`` onto the probability simplex.
    """
    y = _as_vector(y, "y")
    return float(_water_level(y[None])[0])


def _water_level(y):
    """Row-wise ``alpha_star`` of a ``(rows, d)`` array, by the same sort rule."""
    u = np.sort(y, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    thresholds = (css - 1.0) / np.arange(1, y.shape[1] + 1)
    # the largest k with u_(k) > threshold_k: the first hit scanning from the right
    k = y.shape[1] - 1 - np.argmax((u > thresholds)[:, ::-1], axis=1)
    return thresholds[np.arange(y.shape[0]), k]


def _softmax_rows(v):
    """``softmax`` applied to each row of a ``(rows, d)`` array."""
    e = np.exp(v - v.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@dataclass(frozen=True, eq=False)
class SimplexProjection:
    """Water-filling split of a vector ``y``.

    ``h_value = min(y, alpha_star)`` coordinatewise; ``residual = y - h_value``
    is a probability vector (the simplex projection of ``y``).
    """

    alpha_star: float
    h_value: np.ndarray
    residual: np.ndarray


def h_exact(y):
    """Clip ``y`` at its water level and return the split as a SimplexProjection."""
    y = _as_vector(y, "y")
    a = alpha_star(y)
    h = np.minimum(y, a)
    return SimplexProjection(alpha_star=a, h_value=h, residual=y - h)


def _check_n_tol(n, tol):
    if not (n > 0 and math.isfinite(n)):
        raise InvalidInputError(f"n must be positive and finite, got {n}")
    if not tol > 0:
        raise InvalidInputError(f"tol must be positive, got {tol}")


def _stall_error(best, residual, tol, max_iter=MAX_INVERSE_ITER):
    return ConvergenceError(
        f"softmax-displacement inversion stalled at residual {residual:.3e} (tol {tol:.3e})",
        best=best,
        residual=float(residual),
        iterations=max_iter,
    )


def h_numeric(n, y, tol=1e-10, max_iter=MAX_INVERSE_ITER):
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

    Raises ConvergenceError (carrying the best iterate and its residual) if the
    tolerance is not reached within ``max_iter`` iterations.
    """
    y = _as_vector(y, "y")
    _check_n_tol(n, tol)
    x, residual = _invert_rows(n, y[None], tol, max_iter)
    if residual[0] > tol:
        raise _stall_error(x[0], residual[0], tol, max_iter)
    return x[0]


def _invert_rows(n, y, tol, max_iter=MAX_INVERSE_ITER):
    """Row kernel of ``h_numeric``: solve ``x + softmax(n*x) = y`` for every row of ``y``.

    ``y`` is a finite ``(rows, d)`` array; ``n`` and ``tol`` are trusted.
    Rows iterate independently and leave the live set once their sup-norm
    residual is at most ``tol``, once backtracking finds no decrease (the
    floating-point floor for that row), or when ``max_iter`` runs out.
    Returns ``(x, residual)``: per row the first iterate within ``tol``, or
    else the best iterate seen, and its sup-norm residual. A row converged
    exactly when its residual is at most ``tol``.
    """
    x = np.minimum(y, _water_level(y)[:, None]) if n >= 1.0 else y - 1.0 / y.shape[1]
    s = _softmax_rows(n * x)
    r = y - (x + s)
    norm = np.sqrt((r * r).sum(axis=1))
    out_x, out_res = np.empty_like(y), np.empty(y.shape[0])
    live, target = np.arange(y.shape[0]), y
    best_x, best_res = x.copy(), np.abs(r).max(axis=1)  # per live row
    stuck = False
    for iteration in range(max_iter + 1):
        res = np.abs(r).max(axis=1)
        better = res < best_res
        if better.any():
            best_x[better] = x[better]
            best_res[better] = res[better]
        leave = (res <= tol) | stuck | (iteration == max_iter)
        if leave.any():
            out_x[live[leave]] = best_x[leave]
            out_res[live[leave]] = best_res[leave]
            keep = ~leave
            if not keep.any():
                break
            live, target, x, s, r, norm = (v[keep] for v in (live, target, x, s, r, norm))
            best_x, best_res = best_x[keep], best_res[keep]
        # Newton step J^{-1} r with J = diag(a) - n s s^T, a = 1 + n s; the
        # Sherman-Morrison denominator 1 - n s.(s/a) equals sum(s/a) > 0
        a = 1.0 + n * s
        u = s / a
        step = r / a + u * (n * (u * r).sum(axis=1) / u.sum(axis=1))[:, None]
        x_new = x + step
        s_new = _softmax_rows(n * x_new)
        r_new = target - (x_new + s_new)
        new_norm = np.sqrt((r_new * r_new).sum(axis=1))
        retry = np.flatnonzero(new_norm > (1.0 - 1e-4) * norm)
        stuck = False
        if retry.size:  # Armijo backtracking, halving t per row
            t = np.ones(live.size)
            while retry.size:
                t[retry] *= 0.5
                x_new[retry] = x[retry] + t[retry, None] * step[retry]
                s_new[retry] = _softmax_rows(n * x_new[retry])
                r_new[retry] = target[retry] - (x_new[retry] + s_new[retry])
                new_norm[retry] = np.sqrt((r_new[retry] * r_new[retry]).sum(axis=1))
                done = new_norm[retry] <= (1.0 - 1e-4 * t[retry]) * norm[retry]
                retry = retry[~(done | (t[retry] < 1e-12))]
            stuck = (t < 1e-12) & (new_norm >= norm)  # at the floor: keep x, then leave
            for new, old in ((x_new, x), (s_new, s), (r_new, r), (new_norm, norm)):
                new[stuck] = old[stuck]
        x, s, r, norm = x_new, s_new, r_new, new_norm
    return out_x, out_res


@dataclass(frozen=True)
class ConvergenceBound:
    """Uniform error level for the numeric inverse at parameter ``n``.

    ``epsilon_star`` solves ``eps * (1 + exp(eps*n)) = 1``; the inverse of
    ``g_map`` differs from the water-filling map by at most ``d * epsilon_star``
    in sup norm on vectors of length ``d``.
    """

    n: float
    epsilon_star: float

    def uniform_bound(self, d):
        return d * self.epsilon_star


def _eps_equation_log(eps, n):
    # log of eps*(1+exp(eps*n)); stable for large eps*n
    t = eps * n
    softplus = t + math.log1p(math.exp(-t)) if t > 0 else math.log1p(math.exp(t))
    return math.log(eps) + softplus


def epsilon_bound(n):
    """Solve ``eps*(1+exp(eps*n)) = 1`` for the unique root in (0, 0.5].

    The left side is strictly increasing in ``eps``, so bisection converges;
    the bracket is refined to full double precision. ``n = 0`` gives exactly 0.5.
    """
    if n < 0 or not math.isfinite(n):
        raise InvalidInputError(f"n must be nonnegative and finite, got {n}")
    if n == 0:
        return ConvergenceBound(n=0.0, epsilon_star=0.5)
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
    root = min((lo, hi), key=lambda e: abs(math.expm1(_eps_equation_log(e, n))))
    return ConvergenceBound(n=float(n), epsilon_star=root)
