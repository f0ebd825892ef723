"""Reproducible numerical certificates: uniform approximation and rank checks.

``convergence_study`` measures how far the Nash reconstruction sits from the
logit reconstruction of the same targets as the precision grows, and checks
the measured profile gaps against the proven per-player bound.
``immersion_rank_check`` certifies that the logit reconstruction, read as a
parametrization of the logit graph by payoff space, has full-rank derivative.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import ConvergenceError, InvalidInputError
from .games import (
    KMRepresentation,
    Record,
    StrategicGameForm,
    _check_real,
    _check_rows,
    _contract,
    _cross_blocks,
    _is_integer,
    _lift_bar,
    _split_payoff,
)
from .graph_maps import _gap_rows, _logit_rows, _nash_rows
from .maps import _check_below_2_53, _g_solve, epsilon_bound

RANK_SAMPLE_BOX = 2.0  # coordinate box for rank-check sampling
STUDY_BLOCK = 1024  # target rows a study reconstructs at once; bounds its working set
STUDY_TOL = 1e-12  # inversion tolerance of the study's logit reconstructions
DRAW_CHUNK = 1 << 20  # values per getrandbits call; keeps its bit count inside a C int


def _check_seed(seed):
    """Accept a nonnegative Python or NumPy integer, the seeds every draw here is fixed by."""
    if not _is_integer(seed) or seed < 0:
        raise InvalidInputError(f"seed must be a nonnegative integer, got {seed!r}")


def _rng(seed):
    """The stream of every seeded draw: MT19937, so a NumPy integer seeds like the same int."""
    return random.Random(int(seed))


def _uniform(rng, low, high, size):
    """Doubles uniform in ``[low, high)`` of shape ``size``, drawn from the ``random.Random`` ``rng``.

    One ``getrandbits(64*count)`` call per ``DRAW_CHUNK`` values: each value is the top 53 bits
    of a little-endian 64-bit word times 2**-53, scaled into the box, in C order. The words
    come in stream order, so two draws in a row give the values of one draw of their total
    size. The output is allocated first: a size numpy cannot shape or allocate raises its
    ValueError or MemoryError before any bits are drawn.
    """
    out = np.empty(size)
    flat = out.reshape(-1)
    for start in range(0, flat.size, DRAW_CHUNK):
        count = min(DRAW_CHUNK, flat.size - start)
        words = np.frombuffer(rng.getrandbits(64 * count).to_bytes(8 * count, "little"), "<u8")
        flat[start : start + count] = words >> 11
    out *= (high - low) * 2.0**-53  # rounds as (high - low) * (bits * 2**-53): a power of 2
    out += low
    return out


def _target_blocks(form, samples, seed, bound_box, block):
    """Yield ``(first sample index, tilde rows, y_bar rows)`` for consecutive blocks of samples.

    Each block is one uniform draw of shape ``(rows, k*|A| + sum(m_i))``:
    per sample, the ``k`` raw payoff tensors and then the ``k`` ``y_bar``
    vectors, in the order a per-sample draw would take them from the stream.
    The raw tensors are projected to zero opponent means. The draws come from
    ``_rng(seed)`` through ``_uniform``, so blocks of any size give the same samples.
    A ``seed`` that is not a nonnegative integer raises InvalidInputError; so does a
    ``bound_box`` that is not a positive finite real, and one above 2**53 or a draw
    numpy cannot shape or allocate, naming the form and ``samples``.
    """
    _check_seed(seed)
    if not _is_integer(samples) or samples < 1:
        raise InvalidInputError(f"samples must be an integer >= 1, got {samples!r}")
    _check_real(bound_box=bound_box)
    size, k = form.profile_count, form.num_players
    cannot = f"cannot draw {samples} samples of form {k}:{','.join(map(str, form.action_counts))}: "
    _check_below_2_53(f"{cannot}bound_box", bound_box)
    rng = _rng(seed)
    edges = np.cumsum((0, k * size) + form.action_counts)
    for start in range(0, samples, block):
        try:
            raw = _uniform(rng, -bound_box, bound_box, (min(block, samples - start), int(edges[-1])))
        except (ValueError, MemoryError) as exc:
            raise InvalidInputError(f"{cannot}{exc}") from exc
        tilde = tuple(
            _split_payoff(form, raw[:, i * size : (i + 1) * size], i)[0] for i in range(k)
        )
        yield start, tilde, tuple(raw[:, a:b] for a, b in zip(edges[1:], edges[2:]))


def sample_target_points(form, samples, seed, bound_box):
    """Draw targets with entries uniform in [-bound_box, bound_box].

    The zero-mean components are projected exactly after sampling, so every
    draw is a valid KMRepresentation. Deterministic in ``seed``.
    """
    _, tilde, y_bar = next(_target_blocks(form, samples, seed, bound_box, samples))
    return [
        KMRepresentation(tilde_u=tuple(t[s] for t in tilde), bar_u=tuple(b[s] for b in y_bar))
        for s in range(samples)
    ]


def _seeded_rows(ns, form, tilde, y_bar, seed, first):
    """``_logit_rows`` at ``STUDY_TOL``, a failure re-raised naming ``seed``; samples count from ``first``."""
    try:
        yield from _logit_rows(ns, form, tilde, y_bar, STUDY_TOL)
    except ConvergenceError as stall:
        raise ConvergenceError(
            f"logit reconstruction failed (seed={seed}, sample={first + stall.sample}, n={stall.n})",
            best=stall.best,
            residual=stall.residual,
            iterations=stall.iterations,
        ) from stall


class ReportRow(Record, eq=True):
    """Per-precision suprema over the sampled targets."""

    n: float
    sup_gap_x: float
    sup_gap_full: float


class ConvergenceReport(Record):
    """Gap suprema per precision; each profile gap is gated on its row's ``lemma_bounds`` entry.

    That entry is the proven ceiling ``max_i |A_i| * epsilon_star(n)``, derived from the form.
    """

    form: StrategicGameForm
    seed: int
    samples: int
    rows: tuple[ReportRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        ns = [r.n for r in self.rows]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise InvalidInputError("report rows must be sorted by strictly increasing n")
        bounds = tuple(max(self.form.action_counts) * epsilon_bound(n) for n in ns)
        for r, bound in zip(self.rows, bounds):
            if not (r.sup_gap_x >= 0 and r.sup_gap_full >= 0):
                raise InvalidInputError("gaps must be nonnegative")
            if not (r.sup_gap_x <= bound * (1.0 + 1e-6)):
                raise InvalidInputError(
                    f"profile gap {r.sup_gap_x:.6e} exceeds bound {bound:.6e} at n={r.n}"
                )
        object.__setattr__(self, "lemma_bounds", bounds)


def convergence_study(form, n_list, samples, seed, bound_box=10.0):
    """Supremum reconstruction gaps over sampled targets, per precision.

    For each target the Nash point is reconstructed once; the logit point is
    reconstructed at every ``n`` in ``n_list`` (finite, positive and ascending). ``sup_gap_x`` is
    the largest sup-norm profile difference, ``sup_gap_full`` the largest
    Euclidean gap over all payoff and probability coordinates; the report
    checks each ``sup_gap_x`` against its proven ceiling. Deterministic in ``seed``.

    Blocks of ``STUDY_BLOCK // len(n_list)`` samples (at least one) are inverted at
    every ``n`` as one batch; their payoffs are then built one ``n`` at a time. The
    first ``n`` that fails in the first failing block raises: a failed inversion as
    ConvergenceError naming the seed, ``n`` and the first failing sample, with its best
    iterate; else the profile check for its first sample.
    """
    n_list = list(n_list)
    if not n_list:
        raise InvalidInputError("n_list must be nonempty")
    for n in n_list:
        _check_real(n=n)
    n_list = [float(n) for n in n_list]
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InvalidInputError("n_list must be strictly ascending")
    sup_x = [0.0] * len(n_list)
    sup_full = [0.0] * len(n_list)
    block = max(1, STUDY_BLOCK // len(n_list))
    for start, tilde, y_bar in _target_blocks(form, samples, seed, bound_box, block):
        nash_payoffs, nash_x = _nash_rows(form, tilde, y_bar)
        _check_rows(nash_payoffs, nash_x, start)
        for j, (payoffs, x) in enumerate(_seeded_rows(n_list, form, tilde, y_bar, seed, start)):
            _check_rows(payoffs, x, start)
            gap_x = np.max([np.abs(a - b).max(axis=1) for a, b in zip(nash_x, x)], axis=0)
            gap_full = _gap_rows(nash_payoffs + nash_x, payoffs + x)
            sup_x[j] = max(sup_x[j], float(gap_x.max()))
            sup_full[j] = max(sup_full[j], float(gap_full.max()))
    rows = tuple(map(ReportRow, n_list, sup_x, sup_full))
    return ConvergenceReport(form=form, seed=int(seed), samples=int(samples), rows=rows)


class RankReport(Record):
    """Smallest singular value of the reconstruction derivative over samples; passes above ``threshold``."""

    n: float
    form: StrategicGameForm
    sample_points: int
    min_singular_value: float
    threshold = 1e-6

    @property
    def expected_rank(self):
        """Full column rank: the form's payoff coordinate count."""
        return self.form.payoff_coordinate_count

    @property
    def passed(self):
        return self.min_singular_value > self.threshold


def _reconstruction_jacobian(n, form, tilde, x):
    """Exact derivative of the logit reconstruction at one sample, by the implicit function theorem.

    The map splits one flat payoff tensor per player into the target
    ``(tilde_u, y_bar)`` and returns its reconstruction (payoffs, then
    probabilities); ``tilde`` and ``x`` are the target's zero-mean parts and
    reconstructed profile. Along player l's coordinates ``dw_l`` solves
    ``g_jacobian(n, w_l) dw_l = dy_l``, ``dx_l = dy_l - dw_l``, l's payoffs
    move by ``dtilde_l + lift(dw_l - dev(dtilde_l; x_{-l}))`` and player i's
    by ``lift(-B_il dx_l)``, with ``B_il = d dev(tilde_i; x_{-i})/dx_l`` block
    ``(i, l)`` of ``_cross_blocks``.
    """
    size, k, blocks = form.profile_count, form.num_players, _cross_blocks(form, tilde, x)
    others = tuple(np.broadcast_to(v, (size, v.size)) for v in x)
    columns = []  # per player l: one row per coordinate of l's payoff tensor
    for l in range(k):
        dtilde, dy = _split_payoff(form, np.eye(size), l)
        dw = _g_solve(n, x[l][None], dy)
        dx = dy - dw
        own = dtilde + _lift_bar(form, dw - _contract(form, dtilde, others, (l,)), l)
        du = [own if i == l else _lift_bar(form, -dx @ blocks[i, l].T, i) for i in range(k)]
        dp = [dx if j == l else np.zeros((size, m)) for j, m in enumerate(form.action_counts)]
        columns.append(np.hstack(du + dp))
    return np.vstack(columns).T


def immersion_rank_check(n, form, sample_points, seed):
    """Certify full column rank of the logit-reconstruction derivative.

    Reconstructs every sampled target in one batch, builds at each the exact
    Jacobian of the payoff-coordinates-to-(payoffs, probabilities)
    reconstruction, and records the smallest singular value seen. Full column
    rank at every sample certifies the reconstruction is an immersion there,
    hence that the logit graph has the dimension of payoff space. A failed
    reconstruction raises ConvergenceError naming the seed, the sample and
    ``n``. Deterministic in ``seed``.
    """
    _check_real(n=n)
    _, tilde, y_bar = next(_target_blocks(form, sample_points, seed, RANK_SAMPLE_BOX, sample_points))
    [(payoffs, x)] = _seeded_rows([n], form, tilde, y_bar, seed, 0)
    _check_rows(payoffs, x)
    smallest = min(  # zip(*tilde), zip(*x): per sample, one row per player
        np.linalg.svd(_reconstruction_jacobian(n, form, *sample), compute_uv=False).min()
        for sample in zip(zip(*tilde), zip(*x))
    )
    return RankReport(
        n=float(n),
        form=form,
        sample_points=int(sample_points),
        min_singular_value=float(smallest),
    )
