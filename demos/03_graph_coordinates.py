"""Payoff-space coordinates for Nash and logit graph points, and their inverses.

Run with: python demos/03_graph_coordinates.py
"""

import numpy as np

from logitgraph import (
    GraphPoint,
    MixedProfile,
    StrategicGameForm,
    approximation_gap,
    epsilon_bound,
    parse_game,
    phi,
    phi_inv,
    phi_n_inv,
    sample_target_points,
)

# Forward: a Nash graph point maps to (zero-mean payoffs, per-action vectors).
with open("demos/games/matching_pennies.json", "rb") as handle:
    pennies = parse_game(handle.read())
point = GraphPoint.nash(pennies, MixedProfile.uniform(pennies.form))
target = phi(point)
print("matching pennies at uniform maps to y_bar:", [b.tolist() for b in target.y_bar])

# Backward: any target reconstructs to a game plus an exact equilibrium.
# The water-filling split of each y_bar hands over both the probabilities and
# the deviation payoffs; the rest of the game is back-solved.
recovered = phi_inv(target)
print("reconstruction residual:", recovered.residual)
print(
    "payoffs recovered with error",
    max(float(np.abs(a - b).max()) for a, b in zip(recovered.game.payoffs, pennies.payoffs)),
)

# The same construction at finite precision n: probabilities are strictly
# positive and the reconstructed pair is a logit equilibrium.
form = StrategicGameForm((2, 2))
t = sample_target_points(form, 1, seed=12, bound_box=5.0)[0]
for n in (1.0, 10.0):
    p = phi_n_inv(n, t, tol=1e-12)
    back = phi(p)  # maps at the point's own n
    err = max(float(np.abs(a - b).max()) for a, b in zip(back.y_bar, t.y_bar))
    print(f"n={n:4g}: logit residual {p.residual:.2e}, round-trip error {err:.2e}")
    print(f"        min probability {min(v.min() for v in p.profile.vectors):.3e}")

# Both inverses reconstruct from the same target; their distance shrinks as n
# grows, at the rate the limit-map bound predicts for the profile part.
print("n      full gap      profile bound 2*eps*(n)")
for n in (1.0, 10.0, 100.0, 1000.0):
    gap = approximation_gap(n, t, tol=1e-12)
    print(f"{n:6g} {gap:.4e}   {2 * epsilon_bound(n):.4e}")
