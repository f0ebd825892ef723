"""Trace logit equilibria from near-zero precision and extract approximate Nash.

Run with: python demos/04_equilibrium_tracing.py
"""

import numpy as np

from logitgraph import (
    Game,
    MixedProfile,
    StrategicGameForm,
    logit_response,
    solve_newton,
    trace_logit_path,
)

# At n=0 the response is uniform for any game; that is where every path starts.
game = Game.from_payoff_tensors(
    [np.array([[4.0, 0.0], [3.0, 2.0]]), np.array([[2.0, 3.0], [0.0, 4.0]])]
)
print("response at n=0:", [v.tolist() for v in logit_response(0.0, game, MixedProfile.uniform(game.form)).vectors])

# Follow the branch by arc length in (x, log n): each tangent prediction is
# corrected by Newton, and every recorded point is a logit equilibrium at its n.
trace = trace_logit_path(game, n_final=50.0, tol=1e-12)
print(f"{len(trace.entries)} points traced; a few of them:")
for entry in trace.entries[:: max(1, len(trace.entries) // 6)]:
    probs = ", ".join(f"{v[0]:.4f}" for v in entry.profile.vectors)
    print(f"  n={entry.n:10.4f}  P(action 0)=({probs})  residual={entry.residual:.1e}")
print("terminal nash residual:", trace.terminal_nash_residual)

# Pushing the precision further shrinks the Nash residual of the endpoint.
for n_final in (50.0, 200.0, 800.0):
    residual = trace_logit_path(game, n_final, tol=1e-12).terminal_nash_residual
    print(f"n_final={n_final:5g}: nash residual {residual:.3e}")

# solve_newton refines a nearby point at a fixed n with plain Newton steps; at
# n=2 the uniform profile is still near enough to land on the traced branch.
direct = solve_newton(2.0, game, MixedProfile.uniform(game.form), tol=1e-12)
print("direct solve at n=2:", [np.round(v, 6).tolist() for v in direct.vectors])
