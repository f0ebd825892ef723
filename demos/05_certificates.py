"""Numerical certificates: uniform approximation and full-rank reconstruction.

Run with: python demos/05_certificates.py
"""

from logitgraph import StrategicGameForm, convergence_study, immersion_rank_check
from logitgraph.io import render

form = StrategicGameForm((2, 2))

# How far does the Nash reconstruction sit from the logit reconstruction of
# the same sampled targets? The profile part must stay under the proven bound
# max |A_i| * eps*(n); the full gap is recorded and shrinks with n.
report = convergence_study(form, [1.0, 10.0, 100.0, 1000.0], samples=50, seed=42)
print(render(report, "csv"))

# The reconstruction, read as a map from payoff space to (payoffs, profile),
# should have full-rank derivative everywhere: that is what makes the logit
# graph a manifold of payoff-space dimension. The smallest singular value of
# the exact (implicit-function) derivative over sampled targets certifies it.
for n in (1.0, 10.0):
    rank = immersion_rank_check(n, form, sample_points=5, seed=0)
    print(render(rank, "json"), end="")
