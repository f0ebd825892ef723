"""The softmax displacement map, its Jacobian, and the water-filling limit.

Run with: python demos/02_displacement_and_water_filling.py
"""

import numpy as np

from logitgraph import (
    alpha_star,
    epsilon_bound,
    g_jacobian,
    g_map,
    h_exact,
    h_numeric,
    is_cl_matrix,
)

v = np.array([1.0, 0.0, -0.5])

# g_map shifts v by the softmax of n*v: the coordinate sum always grows by
# exactly 1, and the shift is a probability vector.
for n in (0.5, 2.0, 20.0):
    g = g_map(n, v)
    print(f"n={n:5g}  g(v)={np.round(g, 6)}  sum grows by {g.sum() - v.sum():.12f}")

# The Jacobian has positive diagonal, negative off-diagonal, and unit column
# sums, which makes it invertible at every point.
jac = g_jacobian(2.0, v)
print("jacobian at n=2:\n", np.round(jac, 4))
print("column sums:", jac.sum(axis=0), " CL matrix:", is_cl_matrix(jac))

# Inverting g_map numerically: h_numeric solves g(x) = y by damped Newton.
y = g_map(2.0, v)
x = h_numeric(2.0, y, tol=1e-12)
print("inverse recovers v with error", float(np.abs(x - v).max()))

# As n grows the inverse approaches the water-filling map: clip y at the level
# where the overshoot mass is exactly 1. The overshoot is the simplex
# projection of y.
y = np.array([2.0, 1.4, -0.3, 0.1])
level = alpha_star(y)
split = h_exact(y)
print("water level:", level)
print("clipped vector:", split.h_value, " projection:", split.residual)

# The distance between the numeric inverse and the limit map is controlled by
# d * epsilon_star(n), where epsilon_star solves eps*(1+exp(eps*n)) = 1.
print("n      eps*(n)      limit-map distance      bound d*eps*")
for n in (1.0, 10.0, 100.0, 1000.0):
    eps = epsilon_bound(n)
    gap = float(np.abs(h_numeric(n, y, tol=1e-12) - split.h_value).max())
    print(f"{n:6g} {eps:.6f}   {gap:.3e}            {len(y) * eps:.3e}")
