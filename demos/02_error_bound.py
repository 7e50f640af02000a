#!/usr/bin/env python3
"""The low-rank filter's error is exactly the first dropped eigenvalue.

Keeping the ceil(alpha * n) largest-modulus eigenterms of a symmetric matrix
leaves a residual whose spectral norm equals the modulus of the first
eigenvalue left out. That makes the approximation error a dial: pick alpha,
read off the guaranteed error before doing any work.
"""

import numpy as np

from graphforge import (
    approx_error_bound,
    eigendecompose,
    erdos_renyi,
    low_rank_approx,
    modularity_matrix,
)
from graphforge.spectral import retained_rank

rng = np.random.default_rng(11)
m = rng.normal(size=(40, 40))
m = (m + m.T) / 2
eig = eigendecompose(m)

print("random symmetric 40x40")
print("alpha   kept   predicted error   measured ||M - M~||_2")
for alpha in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
    approx = low_rank_approx(eig, alpha)
    predicted = approx_error_bound(eig, alpha)
    measured = np.linalg.norm(m - approx, 2)
    kept = retained_rank(alpha, eig.order)
    print(f"{alpha:5.2f}   {kept:4d}   {predicted:15.8f}   {measured:20.8f}")

print()
b = modularity_matrix(erdos_renyi(100, 0.08, seed=3))
eig_b = eigendecompose(b)
print("modularity matrix of G(100, 0.08): the bound is non-increasing in alpha")
bounds = [approx_error_bound(eig_b, a) for a in np.linspace(0.0, 1.0, 11)]
print("  " + "  ".join(f"{v:.3f}" for v in bounds))
