#!/usr/bin/env python3
"""Generate random graphs that preserve a network's community structure.

Starts from a planted-partition graph with four communities, then forges
random look-alikes at several fidelity levels (alpha). High alpha keeps the
leading eigenstructure of the modularity matrix, so the maximized modularity
of the outputs tracks the input; low alpha randomizes it away.
"""

import numpy as np

from graphforge import (
    PlantedPartitionConfig,
    fit,
    louvain_maximize,
    planted_partition,
)

graph, planted = planted_partition(
    PlantedPartitionConfig(n=128, communities=4, p_in=14 / 31, p_out=2 / 96, seed=7)
)
_, q_input = louvain_maximize(graph, rng_seed=1)
print(f"input: {graph.n} nodes, {graph.num_edges} edges, "
      f"{planted.m} planted communities, maximized modularity {q_input:.4f}")
print()
print("alpha   mean Q*_out   modularity ratio")

# one eigendecomposition serves every alpha and seed
model = fit(graph)
for alpha in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
    forged = model.at(alpha, rule="truncate")
    q_outs = []
    for run in range(5):
        out = forged.sample(seed=100 * run + 1)
        _, q_out = louvain_maximize(out, rng_seed=1)
        q_outs.append(q_out)
    mean_q = float(np.mean(q_outs))
    print(f"{alpha:5.1f}   {mean_q:11.4f}   {mean_q / q_input:16.4f}")

print()
print("alpha = 1.0 with the truncate rule reproduces the input exactly:")
clone = model.at(1.0, rule="truncate").sample(seed=5)
print(f"  identical edge sets: {clone == graph}")
