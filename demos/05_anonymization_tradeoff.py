#!/usr/bin/env python3
"""Privacy versus utility: can generated graphs be re-identified?

The distance-vector attack knows 5% of the node mapping and tries to align
the rest through shortest-path signatures. Sweeping alpha trades modularity
preservation (utility) against attack resistance (privacy): near alpha = 1
outputs are faithful and re-identifiable; at low alpha the attack collapses
toward random guessing while the modularity ratio stays useful.
"""

import numpy as np

from graphforge import (
    AttackConfig,
    PlantedPartitionConfig,
    compare,
    dv_attack,
    fit,
    planted_partition,
)
from graphforge.attack import random_guess_rate

graph, _ = planted_partition(
    PlantedPartitionConfig(n=300, communities=5, p_in=0.25, p_out=0.01, seed=50)
)
print(f"input: {graph.n} nodes, {graph.num_edges} edges; "
      f"random-guess rate {random_guess_rate(graph.n, 0.05):.4f}")
print()
print("alpha   attack success   modularity ratio")

# one eigendecomposition serves every alpha and seed
model = fit(graph)
for alpha in (1.0, 0.9, 0.5, 0.25, 0.1):
    forged = model.at(alpha)
    rates, ratios = [], []
    for trial in range(3):
        out = forged.sample(seed=1000 * trial + 7)
        rates.append(dv_attack(graph, out, AttackConfig(seed_fraction=0.05, seed=trial)))
        ratios.append(compare(graph, out, rng_seed=trial).modularity_ratio)
    print(f"{alpha:5.2f}   {np.mean(rates):14.3f}   {np.mean(ratios):16.3f}")
