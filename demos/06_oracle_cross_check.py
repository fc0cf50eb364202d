#!/usr/bin/env python3
"""Cross-validate the condensation solver against the exhaustive reliable
oracle, which knows nothing about posynomials: it samples the two
full-power faces p1 = P1 and p2 = P2, where every reliable optimum lies,
gives each user its closed-form best split (`max_splits`), drops points
where no split meets a demand, and returns its best sample together with a
certified upper bound on the optimum."""

import time

import numpy as np

from swiptsec import Weights, iterate, oracle_grid_search
from swiptsec.scenarios import (random_config, strong_interference,
                                weak_interference)
from swiptsec.solver import RELIABLE

cases = [
    ("weak, demands 0.8", weak_interference(eh_demands=(0.8, 0.8))),
    ("strong, demands 1.0", strong_interference(eh_demands=(1.0, 1.0))),
]
rng = np.random.default_rng(2024)
for i in range(3):
    cases.append((f"random {i}", random_config(rng, eh_fraction=0.4)))

print(f"{'instance':<22} {'alpha1':>6} {'solver':>10} {'oracle':>10} {'bound':>10} "
      f"{'gap':>9} {'time':>7}")
for label, cfg in cases:
    for alpha1 in (0.5, 1.0):
        weights = Weights.pair(alpha1)
        t0 = time.time()
        oracle = oracle_grid_search(cfg, RELIABLE, weights, resolution=51)
        report = iterate(cfg, weights, None, RELIABLE)
        gap = report.objective - oracle.objective
        print(f"{label:<22} {alpha1:6.2f} {report.objective:10.6f} "
              f"{oracle.objective:10.6f} {oracle.bound:10.6f} {gap:+9.6f} "
              f"{time.time() - t0:6.2f}s")

print("\nPositive gaps mean the solver found a better point than the best")
print("face sample; no solve exceeds the bound, so the condensation")
print("iterations leave at most bound - solver on the table.")
