#!/usr/bin/env python3
"""One weighted max-min solve, iteration by iteration: the condensed GP
optimum climbs monotonically and the final point is re-scored with exact
formulas."""

import numpy as np

from swiptsec import Weights, harvested_energies, iterate, legitimate_rates
from swiptsec.scenarios import weak_interference
from swiptsec.solver import RELIABLE

cfg = weak_interference(eh_demands=(0.8, 0.8))
weights = Weights.pair(0.5)

report = iterate(cfg, weights, None, RELIABLE)

print("weak benchmark, demands (0.8, 0.8), equal weights\n")
print("iter   log2 lambda (GP, bit)    weighted min-rate")
for i, bit in enumerate(report.lam_trace, 1):
    print(f"{i:4d}   {bit:21.8f}    {bit * 0.5:.8f}")
print(f"\nconverged: {report.converged} in {report.iterations} iterations")
print(f"final powers {np.round(report.op.powers, 6)}, splits {np.round(report.op.splits, 6)}")
print(f"reported rates {np.round(report.rates, 6)} (published symmetric point: 1.04026)")
print(f"harvested {np.round(harvested_energies(cfg, report.op).per_user, 6)} vs demand {cfg.eh_demands}")
print(f"exact rates at the point {np.round(legitimate_rates(cfg, report.op), 6)}")
print(f"condensation gaps at the solution: {report.gaps}")
