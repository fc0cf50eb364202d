#!/usr/bin/env python3
"""Evaluate the closed-form quantities at a few operating points of the
symmetric two-user benchmark: per-user rates, harvested energies, and what
the multi-antenna eavesdropper can extract."""

import numpy as np

from swiptsec import (DecodingOrder, OperatingPoint, eve_rate_chain,
                      eve_sum_rate, harvested_energies, legitimate_rates,
                      secrecy_corner)
from swiptsec.scenarios import weak_interference

cfg = weak_interference(eve_geometry="parallel")
order = DecodingOrder((0, 1))

print("weak-interference benchmark, parallel eavesdropper vectors\n")
for p, eta, label in [
        ((1.0, 1.0), (1.0, 1.0), "full power, no harvesting"),
        ((1.0, 1.0), (0.56, 0.56), "full power, split for 0.8 energy"),
        ((1.0, 0.0), (1.0, 1.0), "user 1 alone"),
]:
    op = OperatingPoint(np.array(p), np.array(eta))
    rates = legitimate_rates(cfg, op)
    energy = harvested_energies(cfg, op).per_user
    leak = eve_rate_chain(cfg, op.powers, order)
    corner = secrecy_corner(cfg, op, order)
    print(f"{label}: p={p}, eta={eta}")
    print(f"  rates          {np.round(rates, 5)}")
    print(f"  energies       {np.round(energy, 5)}")
    print(f"  eavesdropper   {np.round(leak, 5)}  (sum {eve_sum_rate(cfg, op.powers, [0, 1]):.5f})")
    print(f"  secrecy corner {np.round(corner, 5)}\n")

print("The sum of the per-user eavesdropper rates is order-independent;")
print("the split between users is what the decoding order chooses:")
for perm in ((0, 1), (1, 0)):
    leak = eve_rate_chain(cfg, np.ones(2), DecodingOrder(perm))
    print(f"  order {tuple(u + 1 for u in perm)}: {np.round(leak, 5)} (sum {leak.sum():.5f})")
