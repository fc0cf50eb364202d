#!/usr/bin/env python3
"""The arithmetic-geometric mean trick that turns the signomial constraints
into geometric-program constraints: a posynomial is replaced by a monomial
lower bound that touches it at the anchor point."""

import numpy as np

from swiptsec import condense, posynomial

# f(p1, p2) = p1 + p2, condensed at the anchor (4, 1).
posy = posynomial(2, [(1.0, {0: 1}), (1.0, {1: 1})])
anchor = np.array([4.0, 1.0])
mono = condense(posy, anchor)

# Each term's share c_t of the posynomial at the anchor is its weight in the
# bound sum_t f_t >= prod_t (f_t / c_t)^{c_t}; here each term is one variable,
# so the shares are also the monomial's exponents.
terms = posy.term_values(anchor)
print(f"term shares at anchor {anchor}: {terms / terms.sum()}")
print(f"monomial exponents: {mono.exponents[0]} coefficient {mono.coeffs[0]:.6f}\n")

print(f"{'point':>12} {'posynomial':>12} {'monomial':>12} {'gap':>10}")
for x in [anchor, (1.0, 1.0), (2.0, 3.0), (8.0, 0.5), (0.2, 0.2)]:
    x = np.asarray(x, dtype=float)
    gap = posy.value(x) - mono.value(x)
    print(f"{str(x):>12} {posy.value(x):12.6f} {mono.value(x):12.6f} {gap:10.6f}")

print("\nThe gap is zero at the anchor and nonnegative everywhere else, so")
print("substituting the monomial into a denominator only shrinks the feasible")
print("set: every solution of the condensed program is feasible for the true")
print("one, and re-anchoring at that solution tightens the next iteration.")
