"""The invariant checks that ``swiptsec verify`` and the acceptance gate
share.  Each returns ``(passed, worst, detail)``: whether the invariant held,
the worst value measured against its tolerance, and a one-line summary.  A
check that meets a NumericalFailureError (a rate, energy or covariance that
overflowed, is NaN or is not positive definite) fails (worst = inf) and
names it, instead of passing on what it skipped."""

from functools import wraps
from itertools import chain, combinations, permutations, product

import numpy as np

from . import region, solver
from .metrics import (eve_rate_chain, eve_sum_rate, legitimate_rates,
                      secrecy_corner, subset_constraints_satisfied)
from .model import (DecodingOrder, InfeasibleError, NumericalFailureError,
                    OperatingPoint, Weights, infeasible_demands,
                    max_deliverable_energy)
from .scenarios import random_config

CHAIN_TOL = 1e-9
CONDENSE_TOL = 1e-9
SUBSET_TOL = 1e-6
SHORTFALL_TOL = 0.05        # relative, solver below the grid oracle


def _finite(values, what):
    """``values`` as an array; NumericalFailureError naming ``what`` if one
    entry overflowed or is NaN."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise NumericalFailureError(f"{what} not finite: {values}")
    return values


def _fails_on_numerical_failure(check):
    @wraps(check)
    def guarded(*args, **kwargs):
        try:
            return check(*args, **kwargs)
        except NumericalFailureError as exc:
            return False, np.inf, str(exc)
    return guarded


@_fails_on_numerical_failure
def chain_rule(rng, cases, cfg=None):
    """Per-user eavesdropper rates sum to the block sum rate over every order
    and subset: on ``cfg`` if given, then on ``cases`` random configs (users
    2, 3, 2, 3, ...; antennas 2, 2, 4, 4, ...), powers drawn after each."""
    randoms = (random_config(rng, num_users=(2, 3)[i % 2],
                             num_eve_antennas=(2, 4)[(i // 2) % 2])
               for i in range(cases))
    worst, count = 0.0, 0
    for c in chain([cfg] if cfg is not None else [], randoms):
        p = rng.uniform(0, c.power_budget)
        users = range(c.num_users)
        for order in map(DecodingOrder, permutations(users)):
            for s in chain.from_iterable(combinations(users, n)
                                         for n in range(1, c.num_users + 1)):
                total = eve_rate_chain(c, p, order, s)[list(s)].sum()
                gap = abs(total - eve_sum_rate(c, p, s))
                _finite(gap, f"chain-rule gap on subset {s}")
                worst = max(worst, gap)
                count += 1
    return (worst <= CHAIN_TOL, worst, f"worst gap {worst:.2e} over {count} "
            f"order/subset cases (tol {CHAIN_TOL:.0e})")


def condensation(rng, cases):
    """A condensed monomial never exceeds its posynomial and meets it at the
    anchor, on ``cases`` posynomials: 1-6 terms, 1-4 variables, coefficients
    e^U(-1.5, 1.5), exponents U(-2.5, 2.5), anchor and 5 points e^U(-0.8, 0.8)."""
    worst_over, worst_anchor = 0.0, 0.0
    for _ in range(cases):
        nv = int(rng.integers(1, 5))
        nt = int(rng.integers(1, 7))
        posy = solver.Posynomial(np.exp(rng.uniform(-1.5, 1.5, nt)),
                                 rng.uniform(-2.5, 2.5, (nt, nv)))
        anchor = np.exp(rng.uniform(-0.8, 0.8, nv))
        mono = solver.condense(posy, anchor)
        worst_anchor = max(worst_anchor, abs(mono.value(anchor) - posy.value(anchor)))
        for _ in range(5):
            x = np.exp(rng.uniform(-0.8, 0.8, nv))
            worst_over = max(worst_over, mono.value(x) - posy.value(x))
    worst = max(worst_over, worst_anchor)
    return (worst <= CONDENSE_TOL, worst,
            f"overshoot {worst_over:.2e}, anchor gap {worst_anchor:.2e} over "
            f"{cases} cases (tol {CONDENSE_TOL:.0e})")


@_fails_on_numerical_failure
def subset_corners(cfg, rng):
    """Secrecy corners at 20 random points meet every subset sum constraint;
    ``worst`` is -inf when no corner was checked."""
    worst, checked, cases = -np.inf, 0, 0
    for _ in range(20):
        op = OperatingPoint(rng.uniform(0, cfg.power_budget),
                            rng.uniform(0, 1, cfg.num_users))
        legit = _finite(legitimate_rates(cfg, op), "legitimate rates")
        for order in map(DecodingOrder, permutations(range(cfg.num_users))):
            cases += 1
            # Clamped corners are only guaranteed inside the region when no
            # user's secrecy gap went negative.
            eve = _finite(eve_rate_chain(cfg, op.powers, order), "eavesdropper rates")
            if np.any(legit < eve):
                continue
            check = subset_constraints_satisfied(
                cfg, op, secrecy_corner(cfg, op, order), SUBSET_TOL)
            _finite(check.worst_violation, "subset constraint violation")
            worst = max(worst, check.worst_violation)
            checked += 1
            if not check.ok:
                return False, worst, f"violation {worst:.2e} on subset {check.worst_subset}"
    if not checked:
        return True, worst, (f"no corner checked: a secrecy gap was negative "
                             f"in all {cases} cases")
    return True, worst, (f"worst violation {worst:.2e} over {checked} of {cases} "
                         f"corners (tol {SUBSET_TOL:.0e})")


@_fails_on_numerical_failure
def energy_screen(cfg):
    """Demands that infeasible_demands rejects leave the grid oracle without
    a point; ``worst`` is the largest demand minus its deliverable limit."""
    limit = _finite(max_deliverable_energy(cfg), "deliverable energy")
    worst = float(np.max(cfg.eh_demands - limit))
    short = infeasible_demands(cfg).tolist()
    if not short:
        return True, worst, f"demands within deliverable energy {np.round(limit, 4)}"
    try:
        region.oracle_grid_search(cfg, solver.RELIABLE, Weights.pair(0.5),
                                  resolution=11)
    except InfeasibleError:
        return True, worst, (f"demands exceed deliverable energy for users "
                             f"{short}; the oracle finds no point")
    return False, worst, "demands exceed the closed-form limit but the oracle found a point"


def oracle_dominance(cfg, resolution):
    """At alpha1 = 0.25, 0.5, 0.75, in reliable mode and in secure mode with
    every decoding order, the solver and the grid oracle agree on
    feasibility, and the solver is at most SHORTFALL_TOL below."""
    worst = 0.0
    runs = [(solver.RELIABLE, None)] + [(solver.SECURE, DecodingOrder(users))
                                        for users in permutations(range(cfg.num_users))]
    for (mode, order), alpha1 in product(runs, (0.25, 0.5, 0.75)):
        where = f"alpha1={alpha1}, {mode}" + (f" order {order.one_based()}" if order else "")
        weights = Weights.pair(alpha1)
        # Solver first: overflowed Gram minors fail it with the message this
        # check reports, before the oracle raises the same failure.
        try:
            rep = solver.iterate(cfg, weights, order, mode)
        except InfeasibleError:
            rep = None
        except NumericalFailureError as exc:
            return False, worst, f"solver failed numerically at {where}: {exc}"
        try:
            oracle = region.oracle_grid_search(cfg, mode, weights, order,
                                               resolution=resolution)
        except InfeasibleError:
            oracle = None
        if rep is None and oracle is None:
            continue
        if rep is None:
            return False, worst, f"solver infeasible where the oracle found a point ({where})"
        if oracle is None:
            return False, worst, f"solver found a point where the oracle proved none ({where})"
        rel = max(oracle.objective - rep.objective, 0.0) / max(oracle.objective, 1e-12)
        worst = max(worst, rel)
        if rel > SHORTFALL_TOL:
            return False, worst, f"solver {rel:.1%} below oracle at {where}"
    return True, worst, f"worst relative shortfall {worst:.2%} (tol {SHORTFALL_TOL:.0%})"
