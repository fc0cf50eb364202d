"""Pareto boundary sweeps, the time-sharing convex hull, and the exhaustive
grid-search oracle used to cross-check the condensation solver: a 2-D grid
over (p1, p2) with closed-form splits and one zoom."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Optional

import numpy as np

from .model import (DecodingOrder, OperatingPoint, SystemConfig, Weights,
                    max_splits, with_demands)
from .solver import MODES, SECURE, InfeasibleError, NumericalFailureError, iterate

# Rates below this are reported as zero in region output; they correspond to
# users pinned at the positivity floor of the GP variables.
RATE_RENDER_FLOOR = 1e-4

# Weighted solves clamp vanishing (but nonzero) weights here; exact zeros
# instead drop the user's rate constraint entirely (the axis-endpoint solve).
ALPHA_FLOOR = 1e-3


class EmptyInputError(ValueError):
    pass


class NoFeasiblePointError(RuntimeError):
    pass


def render_rates(rates) -> np.ndarray:
    out = np.array(rates, dtype=float)
    out[out < RATE_RENDER_FLOOR] = 0.0
    return out


@dataclass
class BoundaryPoint:
    alpha: np.ndarray
    weights: Weights           # the weights solved (alpha after clamping)
    rates: np.ndarray          # rendered (floor-zeroed) effective rates
    rates_raw: np.ndarray
    op: OperatingPoint
    order: Optional[DecodingOrder]
    iterations: int
    converged: bool
    non_monotone: bool         # the solve's GP optima decreased somewhere
    optimizer_failures: int    # SLSQP failures and anchor returns of the solve


@dataclass
class RegionBoundary:
    points: list
    failures: list
    hull: np.ndarray


def _clamped_weights(alpha1: float) -> Weights:
    a = np.array([alpha1, 1.0 - alpha1])
    pos = a > 0
    a[pos] = np.maximum(a[pos], ALPHA_FLOOR)
    return Weights(a / a.sum())


def sweep(cfg: SystemConfig, mode: str, psi=None, grid: int = 21) -> RegionBoundary:
    """Trace the two-user Pareto boundary over a uniform weight grid.

    Endpoint weights (alpha_k = 0) become dedicated single-user solves where
    the silent user keeps only its harvesting and box constraints.  Secure
    mode solves every weight once per decoding order and keeps both
    branches.  Failed points are recorded, not fatal.  A ``psi`` override
    is validated like any config and raises ConfigError when it is invalid.
    """
    if cfg.num_users != 2:
        raise ValueError("sweeps are implemented for two users")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if grid < 2:
        raise ValueError(f"grid must be >= 2, got {grid}")
    if psi is not None:
        cfg = with_demands(cfg, psi)

    orders = ([DecodingOrder(p) for p in permutations(range(2))]
              if mode == SECURE else [None])
    points, failures = [], []
    for alpha1 in np.linspace(0.0, 1.0, grid):
        if alpha1 in (0.0, 1.0):
            weights = Weights.pair(alpha1)
        else:
            weights = _clamped_weights(alpha1)
        for order in orders:
            try:
                rep = iterate(cfg, weights, order, mode)
            except (InfeasibleError, NumericalFailureError) as exc:
                failures.append({"alpha1": float(alpha1),
                                 "order": order.one_based() if order else None,
                                 "error": type(exc).__name__,
                                 "message": str(exc)})
                continue
            points.append(BoundaryPoint(
                alpha=np.array([alpha1, 1.0 - alpha1]), weights=weights,
                rates=render_rates(rep.rates), rates_raw=rep.rates.copy(),
                op=rep.op, order=rep.order, iterations=rep.iterations,
                converged=rep.converged, non_monotone=rep.non_monotone,
                optimizer_failures=rep.optimizer_failures))

    hull = (time_share_hull([pt.rates for pt in points])
            if points else np.empty((0, 2)))
    return RegionBoundary(points=points, failures=failures, hull=hull)


# ---------------------------------------------------------------------------
# Time-sharing hull
# ---------------------------------------------------------------------------

def time_share_hull(points) -> np.ndarray:
    """Upper-right convex hull of two-user rate tuples.

    Returns the Pareto frontier of the convex closure (axis projections
    included), sorted by first coordinate; dominated, interior and collinear
    intermediate points are removed.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise EmptyInputError("need at least one rate tuple")
    if pts.shape[1] != 2:
        raise ValueError("hull computation is implemented for two users")
    x_max = pts[:, 0].max()
    y_max = pts[:, 1].max()
    cand = np.vstack([pts, [[0.0, y_max], [x_max, 0.0]]])

    # One candidate per abscissa (the highest), scanned left to right.
    by_x = {}
    for x, y in cand:
        if x not in by_x or y > by_x[x]:
            by_x[x] = y
    xs = sorted(by_x)
    chain = []
    for x in xs:
        p = (x, by_x[x])
        while len(chain) >= 2:
            ox, oy = chain[-2]
            ax, ay = chain[-1]
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) >= 0:
                chain.pop()
            else:
                break
        chain.append(p)
    if chain[-1][1] > 0:
        chain.append((chain[-1][0], 0.0))
    return np.array(chain)


def hull_height(hull: np.ndarray, x: float) -> float:
    """Piecewise-linear height of the hull at abscissa x (for dominance
    checks); 0 beyond the right end."""
    hx, hy = hull[:, 0], hull[:, 1]
    keep = np.concatenate([[True], np.diff(hx) > 0])
    hx, hy = hx[keep], hy[keep]
    if x > hx[-1]:
        return 0.0
    return float(np.interp(x, hx, hy))


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------

@dataclass
class OracleResult:
    objective: float            # min_k R_eff_k / alpha_k at the best point
    rates: np.ndarray
    op: OperatingPoint


def _oracle_pass(cfg, mode, alpha, order, p1, p2):
    g = cfg.gain_powers
    sig2 = cfg.processing_noise_vars
    rho2 = cfg.antenna_noise_vars
    sbar = cfg.eve_noise_total
    h = cfg.eve_channels

    # Each cell's best splits.  A cell meets the demands when every best
    # split is > 0, the rule of infeasible_demands.  A silent user's split
    # does not change the objective, and 0 harvests the most.
    powers = np.stack(np.meshgrid(p1, p2, indexing="ij"), axis=-1)
    splits = max_splits(cfg, powers)
    feasible = np.all(splits > 0.0, axis=-1)
    splits = np.clip(splits, 0.0, 1.0)
    splits[..., alpha.alpha == 0] = 0.0
    e1, e2 = splits[..., 0], splits[..., 1]

    # Legitimate rates on the (p1, p2) grid.
    r1 = np.log2(1.0 + e1 * p1[:, None] * g[0, 0]
                 / (sig2[0] + e1 * (rho2[0] + g[0, 1] * p2[None, :])))
    r2 = np.log2(1.0 + e2 * p2[None, :] * g[1, 1]
                 / (sig2[1] + e2 * (rho2[1] + g[1, 0] * p1[:, None])))

    if mode == SECURE:
        # Closed-form quadratic forms through the rank-one interferer
        # (Sherman-Morrison), vectorized over the interferer's power grid.
        n1 = float(np.real(np.vdot(h[0], h[0])))
        n2 = float(np.real(np.vdot(h[1], h[1])))
        x12 = abs(np.vdot(h[0], h[1])) ** 2

        def leak(pk, q_over_sbar):
            return np.log2(1.0 + pk * q_over_sbar)

        first, second = order.users
        if first == 0:
            q1 = (n1 - (p2 / sbar) * x12 / (1.0 + p2 * n2 / sbar)) / sbar
            le1 = leak(p1[:, None], q1[None, :])
            le2 = leak(p2[None, :], n2 / sbar)
        else:
            q2 = (n2 - (p1 / sbar) * x12 / (1.0 + p1 * n1 / sbar)) / sbar
            le2 = leak(p2[None, :], q2[:, None])
            le1 = leak(p1[:, None], n1 / sbar)
        r1 = np.maximum(r1 - le1, 0.0)
        r2 = np.maximum(r2 - le2, 0.0)

    rates = np.stack([r1, r2], axis=-1)
    active = alpha.alpha > 0
    obj = np.min(rates[..., active] / alpha.alpha[active], axis=-1)
    # A cell whose rates overflowed or are NaN is not a point.
    feasible &= np.isfinite(obj) & np.all(np.isfinite(rates), axis=-1)
    obj[~feasible] = -np.inf

    i, j = np.unravel_index(np.argmax(obj), obj.shape)
    if not np.isfinite(obj[i, j]):
        return None
    op = OperatingPoint(powers[i, j], splits[i, j])
    return float(obj[i, j]), rates[i, j].copy(), op


def oracle_grid_search(cfg: SystemConfig, mode: str, psi, alpha: Weights,
                       order: Optional[DecodingOrder] = None,
                       resolution: int = 51) -> OracleResult:
    """Exhaustive search over a 2-D grid of (p1, p2) with closed-form
    splits and one local zoom.

    Each grid point takes every user's best split from ``max_splits`` and
    evaluates the exact uncondensed objective there; points where a best
    split is not > 0 (a demand met only at eta = 0, or not at all) or where
    a rate is not finite are discarded.  The search then refines the powers once
    around the incumbent.  Independent of the GP machinery by construction.
    A ``psi`` override is validated like any config and raises ConfigError
    when it is invalid.
    """
    if cfg.num_users != 2:
        raise ValueError("the oracle is implemented for two users")
    if resolution < 11:
        raise ValueError(f"resolution must be >= 11, got {resolution}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if order is None:
        order = DecodingOrder((0, 1))
    if psi is not None:
        cfg = with_demands(cfg, psi)
    pmax = cfg.power_budget

    axes = [np.linspace(0.0, hi, resolution) for hi in pmax]
    coarse = _oracle_pass(cfg, mode, alpha, order, *axes)
    if coarse is None:
        raise NoFeasiblePointError(
            f"no grid point satisfies the harvesting demands {cfg.eh_demands}")
    best_value, best_rates, best_op = coarse

    # One zoom: same resolution on a +/- one-coarse-step window per power.
    fine_axes = []
    for c, hi in zip(best_op.powers, pmax):
        step = hi / (resolution - 1)
        fine_axes.append(np.linspace(max(c - step, 0.0), min(c + step, hi),
                                     resolution))
    fine = _oracle_pass(cfg, mode, alpha, order, *fine_axes)
    if fine is not None and fine[0] > best_value:
        best_value, best_rates, best_op = fine
    return OracleResult(objective=best_value, rates=best_rates, op=best_op)
