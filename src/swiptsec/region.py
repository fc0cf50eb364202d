"""Pareto boundary sweeps, the time-sharing convex hull, and the exhaustive
grid-search oracle used to cross-check the condensation solver: a 2-D grid
over (p1, p2) with closed-form splits and one zoom."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Optional

import numpy as np

from .metrics import max_min_objective, secrecy_rates, tin_rates
from .model import (DecodingOrder, OperatingPoint, SystemConfig, Weights,
                    max_splits, with_demands)
from .solver import (FEAS_TOL, MODES, SECURE, InfeasibleError,
                     NumericalFailureError, iterate, variable_box)

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
    optimizer_failures: int    # unconverged interior-point runs
    newton_steps: int          # Newton systems solved over the solve's GPs


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

    Interior weights continue along the boundary per decoding order: each
    starts at _predicted_start from the order's last two interior solutions
    (cold with none); endpoints and a failed point's successor start cold.
    Every start meets every constraint.
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
    # The last two interior solutions of each order, latest last.
    history = {order: [] for order in orders}
    for alpha1 in np.linspace(0.0, 1.0, grid):
        interior = alpha1 not in (0.0, 1.0)
        weights = _clamped_weights(alpha1) if interior else Weights.pair(alpha1)
        for order in orders:
            start = _predicted_start(cfg, history[order]) if interior else None
            try:
                rep = iterate(cfg, weights, order, mode, start=start)
            except (InfeasibleError, NumericalFailureError) as exc:
                failures.append({"alpha1": float(alpha1),
                                 "order": order.one_based() if order else None,
                                 "error": type(exc).__name__,
                                 "message": str(exc)})
                history[order] = []
                continue
            if interior:
                history[order] = history[order][-1:] + [rep.op]
            points.append(BoundaryPoint(
                alpha=np.array([alpha1, 1.0 - alpha1]), weights=weights,
                rates=render_rates(rep.rates), rates_raw=rep.rates.copy(),
                op=rep.op, order=rep.order, iterations=rep.iterations,
                converged=rep.converged, non_monotone=rep.non_monotone,
                optimizer_failures=rep.optimizer_failures,
                newton_steps=rep.newton_steps))

    hull = (time_share_hull([pt.rates for pt in points])
            if points else np.empty((0, 2)))
    return RegionBoundary(points=points, failures=failures, hull=hull)


def _predicted_start(cfg: SystemConfig, history: list) -> Optional[OperatingPoint]:
    """Start of the next interior solve from the previous ones (oldest
    first): none, the one solution, or the secant step 2 theta_-1 - theta_-2
    on log powers with each split at its best value there, min(1,
    max_splits); a rate rises with its own split alone, so these splits give
    every user its highest rate at those powers.  The last solution is the
    start instead when the secant leaves the power box of variable_box by
    more than FEAS_TOL (in log), which means a bound became active between
    the two weights, or when a best split is not above its floor there.

    So every start meets every constraint: it lies in the box, each demand
    is met (at the best split, or at the last solution), and the harvesting
    rows do not depend on the weight; iterate sets lambda in closed form.
    """
    if len(history) < 2:
        return history[-1] if history else None
    older, last = history
    kk = cfg.num_users
    floors, caps = variable_box(cfg)
    lo, hi = np.log(floors[1:kk + 1]), np.log(caps[1:kk + 1])
    log_p = 2.0 * np.log(last.powers) - np.log(older.powers)
    if np.any((log_p < lo - FEAS_TOL) | (log_p > hi + FEAS_TOL)):
        return last
    powers = np.exp(np.clip(log_p, lo, hi))
    best = max_splits(cfg, powers)
    if np.any(best <= floors[kk + 1:]):
        return last
    return OperatingPoint(powers, best)


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
    # Each cell's best splits.  A cell meets the demands when every best
    # split is > 0, the rule of infeasible_demands.  A silent user's split
    # does not change the objective, and 0 harvests the most.
    powers = np.stack(np.meshgrid(p1, p2, indexing="ij"), axis=-1)
    splits = max_splits(cfg, powers)
    feasible = (splits[..., 0] > 0.0) & (splits[..., 1] > 0.0)
    splits = np.maximum(splits, 0.0)
    splits[..., alpha.alpha == 0] = 0.0

    if mode == SECURE:
        rates = secrecy_rates(cfg, powers, splits, order)
    else:
        rates = tin_rates(cfg, powers, splits)
    obj = max_min_objective(rates, alpha)
    # A cell whose rates overflowed or are NaN is not a point (the sum is
    # finite only when every term is).
    feasible &= np.isfinite(obj + rates[..., 0] + rates[..., 1])
    obj[~feasible] = -np.inf

    i, j = np.unravel_index(np.argmax(obj), obj.shape)
    if not np.isfinite(obj[i, j]):
        return None
    op = OperatingPoint(powers[i, j], splits[i, j])
    return float(obj[i, j]), rates[i, j].copy(), op


def oracle_grid_search(cfg: SystemConfig, mode: str, alpha: Weights,
                       order: Optional[DecodingOrder] = None,
                       resolution: int = 51) -> OracleResult:
    """Exhaustive search over a 2-D grid of (p1, p2) with closed-form
    splits and one local zoom.

    Each grid point takes every user's best split from ``max_splits`` and
    scores the exact uncondensed objective there with the metrics kernels;
    points where a best split is not > 0 (a demand met only at eta = 0, or
    not at all) or where a rate is not finite are discarded.  The search
    then refines the powers once around the incumbent.  It shares only the
    eavesdropper's Gram minors with the GP, never a condensed row or the
    optimizer.  Gram minors that overflow raise NumericalFailureError,
    which chains the cause, as in iterate.
    """
    if cfg.num_users != 2:
        raise ValueError("the oracle is implemented for two users")
    if resolution < 11:
        raise ValueError(f"resolution must be >= 11, got {resolution}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if order is None:
        order = DecodingOrder((0, 1))
    pmax = cfg.power_budget

    axes = [np.linspace(0.0, hi, resolution) for hi in pmax]
    try:
        coarse = _oracle_pass(cfg, mode, alpha, order, *axes)
    except OverflowError as exc:
        raise NumericalFailureError(f"{type(exc).__name__}: {exc}") from exc
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
