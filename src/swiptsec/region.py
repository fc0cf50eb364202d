"""Pareto boundary sweeps, the time-sharing convex hull, and the exhaustive
grid-search oracle used to cross-check the condensation solver: a 2-D grid
over (p1, p2) with closed-form splits and one zoom."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import permutations
from typing import Optional

import numpy as np

from .metrics import max_min_objective, secrecy_rates, tin_rates
from .model import (BAD_VALUE, DIMENSION_MISMATCH, ConfigError, DecodingOrder,
                    InfeasibleError, NumericalFailureError, OperatingPoint,
                    SystemConfig, Weights, max_splits)
from .solver import FEAS_TOL, SECURE, check_problem, iterate, variable_box

# Rates below this are reported as zero in region output; they correspond to
# users pinned at the positivity floor of the GP variables.
RATE_RENDER_FLOOR = 1e-4

# Weighted solves clamp vanishing (but nonzero) weights here; exact zeros
# instead drop the user's rate constraint entirely (the axis-endpoint solve).
ALPHA_FLOOR = 1e-3


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
    polished: bool             # the exact-row polish, not the loop, ended the solve


@dataclass
class RegionBoundary:
    points: list
    failures: list
    hull: np.ndarray


def check_two_user(cfg: SystemConfig, grid=None, resolution=None) -> None:
    """Raise one ConfigError listing every violation unless ``cfg`` has two
    users, ``grid`` (unless None) is an integer >= 2 and ``resolution``
    (unless None) one >= 11: the check of sweep, the oracle and the CLI."""
    bad = [(BAD_VALUE, name, f"must be an integer >= {least}, got {value!r}")
           for name, value, least in (("grid", grid, 2), ("resolution", resolution, 11))
           if not (value is None or isinstance(value, (int, np.integer)) and value >= least)]
    if cfg.num_users != 2:
        bad.append((BAD_VALUE, "num_users",
                    f"sweeps and the oracle need two users, got {cfg.num_users}"))
    if bad:
        raise ConfigError(bad)


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
    branches.  Failed points are recorded, not fatal.  What check_two_user
    rejects, an invalid ``psi`` override or mode raises ConfigError.

    Each solve starts from a solved neighbour where one exists.  Interior
    weights continue along the boundary per decoding order: each starts at
    _predicted_start from the order's last two interior solves, with the
    multipliers of the last (its ``duals``).  The alpha1 = 1 endpoint
    starts there too, without multipliers, as it drops the silent user's
    rate row.  At either endpoint the second decoding order starts at the
    first order's solution at that weight, with its multipliers: at one
    weight both orders' rows have the same layout.  So three solves start
    cold (two in reliable mode): the first order's alpha1 = 0 endpoint and
    each order's first interior weight.  The endpoint is a worse start for
    that weight than the cold point, and the other order's solution there
    can lead onto a zero-objective plateau that continuation then carries
    along the branch.  A failed point's successor in its order starts cold.
    Every start meets every constraint.  A solve with a start begins with
    the exact-row polish from it and reaches the condensation loop only
    where that polish is rejected.
    """
    check_two_user(cfg, grid=grid)
    if psi is not None:
        cfg = replace(cfg, eh_demands=psi)

    orders = ([DecodingOrder(p) for p in permutations(range(2))]
              if mode == SECURE else [None])
    points, failures = [], []
    # The SolveReports of the last two interior solves of each order, latest last.
    history = {order: [] for order in orders}
    for alpha1 in np.linspace(0.0, 1.0, grid):
        interior = alpha1 not in (0.0, 1.0)
        weights = _clamped_weights(alpha1) if interior else Weights.pair(alpha1)
        first = None        # the first order's SolveReport at this endpoint
        for order in orders:
            if first is not None:
                start, duals = first.op, first.duals
            else:       # no history yet at alpha1 = 0: a cold start
                start = _predicted_start(cfg, history[order])
                duals = (history[order][-1].duals
                         if interior and start is not None else None)
            try:
                rep = iterate(cfg, weights, order, mode, start=start, duals=duals)
            except (InfeasibleError, NumericalFailureError) as exc:
                failures.append({"alpha1": float(alpha1),
                                 "order": order.one_based() if order else None,
                                 "error": type(exc).__name__,
                                 "message": str(exc)})
                history[order] = []
                continue
            if interior:
                history[order] = history[order][-1:] + [rep]
            else:
                first = rep
            points.append(BoundaryPoint(
                alpha=np.array([alpha1, 1.0 - alpha1]), weights=weights,
                rates=render_rates(rep.rates), rates_raw=rep.rates.copy(),
                op=rep.op, order=rep.order, iterations=rep.iterations,
                converged=rep.converged, non_monotone=rep.non_monotone,
                optimizer_failures=rep.optimizer_failures,
                newton_steps=rep.newton_steps, polished=rep.polished))

    hull = (time_share_hull([pt.rates for pt in points])
            if points else np.empty((0, 2)))
    return RegionBoundary(points=points, failures=failures, hull=hull)


def _predicted_start(cfg: SystemConfig, history: list) -> Optional[OperatingPoint]:
    """Start of the next interior solve from the SolveReports of the previous
    ones (oldest first): none, the one solution, or the secant step 2
    theta_-1 - theta_-2 on log powers with each split at its best value
    there, min(1, max_splits); a rate rises with its own split alone, so
    these splits give every user its highest rate at those powers.  The
    last solution is the start instead when the secant leaves the power box
    of variable_box by more than FEAS_TOL (in log), which means a bound
    became active between the two weights, or when a best split is not
    above its floor there.

    So every start meets every constraint: it lies in the box, each demand
    is met (at the best split, or at the last solution), and the harvesting
    rows do not depend on the weight; iterate sets lambda in closed form.
    """
    if len(history) < 2:
        return history[-1].op if history else None
    older, last = (rep.op for rep in history)
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
    intermediate points are removed.  Differences at rounding level, 8
    machine epsilons of the largest rate, do not count: abscissae that
    close are one, whose vertex is the upper right corner of the points
    there, and a point that close to the line through its neighbours is
    collinear, so the vertices do not depend on rounding noise in the
    rates.  No tuple, or one that is not a finite pair, raises ConfigError.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ConfigError([(BAD_VALUE, "points", "need at least one rate tuple")])
    if pts.shape[1] != 2:
        raise ConfigError([(DIMENSION_MISMATCH, "points", "need two rates per tuple")])
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise ConfigError([(BAD_VALUE, "points",
                            f"must be finite, got {pts[~finite].tolist()}")])
    x_max = pts[:, 0].max()
    y_max = pts[:, 1].max()
    cand = np.vstack([pts, [[0.0, y_max], [x_max, 0.0]]])
    tol = 8 * np.finfo(float).eps * float(max(x_max, y_max))

    # One candidate per abscissa, scanned left to right: the upper right
    # corner of the candidates at it, which dominates each of them.
    column = []
    for x, y in sorted(cand.tolist()):
        if column and x - column[-1][0] <= tol:
            column[-1] = (x, max(y, column[-1][1]))
        else:
            column.append((x, y))
    chain = []
    for p in column:
        while len(chain) >= 2:
            ox, oy = chain[-2]
            ax, ay = chain[-1]
            # The cross product over |p - o| is a's distance below the line
            # from o to p.
            if ((ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox)
                    >= -tol * math.hypot(p[0] - ox, p[1] - oy)):
                chain.pop()
            else:
                break
        chain.append(p)
    if chain[-1][1] > 0:
        chain.append((chain[-1][0], 0.0))
    return np.array(chain)


def hull_height(hull: np.ndarray, x: float) -> float:
    """Piecewise-linear height of the hull at abscissa x (for dominance
    checks); 0 beyond the right end and on an empty hull."""
    keep = np.diff(hull[:, 0], prepend=-np.inf) > 0
    hx, hy = hull[keep, 0], hull[keep, 1]
    if hx.size == 0 or x > hx[-1]:
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


def _oracle_grid(cfg, mode, support, order, p1, p2):
    """The weight-free part of a pass over the grid p1 x p2: the powers,
    each user's best split, which cells meet the demands, and the rates.
    A cell meets the demands when every best split is > 0, the rule of
    infeasible_demands.  A user outside ``support`` (a silent user) gets
    split 0: it does not change the objective and harvests the most."""
    powers = np.empty((p1.size, p2.size, 2))
    powers[..., 0] = p1[:, None]
    powers[..., 1] = p2
    splits = max_splits(cfg, powers)
    feasible = (splits[..., 0] > 0.0) & (splits[..., 1] > 0.0)
    splits = np.maximum(splits, 0.0)
    splits[..., ~support] = 0.0
    if mode == SECURE:
        rates = secrecy_rates(cfg, powers, splits, order)
    else:
        rates = tin_rates(cfg, powers, splits)
    return powers, splits, feasible, rates


def _coarse_grid(cfg, mode, support, order, resolution):
    """_oracle_grid on the full power box at ``resolution``, computed once
    per config object, mode, decoding order (secure mode only), resolution
    and set of weighted users, and kept read-only with the config
    (SystemConfig.cached)."""
    key = ("oracle", mode, order.users if mode == SECURE else None, resolution,
           support.tobytes())
    return cfg.cached(key, lambda: _oracle_grid(
        cfg, mode, support, order,
        *(np.linspace(0.0, hi, resolution) for hi in cfg.power_budget)))


def _best_cell(grid, alpha):
    """The (objective, rates, OperatingPoint) of the grid's best cell under
    the weights ``alpha``, or None when no cell meets the demands."""
    powers, splits, feasible, rates = grid
    obj = max_min_objective(rates, alpha)
    # A cell whose rates overflowed or are NaN is not a point (the sum is
    # finite only when every term is).
    feasible = feasible & np.isfinite(obj + rates[..., 0] + rates[..., 1])
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
    then refines the powers once around the incumbent: the same resolution
    on a window of one coarse step either side.  Nothing but the weights
    changes the coarse grid's splits, feasibility and rates between the
    calls of a sweep, so they are computed once per config object, mode,
    decoding order, resolution and set of weighted users, and kept with
    the config (SystemConfig.cached); each call scores them under its
    weights and evaluates its own zoom window.  The zoom refines only the
    coarse incumbent, so the result is no bound and is not monotone in
    ``resolution``: on a secure instance with several local maxima a finer
    grid can score lower (0.6088 -> 0.6070 bit at resolution 51 -> 101 on
    one random config).
    It shares only the eavesdropper's Gram minors with the GP, never a
    condensed row or the optimizer.  No cell that meets the demands at
    finite rates raises InfeasibleError; Gram minors that overflow raise
    NumericalFailureError, which chains the cause, as in iterate; what
    check_two_user and then check_problem reject raises ConfigError.
    """
    check_two_user(cfg, resolution=resolution)
    check_problem(cfg, alpha, order, mode)
    if order is None:
        order = DecodingOrder((0, 1))
    pmax = cfg.power_budget
    support = alpha.alpha > 0

    try:
        coarse = _best_cell(_coarse_grid(cfg, mode, support, order, resolution),
                            alpha)
    except ArithmeticError as exc:
        raise NumericalFailureError(f"{type(exc).__name__}: {exc}") from exc
    if coarse is None:
        raise InfeasibleError(
            f"no grid point satisfies the harvesting demands {cfg.eh_demands}")
    best_value, best_rates, best_op = coarse

    # One zoom: same resolution on a +/- one-coarse-step window per power.
    fine_axes = []
    for c, hi in zip(best_op.powers, pmax):
        step = hi / (resolution - 1)
        fine_axes.append(np.linspace(max(c - step, 0.0), min(c + step, hi),
                                     resolution))
    fine = _best_cell(_oracle_grid(cfg, mode, support, order, *fine_axes), alpha)
    if fine is not None and fine[0] > best_value:
        best_value, best_rates, best_op = fine
    return OracleResult(objective=best_value, rates=best_rates, op=best_op)
