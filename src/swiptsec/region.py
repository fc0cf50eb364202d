"""Pareto boundary sweeps, the time-sharing convex hull, and the exhaustive
oracle used to cross-check the condensation solver: in reliable mode a
search of the two full-power faces with a certified bound, in secure mode a
2-D grid over (p1, p2) with one zoom, both with closed-form splits."""

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
from .solver import (FEAS_TOL, SECURE, SolveReport, check_problem, feasible_start,
                     iterate, variable_box)

# Rates below this are reported as zero in region output; they correspond to
# users pinned at the positivity floor of the GP variables.
RATE_RENDER_FLOOR = 1e-4


def render_rates(rates) -> np.ndarray:
    out = np.array(rates, dtype=float)
    out[out < RATE_RENDER_FLOOR] = 0.0
    return out


@dataclass(frozen=True, eq=False)
class BoundaryPoint:
    """A swept point: the weights it solved, and the SolveReport of its
    solve, the one record of everything else; the rest are read-only views
    of them."""
    weights: Weights
    rates: np.ndarray          # rendered (floor-zeroed) effective rates
    report: SolveReport

    alpha = property(lambda self: self.weights.alpha)
    rates_raw = property(lambda self: self.report.rates)
    op = property(lambda self: self.report.op)
    order = property(lambda self: self.report.order)
    iterations = property(lambda self: self.report.iterations)
    converged = property(lambda self: self.report.converged)


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


def sweep(cfg: SystemConfig, mode: str, psi=None, grid: int = 21) -> RegionBoundary:
    """Trace the two-user Pareto boundary over a uniform weight grid: each
    point solves Weights.pair(alpha1) for its grid value alpha1, the weight
    it reports, however small an entry.

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
    weight both orders' rows have the same layout.  An interior weight
    with no solved neighbour in its order (each order's first interior
    weight, and a failed point's successor) starts at the cold point of
    feasible_start, without multipliers: the endpoint is a worse start for
    it, and the other order's solution there can lead onto a
    zero-objective plateau that continuation then carries along the
    branch.  Every start meets every constraint.  A solve with a start
    begins with the exact-row polish from it and reaches the condensation
    loop only where that polish is rejected; at an endpoint that polish,
    and the one after a GP, start the silent user at its power floor
    where that start is feasible and no worse.  So only the first order's
    alpha1 = 0 endpoint, and an endpoint after a failed point, solve
    without a start, GP first.
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
        weights = Weights.pair(alpha1)
        first = None        # the first order's SolveReport at this endpoint
        for order in orders:
            try:
                if first is not None:
                    start, duals = first.op, first.duals
                elif interior and not history[order]:
                    # No solved neighbour in this order: the cold point.
                    start, duals = feasible_start(cfg), None
                else:   # None at an endpoint with no history: GP first
                    start = _predicted_start(cfg, history[order])
                    duals = history[order][-1].duals if interior else None
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
            points.append(BoundaryPoint(weights, render_rates(rep.rates), rep))

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
    lo, hi = np.log(floors[:kk]), np.log(caps[:kk])
    log_p = 2.0 * np.log(last.powers) - np.log(older.powers)
    if ((log_p < lo - FEAS_TOL) | (log_p > hi + FEAS_TOL)).any():
        return last
    powers = np.exp(np.minimum(np.maximum(log_p, lo), hi))
    best = max_splits(cfg, powers)
    if (best <= floors[kk:]).any():
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
# Oracles
# ---------------------------------------------------------------------------

# Relative allowance on the face search's bound for rounding: the bound and
# the rates it caps are the same formula evaluated at nearby powers, each
# step correctly rounded, so they can disagree by a few ulps where they meet.
BOUND_ROUNDING = 16 * np.finfo(float).eps


@dataclass
class OracleResult:
    objective: float            # min_k R_eff_k / alpha_k at the best point
    rates: np.ndarray
    op: OperatingPoint
    bound: Optional[float] = None   # certified upper bound on the optimum (reliable mode)


def _best(rates, alpha: Weights) -> tuple:
    """The highest max-min objective under ``alpha`` over the rows of
    ``rates`` and the first row that has it, or (-inf, None) on no row: the
    one scorer of both oracles."""
    obj = max_min_objective(rates, alpha)
    if obj.size == 0:
        return -math.inf, None
    i = int(np.argmax(obj))
    return float(obj[i]), i


def _samples(cfg: SystemConfig, powers, score) -> tuple:
    """The one sampler of both oracles: the samples at ``powers`` (trailing
    K axis) whose best splits (max_splits) are all > 0, the rule of
    infeasible_demands, as (powers, splits, *score(powers, splits)) rows in
    row-major order.  A kept sample with a score that is not finite, for any
    user, or an ArithmeticError while scoring (an overflowed Gram minor
    normalisation), raises NumericalFailureError: iterate's rule for its
    final point."""
    splits = max_splits(cfg, powers)
    # np.take on the flat indices, as boolean indexing along the leading
    # axes costs about six times as much here.
    at = np.flatnonzero((splits[..., 0] > 0.0) & (splits[..., 1] > 0.0))
    np.maximum(splits, 0.0, out=splits)
    try:
        with np.errstate(all="ignore"):
            scores = score(powers, splits)
    except ArithmeticError as exc:
        raise NumericalFailureError(f"{type(exc).__name__}: {exc}") from exc
    rows = tuple(a.reshape(-1, a.shape[-1]).take(at, axis=0)
                 for a in (powers, splits, *scores))
    if not all(np.isfinite(a).all() for a in rows[2:]):
        i = np.flatnonzero(~np.isfinite(np.hstack(rows[2:])).all(axis=1))[0]
        raise NumericalFailureError(f"rates at powers {rows[0][i].tolist()} are not finite")
    return rows


def _result(value, points, i, bound=None) -> OracleResult:
    powers, splits, rates = points
    return OracleResult(objective=value, rates=rates[i].copy(),
                        op=OperatingPoint(powers[i], splits[i]), bound=bound)


def _faces(cfg: SystemConfig, resolution) -> tuple:
    """The two full-power faces p2 = P2 (user 1 free) and p1 = P1 (user 2
    free), each sampled at resolution**2 free powers from 0 to its cap: the
    _samples rows (powers, splits, rates) that meet the demands, and the
    per-interval upper bounds on the rates, one row per interval and in the
    same order.  Computed once per config object and resolution, and kept
    read-only with the config (SystemConfig.cached).

    The free user's rate rises with its power, as its best split does; the
    capped user's is largest at the highest split and the least
    interference.  So between two samples the free user's rate is at most
    its value at the upper sample, and the capped user's at most its rate
    under the upper sample's splits and the lower sample's interference.
    Every best split rises with every power, so the demands are met on a
    suffix of each face that ends at the corner (P1, P2), or nowhere; the
    interval below the suffix's first sample is bounded too, as it may hold
    feasible points.  No sample there (the corner misses the demands)
    raises InfeasibleError, and a kept rate or bound that is not finite
    NumericalFailureError (_samples).
    """
    def score(powers, splits):
        rates = tin_rates(cfg, powers, splits)
        # Sample i + 1 bounds the interval up to it from sample i; the
        # sample at zero power bounds only itself.
        bounds = rates.copy()
        below = tin_rates(cfg, powers[:, :-1], splits[:, 1:])
        for free in (0, 1):
            bounds[free, 1:, 1 - free] = below[free, :, 1 - free]
        return rates, bounds

    def build():
        n = resolution * resolution
        # [free user, sample, user], laid out so that each user's powers on
        # a face are contiguous: the kernels then run on long columns.
        powers = np.empty((2, 2, n)).transpose(0, 2, 1)
        for free in (0, 1):
            powers[free, :, 1 - free] = cfg.power_budget[1 - free]
            powers[free, :, free] = np.linspace(0.0, cfg.power_budget[free], n)
        *points, bounds = _samples(cfg, powers, score)
        if not len(bounds):
            raise InfeasibleError(
                f"no point satisfies the harvesting demands {cfg.eh_demands}")
        return tuple(points), bounds
    return cfg.cached(("faces", resolution), build)


def _face_search(cfg: SystemConfig, alpha: Weights, resolution) -> OracleResult:
    """The reliable oracle: the best sample of the full-power faces under
    ``alpha``, and the certified bound, the best interval bound."""
    points, bounds = _faces(cfg, resolution)
    value, i = _best(points[2], alpha)
    bound = _best(bounds, alpha)[0]
    return _result(value, points, i, bound=bound * (1.0 + BOUND_ROUNDING))


def _grid(cfg, order, p1, p2) -> tuple:
    """The _samples rows (powers, splits, rates) of the secure grid p1 x p2."""
    powers = np.empty((p1.size, p2.size, 2))
    powers[..., 0] = p1[:, None]
    powers[..., 1] = p2
    return _samples(cfg, powers, lambda p, s: (secrecy_rates(cfg, p, s, order),))


def _grid_search(cfg: SystemConfig, alpha: Weights, order: DecodingOrder,
                 resolution) -> OracleResult:
    """The secure oracle: the best cell of a 2-D (p1, p2) grid, computed
    once per config object, decoding order and resolution and kept
    read-only with the config (SystemConfig.cached), then of one zoom
    window around it."""
    coarse = cfg.cached(("oracle", order.users, resolution), lambda: _grid(
        cfg, order, *(np.linspace(0.0, hi, resolution) for hi in cfg.power_budget)))
    value, i = _best(coarse[2], alpha)
    if i is None:
        raise InfeasibleError(
            f"no grid point satisfies the harvesting demands {cfg.eh_demands}")
    best = coarse, i

    # One zoom: same resolution on a +/- one-coarse-step window per power.
    steps = cfg.power_budget / (resolution - 1)
    fine = _grid(cfg, order, *(np.linspace(max(c - step, 0.0), min(c + step, hi), resolution)
                               for c, step, hi in zip(coarse[0][i], steps, cfg.power_budget)))
    fine_value, j = _best(fine[2], alpha)
    if fine_value > value:
        value, best = fine_value, (fine, j)
    return _result(value, *best)


def oracle_grid_search(cfg: SystemConfig, mode: str, alpha: Weights,
                       order: Optional[DecodingOrder] = None,
                       resolution: int = 51) -> OracleResult:
    """The best max-min objective under ``alpha`` by exhaustive search with
    closed-form splits, independent of the GP: each candidate point gives
    every user its best split from ``max_splits``, as iterate reports it, a
    point where a best split is not > 0 (a demand met only at eta = 0, or
    not at all) is discarded, and the rest are sampled by _samples once per
    config object, whatever the weights.  A call scores its samples with
    max_min_objective and returns the first best.

    Reliable mode searches the two full-power faces, resolution**2 samples
    each.  Raising every power raises every rate under its best split, as
    the split rises with the received power, so every optimum has a user at
    its cap (the treating-interference-as-noise frontier result of
    Charafeddine, Sezgin & Paulraj, Allerton 2007).  ``objective`` is the
    best sample and ``bound`` the best per-interval bound (see _faces),
    raised by the relative rounding allowance BOUND_ROUNDING, a certified
    upper bound on the optimum; the samples and bounds are computed once
    per config object and resolution, so a call evaluates no rate.

    Secure mode searches a 2-D grid of (p1, p2), ``resolution`` points per
    axis, then the same resolution on a window of one coarse step either
    side of its best cell.  The coarse grid's cells are computed once per
    config object, decoding order and resolution, the window's on every
    call.  The zoom refines only the coarse incumbent, so the result is no
    bound (``bound`` is None) and is not monotone in ``resolution``: on a
    secure instance with several local maxima a finer grid can score lower
    (0.6088 -> 0.6070 bit at resolution 51 -> 101 on one random config).
    It shares only the eavesdropper's Gram minors with the GP.

    A kept sample with a rate (or face bound) that is not finite, for any
    user, or Gram minors that overflow raise NumericalFailureError, as in
    iterate (_samples); no sample meeting the demands InfeasibleError; what
    check_two_user and then check_problem reject ConfigError.
    """
    check_two_user(cfg, resolution=resolution)
    check_problem(cfg, alpha, order, mode)
    if mode == SECURE:
        return _grid_search(cfg, alpha, DecodingOrder((0, 1)) if order is None else order,
                            resolution)
    return _face_search(cfg, alpha, resolution)
