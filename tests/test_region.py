import re
from itertools import combinations, product
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swiptsec import (ConfigError, DecodingOrder, InfeasibleError,
                      NumericalFailureError, Weights, build_gp,
                      harvested_energies, hull_height, iterate,
                      legitimate_rates, oracle_grid_search, region,
                      secrecy_corner, solver, subset_constraints_satisfied,
                      sweep, time_share_hull)
from swiptsec.checks import BOUND_TOL, SHORTFALL_TOL
from swiptsec.metrics import max_min_objective, tin_rates
from swiptsec.model import infeasible_demands, max_splits
from swiptsec.solver import RELIABLE, SECURE
from swiptsec.scenarios import (random_config, strong_interference,
                                weak_interference)

# One corner branch of the zero-demand secure region of the symmetric
# two-user benchmark, as published; the other branch is its mirror image.
BRANCH = np.array([
    [1.0, 0.0], [0.9689, 0.1213], [0.9395, 0.2224], [0.9116, 0.3081],
    [0.8853, 0.3819], [0.8603, 0.4461], [0.8365, 0.5025], [0.8139, 0.5525],
    [0.7923, 0.5972], [0.7717, 0.6374], [0.7208, 0.6688], [0.6645, 0.7019],
    [0.602, 0.737], [0.5322, 0.7741], [0.4536, 0.8136], [0.3642, 0.8556],
    [0.2614, 0.9005], [0.1417, 0.9485], [0.0, 1.0]])


class TestHull:
    def test_single_point_gets_axis_projections(self):
        hull = time_share_hull([[0.7, 0.6]])
        assert np.allclose(hull, [[0.0, 0.6], [0.7, 0.6], [0.7, 0.0]])

    def test_collinear_keeps_endpoints_only(self):
        hull = time_share_hull([[0.0, 1.0], [0.25, 0.75], [0.5, 0.5], [1.0, 0.0]])
        assert np.allclose(hull, [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("i,j,k", list(combinations(range(1, 10), 3)))
    def test_collinear_triples_keep_endpoints_only(self, i, j, k):
        # Three points on the line x + y = 1 at tenths: rounding puts the
        # middle one just above or below the line through the others, and
        # either way it is no vertex.
        pts = [[t / 10, 1 - t / 10] for t in (i, j, k)]
        hull = time_share_hull(pts)
        assert np.array_equal(hull, [[0.0, pts[0][1]], pts[0], pts[2], [pts[2][0], 0.0]])

    def test_rounding_noise_keeps_one_vertex(self):
        # The two decoding orders of the weak orthogonal-Eve secure sweep at
        # E=(0.8,0.8) once met at one point 2.2e-16 apart in each rate: the
        # hull keeps one vertex for both, in either input order, within
        # rounding of each, and its area holds.
        a = [0.45530136949111089, 0.45530136949113542]
        b = [0.45530136949111111, 0.4553013694911352]
        ends = [[0.0, 0.7], [0.7, 0.0]]
        hulls = [time_share_hull([ends[0], *pair, ends[1]]) for pair in ([a, b], [b, a])]
        assert np.array_equal(hulls[0], hulls[1])
        assert len(hulls[0]) == 3
        for single in (a, b):
            assert np.abs(hulls[0][1] - single).max() <= 1e-15
            assert (_area(hulls[0]) == pytest.approx(
                _area(time_share_hull([ends[0], single, ends[1]])), rel=0.0, abs=1e-15))

    def test_dominated_points_removed(self):
        hull = time_share_hull([[0.5, 0.5], [0.2, 0.2], [1.0, 0.0], [0.0, 1.0]])
        assert [0.2, 0.2] not in hull.tolist()

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, (40, 2))
        once = time_share_hull(pts)
        twice = time_share_hull(once)
        assert np.allclose(once, twice)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError, match="need at least one rate tuple"):
            time_share_hull(np.empty((0, 2)))

    def test_three_rates_rejected(self):
        with pytest.raises(ConfigError, match=r"points\]: need two rates per tuple"):
            time_share_hull([[0.5, 0.5, 0.5], [1.0, 0.0, 0.0]])

    @pytest.mark.parametrize("points", [[[np.nan, 1.0], [1.0, 0.0], [0.5, 0.6]],
                                        [[0.5, 0.6], [1.0, -np.inf]], [[np.inf, 1.0]]])
    def test_non_finite_rejected(self, points):
        # A rate tuple that is not finite is no vertex: it is named, not hulled.
        bad = [p for p in points if not np.isfinite(p).all()]
        with pytest.raises(ConfigError, match=re.escape(f"must be finite, got {bad}")):
            time_share_hull(points)

    def test_height_of_empty_hull_is_zero(self):
        # sweep returns an empty hull when every point fails.
        for x in (0.0, 0.5):
            assert hull_height(np.empty((0, 2)), x) == 0.0

    def test_published_branches_bridge(self):
        both = np.vstack([BRANCH, BRANCH[:, ::-1]])
        hull = time_share_hull(both)
        verts = [tuple(v) for v in np.round(hull, 4)]
        # The time-sharing segment joins the two mirror-image knees.
        assert (0.7717, 0.6374) in verts
        assert (0.6374, 0.7717) in verts
        ia = verts.index((0.6374, 0.7717))
        ib = verts.index((0.7717, 0.6374))
        assert ib == ia + 1
        # Branch tail points between the knees lie strictly under the bridge.
        inside = both[(both[:, 0] > 0.6374 + 1e-9) & (both[:, 0] < 0.7717 - 1e-9)]
        assert inside.size > 0
        for x, y in inside:
            assert hull_height(hull, x) > y + 1e-6
        # Hull vertices come from the input set (plus the axis anchors).
        pool = {tuple(v) for v in np.round(both, 4)}
        pool |= {(0.0, 1.0), (1.0, 0.0)}
        assert set(verts) <= pool

    def test_hull_dominates_inputs(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 2, (60, 2))
        hull = time_share_hull(pts)
        for x, y in pts:
            assert hull_height(hull, x) >= y - 1e-9


# Coordinates on a coarse grid make ties, repeated abscissae and collinear
# runs common; zeros put points on the axes.
_coordinate = st.one_of(st.just(0.0), st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5]),
                        st.floats(0.0, 2.0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(points=st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=30))
def test_hull_idempotent_and_dominates_inputs(points):
    hull = time_share_hull(points)
    assert np.array_equal(time_share_hull(hull), hull)
    for x, y in points:
        assert hull_height(hull, x) >= y - 1e-12


class TestSweep:
    @pytest.mark.parametrize("psi", [(np.nan, np.nan), (-1.0, -1.0),
                                     (0.8, 0.8, 0.8), (0.8,)])
    def test_invalid_demand_override_rejected(self, psi):
        with pytest.raises(ConfigError):
            sweep(weak_interference(), RELIABLE, psi=psi, grid=2)

    @pytest.mark.parametrize("grid", [1, 5.0])
    def test_grid_guard(self, grid):
        # check_two_user lists every violation in one ConfigError: a bad
        # grid, and on a three-user config the user count as well.
        with pytest.raises(ConfigError, match=r"grid\]: must be an integer >= 2"):
            sweep(weak_interference(), RELIABLE, grid=grid)
        k3 = random_config(np.random.default_rng(0), num_users=3)
        with pytest.raises(ConfigError) as info:
            sweep(k3, RELIABLE, grid=grid)
        assert [field for _, field, _ in info.value.violations] == ["grid", "num_users"]

    def test_weak_reliable_anchors(self):
        boundary = sweep(weak_interference(), RELIABLE, psi=(0.0, 0.0), grid=21)
        assert not boundary.failures
        assert len(boundary.points) == 21
        by_alpha = {round(pt.alpha[0], 3): pt.rates for pt in boundary.points}
        assert by_alpha[1.0][0] == pytest.approx(1.58496, abs=1e-3)
        assert by_alpha[1.0][1] == 0.0
        assert by_alpha[0.0][1] == pytest.approx(1.58496, abs=1e-3)
        assert by_alpha[0.0][0] == 0.0
        assert by_alpha[0.5][0] == pytest.approx(1.22239, abs=1e-3)

    def test_grid_two_gives_endpoints_only(self):
        boundary = sweep(weak_interference(), RELIABLE, psi=(0.0, 0.0), grid=2)
        assert len(boundary.points) == 2
        alphas = sorted(pt.alpha[0] for pt in boundary.points)
        assert alphas == [0.0, 1.0]
        # A point stores its weights once; alpha is a view of them.
        assert all(pt.alpha is pt.weights.alpha for pt in boundary.points)

    def test_secure_branch_count_and_symmetry(self):
        cfg = strong_interference(eve_geometry="parallel")
        boundary = sweep(cfg, SECURE, psi=(0.0, 0.0), grid=5)
        assert len(boundary.points) == 10          # two orders per weight
        # Symmetric instance: swapping users mirrors the boundary.
        rates = np.array([pt.rates for pt in boundary.points])
        mirrored = rates[:, ::-1]
        for r in rates:
            assert np.min(np.linalg.norm(mirrored - r, axis=1)) < 1e-3

    def test_secure_endpoints_unit_rate(self):
        for geometry in ("orthogonal", "parallel"):
            cfg = strong_interference(eve_geometry=geometry)
            boundary = sweep(cfg, SECURE, psi=(0.0, 0.0), grid=2)
            for pt in boundary.points:
                active = int(pt.alpha[0] == 1.0)
                assert pt.rates[1 - active] == pytest.approx(1.0, abs=1e-3)

    def test_infeasible_demand_reports_all_failures(self):
        boundary = sweep(weak_interference(), RELIABLE, psi=(2.0, 2.0), grid=5)
        assert not boundary.points
        assert len(boundary.failures) == 5
        assert boundary.hull.size == 0
        assert all(f["error"] == "InfeasibleError" for f in boundary.failures)

    def test_boundary_points_feasible_and_consistent(self):
        cfg = weak_interference(eh_demands=(0.8, 0.8))
        boundary = sweep(cfg, RELIABLE, grid=7)
        for pt in boundary.points:
            energies = harvested_energies(cfg, pt.op).per_user
            assert np.all(energies >= cfg.eh_demands - 1e-6)
            assert np.allclose(pt.rates_raw, legitimate_rates(cfg, pt.op), atol=1e-9)

    def test_secure_points_pass_subset_constraints(self):
        cfg = strong_interference(eve_geometry="parallel")
        boundary = sweep(cfg, SECURE, psi=(0.0, 0.0), grid=5)
        for pt in boundary.points:
            check = subset_constraints_satisfied(
                cfg, pt.op, pt.rates_raw, tol=1e-6)
            assert check.ok, f"violation {check.worst_violation} at alpha {pt.alpha}"


def _cold_solves(cfg, mode, grid):
    """The reports of solves given no start over sweep's weights and orders,
    keyed by (alpha1, order); None where the solve failed."""
    orders = ([DecodingOrder((0, 1)), DecodingOrder((1, 0))] if mode == SECURE
              else [None])
    reports = {}
    for alpha1 in np.linspace(0.0, 1.0, grid):
        weights = Weights.pair(alpha1)
        for order in orders:
            try:
                reports[alpha1, order] = iterate(cfg, weights, order, mode)
            except (InfeasibleError, NumericalFailureError):
                reports[alpha1, order] = None
    return reports


def _area(hull):
    return float(np.trapezoid(hull[:, 1], hull[:, 0])) if hull.size else 0.0


def _random_draw(seed, count):
    """The count-th two-user config drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        cfg = random_config(rng, num_users=2,
                            num_eve_antennas=int(rng.integers(1, 4)),
                            eh_fraction=float(rng.uniform(0, 0.8)))
    return cfg


def test_continuation_falls_back_where_the_prediction_misses_a_demand():
    # On this draw the secant prediction's best split for user 1 lies below
    # the GP's split floor at two weights, so clipping it up to the floor
    # would miss user 1's demand by ~7.8e-7.  Those solves start at the
    # last solution instead, and the sweep fails nowhere.  Starting them
    # cold took 560 GP solves.
    boundary = sweep(_random_draw(2026, 4), SECURE, grid=11)
    assert not boundary.failures
    assert sum(pt.iterations for pt in boundary.points) <= 400


def test_every_boundary_point_takes_its_best_splits():
    # Where one user binds, the max-min objective leaves the other user's
    # split free; each solve returns every split at its best value at the
    # final powers, so no user's rate is left below what its demand allows.
    # On this draw the interior-point solve left user 1 at split 0.139
    # against 0.204 at alpha1 = 0.1, order (1,2), and the hull area at
    # 0.06244.
    cfg = _random_draw(15, 1)
    boundary = sweep(cfg, SECURE, grid=11)
    assert not boundary.failures
    for pt in boundary.points:
        assert np.all(pt.op.splits >= max_splits(cfg, pt.op.powers))
    assert _area(boundary.hull) >= 0.0655


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 4),
       mode=st.sampled_from([RELIABLE, SECURE]), grid=st.integers(7, 11))
# The secant's best split for user 1 falls below its floor at two weights.
@example(seed=2026, count=4, mode=SECURE, grid=11)
def test_every_sweep_start_meets_every_row(seed, count, mode, grid):
    # Every start the sweep hands iterate lies in the box (no coordinate is
    # clipped when the GP is built there) and meets every row of that GP
    # within FEAS_TOL once lambda is set in closed form.
    cfg = _random_draw(seed, count)
    starts = []
    real_iterate = region.iterate

    def recording(cfg, weights, order, mode, start=None, duals=None):
        if start is not None:
            starts.append((weights, order, start))
        return real_iterate(cfg, weights, order, mode, start=start, duals=duals)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(region, "iterate", recording)
        sweep(cfg, mode, grid=grid)
    assert starts
    for weights, order, start in starts:
        gp = build_gp(cfg, weights, order or DecodingOrder((0, 1)), start, mode)
        x = np.concatenate([start.powers, start.splits])
        assert np.allclose(gp.anchor[1:], x, rtol=1e-12, atol=0.0)
        worst = solver._exact_lambda(gp.condensed, np.log(gp.anchor))[1]
        assert worst <= solver.FEAS_TOL


@pytest.mark.parametrize("cfg, mode, cold, crossed", [
    (strong_interference(eve_geometry="parallel"), SECURE,
     [(0.0, (1, 2)), (0.05, (1, 2)), (0.05, (2, 1))], [(0.0, (2, 1)), (1.0, (2, 1))]),
    (weak_interference(), RELIABLE, [(0.0, None), (0.05, None)], [])])
def test_sweep_starts_cold_only_without_a_solved_neighbour(cfg, mode, cold, crossed):
    # Every solve with a solved neighbour starts from it: interior weights
    # and the alpha1 = 1 endpoint continue along their order's branch, and
    # at either endpoint the second order starts at the first order's
    # solution there, with its multipliers.  Only the first order's alpha1
    # = 0 endpoint and each order's first interior weight start cold.
    calls = []
    real_iterate = region.iterate

    def recording(cfg, weights, order, mode, start=None, duals=None):
        calls.append((round(float(weights.alpha[0]), 12),
                      order.one_based() if order else None, start, duals))
        return real_iterate(cfg, weights, order, mode, start=start, duals=duals)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(region, "iterate", recording)
        boundary = sweep(cfg, mode, grid=21)
    assert not boundary.failures
    assert len(calls) == len(boundary.points)
    assert [(alpha1, order) for alpha1, order, start, _ in calls if start is None] == cold
    # Multipliers go with every start but the alpha1 = 1 endpoint's
    # prediction, as that endpoint drops the silent user's rate row.
    assert [(alpha1, order) for alpha1, order, start, duals in calls
            if alpha1 in (0.0, 1.0) and duals is not None] == crossed
    assert all(duals is not None for alpha1, _, start, duals in calls
               if start is not None and alpha1 not in (0.0, 1.0))


# Cold and warm solves both stop on a small GP step, which can come early in
# a slow climb: at the examples below, cold solves stop up to 2.3e-5 bit
# short of the converged optimum.  A warm start stops elsewhere on such a
# climb, so each warm objective is held to the cold one within this reach.
STOP_REACH = 5e-5


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), num_eve_antennas=st.sampled_from([1, 2, 3]),
       mode=st.sampled_from([RELIABLE, SECURE]), eh_fraction=st.floats(0.0, 0.8),
       grid=st.integers(7, 11))
# Slow climbs: 1.0e-5 bit below the cold objective (itself 1.9e-5 short of
# the converged one) at alpha1 = 3/7, and a hull 1.1e-6 bit^2 smaller.
@example(seed=15158, num_eve_antennas=1, mode=SECURE, eh_fraction=0.0, grid=8)
@example(seed=0, num_eve_antennas=1, mode=SECURE, eh_fraction=0.3984375, grid=7)
# A secant past both budgets put every power and split at its cap, where
# SLSQP returned its start as optimal: 0.037 bit below the cold objective.
@example(seed=7362, num_eve_antennas=3, mode=SECURE, eh_fraction=0.0, grid=8)
def test_continuation_sweep_no_worse_than_cold_solves(seed, num_eve_antennas, mode,
                                                      eh_fraction, grid):
    # Warm starts may only shorten the sweep: no point fails that a cold
    # solve finishes, no objective falls short of the cold one by more than
    # the stopping rule's reach, and every point meets its demands and
    # budgets.
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, num_users=2, num_eve_antennas=num_eve_antennas,
                        eh_fraction=eh_fraction)
    boundary = sweep(cfg, mode, grid=grid)
    cold = _cold_solves(cfg, mode, grid)
    cold_failed = {(alpha1, order.one_based() if order else None)
                   for (alpha1, order), rep in cold.items() if rep is None}
    assert {(f["alpha1"], f["order"]) for f in boundary.failures} <= cold_failed
    # The max-min value fixes each point's rates only up to the weighted
    # point alpha * objective (a user that does not bind may get more), so
    # the hulls compared are those of the weighted points.
    warm_points, cold_points = [], []
    for pt in boundary.points:
        energies = harvested_energies(cfg, pt.op).per_user
        assert np.all(energies >= cfg.eh_demands * (1 - 1e-7))
        assert np.all(pt.op.powers <= cfg.power_budget * (1 + 1e-12))
        rep = cold[pt.alpha[0], pt.order]
        if rep is None:
            continue
        active = pt.weights.alpha > 0
        objective = np.min(pt.rates_raw[active] / pt.weights.alpha[active])
        assert objective >= rep.objective - STOP_REACH
        warm_points.append(pt.weights.alpha * objective)
        cold_points.append(pt.weights.alpha * rep.objective)
    if cold_points:
        # Moving every vertex inward by at most d per axis shrinks the area
        # by at most d times the sum of the hull's extents.
        hull = time_share_hull(cold_points)
        extent = hull[:, 0].max() + hull[:, 1].max()
        assert (_area(time_share_hull(warm_points))
                >= _area(hull) - STOP_REACH * extent)


def test_second_order_is_not_carried_onto_a_zero_plateau():
    # Each order's first interior weight starts cold.  On this draw,
    # starting order (2,1) there at order (1,2)'s solution falls onto a
    # zero-objective plateau that continuation carries along the branch:
    # objective 0 at alpha1 = 0.1-0.9, against 0.25-0.70 bit cold (0.701 bit
    # short at alpha1 = 0.9).  The hull hides it, as that branch is
    # dominated, so each point is held to its cold solve.
    cfg = _random_draw(30, 1)
    boundary = sweep(cfg, SECURE, grid=11)
    cold = _cold_solves(cfg, SECURE, 11)
    assert not boundary.failures and None not in cold.values()
    assert len(boundary.points) == len(cold)
    for pt in boundary.points:
        active = pt.weights.alpha > 0
        objective = np.min(pt.rates_raw[active] / pt.weights.alpha[active])
        assert objective >= cold[pt.alpha[0], pt.order].objective - STOP_REACH


def _assert_same_oracle_result(a, b):
    assert np.array_equal(a.objective, b.objective)
    assert np.array_equal(a.rates, b.rates)
    assert np.array_equal(a.op.powers, b.op.powers)
    assert np.array_equal(a.op.splits, b.op.splits)
    assert a.bound == b.bound


def _arrays_within(value) -> list:
    """Every array in ``value``, searching lists and tuples at any depth."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (list, tuple)):
        return [arr for item in value for arr in _arrays_within(item)]
    return []


class TestOracle:
    def test_weak_eh_symmetric(self):
        cfg = weak_interference(eh_demands=(0.8, 0.8))
        res = oracle_grid_search(cfg, RELIABLE, Weights.pair(0.5), resolution=51)
        per_user = res.objective / 2.0
        assert per_user == pytest.approx(1.0402, abs=2e-3)

    def test_strong_eh_endpoint(self):
        cfg = strong_interference(eh_demands=(1.0, 1.0))
        res = oracle_grid_search(cfg, RELIABLE, Weights.pair(1.0), resolution=51)
        assert res.objective == pytest.approx(0.9229, abs=2e-3)
        assert res.op.powers[0] == pytest.approx(1.0, abs=0.02)
        assert res.op.powers[1] == pytest.approx(0.19, abs=0.05)
        # The silent user keeps its best split at these powers, as iterate
        # reports it.
        assert res.op.splits[1] == pytest.approx(max_splits(cfg, res.op.powers)[1], abs=1e-12)
        assert res.op.splits[1] == pytest.approx(0.366, abs=1e-3)

    def test_demand_beyond_limit(self):
        # Every call raises, also those that reuse the cached coarse grid.
        cfg = weak_interference(eh_demands=(2.0, 2.0))
        for _ in range(2):
            with pytest.raises(InfeasibleError):
                oracle_grid_search(cfg, RELIABLE, Weights.pair(0.5), resolution=21)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mode", [RELIABLE, SECURE])
    @pytest.mark.parametrize("alpha1", [0.25, 0.5, 1.0])
    def test_overflowed_cells_are_not_points(self, mode, alpha1):
        # Gains x1e150 and budgets x1e10 overflow the rates to inf or NaN on
        # part of the samples that meet the demands.  Rather than score only
        # the finite ones, each search fails numerically, as iterate does on
        # a rate that is not finite, on every call, as nothing is cached on
        # failure.
        weak = weak_interference()
        cfg = replace(weak, gains=weak.gains * 1e150,
                      power_budget=weak.power_budget * 1e10)
        for _ in range(2):
            with pytest.raises(NumericalFailureError, match="are not finite"):
                oracle_grid_search(cfg, mode, Weights.pair(alpha1), resolution=51)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("users", [(0, 1), (1, 0)])
    def test_an_overflow_is_not_infeasibility(self, users):
        # Demands of 1e300 are met on the grid, but only where the rates
        # overflow: the secure search fails numerically there, and
        # InfeasibleError stays "no sample meets the demands".
        weak = weak_interference()
        cfg = replace(weak, gains=weak.gains * 1e150,
                      power_budget=weak.power_budget * 1e10, eh_demands=(1e300, 1e300))
        assert infeasible_demands(cfg).size == 0
        for _ in range(2):
            with pytest.raises(NumericalFailureError, match="are not finite"):
                oracle_grid_search(cfg, SECURE, Weights.pair(0.5), DecodingOrder(users),
                                   resolution=11)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_gram_minors_fail_numerically(self):
        # Eve's noise x1e279 and channels x1e229 overflow the Gram minors'
        # normalisation: a secure search fails as a solve does, not with a
        # bare OverflowError.
        weak = weak_interference()
        cfg = replace(weak, eve_antenna_noise_var=weak.eve_antenna_noise_var * 1e279,
                      eve_channels=weak.eve_channels * 1e229)
        # Nothing is cached on failure, so a second call fails the same way.
        for _ in range(2):
            with pytest.raises(NumericalFailureError) as caught:
                oracle_grid_search(cfg, SECURE, Weights.pair(0.5), resolution=11)
            assert isinstance(caught.value.__cause__, OverflowError)

    @pytest.mark.parametrize("psi", [(0.8,), (np.nan, np.nan), (-1.0, -1.0),
                                     (0.8, 0.8, 0.8)])
    def test_invalid_demand_override_rejected(self, psi):
        # The oracle takes its demands from the config; the replace that
        # overrides them rejects an invalid one before any search.
        with pytest.raises(ConfigError):
            oracle_grid_search(replace(weak_interference(), eh_demands=psi), RELIABLE,
                               Weights.pair(0.5), resolution=11)

    def test_resolution_guard(self):
        # Too coarse a grid, or a resolution that is no integer; on a
        # three-user config the one ConfigError names the user count too.
        k3 = random_config(np.random.default_rng(0), num_users=3)
        for resolution in (5, 21.0):
            with pytest.raises(ConfigError, match=r"resolution\]: must be an integer >= 11"):
                oracle_grid_search(weak_interference(), RELIABLE, Weights.pair(0.5),
                                   resolution=resolution)
            with pytest.raises(ConfigError) as info:
                oracle_grid_search(k3, RELIABLE, Weights.pair(0.5), resolution=resolution)
            assert [field for _, field, _ in info.value.violations] == [
                "resolution", "num_users"]

    def test_secure_orders_differ_with_parallel_eve(self):
        cfg = weak_interference(eve_geometry="parallel")
        a = oracle_grid_search(cfg, SECURE, Weights.pair(0.25),
                               DecodingOrder((0, 1)), resolution=21)
        b = oracle_grid_search(cfg, SECURE, Weights.pair(0.25),
                               DecodingOrder((1, 0)), resolution=21)
        assert a.objective != pytest.approx(b.objective, abs=1e-4)

    def test_solver_tracks_oracle_on_random_instances(self):
        rng = np.random.default_rng(47)
        from swiptsec import iterate
        for _ in range(5):
            cfg = random_config(rng, eh_fraction=float(rng.uniform(0, 0.6)))
            weights = Weights.pair(float(rng.uniform(0.2, 0.8)))
            oracle = oracle_grid_search(cfg, RELIABLE, weights, resolution=31)
            rep = iterate(cfg, weights, None, RELIABLE)
            assert rep.objective >= (1.0 - SHORTFALL_TOL) * oracle.objective - 1e-9

    def test_cached_coarse_grids_change_no_result(self):
        # Calls on one config object share its full-power faces, one per
        # resolution, and its secure coarse grids, one per decoding order
        # and resolution, kept with the config (SystemConfig.cached),
        # whatever the weights; each result equals, bit for
        # bit, the same call on a fresh copy of the config, which keeps none
        # yet.  Two rounds: the first builds them, the second only reads them.
        rng = np.random.default_rng(31)
        cfgs = [weak_interference(eh_demands=(0.8, 0.8)),
                weak_interference(eh_demands=(0.8, 0.8), eve_geometry="parallel"),
                strong_interference(eh_demands=(1.0, 1.0)),
                strong_interference(eve_geometry="parallel")]
        cfgs += [random_config(rng, eh_fraction=float(rng.uniform(0.0, 0.6)))
                 for _ in range(4)]
        runs = [(RELIABLE, None), (SECURE, DecodingOrder((0, 1))),
                (SECURE, DecodingOrder((1, 0)))]
        for cfg in cfgs:
            for _, (mode, order), alpha1, resolution in product(
                    range(2), runs, (0.0, 0.3, 1.0), (11, 21)):
                weights = Weights.pair(alpha1)
                got = oracle_grid_search(cfg, mode, weights, order,
                                         resolution=resolution)
                fresh = oracle_grid_search(replace(cfg), mode, weights, order,
                                           resolution=resolution)
                _assert_same_oracle_result(got, fresh)
            entries = [(key[0], value) for key, value in cfg._cached.items()
                       if key[0] in ("faces", "oracle")]
            # 2 resolutions: the faces in reliable mode, a grid in each
            # secure order.
            assert sorted(name for name, _ in entries) == ["faces"] * 2 + ["oracle"] * 4
            arrays = _arrays_within([value for _, value in entries])
            assert arrays
            for arr in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    arr.flat[0] = arr.flat[0]

    @pytest.mark.parametrize("mode, order", [(RELIABLE, None), (SECURE, (0, 1)),
                                             (SECURE, (1, 0))])
    def test_returned_point_agrees_with_metrics(self, mode, order):
        # The oracle's vectorized rates and closed-form splits match the
        # scalar formulas of metrics at the point it returns, where every
        # user, a silent one too, is at its best split.
        rng = np.random.default_rng(31)
        cfgs = [weak_interference(eh_demands=(0.8, 0.8)),
                weak_interference(eh_demands=(0.8, 0.8), eve_geometry="parallel"),
                strong_interference(eh_demands=(1.0, 1.0)),
                strong_interference(eve_geometry="parallel")]
        cfgs += [random_config(rng, eh_fraction=float(rng.uniform(0.0, 0.6)))
                 for _ in range(4)]
        order = DecodingOrder(order) if order else None
        for cfg in cfgs:
            for alpha1 in (0.0, 0.3, 1.0):
                res = oracle_grid_search(cfg, mode, Weights.pair(alpha1), order,
                                         resolution=21)
                np.testing.assert_allclose(res.op.splits, max_splits(cfg, res.op.powers),
                                           rtol=0, atol=1e-12)
                energies = harvested_energies(cfg, res.op).per_user
                assert np.all(energies >= cfg.eh_demands - 1e-12)
                expected = (secrecy_corner(cfg, res.op, order)
                            if mode == SECURE else legitimate_rates(cfg, res.op))
                np.testing.assert_allclose(res.rates, expected, rtol=0, atol=1e-12)


def _grid_objective(cfg, alpha, resolution):
    """The reliable oracle before the face search: the best max-min
    objective over a 2-D (p1, p2) grid of ``resolution`` points per axis and
    one zoom window of one step either side of its best cell, each cell at
    its best splits (a silent user's at 0), discarding cells where a best
    split is not > 0; None when no cell meets the demands."""
    support = alpha.alpha > 0

    def best_cell(p1, p2):
        powers = np.stack(np.meshgrid(p1, p2, indexing="ij"), axis=-1)
        splits = max_splits(cfg, powers)
        feasible = (splits > 0.0).all(axis=-1)
        splits = np.maximum(splits, 0.0)
        splits[..., ~support] = 0.0
        obj = max_min_objective(tin_rates(cfg, powers, splits), alpha)
        obj[~feasible] = -np.inf
        at = np.unravel_index(np.argmax(obj), obj.shape)
        return obj[at], powers[at]

    value, at = best_cell(*(np.linspace(0.0, hi, resolution) for hi in cfg.power_budget))
    if value == -np.inf:
        return None
    step = cfg.power_budget / (resolution - 1)
    window = (np.linspace(max(c - s, 0.0), min(c + s, hi), resolution)
              for c, s, hi in zip(at, step, cfg.power_budget))
    return max(value, best_cell(*window)[0])


def test_face_search_brackets_the_reliable_optimum():
    # On 60 seeded two-user draws x 7 weights x 3 resolutions (1260 cases),
    # the face search's best sample, the 2-D grid oracle it replaced and the
    # solver are all at most the certified bound (the solver within 1e-9),
    # the face and grid searches agree on which cases are infeasible, and at
    # resolution 51 the bracket is at most 1e-3 bit wide.  The cases are
    # seeded draws, not Hypothesis examples, so they do not change with the
    # literals of the package.
    cases = infeasible = 0
    for draw in range(60):
        rng = np.random.default_rng(draw)
        cfg = random_config(rng, 2, int(rng.integers(1, 4)), float(rng.uniform(0, 0.8)))
        for alpha1 in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            weights = Weights.pair(alpha1)
            try:
                solved = iterate(cfg, weights, None, RELIABLE).objective
            except InfeasibleError:
                solved = None
            for resolution in (11, 21, 51):
                cases += 1
                where = (draw, alpha1, resolution)
                grid = _grid_objective(cfg, weights, resolution)
                try:
                    res = oracle_grid_search(cfg, RELIABLE, weights, resolution=resolution)
                except InfeasibleError:
                    assert grid is None and solved is None, where
                    infeasible += 1
                    continue
                assert grid is not None and solved is not None, where
                assert res.objective <= res.bound, where
                assert grid <= res.bound, where
                assert solved <= res.bound + BOUND_TOL, where
                if resolution == 51:
                    assert res.bound - res.objective <= 1e-3, where
    assert cases == 1260 and infeasible < cases


@pytest.mark.parametrize("alpha1", [1e-4, 5e-4, 1 - 5e-4])
@pytest.mark.parametrize("cfg", [weak_interference(), weak_interference(eh_demands=(0.8, 0.8)),
                                 strong_interference(eve_geometry="parallel"),
                                 strong_interference(eh_demands=(1.0, 1.0))],
                         ids=["weak-e0", "weak-e0.8", "strong-par", "strong-e1"])
def test_small_weights_solve_directly(cfg, alpha1):
    # A weight with an entry far below 1e-3 is solved as written, as sweep
    # does on a fine grid: in reliable mode and in secure mode with either
    # decoding order, each solve converges, reaches 95 % of the oracle and
    # (reliable mode) stays within BOUND_TOL of the oracle's bound.
    weights = Weights.pair(alpha1)
    for mode, order in [(RELIABLE, None), (SECURE, DecodingOrder((0, 1))),
                        (SECURE, DecodingOrder((1, 0)))]:
        where = (mode, order and order.users)
        rep = iterate(cfg, weights, order, mode)
        oracle = oracle_grid_search(cfg, mode, weights, order, resolution=51)
        assert rep.converged, where
        assert rep.objective >= (1.0 - SHORTFALL_TOL) * oracle.objective, where
        if oracle.bound is not None:
            assert rep.objective <= oracle.bound + BOUND_TOL, where
