from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swiptsec import (ConfigError, DecodingOrder, EmptyInputError,
                      InfeasibleError, NoFeasiblePointError,
                      NumericalFailureError, Weights, build_gp,
                      harvested_energies, hull_height, iterate,
                      legitimate_rates, oracle_grid_search, region,
                      secrecy_corner, solver, subset_constraints_satisfied,
                      sweep, time_share_hull)
from swiptsec.metrics import RateTuple
from swiptsec.model import max_splits, with_demands
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
        with pytest.raises(EmptyInputError):
            time_share_hull(np.empty((0, 2)))

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
                cfg, pt.op, RateTuple(pt.rates_raw), tol=1e-6)
            assert check.ok, f"violation {check.worst_violation} at alpha {pt.alpha}"


def _cold_solves(cfg, mode, grid):
    """The reports of solves given no start over sweep's weights and orders,
    keyed by (alpha1, order); None where the solve failed."""
    orders = ([DecodingOrder((0, 1)), DecodingOrder((1, 0))] if mode == SECURE
              else [None])
    reports = {}
    for alpha1 in np.linspace(0.0, 1.0, grid):
        weights = (Weights.pair(alpha1) if alpha1 in (0.0, 1.0)
                   else region._clamped_weights(alpha1))
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

    def recording(cfg, weights, order, mode, start=None):
        if start is not None:
            starts.append((weights, order, start))
        return real_iterate(cfg, weights, order, mode, start=start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(region, "iterate", recording)
        sweep(cfg, mode, grid=grid)
    assert starts
    for weights, order, start in starts:
        gp = build_gp(cfg, weights, order or DecodingOrder((0, 1)), start, mode)
        x = np.concatenate([start.powers, start.splits])
        assert np.allclose(gp.anchor[1:], x, rtol=1e-12, atol=0.0)
        assert solver._exact_lambda(gp, np.log(gp.anchor))[1] <= solver.FEAS_TOL


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
        assert res.op.splits[1] == pytest.approx(0.0, abs=0.05)

    def test_demand_beyond_limit(self):
        with pytest.raises(NoFeasiblePointError):
            oracle_grid_search(weak_interference(eh_demands=(2.0, 2.0)), RELIABLE,
                               Weights.pair(0.5), resolution=21)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mode", [RELIABLE, SECURE])
    @pytest.mark.parametrize("alpha1", [0.25, 0.5, 1.0])
    def test_overflowed_cells_are_not_points(self, mode, alpha1):
        # Gains x1e150 and budgets x1e10 overflow the rates to inf or NaN on
        # part of the grid; the cells that stay finite still give a point.
        weak = weak_interference()
        cfg = replace(weak, gains=weak.gains * 1e150,
                      power_budget=weak.power_budget * 1e10)
        res = oracle_grid_search(cfg, mode, Weights.pair(alpha1), resolution=51)
        assert np.isfinite(res.objective)
        assert np.all(np.isfinite(res.rates))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_gram_minors_fail_numerically(self):
        # Eve's noise x1e279 and channels x1e229 overflow the Gram minors'
        # normalisation: a secure search fails as a solve does, not with a
        # bare OverflowError.
        weak = weak_interference()
        cfg = replace(weak, eve_antenna_noise_var=weak.eve_antenna_noise_var * 1e279,
                      eve_channels=weak.eve_channels * 1e229)
        with pytest.raises(NumericalFailureError) as caught:
            oracle_grid_search(cfg, SECURE, Weights.pair(0.5), resolution=11)
        assert isinstance(caught.value.__cause__, OverflowError)

    @pytest.mark.parametrize("psi", [(0.8,), (np.nan, np.nan), (-1.0, -1.0),
                                     (0.8, 0.8, 0.8)])
    def test_invalid_demand_override_rejected(self, psi):
        # The oracle takes its demands from the config; an override goes
        # through with_demands, which rejects it before any search.
        with pytest.raises(ConfigError):
            oracle_grid_search(with_demands(weak_interference(), psi), RELIABLE,
                               Weights.pair(0.5), resolution=11)

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            oracle_grid_search(weak_interference(), RELIABLE, Weights.pair(0.5),
                               resolution=5)

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
            assert rep.objective >= oracle.objective * 0.95 - 1e-9

    @pytest.mark.parametrize("mode, order", [(RELIABLE, None), (SECURE, (0, 1)),
                                             (SECURE, (1, 0))])
    def test_returned_point_agrees_with_metrics(self, mode, order):
        # The oracle's vectorized rates and closed-form splits match the
        # scalar formulas of metrics at the point it returns.
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
                energies = harvested_energies(cfg, res.op).per_user
                assert np.all(energies >= cfg.eh_demands - 1e-12)
                expected = (secrecy_corner(cfg, res.op, order).per_user
                            if mode == SECURE else legitimate_rates(cfg, res.op))
                np.testing.assert_allclose(res.rates, expected, rtol=0, atol=1e-12)
