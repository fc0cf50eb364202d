from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swiptsec import (ConfigError, DecodingOrder, EmptyInputError,
                      NoFeasiblePointError, Weights, harvested_energies,
                      hull_height, legitimate_rates, oracle_grid_search,
                      secrecy_corner, subset_constraints_satisfied, sweep,
                      time_share_hull)
from swiptsec.metrics import RateTuple
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


class TestOracle:
    def test_weak_eh_symmetric(self):
        cfg = weak_interference()
        res = oracle_grid_search(cfg, RELIABLE, (0.8, 0.8), Weights.pair(0.5),
                                 resolution=51)
        per_user = res.objective / 2.0
        assert per_user == pytest.approx(1.0402, abs=2e-3)

    def test_strong_eh_endpoint(self):
        cfg = strong_interference()
        res = oracle_grid_search(cfg, RELIABLE, (1.0, 1.0), Weights.pair(1.0),
                                 resolution=51)
        assert res.objective == pytest.approx(0.9229, abs=2e-3)
        assert res.op.powers[0] == pytest.approx(1.0, abs=0.02)
        assert res.op.powers[1] == pytest.approx(0.19, abs=0.05)
        assert res.op.splits[1] == pytest.approx(0.0, abs=0.05)

    def test_demand_beyond_limit(self):
        with pytest.raises(NoFeasiblePointError):
            oracle_grid_search(weak_interference(), RELIABLE, (2.0, 2.0),
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
        res = oracle_grid_search(cfg, mode, (0.0, 0.0), Weights.pair(alpha1),
                                 resolution=51)
        assert np.isfinite(res.objective)
        assert np.all(np.isfinite(res.rates))

    @pytest.mark.parametrize("psi", [(0.8,), (np.nan, np.nan), (-1.0, -1.0),
                                     (0.8, 0.8, 0.8)])
    def test_invalid_demand_override_rejected(self, psi):
        with pytest.raises(ConfigError):
            oracle_grid_search(weak_interference(), RELIABLE, psi,
                               Weights.pair(0.5), resolution=11)

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            oracle_grid_search(weak_interference(), RELIABLE, (0.0, 0.0),
                               Weights.pair(0.5), resolution=5)

    def test_secure_orders_differ_with_parallel_eve(self):
        cfg = weak_interference(eve_geometry="parallel")
        a = oracle_grid_search(cfg, SECURE, (0.0, 0.0), Weights.pair(0.25),
                               DecodingOrder((0, 1)), resolution=21)
        b = oracle_grid_search(cfg, SECURE, (0.0, 0.0), Weights.pair(0.25),
                               DecodingOrder((1, 0)), resolution=21)
        assert a.objective != pytest.approx(b.objective, abs=1e-4)

    def test_solver_tracks_oracle_on_random_instances(self):
        rng = np.random.default_rng(47)
        from swiptsec import iterate
        for _ in range(5):
            cfg = random_config(rng, eh_fraction=float(rng.uniform(0, 0.6)))
            weights = Weights.pair(float(rng.uniform(0.2, 0.8)))
            oracle = oracle_grid_search(cfg, RELIABLE, None, weights, resolution=31)
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
                res = oracle_grid_search(cfg, mode, None, Weights.pair(alpha1),
                                         order, resolution=21)
                energies = harvested_energies(cfg, res.op).per_user
                assert np.all(energies >= cfg.eh_demands - 1e-12)
                expected = (secrecy_corner(cfg, res.op, order).per_user
                            if mode == SECURE else legitimate_rates(cfg, res.op))
                np.testing.assert_allclose(res.rates, expected, rtol=0, atol=1e-12)
