"""Acceptance gate: one test per criterion, each printing a pass line with
the measured values (run with -s to see them)."""

from dataclasses import replace

import numpy as np
import pytest

from swiptsec import (DecodingOrder, Weights, checks, harvested_energies,
                      hull_height, iterate, legitimate_rates,
                      oracle_grid_search, subset_constraints_satisfied, sweep)
from swiptsec.model import EnergyModel
from swiptsec.solver import RELIABLE, SECURE
from swiptsec.scenarios import (random_config, strong_interference,
                                weak_interference)

LOG2_3 = np.log2(3.0)


@pytest.fixture(scope="module")
def weak_e00_boundary():
    return sweep(weak_interference(), RELIABLE, psi=(0.0, 0.0), grid=21)


@pytest.fixture(scope="module")
def strong_secure_boundary():
    cfg = strong_interference(eve_geometry="parallel")
    return cfg, sweep(cfg, SECURE, psi=(0.0, 0.0), grid=9)


def _row(boundary, alpha1):
    for pt in boundary.points:
        if pt.alpha[0] == alpha1:
            return pt
    raise AssertionError(f"no swept point at alpha1={alpha1}")


def test_criterion_1_weak_reliable_no_demand(weak_e00_boundary):
    tol = 1e-3
    hi = _row(weak_e00_boundary, 1.0).rates[0]
    lo = _row(weak_e00_boundary, 0.0).rates[1]
    mid = _row(weak_e00_boundary, 0.5).rates
    assert hi == pytest.approx(1.58496, abs=tol)
    assert lo == pytest.approx(1.58496, abs=tol)
    assert mid[0] == pytest.approx(1.22239, abs=tol)
    assert mid[1] == pytest.approx(1.22239, abs=tol)
    print(f"\nPASS 1: reliable E=(0,0) endpoints {hi:.5f}/{lo:.5f}, "
          f"symmetric {mid[0]:.5f} (targets 1.58496 / 1.22239, tol {tol})")


def test_criterion_2_weak_reliable_with_demand():
    cfg = weak_interference(eh_demands=(0.8, 0.8))
    sym = iterate(cfg, Weights.pair(0.5), None, RELIABLE).rates
    end = iterate(cfg, Weights.pair(1.0), None, RELIABLE).rates
    assert sym[0] == pytest.approx(1.04026, abs=1e-3)
    assert sym[1] == pytest.approx(1.04026, abs=1e-3)
    assert end[0] == pytest.approx(1.13414, abs=2e-3)
    print(f"\nPASS 2: reliable E=(0.8,0.8) symmetric {sym[0]:.5f} "
          f"(1.04026, tol 1e-3), endpoint {end[0]:.5f} (1.13414, tol 2e-3)")


def test_criterion_3_strong_reliable_with_demand():
    cfg = strong_interference(eh_demands=(1.0, 1.0))
    sym = iterate(cfg, Weights.pair(0.5), None, RELIABLE).rates
    end = iterate(cfg, Weights.pair(1.0), None, RELIABLE).rates
    assert sym[0] == pytest.approx(0.68353, abs=1e-3)
    assert sym[1] == pytest.approx(0.68353, abs=1e-3)
    assert end[0] == pytest.approx(0.92286, abs=3e-3)
    print(f"\nPASS 3: reliable E=(1,1) symmetric {sym[0]:.5f} "
          f"(0.68353, tol 1e-3), endpoint {end[0]:.5f} (0.92286, tol 3e-3)")


def test_criterion_4_secure_endpoints_any_direction():
    rng = np.random.default_rng(4)
    geometries = {}
    for name in ("orthogonal", "parallel"):
        geometries[name] = weak_interference(eve_geometry=name).eve_channels
    for i in range(3):
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        geometries[f"random{i}"] = 0.5 * raw / np.linalg.norm(raw, axis=1, keepdims=True)
    target = LOG2_3 - np.log2(1.5)     # = 1 bit
    values = {}
    for name, eve in geometries.items():
        for cross in (0.5, 1.0):
            cfg = replace(weak_interference() if cross == 0.5
                          else strong_interference(), eve_channels=eve)
            for alpha1, user in ((1.0, 0), (0.0, 1)):
                rep = iterate(cfg, Weights.pair(alpha1), DecodingOrder((0, 1)),
                              SECURE)
                values[(name, cross, user)] = rep.rates[user]
                assert rep.rates[user] == pytest.approx(target, abs=1e-3), \
                    f"{name} cross={cross} user={user}: {rep.rates[user]}"
    lo, hi = min(values.values()), max(values.values())
    print(f"\nPASS 4: secure zero-demand axis rates in [{lo:.5f}, {hi:.5f}] "
          f"across {len(values)} direction/fixture cases (target 1.0, tol 1e-3)")


def test_criterion_5_chain_rule_thousand_configs():
    passed, _, detail = checks.chain_rule(np.random.default_rng(5), 1000)
    assert passed, detail
    # Each subset in each ordering of its own users, once: 500 two-user
    # configs of 4 cases and 500 three-user configs of 15.
    assert " over 9500 order/subset cases " in detail, detail
    print(f"\nPASS 5: chain rule vs block sum rate, {detail}")


def test_criterion_6_condensation_bound_and_tightness():
    passed, _, detail = checks.condensation(np.random.default_rng(6), 1000)
    assert passed, detail
    print(f"\nPASS 6: condensation bound {detail}")


def _assert_solver_point_feasible(cfg, rep, alpha):
    energies = harvested_energies(cfg, rep.op).per_user
    assert np.all(energies >= cfg.eh_demands - 1e-6)
    assert np.all(rep.op.powers <= cfg.power_budget + 1e-9)
    assert np.all(rep.op.splits <= 1.0 + 1e-12)
    rates = legitimate_rates(cfg, rep.op)
    active = alpha.alpha > 0
    implied = np.min(rates[active] / alpha.alpha[active])
    assert rep.objective == pytest.approx(implied, abs=1e-6)


def test_criterion_7_solver_within_five_percent_of_oracle():
    runs = []
    runs.append((weak_interference(eh_demands=(0.8, 0.8)), Weights.pair(0.5)))
    runs.append((weak_interference(eh_demands=(0.8, 0.8)), Weights.pair(1.0)))
    runs.append((strong_interference(eh_demands=(1.0, 1.0)), Weights.pair(0.5)))
    runs.append((strong_interference(eh_demands=(1.0, 1.0)), Weights.pair(1.0)))
    rng = np.random.default_rng(7)
    for i in range(20):
        cfg = random_config(rng, eh_fraction=float(rng.uniform(0.0, 0.7)))
        runs.append((cfg, Weights.pair((0.3, 0.5, 0.7)[i % 3])))

    worst_rel = 0.0
    for cfg, weights in runs:
        oracle = oracle_grid_search(cfg, RELIABLE, weights, resolution=51)
        rep = iterate(cfg, weights, None, RELIABLE)
        _assert_solver_point_feasible(cfg, rep, weights)
        shortfall = max(oracle.objective - rep.objective, 0.0)
        rel = shortfall / max(oracle.objective, 1e-12)
        worst_rel = max(worst_rel, rel)
        assert rel <= checks.SHORTFALL_TOL, (f"solver {rel:.2%} below oracle "
                             f"(oracle {oracle.objective}, solver {rep.objective})")
    print(f"\nPASS 7: solver vs oracle on {len(runs)} instances, "
          f"worst relative shortfall {worst_rel:.3%} (tol 5%), all points feasible")


def test_criterion_8_secure_structure(strong_secure_boundary):
    cfg, boundary = strong_secure_boundary
    assert not boundary.failures

    worst = -np.inf
    for pt in boundary.points:
        check = subset_constraints_satisfied(cfg, pt.op, pt.rates_raw, tol=1e-6)
        worst = max(worst, check.worst_violation)
        assert check.ok

    hull = boundary.hull
    for pt in boundary.points:
        assert hull_height(hull, pt.rates[0]) >= pt.rates[1] - 1e-9

    # A bridging segment: swept points strictly inside its span sit strictly
    # below it, which is exactly where time sharing beats power control.
    # Points within float noise of a segment endpoint (duplicate axis solves
    # from the two decoding orders) do not count as interior.
    swept = np.array([pt.rates for pt in boundary.points])
    bridge = None
    for (x0, y0), (x1, y1) in zip(hull[:-1], hull[1:]):
        if x1 <= x0:
            continue
        inside = swept[(swept[:, 0] > x0 + 1e-9) & (swept[:, 0] < x1 - 1e-9)]
        if inside.size:
            near_end = (np.hypot(inside[:, 0] - x0, inside[:, 1] - y0) < 1e-4) | \
                       (np.hypot(inside[:, 0] - x1, inside[:, 1] - y1) < 1e-4)
            inside = inside[~near_end]
        if inside.size == 0:
            continue
        seg_y = y0 + (inside[:, 0] - x0) * (y1 - y0) / (x1 - x0)
        margin = np.min(seg_y - inside[:, 1])
        if margin > 1e-6:
            bridge = ((x0, y0), (x1, y1), margin, len(inside))
            break
    assert bridge is not None, "no hull segment strictly dominates the swept branches"
    (x0, y0), (x1, y1), margin, count = bridge
    print(f"\nPASS 8: subset constraints (worst {worst:.2e}), hull dominates "
          f"branches; bridge ({x0:.3f},{y0:.3f})-({x1:.3f},{y1:.3f}) above "
          f"{count} swept points by >= {margin:.4f}")


def test_criterion_9_product_energy_model_falls_short():
    cfg = weak_interference(eh_demands=(0.8, 0.8),
                            energy_model=EnergyModel.PRODUCT)
    rep = iterate(cfg, Weights.pair(0.5), None, RELIABLE)
    assert rep.rates[0] < 1.04026 - 5e-3
    assert rep.rates[1] < 1.04026 - 5e-3
    print(f"\nPASS 9: product energy model symmetric point {rep.rates[0]:.5f} "
          f"< 1.03526, confirming the reformulated model reproduces the figures")
