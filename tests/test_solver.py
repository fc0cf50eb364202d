import copy
import json
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import swiptsec
from swiptsec import metrics, region, solver
from swiptsec import (ConfigError, DecodingOrder, EnergyModel, GpInstance, InfeasibleAnchorError,
                      InfeasibleError, NonPositiveAnchorError, NonPositiveTermError,
                      NumericalFailureError, OperatingPoint, Posynomial, Weights,
                      build_gp, condense, eve_rate_chain, harvested_energies,
                      iterate, legitimate_rates, log2_det, rank_one_update_sum,
                      secrecy_corner, solve_gp)
from swiptsec.region import oracle_grid_search
from swiptsec.model import max_deliverable_energy, max_splits, with_demands
from swiptsec.solver import RELIABLE, SECURE
from swiptsec.scenarios import (random_config, strong_interference,
                                weak_interference)

ORDER12 = DecodingOrder((0, 1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=8),
       num_vars=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_condensation_matches_am_gm_reference(sizes, num_vars, seed):
    # Reference: each posynomial's textbook AM-GM monomial on its own, with
    # the weights t / sum(t) of its term values t at the anchor.
    rng = np.random.default_rng(seed)
    posys = [Posynomial(np.exp(rng.uniform(-1.5, 1.5, size)),
                        rng.uniform(-2.5, 2.5, (size, num_vars))) for size in sizes]
    anchor = np.exp(rng.uniform(-0.8, 0.8, num_vars))
    exponents, log_coefs = solver._condense(solver._stack(posys), np.log(anchor))
    assert exponents.shape == (len(sizes), num_vars)
    for posy, exponent, log_coef in zip(posys, exponents, log_coefs):
        t = posy.term_values(anchor)
        w = t / t.sum()
        assert np.allclose(exponent, w @ posy.exponents, rtol=0.0, atol=1e-12)
        assert log_coef == pytest.approx(
            w @ (np.log(posy.coeffs) - np.log(w)), rel=0.0, abs=1e-12)
        mono = Posynomial(np.exp([log_coef]), exponent[None, :])
        assert mono.value(anchor) == pytest.approx(posy.value(anchor), rel=1e-12)
        for x in np.exp(rng.uniform(-0.8, 0.8, (5, num_vars))):
            assert mono.value(x) <= posy.value(x) * (1 + 1e-12)


def test_condensation_rejects_vanishing_term():
    # A term whose share underflows to zero has no AM-GM weight.
    posy = Posynomial(np.array([1.0, 1.0]), np.array([[1.0], [-1.0]]))
    with pytest.raises(NonPositiveTermError):
        condense(posy, [1e200])


class TestCondense:
    def test_exact_at_anchor(self):
        posy = Posynomial(np.ones(2), np.eye(2))
        mono = condense(posy, [4.0, 1.0])
        assert mono.value([4.0, 1.0]) == pytest.approx(5.0, abs=1e-12)

    def test_bound_away_from_anchor(self):
        posy = Posynomial(np.ones(2), np.eye(2))
        mono = condense(posy, [4.0, 1.0])
        assert mono.value([1.0, 1.0]) == pytest.approx(1.6494, abs=1e-4)
        assert mono.value([1.0, 1.0]) <= 2.0

    def test_single_term_returned_unchanged(self):
        mono_in = Posynomial(np.array([2.5]), np.array([[2.0, -1.0]]))
        mono = condense(mono_in, [1.0, 1.0])
        assert np.array_equal(mono.coeffs, mono_in.coeffs)
        assert np.array_equal(mono.exponents, mono_in.exponents)

    def test_rejects_non_positive_anchor(self):
        posy = Posynomial(np.ones(2), np.eye(2))
        with pytest.raises(NonPositiveAnchorError):
            condense(posy, [1.0, 0.0])

    def test_soundness_random(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            nv = int(rng.integers(1, 5))
            nt = int(rng.integers(1, 6))
            posy = Posynomial(np.exp(rng.uniform(-1, 1, nt)),
                              rng.uniform(-2, 2, (nt, nv)))
            anchor = np.exp(rng.uniform(-0.7, 0.7, nv))
            mono = condense(posy, anchor)
            assert abs(mono.value(anchor) - posy.value(anchor)) <= 1e-9
            for _ in range(5):
                x = np.exp(rng.uniform(-0.7, 0.7, nv))
                assert mono.value(x) <= posy.value(x) + 1e-9


class TestPosynomialAlgebra:
    def test_rejects_empty_and_negative(self):
        with pytest.raises(NonPositiveTermError):
            Posynomial(np.array([]), np.zeros((0, 2)))
        with pytest.raises(NonPositiveTermError):
            Posynomial(np.array([1.0, -1.0]), np.zeros((2, 2)))


class TestBuildGp:
    def test_constraint_census_secure(self):
        cfg = weak_interference(eh_demands=(0.8, 0.8))
        anchor = OperatingPoint(np.ones(2), np.full(2, 0.5))
        gp = build_gp(cfg, Weights.pair(0.5), ORDER12, anchor, SECURE)
        labels = gp.labels
        assert sum(l.startswith("rate") for l in labels) == 2
        assert sum(l.startswith("eh") for l in labels) == 2
        assert len(labels) == 4

    def test_zero_demand_constraints_vacuous(self):
        # With no demand the harvesting requirement holds everywhere, so the
        # instance must admit any box-feasible split pattern.
        cfg = weak_interference(eh_demands=(0.0, 0.0))
        anchor = OperatingPoint(np.ones(2), np.full(2, 0.5))
        gp = build_gp(cfg, Weights.pair(0.5), ORDER12, anchor, SECURE)
        assert sum(l.startswith("eh") for l in gp.labels) == 0
        for eta in (1e-6, 0.3, 1.0):
            x = np.concatenate([[gp.anchor[0]], [1.0, 1e-6], [eta, eta]])
            eh_ok = all(c.value(x) <= 1 + 1e-9 for c, l in
                        zip(gp.constraints, gp.labels) if l.startswith("eh"))
            assert eh_ok

    def test_zero_eve_channels_match_reliable(self):
        from dataclasses import replace
        cfg = replace(weak_interference(), eve_channels=np.zeros((2, 2), dtype=complex))
        anchor = OperatingPoint(np.ones(2), np.full(2, 0.5))
        gp_sec = build_gp(cfg, Weights.pair(0.5), ORDER12, anchor, SECURE)
        gp_rel = build_gp(cfg, Weights.pair(0.5), ORDER12, anchor, RELIABLE)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = np.exp(rng.uniform(-1, 0, 5))
            for cs, cr in zip(gp_sec.constraints, gp_rel.constraints):
                assert cs.value(x) == pytest.approx(cr.value(x), rel=1e-12)

    def test_eve_det_matches_covariance_determinant(self):
        # Cauchy-Binet: the terms sum to det(I + sum_j (p_j/sbar) h_j h_j^H)
        # for any user set, including rank-deficient channel geometries where
        # some Gram minors vanish up to rounding.
        rng = np.random.default_rng(17)
        for trial in range(60):
            k, m = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            cfg = random_config(rng, num_users=k, num_eve_antennas=m)
            h = np.array(cfg.eve_channels)
            if trial % 3 == 1:        # every user on one direction (parallel)
                h = rng.uniform(0.3, 0.7, k)[:, None] * h[0] / np.linalg.norm(h[0])
            elif trial % 3 == 2:      # user 1 a scaled copy of user 0
                h[1] = rng.uniform(0.5, 2.0) * h[0]
            cfg = replace(cfg, eve_channels=h)
            for _ in range(5):
                p = rng.uniform(0, 1, k) * cfg.power_budget
                users = [int(u) for u in rng.permutation(k)[:rng.integers(0, k + 1)]]
                cov = rank_one_update_sum(
                    m, [(p[j] / cfg.eve_noise_total, h[j]) for j in users])
                exact = 2.0 ** log2_det(cov)
                det = sum(minor * np.prod(p[list(t)]) for t, minor in cfg.eve_det_terms(users))
                assert det == pytest.approx(exact, rel=1e-12)


def _recondense_cases():
    """(cfg, weights, order, mode): the weak, strong and strong/parallel-Eve
    fixtures and random K = 2, 3 draws, in both modes and both orders."""
    cfgs = [weak_interference(eh_demands=(0.8, 0.8)), strong_interference(),
            strong_interference(eh_demands=(0.5, 0.5), eve_geometry="parallel")]
    rng = np.random.default_rng(61)
    cfgs += [random_config(rng, num_users=k, eh_fraction=f)
             for k, f in ((2, 0.6), (3, 0.3), (3, 0.6))]
    cases = []
    for i, cfg in enumerate(cfgs):
        w = rng.uniform(0.2, 1.0, cfg.num_users)
        users = tuple(range(cfg.num_users))
        for mode in (RELIABLE, SECURE):
            for perm in (users, users[::-1]):
                cases.append(pytest.param(cfg, Weights(w / w.sum()),
                                          DecodingOrder(perm), mode,
                                          id=f"cfg{i}-{mode}-{''.join(map(str, perm))}"))
    return cases


def _assert_same_gp(got, want):
    assert got.labels == want.labels
    for name in ("anchor", "floors", "caps", "a", "b"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    for stack in ("numerators", "denominators"):
        for g, w in zip(getattr(got, stack), getattr(want, stack)):
            assert np.array_equal(g, w)


class TestRecondense:
    @pytest.mark.parametrize("cfg,weights,order,mode", _recondense_cases())
    def test_recondensed_equals_fresh_build(self, cfg, weights, order, mode):
        start = solver._feasible_start(cfg)
        gp = build_gp(cfg, weights, order, start, mode)
        _assert_same_gp(gp.recondensed(start), gp)
        _, point, _ = solve_gp(gp)
        _assert_same_gp(gp.recondensed(point),
                        build_gp(cfg, weights, order, point, mode))

    @pytest.mark.parametrize("cfg,weights,order,mode", _recondense_cases())
    def test_iterate_equals_rebuild_loop(self, cfg, weights, order, mode):
        # Reference: every GP built from scratch with the public functions,
        # and after every two GPs the SqS3 step, accepted by the exact lambda
        # and row values of the public constraints at the candidate's anchor;
        # each GP starts from the previous one's multipliers.
        gp = build_gp(cfg, weights, order, solver._feasible_start(cfg), mode)
        thetas = [np.log(gp.anchor[1:])]
        trace, failures, extrapolated, duals = [], 0, 0, None
        for i in range(solver.MAX_ITERS):
            if i:
                gp = build_gp(cfg, weights, order, point, mode)
                thetas.append(np.log(gp.anchor[1:]))
                if len(thetas) == 3:
                    gp, accepted = _sqs3_reference(cfg, weights, order, mode,
                                                   gp, thetas)
                    extrapolated += accepted
                    thetas = [np.log(gp.anchor[1:])]
            solution = solve_gp(gp, duals)
            lam, point, gp_failures = solution
            duals = solution.duals
            trace.append(lam)
            failures += gp_failures
            if (len(trace) >= 2 and abs(trace[-1] - trace[-2])
                    <= solver.EPS_CONV * max(1.0, trace[-1])):
                break
        # Then every split at its best value at the final powers.
        point = OperatingPoint(point.powers,
                               np.maximum(point.splits, max_splits(cfg, point.powers)))
        rep = iterate(cfg, weights, order, mode)
        assert rep.lam_trace == trace
        assert np.array_equal(rep.op.powers, point.powers)
        assert np.array_equal(rep.op.splits, point.splits)
        assert rep.optimizer_failures == failures
        assert rep.extrapolated == extrapolated


def _warm_start_cases():
    """The _recondense_cases fixtures, and 20 random K = 2, 3 draws in both
    modes, each in a random order with weights in [0.2, 1] before scaling."""
    cases = _recondense_cases()
    rng = np.random.default_rng(17)
    for draw in range(20):
        k = 2 + draw % 2
        cfg = random_config(rng, num_users=k, num_eve_antennas=int(rng.integers(1, 4)),
                            eh_fraction=float(rng.uniform(0.0, 0.8)))
        order = DecodingOrder(tuple(int(u) for u in rng.permutation(k)))
        w = rng.uniform(0.2, 1.0, k)
        cases += [pytest.param(cfg, Weights(w / w.sum()), order, mode,
                               id=f"draw{draw}-{mode}") for mode in (RELIABLE, SECURE)]
    return cases


@pytest.mark.parametrize("cfg,weights,order,mode", _warm_start_cases())
def test_warm_started_loop_matches_cold_loop(monkeypatch, cfg, weights, order, mode):
    # Starting each GP from the previous GP's multipliers changes only where
    # the interior point starts: the loop ends at the cold loop's objective.
    warm = iterate(cfg, weights, order, mode)
    solve = solver.solve_gp
    monkeypatch.setattr(solver, "solve_gp", lambda gp, duals=None: solve(gp))
    cold = iterate(cfg, weights, order, mode)
    assert warm.objective == pytest.approx(cold.objective, rel=0.0, abs=1e-5)


def _exact_log_lambda(gp):
    """Log lambda that makes the tightest rate row active at the GP's anchor
    (where lambda is 1), and the largest log value of the other rows there
    (-inf without one), from the public constraints."""
    logs = np.log([c.value(gp.anchor) for c in gp.constraints])
    alphas = np.array([c.exponents[0, 0] for c in gp.constraints])
    rate = alphas > 0
    return -np.max(logs[rate] / alphas[rate]), np.max(logs[~rate], initial=-np.inf)


def _sqs3_reference(cfg, weights, order, mode, gp, thetas):
    """The GP after anchors theta0 -> theta1 -> theta2 (``gp`` is built at
    theta2): built at the SqS3 extrapolation, step length capped at 4, when
    that anchor meets every row and raises the exact lambda."""
    theta0, theta1, theta2 = thetas
    r = theta1 - theta0
    v = theta2 - 2.0 * theta1 + theta0
    step = (max(-np.linalg.norm(r) / np.linalg.norm(v), -4.0) if v.any()
            else -4.0)
    if step >= -1.0:
        return gp, False
    theta = np.clip(theta0 - 2.0 * step * r + step ** 2 * v,
                    np.log(gp.floors[1:]), np.log(gp.caps[1:]))
    k = cfg.num_users
    try:
        candidate = build_gp(cfg, weights, order,
                             OperatingPoint(np.exp(theta[:k]), np.exp(theta[k:])),
                             mode)
    except (NonPositiveTermError, InfeasibleAnchorError):
        return gp, False
    log_lam, worst = _exact_log_lambda(candidate)
    if worst <= solver.FEAS_TOL and log_lam > _exact_log_lambda(gp)[0]:
        return candidate, True
    return gp, False


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=10),
       num_vars=st.integers(1, 7), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_log_sum_exp_matches_per_row_reduce(sizes, num_vars, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2.0, 2.0, (sum(sizes), num_vars))
    z = rng.uniform(-1.0, 1.0, num_vars)
    b = rng.uniform(-40.0, 40.0, sum(sizes)) - a @ z    # log terms in +-40
    starts = np.cumsum([0] + sizes[:-1])
    seg = np.repeat(np.arange(len(sizes)), sizes)
    log_g, shares = solver._log_posynomials(a, b, starts, seg, z)
    r = a @ z + b
    for i, (first, size) in enumerate(zip(starts, sizes)):
        row = slice(first, first + size)
        assert log_g[i] == pytest.approx(np.logaddexp.reduce(r[row]),
                                         rel=1e-12, abs=1e-12)
        assert shares[row].sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), num_users=st.sampled_from([2, 3]),
       mode=st.sampled_from([RELIABLE, SECURE]), eh_fraction=st.floats(0.0, 0.6))
def test_constraint_jacobian_matches_central_differences(seed, num_users, mode,
                                                         eh_fraction):
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, num_users=num_users, eh_fraction=eh_fraction)
    order = DecodingOrder(tuple(int(k) for k in rng.permutation(num_users)))
    w = rng.uniform(0.2, 1.0, num_users)
    gp = build_gp(cfg, Weights(w / w.sum()), order, solver._feasible_start(cfg),
                  mode)
    seen = []
    interior_point = solver._interior_point

    def capture(*args):
        seen.append(args)
        return interior_point(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_interior_point", capture)
        solve_gp(gp)
    a, b, starts, seg = seen[0][:4]

    def rows(y):
        return solver._log_posynomials(a, b, starts, seg, y)

    def jac(y):
        return solver._row_jacobian(a, starts, rows(y)[1])

    def central(fun, y, h=1e-6):
        return np.stack([(fun(y + h * e) - fun(y - h * e)) / (2 * h)
                         for e in np.eye(y.size)], axis=-1)

    y0 = np.log(gp.anchor)
    for y in (y0, y0 + rng.normal(0.0, 0.2, y0.size)):
        assert np.allclose(jac(y), central(lambda x: rows(x)[0], y),
                           rtol=0.0, atol=1e-6)
        # The Newton system weights each row's Hessian by its multiplier.
        numeric = central(jac, y)
        for row, weights in enumerate(np.eye(starts.size)):
            hessian = solver._row_hessian(a, seg, rows(y)[1], jac(y), weights)
            assert np.allclose(hessian, numeric[row], rtol=0.0, atol=1e-6)


class TestSolveGp:
    def test_box_only_toy(self):
        # maximize lam subject to lam / p <= 1, p <= 2 (K=1 layout); the
        # bound is a ratio too, over the denominator 1.
        gp = GpInstance(
            num_users=1, labels=["obj", "box"],
            floors=np.array([1e-12, 1e-12, 1e-6]),
            caps=np.array([1e12, 1e12, 1.0]),
            numerators=solver._stack([Posynomial([1.0], [1.0, 0.0, 0.0]),
                                      Posynomial([0.5], [0.0, 1.0, 0.0])]),
            denominators=solver._stack([Posynomial([1.0], [0.0, 1.0, 0.0]),
                                        Posynomial([1.0], [0.0, 0.0, 0.0])]),
        ).recondensed(OperatingPoint(np.array([1.0]), np.array([0.5])))
        assert np.array_equal(gp.anchor, [1.0, 1.0, 0.5])
        lam, op, _ = solve_gp(gp)
        assert lam == pytest.approx(2.0, rel=1e-6)
        assert op.powers[0] == pytest.approx(2.0, rel=1e-6)

    def test_no_regression_below_anchor(self):
        cfg = weak_interference()
        anchor = OperatingPoint(np.ones(2), np.full(2, 0.5))
        gp = build_gp(cfg, Weights.pair(0.5), ORDER12, anchor, RELIABLE)
        lam, _, _ = solve_gp(gp)
        anchor_rate = min(legitimate_rates(cfg, anchor) / 0.5)
        assert np.log2(lam) >= anchor_rate - 1e-9

    def test_anchor_over_a_demand_is_no_failure(self):
        # An anchor may violate a row by up to FEAS_TOL, so its lambda can lie
        # above the GP's optimum.  The converged point is that optimum: the
        # solve keeps it and counts no failure.
        cfg = weak_interference(eh_demands=(0.8, 0.8))
        weights = Weights.pair(1.0)
        powers = iterate(cfg, weights, None, RELIABLE).op.powers
        splits = max_splits(cfg, powers) + np.array([5e-9, 0.0])
        gp = build_gp(cfg, weights, ORDER12, OperatingPoint(powers, splits), RELIABLE)
        energy = gp.constraints[gp.labels.index("eh[0]")]
        assert 4e-9 < np.log(energy.value(gp.anchor)) < solver.FEAS_TOL
        lam, _, failures = solve_gp(gp)
        assert failures == 0
        assert np.log(lam) < solver._exact_lambda(gp, np.log(gp.anchor))[0][0] - 1e-9

    def test_singular_newton_system_is_retried(self):
        # On this draw a harvesting slack of the first GP collapses to ~1e-17
        # and a Newton system turns singular; retried with a ridge at its
        # rounding level, the run converges and the solve reaches the
        # oracle's objective.
        rng = np.random.default_rng(2026)
        for _ in range(7):
            cfg = random_config(rng, num_users=2,
                                num_eve_antennas=int(rng.integers(1, 4)),
                                eh_fraction=float(rng.uniform(0, 0.8)))
        rep = iterate(cfg, Weights.pair(0.25), None, RELIABLE)
        assert rep.optimizer_failures == 0
        oracle = oracle_grid_search(cfg, RELIABLE, Weights.pair(0.25))
        assert rep.objective >= oracle.objective - 1e-9

    def test_solution_copies_and_pickles(self):
        gp = build_gp(weak_interference(), Weights.pair(0.5), ORDER12,
                      OperatingPoint(np.ones(2), np.full(2, 0.5)), RELIABLE)
        solution = solve_gp(gp)
        for other in (copy.copy(solution), copy.deepcopy(solution),
                      pickle.loads(pickle.dumps(solution))):
            assert other[0] == solution[0] and other[2] == solution[2]
            assert other.newton_steps == solution.newton_steps
            assert other.log_lam == solution.log_lam
            assert np.array_equal(other.duals, solution.duals)

    @pytest.mark.parametrize("tiny", [1e-300, 1e-30, 1e-12])
    def test_tiny_weight_keeps_lambda(self, tiny):
        # Setting lambda in closed form divides each rate row by its weight;
        # a far sub-rounding weight must not drag lambda down through it.
        cfg = random_config(np.random.default_rng(1))
        anchor = OperatingPoint(0.5 * cfg.power_budget, np.full(2, 0.5))

        def lam(w0):
            gp = build_gp(cfg, Weights(np.array([w0, 1.0 - w0])), ORDER12,
                          anchor, RELIABLE)
            return solve_gp(gp)[0]

        assert lam(tiny) == pytest.approx(lam(1e-6), rel=1e-5)

    def test_excess_demand_infeasible(self):
        cfg = weak_interference(eh_demands=(2.0, 2.0))
        with pytest.raises(InfeasibleError):
            iterate(cfg, Weights.pair(0.5), None, RELIABLE)

    @pytest.mark.parametrize("mode", [RELIABLE, SECURE])
    def test_demand_limit_is_closed_form(self, monkeypatch, mode):
        # A demand is feasible exactly when it is below max_deliverable_energy:
        # one above fails before any GP is solved, and one within FLOOR_FRAC
        # of it solves, as the split floor stays below its largest split.
        cfg = random_config(np.random.default_rng(5))
        c = cfg.harvest_offsets[0]
        reach = max_deliverable_energy(cfg) - c
        over = with_demands(cfg, [0.0, (c + reach)[1] * (1 + 1e-9)])
        under = with_demands(cfg, [0.0, c[1] + (1 - 0.5 * solver.FLOOR_FRAC) * reach[1]])

        def no_optimizer(*args):
            raise AssertionError("the optimizer ran")

        with monkeypatch.context() as patch:
            patch.setattr(solver, "_interior_point", no_optimizer)
            with pytest.raises(InfeasibleError):
                iterate(over, Weights.pair(0.5), ORDER12, mode)
        rep = iterate(under, Weights.pair(0.5), ORDER12, mode)
        assert harvested_energies(under, rep.op).per_user[1] >= under.eh_demands[1] - 1e-9


class TestIterate:
    def test_weak_eh_symmetric_point(self):
        cfg = weak_interference(eh_demands=(0.8, 0.8))
        rep = iterate(cfg, Weights.pair(0.5), None, RELIABLE)
        assert rep.converged
        assert rep.rates[0] == pytest.approx(1.04026, abs=1e-3)
        assert rep.rates[1] == pytest.approx(1.04026, abs=1e-3)

    def test_strong_eh_symmetric_point(self):
        cfg = strong_interference(eh_demands=(1.0, 1.0))
        rep = iterate(cfg, Weights.pair(0.5), None, RELIABLE)
        assert rep.rates[0] == pytest.approx(0.68353, abs=1e-3)

    def test_single_user_endpoint(self):
        cfg = weak_interference()
        rep = iterate(cfg, Weights.pair(1.0), None, RELIABLE)
        assert rep.rates[0] == pytest.approx(np.log2(3), abs=1e-3)
        assert rep.op.powers[1] <= 1e-5          # silent user at the floor
        assert rep.op.splits[0] == pytest.approx(1.0, abs=1e-6)

    def test_trace_improves_over_anchor_per_iteration(self):
        # Each GP optimum must be at least the value its own anchor implies;
        # the first anchor is full power with half splits.
        cfg = weak_interference(eh_demands=(0.5, 0.5))
        rep = iterate(cfg, Weights.pair(0.5), None, RELIABLE)
        anchor = OperatingPoint(cfg.power_budget, np.full(2, 0.5))
        lam0 = 2.0 ** min(legitimate_rates(cfg, anchor) / 0.5)
        assert rep.lam_trace[0] >= lam0 - 1e-9
        assert not rep.non_monotone

    def test_reliable_traces_nondecreasing(self):
        # Without lagged matrices re-anchoring can only help, so the trace
        # climbs monotonically up to solver tolerance.
        rng = np.random.default_rng(53)
        for _ in range(8):
            cfg = random_config(rng, eh_fraction=float(rng.uniform(0, 0.7)))
            rep = iterate(cfg, Weights.pair(float(rng.uniform(0.2, 0.8))),
                          None, RELIABLE)
            trace = rep.lam_trace
            assert all(b >= a - 1e-6 * max(1.0, a)
                       for a, b in zip(trace, trace[1:]))
            assert not rep.non_monotone

    def test_true_constraints_hold_at_solution(self):
        rng = np.random.default_rng(43)
        for mode in (RELIABLE, SECURE):
            for _ in range(5):
                cfg = random_config(rng, eh_fraction=float(rng.uniform(0, 0.6)))
                rep = iterate(cfg, Weights.pair(0.5), ORDER12, mode)
                energies = harvested_energies(cfg, rep.op).per_user
                assert np.all(energies >= cfg.eh_demands - 1e-6)
                assert np.all(rep.op.powers <= cfg.power_budget + 1e-9)
                assert np.all(rep.op.splits <= 1.0 + 1e-12)
                rates = legitimate_rates(cfg, rep.op)
                if mode == SECURE:
                    rates = rates - eve_rate_chain(cfg, rep.op.powers, ORDER12)
                    rates = np.maximum(rates, 0.0)
                # lam encodes the worst weighted effective rate exactly.
                assert np.log2(rep.lam) == pytest.approx(min(rates / 0.5), abs=1e-6)

    def test_gaps_nonnegative_and_small_at_convergence(self):
        cfg = weak_interference(eh_demands=(0.8, 0.8))
        rep = iterate(cfg, Weights.pair(0.5), None, RELIABLE)
        assert np.all(rep.gaps >= -1e-9)
        assert np.all(rep.gaps <= 1e-3)

    def test_secure_corner_consistency(self):
        cfg = strong_interference(eve_geometry="parallel")
        for perm in ((0, 1), (1, 0)):
            order = DecodingOrder(perm)
            rep = iterate(cfg, Weights.pair(0.5), order, SECURE)
            corner = secrecy_corner(cfg, rep.op, order)
            assert np.allclose(rep.rates, corner.per_user, atol=1e-12)

    def test_underflowed_lambda_does_not_end_the_loop(self):
        # From this start a 1.4e-6 weight on a negative secrecy gap puts the
        # first GPs' optimum far below the smallest float (log lambda about
        # -8440), so their lambda is 0.0; the loop goes on until a positive
        # lambda settles.
        rng = np.random.default_rng(22745)
        cfg = random_config(rng, num_users=3, eh_fraction=0.0625)
        order = DecodingOrder(tuple(int(k) for k in rng.permutation(3)))
        start = OperatingPoint(0.05 * cfg.power_budget, np.full(3, 0.05))
        alpha = np.array([0.7, 1e-6, 0.0])
        rep = iterate(cfg, Weights(alpha / alpha.sum()), order, SECURE, start=start)
        trace = rep.lam_trace
        assert trace[0] == 0.0
        assert rep.converged and trace[-1] > 0.0
        assert abs(trace[-1] - trace[-2]) <= solver.EPS_CONV * trace[-1]

    def test_respects_iteration_budget(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_ITERS", 2)
        rep = iterate(weak_interference(), Weights.pair(0.5), None, RELIABLE)
        assert rep.iterations <= 2

    def test_secure_traces_nondecreasing(self):
        # The exact eavesdropper determinants make each condensed GP an inner
        # approximation exact at its anchor, so secure traces climb too.
        runs = [(strong_interference(eve_geometry="parallel"), Weights.pair(a),
                 DecodingOrder(perm))
                for a in (0.25, 0.5, 0.75) for perm in ((0, 1), (1, 0))]
        rng = np.random.default_rng(29)
        for _ in range(4):
            cfg = random_config(rng, num_users=3, eh_fraction=0.3)
            runs.append((cfg, Weights(rng.dirichlet(np.ones(3))),
                         DecodingOrder(tuple(int(u) for u in rng.permutation(3)))))
        for cfg, weights, order in runs:
            rep = iterate(cfg, weights, order, SECURE)
            assert not rep.non_monotone, rep.lam_trace

    def test_secure_solver_within_five_percent_of_oracle(self):
        runs = [(base(eh_demands=psi, eve_geometry="parallel"), Weights.pair(a),
                 DecodingOrder(perm))
                for base, psi in ((weak_interference, (0.5, 0.5)),
                                  (strong_interference, (0.0, 0.0)))
                for a in (0.25, 0.5, 0.75) for perm in ((0, 1), (1, 0))]
        for cfg, weights, order in runs:
            oracle = oracle_grid_search(cfg, SECURE, weights, order, resolution=51)
            rep = iterate(cfg, weights, order, SECURE)
            shortfall = max(oracle.objective - rep.objective, 0.0)
            assert shortfall <= 0.05 * max(oracle.objective, 1e-12), (
                f"alpha={weights.alpha} order={order.users}: solver "
                f"{rep.objective}, oracle {oracle.objective}")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), num_users=st.sampled_from([2, 3]),
       mode=st.sampled_from([RELIABLE, SECURE]),
       eh_fraction=st.floats(0.0, 0.8),
       weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                        min_size=3, max_size=3).filter(lambda w: w[0] + w[1] > 0),
       anchor_frac=st.floats(0.05, 1.0))
@example(seed=0, num_users=3, mode=SECURE, eh_fraction=0.0,
         weights=[0.0, 1.0, 1e-6], anchor_frac=0.25)
@example(seed=22745, num_users=3, mode=SECURE, eh_fraction=0.06254498702348564,
         weights=[0.7, 1e-6, 0.0], anchor_frac=0.05)
def test_solve_gp_feasible_and_rate_row_tight(seed, num_users, mode, eh_fraction,
                                              weights, anchor_frac):
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, num_users=num_users, eh_fraction=eh_fraction)
    order = DecodingOrder(tuple(int(k) for k in rng.permutation(num_users)))
    anchor = OperatingPoint(anchor_frac * cfg.power_budget,
                            np.full(num_users, anchor_frac))
    alpha = np.array(weights[:num_users])
    gp = build_gp(cfg, Weights(alpha / alpha.sum()), order, anchor, mode)
    try:
        solution = solve_gp(gp)
    except InfeasibleAnchorError:
        # Only a missed demand makes an anchor infeasible.
        assert max(c.value(gp.anchor) for c, label in zip(gp.constraints, gp.labels)
                   if label.startswith("eh")) > 1.0 + 1e-8
        return
    lam, op, _ = solution
    # The rows are evaluated in log space at the solution's log lambda: in
    # the pinned examples a ~1e-6 weight on a negative secrecy gap puts the
    # optimum's log lambda near -8440 and -45700, where lambda is 0.0.
    assert np.exp(solution.log_lam) == lam
    log_x = np.concatenate([[solution.log_lam], np.log(op.powers), np.log(op.splits)])
    values = np.exp([np.logaddexp.reduce(np.log(c.coeffs) + c.exponents @ log_x)
                     for c in gp.constraints])
    rate = np.array([label.startswith("rate") for label in gp.labels])
    assert np.all(values <= 1.0 + 1e-8)
    assert abs(values[rate].max() - 1.0) <= 1e-9


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), num_users=st.sampled_from([2, 3]),
       num_eve_antennas=st.sampled_from([1, 2, 3]),
       mode=st.sampled_from([RELIABLE, SECURE]), eh_fraction=st.floats(0.0, 0.95),
       small=st.floats(1e-6, 1e-2))
def test_iterate_from_feasible_start_never_fails(seed, num_users, num_eve_antennas,
                                                 mode, eh_fraction, small):
    # Demands within the closed-form limit always solve, from a feasible
    # start that every iterate keeps, even when a small-weight user has a
    # negative secrecy gap that pushes lambda far below 2^-64.
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, num_users=num_users,
                        num_eve_antennas=num_eve_antennas, eh_fraction=eh_fraction)
    order = DecodingOrder(tuple(int(k) for k in rng.permutation(num_users)))
    w = rng.uniform(0.2, 1.0, num_users)
    w[rng.integers(num_users)] = small
    rep = iterate(cfg, Weights(w / w.sum()), order, mode)
    energies = harvested_energies(cfg, rep.op).per_user
    assert np.all(energies >= cfg.eh_demands * (1 - 1e-7))
    assert np.all(rep.op.powers <= cfg.power_budget * (1 + 1e-12))
    assert np.all(rep.op.splits <= 1.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), num_users=st.sampled_from([2, 3]),
       num_eve_antennas=st.sampled_from([1, 2, 3]), parallel=st.booleans(),
       weights=st.lists(st.floats(1e-3, 1.0), min_size=3, max_size=3),
       anchor_frac=st.floats(0.05, 1.0))
def test_secure_condensation_is_inner(seed, num_users, num_eve_antennas,
                                      parallel, weights, anchor_frac):
    # Every secure rate row is at least lambda^alpha_k 2^{-(R_k - R_Ek)}, so a
    # point the condensed GP accepts satisfies the true secrecy constraint.
    # Points near the anchor, where the condensation is tight, alternate with
    # points drawn over the whole box.
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, num_users=num_users,
                        num_eve_antennas=num_eve_antennas)
    if parallel:
        h = cfg.eve_channels
        cfg = replace(cfg, eve_channels=np.linalg.norm(h, axis=1)[:, None]
                      * h[0] / np.linalg.norm(h[0]))
    order = DecodingOrder(tuple(int(k) for k in rng.permutation(num_users)))
    anchor = OperatingPoint(anchor_frac * cfg.power_budget,
                            rng.uniform(0.05, 1.0, num_users))
    alpha = np.array(weights[:num_users])
    gp = build_gp(cfg, Weights(alpha / alpha.sum()), order, anchor, SECURE)
    rows = [(int(label[5:-1]), c) for label, c in zip(gp.labels, gp.constraints)
            if label.startswith("rate")]
    for i in range(10):
        if i % 2:
            x = np.exp(rng.uniform(np.log(np.maximum(gp.floors, 2.0 ** -64)),
                                   np.log(gp.caps)))
        else:
            x = np.clip(gp.anchor * np.exp(rng.normal(0.0, 0.3, gp.anchor.size)),
                        gp.floors, gp.caps)
        x[0] = np.exp(rng.uniform(-3.0, 3.0))
        op = OperatingPoint(x[1:num_users + 1], x[num_users + 1:])
        eff = legitimate_rates(cfg, op) - eve_rate_chain(cfg, op.powers, order)
        for k, row in rows:
            # The lambda exponent of every term of row k is alpha_k.
            bound = x[0] ** row.exponents[0, 0] * 2.0 ** -eff[k]
            assert row.value(x) >= bound * (1 - 1e-9)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), num_users=st.sampled_from([2, 3]),
       num_eve_antennas=st.sampled_from([1, 2, 3]), parallel=st.booleans(),
       mode=st.sampled_from([RELIABLE, SECURE]),
       energy_model=st.sampled_from(list(EnergyModel)),
       eh_fraction=st.floats(0.0, 0.9),
       weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                        min_size=3, max_size=3).filter(lambda w: w[0] + w[1] > 0))
def test_uncondensed_rows_equal_exact_formulas(seed, num_users, num_eve_antennas,
                                               parallel, mode, energy_model,
                                               eh_fraction, weights):
    # Away from any anchor, rate row k's numerator over its denominator is
    # lambda^alpha_k 2^{-(R_k - R_Ek)} (R_Ek = 0 in reliable mode), and
    # harvesting row k's numerator minus its denominator is psi_k - E_k.
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, num_users=num_users, num_eve_antennas=num_eve_antennas,
                        eh_fraction=eh_fraction, energy_model=energy_model)
    if parallel:
        h = cfg.eve_channels
        cfg = replace(cfg, eve_channels=np.linalg.norm(h, axis=1)[:, None]
                      * h[0] / np.linalg.norm(h[0]))
    order = DecodingOrder(tuple(int(k) for k in rng.permutation(num_users)))
    alpha = np.array(weights[:num_users]) / sum(weights[:num_users])
    gp = build_gp(cfg, Weights(alpha), order, solver._feasible_start(cfg), mode)
    for _ in range(25):
        x = np.exp(rng.uniform(np.log(np.maximum(gp.floors, 2.0 ** -64)),
                               np.log(gp.caps)))
        x[0] = np.exp(rng.uniform(-3.0, 3.0))
        powers, splits = x[1:num_users + 1], x[num_users + 1:]
        num, den = (np.add.reduceat(np.exp(stack.a @ np.log(x) + stack.b), stack.starts)
                    for stack in (gp.numerators, gp.denominators))
        gap = metrics.tin_rates(cfg, powers, splits)
        if mode == SECURE:
            gap = gap - metrics.eve_leaks(cfg, powers, order)
        energy = metrics.energies(cfg, powers, splits)
        for i, label in enumerate(gp.labels):
            k = int(label[label.index("[") + 1:-1])
            if label.startswith("rate"):
                assert np.log(num[i]) - np.log(den[i]) == pytest.approx(
                    alpha[k] * np.log(x[0]) - np.log(2.0) * gap[k], rel=0.0, abs=1e-12)
            else:
                assert num[i] - den[i] == pytest.approx(
                    cfg.eh_demands[k] - energy[k], rel=0.0,
                    abs=1e-12 * max(1.0, num[i], den[i]))


def _plain_mm_objective(cfg, weights, order, mode):
    """Exact objective after the plain condensation loop: each GP built at
    the previous GP's solution, with no extrapolated anchor."""
    point = solver._feasible_start(cfg)
    trace = []
    for _ in range(solver.MAX_ITERS):
        lam, point, _ = solve_gp(build_gp(cfg, weights, order, point, mode))
        trace.append(lam)
        if (len(trace) >= 2 and abs(trace[-1] - trace[-2])
                <= solver.EPS_CONV * max(1.0, trace[-1])):
            break
    eff = (secrecy_corner(cfg, point, order).per_user if mode == SECURE
           else legitimate_rates(cfg, point))
    active = weights.alpha > 0
    return float(np.min(eff[active] / weights.alpha[active]))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), num_users=st.sampled_from([2, 3]),
       num_eve_antennas=st.sampled_from([1, 2, 3]),
       mode=st.sampled_from([RELIABLE, SECURE]), eh_fraction=st.floats(0.0, 0.8))
def test_extrapolated_loop_no_worse_than_plain(seed, num_users, num_eve_antennas,
                                               mode, eh_fraction):
    # Extrapolated anchors may only shorten the loop: the objective stays at
    # least the plain loop's, the trace climbs, and the point stays feasible.
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, num_users=num_users,
                        num_eve_antennas=num_eve_antennas, eh_fraction=eh_fraction)
    order = DecodingOrder(tuple(int(k) for k in rng.permutation(num_users)))
    weights = Weights(rng.dirichlet(np.ones(num_users)))
    rep = iterate(cfg, weights, order, mode)
    assert rep.objective >= _plain_mm_objective(cfg, weights, order, mode) - 1e-6
    trace = rep.lam_trace
    assert all(b >= a - solver.EPS_CONV * max(1.0, a)
               for a, b in zip(trace, trace[1:]))
    assert not rep.non_monotone
    energies = harvested_energies(cfg, rep.op).per_user
    assert np.all(energies >= cfg.eh_demands * (1 - 1e-7))
    assert np.all(rep.op.powers <= cfg.power_budget * (1 + 1e-12))


def test_secure_sweep_uses_fewer_gps(monkeypatch):
    # The strong parallel-Eve secure sweep took 590 GP solves with the plain
    # loop and 332 with extrapolated anchors alone; warm-started continuation
    # along the weights cuts that further without moving the hull.  Starting
    # each GP from the previous GP's multipliers took its Newton steps from
    # 1176 to 820.
    reports = []
    real_iterate = region.iterate

    def recording(*args, **kwargs):
        reports.append(real_iterate(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(region, "iterate", recording)
    boundary = region.sweep(strong_interference(eve_geometry="parallel"), SECURE,
                            psi=(0.0, 0.0), grid=21)
    assert not boundary.failures
    assert sum(pt.iterations for pt in boundary.points) <= 240
    assert sum(pt.newton_steps for pt in boundary.points) <= 900
    assert any(rep.extrapolated > 0 for rep in reports)
    hull = boundary.hull
    area = float(np.trapezoid(hull[:, 1], hull[:, 0]))
    assert area == pytest.approx(0.4999983168596667, rel=1e-9)


@pytest.mark.parametrize("mode", [RELIABLE, SECURE])
def test_infeasible_start_raises(monkeypatch, mode):
    # Splits above the best split at the start's powers miss both demands:
    # the first GP's anchor is infeasible, so the solve fails before the
    # optimizer runs, as at any infeasible anchor.
    cfg = weak_interference(eh_demands=(0.8, 0.8), eve_geometry="parallel")
    weights = Weights(np.array([0.4, 0.6]))
    start = OperatingPoint(0.9 * cfg.power_budget, np.ones(2))
    assert np.all(max_splits(cfg, start.powers) < start.splits)
    calls = []
    monkeypatch.setattr(solver, "_interior_point", lambda *args: calls.append(args))
    with pytest.raises(NumericalFailureError) as caught:
        iterate(cfg, weights, ORDER12, mode, start=start)
    assert isinstance(caught.value.__cause__, InfeasibleAnchorError)
    assert not calls


@pytest.mark.parametrize("mode", [RELIABLE, SECURE])
def test_feasible_start_is_kept(mode):
    # A neighbouring weight's solution meets every constraint, so the solve
    # begins there and ends at the cold solve's objective.
    cfg = weak_interference(eh_demands=(0.8, 0.8), eve_geometry="parallel")
    weights = Weights(np.array([0.4, 0.6]))
    start = iterate(cfg, Weights(np.array([0.45, 0.55])), ORDER12, mode).op
    rep = iterate(cfg, weights, ORDER12, mode, start=start)
    assert rep.objective == pytest.approx(
        iterate(cfg, weights, ORDER12, mode).objective, abs=1e-5)


def test_vertex_start_reaches_cold_objective():
    # Every power at its budget and every split at 1 puts each variable on a
    # bound, the hardest start for an interior-point solve.  On this draw an
    # optimizer once took such a start for the optimum and stopped the loop
    # 0.037 bit below the cold solve.
    cfg = random_config(np.random.default_rng(7362), 2, 3, eh_fraction=0.0)
    weights = Weights(np.array([3 / 7, 4 / 7]))
    start = OperatingPoint(cfg.power_budget.copy(), np.ones(2))
    rep = iterate(cfg, weights, ORDER12, SECURE, start=start)
    cold = iterate(cfg, weights, ORDER12, SECURE)
    assert cold.objective == pytest.approx(0.503518, abs=1e-6)
    assert rep.objective == pytest.approx(cold.objective, abs=1e-5)


@pytest.mark.parametrize("powers, splits", [
    ([1.0, 1.0, 1.0], [0.5, 0.5, 0.5]),     # wrong length
    ([np.inf, 1.0], [0.5, 0.5]),            # not finite
    ([-1.0, 1.0], [0.5, 0.5]),              # negative power
    ([1.0, 1.0], [0.5, 1.5]),               # split outside [0, 1]
])
def test_malformed_start_rejected(powers, splits):
    with pytest.raises(ConfigError):
        iterate(weak_interference(), Weights.pair(0.5), None, RELIABLE,
                start=OperatingPoint(np.array(powers), np.array(splits)))


# Endpoint solves whose outcome must not depend on the BLAS thread count: the
# weak reliable single-user endpoints (log2 3) and the zero-demand secure
# endpoints of acceptance criterion 4 (1 bit).  Thread counts are fixed when
# BLAS loads, so they run in a fresh interpreter.
ENDPOINT_SCRIPT = """
import json
from dataclasses import replace
import numpy as np
from swiptsec import DecodingOrder, Weights, iterate
from swiptsec.scenarios import strong_interference, weak_interference

out = {"reliable": [], "secure": []}
for alpha1, user in ((1.0, 0), (0.0, 1)):
    rep = iterate(weak_interference(), Weights.pair(alpha1), None, "reliable")
    out["reliable"].append(rep.rates[user])
rng = np.random.default_rng(4)
geometries = [weak_interference(eve_geometry=g).eve_channels
              for g in ("orthogonal", "parallel")]
for _ in range(3):
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    geometries.append(0.5 * raw / np.linalg.norm(raw, axis=1, keepdims=True))
for eve in geometries:
    for base in (weak_interference(), strong_interference()):
        cfg = replace(base, eve_channels=eve)
        for alpha1, user in ((1.0, 0), (0.0, 1)):
            rep = iterate(cfg, Weights.pair(alpha1), DecodingOrder((0, 1)),
                          "secure")
            out["secure"].append(rep.rates[user])
print(json.dumps(out))
"""


def test_endpoints_with_one_blas_thread():
    src = str(Path(swiptsec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", ENDPOINT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["reliable"] == pytest.approx([np.log2(3.0)] * 2, abs=1e-3)
    assert out["secure"] == pytest.approx([1.0] * 20, abs=1e-3)


def test_import_loads_no_scipy():
    # The package runs on numpy alone: a fresh interpreter that imports it,
    # its CLI and its checks has no scipy module loaded.
    src = str(Path(swiptsec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, swiptsec, swiptsec.cli, swiptsec.checks; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
