import copy
import gc
import itertools
import json
import os
import pickle
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import swiptsec
from swiptsec import checks, metrics, model, region, solver
from swiptsec import (ConfigError, DecodingOrder, EnergyModel, GpInstance,
                      InfeasibleError, NumericalFailureError, OperatingPoint,
                      Posynomial, Weights,
                      build_gp, condense, eve_rate_chain, harvested_energies,
                      iterate, legitimate_rates, log2_det, rank_one_update_sum,
                      secrecy_corner, solve_gp)
from swiptsec.region import oracle_grid_search
from swiptsec.model import max_deliverable_energy, max_splits
from swiptsec.solver import RELIABLE, SECURE
from swiptsec.scenarios import (random_config, strong_interference,
                                symmetric_two_user, weak_interference)

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
    pairs = [(posy.coeffs, posy.exponents) for posy in posys]
    stacked = solver._posynomial_layout(pairs, pairs).part(False)
    exponents, log_coefs = solver._condense(*stacked, np.log(anchor))
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
    with pytest.raises(NumericalFailureError, match="term shares must be finite and > 0"):
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
        with pytest.raises(ConfigError, match=r"anchor\]: must be finite and > 0"):
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
        with pytest.raises(ConfigError, match="posynomial needs at least one term"):
            Posynomial(np.array([]), np.zeros((0, 2)))
        with pytest.raises(ConfigError, match=r"coeffs\]: must be finite and > 0"):
            Posynomial(np.array([1.0, -1.0]), np.zeros((2, 2)))
        with pytest.raises(ConfigError, match=r"exponents\]: 3 rows for 2 coefficients"):
            Posynomial(np.ones(2), np.zeros((3, 2)))


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


def _parts(gp):
    """The GP's numerators, denominators and monomials, each the (a, b,
    starts, seg) of a part of its exact or condensed layout."""
    return gp.exact.part(False), gp.exact.part(True), gp.condensed.part(True)


def _assert_same_gp(got, want):
    assert got.labels == want.labels
    for name in ("anchor", "floors", "caps"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    for got_part, want_part in zip(_parts(got), _parts(want), strict=True):
        for g, w in zip(got_part, want_part, strict=True):
            assert np.array_equal(g, w)


class TestRecondense:
    @pytest.mark.parametrize("cfg,weights,order,mode", _recondense_cases())
    def test_recondensed_equals_fresh_build(self, cfg, weights, order, mode):
        start = solver.feasible_start(cfg)
        gp = build_gp(cfg, weights, order, start, mode)
        _assert_same_gp(gp.recondensed(start), gp)
        point = solve_gp(gp).op
        _assert_same_gp(gp.recondensed(point),
                        build_gp(cfg, weights, order, point, mode))

    @pytest.mark.parametrize("cfg,weights,order,mode", _recondense_cases())
    def test_iterate_equals_rebuild_loop(self, cfg, weights, order, mode):
        # Reference: every GP built from scratch with the public functions at
        # the previous GP's solution, each starting from the previous one's
        # multipliers.  After the first GP the interior point runs once on
        # the exact rows, and its point ends the solve when
        # _polish_reference accepts it.
        gp = build_gp(cfg, weights, order, solver.feasible_start(cfg), mode)
        trace, failures, duals = [], 0, None
        polished = None
        for i in range(solver.MAX_ITERS):
            if i:
                gp = build_gp(cfg, weights, order, point, mode)
            solution = solve_gp(gp, duals)
            point, duals = solution.op, solution.duals
            trace.append(solution.log_lam)
            failures += solution.failures
            if not i:
                polished = _polish_reference(gp, solution)
                if polished is not None:
                    point = polished
                    break
            if (len(trace) >= 2 and np.log1p(-solver.EPS_CONV) <= trace[-2] - trace[-1]
                    <= np.log1p(solver.EPS_CONV)):
                break
        # Then every split at its best value at the final powers.
        point = OperatingPoint(point.powers,
                               np.maximum(point.splits, max_splits(cfg, point.powers)))
        rep = iterate(cfg, weights, order, mode)
        assert rep.polished == (polished is not None)
        assert rep.lam_trace == [log_lam / np.log(2.0) for log_lam in trace]
        assert np.array_equal(rep.op.powers, point.powers)
        assert np.array_equal(rep.op.splits, point.splits)
        assert rep.optimizer_failures == failures


@pytest.mark.parametrize("cfg,weights,order,mode", _recondense_cases())
def test_constraints_are_numerators_over_monomials(cfg, weights, order, mode):
    # GpInstance.constraints shows row i as its numerator's terms, each
    # divided by the row's one-term monomial: same term count, and the
    # value N_i(x) / M_i(x) at the anchor and away from it.
    gp = build_gp(cfg, weights, order, solver.feasible_start(cfg), mode)
    (num_a, num_b, num_starts, _), _, (mono_a, mono_b, mono_starts, _) = _parts(gp)
    rows = len(gp.labels)
    assert mono_a.shape == (rows, gp.anchor.size)
    assert np.array_equal(mono_starts, np.arange(rows))
    constraints = gp.constraints
    sizes = np.diff(np.append(num_starts, num_b.size))
    assert [c.num_terms for c in constraints] == sizes.tolist()
    rng = np.random.default_rng(3)
    points = [gp.anchor]
    for _ in range(5):
        points.append(_box_draw(gp, rng))
    for x in points:
        log_x = np.log(x)
        numerators = np.add.reduceat(np.exp(num_a @ log_x + num_b), num_starts)
        want = numerators / np.exp(mono_a @ log_x + mono_b)
        got = [c.value(x) for c in constraints]
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("cfg,weights,order,mode", _recondense_cases())
def test_condensed_rows_keep_the_exact_numerators(cfg, weights, order, mode):
    # A condensed GP lays out the numerators of its exact rows, bit for bit,
    # over one monomial per row that touches its exact denominator at the
    # anchor; checked on the cold GP and on the next one.
    gp = build_gp(cfg, weights, order, solver.feasible_start(cfg), mode)
    for gp in (gp, gp.recondensed(solve_gp(gp).op)):
        for got, want in zip(gp.condensed.part(False), gp.exact.part(False), strict=True):
            assert _identical(got, want)
        y = np.log(gp.anchor)
        mono, den = (np.exp(solver._log_posynomials(*part, y)[0])
                     for part in (gp.condensed.part(True), gp.exact.part(True)))
        assert mono == pytest.approx(den, rel=1e-12, abs=0.0)


def _box_draw(gp, rng):
    """x = (lambda, p, eta) with log lambda uniform in [-3, 3] and each log
    power and split uniform over the GP's box."""
    box = np.exp(rng.uniform(np.log(gp.floors), np.log(gp.caps)))
    return np.concatenate([[np.exp(rng.uniform(-3.0, 3.0))], box])


def test_anchor_is_the_linear_clip():
    # gp.anchor is (1, p, eta) with p and eta clipped to the box in linear
    # space, bit for bit: through logs and back about half of these anchors
    # move by an ulp.
    rng = np.random.default_rng(11)
    cfgs = [weak_interference(eh_demands=(0.8, 0.8)), strong_interference(),
            strong_interference(eh_demands=(0.5, 0.5), eve_geometry="parallel")]
    cfgs += [random_config(rng, num_users=3, num_eve_antennas=int(rng.integers(1, 4)),
                           eh_fraction=float(rng.uniform(0.0, 0.6))) for _ in range(10)]
    for cfg in cfgs:
        k = cfg.num_users
        weights, order = Weights(np.full(k, 1.0 / k)), DecodingOrder(tuple(range(k)))
        for _ in range(4):
            anchor = OperatingPoint(cfg.power_budget * rng.uniform(0.0, 1.2, k),
                                    rng.uniform(0.0, 1.0, k))
            want = np.concatenate([[1.0], np.clip(np.concatenate([anchor.powers,
                                                                  anchor.splits]),
                                                  *solver.variable_box(cfg))])
            for mode in (RELIABLE, SECURE):
                gp = build_gp(cfg, weights, order, anchor, mode)
                assert _identical(gp.anchor, want)
                assert _identical(gp.recondensed(anchor).anchor, want)


def _gradients(part, y):
    """Gradient of each log-sum-exp row of a layout part at y."""
    a, _, starts, _ = part
    return solver._row_jacobian(a, starts, solver._log_posynomials(*part, y)[1])


@pytest.mark.parametrize("cfg,weights,order,mode", _recondense_cases())
def test_converged_gp_run_meets_dual_residual(cfg, weights, order, mode):
    # Every interior-point run, a GP's included, converges only where the
    # multipliers balance the objective: |G^T z - e_0| <= 1e-8 at its last
    # iterate, with each row's gradient that of its numerator minus its
    # monomial's and a bound row for each power and split, none for lambda.
    # Checked on the cold first GP and on the next, started from its
    # multipliers.
    gps = [build_gp(cfg, weights, order, solver.feasible_start(cfg), mode)]
    runs = []
    interior_point = solver._interior_point

    def capture(*args):
        runs.append((args, interior_point(*args)))
        return runs[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_interior_point", capture)
        solution = solve_gp(gps[0])
        gps.append(gps[0].recondensed(solution.op))
        solve_gp(gps[1], solution.duals)
    for gp, ((rows, *_), (y, _, z, converged, _)) in zip(gps, runs, strict=True):
        assert rows is gp.condensed
        num, _, den = _parts(gp)
        assert den[1].size == num[2].size       # one monomial per row
        assert converged
        box = np.eye(y.size)[1:]
        assert z.size == num[2].size + 2 * box.shape[0]
        jac = np.vstack([_gradients(num, y) - _gradients(den, y), box, -box])
        residual = jac.T @ z
        residual[0] -= 1.0
        assert np.abs(residual).max() <= 1e-8


def _exact_log_rows(gp, y):
    """log N_i - log D_i of every row at log point y, term by term."""
    num, den = (np.add.reduceat(np.exp(a @ y + b), starts)
                for a, b, starts, _ in _parts(gp)[:2])
    return np.log(num) - np.log(den)


def _row_hessian(num, den, y, weights):
    """sum_i weights_i (H_Ni - H_Di) term by term, with H = A^T diag(c) A -
    p p^T the Hessian of a log-sum-exp posynomial over its exponents A, its
    terms' shares c and its gradient p."""
    total = 0.0
    for sign, part in ((1.0, num), (-1.0, den)):
        shares = solver._log_posynomials(*part, y)[1]
        grads = _gradients(part, y)
        exponents, b, starts, _ = part
        for i, first in enumerate(starts):
            last = starts[i + 1] if i + 1 < starts.size else b.size
            a = exponents[first:last]
            total = total + sign * weights[i] * (a.T @ (shares[first:last, None] * a)
                                                 - np.outer(grads[i], grads[i]))
    return total


def _exact_rows_lambda(gp, y):
    """Log lambda that makes the tightest exact rate row active at the log
    point y, and the largest exact row there."""
    a, _, starts, _ = _parts(gp)[0]
    alphas = a[starts, 0]
    rate = alphas > 0
    tight = y.copy()
    tight[0] -= np.max(_exact_log_rows(gp, y)[rate] / alphas[rate])
    return tight[0], _exact_log_rows(gp, tight).max()


def _polish_reference(gp, solution):
    """The better of the GP solution and the point of the interior point on
    the GP's exact rows over the power and split box from that solution and
    its multipliers, or None unless the run converged, the exact rows hold
    within FEAS_TOL at the closed-form lambda and that lambda is not below
    the one at the solution by more than the run's tolerance."""
    lo, hi = gp.log_box
    op = solution.op
    y = np.concatenate([[solution.log_lam],
                        np.clip(np.log(np.concatenate([op.powers, op.splits])), lo, hi)])
    y_end, _, _, converged, _ = solver._interior_point(gp.exact, y, lo, hi, solution.duals)
    if not converged:
        return None
    y_end[1:] = np.clip(y_end[1:], lo, hi)
    log_lam, worst = _exact_rows_lambda(gp, y_end)
    start_lam = _exact_rows_lambda(gp, y)[0]
    if worst > solver.FEAS_TOL or log_lam < start_lam - solver.IPM_TOL:
        return None
    x = np.exp((y_end if log_lam > start_lam else y)[1:])
    return OperatingPoint(x[:gp.num_users], x[gp.num_users:])


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


def _identical(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.array_equal(got, want))


def _assert_identical_gp(got, want):
    assert got.labels == want.labels
    pairs = [(got.floors, want.floors), (got.caps, want.caps), (got.anchor, want.anchor),
             *zip(got.log_box, want.log_box)]
    for got_part, want_part in zip(_parts(got), _parts(want), strict=True):
        pairs += zip(got_part, want_part, strict=True)
    for got_arr, want_arr in pairs:
        assert _identical(got_arr, want_arr)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), num_users=st.sampled_from([2, 3]),
       num_eve_antennas=st.integers(1, 3), eh_fraction=st.floats(0.0, 0.6))
def test_cached_rows_build_the_cold_gp(seed, num_users, num_eve_antennas, eh_fraction):
    # build_gp keeps the weight-free rows per config, mode, order and set of
    # weighted users; a GP from those rows is the GP of a cold build on a
    # fresh copy of the config, bit for bit, for every weight on that set.
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, num_users=num_users, num_eve_antennas=num_eve_antennas,
                        eh_fraction=eh_fraction)
    perm = tuple(int(k) for k in rng.permutation(num_users))
    some = rng.random(num_users) < 0.7
    some[rng.integers(num_users)] = True
    anchor = OperatingPoint(cfg.power_budget * rng.uniform(0.05, 1.0, num_users),
                            rng.uniform(0.05, 0.95, num_users))
    for mode in (RELIABLE, SECURE):
        for order in (DecodingOrder(perm), DecodingOrder(perm[::-1])):
            for support in (some, np.ones(num_users, dtype=bool)):
                gps = []
                for _ in range(2):
                    w = np.where(support, rng.uniform(0.05, 1.0, num_users), 0.0)
                    weights = Weights(w / w.sum())
                    gps.append(build_gp(cfg, weights, order, anchor, mode))
                    _assert_identical_gp(gps[-1], build_gp(replace(cfg), weights,
                                                           order, anchor, mode))
                # Both weights share one row set, which differs only in
                # lambda's exponents where two or more users have a weight;
                # lambda enters no denominator, so neither monomial moves.
                (num0, den0, mono0), (num1, den1, mono1) = map(_parts, gps)
                assert gps[0].exact.b is gps[1].exact.b
                assert all(_identical(g, w) for g, w in zip(den0, den1, strict=True))
                assert np.array_equal(num0[0], num1[0]) == (support.sum() == 1)
                for g, w in zip(mono0, mono1, strict=True):
                    assert _identical(g, w)
                # A config from replace, with the same demands or with
                # others, builds its own rows.
                for psi in (cfg.eh_demands, rng.uniform(0.0, 0.6) * cfg.eh_demands[::-1]):
                    other = replace(cfg, eh_demands=psi)
                    gp = build_gp(other, weights, order, anchor, mode)
                    assert gp.exact.b is not gps[1].exact.b
                    _assert_identical_gp(gp, build_gp(replace(other), weights, order,
                                                      anchor, mode))
                    if psi is cfg.eh_demands:
                        _assert_identical_gp(gp, gps[1])
    # Each support's layout is assembled from rate and harvesting rows that
    # the supports share, each built by the first support that needs it: in
    # any build order it is the layout of a build on a fresh copy of the
    # config, which builds only that support's rows.
    supports = [np.eye(num_users, dtype=bool)[k] for k in range(num_users)]
    supports += [some, np.ones(num_users, dtype=bool)]
    builds = [(mode, DecodingOrder(users), support) for mode in (RELIABLE, SECURE)
              for users in (perm, perm[::-1]) for support in supports]
    shared = replace(cfg)
    for i in rng.permutation(len(builds)):
        mode, order, support = builds[i]
        w = np.where(support, rng.uniform(0.05, 1.0, num_users), 0.0)
        weights = Weights(w / w.sum())
        _assert_identical_gp(build_gp(shared, weights, order, anchor, mode),
                             build_gp(replace(cfg), weights, order, anchor, mode))


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), mode=st.sampled_from([RELIABLE, SECURE]),
       eh_fraction=st.floats(0.0, 0.6))
def test_sweep_repeats_on_one_config(seed, mode, eh_fraction):
    # The second sweep of a config object builds every GP from its cached
    # rows and returns the same boundary, bit for bit.  Each point holds its
    # solve's report, whose objective is that of its rates, bit for bit.
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, num_users=2, num_eve_antennas=int(rng.integers(1, 4)),
                        eh_fraction=eh_fraction)
    first, second = (region.sweep(cfg, mode, grid=6) for _ in range(2))
    assert first.failures == second.failures
    assert _identical(first.hull, second.hull)
    assert len(first.points) == len(second.points)
    for p, q in zip(first.points, second.points):
        rep = p.report
        assert (p.rates_raw is rep.rates and p.op is rep.op and p.order is rep.order
                and p.iterations is rep.iterations and p.converged is rep.converged)
        assert not rep.rates.flags.writeable
        assert rep.objective == float(metrics.max_min_objective(rep.rates, p.weights))
        assert (p.order, p.iterations, rep.newton_steps) == (q.order, q.iterations,
                                                             q.report.newton_steps)
        for x, y in ((p.rates_raw, q.rates_raw), (p.op.powers, q.op.powers),
                     (p.op.splits, q.op.splits)):
            assert _identical(x, y)


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
    gp = build_gp(cfg, Weights(w / w.sum()), order, solver.feasible_start(cfg),
                  mode)
    seen = []
    interior_point = solver._interior_point

    def capture(*args):
        seen.append(args)
        return interior_point(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_interior_point", capture)
        solve_gp(gp)
    assert seen[0][0] is gp.condensed
    num, _, den = _parts(gp)

    def rows(y):
        return solver._log_rows(gp.condensed, y)[0]

    def jac(y):
        return _gradients(num, y) - _gradients(den, y)

    def central(fun, y, h=1e-6):
        return np.stack([(fun(y + h * e) - fun(y - h * e)) / (2 * h)
                         for e in np.eye(y.size)], axis=-1)

    y0 = np.log(gp.anchor)
    for y in (y0, y0 + rng.normal(0.0, 0.2, y0.size)):
        assert np.allclose(jac(y), central(rows, y), rtol=0.0, atol=1e-6)
        # The Newton system weights each row's Hessian, its numerator's
        # minus its monomial's, by its multiplier.
        numeric = central(jac, y)
        for row, weights in enumerate(np.eye(num[2].size)):
            hessian = _row_hessian(num, den, y, weights)
            assert np.allclose(hessian, numeric[row], rtol=0.0, atol=1e-6)


def _newton_matrices(gp, rows, den, rng):
    """At a random log point near the GP's anchor, with random multipliers z
    and slacks s: _newton_matrix over ``rows``, the layout of the GP's
    numerators over ``den``, and the term-by-term sum_i z_i (H_Ni - H_Di)
    + G^T diag(z/s) G."""
    num = _parts(gp)[0]
    n, r = num[0].shape[1], num[2].size
    y = np.log(gp.anchor) + rng.normal(0.0, 0.2, n)
    z, s = rng.uniform(0.01, 2.0, (2, r + 2 * (n - 1)))
    grads = np.vstack([_gradients(num, y), _gradients(den, y)])
    box = np.eye(n)[1:]         # a bound row for each power and split
    jac = np.vstack([grads[:r] - grads[r:], box, -box])
    term_by_term = _row_hessian(num, den, y, z[:r]) + jac.T @ ((z / s)[:, None] * jac)
    mat = rows.m.copy()
    mat[rows.b.size:rows.b.size + 3 * r] = np.vstack([grads, jac[:r]])
    assert np.array_equal(mat[rows.b.size + 2 * r:], jac)
    one = solver._newton_matrix(rows, mat, solver._log_rows(rows, y)[1], z, z / s)
    return one, term_by_term


def _assert_one_product_newton_matrix(cfg, weights, order, mode, rng):
    gp = build_gp(cfg, weights, order, solver.feasible_start(cfg), mode)
    _, exact_den, mono = _parts(gp)
    for rows, den in ((gp.condensed, mono), (gp.exact, exact_den)):
        one, term_by_term = _newton_matrices(gp, rows, den, rng)
        assert np.abs(one - term_by_term).max() <= 1e-12 * np.abs(term_by_term).max()


@pytest.mark.parametrize("cfg,weights,order,mode", _recondense_cases())
def test_newton_matrix_is_one_product(cfg, weights, order, mode):
    # Each Newton step assembles its matrix as the one product M^T diag(w) M
    # over the run's matrix; it is the term-by-term sum of the rows'
    # Hessians and the barrier part, over a GP's condensed rows and over
    # the exact rows.
    _assert_one_product_newton_matrix(cfg, weights, order, mode,
                                      np.random.default_rng(23))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), mode=st.sampled_from([RELIABLE, SECURE]),
       eh_fraction=st.floats(0.0, 0.6))
def test_newton_matrix_is_one_product_on_k3_draws(seed, mode, eh_fraction):
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, num_users=3, num_eve_antennas=int(rng.integers(1, 4)),
                        eh_fraction=eh_fraction)
    order = DecodingOrder(tuple(int(k) for k in rng.permutation(3)))
    w = rng.uniform(0.2, 1.0, 3) * (rng.random(3) < 0.8)
    w[rng.integers(3)] = 1.0
    _assert_one_product_newton_matrix(cfg, Weights(w / w.sum()), order, mode, rng)


def _two_evaluation_lambda(num, den, y):
    """_exact_lambda as it was: the closed-form lambda, with the rows
    evaluated again at the tightened point for the worst row."""
    def rows(y):
        return (solver._log_posynomials(*num, y)[0]
                - solver._log_posynomials(*den, y)[0])

    log_g = rows(y)
    alphas = num[0][num[2], 0]
    rate = alphas > 0
    tight = y.copy()
    tight[0] -= np.max(log_g[rate] / alphas[rate])
    if tight[0] < y[0] - solver.FEAS_TOL and log_g.max() <= solver.FEAS_TOL:
        return y, float(log_g.max())
    return tight, float(rows(tight).max())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), num_users=st.sampled_from([2, 3]),
       mode=st.sampled_from([RELIABLE, SECURE]), eh_fraction=st.floats(0.0, 0.6),
       log_lam=st.floats(-3.0, 3.0))
def test_exact_lambda_evaluates_the_rows_once(seed, num_users, mode, eh_fraction,
                                              log_lam):
    # lambda enters rate row k only as lambda^alpha_k, so the worst row at
    # the tightened point is max(log g_i - alpha_i shift) from one
    # evaluation: within 1e-12 of evaluating the rows there, and the point
    # is the one of evaluating them twice, over the condensed and the exact
    # rows, at the anchor and away from it.
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, num_users=num_users, eh_fraction=eh_fraction)
    order = DecodingOrder(tuple(int(k) for k in rng.permutation(num_users)))
    w = rng.uniform(0.2, 1.0, num_users)
    gp = build_gp(cfg, Weights(w / w.sum()), order, solver.feasible_start(cfg), mode)
    y0 = np.log(gp.anchor)
    num, exact_den, mono = _parts(gp)
    for y in (y0, y0 + np.concatenate([[log_lam], rng.normal(0.0, 0.2, y0.size - 1)])):
        for rows, den in ((gp.condensed, mono), (gp.exact, exact_den)):
            point, worst = solver._exact_lambda(rows, y)
            assert worst == pytest.approx(solver._log_rows(rows, point)[0].max(),
                                          rel=0.0, abs=1e-12)
            old_point, old_worst = _two_evaluation_lambda(num, den, y)
            assert np.array_equal(point, old_point)
            assert worst == pytest.approx(old_worst, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("cfg,weights,order,mode", _recondense_cases())
def test_run_sets_lambda_from_the_last_row_values(monkeypatch, cfg, weights, order, mode):
    # _run sets the closing lambda from the row values of the interior
    # point's last convergence test where the clip to the box leaves the
    # last iterate as it is, and evaluates the rows again where the clip
    # moves it; either way its point and worst row are _exact_lambda's on
    # the clipped iterate, bit for bit.  A run from the anchor ends inside
    # the box; one cut after a Newton step from a start above the power
    # caps ends outside it.
    gp = build_gp(cfg, weights, order, solver.feasible_start(cfg), mode)
    y0 = np.log(gp.anchor)
    above = y0.copy()
    above[1:1 + gp.num_users] += 1.0
    log_rows = solver._log_rows
    calls = []

    def counted(*args):
        calls.append(args)
        return log_rows(*args)

    monkeypatch.setattr(solver, "_log_rows", counted)
    for budget, y in ((solver.IPM_MAXITER, y0), (1, above)):
        monkeypatch.setattr(solver, "IPM_MAXITER", budget)
        for rows in (gp.condensed, gp.exact):
            calls.clear()
            y_end, log_g, *_ = solver._interior_point(rows, y, *gp.log_box)
            run_calls = len(calls)
            assert np.array_equal(log_g, log_rows(rows, y_end)[0])
            clipped = solver._clipped(gp, y_end)
            moved = not np.array_equal(clipped, y_end)
            assert moved == (budget == 1)
            want, want_worst = solver._exact_lambda(rows, clipped)
            calls.clear()
            got, worst, *_ = solver._run(gp, rows, y)
            assert len(calls) == run_calls + moved
            assert _identical(got, want) and worst == want_worst


def test_config_layouts_are_read_only_private_and_dropped():
    # The exact rows' layout is built once per config, mode, order and set
    # of weighted users and kept with the config (SystemConfig.cached),
    # read-only, like its variable box.  Each weight writes lambda's
    # exponents, and nothing else, into its own copy of the layout's
    # matrix.  The copy of the config that replace returns builds its own,
    # and the layout is gone once its config is collected.
    cfg = strong_interference(eh_demands=(0.5, 0.5), eve_geometry="parallel")
    weights = Weights(np.array([0.4, 0.6]))
    key = ("rows", SECURE, ORDER12.users, np.ones(2, dtype=bool).tobytes())

    def kept(config):
        return config.cached(key, lambda: pytest.fail("the rows were not kept"))

    gp = build_gp(cfg, weights, ORDER12, solver.feasible_start(cfg), SECURE)
    unanchored, lam = kept(cfg)
    cached = unanchored.exact
    floors, caps = solver.variable_box(cfg)
    assert solver.variable_box(cfg)[0] is floors
    for array in (*cached, *gp.exact, *gp.condensed, floors, caps, lam):
        assert not array.flags.writeable
    assert not np.shares_memory(gp.exact.m, cached.m)
    changed = gp.exact.m != cached.m
    assert changed[:, 0].any() and not changed[:, 1:].any()
    assert all(mine is shared for mine, shared in zip(gp.exact[1:], cached[1:]))
    other = replace(cfg, eh_demands=cfg.eh_demands)
    build_gp(other, weights, ORDER12, solver.feasible_start(other), SECURE)
    theirs = kept(other)[0].exact
    assert not any(np.shares_memory(mine, shared) for mine, shared in zip(theirs, cached))
    assert np.array_equal(theirs.m, cached.m)
    config, layout = weakref.ref(cfg), weakref.ref(cached.m)
    del cfg, gp, unanchored, lam, cached, floors, caps
    gc.collect()
    assert config() is None and layout() is None


class TestSolveGp:
    def test_box_only_toy(self):
        # maximize lam subject to lam / p <= 1, p <= 2 (K=1 layout); the
        # bound is a ratio too, over the denominator 1, and lambda has no box.
        floors, caps = np.array([1e-12, 1e-6]), np.array([1e12, 1.0])
        nums = [Posynomial([1.0], [1.0, 0.0, 0.0]), Posynomial([0.5], [0.0, 1.0, 0.0])]
        dens = [Posynomial([1.0], [0.0, 1.0, 0.0]), Posynomial([1.0], [0.0, 0.0, 0.0])]
        gp = GpInstance(
            num_users=1, labels=["obj", "box"], floors=floors, caps=caps,
            log_box=(np.log(floors), np.log(caps)),
            exact=solver._posynomial_layout(*[[(p.coeffs, p.exponents) for p in side]
                                              for side in (nums, dens)]),
        ).recondensed(OperatingPoint(np.array([1.0]), np.array([0.5])))
        assert np.array_equal(gp.anchor, [1.0, 1.0, 0.5])
        solution = solve_gp(gp)
        assert np.exp(solution.log_lam) == pytest.approx(2.0, rel=1e-6)
        assert solution.op.powers[0] == pytest.approx(2.0, rel=1e-6)

    def test_no_regression_below_anchor(self):
        cfg = weak_interference()
        anchor = OperatingPoint(np.ones(2), np.full(2, 0.5))
        gp = build_gp(cfg, Weights.pair(0.5), ORDER12, anchor, RELIABLE)
        log_lam = solve_gp(gp).log_lam
        anchor_rate = min(legitimate_rates(cfg, anchor) / 0.5)
        assert log_lam / np.log(2.0) >= anchor_rate - 1e-9

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
        solution = solve_gp(gp)
        assert solution.failures == 0
        anchor_lambda = solver._exact_lambda(gp.condensed, np.log(gp.anchor))
        assert solution.log_lam < anchor_lambda[0][0] - 1e-9

    def test_singular_newton_system_is_retried(self, monkeypatch):
        # A slack that collapses to ~1e-17 can make elimination meet an exact
        # zero pivot; here the solve's first Newton system is reported
        # singular once.  Retried with a ridge at its rounding level, the run
        # converges and the solve reaches the oracle's objective.
        rng = np.random.default_rng(2026)
        for _ in range(7):
            cfg = random_config(rng, num_users=2,
                                num_eve_antennas=int(rng.integers(1, 4)),
                                eh_fraction=float(rng.uniform(0, 0.8)))
        linear_solve = np.linalg.solve
        systems = []

        def singular_once(kkt, rhs):
            systems.append(kkt.copy())
            if len(systems) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return linear_solve(kkt, rhs)

        monkeypatch.setattr(np.linalg, "solve", singular_once)
        rep = iterate(cfg, Weights.pair(0.25), None, RELIABLE)
        monkeypatch.undo()
        first, retried = systems[:2]
        ridged = first.copy()
        ridged.flat[::first.shape[0] + 1] += 1e-15 * np.abs(first).max()
        assert np.array_equal(retried, ridged) and not np.array_equal(retried, first)
        assert rep.optimizer_failures == 0 and rep.converged
        oracle = oracle_grid_search(cfg, RELIABLE, Weights.pair(0.25))
        assert rep.objective >= oracle.objective - 1e-9

    def test_inertia_correction_keeps_a_positive_definite_matrix(self):
        kkt = np.array([[2.0, 0.5], [0.5, 1.0]])
        before = kkt.copy()
        assert solver._inertia_corrected(kkt)
        assert np.array_equal(kkt, before)

    def test_inertia_correction_shifts_an_indefinite_matrix(self):
        kkt = np.array([[1.0, 0.0, 0.0], [0.0, -1e-9, 0.0], [0.0, 0.0, -0.5]])
        before = kkt.copy()
        assert solver._inertia_corrected(kkt)
        # The first delta of 1e-8, 1e-7, ... above the eigenvalue -0.5 is 1.
        assert kkt.diagonal() - before.diagonal() == pytest.approx(np.ones(3), rel=1e-12)
        assert np.array_equal(kkt - np.diag(kkt.diagonal()),
                              before - np.diag(before.diagonal()))
        np.linalg.cholesky(kkt)

    def test_inertia_correction_rejects_a_non_finite_matrix(self, monkeypatch):
        kkt = np.array([[1.0, np.nan], [np.nan, 1.0]])
        assert not solver._inertia_corrected(kkt)
        # Such a matrix ends the polish's run unconverged, and the
        # condensation loop ends the solve.
        monkeypatch.setattr(solver, "_inertia_corrected", lambda kkt: False)
        rep = iterate(weak_interference(), Weights.pair(0.5), None, RELIABLE)
        assert not rep.polished and rep.converged and rep.iterations > 1

    def test_solution_copies_and_pickles(self):
        gp = build_gp(weak_interference(), Weights.pair(0.5), ORDER12,
                      OperatingPoint(np.ones(2), np.full(2, 0.5)), RELIABLE)
        solution = solve_gp(gp)
        for other in (copy.copy(solution), copy.deepcopy(solution),
                      pickle.loads(pickle.dumps(solution))):
            assert other.log_lam == solution.log_lam
            assert other.failures == solution.failures
            assert other.newton_steps == solution.newton_steps
            assert np.array_equal(other.duals, solution.duals)

    @pytest.mark.parametrize("tiny", [1e-300, 1e-30, 1e-12])
    def test_tiny_weight_keeps_lambda(self, tiny):
        # Setting lambda in closed form divides each rate row by its weight;
        # a far sub-rounding weight must not drag lambda down through it.
        cfg = random_config(np.random.default_rng(1))
        anchor = OperatingPoint(0.5 * cfg.power_budget, np.full(2, 0.5))

        def log_lam(w0):
            gp = build_gp(cfg, Weights(np.array([w0, 1.0 - w0])), ORDER12,
                          anchor, RELIABLE)
            return solve_gp(gp).log_lam

        assert np.exp(log_lam(tiny) - log_lam(1e-6)) == pytest.approx(1.0, rel=1e-5)

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
        over = replace(cfg, eh_demands=[0.0, (c + reach)[1] * (1 + 1e-9)])
        under = replace(cfg, eh_demands=[0.0, c[1] + (1 - 0.5 * solver.FLOOR_FRAC) * reach[1]])

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
        assert 2.0 ** rep.lam_trace[0] >= lam0 - 1e-9
        assert not rep.non_monotone

    def test_reliable_traces_nondecreasing(self):
        # Without lagged matrices re-anchoring can only help, so the trace
        # climbs monotonically up to solver tolerance.
        rng = np.random.default_rng(53)
        for _ in range(8):
            cfg = random_config(rng, eh_fraction=float(rng.uniform(0, 0.7)))
            rep = iterate(cfg, Weights.pair(float(rng.uniform(0.2, 0.8))),
                          None, RELIABLE)
            trace = [2.0 ** bit for bit in rep.lam_trace]
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
                # The objective is the worst weighted effective rate.
                assert rep.objective == pytest.approx(min(rates / 0.5), abs=1e-6)

    def test_gaps_nonnegative_and_small_at_convergence(self, monkeypatch):
        # The gaps are the last GP's, at that GP's solution: a polished solve
        # ends after its first GP, so they are the cold GP's, while the
        # condensation loop, run with the polish rejected, ends where they
        # are small.
        cfg = weak_interference(eh_demands=(0.8, 0.8))
        rep = iterate(cfg, Weights.pair(0.5), None, RELIABLE)
        assert rep.polished and rep.iterations == 1
        gp = build_gp(cfg, Weights.pair(0.5), ORDER12, solver.feasible_start(cfg),
                      RELIABLE)
        point = solve_gp(gp).op
        x = np.concatenate([[1.0], point.powers, point.splits])
        den_a, den_b, den_starts, _ = _parts(gp)[1]
        cut = den_starts[1:]
        dens = [Posynomial(np.exp(b), a) for a, b in zip(np.split(den_a, cut),
                                                          np.split(den_b, cut))]
        want = [den.value(x) - condense(den, gp.anchor).value(x) for den in dens]
        assert rep.gaps == pytest.approx(want, rel=1e-9, abs=1e-15)
        assert np.all(rep.gaps >= -1e-9)
        monkeypatch.setattr(solver, "_polished", lambda gp, y, ref, z=None: (None, None, 0))
        rep = iterate(cfg, Weights.pair(0.5), None, RELIABLE)
        assert not rep.polished and rep.converged
        assert np.all(rep.gaps >= -1e-9)
        assert np.all(rep.gaps <= 1e-3)

    def test_secure_corner_consistency(self):
        cfg = strong_interference(eve_geometry="parallel")
        for perm in ((0, 1), (1, 0)):
            order = DecodingOrder(perm)
            rep = iterate(cfg, Weights.pair(0.5), order, SECURE)
            corner = secrecy_corner(cfg, rep.op, order)
            assert np.allclose(rep.rates, corner, atol=1e-12)

    def test_underflowed_lambda_does_not_end_the_loop(self, monkeypatch):
        # From this start a 1.4e-6 weight on a negative secrecy gap puts the
        # first GPs' optimum near -12175 bit, far below log2 of the smallest
        # float (-1074), where lambda itself would be 0.0; the trace holds
        # log2 lambda, which stays finite.  With user 3 silent, the polish
        # from the start with its power at its floor ends the solve without
        # a GP.  The polish straight from the start uses up its Newton
        # steps, so the first GP runs; the polish after it climbs from there
        # to an objective at least the loop's, and the floored one's is no
        # lower.  With every polish rejected, the loop climbs to about
        # -0.32 bit and stops only once lambda settles.
        rng = np.random.default_rng(22745)
        cfg = random_config(rng, num_users=3, eh_fraction=0.0625)
        order = DecodingOrder(tuple(int(k) for k in rng.permutation(3)))
        start = OperatingPoint(0.05 * cfg.power_budget, np.full(3, 0.05))
        alpha = np.array([0.7, 1e-6, 0.0])
        weights = Weights(alpha / alpha.sum())
        floored = iterate(cfg, weights, order, SECURE, start=start)
        assert floored.polished and not floored.lam_trace
        _unfloored(monkeypatch)
        polished = iterate(cfg, weights, order, SECURE, start=start)
        assert polished.polished and len(polished.lam_trace) == 1
        assert floored.objective >= polished.objective
        assert polished.lam_trace[0] == pytest.approx(-12175.35, abs=0.01)
        monkeypatch.setattr(solver, "_polished", lambda gp, y, ref, z=None: (None, None, 0))
        rep = iterate(cfg, weights, order, SECURE, start=start)
        trace = rep.lam_trace
        assert trace[0] == polished.lam_trace[0]
        assert rep.converged and not rep.non_monotone and trace[-1] > -1.0
        assert abs(2.0 ** (trace[-2] - trace[-1]) - 1.0) <= solver.EPS_CONV
        assert polished.objective >= rep.objective - 1e-9

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
            assert shortfall <= checks.SHORTFALL_TOL * max(oracle.objective, 1e-12), (
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
    except NumericalFailureError as exc:
        # Only a missed demand makes an anchor infeasible.
        assert str(exc).startswith("anchor violates a constraint by"), exc
        assert max(c.value(gp.anchor) for c, label in zip(gp.constraints, gp.labels)
                   if label.startswith("eh")) > 1.0 + 1e-8
        return
    op = solution.op
    # The rows are evaluated in log space at the solution's log lambda: in
    # the pinned examples a ~1e-6 weight on a negative secrecy gap puts the
    # optimum's log lambda near -8440 and -45700, where lambda would be 0.0.
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
            x = _box_draw(gp, rng)
        else:
            near = gp.anchor[1:] * np.exp(rng.normal(0.0, 0.3, gp.floors.size))
            x = np.concatenate([[np.exp(rng.uniform(-3.0, 3.0))],
                                np.clip(near, gp.floors, gp.caps)])
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
    gp = build_gp(cfg, Weights(alpha), order, solver.feasible_start(cfg), mode)
    for _ in range(25):
        x = _box_draw(gp, rng)
        powers, splits = x[1:num_users + 1], x[num_users + 1:]
        num, den = (np.add.reduceat(np.exp(a @ np.log(x) + b), starts)
                    for a, b, starts, _ in _parts(gp)[:2])
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


def _plain_mm_objective(cfg, weights, order, mode, start=None):
    """Exact objective after the plain condensation loop from ``start`` (the
    cold start without one): each GP built at the previous GP's solution,
    with no polish and no warm start."""
    point = solver.feasible_start(cfg) if start is None else start
    trace = []
    for _ in range(solver.MAX_ITERS):
        solution = solve_gp(build_gp(cfg, weights, order, point, mode))
        point = solution.op
        trace.append(np.exp(solution.log_lam))
        if (len(trace) >= 2 and abs(trace[-1] - trace[-2])
                <= solver.EPS_CONV * max(1.0, trace[-1])):
            break
    eff = (secrecy_corner(cfg, point, order) if mode == SECURE
           else legitimate_rates(cfg, point))
    active = weights.alpha > 0
    return float(np.min(eff[active] / weights.alpha[active]))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), num_users=st.sampled_from([2, 3]),
       num_eve_antennas=st.sampled_from([1, 2, 3]),
       mode=st.sampled_from([RELIABLE, SECURE]), eh_fraction=st.floats(0.0, 0.8))
@example(seed=1926593762, num_users=3, num_eve_antennas=3, mode=SECURE,
         eh_fraction=0.004578)
def test_polished_loop_no_worse_than_plain(seed, num_users, num_eve_antennas, mode,
                                           eh_fraction):
    # The polish may only shorten the loop: the objective stays at least the
    # plain loop's, the trace climbs, and the point stays feasible.  On the
    # pinned draw the plain loop stops early on a slow climb.
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, num_users=num_users,
                        num_eve_antennas=num_eve_antennas, eh_fraction=eh_fraction)
    order = DecodingOrder(tuple(int(k) for k in rng.permutation(num_users)))
    weights = Weights(rng.dirichlet(np.ones(num_users)))
    rep = iterate(cfg, weights, order, mode)
    assert rep.objective >= _plain_mm_objective(cfg, weights, order, mode) - 1e-9
    trace = [2.0 ** bit for bit in rep.lam_trace]
    assert all(b >= a - solver.EPS_CONV * max(1.0, a)
               for a, b in zip(trace, trace[1:]))
    assert not rep.non_monotone
    energies = harvested_energies(cfg, rep.op).per_user
    assert np.all(energies >= cfg.eh_demands * (1 - 1e-7))
    assert np.all(rep.op.powers <= cfg.power_budget * (1 + 1e-12))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), num_users=st.sampled_from([2, 3]),
       num_eve_antennas=st.sampled_from([1, 2, 3]),
       mode=st.sampled_from([RELIABLE, SECURE]), eh_fraction=st.floats(0.0, 0.8))
@example(seed=1926593762, num_users=3, num_eve_antennas=3, mode=SECURE,
         eh_fraction=0.004578)
def test_polished_point_meets_exact_rows(seed, num_users, num_eve_antennas, mode,
                                         eh_fraction):
    # A polished solve ends at a point that meets every exact row, log N_i -
    # log D_i <= 0, within FEAS_TOL, and every demand, with the tightest
    # rate row active at the reported lambda; where a secrecy rate is
    # clamped to 0, lambda is 1 and the rate rows hold at their closed-form
    # lambda, which is below 1.
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, num_users=num_users,
                        num_eve_antennas=num_eve_antennas, eh_fraction=eh_fraction)
    order = DecodingOrder(tuple(int(k) for k in rng.permutation(num_users)))
    weights = Weights(rng.dirichlet(np.ones(num_users)))
    rep = iterate(cfg, weights, order, mode)
    if not rep.polished:
        return
    assert rep.iterations == 1 and rep.converged
    gp = build_gp(cfg, weights, order, rep.op, mode)
    y = np.log(np.concatenate([[2.0 ** rep.objective], rep.op.powers, rep.op.splits]))
    if rep.objective == 0.0:
        y[0], _ = _exact_rows_lambda(gp, y)
        assert mode == SECURE and y[0] <= 0.0
    rows = _exact_log_rows(gp, y)
    rate = np.array([label.startswith("rate") for label in gp.labels])
    assert np.all(rows <= solver.FEAS_TOL)
    assert rows[rate].max() == pytest.approx(0.0, abs=1e-9)
    energies = harvested_energies(cfg, rep.op).per_user
    assert np.all(energies >= cfg.eh_demands * (1 - 1e-9))
    assert np.all(rep.op.powers <= cfg.power_budget)
    assert np.all(rep.op.splits <= 1.0)


def _unfloored(monkeypatch):
    """Start every exact-row polish where it starts without _floored."""
    monkeypatch.setattr(solver, "_floored", lambda cfg, alpha, gp, y, ref: y)


def test_silent_user_starts_at_its_floor(monkeypatch):
    # At alpha1 = 0 on the weak scenario without demands, user 1's power
    # heads for its floor, an exponential tail that Newton walked down about
    # one nat a step: 24 steps, and the power ended 1.4e-4 above its floor.
    # Started at the floor, the polish after the GP takes at most 13 steps
    # and scores no lower.
    cfg = weak_interference()
    rep = iterate(cfg, Weights.pair(0.0), None, RELIABLE)
    floor = solver.variable_box(cfg)[0][0]
    assert rep.polished and rep.iterations == 1
    assert rep.newton_steps <= 13
    assert floor <= rep.op.powers[0] <= floor * (1 + 1e-5)
    _unfloored(monkeypatch)
    plain = iterate(cfg, Weights.pair(0.0), None, RELIABLE)
    assert plain.newton_steps > rep.newton_steps
    assert plain.op.powers[0] > floor * (1 + 1e-5)
    assert rep.objective >= plain.objective


def test_silent_user_harvesting_keeps_its_power(monkeypatch):
    # With demands 0.8, user 1 keeps power 0.3 at alpha1 = 0 for its own
    # harvesting; at its floor no split meets the demand, so the floored
    # start is rejected, the polish starts where it does without it, and the
    # solve ends at the same point, bit for bit.
    cfg = weak_interference(eh_demands=(0.8, 0.8))
    floored = solver._floored
    chosen = []

    def recorded(cfg, alpha, gp, y, ref):
        start = floored(cfg, alpha, gp, y, ref)
        chosen.append(start is y)
        return start

    monkeypatch.setattr(solver, "_floored", recorded)
    rep = iterate(cfg, Weights.pair(0.0), None, RELIABLE)
    assert chosen == [True]
    assert rep.op.powers[0] == pytest.approx(0.3, abs=1e-5)
    _unfloored(monkeypatch)
    plain = iterate(cfg, Weights.pair(0.0), None, RELIABLE)
    assert rep.objective == plain.objective and rep.newton_steps == plain.newton_steps
    for got, want in ((rep.op.powers, plain.op.powers), (rep.op.splits, plain.op.splits),
                      (rep.rates, plain.rates), (rep.duals, plain.duals)):
        assert _identical(got, want)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), num_users=st.sampled_from([2, 3]),
       num_eve_antennas=st.sampled_from([1, 2, 3]),
       mode=st.sampled_from([RELIABLE, SECURE]), eh_fraction=st.floats(0.0, 0.8))
def test_floored_start_is_never_below_the_usual_start(seed, num_users, num_eve_antennas,
                                                      mode, eh_fraction):
    # At a weight with a silent user, the polish starts either where it
    # would without _floored (the same array), or at a point with every
    # silent power at its floor that meets every exact row within FEAS_TOL
    # and whose closed-form log lambda is not below the usual start's: on
    # the warm path from the cold point, and after the first GP.
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, num_users=num_users,
                        num_eve_antennas=num_eve_antennas, eh_fraction=eh_fraction)
    order = DecodingOrder(tuple(int(k) for k in rng.permutation(num_users)))
    w = rng.dirichlet(np.ones(num_users))
    w[rng.permutation(num_users)[:int(rng.integers(1, num_users))]] = 0.0
    weights = Weights(w / w.sum())
    silent = weights.alpha == 0
    cold = solver.feasible_start(cfg)
    gp = build_gp(cfg, weights, order, cold, mode)
    warm, _ = solver._exact_lambda(gp.exact, solver._log_point(gp, cold))
    solution = solve_gp(gp)
    y = solver._log_point(gp, solution.op)
    y[0] = solution.log_lam
    ref, _ = solver._exact_lambda(gp.exact, y)
    for usual, ref in ((warm, warm), (y, ref)):
        start = solver._floored(cfg, weights, gp, usual, ref)
        if start is usual:
            continue
        assert start[0] >= ref[0]
        assert solver._exact_lambda(gp.exact, start)[1] <= solver.FEAS_TOL
        assert _identical(start[1:num_users + 1][silent], gp.log_box[0][:num_users][silent])


@pytest.mark.parametrize("draw, perm, oracle", [(30, (0, 1), 0.12132),
                                                (38, (0, 1), 0.09451),
                                                (38, (1, 0), 0.08698)])
def test_cold_secure_solve_leaves_zero_plateau(draw, perm, oracle):
    # From the full-power start the condensation loop stopped below 1e-6 bit
    # on these draws, where the res-51 grid oracle finds the positive
    # objectives above; the polish after the first GP reaches them.
    rng = np.random.default_rng(draw)
    cfg = random_config(rng, 2, int(rng.integers(1, 4)), float(rng.uniform(0, 0.8)))
    weights = Weights.pair(0.9)
    rep = iterate(cfg, weights, DecodingOrder(perm), SECURE)
    found = oracle_grid_search(cfg, SECURE, weights, DecodingOrder(perm), resolution=51)
    assert found.objective == pytest.approx(oracle, abs=1e-5)
    assert rep.polished
    assert rep.objective >= 0.95 * found.objective


def _warm_solve_cases():
    """(cfg, weights, nearby, order, mode): 20 random K = 2, 3 draws in both
    modes, each in a random order with weights in [0.2, 1] before scaling,
    and the weights after a step of up to 0.05 per user, about one grid-21
    sweep step."""
    rng = np.random.default_rng(29)
    cases = []
    for draw in range(20):
        k = 2 + draw % 2
        cfg = random_config(rng, num_users=k, num_eve_antennas=int(rng.integers(1, 4)),
                            eh_fraction=float(rng.uniform(0.0, 0.8)))
        order = DecodingOrder(tuple(int(u) for u in rng.permutation(k)))
        w = rng.uniform(0.2, 1.0, k)
        near = w + rng.uniform(-0.05, 0.05, k)
        cases += [pytest.param(cfg, Weights(w / w.sum()), Weights(near / near.sum()),
                               order, mode, id=f"draw{draw}-{mode}")
                  for mode in (RELIABLE, SECURE)]
    return cases


@pytest.mark.parametrize("cfg,weights,nearby,order,mode", _warm_solve_cases())
def test_warm_solve_no_worse_than_plain(monkeypatch, cfg, weights, nearby, order, mode):
    # A solve at a nearby weight, started at this weight's point and
    # multipliers, runs the exact-row polish straight from that start.  It
    # ends no lower than the plain loop from the same start, at a point
    # that meets every exact row and demand, and where that polish is
    # accepted it solves no GP.
    rep = iterate(cfg, weights, order, mode)
    polished = solver._polished
    runs = []

    def recorded(gp, y, ref, z=None):
        result = polished(gp, y, ref, z)
        runs.append((gp.anchor is None, result[0] is not None))
        return result

    monkeypatch.setattr(solver, "_polished", recorded)
    warm = iterate(cfg, nearby, order, mode, start=rep.op, duals=rep.duals)
    monkeypatch.undo()
    assert warm.objective >= _plain_mm_objective(cfg, nearby, order, mode,
                                                 start=rep.op) - 1e-9
    gp = build_gp(cfg, nearby, order, warm.op, mode)
    y = np.log(np.concatenate([[2.0 ** warm.objective], warm.op.powers, warm.op.splits]))
    if warm.objective == 0.0:
        y[0], _ = _exact_rows_lambda(gp, y)
    assert np.all(_exact_log_rows(gp, y) <= solver.FEAS_TOL)
    energies = harvested_energies(cfg, warm.op).per_user
    assert np.all(energies >= cfg.eh_demands * (1 - 1e-9))
    first_run_from_start, accepted = runs[0]
    if first_run_from_start and accepted:
        assert warm.iterations == 0 and warm.lam_trace == [] and warm.gaps.size == 0
        assert warm.polished and warm.converged
    else:
        assert warm.iterations >= 1


def test_polish_finishes_slow_climb():
    # On this draw the condensation loop creeps at about 3e-7 per GP along
    # the small-weight user's power and split, so EPS_CONV stopped it at
    # lambda 1.25632 ... 1.25658 depending on the decoding order, where
    # further GPs still climbed; the polish ends at the optimum in every
    # order.
    cfg = random_config(np.random.default_rng(1926593762), num_users=3,
                        num_eve_antennas=3, eh_fraction=0.004578)
    alpha = np.array([0.863, 0.134, 0.0035])
    weights = Weights(alpha / alpha.sum())
    for perm in itertools.permutations(range(3)):
        rep = iterate(cfg, weights, DecodingOrder(perm), SECURE)
        assert rep.polished
        assert 2.0 ** rep.objective >= 1.25663


@pytest.mark.parametrize("amp", [1e-6, 1e-5])
def test_high_sir_sweeps_every_point(amp):
    # Direct gains 1e20 and cross gains about 1e8 in power put weighted
    # objectives past 64 bit (79.7 bit at amp 1e-6), where lambda is bounded
    # by its rate rows alone.  Both modes sweep every weight, without a
    # RuntimeWarning (an error here), and no reliable point lies more than
    # BOUND_TOL above the face oracle's certified bound.
    cfg = symmetric_two_user(amp)
    cfg = replace(cfg, gains=cfg.gains * 1e10)
    for mode, points in ((RELIABLE, 21), (SECURE, 42)):
        boundary = region.sweep(cfg, mode, grid=21)
        assert not boundary.failures
        assert len(boundary.points) == points
        assert max(pt.report.objective for pt in boundary.points) > 66.0
        if mode == RELIABLE:
            for pt in boundary.points:
                bound = oracle_grid_search(cfg, RELIABLE, pt.weights).bound
                assert pt.report.objective <= bound + checks.BOUND_TOL


def test_secure_sweep_uses_fewer_gps(monkeypatch):
    # The strong parallel-Eve secure sweep took 590 GP solves with the plain
    # loop from cold starts.  An exact-row polish ends all 42 solves without
    # moving the hull: after the first GP in the three cold solves of each
    # order, and straight from the predicted start, warm-started from the
    # previous weight's multipliers, in the other 36.  That is 6 GP solves
    # and 285 Newton steps, the polishes' included (42 and 476 with a GP
    # first in every solve).
    interior_point = solver._interior_point
    steps = []

    def counted(*args):
        result = interior_point(*args)
        steps.append(result[-1])
        return result

    monkeypatch.setattr(solver, "_interior_point", counted)
    boundary = region.sweep(strong_interference(eve_geometry="parallel"), SECURE,
                            psi=(0.0, 0.0), grid=21)
    assert not boundary.failures
    assert sum(pt.report.polished for pt in boundary.points) == len(boundary.points) == 42
    assert sum(pt.iterations for pt in boundary.points) <= 12
    assert sum(pt.report.newton_steps for pt in boundary.points) == sum(steps) <= 350
    hull = boundary.hull
    area = float(np.trapezoid(hull[:, 1], hull[:, 0]))
    assert area == pytest.approx(0.4999983168596667, rel=1e-9)
    # Where the polish is rejected, the condensation loop runs as before: on
    # this draw the second user's secrecy rate is 0 (the res-51 grid oracle
    # finds no positive point either), and the polish is rejected on that
    # zero plateau.
    rng = np.random.default_rng(0)
    cfg = random_config(rng, 2, int(rng.integers(1, 4)), float(rng.uniform(0, 0.8)))
    rep = iterate(cfg, Weights.pair(0.5), ORDER12, SECURE)
    assert not rep.polished and rep.converged


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
    with pytest.raises(NumericalFailureError, match="^anchor violates a constraint by"):
        iterate(cfg, weights, ORDER12, mode, start=start)
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


START_CALLS = {
    "iterate": lambda cfg, weights, start: iterate(cfg, weights, ORDER12, RELIABLE,
                                                   start=start),
    "build_gp": lambda cfg, weights, start: build_gp(cfg, weights, ORDER12, start, RELIABLE),
}
MALFORMED_STARTS = [
    ([1.0, 1.0, 1.0], [0.5, 0.5, 0.5]),     # wrong length
    ([np.inf, 1.0], [0.5, 0.5]),            # not finite
    ([-1.0, 1.0], [0.5, 0.5]),              # negative power
    ([1.0, 1.0], [0.5, 1.5]),               # split outside [0, 1]
]


@pytest.mark.parametrize("powers, splits", MALFORMED_STARTS)
def test_malformed_start_rejected(powers, splits):
    with pytest.raises(ConfigError):
        iterate(weak_interference(), Weights.pair(0.5), None, RELIABLE,
                start=OperatingPoint(np.array(powers), np.array(splits)))


@pytest.mark.parametrize("powers, splits", MALFORMED_STARTS)
def test_malformed_anchor_rejected(powers, splits):
    # build_gp checks its anchor as iterate checks its start.
    with pytest.raises(ConfigError):
        build_gp(weak_interference(), Weights.pair(0.5), ORDER12,
                 OperatingPoint(np.array(powers), np.array(splits)), RELIABLE)


@pytest.mark.parametrize("call", START_CALLS)
def test_bad_start_listed_with_bad_weights(call):
    # check_problem lists a start of the wrong length with every other
    # violation of the call.
    with pytest.raises(ConfigError) as err:
        START_CALLS[call](weak_interference(), Weights(np.full(3, 1 / 3)),
                          OperatingPoint(np.ones(3), np.ones(3)))
    assert [f for _, f, _ in err.value.violations] == ["alpha", "start"]


# The weak fixture's invalid fields, one per case.
BAD_FIELDS = {"negative-budget": {"power_budget": [-1.0, 1.0]},
              "negative-demand": {"eh_demands": [-1.0, 0.0]},
              "nan-noise": {"antenna_noise_vars": [np.nan, 0.25]},
              "3x3-gains": {"gains": np.ones((3, 3))},
              "ragged-gains": {"gains": [[1.0, 0.5], [0.5]]},
              "unconvertible-gains": {"gains": "abc", "power_budget": [-1.0, 1.0]}}


LIBRARY_CALLS = {
    "iterate": lambda cfg, weights, order, mode=SECURE: iterate(cfg, weights, order, mode),
    "build_gp": lambda cfg, weights, order, mode=SECURE: build_gp(
        cfg, weights, order, OperatingPoint(np.ones(2), np.full(2, 0.5)), mode),
    "sweep": lambda cfg, weights, order, mode=SECURE: region.sweep(cfg, mode, grid=3),
    "oracle": lambda cfg, weights, order, mode=SECURE: oracle_grid_search(
        cfg, mode, weights, order, resolution=11),
}


@pytest.mark.parametrize("call", LIBRARY_CALLS)
@pytest.mark.parametrize("bad", BAD_FIELDS)
def test_library_calls_reject_invalid_configs(bad, call):
    # No library entry point meets an invalid config: making one raises
    # ConfigError (before any warning, which the test settings turn into
    # errors).
    with pytest.raises(ConfigError):
        LIBRARY_CALLS[call](replace(weak_interference(), **BAD_FIELDS[bad]),
                            Weights.pair(0.5), ORDER12)


@pytest.mark.parametrize("call", ["iterate", "build_gp", "oracle"])
@pytest.mark.parametrize("weights, order", [
    (Weights(np.array([0.2, 0.3, 0.5])), ORDER12),
    (Weights.pair(0.5), DecodingOrder((0, 1, 2))),
], ids=["weights", "order"])
def test_library_calls_reject_wrong_lengths(weights, order, call):
    with pytest.raises(ConfigError):
        LIBRARY_CALLS[call](weak_interference(), weights, order)


@pytest.mark.parametrize("call", LIBRARY_CALLS)
def test_library_calls_reject_unknown_mode(call):
    # check_problem, the one per-call check, rejects a mode outside MODES.
    with pytest.raises(ConfigError, match=r"BadValue\[mode\]: must be one of"):
        LIBRARY_CALLS[call](weak_interference(), Weights.pair(0.5), ORDER12, mode="both")


def test_config_validated_once_per_object(monkeypatch):
    # A config checks itself when it is made, and no library call checks it
    # again.
    seen = []
    check = model._violations
    monkeypatch.setattr(model, "_violations", lambda cfg: seen.append(cfg) or check(cfg))
    cfg = weak_interference(eh_demands=(0.5, 0.5))
    assert seen == [cfg]
    region.sweep(cfg, SECURE, grid=3)
    for call in LIBRARY_CALLS.values():
        call(cfg, Weights.pair(0.5), ORDER12)
    assert seen == [cfg]
    other = replace(cfg)
    iterate(other, Weights.pair(0.5), None, RELIABLE)
    assert len(seen) == 2 and seen[1] is other


def _neighbour_duals(cfg, mode):
    """A start and its multipliers from the solve at a neighbouring weight."""
    rep = iterate(cfg, Weights(np.array([0.45, 0.55])), ORDER12, mode)
    assert rep.polished and rep.duals is not None
    return rep.op, rep.duals


@pytest.mark.parametrize("change", ["longer", "shorter", "nan", "inf", "negative",
                                    "no-start"])
def test_malformed_duals_rejected(monkeypatch, change):
    # Multipliers need a start and one finite value >= 0 per row and per
    # bound; anything else raises ConfigError before any interior-point run.
    cfg = weak_interference(eh_demands=(0.8, 0.8), eve_geometry="parallel")
    start, duals = _neighbour_duals(cfg, SECURE)
    duals = duals.copy()
    if change == "longer":
        duals = np.append(duals, 1.0)
    elif change == "shorter":
        duals = duals[:-1]
    elif change == "no-start":
        start = None
    else:
        duals[1] = {"nan": np.nan, "inf": np.inf, "negative": -1e-3}[change]
    calls = []
    monkeypatch.setattr(solver, "_interior_point", lambda *args: calls.append(args))
    with pytest.raises(ConfigError):
        iterate(cfg, Weights(np.array([0.4, 0.6])), ORDER12, SECURE, start=start,
                duals=duals)
    assert not calls


@pytest.mark.parametrize("mode", [RELIABLE, SECURE])
def test_infeasible_start_with_duals_raises(monkeypatch, mode):
    # Valid multipliers do not carry an infeasible start past the check:
    # the solve fails on the infeasible anchor before the optimizer runs.
    cfg = weak_interference(eh_demands=(0.8, 0.8), eve_geometry="parallel")
    _, duals = _neighbour_duals(cfg, mode)
    start = OperatingPoint(0.9 * cfg.power_budget, np.ones(2))
    calls = []
    monkeypatch.setattr(solver, "_interior_point", lambda *args: calls.append(args))
    with pytest.raises(NumericalFailureError, match="^anchor violates a constraint by"):
        iterate(cfg, Weights(np.array([0.4, 0.6])), ORDER12, mode, start=start,
                duals=duals)
    assert not calls


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
