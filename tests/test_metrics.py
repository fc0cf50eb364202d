from dataclasses import replace
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swiptsec import (ConfigError, DecodingOrder, EnergyModel, EnergyVector,
                      OperatingPoint, Weights, eve_rate_chain, eve_sum_rate,
                      harvested_energies, legitimate_rates, secrecy_corner,
                      subset_constraints_satisfied)
from swiptsec.metrics import (energies, eve_leaks, max_min_objective,
                              secrecy_rates, tin_rates)
from swiptsec.scenarios import (random_config, strong_interference,
                                symmetric_two_user, weak_interference)

ORDER12 = DecodingOrder((0, 1))
OP3 = OperatingPoint(np.ones(3), np.ones(3))


def op(p1, p2, e1, e2):
    return OperatingPoint(np.array([p1, p2]), np.array([e1, e2]))


class TestLegitimateRate:
    def test_symmetric_full_power(self):
        cfg = weak_interference()
        assert legitimate_rates(cfg, op(1, 1, 1, 1))[0] == pytest.approx(1.22239, abs=1e-5)

    def test_zero_power_is_zero(self):
        cfg = weak_interference()
        assert legitimate_rates(cfg, op(0, 1, 1, 1))[0] == 0.0

    def test_zero_split_is_zero(self):
        cfg = weak_interference()
        assert legitimate_rates(cfg, op(1, 1, 0, 1))[0] == 0.0

    def test_single_user_endpoint(self):
        cfg = weak_interference()
        assert legitimate_rates(cfg, op(1, 0, 1, 1))[0] == pytest.approx(np.log2(3), abs=1e-12)

    def test_monotonicity_sampling(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            cfg = random_config(rng)
            p = rng.uniform(0.05, cfg.power_budget)
            e = rng.uniform(0.05, 0.95, 2)
            base = legitimate_rates(cfg, OperatingPoint(p, e))[0]
            up_eta = np.array([min(e[0] + 0.05, 1.0), e[1]])
            assert legitimate_rates(cfg, OperatingPoint(p, up_eta))[0] >= base - 1e-12
            up_p = p * np.array([1.05, 1.0])
            up_p = np.minimum(up_p, cfg.power_budget)
            assert legitimate_rates(cfg, OperatingPoint(up_p, e))[0] >= base - 1e-12
            up_j = np.minimum(p * np.array([1.0, 1.05]), cfg.power_budget)
            assert legitimate_rates(cfg, OperatingPoint(up_j, e))[0] <= base + 1e-12

    def test_interference_limited_split_insensitivity(self):
        # With interference 100x above the processing noise the rate barely
        # moves across the upper half of the split range.
        cfg = symmetric_two_user(np.sqrt(50.0))
        ref = legitimate_rates(cfg, op(1, 1, 1, 1))[0]
        for eta in (0.5, 0.7, 0.9):
            r = legitimate_rates(cfg, op(1, 1, eta, 1))[0]
            assert abs(ref - r) <= 0.05


class TestHarvestedEnergy:
    def test_full_split_leaves_only_model_offset(self):
        prod = weak_interference(energy_model=EnergyModel.PRODUCT)
        ref = weak_interference(energy_model=EnergyModel.REFORMULATED)
        assert harvested_energies(prod, op(1, 1, 1, 1)).per_user[0] == 0.0
        assert harvested_energies(ref, op(1, 1, 1, 1)).per_user[0] == pytest.approx(0.25)

    def test_reformulated_fixture_value(self):
        cfg = weak_interference()
        assert harvested_energies(cfg, op(1, 1, 0.56, 0.56)).per_user[0] == pytest.approx(
            0.8, abs=1e-12)

    def test_zero_split_product(self):
        cfg = weak_interference(energy_model=EnergyModel.PRODUCT)
        assert harvested_energies(cfg, op(1, 1, 0, 0)).per_user[0] == pytest.approx(1.25 + 0.25)

    def test_negative_energy_rejected(self):
        with pytest.raises(ConfigError, match=r"per_user\]: must be >= 0"):
            EnergyVector(np.array([0.5, -0.1]))

    def test_product_strictly_decreasing_in_split(self):
        cfg = weak_interference(energy_model=EnergyModel.PRODUCT)
        vals = [harvested_energies(cfg, op(1, 1, eta, 0.5)).per_user[0]
                for eta in np.linspace(0, 1, 11)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestEveRates:
    def test_zero_power_zero_rate(self):
        cfg = weak_interference()
        assert eve_sum_rate(cfg, np.zeros(2), [0, 1]) == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(eve_rate_chain(cfg, np.zeros(2), ORDER12), 0.0)

    def test_orthogonal_full_set(self):
        cfg = weak_interference(eve_geometry="orthogonal")
        got = eve_sum_rate(cfg, np.ones(2), [0, 1])
        assert got == pytest.approx(2 * np.log2(1.5), abs=1e-12)

    def test_orthogonal_singleton_not_shadowed(self):
        cfg = weak_interference(eve_geometry="orthogonal")
        assert eve_sum_rate(cfg, np.ones(2), [1]) == pytest.approx(np.log2(1.5), abs=1e-12)

    def test_parallel_chain_split(self):
        cfg = weak_interference(eve_geometry="parallel")
        got = eve_rate_chain(cfg, np.ones(2), ORDER12)
        assert got[0] == pytest.approx(np.log2(4 / 3), abs=1e-12)
        assert got[1] == pytest.approx(np.log2(3 / 2), abs=1e-12)

    def test_chain_second_user_clean(self):
        # Order (1, 2): the later-decoded user is seen interference-free.
        cfg = weak_interference(eve_geometry="parallel")
        p = np.array([0.7, 0.4])
        got = eve_rate_chain(cfg, p, ORDER12)
        assert got[1] == pytest.approx(np.log2(1 + 0.4 * 0.25 / 0.5), abs=1e-12)

    def test_empty_subset_rejected(self):
        cfg = weak_interference()
        with pytest.raises(ConfigError, match="subset of users must be nonempty"):
            eve_sum_rate(cfg, np.ones(2), [])

    @pytest.mark.parametrize("call, named", [
        pytest.param(lambda cfg: eve_rate_chain(cfg, [-1.0, 1.0], ORDER12),
                     ["powers"], id="chain-negative-power"),
        pytest.param(lambda cfg: eve_rate_chain(cfg, [1.0, np.inf], ORDER12),
                     ["powers"], id="chain-infinite-power"),
        pytest.param(lambda cfg: eve_rate_chain(cfg, np.ones(3), ORDER12),
                     ["powers"], id="chain-three-powers"),
        pytest.param(lambda cfg: eve_rate_chain(cfg, np.ones(1), ORDER12),
                     ["powers"], id="chain-one-power"),
        pytest.param(lambda cfg: eve_rate_chain(cfg, np.ones(1), DecodingOrder((0, 1, 2))),
                     ["powers", "order"], id="chain-one-power-three-order"),
        pytest.param(lambda cfg: eve_rate_chain(cfg, np.ones(2), ORDER12, [0, 5]),
                     ["subset"], id="chain-unknown-user"),
        pytest.param(lambda cfg: eve_rate_chain(cfg, np.ones(2), ORDER12, []),
                     ["subset"], id="chain-empty-subset"),
        pytest.param(lambda cfg: eve_sum_rate(cfg, np.ones(3), [0]),
                     ["powers"], id="sum-three-powers"),
        pytest.param(lambda cfg: eve_sum_rate(cfg, np.ones(1), [0]),
                     ["powers"], id="sum-one-power"),
        pytest.param(lambda cfg: eve_sum_rate(cfg, np.ones(2), {5}),
                     ["subset"], id="sum-unknown-user"),
        pytest.param(lambda cfg: eve_sum_rate(cfg, [-1.0, 1.0], []),
                     ["powers", "subset"], id="sum-negative-power-empty-subset"),
        pytest.param(lambda cfg: legitimate_rates(cfg, OP3), ["powers"],
                     id="rates-three-users"),
        pytest.param(lambda cfg: harvested_energies(cfg, OP3), ["powers"],
                     id="energies-three-users"),
        pytest.param(lambda cfg: secrecy_corner(cfg, OP3, ORDER12), ["powers"],
                     id="corner-three-users"),
    ])
    def test_bad_inputs_rejected(self, call, named):
        # Each per-point function checks its inputs against the config: one
        # finite power >= 0 per user, a full decoding order and a nonempty
        # subset of its users, listing every violation.
        with pytest.raises(ConfigError) as err:
            call(weak_interference())
        assert [f for _, f, _ in err.value.violations] == named

    def test_chain_conservation_random(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            k = int(rng.integers(2, 4))
            m = int(rng.integers(2, 5))
            cfg = random_config(rng, num_users=k, num_eve_antennas=m)
            p = rng.uniform(0, cfg.power_budget)
            for perm in permutations(range(k)):
                order = DecodingOrder(perm)
                for size in range(1, k + 1):
                    for s in combinations(range(k), size):
                        total = eve_rate_chain(cfg, p, order, s)[list(s)].sum()
                        assert total == pytest.approx(eve_sum_rate(cfg, p, s), abs=1e-9)


class TestSecrecyCorner:
    def test_single_user_endpoint(self):
        cfg = weak_interference()
        corner = secrecy_corner(cfg, op(1, 0, 1, 1), ORDER12)
        assert corner[0] == pytest.approx(1.0, abs=1e-12)
        assert corner[1] == 0.0

    def test_zero_eve_channels_gives_reliable_rates(self):
        cfg = weak_interference()
        silent = replace(cfg, eve_channels=np.zeros((2, 2), dtype=complex))
        point = op(1, 1, 0.8, 0.6)
        corner = secrecy_corner(silent, point, ORDER12)
        assert np.allclose(corner, legitimate_rates(silent, point))

    def test_clamp_only_hits_offending_user(self):
        # Huge eavesdropper channel for user 1 only.
        cfg = weak_interference()
        strong_eve = replace(
            cfg, eve_channels=np.array([[5.0, 0.0], [0.0, 0.5]], dtype=complex))
        point = op(1, 1, 1, 1)
        corner = secrecy_corner(strong_eve, point, ORDER12)
        rates = legitimate_rates(strong_eve, point)
        leak = eve_rate_chain(strong_eve, point.powers, ORDER12)
        assert rates[0] - leak[0] < 0
        assert corner[0] == 0.0
        assert corner[1] == pytest.approx(max(rates[1] - leak[1], 0.0))

    def test_corner_never_exceeds_reliable(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            cfg = random_config(rng)
            point = OperatingPoint(rng.uniform(0, cfg.power_budget),
                                   rng.uniform(0, 1, 2))
            for perm in permutations(range(2)):
                corner = secrecy_corner(cfg, point, DecodingOrder(perm))
                assert np.all(corner <= legitimate_rates(cfg, point) + 1e-12)


class TestSubsetConstraints:
    def test_unclamped_corners_satisfy(self):
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 30:
            cfg = random_config(rng, num_users=int(rng.integers(2, 4)))
            point = OperatingPoint(rng.uniform(0, cfg.power_budget),
                                   rng.uniform(0, 1, cfg.num_users))
            for perm in permutations(range(cfg.num_users)):
                order = DecodingOrder(perm)
                gaps = (legitimate_rates(cfg, point)
                        - eve_rate_chain(cfg, point.powers, order))
                if np.any(gaps < 0):
                    continue
                result = subset_constraints_satisfied(
                    cfg, point, secrecy_corner(cfg, point, order), tol=1e-9)
                assert result.ok, f"violation {result.worst_violation} on {result.worst_subset}"
                checked += 1

    def test_zero_tuple_satisfies(self):
        cfg = strong_interference()
        result = subset_constraints_satisfied(cfg, op(1, 1, 1, 1), np.zeros(2))
        assert result.ok

    def test_inflated_corner_violates(self):
        cfg = weak_interference(eve_geometry="parallel")
        point = op(1, 1, 1, 1)
        corner = secrecy_corner(cfg, point, ORDER12)
        bumped = corner + np.array([0.1, 0.0])
        result = subset_constraints_satisfied(cfg, point, bumped, tol=1e-9)
        assert not result.ok
        assert result.worst_violation >= 0.1 - 1e-9
        assert 0 in result.worst_subset

    @pytest.mark.parametrize("rates", [np.zeros(3), np.zeros(1), np.zeros((2, 1))],
                             ids=["three", "one", "column"])
    def test_rates_of_the_wrong_length_rejected(self, rates):
        cfg = weak_interference()
        with pytest.raises(ConfigError, match=r"DimensionMismatch\[rates\]: needs 2 entries"):
            subset_constraints_satisfied(cfg, op(1, 1, 1, 1), rates)

    def test_point_of_the_wrong_length_rejected(self):
        with pytest.raises(ConfigError, match=r"DimensionMismatch\[powers\]"):
            subset_constraints_satisfied(weak_interference(), OP3, np.zeros(2))

    def test_guard_on_large_k(self):
        rng = np.random.default_rng(1)
        cfg = random_config(rng, num_users=17)
        point = OperatingPoint(np.zeros(17), np.zeros(17))
        with pytest.raises(ConfigError, match="K <= 16, got 17"):
            subset_constraints_satisfied(cfg, point, np.zeros(17))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), num_users=st.sampled_from([2, 3]),
       num_eve=st.integers(1, 4))
def test_kernels_match_per_point_functions(seed, num_users, num_eve):
    # A (5, K) batch scored at once agrees row by row with the per-point
    # functions, and the leaks from the Cauchy-Binet minors with the
    # Cholesky chain of eve_rate_chain, in every decoding order.
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, num_users, num_eve, float(rng.uniform(0, 0.8)))
    powers = rng.uniform(0, cfg.power_budget, (5, num_users))
    splits = rng.uniform(0, 1, (5, num_users))
    weights = Weights(rng.dirichlet(np.ones(num_users)))
    rates = tin_rates(cfg, powers, splits)
    harvested = energies(cfg, powers, splits)
    objective = max_min_objective(rates, weights)
    for perm in permutations(range(num_users)):
        order = DecodingOrder(perm)
        leaks = eve_leaks(cfg, powers, order)
        secrecy = secrecy_rates(cfg, powers, splits, order)
        for row in range(5):
            point = OperatingPoint(powers[row], splits[row])
            legit = legitimate_rates(cfg, point)
            assert np.abs(rates[row] - legit).max() <= 1e-12
            assert np.abs(harvested[row]
                          - harvested_energies(cfg, point).per_user).max() <= 1e-12
            assert np.abs(leaks[row]
                          - eve_rate_chain(cfg, point.powers, order)).max() <= 1e-12
            assert np.abs(secrecy[row]
                          - secrecy_corner(cfg, point, order)).max() <= 1e-12
            assert objective[row] == pytest.approx(
                min(legit / weights.alpha), abs=1e-12)
