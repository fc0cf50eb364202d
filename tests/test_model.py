import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swiptsec import (RELIABLE, ConfigError, DecodingOrder, EnergyModel,
                      InvalidPermutationError, OperatingPoint, SystemConfig,
                      Weights, config_from_dict, config_to_dict,
                      config_violations, harvested_energies, model, sweep,
                      validate_config)
from swiptsec.model import (DIMENSION_MISMATCH, NEGATIVE_DEMAND,
                            NON_POSITIVE_VARIANCE, max_deliverable_energy,
                            max_splits, with_demands)
from swiptsec.scenarios import random_config, weak_interference


def make_fixture(**overrides):
    base = dict(
        num_users=2,
        num_eve_antennas=2,
        gains=np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex),
        eve_channels=np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex),
        antenna_noise_vars=np.array([0.25, 0.25]),
        processing_noise_vars=np.array([0.25, 0.25]),
        eve_antenna_noise_var=0.25,
        eve_processing_noise_var=0.25,
        power_budget=np.array([1.0, 1.0]),
        eh_demands=np.array([0.0, 0.0]),
    )
    base.update(overrides)
    return SystemConfig(**base)


def test_paper_fixture_is_valid():
    cfg = make_fixture()
    assert validate_config(cfg) is cfg
    assert cfg.eve_noise_total == pytest.approx(0.5)


def test_validation_is_idempotent():
    cfg = weak_interference()
    assert validate_config(validate_config(cfg)) is cfg


def test_each_config_object_is_checked_once(monkeypatch):
    # validate_config remembers the objects it has passed: a SystemConfig is
    # frozen and its arrays are read-only.  Over a sweep with a demand
    # override, only the overridden config is checked, by with_demands; the
    # solver's per-config cache does not check it again.  An invalid
    # config is checked, and rejected, on every call.
    cfg = weak_interference()
    checked = []
    check = model.config_violations
    monkeypatch.setattr(model, "config_violations",
                        lambda c: checked.append(c) or check(c))
    sweep(cfg, RELIABLE, psi=(0.5, 0.5), grid=5)
    assert len(checked) == 1 and checked[0] is not cfg
    bad = make_fixture(power_budget=np.array([1.0, -1.0]))
    for _ in range(2):
        with pytest.raises(ConfigError):
            validate_config(bad)
    assert checked[1:] == [bad, bad]


def test_zero_variance_rejected():
    cfg = make_fixture(processing_noise_vars=np.array([0.0, 0.25]))
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    kinds = {(k, f) for k, f, _ in err.value.violations}
    assert (NON_POSITIVE_VARIANCE, "processing_noise_vars[0]") in kinds


def test_eve_channel_shape_rejected():
    cfg = make_fixture(eve_channels=np.zeros((2, 3), dtype=complex) + 0.5)
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert any(k == DIMENSION_MISMATCH and f == "eve_channels"
               for k, f, _ in err.value.violations)


def test_negative_demand_rejected():
    cfg = make_fixture(eh_demands=np.array([-0.1, 0.0]))
    violations = config_violations(cfg)
    assert any(k == NEGATIVE_DEMAND and f == "eh_demands[0]" for k, f, _ in violations)


def test_violation_list_is_complete():
    cfg = make_fixture(eh_demands=np.array([-0.1, 0.0]),
                       antenna_noise_vars=np.array([0.25, -1.0]))
    violations = config_violations(cfg)
    assert len(violations) >= 2


def test_operating_point_bounds():
    with pytest.raises(ConfigError):
        OperatingPoint(np.array([1.0, -0.1]), np.array([0.5, 0.5]))
    with pytest.raises(ConfigError):
        OperatingPoint(np.array([1.0, 1.0]), np.array([0.5, 1.5]))


def _bad(field, i, rule, x):
    return ("BadValue", f"{field}[{i}]", f"must be {rule}, got {x}")


@pytest.mark.parametrize("powers,splits,violations", [
    pytest.param([np.nan, 1.0], [0.5, 0.5], [_bad("powers", 0, ">= 0", "nan")],
                 id="nan-power"),
    pytest.param([1.0, 1.0], [0.5, np.nan], [_bad("splits", 1, "in [0, 1]", "nan")],
                 id="nan-split"),
    pytest.param([1.0, -0.1], [0.5, 0.5], [_bad("powers", 1, ">= 0", "-0.1")],
                 id="negative-power"),
    pytest.param([-np.inf], [0.0], [_bad("powers", 0, ">= 0", "-inf")],
                 id="minus-inf-power"),
    pytest.param([1.0, 1.0], [0.5, 1.5], [_bad("splits", 1, "in [0, 1]", "1.5")],
                 id="split-above-one"),
    pytest.param([1.0, 1.0], [-0.25, 0.5], [_bad("splits", 0, "in [0, 1]", "-0.25")],
                 id="split-below-zero"),
    pytest.param([-1.0, np.nan, 2.0], [1.0 + 1e-12, -0.0, np.inf],
                 [_bad("powers", 0, ">= 0", "-1.0"), _bad("powers", 1, ">= 0", "nan"),
                  _bad("splits", 0, "in [0, 1]", "1.000000000001"),
                  _bad("splits", 2, "in [0, 1]", "inf")], id="several"),
    pytest.param([1.0, 1.0], [0.5],
                 [("DimensionMismatch", "splits", "powers (2,) vs splits (1,)")],
                 id="shape"),
    pytest.param([[1.0], [1.0]], [[0.5], [0.5]],
                 [("DimensionMismatch", "splits", "powers (2, 1) vs splits (2, 1)")],
                 id="two-dimensional"),
])
def test_operating_point_violations(powers, splits, violations):
    # Every violation, in order and with its message, as the per-index
    # check lists them; NaN fails like any other value out of range.
    with pytest.raises(ConfigError) as caught:
        OperatingPoint(np.array(powers), np.array(splits))
    assert caught.value.violations == violations
    assert str(caught.value) == "; ".join(f"{k}[{f}]: {m}" for k, f, m in violations)


@pytest.mark.parametrize("powers,splits", [([0.0, -0.0], [0.0, 1.0]), ([np.inf], [1.0]),
                                           ([], [])])
def test_operating_point_accepts_the_closed_range(powers, splits):
    point = OperatingPoint(np.array(powers), np.array(splits))
    assert not point.powers.flags.writeable and not point.splits.flags.writeable


def test_decoding_order_must_be_permutation():
    assert DecodingOrder((1, 0, 2)).one_based() == (2, 1, 3)
    with pytest.raises(InvalidPermutationError):
        DecodingOrder((0, 0))
    with pytest.raises(InvalidPermutationError):
        DecodingOrder((1, 2))


def test_weights_sum_to_one():
    w = Weights.pair(0.3)
    assert w.alpha.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ConfigError):
        Weights(np.array([0.6, 0.6]))
    with pytest.raises(ConfigError):
        Weights(np.array([1.5, -0.5]))


def test_json_round_trip_is_bit_exact():
    rng = np.random.default_rng(7)
    for _ in range(20):
        cfg = random_config(rng, num_users=int(rng.integers(1, 4)),
                            num_eve_antennas=int(rng.integers(1, 4)),
                            eh_fraction=float(rng.uniform(0, 0.5)))
        blob = json.dumps(config_to_dict(cfg))
        back = config_from_dict(json.loads(blob))
        assert np.array_equal(back.gains, cfg.gains)
        assert np.array_equal(back.eve_channels, cfg.eve_channels)
        for field in ("antenna_noise_vars", "processing_noise_vars",
                      "power_budget", "eh_demands"):
            assert np.array_equal(getattr(back, field), getattr(cfg, field))
        assert back.eve_antenna_noise_var == cfg.eve_antenna_noise_var
        assert back.eve_processing_noise_var == cfg.eve_processing_noise_var
        assert back.energy_model == cfg.energy_model


def test_json_rejects_unknown_energy_model():
    data = config_to_dict(make_fixture())
    data["energy_model"] = "linear"
    with pytest.raises(ConfigError):
        config_from_dict(data)


def test_json_rejects_missing_key():
    data = config_to_dict(make_fixture())
    del data["power_budget"]
    with pytest.raises(ConfigError):
        config_from_dict(data)


def test_energy_model_values():
    assert EnergyModel("product") is EnergyModel.PRODUCT
    assert EnergyModel("reformulated") is EnergyModel.REFORMULATED


def _numeric_leaves(node, path=()):
    """Paths to every number of a scenario dict (the counts, every channel
    coordinate, every noise variance, budget and demand)."""
    if isinstance(node, (int, float)):
        yield path
    elif isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _numeric_leaves(child, path + (key,))


def _set_leaf(data, path, value):
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


NUMERIC_PATHS = list(_numeric_leaves(config_to_dict(make_fixture())))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(path=st.sampled_from(NUMERIC_PATHS),
       value=st.floats(allow_nan=True, allow_infinity=True))
def test_any_float_in_any_field_is_valid_or_config_error(path, value):
    # Validation is total: the only outcomes are a valid config or a
    # ConfigError, and a non-finite or non-integral count never validates.
    data = config_to_dict(make_fixture())
    _set_leaf(data, path, value)
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    assert np.isfinite(value)
    if path[0] in ("num_users", "num_eve_antennas"):
        assert value.is_integer()
    assert config_violations(cfg) == []


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), num_users=st.sampled_from([2, 3]),
       energy_model=st.sampled_from(list(EnergyModel)),
       demand_fracs=st.lists(st.floats(0.0, 1.5), min_size=3, max_size=3),
       power_fracs=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
def test_max_splits_inverts_the_harvested_energy(seed, num_users, energy_model,
                                                 demand_fracs, power_fracs):
    # At any powers in the box, eta* harvests exactly the demand; a negative
    # eta* means even eta = 0 falls short, and a vacuous demand leaves 1.
    cfg = random_config(np.random.default_rng(seed), num_users=num_users,
                        energy_model=energy_model)
    cfg = with_demands(cfg, np.array(demand_fracs[:num_users])
                       * max_deliverable_energy(cfg))
    powers = np.array(power_fracs[:num_users]) * cfg.power_budget
    eta = max_splits(cfg, powers)
    c, _ = cfg.harvest_offsets
    psi = cfg.eh_demands

    def energy(k, split):
        splits = np.zeros(num_users)
        splits[k] = split
        return harvested_energies(cfg, OperatingPoint(powers, splits)).per_user[k]

    for k in range(num_users):
        if psi[k] <= c[k]:
            assert eta[k] == 1.0
        if eta[k] < 0:
            assert energy(k, 0.0) < psi[k]
        elif eta[k] < 1:
            assert energy(k, eta[k]) == pytest.approx(psi[k], rel=1e-9)
