import ast
import dataclasses
import importlib
import json
import pkgutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swiptsec
from swiptsec import (RELIABLE, ConfigError, DecodingOrder, EnergyModel,
                      OperatingPoint, SystemConfig, Weights, config_from_dict,
                      config_to_dict, harvested_energies, model, solver, sweep)
from swiptsec.model import (BAD_VALUE, DIMENSION_MISMATCH, NEGATIVE_DEMAND,
                            NON_POSITIVE_BUDGET, NON_POSITIVE_VARIANCE,
                            max_deliverable_energy, max_splits)
from swiptsec.scenarios import random_config, symmetric_two_user, weak_interference


def fixture_fields(**overrides):
    fields = dict(
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
        energy_model=EnergyModel.REFORMULATED,
    )
    fields.update(overrides)
    return fields


def make_fixture(**overrides):
    return SystemConfig(**fixture_fields(**overrides))


def _violations_of(**overrides):
    """The violations the fixture's constructor reports with ``overrides``."""
    with pytest.raises(ConfigError) as err:
        make_fixture(**overrides)
    return err.value.violations


def test_paper_fixture_is_valid():
    cfg = make_fixture()
    assert isinstance(cfg, SystemConfig)
    assert cfg.eve_noise_total == pytest.approx(0.5)


def test_validation_is_idempotent():
    # Rebuilding a valid config (replace with no change) checks it again and
    # passes, with the same read-only arrays; the two eavesdropper noise
    # variances are 0-d arrays, and their total a float.
    cfg = weak_interference()
    again = replace(cfg)
    assert again is not cfg
    for field in ("gains", "eve_channels", "eh_demands", "power_budget",
                  "eve_antenna_noise_var", "eve_processing_noise_var"):
        assert np.array_equal(getattr(again, field), getattr(cfg, field))
        assert not getattr(again, field).flags.writeable
    assert cfg.eve_antenna_noise_var.shape == () and type(cfg.eve_noise_total) is float


def test_gram_minors_are_cached_per_config():
    # The minors are built once per config object, read-only like every
    # cached value, and a replace copy builds its own.
    cfg = weak_interference()
    assert cfg.gram_minors is cfg.gram_minors
    assert cfg._cached["gram_minors"] is cfg.gram_minors
    with pytest.raises(TypeError):
        cfg.gram_minors[frozenset()] = 2.0
    other = replace(cfg)
    assert other.gram_minors is not cfg.gram_minors
    assert dict(other.gram_minors) == dict(cfg.gram_minors)


def test_each_config_object_is_checked_once(monkeypatch):
    # A config checks itself once, when it is made: over a sweep with a
    # demand override, only the replace that makes the overridden config
    # checks, and no solve checks again.  An invalid config is rejected on
    # every attempt to make it, and never exists.
    cfg = weak_interference()
    checked = []
    check = model._violations
    monkeypatch.setattr(model, "_violations", lambda c: checked.append(c) or check(c))
    sweep(cfg, RELIABLE, psi=(0.5, 0.5), grid=5)
    assert len(checked) == 1 and checked[0] is not cfg
    for _ in range(2):
        with pytest.raises(ConfigError):
            make_fixture(power_budget=np.array([1.0, -1.0]))
    assert len(checked) == 3


def test_zero_variance_rejected():
    violations = _violations_of(processing_noise_vars=np.array([0.0, 0.25]))
    kinds = {(k, f) for k, f, _ in violations}
    assert (NON_POSITIVE_VARIANCE, "processing_noise_vars[0]") in kinds


def test_eve_channel_shape_rejected():
    violations = _violations_of(eve_channels=np.zeros((2, 3), dtype=complex) + 0.5)
    assert any(k == DIMENSION_MISMATCH and f == "eve_channels" for k, f, _ in violations)


def test_negative_demand_rejected():
    # replace checks the new demands as the constructor does.
    for make in (lambda: make_fixture(eh_demands=np.array([-0.1, 0.0])),
                 lambda: replace(make_fixture(), eh_demands=[-0.1, 0.0])):
        with pytest.raises(ConfigError) as err:
            make()
        assert any(k == NEGATIVE_DEMAND and f == "eh_demands[0]"
                   for k, f, _ in err.value.violations)


def test_violation_list_is_complete():
    # Every invalid field is reported at once, a bad energy model and a
    # variance that is no number included, and a NaN demand is a violation
    # rather than a vacuous constraint.
    violations = _violations_of(eh_demands=np.array([np.nan, -0.1]),
                                antenna_noise_vars=np.array([0.25, -1.0]),
                                eve_antenna_noise_var=None, energy_model="linear")
    assert {(k, f) for k, f, _ in violations} == {
        (BAD_VALUE, "energy_model"), (BAD_VALUE, "eh_demands[0]"),
        (NEGATIVE_DEMAND, "eh_demands[1]"), (BAD_VALUE, "eve_antenna_noise_var"),
        (NON_POSITIVE_VARIANCE, "antenna_noise_vars[1]")}


@pytest.mark.parametrize("overrides, named", [
    pytest.param({"gains": "abc", "power_budget": [-1.0, 1.0]},
                 [(BAD_VALUE, "gains"), (NON_POSITIVE_BUDGET, "power_budget[0]")],
                 id="unconvertible-gains"),
    pytest.param({"antenna_noise_vars": [[0.25], [0.25, 0.25]], "eh_demands": [0.0, -1.0]},
                 [(BAD_VALUE, "antenna_noise_vars"), (NEGATIVE_DEMAND, "eh_demands[1]")],
                 id="ragged-noise"),
    pytest.param({"eve_processing_noise_var": "x", "eve_antenna_noise_var": 0.0},
                 [(NON_POSITIVE_VARIANCE, "eve_antenna_noise_var"),
                  (BAD_VALUE, "eve_processing_noise_var")], id="bad-scalars"),
    pytest.param({"power_budget": [10 ** 400, 1.0], "num_users": 2.5, "num_eve_antennas": 0},
                 [(BAD_VALUE, "num_users"), (BAD_VALUE, "num_eve_antennas"),
                  (BAD_VALUE, "power_budget")], id="bad-counts-and-huge-int"),
    pytest.param({"num_users": True}, [(BAD_VALUE, "num_users")], id="boolean-count"),
])
def test_unconvertible_field_is_one_violation_among_all(overrides, named):
    # A field that does not convert to its dtype is listed with every other
    # violation, in field order, rather than hiding them; bad counts leave
    # only the shapes and entries unchecked.
    for make in (lambda: replace(weak_interference(), **overrides),
                 lambda: make_fixture(**overrides)):
        with pytest.raises(ConfigError) as err:
            make()
        assert [(k, f) for k, f, _ in err.value.violations] == named


def test_unknown_eve_geometry_rejected():
    with pytest.raises(ConfigError, match=r"eve_geometry\]: expected 'orthogonal' or "
                                          r"'parallel', got 'skew'"):
        symmetric_two_user(0.5, eve_geometry="skew")


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
    with pytest.raises(ConfigError, match=r"not a permutation of 0..1: \(0, 0\)"):
        DecodingOrder((0, 0))
    with pytest.raises(ConfigError, match=r"not a permutation of 0..1: \(1, 2\)"):
        DecodingOrder((1, 2))


def test_one_exception_per_outcome():
    # The package defines three exceptions, all in model: a bad input, no
    # feasible point and a numerical breakdown.  solver re-exports the last
    # two.
    defined = {}
    for info in pkgutil.iter_modules(swiptsec.__path__):
        module = importlib.import_module(f"swiptsec.{info.name}")
        defined.update({name: module.__name__ for name, obj in vars(module).items()
                        if isinstance(obj, type) and issubclass(obj, Exception)
                        and obj.__module__ == module.__name__})
    assert defined == {"ConfigError": "swiptsec.model",
                       "InfeasibleError": "swiptsec.model",
                       "NumericalFailureError": "swiptsec.model"}
    assert solver.InfeasibleError is model.InfeasibleError
    assert solver.NumericalFailureError is model.NumericalFailureError


def test_no_module_uses_another_modules_private_names():
    # Each module owns its private names: no module of the package imports
    # a _name from another or reads one off another module it imported.
    crossings = []
    for path in sorted(Path(swiptsec.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()         # names bound to the package's modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module is None:
                        modules.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        crossings.append(f"{path.name}:{node.lineno} imports "
                                         f"{node.module}.{alias.name}")
        crossings += [f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                      and isinstance(node.value, ast.Name) and node.value.id in modules]
    assert crossings == []


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
        # A column-major array is read and written entry for entry, too.
        cfg = replace(cfg, gains=np.asfortranarray(cfg.gains))
        data = config_to_dict(cfg)
        fortran = config_from_dict({**data, "gains": np.asfortranarray(data["gains"])})
        assert np.array_equal(fortran.gains, cfg.gains)
        blob = json.dumps(data)
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


@pytest.mark.parametrize("changes, named", [
    pytest.param({"gains": [[[1.0, 0.0], [0.5]], [[0.5, 0.0], [1.0, 0.0]]]},
                 [(BAD_VALUE, "gains")], id="short-pair"),
    pytest.param({"eve_channels": [[0.5, 0.0], [0.0, 0.5]]},
                 [(DIMENSION_MISMATCH, "eve_channels")], id="numbers-not-pairs"),
    pytest.param({"gains": [[1.0]]}, [(BAD_VALUE, "gains")], id="no-pairs"),
    pytest.param({"gains": [[["a", 0.0], [0.5, 0.0]], [[0.5, 0.0], [1.0, 0.0]]]},
                 [(BAD_VALUE, "gains")], id="non-numeric-pair"),
    pytest.param({"power_budget": ["x", 1.0], "eh_demands": [-1.0, 0.0]},
                 [(BAD_VALUE, "power_budget"), (NEGATIVE_DEMAND, "eh_demands[0]")],
                 id="non-numeric-entry"),
    pytest.param({"antenna_noise_vars": [[0.25], [0.25, 0.25]], "power_budget": [-1.0, 1.0]},
                 [(BAD_VALUE, "antenna_noise_vars"), (NON_POSITIVE_BUDGET, "power_budget[0]")],
                 id="ragged-entries"),
    pytest.param({"num_users": 2.0, "eve_antenna_noise_var": 10 ** 400},
                 [(BAD_VALUE, "eve_antenna_noise_var")], id="integral-count-huge-int"),
    pytest.param({"num_eve_antennas": False}, [(BAD_VALUE, "num_eve_antennas")],
                 id="boolean-count"),
])
def test_json_lists_every_violation(changes, named):
    # A scenario whose values do not convert is a ConfigError naming each
    # field at fault, with the other violations of the config it describes.
    data = {**config_to_dict(make_fixture()), **changes}
    with pytest.raises(ConfigError) as err:
        config_from_dict(json.loads(json.dumps(data)))
    assert [(k, f) for k, f, _ in err.value.violations] == named


def test_load_scenario_rejects_a_top_level_list(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([config_to_dict(make_fixture())]))
    with pytest.raises(ConfigError, match=r"scenario\]: top-level JSON value must be an"):
        model.load_scenario(path)


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


FIELDS = [field.name for field in dataclasses.fields(SystemConfig)]


def _outcome(make):
    """None when ``make`` returns a config, else the ConfigError's violations."""
    try:
        make()
    except ConfigError as exc:
        return exc.violations
    return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(path=st.sampled_from(NUMERIC_PATHS), field=st.sampled_from(FIELDS),
       value=st.floats(allow_nan=True, allow_infinity=True))
def test_any_float_in_any_field_is_valid_or_config_error(path, field, value):
    # Checking is total: the only outcomes are a valid config or a
    # ConfigError, and a non-finite value never passes.  Through JSON, the
    # float replaces one number of the scenario, and a non-integral count
    # never passes.
    data = config_to_dict(make_fixture())
    _set_leaf(data, path, value)
    if _outcome(lambda: config_from_dict(data)) is None:
        assert np.isfinite(value)
        if path[0] in ("num_users", "num_eve_antennas"):
            assert value.is_integer()
    # Through the constructor and replace, which agree, the float replaces
    # a field, or an array field's first entry; a count or an energy model
    # that is a float never passes.
    new = fixture_fields()[field]
    if isinstance(new, np.ndarray):
        new = new.copy()
        new.flat[0] = value
    else:
        new = value
    made = _outcome(lambda: SystemConfig(**fixture_fields(**{field: new})))
    assert made == _outcome(lambda: replace(make_fixture(), **{field: new}))
    if made is None:
        assert np.isfinite(value)
        assert field not in ("num_users", "num_eve_antennas", "energy_model")


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
    cfg = replace(cfg, eh_demands=np.array(demand_fracs[:num_users])
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
