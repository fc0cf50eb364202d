"""Problem-instance types shared by every other module.

A :class:`SystemConfig` is one deterministic instance of the K-user wiretap
interference channel with power-splitting receivers: complex channel gains,
the eavesdropper's channel vectors, noise variances, power budgets and energy
demands.  Rates, energies and the optimization problem are pure functions of
a config plus an :class:`OperatingPoint`, so configs are immutable after
validation and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

NON_POSITIVE_VARIANCE = "NonPositiveVariance"
NON_POSITIVE_BUDGET = "NonPositiveBudget"
DIMENSION_MISMATCH = "DimensionMismatch"
NEGATIVE_DEMAND = "NegativeDemand"
BAD_VALUE = "BadValue"


class ConfigError(ValueError):
    """A problem instance violates its invariants.

    ``violations`` holds the complete list of (kind, field, message) tuples,
    one per offending field, so a caller sees every problem at once.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(f"{k}[{f}]: {m}" for k, f, m in self.violations))


class InvalidPermutationError(ValueError):
    pass


class EnergyModel(str, Enum):
    """Which harvested-energy expression the instance uses.

    PRODUCT is the physical split (1 - eta) * (received power + antenna
    noise).  REFORMULATED is the variant implied by the harvesting constraint
    of the power/split program, sigma^2 + (1 - eta) * received power; it is
    the model that reproduces the reference region boundaries.
    """

    PRODUCT = "product"
    REFORMULATED = "reformulated"


def _ro(arr, dtype):
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SystemConfig:
    """Deterministic channel/noise/budget instance for K users and an
    M-antenna eavesdropper.

    gains[k, j] is the complex amplitude gain from transmitter j to receiver
    k (row = receiver).  eve_channels[j] is the length-M vector from
    transmitter j to the eavesdropper.  All noise quantities are variances in
    power units.
    """

    num_users: int
    num_eve_antennas: int
    gains: np.ndarray
    eve_channels: np.ndarray
    antenna_noise_vars: np.ndarray
    processing_noise_vars: np.ndarray
    eve_antenna_noise_var: float
    eve_processing_noise_var: float
    power_budget: np.ndarray
    eh_demands: np.ndarray
    energy_model: EnergyModel = EnergyModel.REFORMULATED

    def __post_init__(self):
        object.__setattr__(self, "gains", _ro(self.gains, complex))
        object.__setattr__(self, "eve_channels", _ro(self.eve_channels, complex))
        object.__setattr__(self, "antenna_noise_vars", _ro(self.antenna_noise_vars, float))
        object.__setattr__(self, "processing_noise_vars", _ro(self.processing_noise_vars, float))
        object.__setattr__(self, "power_budget", _ro(self.power_budget, float))
        object.__setattr__(self, "eh_demands", _ro(self.eh_demands, float))
        object.__setattr__(self, "energy_model", EnergyModel(self.energy_model))

    @property
    def eve_noise_total(self) -> float:
        """Combined eavesdropper noise variance (antenna plus processing)."""
        return float(self.eve_antenna_noise_var + self.eve_processing_noise_var)

    @property
    def gain_powers(self) -> np.ndarray:
        """|gains|^2, the only form the rate/energy formulas consume."""
        return np.abs(self.gains) ** 2

    @property
    def harvest_offsets(self) -> tuple:
        """Per-user (c, d) of the energy model: user k harvests
        c_k + (1 - eta_k)(T_k + d_k), where T_k is its received signal power.

        REFORMULATED gives (sigma^2, 0) and PRODUCT gives (0, rho^2).
        """
        zero = np.zeros_like(self.antenna_noise_vars)
        if self.energy_model is EnergyModel.PRODUCT:
            return zero, self.antenna_noise_vars
        return self.processing_noise_vars, zero


def max_deliverable_energy(cfg: SystemConfig) -> np.ndarray:
    """Largest harvestable energy per user (full power, eta = 0)."""
    c, d = cfg.harvest_offsets
    return c + (cfg.gain_powers @ cfg.power_budget + d)


def max_splits(cfg: SystemConfig, powers) -> np.ndarray:
    """Each user's best split at ``powers`` (trailing K axis): the largest
    that meets its demand, eta_k* = min(1, 1 - (psi_k - c_k)^+ / (T_k + d_k)),
    as rates rise with eta_k and the energy c_k + (1 - eta_k)(T_k + d_k)
    falls.  1 where the demand is vacuous, negative where no split meets it.
    """
    c, d = cfg.harvest_offsets
    reach = np.asarray(powers, dtype=float) @ cfg.gain_powers.T + d   # T + d
    need = np.maximum(cfg.eh_demands - c, 0.0)
    with np.errstate(all="ignore"):     # reach may be 0: eta* = -inf
        return np.where(need > 0, 1.0 - need / reach, 1.0)


def infeasible_demands(cfg: SystemConfig) -> np.ndarray:
    """Users whose demand no point meets: best split at full power <= 0, i.e.
    a demand not below max_deliverable_energy."""
    return np.flatnonzero(max_splits(cfg, cfg.power_budget) <= 0)


def config_violations(cfg: SystemConfig) -> list:
    """Return the complete list of invariant violations (empty when valid)."""
    v = []
    k, m = cfg.num_users, cfg.num_eve_antennas
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        v.append((BAD_VALUE, "num_users", f"must be a positive integer, got {k!r}"))
        return v
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        v.append((BAD_VALUE, "num_eve_antennas", f"must be a positive integer, got {m!r}"))
        return v

    for name, shape in (("gains", (k, k)), ("eve_channels", (k, m))):
        arr = getattr(cfg, name)
        if arr.shape != shape:
            v.append((DIMENSION_MISMATCH, name, f"expected shape {shape}, got {arr.shape}"))
        elif not np.all(np.isfinite(arr)):
            v.append((BAD_VALUE, name, "every entry must be finite"))

    for name, shape, kind, rule in (
            ("antenna_noise_vars", (k,), NON_POSITIVE_VARIANCE, "variance must be > 0"),
            ("processing_noise_vars", (k,), NON_POSITIVE_VARIANCE, "variance must be > 0"),
            ("eve_antenna_noise_var", (), NON_POSITIVE_VARIANCE, "variance must be > 0"),
            ("eve_processing_noise_var", (), NON_POSITIVE_VARIANCE, "variance must be > 0"),
            ("power_budget", (k,), NON_POSITIVE_BUDGET, "budget must be > 0"),
            ("eh_demands", (k,), NEGATIVE_DEMAND, "demand must be >= 0")):
        arr = np.asarray(getattr(cfg, name))
        if arr.shape != shape:
            v.append((DIMENSION_MISMATCH, name, f"expected shape {shape}, got {arr.shape}"))
            continue
        for idx, x in np.ndenumerate(arr):
            entry = name + "".join(f"[{i}]" for i in idx)
            if not np.isfinite(x):
                v.append((BAD_VALUE, entry, f"must be finite, got {x}"))
            elif not (x >= 0 if kind == NEGATIVE_DEMAND else x > 0):
                v.append((kind, entry, f"{rule}, got {x}"))
    return v


def validate_config(cfg: SystemConfig) -> SystemConfig:
    """Return ``cfg`` unchanged iff every invariant holds.

    Raises :class:`ConfigError` carrying the complete violation list
    otherwise.  Idempotent: validating a validated config is a no-op.
    """
    violations = config_violations(cfg)
    if violations:
        raise ConfigError(violations)
    return cfg


def with_demands(cfg: SystemConfig, psi) -> SystemConfig:
    """``cfg`` with its energy demands replaced by ``psi``, validated.

    Every demand override goes through here, so a NaN, negative or
    wrong-length demand raises :class:`ConfigError` instead of silently
    dropping or breaking a harvesting constraint.
    """
    return validate_config(replace(cfg, eh_demands=psi))


@dataclass(frozen=True, eq=False)
class OperatingPoint:
    """Transmit powers p and power-splitting coefficients eta for all users.

    eta_k is the fraction of receive power routed to information detection;
    the remainder 1 - eta_k feeds the harvester.
    """

    powers: np.ndarray
    splits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "powers", _ro(self.powers, float))
        object.__setattr__(self, "splits", _ro(self.splits, float))
        if self.powers.ndim != 1 or self.splits.shape != self.powers.shape:
            raise ConfigError([(DIMENSION_MISMATCH, "splits",
                                f"powers {self.powers.shape} vs splits {self.splits.shape}")])
        bad = [(BAD_VALUE, f"powers[{i}]", f"must be >= 0, got {x}")
               for i, x in enumerate(self.powers) if not x >= 0]
        bad += [(BAD_VALUE, f"splits[{i}]", f"must be in [0, 1], got {x}")
                for i, x in enumerate(self.splits) if not 0 <= x <= 1]
        if bad:
            raise ConfigError(bad)


@dataclass(frozen=True)
class DecodingOrder:
    """A permutation of the user indices (0-based) selecting one corner of
    the secrecy polytope.

    users[0] is decoded first at the eavesdropper and therefore sees every
    later user as noise; the last user's signal is observed interference-free.
    """

    users: tuple

    def __post_init__(self):
        users = tuple(int(u) for u in self.users)
        object.__setattr__(self, "users", users)
        if sorted(users) != list(range(len(users))):
            raise InvalidPermutationError(f"not a permutation of 0..{len(users) - 1}: {users}")

    def __len__(self):
        return len(self.users)

    def one_based(self) -> tuple:
        return tuple(u + 1 for u in self.users)


@dataclass(frozen=True, eq=False)
class Weights:
    """Pareto-scan weight vector alpha: entries in [0, 1], summing to one.

    Zero entries are allowed and mean the corresponding user's rate is
    unconstrained (the axis-endpoint, single-user solve).
    """

    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", _ro(self.alpha, float))
        a = self.alpha
        bad = [(BAD_VALUE, f"alpha[{i}]", f"must be in [0, 1], got {x}")
               for i, x in enumerate(a) if not 0 <= x <= 1]
        if abs(a.sum() - 1.0) > 1e-12:
            bad.append((BAD_VALUE, "alpha", f"must sum to 1 within 1e-12, got {a.sum()!r}"))
        if bad:
            raise ConfigError(bad)

    @staticmethod
    def pair(alpha1: float) -> "Weights":
        return Weights(np.array([alpha1, 1.0 - alpha1]))


# ---------------------------------------------------------------------------
# External JSON scenario format
# ---------------------------------------------------------------------------

def _complex_out(z):
    return [float(np.real(z)), float(np.imag(z))]


def _complex_in(pair, field):
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ConfigError([(BAD_VALUE, field, f"expected [re, im] pair, got {pair!r}")])
    return complex(float(pair[0]), float(pair[1]))


def _count_in(value, field):
    """An integral JSON number (2 or 2.0) as an int; anything else is a
    ConfigError rather than a silent truncation."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError([(BAD_VALUE, field, f"must be an integer, got {value!r}")])
    return value


def config_to_dict(cfg: SystemConfig) -> dict:
    """Plain-JSON representation; floats round-trip bit-exactly."""
    return {
        "num_users": int(cfg.num_users),
        "num_eve_antennas": int(cfg.num_eve_antennas),
        "gains": [[_complex_out(z) for z in row] for row in cfg.gains],
        "eve_channels": [[_complex_out(z) for z in row] for row in cfg.eve_channels],
        "antenna_noise_vars": [float(x) for x in cfg.antenna_noise_vars],
        "processing_noise_vars": [float(x) for x in cfg.processing_noise_vars],
        "eve_antenna_noise_var": float(cfg.eve_antenna_noise_var),
        "eve_processing_noise_var": float(cfg.eve_processing_noise_var),
        "power_budget": [float(x) for x in cfg.power_budget],
        "eh_demands": [float(x) for x in cfg.eh_demands],
        "energy_model": cfg.energy_model.value,
    }


def config_from_dict(data: dict) -> SystemConfig:
    """Parse and validate a scenario dict (inverse of config_to_dict)."""
    required = ("num_users", "num_eve_antennas", "gains", "eve_channels",
                "antenna_noise_vars", "processing_noise_vars",
                "eve_antenna_noise_var", "eve_processing_noise_var",
                "power_budget", "eh_demands")
    missing = [key for key in required if key not in data]
    if missing:
        raise ConfigError([(BAD_VALUE, key, "missing required key") for key in missing])
    try:
        gains = np.array([[_complex_in(z, "gains") for z in row] for row in data["gains"]])
        eve = np.array([[_complex_in(z, "eve_channels") for z in row]
                        for row in data["eve_channels"]])
        if gains.ndim != 2 or gains.shape[0] != gains.shape[1]:
            raise ConfigError([(DIMENSION_MISMATCH, "gains",
                                f"expected a square matrix, got shape {gains.shape}")])
        model = data.get("energy_model", "reformulated")
        if model not in ("product", "reformulated"):
            raise ConfigError([(BAD_VALUE, "energy_model",
                                f"expected 'product' or 'reformulated', got {model!r}")])
        cfg = SystemConfig(
            num_users=_count_in(data["num_users"], "num_users"),
            num_eve_antennas=_count_in(data["num_eve_antennas"], "num_eve_antennas"),
            gains=gains,
            eve_channels=eve,
            antenna_noise_vars=np.array(data["antenna_noise_vars"], dtype=float),
            processing_noise_vars=np.array(data["processing_noise_vars"], dtype=float),
            eve_antenna_noise_var=float(data["eve_antenna_noise_var"]),
            eve_processing_noise_var=float(data["eve_processing_noise_var"]),
            power_budget=np.array(data["power_budget"], dtype=float),
            eh_demands=np.array(data["eh_demands"], dtype=float),
            energy_model=EnergyModel(model),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError([(BAD_VALUE, "scenario", str(exc))]) from exc
    return validate_config(cfg)


def save_scenario(cfg: SystemConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path) -> SystemConfig:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError([(BAD_VALUE, "scenario", "top-level JSON value must be an object")])
    return config_from_dict(data)
