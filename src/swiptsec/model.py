"""Problem-instance types shared by every other module.

A :class:`SystemConfig` is one deterministic instance of the K-user wiretap
interference channel with power-splitting receivers: complex channel gains,
the eavesdropper's channel vectors, noise variances, power budgets and energy
demands.  Rates, energies and the optimization problem are pure functions of
a config plus an :class:`OperatingPoint`.  A config checks its invariants
when it is made (the constructor and ``dataclasses.replace`` raise
:class:`ConfigError` otherwise), so every config is valid, immutable and
safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from types import MappingProxyType

import numpy as np

NON_POSITIVE_VARIANCE = "NonPositiveVariance"
NON_POSITIVE_BUDGET = "NonPositiveBudget"
DIMENSION_MISMATCH = "DimensionMismatch"
NEGATIVE_DEMAND = "NegativeDemand"
BAD_VALUE = "BadValue"


class ConfigError(ValueError):
    """An input to a public call violates its invariants.

    ``violations`` holds the complete list of (kind, field, message) tuples,
    one per offending field, so a caller sees every problem at once.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(f"{k}[{f}]: {m}" for k, f, m in self.violations))


class InfeasibleError(RuntimeError):
    """No point meets the energy demands."""


class NumericalFailureError(RuntimeError):
    """A computed value overflowed, vanished, is not finite or not positive
    definite, or the optimizer left a constraint violated."""


class EnergyModel(str, Enum):
    """Which harvested-energy expression the instance uses.

    PRODUCT is the physical split (1 - eta) * (received power + antenna
    noise).  REFORMULATED is the variant implied by the harvesting constraint
    of the power/split program, sigma^2 + (1 - eta) * received power; it is
    the model that reproduces the reference region boundaries.
    """

    PRODUCT = "product"
    REFORMULATED = "reformulated"


def _subsets(users, most: int) -> list:
    """Every subset of ``users`` with at most ``most`` members, as tuples: by
    size, then in the order of itertools.combinations."""
    return [t for size in range(min(len(users), most) + 1)
            for t in combinations(users, size)]


def _ro(arr, dtype):
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def _freeze(value) -> None:
    """Make ``value``, if an array, and every array within it, if a tuple,
    read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)


def _bad_entries(name, arr, *rules) -> list:
    """A (kind, entry, "text, got x") violation, in index order, for each
    entry x of ``arr`` that breaks one of ``rules``, (ok, kind, text)
    triples with ``ok`` a boolean array over ``arr``: the first it breaks."""
    bad = []
    for idx, x in np.ndenumerate(arr):
        for ok, kind, text in rules:
            if not ok[idx]:
                bad.append((kind, name + "".join(f"[{i}]" for i in idx), f"{text}, got {x}"))
                break
    return bad


# SystemConfig's array and scalar fields, each with its dtype, shape over (K, M)
# ("" is 0-d) and the kind and rule of a bad entry (None: any finite entry).
_FIELDS = {
    "gains": (complex, "KK", None, None),
    "eve_channels": (complex, "KM", None, None),
    "antenna_noise_vars": (float, "K", NON_POSITIVE_VARIANCE, "variance must be > 0"),
    "processing_noise_vars": (float, "K", NON_POSITIVE_VARIANCE, "variance must be > 0"),
    "eve_antenna_noise_var": (float, "", NON_POSITIVE_VARIANCE, "variance must be > 0"),
    "eve_processing_noise_var": (float, "", NON_POSITIVE_VARIANCE, "variance must be > 0"),
    "power_budget": (float, "K", NON_POSITIVE_BUDGET, "budget must be > 0"),
    "eh_demands": (float, "K", NEGATIVE_DEMAND, "demand must be >= 0"),
}


@dataclass(frozen=True, eq=False)
class SystemConfig:
    """Deterministic channel/noise/budget instance for K users and an
    M-antenna eavesdropper.

    gains[k, j] is the complex amplitude gain from transmitter j to receiver
    k (row = receiver).  eve_channels[j] is the length-M vector from
    transmitter j to the eavesdropper.  All noise quantities are variances in
    power units, the eavesdropper's two 0-d arrays.  The constructor, and so
    ``dataclasses.replace``, raises ConfigError listing every violated
    invariant, an unconvertible field included: a config is valid once made.
    """

    num_users: int
    num_eve_antennas: int
    gains: np.ndarray
    eve_channels: np.ndarray
    antenna_noise_vars: np.ndarray
    processing_noise_vars: np.ndarray
    eve_antenna_noise_var: np.ndarray           # 0-d
    eve_processing_noise_var: np.ndarray        # 0-d
    power_budget: np.ndarray
    eh_demands: np.ndarray
    energy_model: EnergyModel = EnergyModel.REFORMULATED

    def __post_init__(self):
        try:
            object.__setattr__(self, "energy_model", EnergyModel(self.energy_model))
        except (TypeError, ValueError):
            pass        # _violations reports it
        violations = _violations(self)
        if violations:
            raise ConfigError(violations)
        for name, (dtype, *_) in _FIELDS.items():
            object.__setattr__(self, name, _ro(getattr(self, name), dtype))

    @property
    def eve_noise_total(self) -> float:
        """Combined eavesdropper noise variance (antenna plus processing)."""
        return float(self.eve_antenna_noise_var + self.eve_processing_noise_var)

    @property
    def gain_powers(self) -> np.ndarray:
        """|gains|^2, the only form the rate/energy formulas consume; computed
        once per config (cached, read-only)."""
        return self.cached("gain_powers", lambda: np.abs(self.gains) ** 2)

    @property
    def gram_minors(self) -> MappingProxyType:
        """det(G_T) / sbar^|T| for every user set T with |T| <= M (1 for the
        empty set), keyed by frozenset, with G = conj(H) H^T the Gram matrix
        of the eavesdropper channels; computed once per config (cached).
        Principal minors are >= 0; the clamp removes rounding noise from
        rank-deficient ones."""
        def build():
            gram = self.eve_channels.conj() @ self.eve_channels.T
            sbar = self.eve_noise_total
            return MappingProxyType({
                frozenset(t): max(np.linalg.det(gram[np.ix_(t, t)]).real, 0.0) / sbar ** len(t)
                for t in _subsets(range(self.num_users), self.num_eve_antennas)})
        return self.cached("gram_minors", build)

    def eve_det_terms(self, users) -> list:
        """The Cauchy-Binet terms of the eavesdropper determinant
        E(users) = det(I + sum_{j in users} (p_j / sbar) h_j h_j^H)
        = sum_T gram_minors[T] prod_{j in T} p_j: a (T, minor) pair for every
        T in ``users`` with |T| <= M, the empty set first."""
        minors = self.gram_minors
        return [(t, minors[frozenset(t)]) for t in _subsets(users, self.num_eve_antennas)]

    def cached(self, key, build):
        """``build()``, called once per config object and ``key`` and kept
        with it (a ``dataclasses.replace`` copy builds its own), with every
        array of the value, or within its tuples at any depth, read-only."""
        values = self.__dict__.setdefault("_cached", {})
        if key not in values:
            value = build()
            _freeze(value)
            values[key] = value
        return values[key]

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
    need = np.maximum(cfg.eh_demands - c, 0.0)
    eta = np.asarray(powers, dtype=float) @ cfg.gain_powers.T      # T
    # One user's column at a time: ops against a length-K vector would loop
    # over the short trailing axis innermost, which is slow on a grid.
    with np.errstate(all="ignore"):     # T + d may be 0: eta* = -inf
        for k in range(cfg.num_users):
            eta[..., k] = 1.0 - need[k] / (eta[..., k] + d[k]) if need[k] > 0 else 1.0
    return eta


def infeasible_demands(cfg: SystemConfig) -> np.ndarray:
    """Users whose demand no point meets: best split at full power <= 0, i.e.
    a demand not below max_deliverable_energy."""
    return np.flatnonzero(max_splits(cfg, cfg.power_budget) <= 0)


def _violations(cfg: SystemConfig) -> list:
    """The complete list of cfg's invariant violations (empty when valid)."""
    v = []
    if not isinstance(cfg.energy_model, EnergyModel):
        v.append((BAD_VALUE, "energy_model", "expected 'product' or 'reformulated', "
                  f"got {cfg.energy_model!r}"))
    sizes = {"K": cfg.num_users, "M": cfg.num_eve_antennas}
    bad_counts = [(BAD_VALUE, name, f"must be a positive integer, got {n!r}")
                  for name, n in zip(("num_users", "num_eve_antennas"), sizes.values())
                  if not (isinstance(n, (int, np.integer)) and n >= 1) or isinstance(n, bool)]
    v += bad_counts
    for name, (dtype, dims, kind, rule) in _FIELDS.items():
        try:
            arr = np.asarray(getattr(cfg, name), dtype)
        except (TypeError, ValueError, OverflowError) as exc:
            v.append((BAD_VALUE, name, str(exc)))
            continue
        if bad_counts:
            continue
        shape = tuple(sizes[d] for d in dims)
        finite = np.isfinite(arr)
        if arr.shape != shape:
            v.append((DIMENSION_MISMATCH, name, f"expected shape {shape}, got {arr.shape}"))
        elif kind is None:
            if not finite.all():
                v.append((BAD_VALUE, name, "every entry must be finite"))
        else:
            v += _bad_entries(name, arr, (finite, BAD_VALUE, "must be finite"),
                              (arr >= 0 if kind == NEGATIVE_DEMAND else arr > 0, kind, rule))
    return v


@dataclass(frozen=True, eq=False)
class OperatingPoint:
    """Transmit powers p and power-splitting coefficients eta for all users.

    eta_k is the fraction of receive power routed to information detection;
    the remainder 1 - eta_k feeds the harvester.
    """

    powers: np.ndarray
    splits: np.ndarray

    def __post_init__(self):
        p, s = _ro(self.powers, float), _ro(self.splits, float)
        object.__setattr__(self, "powers", p)
        object.__setattr__(self, "splits", s)
        if p.ndim != 1 or s.shape != p.shape:
            raise ConfigError([(DIMENSION_MISMATCH, "splits",
                                f"powers {p.shape} vs splits {s.shape}")])
        # Whole-array tests, which NaN fails too; per-index errors on failure.
        p_ok, s_ok = p >= 0, (s >= 0) & (s <= 1)
        if not (p_ok.all() and s_ok.all()):
            raise ConfigError(
                _bad_entries("powers", p, (p_ok, BAD_VALUE, "must be >= 0"))
                + _bad_entries("splits", s, (s_ok, BAD_VALUE, "must be in [0, 1]")))


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
            raise ConfigError([(BAD_VALUE, "users", f"not a permutation of "
                                f"0..{len(users) - 1}: {users}")])

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
        bad = _bad_entries("alpha", a, ((a >= 0) & (a <= 1), BAD_VALUE, "must be in [0, 1]"))
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

class _Unreadable:
    """A JSON value that holds no [re, im] pairs, passed to SystemConfig in
    place of its field: converting it raises ValueError with ``text``, so
    the constructor lists the field with the config's other violations."""

    def __init__(self, text):
        self.text = text

    def __array__(self, dtype=None, copy=None):
        raise ValueError(self.text)


def _complex_in(pairs, dims):
    """The complex array that JSON [re, im] pairs hold, bit for bit, for a
    field of shape ``dims``: a real array with one axis more, of length 2.
    Anything else is _Unreadable."""
    try:
        arr = np.array(pairs, dtype=float, order="C")
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is not None and arr.ndim == len(dims) + 1 and arr.shape[-1] == 2:
        return arr.view(complex)[..., 0]     # each (re, im) row is one complex128
    return _Unreadable(f"expected [re, im] pairs, got {pairs!r}")


def _count_in(value):
    """A JSON count, 2.0 read as 2: SystemConfig rejects any other value that
    is not a positive integer, rather than truncate it."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def config_to_dict(cfg: SystemConfig) -> dict:
    """Plain-JSON representation, a complex number as its [re, im] pair;
    floats round-trip bit-exactly."""
    def out(arr, dtype):
        return (np.stack([arr.real, arr.imag], -1) if dtype is complex else arr).tolist()
    return {"num_users": int(cfg.num_users), "num_eve_antennas": int(cfg.num_eve_antennas),
            **{name: out(getattr(cfg, name), dtype) for name, (dtype, *_) in _FIELDS.items()},
            "energy_model": cfg.energy_model.value}


def config_from_dict(data: dict) -> SystemConfig:
    """Parse a scenario dict (inverse of config_to_dict); ConfigError when it
    is malformed or the config it describes is invalid."""
    missing = [key for key in ("num_users", "num_eve_antennas", *_FIELDS) if key not in data]
    if missing:
        raise ConfigError([(BAD_VALUE, key, "missing required key") for key in missing])
    return SystemConfig(
        num_users=_count_in(data["num_users"]),
        num_eve_antennas=_count_in(data["num_eve_antennas"]),
        **{name: _complex_in(data[name], dims) if dtype is complex else data[name]
           for name, (dtype, dims, *_) in _FIELDS.items()},
        energy_model=data.get("energy_model", "reformulated"))


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
