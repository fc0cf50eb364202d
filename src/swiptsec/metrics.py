"""Closed-form rate and energy evaluation.

Everything here is exact and deterministic.  Kernels over a trailing K axis
score one operating point or a grid of them: legitimate rates under
treating interference as noise, harvested energies under both energy
models, per-order eavesdropper rates from the Cauchy-Binet minors, secrecy
rates and the max-min objective.  The per-point functions are views of
them; the eavesdropper sum rates and chain-rule splits factor each
covariance instead, an independent reference.  All rates are base-2
arrays, one entry per user; harvested energies come as an EnergyVector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .linalg import inv_quadratic_form, log2_det, rank_one_update_sum
from .model import (BAD_VALUE, DIMENSION_MISMATCH, ConfigError, DecodingOrder,
                    OperatingPoint, SystemConfig, Weights)


@dataclass(frozen=True, eq=False)
class EnergyVector:
    """Per-user harvested energies in power units; entries >= 0."""

    per_user: np.ndarray

    def __post_init__(self):
        arr = np.array(self.per_user, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "per_user", arr)
        if np.any(arr < 0):
            raise ConfigError([(BAD_VALUE, "per_user", f"must be >= 0, got {arr}")])


def tin_rates(cfg: SystemConfig, powers, splits) -> np.ndarray:
    """Each user's rate with interference treated as noise, over a trailing
    K axis of ``powers`` and ``splits``:

    R_k = log2(1 + eta_k p_k g_kk / (sig_k^2 + eta_k (rho_k^2 + sum_{j!=k} p_j g_kj)))
    with g_kj = |h_kj|^2.
    """
    p = np.asarray(powers, dtype=float)
    eta = np.asarray(splits, dtype=float)
    g = cfg.gain_powers
    gain = np.diag(g)
    interference = p @ g.T - gain * p
    den = cfg.processing_noise_vars + eta * (cfg.antenna_noise_vars + interference)
    return np.log2(1.0 + eta * p * gain / den)


def energies(cfg: SystemConfig, powers, splits) -> np.ndarray:
    """Each user's harvested energy, over a trailing K axis:
    c_k + (1 - eta_k) (sum_j p_j g_kj + d_k) with (c, d) from
    ``cfg.harvest_offsets``: (1 - eta_k) (sum_j p_j g_kj + rho_k^2) under
    PRODUCT, sig_k^2 + (1 - eta_k) sum_j p_j g_kj under REFORMULATED.
    """
    c, d = cfg.harvest_offsets
    received = np.asarray(powers, dtype=float) @ cfg.gain_powers.T
    return c + (1.0 - np.asarray(splits, dtype=float)) * (received + d)


def _eve_det(cfg: SystemConfig, p: np.ndarray, users) -> np.ndarray:
    """E(users) = det(I + sum_{j in users} (p_j / sbar) h_j h_j^H) over a
    trailing K axis of ``p``: the sum of SystemConfig.eve_det_terms."""
    total = 0.0
    for t, minor in cfg.eve_det_terms(users):
        term = minor
        for j in t:
            term = term * p[..., j]
        total = total + term
    return total


def eve_leaks(cfg: SystemConfig, powers, order: DecodingOrder) -> np.ndarray:
    """Per-user eavesdropper rates for one decoding order, over a trailing
    K axis: R_Ek = log2 E(S + k) - log2 E(S), with S the users decoded after
    k.  Equals eve_rate_chain, which factors each covariance instead."""
    p = np.asarray(powers, dtype=float)
    users = order.users
    log_e = [np.log2(_eve_det(cfg, p, users[i:])) for i in range(len(users))] + [0.0]
    out = np.empty_like(p)
    for i, k in enumerate(users):
        out[..., k] = log_e[i] - log_e[i + 1]
    return out


def secrecy_rates(cfg: SystemConfig, powers, splits, order: DecodingOrder) -> np.ndarray:
    """Clamped secrecy rates [R_k - R_Ek]^+ for one decoding order, over a
    trailing K axis."""
    return np.maximum(tin_rates(cfg, powers, splits) - eve_leaks(cfg, powers, order), 0.0)


def max_min_objective(rates, weights: Weights) -> np.ndarray:
    """min_k R_k / alpha_k over the users with alpha_k > 0, over a trailing
    K axis of ``rates``: the weighted max-min objective, log2 of the
    solver's lambda."""
    rates = np.asarray(rates)
    alpha = weights.alpha
    return reduce(np.minimum, [rates[..., k] / alpha[k] for k in np.flatnonzero(alpha > 0)])


def _checked(cfg: SystemConfig, powers, order=None, subset=None, rates=None) -> np.ndarray:
    """``powers`` as a float array, after ConfigError listing every violation
    unless it holds one finite value >= 0 per user, ``order`` and ``rates``
    (unless None) have one entry per user and ``subset`` (unless None) is a
    nonempty set of users: the check of every per-point function."""
    kk = cfg.num_users
    p = np.asarray(powers, dtype=float)
    bad = []
    if p.shape != (kk,):
        bad.append((DIMENSION_MISMATCH, "powers", f"needs {kk} entries, got shape {p.shape}"))
    elif not ((p >= 0) & (p < np.inf)).all():
        bad.append((BAD_VALUE, "powers", f"must be finite and >= 0, got {p}"))
    if order is not None and len(order) != kk:
        bad.append((DIMENSION_MISMATCH, "order", f"needs {kk} entries, got {len(order)}"))
    if subset is not None and not (subset and subset <= set(range(kk))):
        bad.append((BAD_VALUE, "subset", f"users must be in 0..{kk - 1}, got {sorted(subset)}"
                    if subset else "subset of users must be nonempty"))
    if rates is not None and np.shape(rates) != (kk,):
        bad.append((DIMENSION_MISMATCH, "rates",
                    f"needs {kk} entries, got shape {np.shape(rates)}"))
    if bad:
        raise ConfigError(bad)
    return p


def legitimate_rates(cfg: SystemConfig, op: OperatingPoint) -> np.ndarray:
    return tin_rates(cfg, _checked(cfg, op.powers), op.splits)


def harvested_energies(cfg: SystemConfig, op: OperatingPoint) -> EnergyVector:
    return EnergyVector(energies(cfg, _checked(cfg, op.powers), op.splits))


def _eve_covariance(cfg: SystemConfig, p: np.ndarray, users) -> np.ndarray:
    sbar = cfg.eve_noise_total
    return rank_one_update_sum(
        cfg.num_eve_antennas,
        [(p[j] / sbar, cfg.eve_channels[j]) for j in users])


def eve_sum_rate(cfg: SystemConfig, p: np.ndarray, subset) -> float:
    """Total rate the eavesdropper can extract about the users in ``subset``,
    with the complement users acting as noise.

    Equals log2_det of the all-users covariance minus log2_det of the
    complement covariance.
    """
    subset = frozenset(int(k) for k in subset)
    p = _checked(cfg, p, subset=subset)
    complement = [j for j in range(cfg.num_users) if j not in subset]
    full = _eve_covariance(cfg, p, range(cfg.num_users))
    inner = _eve_covariance(cfg, p, complement)
    return log2_det(full) - log2_det(inner)


def eve_rate_chain(cfg: SystemConfig, p: np.ndarray, order: DecodingOrder,
                   subset=None) -> np.ndarray:
    """Per-user eavesdropper rates for one chain-rule split.

    The eavesdropper decodes the subset's users successively in ``order``:
    a user decoded at position i sees the not-yet-decoded subset users and
    every out-of-subset user as noise, while already-decoded users are
    conditioned away.  Returns a length-K array; entries outside the subset
    are zero.  Summing over the subset recovers eve_sum_rate exactly.
    """
    subset = frozenset(int(k) for k in (range(cfg.num_users) if subset is None else subset))
    p = _checked(cfg, p, order, subset)
    sbar = cfg.eve_noise_total
    out = np.zeros(cfg.num_users)
    remaining = [u for u in order.users if u in subset]
    outsiders = [u for u in range(cfg.num_users) if u not in subset]
    for i, k in enumerate(remaining):
        interferers = remaining[i + 1:] + outsiders
        q = _eve_covariance(cfg, p, interferers)
        quad = inv_quadratic_form(q, cfg.eve_channels[k])
        out[k] = np.log2(1.0 + p[k] * quad / sbar)
    return out


def secrecy_corner(cfg: SystemConfig, op: OperatingPoint, order: DecodingOrder) -> np.ndarray:
    """Clamped secrecy rates [R_k - R_Ek]^+ for one decoding order."""
    rates = legitimate_rates(cfg, op)
    leak = eve_rate_chain(cfg, op.powers, order)
    return np.maximum(rates - leak, 0.0)


class SubsetCheck(NamedTuple):
    ok: bool
    worst_violation: float
    worst_subset: tuple


def subset_constraints_satisfied(cfg: SystemConfig, op: OperatingPoint,
                                 rates, tol: float = 1e-9) -> SubsetCheck:
    """Check the secrecy rates ``rates`` against every subset sum constraint.

    For each nonempty S: sum_{k in S} rates_k <= [sum_{k in S} R_k -
    eve_sum_rate(S)]^+ + tol.  Returns the worst signed violation and the
    subset attaining it.
    """
    k = cfg.num_users
    if k > 16:
        raise ConfigError([(BAD_VALUE, "num_users",
                            f"subset enumeration needs K <= 16, got {k}")])
    legit = tin_rates(cfg, _checked(cfg, op.powers, rates=rates), op.splits)
    tup = np.asarray(rates, dtype=float)
    worst, worst_s = -np.inf, ()
    for size in range(1, k + 1):
        for subset in combinations(range(k), size):
            bound = max(float(legit[list(subset)].sum())
                        - eve_sum_rate(cfg, op.powers, subset), 0.0)
            violation = float(tup[list(subset)].sum()) - bound
            if violation > worst:
                worst, worst_s = violation, subset
    return SubsetCheck(worst <= tol, worst, worst_s)
