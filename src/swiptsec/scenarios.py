"""Canonical problem instances: the symmetric two-user benchmarks and seeded
random instances used by the verification battery."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .model import (EnergyModel, SystemConfig, max_deliverable_energy,
                    validate_config)

# Symmetric two-user benchmark: unit direct gains, all noise variances 0.25,
# unit power budgets, eavesdropper channel norms 0.5.
_NOISE_VAR = 0.25
_EVE_NORM = 0.5


def _eve_vectors(geometry: str) -> np.ndarray:
    if geometry == "orthogonal":
        return np.array([[_EVE_NORM, 0.0], [0.0, _EVE_NORM]], dtype=complex)
    if geometry == "parallel":
        return np.array([[_EVE_NORM, 0.0], [_EVE_NORM, 0.0]], dtype=complex)
    raise ValueError(f"unknown eavesdropper geometry {geometry!r}")


def symmetric_two_user(cross_amp: float, eh_demands=(0.0, 0.0),
                       eve_geometry: str = "orthogonal",
                       energy_model: EnergyModel = EnergyModel.REFORMULATED) -> SystemConfig:
    """Symmetric K=M=2 instance with |h_kk| = 1 and |h_kj| = cross_amp.

    The published boundaries fix only the eavesdropper channel norms, not
    their directions; ``eve_geometry`` records the assumption in use.
    Orthogonal vectors make both decoding orders coincide, parallel vectors
    maximally separate them.
    """
    gains = np.array([[1.0, cross_amp], [cross_amp, 1.0]], dtype=complex)
    cfg = SystemConfig(
        num_users=2,
        num_eve_antennas=2,
        gains=gains,
        eve_channels=_eve_vectors(eve_geometry),
        antenna_noise_vars=np.full(2, _NOISE_VAR),
        processing_noise_vars=np.full(2, _NOISE_VAR),
        eve_antenna_noise_var=_NOISE_VAR,
        eve_processing_noise_var=_NOISE_VAR,
        power_budget=np.ones(2),
        eh_demands=np.asarray(eh_demands, dtype=float),
        energy_model=energy_model,
    )
    return validate_config(cfg)


def weak_interference(eh_demands=(0.0, 0.0), eve_geometry="orthogonal",
                      energy_model=EnergyModel.REFORMULATED) -> SystemConfig:
    """Weak-interference benchmark: cross amplitudes 0.5."""
    return symmetric_two_user(0.5, eh_demands, eve_geometry, energy_model)


def strong_interference(eh_demands=(0.0, 0.0), eve_geometry="orthogonal",
                        energy_model=EnergyModel.REFORMULATED) -> SystemConfig:
    """Strong-interference benchmark: cross amplitudes 1.0."""
    return symmetric_two_user(1.0, eh_demands, eve_geometry, energy_model)


def random_config(rng: np.random.Generator, num_users: int = 2,
                  num_eve_antennas: int = 2, eh_fraction: float = 0.0,
                  energy_model: EnergyModel = EnergyModel.REFORMULATED) -> SystemConfig:
    """Draw a well-conditioned random instance.

    Direct gains have magnitude near one, cross gains are weaker, and all
    phases are uniform.  When eh_fraction > 0, demands are that fraction of
    each user's maximum deliverable energy, so the instance stays feasible.
    """
    k, m = num_users, num_eve_antennas

    def _phases(*shape):
        return np.exp(2j * np.pi * rng.random(shape))

    gains = rng.uniform(0.2, 0.8, (k, k)) * _phases(k, k)
    diag = rng.uniform(0.7, 1.3, k) * _phases(k)
    gains[np.diag_indices(k)] = diag
    eve = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
    eve *= (rng.uniform(0.3, 0.7, k) / np.linalg.norm(eve, axis=1))[:, None]
    cfg = SystemConfig(
        num_users=k,
        num_eve_antennas=m,
        gains=gains,
        eve_channels=eve,
        antenna_noise_vars=rng.uniform(0.1, 0.5, k),
        processing_noise_vars=rng.uniform(0.1, 0.5, k),
        eve_antenna_noise_var=rng.uniform(0.1, 0.5),
        eve_processing_noise_var=rng.uniform(0.1, 0.5),
        power_budget=rng.uniform(0.5, 2.0, k),
        eh_demands=np.zeros(k),
        energy_model=energy_model,
    )
    if eh_fraction > 0:
        cfg = replace(cfg, eh_demands=eh_fraction * max_deliverable_energy(cfg))
    return validate_config(cfg)
