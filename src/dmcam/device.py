"""Behavioral single-branch conduction model with device-to-device variation.

A branch is one FeFET in series with a resistor. Above threshold the series
resistor linearizes the on-current to vds/R (capped by the saturation
current); below threshold the branch is treated as fully off. Multi-level
behavior comes entirely from the stored threshold voltage, the applied gate
voltage and the drain multiple.

Both the conduction law and the variation sampler take scalars or numpy
arrays and broadcast, so the crossbar evaluates and perturbs whole arrays of
branches through them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_ISAT = 10e-6  # far above any unit-current multiple in use
MIN_RESISTANCE_FACTOR = 0.01


@dataclass(frozen=True)
class VariationParams:
    """Gaussian device-to-device spread and the seed of its sampling stream."""

    sigma_vth: float = 0.0
    sigma_r_rel: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sigma_vth < 0 or self.sigma_r_rel < 0:
            raise ValueError("sigmas must be nonnegative")


def conduct(vgs, vds, vth, resistance, isat: float = DEFAULT_ISAT) -> np.ndarray:
    """Branch current: ohmic vds/R capped at saturation when on, else 0.

    The switch at vth is hard; subthreshold leakage is not modeled.
    """
    if np.any(np.asarray(vds) < 0):
        raise ValueError("vds must be nonnegative")
    return np.where(vgs > vth, np.minimum(isat, vds / resistance), 0.0)


def sample_variation(
    vth, resistance, params: VariationParams, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw perturbed thresholds and resistances for the devices of vth.

    Threshold shifts by N(0, sigma_vth); resistance scales by 1 + N(0,
    sigma_r_rel), clamped to 1% of nominal so it stays physical. Every
    threshold is drawn before any resistance. A zero sigma consumes no
    randomness and returns that input unchanged, so a nominal scalar
    resistance stays a scalar.
    """
    shape = np.shape(vth)
    if params.sigma_vth > 0:
        vth = vth + rng.normal(0.0, params.sigma_vth, shape)
    if params.sigma_r_rel > 0:
        factor = 1.0 + rng.normal(0.0, params.sigma_r_rel, shape)
        resistance = resistance * np.clip(factor, MIN_RESISTANCE_FACTOR, None)
    return vth, resistance
