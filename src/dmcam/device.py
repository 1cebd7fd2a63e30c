"""Behavioral single-branch conduction model with device-to-device variation.

A branch is one FeFET in series with a resistor. Above threshold the series
resistor linearizes the on-current to vds/R (capped by the saturation
current); below threshold the branch is treated as fully off. Multi-level
behavior comes entirely from the stored threshold voltage, the applied gate
voltage and the drain multiple.

Both the conduction law and the variation sampler take scalars or numpy
arrays and broadcast, so the crossbar evaluates and perturbs whole arrays of
branches through them; given out= buffers, they compute in place and
allocate no arrays of that size.
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


def conduct(vgs, vds, vth, resistance, out=None) -> np.ndarray:
    """Branch current: ohmic vds/R capped at DEFAULT_ISAT when on, else 0.

    The switch at vth is hard; subthreshold leakage is not modeled. out is
    an optional (current, on) pair of float64 and bool arrays of the
    broadcast shape; the current and the on-mask are computed in them, and
    the current buffer is returned.
    """
    if np.any(np.asarray(vds) < 0):
        raise ValueError("vds must be nonnegative")
    if out is None:
        shape = np.broadcast_shapes(*map(np.shape, (vgs, vds, vth, resistance)))
        out = np.empty(shape), np.empty(shape, dtype=bool)
    current, on = out
    np.greater(vgs, vth, out=on)
    np.divide(vds, resistance, out=current)
    np.minimum(current, DEFAULT_ISAT, out=current)
    return np.multiply(current, on, out=current)


def _scaled_normal(rng: np.random.Generator, sigma: float, shape, buf) -> np.ndarray:
    """sigma * N(0, 1) over shape, drawn into buf when one is given."""
    z = rng.standard_normal(shape) if buf is None else rng.standard_normal(out=buf)
    z *= sigma
    return z


def sample_variation(
    vth, resistance, params: VariationParams, rng: np.random.Generator, out=None
) -> tuple[np.ndarray, np.ndarray]:
    """Draw perturbed thresholds and resistances for the devices of vth.

    Threshold shifts by N(0, sigma_vth); resistance scales by 1 + N(0,
    sigma_r_rel), clamped to 1% of nominal so it stays physical. Every
    threshold is drawn before any resistance. A zero sigma consumes no
    randomness and returns that input unchanged, so a nominal scalar
    resistance stays a scalar. out is an optional (vth, resistance) pair of
    float64 arrays of vth's shape that the draws are written into.
    """
    shape = np.shape(vth)
    vth_buf, res_buf = (None, None) if out is None else out
    if params.sigma_vth > 0:
        shift = _scaled_normal(rng, params.sigma_vth, shape, vth_buf)
        vth = np.add(shift, vth, out=shift)
    if params.sigma_r_rel > 0:
        factor = _scaled_normal(rng, params.sigma_r_rel, shape, res_buf)
        factor += 1.0
        np.maximum(factor, MIN_RESISTANCE_FACTOR, out=factor)
        resistance = np.multiply(factor, resistance, out=factor)
    return vth, resistance
