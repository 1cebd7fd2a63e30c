"""Behavioral single-branch conduction model with device-to-device variation.

A branch is one FeFET in series with a resistor. Above threshold the series
resistor linearizes the on-current to vds/R (capped by the saturation
current); below threshold the branch is treated as fully off. Multi-level
behavior comes entirely from the stored threshold voltage, the applied gate
voltage and the drain multiple.

Sensing only asks which of an encoding's gate levels a threshold lies
below, so a varied device is recorded as its gate rank, the number of gate
levels at or below its threshold (`gate_ranks`), plus its resistance. A gate
at level j (0-based, sorted) is on exactly when j + 1, its own gate rank,
exceeds the device's rank, so `conduct` takes gate ranks against device
ranks as it takes volts against volts. `sample_variation` draws that record
for N(nominal V_th, sigma_vth) thresholds by thinning: every device starts
at its nominal rank, and only the few that leave it are drawn. The
conduction law takes scalars or numpy arrays and broadcasts; given an out=
pair, it computes in place and allocates no array of that size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_ISAT = 10e-6  # far above any unit-current multiple in use
MIN_RESISTANCE_FACTOR = 0.01
DEVICE_BLOCK = 2**17  # values a block: resistance and projection draws, sensing, quantile fits


@dataclass(frozen=True)
class VariationParams:
    """Gaussian device-to-device spread and the seed of its sampling stream.

    Crossbar(..., variation=params) draws what a redraw from default_rng(seed) draws.
    """

    sigma_vth: float = 0.0
    sigma_r_rel: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not all(math.isfinite(s) and s >= 0 for s in (self.sigma_vth, self.sigma_r_rel)):
            raise ValueError("sigmas must be finite and nonnegative")


def conduct(vgs, vds, vth, resistance, out=None) -> np.ndarray:
    """Branch current: ohmic vds/R capped at DEFAULT_ISAT when vgs > vth, else 0.

    vgs and vth are volts, or gate ranks (`gate_ranks`) of the gate level
    and of the threshold. The switch at vth is hard; subthreshold leakage
    is not modeled. out is an optional (current, on) pair of float64 and
    bool arrays of the broadcast shape; the current and the on-mask are
    computed in them, and the current buffer is returned.
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


def gate_ranks(volts, levels: np.ndarray) -> np.ndarray:
    """How many of the sorted gate levels lie at or below each voltage.

    The dtype is the narrowest unsigned one that holds len(levels), so a
    rank never wraps. A gate level's own rank is its 1-based position.
    """
    return np.searchsorted(levels, volts, side="right").astype(np.min_scalar_type(len(levels)))


def _leave_law(vth, levels: np.ndarray, sigma: float) -> np.ndarray:
    """cum[c, g]: the chance that N(vth[c], sigma) leaves its nominal gate rank for one <= g.

    Rank g means levels[g - 1] <= V_th < levels[g], so below the nominal
    rank cum is the lower tail at levels[g], and above it the lower tail
    at the nominal rank's own lower edge plus the upper tails between; each
    tail comes from math.erfc directly. cum[c, -1] is the chance that a
    device of class c leaves its nominal rank.
    """
    cum = np.empty((len(vth), len(levels) + 1))
    edges = levels.tolist()
    for c, mu in enumerate(np.asarray(vth, dtype=float).tolist()):
        nominal = int(gate_ranks(mu, levels))
        below = [0.5 * math.erfc((mu - edge) / sigma / math.sqrt(2)) for edge in edges[:nominal]]
        above = [0.5 * math.erfc((edge - mu) / sigma / math.sqrt(2)) for edge in edges[nominal:]]
        above.append(0.0)  # no threshold reaches past the top level's infinite upper edge
        down = below[-1] if below else 0.0
        cum[c] = below + [down + above[0] - tail for tail in above]
    return cum


def _move_ranks(rank: np.ndarray, stored: np.ndarray, cum: np.ndarray,
                rng: np.random.Generator) -> None:
    """Move the devices that leave their nominal rank, drawn by thinning.

    Each device is a candidate with the largest leave chance q_max: a
    binomial count of distinct positions. One uniform x in [0, q_max) per
    candidate keeps it when x < q_c, its class's leave chance, and then,
    being uniform on [0, q_c), picks its new rank from cum[c].
    """
    k = rank.shape[-1]
    leave = cum[:, -1]
    q_max = min(1.0, float(leave.max()))
    count = rng.binomial(rank.size, q_max)
    if count == 0:
        return
    position = rng.choice(rank.size, count, replace=False, shuffle=False)
    x = rng.random(count) * q_max
    cls = np.take(stored, position // k).astype(np.intp) * k + position % k
    keep = x < leave[cls]
    position, cls, x = position[keep], cls[keep], x[keep]
    moved = np.zeros(len(x), dtype=rank.dtype)
    for column in cum.T:
        moved += column[cls] <= x
    rank.reshape(-1)[position] = moved


def sample_variation(stored, vth, levels: np.ndarray, resistance: float,
                     params: VariationParams, rng: np.random.Generator, out=(None, None)):
    """Draw the (gate rank, resistance) record of every device that holds stored.

    stored is a (rows, dims) array of checked symbols; vth[t] holds the
    nominal thresholds of symbol t's k branches; levels are the sorted
    distinct gate levels. Every device starts at its nominal gate rank;
    while sigma_vth > 0 the devices that leave it are then drawn
    (`_move_ranks`), under the law of a N(0, sigma_vth) threshold shift
    per device. Resistances follow, DEVICE_BLOCK devices at a time: R
    times 1 + N(0, sigma_r_rel), clamped to 1% of R. A zero sigma
    consumes no randomness; at sigma_r_rel = 0 the resistance stays the
    scalar R.
    out is a (rank, res) pair of (rows, dims, k) buffers to fill, either
    None to allocate; rank must have gate_ranks's dtype. A sigma_r_rel
    whose draws overflow float64 raises ValueError naming it.
    """
    rank, res = out
    nominal = gate_ranks(vth, levels)
    if rank is None:
        rank = np.empty(np.shape(stored) + nominal.shape[1:], dtype=nominal.dtype)
    # The symbols are checked, so mode="clip" clips nothing; it lets take fill out unbuffered.
    np.take(nominal, stored, axis=0, out=rank, mode="clip")
    if params.sigma_vth > 0:
        _move_ranks(rank, stored, _leave_law(np.ravel(vth), levels, params.sigma_vth), rng)
    if params.sigma_r_rel == 0:
        return rank, resistance
    res = np.empty(rank.shape) if res is None else res
    flat = res.reshape(-1)
    try:
        with np.errstate(over="raise"):
            for start in range(0, flat.size, DEVICE_BLOCK):  # a block stays in cache
                factor = rng.standard_normal(out=flat[start:start + DEVICE_BLOCK])
                factor *= params.sigma_r_rel
                factor += 1.0
                np.maximum(factor, MIN_RESISTANCE_FACTOR, out=factor)
                factor *= resistance
    except FloatingPointError:
        raise ValueError(f"sigma_r_rel = {params.sigma_r_rel:g} overflows float64 "
                         "in the drawn devices") from None
    return rank, res
