import numpy as np
import pytest

from dmcam.device import VariationParams, conduct, sample_variation


VTH, RES = 0.5, 1e6


def test_conduct_ohmic_branch():
    assert conduct(0.7, 0.1, VTH, RES) == pytest.approx(100e-9)


def test_conduct_cutoff():
    assert conduct(0.3, 0.1, VTH, RES) == 0.0


def test_conduct_at_threshold_is_off():
    assert conduct(0.5, 0.1, VTH, RES) == 0.0


def test_double_drain_voltage_doubles_current_exactly():
    assert conduct(0.7, 0.2, VTH, RES) == 2 * conduct(0.7, 0.1, VTH, RES)


def test_saturation_caps_current():
    # vds/R would be 100 uA; the ceiling wins
    assert conduct(0.7, 0.1, VTH, 1e3) == 10e-6


def test_conduct_rejects_negative_vds():
    with pytest.raises(ValueError):
        conduct(0.7, -0.1, VTH, RES)
    with pytest.raises(ValueError):
        conduct(0.7, np.array([0.1, -0.1]), VTH, RES)


def test_default_ladder_currents_are_exact_unit_multiples():
    from dmcam.encoder import DEFAULT_LADDER

    unit = DEFAULT_LADDER.unit_current
    for multiple in range(1, 10):
        current = conduct(0.9, DEFAULT_LADDER.vds_volts(multiple), VTH, DEFAULT_LADDER.resistance)
        assert current == multiple * unit  # exact float equality


def test_conduct_monotone_in_vds():
    currents = conduct(0.9, np.linspace(0.0, 20.0, 50), VTH, RES)
    assert np.all(np.diff(currents) >= 0)


def test_conduct_piecewise_constant_in_vgs():
    below = set(conduct(np.linspace(0.0, 0.5, 20), 0.1, VTH, RES))
    above = set(conduct(np.linspace(0.51, 2.0, 20), 0.1, VTH, RES))
    assert below == {0.0}
    assert len(above) == 1


def test_variation_params_validation():
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            VariationParams(sigma_vth=bad)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            VariationParams(sigma_r_rel=bad)


LEVELS = np.array([0.3, 0.7])  # gate levels around VTH, whose gate rank is then 1


def _draw(devices, params, rng, levels=LEVELS):
    """The (rank, resistance) record of devices one-branch devices, each at nominal VTH."""
    stored = np.zeros((devices, 1), dtype=np.uint8)
    return sample_variation(stored, np.array([[VTH]]), levels, RES, params, rng)


def test_zero_sigma_returns_nominal():
    rng = np.random.default_rng(0)
    rank, res = _draw(6, VariationParams(0.0, 0.0), rng)
    assert rank.dtype == np.uint8 and rank.shape == (6, 1, 1)
    assert np.all(rank == 1) and res == RES
    # no randomness consumed
    assert rng.normal() == np.random.default_rng(0).normal()


def test_zero_sigma_vth_consumes_no_randomness():
    # The resistances start the stream, so they are the values drawn without thresholds.
    params = VariationParams(sigma_vth=0.0, sigma_r_rel=0.08)
    rank, res = _draw(3000, params, np.random.default_rng(5))
    expected = np.random.default_rng(5).standard_normal(3000) * 0.08 + 1.0
    assert np.array_equal(res.ravel(), np.maximum(expected, 0.01) * RES)
    assert np.all(rank == 1)


def test_vth_sample_std():
    # On a 1 mV grid of gate levels, a device's gate rank places its threshold
    # within 1 mV, so the ranks show the threshold's spread.
    rng = np.random.default_rng(1)
    params = VariationParams(sigma_vth=0.054, sigma_r_rel=0.0)
    levels = VTH - 0.5005 + 1e-3 * np.arange(1001)
    rank, res = _draw(100_000, params, rng, levels)
    assert rank.dtype == np.uint16 and 0 < rank.min() and rank.max() < len(levels)
    vths = levels[rank.ravel() - 1] + 0.5e-3  # the middle of each rank's 1 mV bin
    assert abs(vths.mean() - VTH) < 1e-3
    assert abs(vths.std() - 0.054) / 0.054 < 0.02
    assert res == RES


def test_resistance_sample_relative_std():
    rng = np.random.default_rng(2)
    params = VariationParams(sigma_vth=0.0, sigma_r_rel=0.08)
    rank, rs = _draw(100_000, params, rng)
    rel = rs / RES - 1.0
    assert abs(rel.std() - 0.08) / 0.08 < 0.02
    assert np.all(rank == 1)


def test_same_seed_identical_samples():
    params = VariationParams(sigma_vth=0.2, sigma_r_rel=0.08)
    a = _draw(1000, params, np.random.default_rng(7))
    b = _draw(1000, params, np.random.default_rng(7))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert np.any(a[0] != 1)


def test_resistance_clamped_positive():
    rng = np.random.default_rng(3)
    params = VariationParams(sigma_vth=0.0, sigma_r_rel=5.0)
    _, rs = _draw(2000, params, rng)
    assert np.all(rs >= 0.01 * RES)
    assert np.any(rs == 0.01 * RES)


@pytest.mark.parametrize("params, name", [
    (VariationParams(sigma_vth=1e308, sigma_r_rel=1e308), "sigma_r_rel"),
    (VariationParams(sigma_r_rel=1e308), "sigma_r_rel"),
    (VariationParams(sigma_vth=0.054, sigma_r_rel=1e305), "sigma_r_rel"),
])
def test_overflowing_sigma_names_itself(params, name):
    # 1000 draws: some |N(0, 1)| exceeds 2, and any draw beyond 1.8 overflows
    # at 1e308; a relative 1e305 overflows once scaled by RES. A threshold
    # is drawn as a gate rank, so sigma_vth = 1e308 draws without overflow.
    with pytest.raises(ValueError, match=f"{name} = .* overflows float64"):
        _draw(1000, params, np.random.default_rng(4))
    rank, _ = _draw(1000, VariationParams(params.sigma_vth), np.random.default_rng(4))
    assert set(np.unique(rank)) <= {0, 1, 2}
