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
    with pytest.raises(ValueError):
        VariationParams(sigma_vth=-0.1)
    with pytest.raises(ValueError):
        VariationParams(sigma_r_rel=-0.1)


def test_zero_sigma_returns_nominal():
    rng = np.random.default_rng(0)
    nominal = np.full((3, 2), VTH)
    vth, res = sample_variation(nominal, RES, VariationParams(0.0, 0.0), rng)
    assert vth is nominal and res == RES
    # no randomness consumed
    assert rng.normal() == np.random.default_rng(0).normal()


def test_vth_sample_std():
    rng = np.random.default_rng(1)
    params = VariationParams(sigma_vth=0.054, sigma_r_rel=0.0)
    vths, res = sample_variation(np.full(100_000, VTH), RES, params, rng)
    assert abs(vths.std() - 0.054) / 0.054 < 0.02
    assert res == RES


def test_resistance_sample_relative_std():
    rng = np.random.default_rng(2)
    params = VariationParams(sigma_vth=0.0, sigma_r_rel=0.08)
    vths, rs = sample_variation(np.full(100_000, VTH), RES, params, rng)
    rel = rs / RES - 1.0
    assert abs(rel.std() - 0.08) / 0.08 < 0.02
    assert np.all(vths == VTH)


def test_same_seed_identical_samples():
    params = VariationParams(sigma_vth=0.054, sigma_r_rel=0.08)
    a = sample_variation(np.full(4, VTH), RES, params, np.random.default_rng(7))
    b = sample_variation(np.full(4, VTH), RES, params, np.random.default_rng(7))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_resistance_clamped_positive():
    rng = np.random.default_rng(3)
    params = VariationParams(sigma_vth=0.0, sigma_r_rel=5.0)
    _, rs = sample_variation(np.full(2000, VTH), RES, params, rng)
    assert np.all(rs >= 0.01 * RES)
    assert np.any(rs == 0.01 * RES)
