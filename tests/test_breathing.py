"""Signal models: envelopes, determinism, demodulation round trips."""

import dataclasses
import math

import numpy as np
import pytest

from sienna.breathing import (
    DisplacementSeries,
    SubjectProfile,
    arctan_demodulate,
    belt_observe,
    linear_demodulate,
    radar_observe,
    sample_profile,
    synth_displacement,
)


def test_flat_profile_gives_zero_series():
    profile = SubjectProfile(resp_amp=0.0, heart_amp=0.0, drift_std=0.0)
    series = synth_displacement(profile, 0, 10, 10)
    assert not series.samples.any()


def test_default_profile_envelope_and_length():
    series = synth_displacement(SubjectProfile(resp_amp=0.5, heart_amp=0.05), 0, 60, 10)
    assert series.samples.size == 600
    assert np.max(np.abs(series.samples)) <= 0.55


def test_envelope_with_drift():
    p = sample_profile(3, drift_std=0.02)
    series = synth_displacement(p, 0, 120, 10)
    bound = p.resp_amp + p.heart_amp + 4 * p.drift_std
    assert np.max(np.abs(series.samples)) <= bound


def test_seed_changes_series_but_not_period():
    p1 = SubjectProfile(resp_rate=12, drift_std=0.02, seed=1)
    p2 = SubjectProfile(resp_rate=12, drift_std=0.02, seed=2)
    s1 = synth_displacement(p1, 0, 60, 10).samples
    s2 = synth_displacement(p2, 0, 60, 10).samples
    assert not np.array_equal(s1, s2)
    # fundamental peak must sit in the same FFT bin for both seeds
    def peak_bin(x):
        spectrum = np.abs(np.fft.rfft(x - x.mean()))
        return int(np.argmax(spectrum))
    assert peak_bin(s1) == peak_bin(s2)


def test_determinism_per_seed():
    p = sample_profile(7, drift_std=0.015)
    a = synth_displacement(p, 0, 30, 10).samples
    b = synth_displacement(p, 0, 30, 10).samples
    assert np.array_equal(a, b)


def test_profile_validation():
    with pytest.raises(ValueError):
        SubjectProfile(resp_rate=0)
    with pytest.raises(ValueError):
        SubjectProfile(resp_amp=0.6)
    with pytest.raises(ValueError):
        SubjectProfile(heart_amp=0.06)
    with pytest.raises(ValueError):
        SubjectProfile(inhale_fraction=1.0)
    with pytest.raises(ValueError):
        synth_displacement(SubjectProfile(), 0, 10, -5)
    with pytest.raises(ValueError):
        synth_displacement(SubjectProfile(), 10, 10, 10)


def test_radar_constant_displacement():
    still = DisplacementSeries(np.zeros(100), 10.0)
    iq = radar_observe(still, theta0=0.7, a_i=1.3, a_q=0.9)
    assert np.allclose(iq.i_channel, 1.3 * np.cos(0.7))
    assert np.allclose(iq.q_channel, 0.9 * np.sin(0.7))


def test_radar_eighth_wavelength_quarter_turn():
    lam = 1.07
    still = DisplacementSeries(np.zeros(10), 10.0)
    shifted = DisplacementSeries(np.full(10, lam / 8), 10.0)
    theta_ref = np.arctan2(radar_observe(still, lam).q_channel, radar_observe(still, lam).i_channel)
    theta_up = np.arctan2(
        radar_observe(shifted, lam).q_channel, radar_observe(shifted, lam).i_channel
    )
    assert np.allclose((theta_up - theta_ref) % (2 * np.pi), np.pi / 2)


def test_arctan_round_trip_noiseless():
    profile = SubjectProfile(resp_amp=0.5, heart_amp=0.05, seed=5)
    x = synth_displacement(profile, 0, 60, 10)
    recovered = arctan_demodulate(radar_observe(x, a_i=1.4, a_q=0.8, theta0=1.1))
    err = recovered.samples - (x.samples - x.samples.mean())
    assert np.max(np.abs(err)) < 1e-6


def test_arctan_phase_excursion_magnitude():
    lam = 1.07
    profile = SubjectProfile(resp_amp=0.5, heart_amp=0.0, seed=2)
    x = synth_displacement(profile, 0, 60, 10)
    iq = radar_observe(x, wavelength=lam)
    theta = np.unwrap(np.arctan2(iq.q_channel, iq.i_channel))
    measured = theta.max() - theta.min()
    expected = 4 * np.pi * (x.samples.max() - x.samples.min()) / lam
    assert abs(measured - expected) < 1e-6


def test_arctan_with_phase_noise_still_correlates():
    profile = SubjectProfile(resp_amp=0.4, seed=3)
    x = synth_displacement(profile, 0, 60, 10)
    recovered = arctan_demodulate(radar_observe(x, phase_noise_std=0.01, seed=11))
    rho = np.corrcoef(recovered.samples, x.samples)[0, 1]
    assert rho >= 0.99


def test_arctan_requires_gains():
    iq = radar_observe(DisplacementSeries(np.zeros(5), 10.0))
    broken = type(iq)(
        i_channel=iq.i_channel, q_channel=iq.q_channel, sample_rate=10.0, a_i=0.0
    )
    with pytest.raises(ValueError):
        arctan_demodulate(broken)


def test_linear_demodulate_single_tone():
    # small displacement keeps the arc in the linear regime
    t = np.arange(600) / 10
    x = DisplacementSeries(0.01 * np.sin(2 * np.pi * 0.2 * t), 10.0)
    out = linear_demodulate(radar_observe(x, theta0=0.5))
    rho = abs(np.corrcoef(out, x.samples)[0, 1])
    assert rho > 0.9999


def test_linear_demodulate_noise_eigenvalue():
    rng = np.random.default_rng(4)
    iq = radar_observe(DisplacementSeries(np.zeros(20000), 10.0))
    noisy = type(iq)(
        i_channel=iq.i_channel + rng.normal(0, 0.1, 20000),
        q_channel=iq.q_channel + rng.normal(0, 0.1, 20000),
        sample_rate=10.0,
    )
    out = linear_demodulate(noisy)
    assert out.var() == pytest.approx(0.01, rel=0.1)


def test_linear_demodulate_degenerate_input():
    iq = radar_observe(DisplacementSeries(np.zeros(50), 10.0))
    with pytest.raises(ValueError, match="channel"):
        linear_demodulate(iq)


def test_linear_demodulate_needs_only_one_varying_channel():
    iq = radar_observe(DisplacementSeries(np.zeros(50), 10.0))
    q = 0.01 * np.sin(2 * np.pi * 0.2 * np.arange(50) / 10)
    out = linear_demodulate(type(iq)(i_channel=iq.i_channel, q_channel=q, sample_rate=10.0))
    np.testing.assert_allclose(out, q - q.mean(), rtol=0, atol=1e-15)


def test_belt_gain_and_resampling():
    x = synth_displacement(SubjectProfile(seed=8), 0, 10, 10)
    belt = belt_observe(x, gain=2.0, noise_std=0.0, sample_rate=100.0)
    assert belt.samples.size == 1000
    assert belt.sample_rate == 100.0
    ref = belt_observe(x, gain=1.0, noise_std=0.0, sample_rate=100.0)
    assert np.allclose(belt.samples, 2.0 * ref.samples)


def test_belt_noise_correlation():
    x = synth_displacement(SubjectProfile(resp_amp=0.4, seed=9), 0, 60, 100)
    belt = belt_observe(x, gain=1.0, noise_std=0.01, sample_rate=100.0, seed=21)
    rho = np.corrcoef(belt.samples, x.samples)[0, 1]
    assert rho >= 0.99


def test_window_outside_series_rejected():
    x = synth_displacement(SubjectProfile(), 0, 10, 10)
    with pytest.raises(ValueError):
        x.value_at(np.array([9.0, 10.5]))


@pytest.mark.parametrize("rate,t_start", [(10.0, 0.0), (50.0, 2.0), (7.3, -1.1)])
def test_value_at_matches_np_interp_bit_for_bit(rate, t_start):
    rng = np.random.default_rng(int(rate))
    stacked = DisplacementSeries(rng.normal(0, 0.3, size=(3, 400)), rate, t_start)
    times, eps = stacked.times, 0.49 / rate
    instants = np.concatenate([
        rng.uniform(t_start, times[-1], 500),  # inside intervals
        times[rng.integers(0, times.size, 50)],  # on sample instants
        [t_start - eps, t_start, times[-1], times[-1] + eps],  # both ends
        t_start + 0.35 + np.arange(60) * 0.1,  # a quantizer grid
    ])
    got = stacked.value_at(instants)
    assert got.shape == (3, instants.size)
    for row, out in zip(stacked.samples, got):
        ref = np.interp(instants, times, row)
        assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
        single = DisplacementSeries(row, rate, t_start).value_at(instants)
        assert np.array_equal(single.view(np.uint64), ref.view(np.uint64))


def test_value_at_of_a_one_sample_series():
    x = DisplacementSeries(np.array([[0.25], [-0.5]]), 10.0)
    assert np.array_equal(x.value_at(np.array([0.0, 0.04])), [[0.25, 0.25], [-0.5, -0.5]])


def test_stacked_series_slice_and_span():
    x = DisplacementSeries(np.arange(20.0).reshape(2, 10), 10.0, 1.0)
    assert x.t_end == 2.0 and x.times.size == 10
    cut = x.slice(1.2, 1.5)
    assert np.array_equal(cut.samples, [[2, 3, 4, 5], [12, 13, 14, 15]])
    with pytest.raises(ValueError):
        DisplacementSeries(np.zeros((2, 2, 2)), 10.0)


@pytest.mark.parametrize(
    "duration, t0, t1",
    [(10.0, -61.0, -60.0), (10.0, -0.05, 1.0), (61.0, 60.5, 70.0), (10.0, 2.0, 1.0), (10.0, -1.0, 0.5)],
)
def test_slice_rejects_a_window_outside_the_series(duration, t0, t1):
    truth = synth_displacement(sample_profile(4), 0.0, duration, 100.0)
    iq = radar_observe(truth)
    for observation in (truth, iq):
        with pytest.raises(ValueError):
            observation.slice(t0, t1)
    # Half a sample beyond either end is still inside, as for value_at.
    end = truth.times[-1]
    assert truth.slice(-0.004, end + 0.004).samples.size == truth.samples.size
    assert iq.slice(-0.004, end + 0.004).i_channel.size == iq.i_channel.size


@pytest.mark.parametrize("t0, t1", [(0.0, 6.0), (12.3, 30.05), (29.0, 90.0)])
def test_slice_keeps_the_inclusive_end_sample(t0, t1):
    def cut(samples, rate, start):  # reference: the inclusive cut `slice` must keep
        return samples[int(round((t0 - start) * rate)) : int(round((t1 - start) * rate)) + 1]

    truth = synth_displacement(sample_profile(4), 0.0, 91.0, 50.0)
    series = belt_observe(truth, noise_std=0.01, sample_rate=100.0, seed=1)
    part = series.slice(t0, t1)
    assert part.t_start == t0 and part.sample_rate == series.sample_rate
    assert np.array_equal(part.samples, cut(series.samples, 100.0, 0.0))

    iq = radar_observe(truth, theta0=0.7, a_i=1.1, a_q=0.9, phase_noise_std=0.01, seed=2)
    iq_part = iq.slice(t0, t1)
    assert np.array_equal(iq_part.i_channel, cut(iq.i_channel, 50.0, 0.0))
    assert np.array_equal(iq_part.q_channel, cut(iq.q_channel, 50.0, 0.0))
    assert iq_part.t_start == t0
    for name in ("sample_rate", "wavelength", "a_i", "a_q"):
        assert getattr(iq_part, name) == getattr(iq, name)


def test_replaced_series_interpolate_at_their_own_time_base():
    x = DisplacementSeries(np.arange(10.0), 10.0, 0.0)
    np.testing.assert_array_equal(x.value_at(np.array([0.0, 0.5])), [0.0, 5.0])
    shifted = dataclasses.replace(x, t_start=2.0)
    np.testing.assert_array_equal(shifted.times, 2.0 + np.arange(10) / 10.0)
    np.testing.assert_array_equal(shifted.value_at(np.array([2.0, 2.5])), [0.0, 5.0])
    with pytest.raises(ValueError):
        shifted.value_at(np.array([0.5]))
    np.testing.assert_array_equal(x.value_at(np.array([0.0, 0.5])), [0.0, 5.0])


def test_a_series_time_base_is_computed_once_and_read_only():
    x = DisplacementSeries(np.arange(10.0), 10.0, 1.0)
    assert x.times is x.times
    with pytest.raises(ValueError):
        x.times[0] = 0.0
    np.testing.assert_array_equal(x.value_at(np.array([1.0])), [0.0])


@pytest.mark.parametrize(
    "field, value",
    [("sample_rate", math.nan), ("sample_rate", math.inf), ("sample_rate", 0.0),
     ("sample_rate", -10.0), ("wavelength", math.inf), ("wavelength", math.nan),
     ("wavelength", 0.0), ("wavelength", -1.07)],
)
def test_radar_iq_rejects_a_rate_or_wavelength_that_is_not_finite_and_positive(field, value):
    iq = radar_observe(synth_displacement(SubjectProfile(), 0, 2, 10))
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(iq, **{field: value})


@pytest.mark.parametrize("field", ["i_channel", "q_channel"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_radar_iq_rejects_non_finite_samples(field, bad):
    iq = radar_observe(synth_displacement(SubjectProfile(), 0, 2, 10))
    samples = getattr(iq, field).copy()
    samples[3] = bad
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(iq, **{field: samples})


@pytest.mark.parametrize("rate", [math.nan, math.inf])
def test_displacement_series_rejects_a_non_finite_sample_rate(rate):
    with pytest.raises(ValueError, match="sample_rate"):
        DisplacementSeries(np.zeros(4), rate)
