"""Level-crossing quantizer and fingerprint plumbing."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sienna.breathing import (
    DisplacementSeries,
    SubjectProfile,
    arctan_demodulate,
    belt_observe,
    radar_observe,
    synth_displacement,
)
from sienna.fingerprint import (
    NORMALIZED_STD,
    SAMPLE_INTERVAL_S,
    THRESHOLDS,
    extract,
    hamming_similarity,
    normalize_series,
    qtz,
    skew,
)
from sienna.protocol import PipelineConfig, PrmsDevice, observe_scene, two_subject_scene


def test_qtz_piecewise_definition():
    assert qtz(0.7, 0.5, -0.5) == (1, 0)
    assert qtz(-0.6, 0.5, -0.5) == (0, 1)
    assert qtz(0.0, 0.5, -0.5) == (0, 0)
    # boundaries are inclusive
    assert qtz(0.5, 0.5, -0.5) == (1, 0)
    assert qtz(-0.5, 0.5, -0.5) == (0, 1)
    with pytest.raises(ValueError):
        qtz(0.0, -0.5, 0.5)


def test_code_11_never_emitted():
    rng = np.random.default_rng(0)
    series = DisplacementSeries(rng.normal(0, 0.3, size=601), 10.0)
    fp = extract(series, 0.0, 60.0)
    pairs = fp.reshape(-1, 2)
    assert not np.any((pairs[:, 0] == 1) & (pairs[:, 1] == 1))


def test_extract_single_branch_example():
    """Samples beyond every threshold pair read the same in each branch."""
    series = DisplacementSeries(np.array([0.7, 0.0, -0.6]), 10.0)
    fp = extract(series, 0.0, 0.2)
    for branch in fp.reshape(THRESHOLDS.size, -1):
        assert list(branch) == [1, 0, 0, 0, 0, 1]


def test_extract_zero_signal_all_zero():
    series = DisplacementSeries(np.zeros(601), 10.0)
    fp = extract(series, 0.0, 60.0)
    assert not fp.any()
    assert fp.size == 10 * 2 * 601


def test_extract_bit_count_default_bank():
    profile = SubjectProfile(resp_amp=0.5, seed=1)
    series = synth_displacement(profile, 0, 61, 10)
    fp = extract(series, 0.0, 60.0)
    assert fp.size == 10 * 2 * 601


@pytest.mark.parametrize("t_str, t_end, instants", [(0.0, 0.3, 4), (33.6, 81.6, 481)])
def test_extract_counts_the_last_instant_of_the_window(t_str, t_end, instants):
    """Both lengths divide by T to just below a whole count; the second is
    the 48 s fingerprint-similarity window at offset 33.6 s."""
    series = DisplacementSeries(np.zeros(1000), 10.0)
    assert extract(series, t_str, t_end).size == THRESHOLDS.size * 2 * instants


def test_extract_window_outside_series():
    series = DisplacementSeries(np.zeros(100), 10.0)
    with pytest.raises(ValueError):
        extract(series, 5.0, 20.0)


def test_extract_branch_major_order():
    series = DisplacementSeries(np.array([0.32, -0.32]), 10.0)
    fp = extract(series, 0.0, 0.1)
    # branches at 0.05..0.30: 10 01 ; branches at 0.35..0.50: 00 00
    assert list(fp) == [1, 0, 0, 1] * 6 + [0, 0, 0, 0] * 4


def test_scale_covariance():
    """A sensor's gain cancels in normalization: the fingerprint does not move.

    Power-of-two gains scale every intermediate float exactly, so the bits
    must match exactly.
    """
    rng = np.random.default_rng(2)
    series = DisplacementSeries(rng.normal(0.3, 0.2, size=201), 10.0)
    fp = extract(normalize_series(series), 0, 20)
    for gain in (4.0, 0.125):
        scaled = normalize_series(DisplacementSeries(series.samples * gain, 10.0))
        assert np.array_equal(extract(scaled, 0, 20), fp)


def test_threshold_ladder_constants():
    assert THRESHOLDS.shape == (10,)
    assert THRESHOLDS[0] == 0.05 and THRESHOLDS[-1] == 0.5
    assert np.all(np.diff(THRESHOLDS) > 0)
    # Exactly 0.05 * b for b = 1..10: pinned keys depend on these floats bit for bit.
    assert THRESHOLDS.tolist() == [0.05 * (i + 1) for i in range(10)]
    assert SAMPLE_INTERVAL_S == 0.1


@pytest.mark.parametrize(
    "window_ms, codewords", [(10_000, 1), (10_100, 1), (10_200, 2), (60_000, 6)]
)
def test_derive_fingerprints_xors_the_zero_padded_codewords(window_ms, codewords):
    """10 s of the bank is 2020 bits, one padded codeword; 10.1 s is exactly
    one (2040 bits), 10.2 s spills into a second, and 60 s spans six."""
    _, prms_obs = observe_scene(two_subject_scene(1))
    device = PrmsDevice(prms_obs, PipelineConfig())
    n = device.config.rs_spec.codeword_bits
    bits = extract(device.candidates, 0.0, window_ms / 1000)
    padded = np.pad(bits, ((0, 0), (0, codewords * n - bits.shape[1])))
    folded = np.array(device.derive_fingerprints((0, window_ms)))
    assert folded.shape == (len(bits), n)
    for row, fingerprint in zip(padded, folded):
        codeword_rows = row.reshape(codewords, n)
        assert np.array_equal(fingerprint, np.bitwise_xor.reduce(codeword_rows, axis=0))
    if codewords == 1:
        assert np.array_equal(folded[:, : bits.shape[1]], bits)
        assert not folded[:, bits.shape[1] :].any()


def test_hamming_similarity_examples():
    a = np.array([1, 0, 1, 0], dtype=np.uint8)
    assert hamming_similarity(a, a) == 1.0
    assert hamming_similarity(a, 1 - a) == 0.0
    assert hamming_similarity(a, np.array([1, 0, 0, 1], dtype=np.uint8)) == 0.5
    with pytest.raises(ValueError):
        hamming_similarity(a, a[:3])


def test_normalize_series():
    rng = np.random.default_rng(5)
    series = DisplacementSeries(rng.normal(3.0, 2.0, size=1000), 10.0)
    norm = normalize_series(series)
    assert norm.samples.mean() == pytest.approx(0.0, abs=1e-12)
    assert norm.samples.std() == pytest.approx(NORMALIZED_STD, rel=1e-9)
    with pytest.raises(ValueError):
        normalize_series(DisplacementSeries(np.ones(10), 10.0))


def test_cross_modality_same_subject_similarity():
    """Belt and noiseless demodulated radar views of one subject agree."""
    profile = SubjectProfile(resp_amp=0.45, heart_amp=0.03, seed=11)
    truth = synth_displacement(profile, 0, 61, 100)
    belt = normalize_series(belt_observe(truth, gain=1.7, noise_std=0.0))
    radar_truth = synth_displacement(profile, 0, 61, 10)
    radar = normalize_series(arctan_demodulate(radar_observe(radar_truth)))
    fp_belt = extract(belt, 0, 60)
    fp_radar = extract(radar, 0, 60)
    assert hamming_similarity(fp_belt, fp_radar) >= 0.95


# -- stacked series: one call over every row, the single series as C = 1 ----


def _stacked_breathing(n_series=5, seconds=30.0, rate=50.0):
    profiles = [SubjectProfile(resp_rate=10.0 + 2 * i, seed=i) for i in range(n_series)]
    rows = [synth_displacement(p, 0, seconds, rate).samples for p in profiles]
    return DisplacementSeries(np.stack(rows), rate)


@lru_cache(maxsize=None)
def _normalized_stack():
    return normalize_series(_stacked_breathing())


@pytest.mark.parametrize("shape", [(3000,), (6, 2500), (1, 7)])
def test_skew_matches_scipy(shape):
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(21)
    x = rng.gamma(2.0, size=shape) * rng.choice([-1.0, 1.0], size=shape[:-1] + (1,)) + 3.0
    ours, ref = skew(x), stats.skew(x, axis=-1)
    assert np.shape(ours) == np.shape(ref)
    np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=0)
    assert np.array_equal(np.sign(ours), np.sign(ref))


def test_skew_sign_on_breathing_rows_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    series = normalize_series(_stacked_breathing())
    flipped = series.samples * np.array([1, -1, 1, -1, -1])[:, None]
    for x in (series.samples, flipped):
        assert np.array_equal(np.sign(skew(x)), np.sign(stats.skew(x, axis=-1)))
        for row in x:
            assert np.sign(skew(row)) == np.sign(stats.skew(row))


def test_skew_of_a_constant_series_is_nan():
    assert np.isnan(skew(np.full(10, 2.5)))
    assert np.isnan(skew(np.ones((2, 10)))).all()


def test_stacked_normalize_equals_each_row_normalized():
    stacked = _stacked_breathing()
    norm = normalize_series(stacked)
    for row, out in zip(stacked.samples, norm.samples):
        assert np.array_equal(out, normalize_series(DisplacementSeries(row, 50.0)).samples)
    with pytest.raises(ValueError):
        normalize_series(DisplacementSeries(np.stack([stacked.samples[0], np.ones(1500)]), 50.0))


@pytest.mark.parametrize("window", [(0.0, 29.0), (0.35, 7.3), (12.0, 12.05)])
def test_stacked_extract_equals_stack_of_single_extracts(window):
    stacked = normalize_series(_stacked_breathing())
    fp = extract(stacked, *window)
    singles = [extract(DisplacementSeries(row, 50.0), *window) for row in stacked.samples]
    assert fp.shape == (5, singles[0].size)
    assert np.array_equal(fp, np.stack(singles))


class _Recording:
    """A series that records the instants each ``value_at`` call asks for."""

    def __init__(self, series):
        self.series, self.calls = series, []

    def value_at(self, instants):
        self.calls.append(instants)
        return self.series.value_at(instants)


@settings(max_examples=60, deadline=None)
@given(
    starts=st.lists(st.integers(0, 199), min_size=1, max_size=6),
    length=st.integers(1, 100),
    stacked=st.booleans(),
)
def test_extract_over_windows_equals_one_extract_per_window(starts, length, stacked):
    """k windows of one length on the 0.1 s grid give, row by row, the k
    windows' own extracts, from the same instants bit for bit."""
    series = _normalized_stack()
    if not stacked:
        series = DisplacementSeries(series.samples[2], series.sample_rate)
    series = _Recording(series)
    t_str = np.array(starts) / 10
    t_end = (np.array(starts) + length) / 10
    fp = extract(series, t_str, t_end)
    (batched,) = series.calls
    assert fp.dtype == np.uint8
    series.calls.clear()
    singles = [extract(series, float(a), float(b)) for a, b in zip(t_str, t_end)]
    assert np.array_equal(fp, np.stack(singles))
    assert np.array_equal(batched, np.concatenate(series.calls))


@settings(max_examples=30, deadline=None)
@given(starts=st.lists(st.integers(0, 199), min_size=2, max_size=6), data=st.data())
def test_extract_over_windows_of_unequal_sample_counts_raises(starts, data):
    lengths = data.draw(st.lists(st.integers(1, 99), min_size=len(starts), max_size=len(starts)))
    if len(set(lengths)) == 1:
        lengths[-1] += 1
    with pytest.raises(ValueError, match="equal sample counts"):
        extract(_normalized_stack(), np.array(starts) / 10, (np.array(starts) + lengths) / 10)


def test_extract_matches_per_branch_qtz():
    """Branch-major layout: branch b, sample i holds qtz(x_i, q+_b, q-_b)."""
    rng = np.random.default_rng(8)
    series = DisplacementSeries(rng.normal(0, 0.3, size=61), 10.0)
    fp = extract(series, 0.0, 6.0)
    for b, q in enumerate(THRESHOLDS):
        expected = [qtz(x, q, -q) for x in series.samples]
        assert np.array_equal(fp.reshape(THRESHOLDS.size, -1, 2)[b], np.array(expected))


def _two_compare_extract(series, t_str, t_end):
    """The quantizer as two comparisons stacked on the last axis, then cast."""
    n_samples = int(np.floor((t_end - t_str) / SAMPLE_INTERVAL_S + 1e-9)) + 1
    instants = t_str + np.arange(n_samples) * SAMPLE_INTERVAL_S
    values = series.value_at(instants)[..., None, :]
    uppers = THRESHOLDS[:, None]
    codes = np.stack([values >= uppers, values <= -uppers], axis=-1)
    return codes.reshape(*values.shape[:-2], -1).astype(np.uint8)


class _Held:
    """Given values at the instants, whatever they are: thresholds stay exact."""

    def __init__(self, values):
        self.values = values

    def value_at(self, instants):
        return self.values[..., : instants.size]


@pytest.mark.parametrize("window", [(0.0, d) for d in (6.0, 12.0, 24.0, 48.0, 60.0)] + [(10.0, 20.0)])
def test_extract_equals_the_two_compare_stack(window):
    """One comparison of each value and its negation gives the two-compare bits."""
    rng = np.random.default_rng(int(window[1]))
    samples = rng.normal(0, 0.25, size=(14, 3051))
    held = samples[:, :601].copy()
    held[:, ::3] = rng.choice(np.concatenate([THRESHOLDS, -THRESHOLDS, [0.0]]), size=(14, 201))
    for rows in (slice(None), 5):
        for series in (DisplacementSeries(samples[rows], 50.0), _Held(held[rows])):
            fp = extract(series, *window)
            assert fp.dtype == np.uint8
            assert np.array_equal(fp, _two_compare_extract(series, *window))


def test_normalize_and_skew_equal_the_numpy_moment_formulas():
    """Centring once gives np.std's bits, and m3 from d * d gives (d * d * d)'s."""
    rng = np.random.default_rng(300)
    for trial in range(300):
        shape = ((1, 2, 14)[trial % 3], int(rng.integers(2, 3000)))
        x = rng.gamma(2.0, size=shape) * rng.uniform(0.01, 100.0) + rng.normal(0, 50.0)
        centred = x - x.mean(axis=-1, keepdims=True)
        expected = centred * (NORMALIZED_STD / x.std(axis=-1, keepdims=True))
        assert np.array_equal(normalize_series(DisplacementSeries(x, 50.0)).samples, expected)
        m3 = (centred * centred * centred).mean(axis=-1)
        assert np.array_equal(skew(x), m3 / (centred * centred).mean(axis=-1) ** 1.5)
