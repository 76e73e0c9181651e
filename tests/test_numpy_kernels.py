"""The numpy kernels that stand in for scipy give scipy's numbers.

``ica`` designs its FIR taps and runs its zero-phase filter in numpy,
``channel`` computes kurtosis and the D'Agostino-Pearson test in closed
form, and ``bench`` ranks for Spearman's correlation. Each is compared
here with the scipy routine it replaces or matches: the filter bit for bit,
the statistics to 1e-12 relative.
"""

import math

import numpy as np
import pytest

scipy = pytest.importorskip("scipy")
from scipy import stats  # noqa: E402
from scipy.signal import filtfilt, firwin  # noqa: E402

from sienna.bench import _spearman  # noqa: E402
from sienna.channel import QamSpec, _normality, ofdm_gaussianity_demo, qam_modulate  # noqa: E402
from sienna.ica import LOWPASS_CUTOFF_HZ, LOWPASS_TAPS, _fir_taps, lowpass_filter  # noqa: E402


@pytest.mark.parametrize("rate", [50.0, 100.0])
def test_fir_taps_equal_firwin_bit_for_bit(rate):
    for numtaps in range(3, 66, 2):
        expected = firwin(numtaps, LOWPASS_CUTOFF_HZ, fs=rate)
        assert np.array_equal(_fir_taps(numtaps, rate), expected), numtaps


def _filtfilt_reference(x, rate):
    numtaps = min(LOWPASS_TAPS, max(3, x.shape[-1] // 4) | 1)
    return filtfilt(firwin(numtaps, LOWPASS_CUTOFF_HZ, fs=rate), [1.0], x, axis=-1)


@pytest.mark.parametrize(
    "shape, rate",
    [((2, 3050), 50.0), ((6100,), 100.0), ((14, 3050), 50.0), ((3, 400), 50.0), ((40,), 50.0)],
    ids=["radar-mixture", "belt-series", "candidates", "short-rows", "shrunk-taps"],
)
def test_lowpass_equals_filtfilt_bit_for_bit(shape, rate):
    x = np.random.default_rng(sum(shape)).normal(size=shape).cumsum(axis=-1)
    out = lowpass_filter(x, rate)
    assert out.shape == x.shape
    assert np.array_equal(out, _filtfilt_reference(x, rate))


def test_lowpass_rejects_signal_no_longer_than_its_pad():
    # Nine samples shrink the FIR to 3 taps, so the odd pad would be 9 long.
    with pytest.raises(ValueError):
        filtfilt(firwin(3, LOWPASS_CUTOFF_HZ, fs=50.0), [1.0], np.ones(9))
    with pytest.raises(ValueError):
        lowpass_filter(np.ones(9), 50.0)
    assert lowpass_filter(np.ones(10), 50.0).shape == (10,)


def _ofdm_samples(n_subcarriers, qam, trials, seed):
    """The demo's time-domain samples, drawn the way the demo draws them."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=trials * n_subcarriers * qam.bits_per_symbol, dtype=np.uint8)
    loads = qam_modulate(bits, qam).reshape(trials, n_subcarriers)
    time_domain = np.fft.ifft(loads, axis=1) * math.sqrt(n_subcarriers)
    return np.concatenate([time_domain.real.ravel(), time_domain.imag.ravel()])


@pytest.mark.parametrize(
    "n_subcarriers, qam, trials, seed",
    [(1, QamSpec(4), 4000, 1), (1024, QamSpec(16), 10, 2), (1024, QamSpec(16), 20, 4)],
)
def test_ofdm_statistics_match_scipy(n_subcarriers, qam, trials, seed):
    report = ofdm_gaussianity_demo(n_subcarriers, qam, trials=trials, seed=seed)
    samples = _ofdm_samples(n_subcarriers, qam, trials, seed)
    stat, p_value = stats.normaltest(samples)
    assert _normality(samples)[0] == pytest.approx(stat, rel=1e-12)
    assert report.p_value == pytest.approx(p_value, rel=1e-12, abs=1e-300)
    assert report.excess_kurtosis == pytest.approx(stats.kurtosis(samples), rel=1e-12)


@pytest.mark.parametrize("levels", [3, 10, 1000])
def test_spearman_matches_scipy(levels):
    """Few levels force ties, which both sides rank by their mean rank."""
    rng = np.random.default_rng(levels)
    for size in (5, 28, 200):
        x, y = rng.integers(0, levels, size=(2, size))
        expected = stats.spearmanr(x, y).statistic
        assert math.isclose(_spearman(x, y), expected, rel_tol=1e-12, abs_tol=1e-15)
