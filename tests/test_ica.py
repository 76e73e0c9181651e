"""Whitening and JADE separation against known mixtures."""

import numpy as np
import pytest

from sienna.breathing import linear_demodulate, sample_profile, synth_displacement
from sienna.ica import (
    LOWPASS_TAPS,
    _cumulant_matrices,
    _fir_taps,
    jade_separate,
    lowpass_filter,
    match_sources,
    whiten,
)
from sienna.protocol import observe_scene, two_subject_scene


def sine_sawtooth(t_samples=6000, rate=100.0, seed=0):
    t = np.arange(t_samples) / rate
    sine = np.sin(2 * np.pi * 0.7 * t)
    saw = 2 * ((1.3 * t) % 1.0) - 1.0
    return np.stack([sine, saw])


def test_whiten_unit_covariance():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(3, 5000)) * np.array([[3.0], [1.0], [0.2]])
    res = whiten(X, 3)
    cov = res.whitened.T @ res.whitened / res.whitened.shape[0]
    assert np.allclose(cov, np.eye(3), atol=1e-8)


def test_whiten_already_white_input():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(2, 20000))
    res = whiten(X, 2)
    cov = res.whitened.T @ res.whitened / res.whitened.shape[0]
    assert np.allclose(cov, np.eye(2), atol=1e-8)
    # whitener times its own mixing inverse is orthogonal when X was white
    prod = res.whitener @ res.whitener.T
    assert np.allclose(prod, np.diag(np.diag(prod)), atol=0.05)


def test_whiten_diagonal_scaling():
    rng = np.random.default_rng(2)
    base = rng.normal(size=(2, 100000))
    X = np.diag([4.0, 1.0]) @ base
    res = whiten(X, 2)
    # B must invert the covariance: rows scale like (1/4, 1) up to rotation
    scales = np.sort(np.abs(res.whitener).max(axis=1))
    assert scales[0] == pytest.approx(0.25, rel=0.05)
    assert scales[1] == pytest.approx(1.0, rel=0.05)


def test_whiten_preconditions():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        whiten(rng.normal(size=(5, 4)), 2)  # T <= M
    X = np.vstack([rng.normal(size=(1, 100))] * 2)  # rank 1
    with pytest.raises(ValueError, match="rank"):
        whiten(X, 2)


def test_jade_identity_single_source():
    X = sine_sawtooth()[:1]
    res = jade_separate(np.vstack([X, np.flipud(X) * 0 + np.random.default_rng(4).normal(0, 1e-3, X.shape)]), 1)
    match = match_sources(res.sources, X[0])
    assert match.correlation >= 0.999


def test_jade_orthogonal_mixture_recovery():
    S = sine_sawtooth()
    angle = 0.6
    W = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    res = jade_separate(W @ S, 2)
    assert np.allclose(np.cov(res.sources, bias=True), np.eye(2), atol=1e-12)
    for row in S:
        match = match_sources(res.sources, row)
        assert match.correlation >= 0.99


def test_jade_general_mixture_and_reconstruction_identity():
    S = sine_sawtooth()
    W = np.array([[1.0, 0.55], [0.4, 1.0]])
    X = W @ S
    res = jade_separate(X, 2)
    centered = X - X.mean(axis=1, keepdims=True)
    demixer = np.linalg.lstsq(centered.T, res.sources.T, rcond=None)[0].T
    assert np.allclose(res.sources, demixer @ centered, atol=1e-9)
    assert np.allclose(np.cov(res.sources, bias=True), np.eye(2), atol=1e-12)
    for row in S:
        assert match_sources(res.sources, row).correlation >= 0.99


def _radar_mixture(seed):
    """The demodulated, low-passed radar channels ``PrmsDevice.prepare`` separates."""
    _, iqs = observe_scene(two_subject_scene(seed))
    return lowpass_filter(np.stack([linear_demodulate(iq) for iq in iqs]), iqs[0].sample_rate)


def _slices(X):
    return _cumulant_matrices(whiten(X, 2).whitened.T)


def _off(cm):
    return float((cm**2).sum() - (np.diagonal(cm, axis1=1, axis2=2) ** 2).sum())


def _givens(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


@pytest.mark.parametrize("seed", [None, 3, 11])
def test_jade_off_diagonal_is_that_of_the_rotated_slices(seed):
    """``off_diagonal`` is the off criterion of the cumulant slices before and
    after the rotation by ``angle``, which lowers it."""
    W = np.array([[1.0, 0.7], [0.2, 1.0]])
    X = W @ sine_sawtooth() if seed is None else _radar_mixture(seed)
    res = jade_separate(X, 2)
    cm = _slices(X)
    G = _givens(res.angle)
    before, after = res.off_diagonal
    assert before == pytest.approx(_off(cm), rel=1e-9)
    assert after == pytest.approx(_off(G.T @ cm @ G), rel=1e-9)
    assert after < before


@pytest.mark.parametrize("seed", range(1, 21))
def test_jade_angle_is_stationary(seed):
    """A second Givens angle computed on the rotated slices vanishes: one
    closed-form rotation is all a sweep loop would apply."""
    X = _radar_mixture(seed)
    G = _givens(jade_separate(X, 2).angle)
    cm = G.T @ _slices(X) @ G
    g1 = cm[:, 0, 0] - cm[:, 1, 1]
    g2 = cm[:, 0, 1] + cm[:, 1, 0]
    ton, toff = g1 @ g1 - g2 @ g2, 2.0 * (g1 @ g2)
    assert abs(0.5 * np.arctan2(toff, ton + np.hypot(ton, toff))) < 1e-12


@pytest.mark.parametrize("n_sources", [0, 3])
def test_jade_rejects_source_counts_other_than_one_or_two(n_sources):
    X = np.random.default_rng(8).normal(size=(3, 500))
    with pytest.raises(ValueError, match="n_sources"):
        jade_separate(X, n_sources)


def test_jade_gaussian_sources_documented_failure():
    """Two Gaussian sources: rotation unidentifiable, correlation unconstrained."""
    rng = np.random.default_rng(5)
    S = rng.normal(size=(2, 8000))
    W = np.array([[1.0, 0.5], [0.3, 1.0]])
    res = jade_separate(W @ S, 2)
    # must not crash; the angle is arbitrary, the sources remain unit variance
    assert np.allclose(res.sources.var(axis=1), 1.0, atol=1e-6)


def test_jade_equivariance_to_channel_scaling():
    S = sine_sawtooth()
    W = np.array([[1.0, 0.5], [0.3, 1.0]])
    X = W @ S
    res1 = jade_separate(X, 2)
    X2 = X.copy()
    X2[0] *= 7.5
    res2 = jade_separate(X2, 2)
    for row in S:
        c1 = match_sources(res1.sources, row).correlation
        c2 = match_sources(res2.sources, row).correlation
        assert abs(c1 - c2) < 1e-6


def test_jade_on_breathing_scene():
    subjects = (sample_profile(101, 0.005), sample_profile(202, 0.005))
    sources = np.stack([synth_displacement(p, 0.0, 60.0, 10.0).samples for p in subjects])
    noise = np.random.default_rng(7).normal(0.0, 0.01, size=sources.shape)
    mixed = np.array([[1.0, 0.6], [0.45, 1.0]]) @ sources + noise
    res = jade_separate(mixed, 2)
    for row in sources:
        assert match_sources(res.sources, row).correlation >= 0.95


def test_match_sources_verbatim_and_negated():
    rng = np.random.default_rng(6)
    ref = rng.normal(size=500)
    cands = np.stack([rng.normal(size=500), ref, -ref + 1.0])
    direct = match_sources(cands[:2], ref)
    assert direct.index == 1 and direct.sign == 1.0
    assert direct.correlation == pytest.approx(1.0)
    negated = match_sources(np.stack([cands[0], cands[2]]), ref)
    assert negated.index == 1 and negated.sign == -1.0
    assert negated.correlation == pytest.approx(1.0)


def test_match_sources_zero_variance():
    with pytest.raises(ValueError):
        match_sources(np.zeros((2, 100)), np.ones(100))
    with pytest.raises(ValueError):
        match_sources(np.random.default_rng(0).normal(size=(2, 100)), np.ones(100))


def test_lowpass_identity_below_nyquist():
    rng = np.random.default_rng(8)
    x = rng.normal(size=600)
    assert np.array_equal(lowpass_filter(x, sample_rate=10.0), x)


def test_lowpass_removes_high_frequency():
    t = np.arange(6000) / 100.0
    slow = np.sin(2 * np.pi * 0.3 * t)
    fast = 0.5 * np.sin(2 * np.pi * 30.0 * t)
    filtered = lowpass_filter(slow + fast, sample_rate=100.0)
    assert np.sqrt(np.mean((filtered - slow) ** 2)) < 0.02


def test_lowpass_taps_designed_once_and_read_only():
    taps = _fir_taps(65, 50.0)
    assert _fir_taps(65, 50.0) is taps
    with pytest.raises(ValueError):
        taps[0] = 1.0


def _full_length_lowpass(x, rate):
    """The filter as two full-length convolutions of the padded row, trimmed after both."""
    numtaps = min(LOWPASS_TAPS, max(3, x.shape[-1] // 4) | 1)
    padlen = 3 * numtaps
    taps = _fir_taps(numtaps, rate)
    rows = []
    for row in x.reshape(-1, x.shape[-1]):
        ext = np.concatenate(
            (2 * row[0] - row[padlen:0:-1], row, 2 * row[-1] - row[-2 : -padlen - 2 : -1])
        )
        forward = np.convolve(ext, taps)[: ext.size]
        backward = np.convolve(forward[::-1], taps)[: ext.size][::-1]
        rows.append(backward[padlen:-padlen])
    return np.array(rows).reshape(x.shape)


@pytest.mark.parametrize(
    "n, rate",
    # 10 is one past the 3-tap filter's pad; below 260 samples the taps shrink
    # to n // 4 (odd); 260 is the first length with all 65.
    [(10, 50.0), (11, 50.0), (40, 50.0), (101, 50.0), (196, 50.0), (259, 50.0), (260, 50.0)]
    + [(350, 50.0), (650, 50.0), (700, 100.0), (6100, 100.0)],
)
def test_lowpass_equals_the_full_length_convolutions(n, rate):
    """Computing only the outputs the trim keeps changes no bit."""
    rng = np.random.default_rng(n)
    for shape in ((n,), (2, n), (3, n)):
        x = rng.normal(size=shape).cumsum(axis=-1)
        assert np.array_equal(lowpass_filter(x, rate), _full_length_lowpass(x, rate))


def _pinv_ordered_sources(X, result):
    """jade_separate's sources rebuilt with the mixing matrix as ``pinv(demixer)``,
    its columns ordered by energy, most energetic first."""
    n = result.sources.shape[0]
    white = whiten(X, n)
    c, s = np.cos(result.angle), np.sin(result.angle)
    demixer = np.array([[c, -s], [s, c]])[:n, :n].T @ white.whitener
    sources = demixer @ (X - white.row_means[:, None])
    order = np.argsort(-(np.linalg.pinv(demixer) ** 2).sum(axis=0))
    demixer, sources = demixer[order], sources[order]
    signs = np.sign(demixer[np.arange(n), np.abs(demixer).argmax(axis=1)])
    signs[signs == 0] = 1.0
    return sources * signs[:, None], order


def test_jade_order_equals_the_pseudo_inverse_column_energies():
    """Sorting by pinv's column energies never moves a source: the whitened
    order with a rotation of at most pi/4 already puts the most energetic
    mixing column first, and the sources equal the sorted ones bit for bit."""
    rng = np.random.default_rng(30)
    t = np.arange(400) / 50.0
    orders = set()
    for trial in range(320):
        m, n = (2, 3)[trial % 2], 1 if trial % 5 == 0 else 2
        f = rng.uniform(0.1, 0.6, size=2)
        S = np.stack([np.sin(2 * np.pi * f[0] * t), 2 * ((f[1] * t) % 1.0) - 1.0])
        S = S[:n] * rng.uniform(0.2, 3.0, size=(n, 1))
        X = rng.normal(size=(m, n)) @ S + 0.01 * rng.normal(size=(m, t.size))
        result = jade_separate(X, n)
        expected, order = _pinv_ordered_sources(X, result)
        orders.add(tuple(order))
        assert np.array_equal(result.sources, expected), trial
    assert orders == {(0,), (0, 1)}
