"""Whitening and JADE separation against known mixtures."""

import numpy as np
import pytest
from scipy.signal import filtfilt, firwin

from sienna.breathing import Scene, mix_scene, sample_profile
from sienna.ica import _fir_taps, jade_separate, lowpass_filter, match_sources, whiten


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
    assert res.converged
    assert np.allclose(res.rotation.T @ res.rotation, np.eye(2), atol=1e-6)
    for row in S:
        match = match_sources(res.sources, row)
        assert match.correlation >= 0.99


def test_jade_general_mixture_and_reconstruction_identity():
    S = sine_sawtooth()
    W = np.array([[1.0, 0.55], [0.4, 1.0]])
    X = W @ S
    res = jade_separate(X, 2)
    centered = X - X.mean(axis=1, keepdims=True)
    assert np.allclose(res.sources, res.demixer @ centered, atol=1e-9)
    for row in S:
        assert match_sources(res.sources, row).correlation >= 0.99


def test_jade_off_diagonal_monotone():
    S = sine_sawtooth()
    W = np.array([[1.0, 0.7], [0.2, 1.0]])
    res = jade_separate(W @ S, 2)
    hist = np.array(res.off_diagonal_history)
    assert np.all(np.diff(hist) <= 1e-9)


def test_jade_gaussian_sources_documented_failure():
    """Two Gaussian sources: rotation unidentifiable, correlation unconstrained."""
    rng = np.random.default_rng(5)
    S = rng.normal(size=(2, 8000))
    W = np.array([[1.0, 0.5], [0.3, 1.0]])
    res = jade_separate(W @ S, 2)
    # must not crash; convergence flag may be either value, sources remain
    # unit variance
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
    scene = Scene(
        subjects=(sample_profile(101, 0.005), sample_profile(202, 0.005)),
        mixing=np.array([[1.0, 0.6], [0.45, 1.0]]),
        noise_std=0.01,
        duration=60.0,
        sample_rate=10.0,
        seed=7,
    )
    mixed, sources = mix_scene(scene)
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
    assert np.array_equal(taps, firwin(65, 10.0, fs=50.0))
    with pytest.raises(ValueError):
        taps[0] = 1.0
    x = np.random.default_rng(3).normal(size=(2, 3000))
    expected = filtfilt(firwin(65, 10.0, fs=50.0), [1.0], x, axis=-1)
    assert np.array_equal(lowpass_filter(x, 50.0), expected)
