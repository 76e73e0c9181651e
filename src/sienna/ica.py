"""Blind source separation with JADE: PCA whitening, fourth-order cumulant
matrices, and Jacobi joint diagonalization.

Whitening projects the observation matrix onto its leading principal
components and rescales them to unit variance. The rotation that makes the
whitened rows maximally independent is found by jointly diagonalizing the
N(N+1)/2 symmetric slices of the whitened fourth-order cumulant tensor with
Givens rotations, following Cardoso's real-signal formulation. Recovered
sources are defined up to permutation, sign, and scale; ``match_sources``
resolves all three against a reference series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.signal import filtfilt, firwin

__all__ = [
    "MatchResult",
    "SeparationResult",
    "WhiteningResult",
    "jade_separate",
    "lowpass_filter",
    "match_sources",
    "whiten",
]

# Jacobi sweeps stop once the largest Givens angle of a sweep is below
# JADE_TOL radians, or after JADE_MAX_SWEEPS sweeps.
JADE_TOL = 1e-8
JADE_MAX_SWEEPS = 100
# Breathing and heartbeat lie far below 10 Hz; the FIR has 65 taps unless
# the signal is too short for them.
LOWPASS_CUTOFF_HZ = 10.0
LOWPASS_TAPS = 65


@dataclass(frozen=True)
class WhiteningResult:
    """Whitened components (columns, unit variance) and the whitener that made them."""

    whitened: np.ndarray  # shape (T, K')
    whitener: np.ndarray  # shape (K', M), applies to mean-centered rows
    retained_components: int
    row_means: np.ndarray


@dataclass(frozen=True)
class SeparationResult:
    sources: np.ndarray  # shape (N, T), unit variance rows
    demixer: np.ndarray  # shape (N, M), applies to mean-centered observations
    rotation: np.ndarray  # orthogonal (N, N)
    iterations: int
    converged: bool
    row_means: np.ndarray
    off_diagonal_history: tuple[float, ...]


@dataclass(frozen=True)
class MatchResult:
    index: int
    sign: float
    correlation: float


def whiten(observations: np.ndarray, n_components: int) -> WhiteningResult:
    """PCA-whiten an (M, T) observation matrix down to ``n_components``."""
    X = np.asarray(observations, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("observations must be a 2-D matrix")
    m, t = X.shape
    if t <= m:
        raise ValueError(f"need more samples than channels, got {m}x{t}")
    if not 1 <= n_components <= m:
        raise ValueError(f"n_components must be in [1, {m}]")

    means = X.mean(axis=1)
    centered = X - means[:, None]
    cov = centered @ centered.T / t
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]

    floor = max(eigvals[0], 0.0) * 1e-12
    effective_rank = int(np.sum(eigvals > floor))
    if effective_rank < n_components:
        raise ValueError(
            f"rank deficiency: requested {n_components} components but the "
            f"effective rank is {effective_rank}"
        )
    lead_vals = eigvals[:n_components]
    lead_vecs = eigvecs[:, :n_components]
    whitener = lead_vecs.T / np.sqrt(lead_vals)[:, None]
    whitened = (whitener @ centered).T
    return WhiteningResult(whitened, whitener, n_components, means)


def _cumulant_matrices(Z: np.ndarray) -> np.ndarray:
    """Symmetric fourth-order cumulant slices of whitened rows Z (N, T)."""
    n, t = Z.shape
    slices = []
    eye = np.eye(n)
    for i in range(n):
        zi = Z[i]
        q = (zi * zi * Z) @ Z.T / t - eye - 2 * np.outer(eye[i], eye[i])
        slices.append(q)
        for j in range(i):
            zj = Z[j]
            q = np.sqrt(2.0) * (
                (zi * zj * Z) @ Z.T / t
                - np.outer(eye[i], eye[j])
                - np.outer(eye[j], eye[i])
            )
            slices.append(q)
    return np.stack(slices)


def _off_criterion(cm: np.ndarray) -> float:
    """Sum of squared off-diagonal entries across all cumulant slices."""
    total = float((cm**2).sum())
    diag = float(sum((np.diagonal(c) ** 2).sum() for c in cm))
    return total - diag


def jade_separate(observations: np.ndarray, n_sources: int) -> SeparationResult:
    """Recover independent non-Gaussian sources from linear mixtures.

    Returns sources equal to the true ones up to permutation, sign, and
    scale. ``converged`` is set when the largest Givens angle of a full
    sweep drops below ``JADE_TOL`` radians.
    """
    white = whiten(observations, n_sources)
    Z = white.whitened.T.copy()  # (N, T)
    n = n_sources
    cm = _cumulant_matrices(Z)
    V = np.eye(n)
    history = [_off_criterion(cm)]

    sweeps = 0
    converged = False
    while sweeps < JADE_MAX_SWEEPS:
        sweeps += 1
        largest_angle = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                g1 = cm[:, p, p] - cm[:, q, q]
                g2 = cm[:, p, q] + cm[:, q, p]
                ton = g1 @ g1 - g2 @ g2
                toff = 2.0 * (g1 @ g2)
                theta = 0.5 * np.arctan2(toff, ton + np.hypot(ton, toff))
                largest_angle = max(largest_angle, abs(theta))
                if theta != 0.0:
                    c, s = np.cos(theta), np.sin(theta)
                    G = np.array([[c, -s], [s, c]])
                    V[:, [p, q]] = V[:, [p, q]] @ G
                    cm[:, [p, q], :] = np.einsum("ab,nbt->nat", G.T, cm[:, [p, q], :])
                    cm[:, :, [p, q]] = np.einsum("nta,ab->ntb", cm[:, :, [p, q]], G)
        history.append(_off_criterion(cm))
        if largest_angle < JADE_TOL:
            converged = True
            break

    rotation = V
    demixer = rotation.T @ white.whitener
    sources = demixer @ (np.asarray(observations, dtype=np.float64) - white.row_means[:, None])

    # Deterministic ordering (most energetic mixing column first) and sign
    # convention (dominant demixer weight positive) to pin down the
    # permutation/sign ambiguity.
    mixing = np.linalg.pinv(demixer)
    order = np.argsort(-(mixing**2).sum(axis=0))
    demixer, sources = demixer[order], sources[order]
    rotation = rotation[:, order]
    signs = np.sign(demixer[np.arange(n), np.abs(demixer).argmax(axis=1)])
    signs[signs == 0] = 1.0
    demixer, sources = demixer * signs[:, None], sources * signs[:, None]
    rotation = rotation * signs[None, :]

    return SeparationResult(
        sources=sources,
        demixer=demixer,
        rotation=rotation,
        iterations=sweeps,
        converged=converged,
        row_means=white.row_means,
        off_diagonal_history=tuple(history),
    )


def match_sources(candidates: np.ndarray, reference: np.ndarray) -> MatchResult:
    """Pick the candidate row with the largest |Pearson correlation| to the
    reference and the sign that makes the correlation positive."""
    candidates = np.asarray(candidates, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64).ravel()
    if candidates.ndim != 2 or candidates.shape[1] != reference.size:
        raise ValueError("candidates and reference must share the sample count")
    ref = reference - reference.mean()
    ref_norm = np.linalg.norm(ref)
    if ref_norm == 0:
        raise ValueError("reference has zero variance")
    best: MatchResult | None = None
    for idx, row in enumerate(candidates):
        row = row - row.mean()
        norm = np.linalg.norm(row)
        if norm == 0:
            continue
        rho = float(row @ ref / (norm * ref_norm))
        if best is None or abs(rho) > best.correlation:
            best = MatchResult(idx, 1.0 if rho >= 0 else -1.0, abs(rho))
    if best is None:
        raise ValueError("all candidates have zero variance")
    return best


def lowpass_filter(signal: np.ndarray, sample_rate: float) -> np.ndarray:
    """Zero-phase FIR low-pass at ``LOWPASS_CUTOFF_HZ``; identity at or above Nyquist."""
    signal = np.asarray(signal, dtype=np.float64)
    if LOWPASS_CUTOFF_HZ >= sample_rate / 2:
        return signal
    numtaps = min(LOWPASS_TAPS, max(3, signal.shape[-1] // 4) | 1)
    return filtfilt(_fir_taps(numtaps, sample_rate), [1.0], signal, axis=-1)


@lru_cache(maxsize=64)
def _fir_taps(numtaps: int, sample_rate: float) -> np.ndarray:
    """Windowed-sinc low-pass taps, designed once per (numtaps, rate); read-only."""
    taps = firwin(numtaps, LOWPASS_CUTOFF_HZ, fs=sample_rate)
    taps.flags.writeable = False
    return taps
