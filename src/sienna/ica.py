"""Blind source separation with JADE for at most two sources: PCA whitening,
fourth-order cumulant matrices, and one closed-form Givens rotation.

Whitening projects the observation matrix onto its leading principal
components and rescales them to unit variance. The rotation that makes the
whitened rows maximally independent jointly diagonalizes the symmetric
slices of the whitened fourth-order cumulant tensor, following Cardoso's
real-signal formulation. For two sources that rotation is a single Givens
angle with a closed form (Cardoso & Souloumiac, IEE Proc. F 1993; SIAM J.
Matrix Anal. Appl. 1996), so no Jacobi sweeps are run. Recovered sources are
defined up to permutation, sign, and scale; ``match_sources`` resolves all
three against a reference series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "MAX_SOURCES",
    "MatchResult",
    "SeparationResult",
    "WhiteningResult",
    "jade_separate",
    "lowpass_filter",
    "match_sources",
    "whiten",
]

# jade_separate's one Givens angle separates a single pair of sources.
MAX_SOURCES = 2
# Breathing and heartbeat lie far below 10 Hz; the FIR has 65 taps unless
# the signal is too short for them.
LOWPASS_CUTOFF_HZ = 10.0
LOWPASS_TAPS = 65


@dataclass(frozen=True)
class WhiteningResult:
    """Whitened components (columns, unit variance) and the whitener that made them."""

    whitened: np.ndarray  # shape (T, K')
    whitener: np.ndarray  # shape (K', M), applies to mean-centered rows
    row_means: np.ndarray


@dataclass(frozen=True)
class SeparationResult:
    sources: np.ndarray  # shape (N, T), unit variance rows
    angle: float  # the Givens angle, radians; 0 for one source
    off_diagonal: tuple[float, float]  # off criterion before and after the rotation

    @property
    def iterations(self) -> int:
        """One rotation, computed in closed form."""
        return 1


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
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]

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
    return WhiteningResult(whitened, whitener, means)


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


def jade_separate(observations: np.ndarray, n_sources: int) -> SeparationResult:
    """Recover one or two independent non-Gaussian sources from linear mixtures.

    Returns sources equal to the true ones up to permutation, sign, and
    scale. For two sources the rotation is the Givens angle that minimizes
    the off criterion, the sum of squared off-diagonal entries of the three
    cumulant slices; ``off_diagonal`` holds that sum before and after it.
    """
    if not 1 <= n_sources <= MAX_SOURCES:
        raise ValueError(f"n_sources must be in [1, {MAX_SOURCES}], got {n_sources}")
    n = n_sources
    white = whiten(observations, n)
    theta, off = 0.0, (0.0, 0.0)
    if n == 2:
        cm = _cumulant_matrices(white.whitened.T)
        g1 = cm[:, 0, 0] - cm[:, 1, 1]
        g2 = cm[:, 0, 1] + cm[:, 1, 0]
        ton = g1 @ g1 - g2 @ g2
        toff = 2.0 * (g1 @ g2)
        theta = 0.5 * np.arctan2(toff, ton + np.hypot(ton, toff))
        rotated = g2 * np.cos(2 * theta) - g1 * np.sin(2 * theta)
        off = (0.5 * float(g2 @ g2), 0.5 * float(rotated @ rotated))
    c, s = np.cos(theta), np.sin(theta)
    rotation = np.array([[c, -s], [s, c]])[:n, :n]
    demixer = rotation.T @ white.whitener
    sources = demixer @ (np.asarray(observations, dtype=np.float64) - white.row_means[:, None])

    # The sources come out in a fixed order, the most energetic mixing
    # column first, with no sort. The demixer is R^T L^(-1/2) E^T, with
    # orthonormal E and the whitening variances L = diag(l_0, l_1) in
    # descending order, so the mixing matrix (its pseudo-inverse) is
    # E L^(1/2) R and column k has energy r_k^T L r_k. For the rotation by
    # theta, column 0 exceeds column 1 by (c^2 - s^2)(l_0 - l_1) =
    # cos(2 theta)(l_0 - l_1), which is never negative: theta lies in
    # [-pi/4, pi/4], arctan2 of a non-negative second argument halved. That
    # holds however many channels E spans, and one source needs no order.
    # The sign convention (dominant demixer weight positive) pins down the
    # sign ambiguity. No sign is zero: the whitener's rows are orthonormal
    # eigenvectors scaled by 1/sqrt(l_k) with l_k > 0, and R^T is
    # orthogonal, so no demixer row is zero and its largest entry is not.
    signs = np.sign(demixer[np.arange(n), np.abs(demixer).argmax(axis=1)])
    sources = sources * signs[:, None]

    return SeparationResult(sources=sources, angle=float(theta), off_diagonal=off)


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
    """Zero-phase FIR low-pass at ``LOWPASS_CUTOFF_HZ``; identity at or above Nyquist.

    The same numbers as ``scipy.signal.filtfilt(taps, [1.0], signal)``: each
    row is extended by an odd reflection of ``3 * numtaps`` samples at both
    ends, convolved with the taps forward and then backward, and trimmed.
    filtfilt's initial-condition terms only reach outputs inside the trimmed
    pad, so plain convolutions give its output bit for bit.

    Only the outputs that survive the trim are computed. With k = numtaps - 1,
    the kept outputs of the backward pass read forward outputs padlen through
    the k-th past the pad's far edge, and those read the extended row from k
    before the pad's near edge on. Each pass is a ``valid`` convolution over
    exactly that span, and the backward one yields the row itself. numpy
    computes every full-overlap output as the same (k + 1)-term dot product in
    ``valid`` as in ``full`` mode, so the trimmed passes give the same bits.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if LOWPASS_CUTOFF_HZ >= sample_rate / 2:
        return signal
    n = signal.shape[-1]
    numtaps = min(LOWPASS_TAPS, max(3, n // 4) | 1)
    padlen = 3 * numtaps
    if n <= padlen:
        raise ValueError(f"signal of {n} samples is too short for a pad of {padlen}")
    taps = _fir_taps(numtaps, sample_rate)
    rows = signal.reshape(-1, n)
    out = np.empty_like(rows)
    k = numtaps - 1
    for x, y in zip(rows, out):
        ext = np.concatenate(
            (2 * x[0] - x[padlen:0:-1], x, 2 * x[-1] - x[-2 : -padlen - 2 : -1])
        )
        forward = np.convolve(ext[padlen - k : ext.size - padlen + k], taps, "valid")
        y[:] = np.convolve(forward[::-1], taps, "valid")[::-1]
    return out.reshape(signal.shape)


@lru_cache(maxsize=64)
def _fir_taps(numtaps: int, sample_rate: float) -> np.ndarray:
    """Hamming-windowed sinc low-pass taps with unit DC gain, designed once per
    (numtaps, rate); read-only.

    Bit for bit what ``scipy.signal.firwin(numtaps, LOWPASS_CUTOFF_HZ,
    fs=sample_rate)`` returns, window coefficient ``1.0 - 0.54`` included.
    """
    c = LOWPASS_CUTOFF_HZ / (0.5 * sample_rate)
    m = np.arange(numtaps, dtype=np.float64) - 0.5 * (numtaps - 1)
    window = 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, numtaps))
    taps = c * np.sinc(c * m) * window
    taps /= taps.sum()
    taps.flags.writeable = False
    return taps
