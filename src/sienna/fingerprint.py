"""Level-crossing quantization of breathing series into binary fingerprints.

Each quantizer branch compares a sample against a threshold pair and emits
two bits: ``10`` at or above the upper threshold, ``01`` at or below the
lower one, ``00`` in between (``11`` never occurs). A bank of branches at
nested threshold pairs is applied to the same window and the per-branch
streams are concatenated branch-major.

Working units: series from different modalities are rescaled so one
standard deviation equals ``NORMALIZED_STD`` before quantization, which
makes the default centimeter-shaped threshold ladder meaningful for belt
data and variance-normalized ICA outputs alike, and makes the whole
pipeline insensitive to per-modality gain.

``normalize_series``, ``skew`` and ``extract`` act on the last (time) axis,
so a stack of C candidate series on one time base is normalized, measured
and quantized in one call; a single series is the same code with no
leading axis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bits import as_bits
from .breathing import DisplacementSeries

__all__ = [
    "QuantizerBank",
    "default_bank",
    "extract",
    "hamming_similarity",
    "normalize_series",
    "qtz",
    "segment_pad",
    "skew",
]

# Working amplitude unit: observations are rescaled to this standard
# deviation before quantization. At 0.20 a typical resting breath swings
# across most of the ten-step 0.05 ladder, which keeps the upper branches
# discriminative between subjects while the same subject's two modality
# views still quantize almost identically.
NORMALIZED_STD = 0.20


@dataclass(frozen=True)
class QuantizerBank:
    """Threshold pairs (upper, lower), sampling interval, branch count."""

    levels: tuple[tuple[float, float], ...]
    sample_interval: float = 0.1  # seconds between quantizer samples

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple((float(a), float(b)) for a, b in self.levels))
        if not self.levels:
            raise ValueError("bank needs at least one threshold pair")
        if self.sample_interval <= 0:
            raise ValueError("sample interval must be positive")
        uppers = [a for a, _ in self.levels]
        lowers = [b for _, b in self.levels]
        for a, b in self.levels:
            if a <= b:
                raise ValueError(f"upper threshold {a} must exceed lower {b}")
        if sorted(set(uppers)) != uppers or sorted(set(lowers), reverse=True) != lowers:
            raise ValueError("threshold pairs must be sorted and non-overlapping")

    @property
    def count(self) -> int:
        return len(self.levels)


def default_bank(
    step: float = 0.05, count: int = 10, sample_interval: float = 0.1
) -> QuantizerBank:
    """Symmetric ladder at +/-(step, 2*step, ..., count*step)."""
    levels = tuple((step * (i + 1), -step * (i + 1)) for i in range(count))
    return QuantizerBank(levels=levels, sample_interval=sample_interval)


def _bit_rows(values) -> np.ndarray:
    """Bit strings along the last axis, one per leading index."""
    arr = np.asarray(values, dtype=np.uint8)
    if arr.ndim == 0:
        raise ValueError("bit strings need at least one axis")
    if arr.max(initial=0) > 1:
        raise ValueError("bit strings may only contain 0 and 1")
    return arr


def qtz(x: float, q_plus: float, q_minus: float) -> tuple[int, int]:
    """Two-bit level-crossing code; thresholds are boundary-inclusive."""
    if q_plus <= q_minus:
        raise ValueError("upper threshold must exceed lower threshold")
    if x >= q_plus:
        return (1, 0)
    if x <= q_minus:
        return (0, 1)
    return (0, 0)


def extract(
    series: DisplacementSeries, t_str: float, t_end: float, bank: QuantizerBank
) -> np.ndarray:
    """Quantize a window at instants t_str + j*T, final floor instant included.

    Returns uint8 bits of shape (..., branches * samples * 2), branch-major.
    Every series of a stack is quantized by one comparison against the
    bank's upper and lower threshold vectors; row c of the result is the
    fingerprint of series c.
    """
    if t_end <= t_str:
        raise ValueError("window must have positive length")
    T = bank.sample_interval
    n_samples = int(np.floor((t_end - t_str) / T)) + 1
    instants = t_str + np.arange(n_samples) * T
    values = series.value_at(instants)[..., None, :]  # (..., 1, samples)

    uppers, lowers = np.array(bank.levels).T[:, :, None]  # (branches, 1) each
    codes = np.stack([values >= uppers, values <= lowers], axis=-1)  # (..., branches, samples, 2)
    return codes.reshape(*values.shape[:-2], -1).astype(np.uint8)


def segment_pad(bits: np.ndarray, target_len: int) -> np.ndarray:
    """Split into target_len chunks, zero-padding the final one.

    Returns shape (..., n_segments, target_len): the segments of each bit
    string along the last axis.
    """
    bits = _bit_rows(bits)
    if target_len <= 0:
        raise ValueError("target length must be positive")
    if bits.shape[-1] == 0:
        raise ValueError("cannot segment an empty bit string")
    n_segments = -(-bits.shape[-1] // target_len)
    padded = np.zeros((*bits.shape[:-1], n_segments * target_len), dtype=np.uint8)
    padded[..., : bits.shape[-1]] = bits
    return padded.reshape(*bits.shape[:-1], n_segments, target_len)


def hamming_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Fraction of positions where the two bit strings agree."""
    a, b = as_bits(a), as_bits(b)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    if a.size == 0:
        raise ValueError("empty bit strings have no similarity")
    return float(np.count_nonzero(a == b) / a.size)


def normalize_series(series: DisplacementSeries) -> DisplacementSeries:
    """Rescale each series to the working unit (std = NORMALIZED_STD), zero mean."""
    x = series.samples
    std = x.std(axis=-1, keepdims=True)
    if np.any(std == 0):
        raise ValueError("cannot normalize a constant series")
    return replace(series, samples=(x - x.mean(axis=-1, keepdims=True)) * (NORMALIZED_STD / std))


def skew(samples: np.ndarray) -> np.ndarray | float:
    """Fisher-Pearson skewness m3 / m2**1.5 along the last axis.

    Computed as ``scipy.stats.skew`` (biased) computes it: central moments
    about the row mean, ``m3 = mean(d * d * d)``, and NaN where m2 is zero
    to within the mean's resolution. A 1-D input gives a scalar.
    """
    x = np.asarray(samples, dtype=np.float64)
    mean = x.mean(axis=-1, keepdims=True)
    d = x - mean
    m2 = (d * d).mean(axis=-1)
    m3 = (d * d * d).mean(axis=-1)
    with np.errstate(all="ignore"):
        zero = m2 <= (np.finfo(np.float64).eps * mean[..., 0]) ** 2
        return np.where(zero, np.nan, m3 / m2**1.5)[()]
