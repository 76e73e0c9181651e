"""Level-crossing quantization of breathing series into binary fingerprints.

Each quantizer branch compares a sample against a threshold pair and emits
two bits: ``10`` at or above the upper threshold, ``01`` at or below the
lower one, ``00`` in between (``11`` never occurs). One fixed bank of ten
branches at the nested threshold pairs ``+/-THRESHOLDS`` samples the window
every ``SAMPLE_INTERVAL_S`` seconds, and the per-branch streams are
concatenated branch-major. Both devices must quantize with this same bank,
and no message carries it, so it is a pair of module constants.

Working units: series from different modalities are rescaled so one
standard deviation equals ``NORMALIZED_STD`` before quantization, which
makes the one threshold ladder meaningful for belt data and
variance-normalized ICA outputs alike, and makes the whole pipeline
insensitive to per-modality gain.

``normalize_series``, ``skew`` and ``extract`` act on the last (time) axis,
so a stack of C candidate series on one time base is normalized, measured
and quantized in one call; a single series is the same code with no
leading axis.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .bits import as_bits
from .breathing import DisplacementSeries

__all__ = [
    "extract",
    "hamming_similarity",
    "normalize_series",
    "qtz",
    "skew",
]

# Working amplitude unit: observations are rescaled to this standard
# deviation before quantization. At 0.20 a typical resting breath swings
# across most of the ten-step 0.05 ladder, which keeps the upper branches
# discriminative between subjects while the same subject's two modality
# views still quantize almost identically.
NORMALIZED_STD = 0.20

# The quantizer bank: branch b compares against +/-THRESHOLDS[b], in working
# units, at instants SAMPLE_INTERVAL_S apart. 10 s of it is 2020 bits, one
# padded (255, 201) codeword.
THRESHOLDS = 0.05 * np.arange(1, 11)
THRESHOLDS.flags.writeable = False
SAMPLE_INTERVAL_S = 0.1


def qtz(x: float, q_plus: float, q_minus: float) -> tuple[int, int]:
    """Two-bit level-crossing code; thresholds are boundary-inclusive."""
    if q_plus <= q_minus:
        raise ValueError("upper threshold must exceed lower threshold")
    if x >= q_plus:
        return (1, 0)
    if x <= q_minus:
        return (0, 1)
    return (0, 0)


def _sample_count(t_str: float, t_end: float) -> int:
    """Instants t_str + j*T of a window, through the last one in it."""
    if t_end <= t_str:
        raise ValueError("window must have positive length")
    # A window of whole instants can divide to just below its count, as
    # (81.6 - 33.6) / 0.1 does; the tolerance keeps its last instant.
    return int(np.floor((t_end - t_str) / SAMPLE_INTERVAL_S + 1e-9)) + 1


def extract(
    series: DisplacementSeries, t_str: float | np.ndarray, t_end: float | np.ndarray
) -> np.ndarray:
    """Quantize a window at instants t_str + j*T, through the last one in it.

    T is ``SAMPLE_INTERVAL_S``. Only ``series.value_at`` is read, so any
    object with that method quantizes like a ``DisplacementSeries``.
    Returns uint8 bits of shape (..., branches * samples * 2),
    branch-major. Every series of a stack is quantized by one comparison of
    each value and its negation against the threshold vector, since
    ``v <= -u`` is exactly ``-v >= u``; row c of the result is the
    fingerprint of series c.

    ``t_str`` and ``t_end`` may also be (k,) arrays of k windows with as
    many instants each (else ``ValueError``). Their instants, each window's
    computed as for that window alone, are interpolated by one
    ``value_at`` and quantized by one comparison, and the result, of shape
    (k, ..., branches * samples * 2), holds in row i the bits of
    ``extract(series, t_str[i], t_end[i])``.
    """
    # Scalars take the one-window path with no array conversion.
    if not (isinstance(t_str, np.ndarray) and t_str.ndim):
        n_samples = _sample_count(t_str, t_end)
        values = series.value_at(t_str + np.arange(n_samples) * SAMPLE_INTERVAL_S)
    else:
        ends = np.asarray(t_end, dtype=np.float64).tolist()
        counts = {_sample_count(*w) for w in zip(t_str.tolist(), ends, strict=True)}
        if len(counts) != 1:
            raise ValueError(f"windows must hold equal sample counts, got {sorted(counts)}")
        (n_samples,) = counts
        instants = t_str[:, None] + np.arange(n_samples) * SAMPLE_INTERVAL_S  # (k, samples)
        values = series.value_at(instants.ravel())  # (..., k * samples)
        # Window-major: (k, ..., samples).
        values = np.moveaxis(values.reshape(*values.shape[:-1], -1, n_samples), -2, 0)
    pairs = np.empty((*values.shape, 2))  # (..., samples, 2)
    pairs[..., 0] = values
    np.negative(values, out=pairs[..., 1])
    pairs = pairs.reshape(-1, 2 * n_samples)  # (rows, samples * 2)
    # With the branches on the outer axis, each compares one threshold with
    # the whole stack; one copy then puts the rows outermost.
    codes = THRESHOLDS[:, None, None] <= pairs  # (branches, rows, samples * 2)
    codes = np.ascontiguousarray(codes.transpose(1, 0, 2))
    return codes.reshape(*values.shape[:-1], -1).view(np.uint8)


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
    d = x - x.mean(axis=-1, keepdims=True)
    std = np.sqrt((d * d).sum(axis=-1, keepdims=True) / x.shape[-1])  # np.std's own steps
    if np.any(std == 0):
        raise ValueError("cannot normalize a constant series")
    return replace(series, samples=d * (NORMALIZED_STD / std))


def skew(samples: np.ndarray) -> np.ndarray | float:
    """Fisher-Pearson skewness m3 / m2**1.5 along the last axis.

    Computed as ``scipy.stats.skew`` (biased) computes it: central moments
    about the row mean, ``m3 = mean(d * d * d)``, and NaN where m2 is zero
    to within the mean's resolution. A 1-D input gives a scalar.
    """
    x = np.asarray(samples, dtype=np.float64)
    mean = x.mean(axis=-1, keepdims=True)
    d = x - mean
    dd = d * d
    m2 = dd.mean(axis=-1)
    m3 = (dd * d).mean(axis=-1)
    with np.errstate(all="ignore"):
        zero = m2 <= (np.finfo(np.float64).eps * mean[..., 0]) ** 2
        return np.where(zero, np.nan, m3 / m2**1.5)[()]
