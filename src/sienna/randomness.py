"""Statistical randomness tests: frequency (monobit), runs, and approximate
entropy, following the standard NIST statistical test suite definitions,
plus the GF(2) rank rate of a set of samples.

The first three look at one bit string through short windows. The rank rate
looks across many samples of the same source at full length, in the spirit
of the NIST SP 800-22 binary matrix rank test: it finds linear structure,
such as the parity of a binary linear code, that no local window shows."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bits import as_bits, bit_array

__all__ = [
    "RandomnessReport",
    "approximate_entropy",
    "gf2_rank",
    "gf2_rank_rate",
    "monobit_test",
    "randomness_tests",
    "runs_test",
]


@dataclass(frozen=True)
class RandomnessReport:
    monobit_p: float
    runs_p: float
    approx_entropy_per_bit: float


def monobit_test(bits: np.ndarray) -> float:
    """P-value of the frequency test: is the 0/1 balance plausible?"""
    bits = as_bits(bits)
    if bits.size == 0:
        raise ValueError("the frequency test needs at least one bit")
    s = abs(int(2 * int(bits.sum()) - bits.size)) / math.sqrt(bits.size)
    return math.erfc(s / math.sqrt(2))


def runs_test(bits: np.ndarray) -> float:
    """P-value of the runs test; 0.0 when the frequency pre-check fails or
    the string is constant (the formula's limit there)."""
    bits = as_bits(bits)
    n = bits.size
    if n == 0:
        raise ValueError("the runs test needs at least one bit")
    pi = float(bits.sum()) / n
    if pi in (0.0, 1.0) or abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return 0.0
    v = 1 + int(np.count_nonzero(np.diff(bits)))
    num = abs(v - 2.0 * n * pi * (1 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1 - pi)
    return math.erfc(num / den)


def _phi(bits: np.ndarray, m: int) -> float:
    """Sum of p*ln(p) over overlapping m-bit patterns (circular extension)."""
    n = bits.size
    ext = np.concatenate([bits, bits[: m - 1]]).astype(np.int64)
    codes = np.zeros(n, dtype=np.int64)
    for j in range(m):
        codes = (codes << 1) | ext[j : j + n]
    counts = np.bincount(codes, minlength=1 << m)
    probs = counts[counts > 0] / n
    return float(np.sum(probs * np.log(probs)))


def approximate_entropy(bits: np.ndarray, block_len: int = 2) -> float:
    """ApEn(m) in nats.

    ApEn compares the empirical entropy of overlapping ``block_len`` and
    ``block_len + 1`` bit patterns; i.i.d. fair bits approach ln 2 per bit.
    """
    if block_len < 1:
        raise ValueError(f"block_len must be at least 1, got {block_len}")
    bits = as_bits(bits)
    return _phi(bits, block_len) - _phi(bits, block_len + 1)


def randomness_tests(bits: np.ndarray) -> RandomnessReport:
    """Monobit, runs, and approximate-entropy (m = 2) statistics for one bit string."""
    bits = as_bits(bits)
    if bits.size < 100:
        raise ValueError(f"need at least 100 bits, got {bits.size}")
    apen = approximate_entropy(bits)
    per_bit = min(max(apen / math.log(2.0), 0.0), 1.0)
    return RandomnessReport(
        monobit_p=monobit_test(bits),
        runs_p=runs_test(bits),
        approx_entropy_per_bit=per_bit,
    )


def gf2_rank(rows: np.ndarray) -> int:
    """Rank over GF(2) of the rows of a 2-D 0/1 array.

    Each row is packed into one Python int and reduced against the pivots
    found so far, keyed by their leading bit.
    """
    rows = bit_array(rows)
    if rows.ndim != 2:
        raise ValueError(f"need a 2-D bit array, got shape {rows.shape}")
    pivots: dict[int, int] = {}
    for row in np.packbits(rows, axis=1):
        r = int.from_bytes(row.tobytes(), "big")
        while r:
            top = r.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = r
                break
            r ^= pivot
    return len(pivots)


def gf2_rank_rate(samples: np.ndarray) -> float:
    """GF(2)-linear entropy rate of equal-length samples, in bits per bit.

    The rank of the differences ``x_i ^ x_0`` divided by the bit length: the
    dimension of the smallest affine subspace holding every sample. Uniform
    bits give 1.0 once there are comfortably more samples than bits; the
    binary image of a linear code, masked by any fixed string, gives at
    most ``message_bits / codeword_bits``.
    """
    samples = bit_array(samples)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError(f"need at least two samples as rows, got shape {samples.shape}")
    return gf2_rank(samples[1:] ^ samples[0]) / samples.shape[1]
