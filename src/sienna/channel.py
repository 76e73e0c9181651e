"""Symbol-level M-QAM channel with dialog-codes friendly jamming.

Transmission is simulated at QAM-symbol granularity with complex AWGN; the
OFDM waveform itself appears only in :func:`ofdm_gaussianity_demo`, which
shows why a Gaussian jamming signal is indistinguishable from modulated
OFDM. Every symbol is duplicated back-to-back and the receiver jams exactly
one copy of each pair with Gaussian noise of a chosen power; knowing its own
mask, it stitches the clean copies together, while any other receiver must
guess.

Power conventions: constellations are normalized to unit symbol energy, and
power ratios (signal-to-noise, jam-to-signal) are expressed per bit, the
convention under which the closed-form bit-error approximation below holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bits import as_bits

__all__ = [
    "ChannelParams",
    "GaussianityReport",
    "JammingLadder",
    "QamSpec",
    "awgn",
    "ber_theoretical",
    "dup_and_jam",
    "eavesdrop",
    "ladder_levels",
    "noise_power_for_snr",
    "ofdm_gaussianity_demo",
    "qam_demodulate",
    "qam_modulate",
    "receiver_stitch",
    "secrecy_capacity",
]


@dataclass(frozen=True)
class QamSpec:
    """Square M-QAM constellation, Gray-labelled per axis, unit symbol energy."""

    order: int = 4

    def __post_init__(self):
        if self.order < 4:
            raise ValueError("binary modulation is not allowed; order must be >= 4")
        if self.order not in (4, 16, 64):
            raise ValueError(f"unsupported QAM order {self.order}")

    @property
    def bits_per_symbol(self) -> int:
        return int(math.log2(self.order))

    @property
    def side(self) -> int:
        return int(math.isqrt(self.order))

    @property
    def amplitude_scale(self) -> float:
        # E[|s|^2] of levels {..,-3,-1,1,3,..} on both axes is 2(M-1)/3.
        return 1.0 / math.sqrt(2.0 * (self.order - 1) / 3.0)


@dataclass(frozen=True)
class ChannelParams:
    """Powers of the main channel: ``p0`` the intrinsic noise power, ``p1``
    the signal power seen by the legitimate receiver."""

    p0: float = 1.0
    p1: float = 31.622776601683793  # 15 dB above the noise floor

    def __post_init__(self):
        # Both are divisors: of the main SNR and of every jam-to-signal ratio.
        if not (0 < self.p0 < math.inf and 0 < self.p1 < math.inf):
            raise ValueError(f"powers must be finite and positive, got {self.p0}, {self.p1}")

    @property
    def snr_main(self) -> float:
        return self.p1 / self.p0


@dataclass(frozen=True)
class JammingLadder:
    """Geometric jamming powers {p_max, p_max/9, ..., p_max/9^(L-1)}."""

    levels: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(float(v) for v in self.levels))
        if not self.levels:
            raise ValueError("ladder needs at least one level")
        if not all(0 <= v < math.inf for v in self.levels):
            raise ValueError(f"jamming powers must be finite and non-negative, got {self.levels}")
        for hi, lo in zip(self.levels, self.levels[1:]):
            if not (lo > 0 and math.isclose(hi / lo, 9.0, rel_tol=1e-9)):
                raise ValueError("ladder levels must descend by a factor of 9")

    @property
    def count(self) -> int:
        return len(self.levels)


def ladder_levels(p_max: float, p0: float) -> JammingLadder:
    """Smallest factor-9 ladder covering eavesdroppers anywhere in [p0, p_max].

    Friendly jamming degrades an eavesdropper only while the jam-to-signal
    ratio sits in (1, 9]: below it the jam is too weak, above it the jammed
    copies become detectable by their energy. Levels a factor 9 apart give
    every eavesdropper power in the range one level inside that band.
    """
    if not (p0 > 0 and 1 < p_max / p0 < math.inf):
        raise ValueError(f"need p0 > 0 and 1 < p_max / p0 < inf, got p_max={p_max}, p0={p0}")
    count = max(1, math.ceil(math.log(p_max / p0, 9.0)))
    return JammingLadder(tuple(p_max / 9.0**i for i in range(count)))


# -- modulation ---------------------------------------------------------------


def _gray_to_position(spec: QamSpec) -> np.ndarray:
    side = spec.side
    lookup = np.zeros(side, dtype=np.int64)
    for pos in range(side):
        lookup[pos ^ (pos >> 1)] = pos
    return lookup


def _position_to_gray(spec: QamSpec) -> np.ndarray:
    pos = np.arange(spec.side)
    return pos ^ (pos >> 1)


def qam_modulate(bits: np.ndarray, spec: QamSpec) -> np.ndarray:
    """Gray-mapped symbols; input is zero-padded to a whole symbol count."""
    bits = as_bits(bits)
    k = spec.bits_per_symbol
    if bits.size % k:
        bits = np.concatenate([bits, np.zeros(k - bits.size % k, dtype=np.uint8)])
    half = k // 2
    groups = bits.reshape(-1, k)
    weights = 1 << np.arange(half - 1, -1, -1)
    i_label = groups[:, :half].astype(np.int64) @ weights
    q_label = groups[:, half:].astype(np.int64) @ weights
    to_pos = _gray_to_position(spec)
    side = spec.side
    i_amp = 2 * to_pos[i_label] - side + 1
    q_amp = 2 * to_pos[q_label] - side + 1
    return spec.amplitude_scale * (i_amp + 1j * q_amp)


def qam_demodulate(symbols: np.ndarray, spec: QamSpec, n_bits: int | None = None) -> np.ndarray:
    """Hard-decision demapping; ``n_bits`` trims the modulator's zero padding."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    side = spec.side
    half = spec.bits_per_symbol // 2
    to_gray = _position_to_gray(spec)

    def axis_labels(values):
        pos = np.clip(np.round((values / spec.amplitude_scale + side - 1) / 2), 0, side - 1)
        return to_gray[pos.astype(np.int64)]

    i_label = axis_labels(symbols.real)
    q_label = axis_labels(symbols.imag)
    shifts = np.arange(half - 1, -1, -1)
    i_bits = (i_label[:, None] >> shifts) & 1
    q_bits = (q_label[:, None] >> shifts) & 1
    bits = np.concatenate([i_bits, q_bits], axis=1).ravel().astype(np.uint8)
    if n_bits is not None:
        if not 0 <= n_bits <= bits.size:
            raise ValueError(f"asked for {n_bits} bits, frame holds {bits.size}")
        bits = bits[:n_bits]
    return bits


def awgn(symbols: np.ndarray, noise_power: float, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian noise of total power ``noise_power`` per symbol."""
    if not 0 <= noise_power < math.inf:
        raise ValueError(f"noise power must be finite and non-negative, got {noise_power}")
    if noise_power == 0:
        return np.array(symbols, dtype=np.complex128, copy=True)
    scale = math.sqrt(noise_power / 2)
    n = symbols.size
    return symbols + scale * (rng.normal(size=n) + 1j * rng.normal(size=n))


def noise_power_for_snr(snr: float, spec: QamSpec) -> float:
    """Channel noise power for a per-bit SNR at unit symbol energy."""
    if snr <= 0:
        raise ValueError("SNR must be positive")
    return 1.0 / (snr * spec.bits_per_symbol)


# -- dialog codes -------------------------------------------------------------


def dup_and_jam(
    symbols: np.ndarray,
    jam_mask: np.ndarray,
    jam_power: float,
    rng: np.random.Generator,
    noise_power: float = 0.0,
) -> np.ndarray:
    """Duplicate symbols back-to-back and jam one copy of each pair.

    Returns the on-air frame: complex symbols, pair i at 2i and 2i + 1, the
    copy ``jam_mask[i]`` of pair i jammed. The jam is zero-mean complex
    Gaussian with the same form as the modulated signal; channel noise of
    ``noise_power`` lands on both copies.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    jam_mask = as_bits(jam_mask)
    if jam_mask.size != symbols.size:
        raise ValueError("need one mask bit per symbol pair")
    if not 0 <= jam_power < math.inf:
        raise ValueError(f"jam power must be finite and non-negative, got {jam_power}")
    on_air = np.repeat(symbols, 2)
    if jam_power > 0:
        jammed_idx = 2 * np.arange(symbols.size) + jam_mask
        scale = math.sqrt(jam_power / 2)
        on_air = on_air.copy()
        on_air[jammed_idx] += scale * (
            rng.normal(size=symbols.size) + 1j * rng.normal(size=symbols.size)
        )
    return awgn(on_air, noise_power, rng)


def _pairs(frame: np.ndarray) -> np.ndarray:
    """An on-air frame as one row per duplicate pair."""
    frame = np.asarray(frame, dtype=np.complex128)
    if frame.size % 2:
        raise ValueError("dialog frames hold an even number of symbols")
    return frame.reshape(-1, 2)


def receiver_stitch(frame: np.ndarray, jam_mask: np.ndarray) -> np.ndarray:
    """Select the unjammed copy of each pair (receiver knows its own mask)."""
    pairs = _pairs(frame)
    jam_mask = as_bits(jam_mask)
    n_pairs = pairs.shape[0]
    if jam_mask.size != n_pairs:
        raise ValueError(f"mask length {jam_mask.size} does not match {n_pairs} pairs")
    return pairs[np.arange(n_pairs), 1 - jam_mask]


def eavesdrop(
    frame: np.ndarray,
    strategy: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-pair copy selection without knowledge of the jam mask.

    ``random-pick`` guesses a copy, ``energy-threshold`` keeps the
    lower-energy copy of each pair, ``average-both`` averages the two.
    """
    pairs = _pairs(frame)
    if strategy == "random-pick":
        pick = rng.integers(0, 2, size=pairs.shape[0])
        return pairs[np.arange(pairs.shape[0]), pick]
    if strategy == "energy-threshold":
        pick = np.argmin(np.abs(pairs) ** 2, axis=1)
        return pairs[np.arange(pairs.shape[0]), pick]
    if strategy == "average-both":
        return pairs.mean(axis=1)
    raise ValueError(f"unknown eavesdropping strategy: {strategy!r}")


# -- analytic quantities ------------------------------------------------------


def _q_function(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def ber_theoretical(m_order: int, snr: float) -> float:
    """Approximate Gray-coded M-QAM bit error rate at per-bit SNR ``snr``.

    (4/log2 M) * (1 - 1/sqrt(M)) * Q(sqrt(3 * log2(M) * snr / (M - 1))),
    clamped to [0, 0.5]. The Gray demapping factor (1 - 1/sqrt(M)) keeps the
    approximation within a few percent of simulation across the operating
    range.
    """
    if m_order < 4:
        raise ValueError("order must be >= 4")
    if snr < 0:
        raise ValueError("SNR must be non-negative")
    k = math.log2(m_order)
    gray = 1.0 - 1.0 / math.sqrt(m_order)
    value = (4.0 / k) * gray * _q_function(math.sqrt(3.0 * k * snr / (m_order - 1)))
    return min(max(value, 0.0), 0.5)


def secrecy_capacity(p1: float, p0: float, p2: float, p_jam: float) -> float:
    """Wiretap secrecy capacity [log2(1 + p1/p0) - log2(1 + p2/p_jam)]^+."""
    if p0 <= 0 or p_jam <= 0:
        raise ValueError("noise and jamming powers must be positive")
    return max(0.0, math.log2(1 + p1 / p0) - math.log2(1 + p2 / p_jam))


# -- OFDM Gaussianity ---------------------------------------------------------


@dataclass(frozen=True)
class GaussianityReport:
    statistic: float
    p_value: float
    excess_kurtosis: float
    n_samples: int


def _normality(samples: np.ndarray) -> tuple[float, float]:
    """D'Agostino-Pearson K^2 and the excess kurtosis of a 1-D sample.

    The formulas and operation order of ``scipy.stats.normaltest`` and
    ``scipy.stats.kurtosis``: K^2 is the sum of the squared z-scores of the
    skewness test (D'Agostino 1970) and the kurtosis test (Anscombe and
    Glynn 1983), both on biased central moments. Needs n >= 8.
    """
    n = float(samples.size)
    d = samples - samples.mean()
    d2 = d * d
    m2, m3, m4 = float(d2.mean()), float((d2 * d).mean()), float((d2 * d2).mean())
    skewness = m3 / m2**1.5
    b2 = m4 / m2**2.0

    y = skewness * math.sqrt(((n + 1) * (n + 3)) / (6.0 * (n - 2)))
    beta2 = (
        3.0 * (n**2 + 27 * n - 70) * (n + 1) * (n + 3) / ((n - 2.0) * (n + 5) * (n + 7) * (n + 9))
    )
    w2 = -1 + math.sqrt(2 * (beta2 - 1))
    delta = 1 / math.sqrt(0.5 * math.log(w2))
    alpha = math.sqrt(2.0 / (w2 - 1))
    y = y if y != 0 else 1.0
    z_skew = delta * math.log(y / alpha + math.sqrt((y / alpha) ** 2 + 1))

    e = 3.0 * (n - 1) / (n + 1)
    var_b2 = 24.0 * n * (n - 2) * (n - 3) / ((n + 1) * (n + 1.0) * (n + 3) * (n + 5))
    x = (b2 - e) / var_b2**0.5
    sqrt_beta1 = (
        6.0 * (n * n - 5 * n + 2) / ((n + 7) * (n + 9))
        * ((6.0 * (n + 3) * (n + 5)) / (n * (n - 2) * (n - 3))) ** 0.5
    )
    a = 6.0 + 8.0 / sqrt_beta1 * (2.0 / sqrt_beta1 + (1 + 4.0 / sqrt_beta1**2) ** 0.5)
    denom = 1 + x * (2 / (a - 4.0)) ** 0.5
    term2 = math.copysign(((1 - 2.0 / a) / abs(denom)) ** (1 / 3), denom) if denom else math.nan
    z_kurt = ((1 - 2 / (9.0 * a)) - term2) / (2 / (9.0 * a)) ** 0.5
    return z_skew**2 + z_kurt**2, b2 - 3.0


def ofdm_gaussianity_demo(
    n_subcarriers: int, qam: QamSpec, trials: int, seed: int = 0
) -> GaussianityReport:
    """Normality of IFFT output when subcarriers carry random QAM symbols.

    With many subcarriers the time-domain samples converge to a Gaussian
    (the premise for modelling the jamming signal as Gaussian noise); with a
    single subcarrier the output is just the constellation and the test
    rejects. The p-value is the chi-square tail of K^2 with 2 degrees of
    freedom, ``exp(-K^2 / 2)``.
    """
    if n_subcarriers < 1 or trials < 1 or n_subcarriers * trials < 4:
        raise ValueError("need at least one subcarrier, one trial and 8 samples")
    rng = np.random.default_rng(seed)
    k = qam.bits_per_symbol
    bits = rng.integers(0, 2, size=trials * n_subcarriers * k, dtype=np.uint8)
    loads = qam_modulate(bits, qam).reshape(trials, n_subcarriers)
    time_domain = np.fft.ifft(loads, axis=1) * math.sqrt(n_subcarriers)
    samples = np.concatenate([time_domain.real.ravel(), time_domain.imag.ravel()])
    statistic, excess_kurtosis = _normality(samples)
    return GaussianityReport(
        statistic=statistic,
        p_value=math.exp(-statistic / 2),
        excess_kurtosis=excess_kurtosis,
        n_samples=samples.size,
    )
