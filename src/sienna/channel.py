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
from scipy.stats import kurtosis, normaltest

from .bits import as_bits

__all__ = [
    "ChannelParams",
    "DialogFrame",
    "GaussianityReport",
    "JammingLadder",
    "QamSpec",
    "awgn",
    "ber_sweep_rows",
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
    "write_ber_sweep",
]

# Friendly jamming degrades an eavesdropper only while the jam-to-signal
# ratio sits in (1, 9]: below it the jam is too weak, above it the jammed
# copies become detectable by their energy.
JAM_RATIO_LOW = 1.0
JAM_RATIO_HIGH = 9.0


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
    """Powers of the main and tap channels plus the jamming signal.

    ``p1``/``p2`` are the signal powers seen by the legitimate receiver and
    the eavesdropper, ``p0`` the intrinsic noise power, ``p_jam`` the
    jamming power at the eavesdropper.
    """

    p0: float = 1.0
    p1: float = 31.622776601683793  # 15 dB above the noise floor
    p2: float = 31.622776601683793
    p_jam: float = 0.0

    def __post_init__(self):
        if min(self.p0, self.p1, self.p2, self.p_jam) < 0:
            raise ValueError("powers must be non-negative")

    @property
    def snr_main(self) -> float:
        return self.p1 / self.p0

    @property
    def snr_tap(self) -> float:
        return self.p2 / self.p0

    @property
    def effective_jamming(self) -> bool:
        if self.p2 == 0:
            return False
        ratio = self.p_jam / self.p2
        return JAM_RATIO_LOW < ratio < JAM_RATIO_HIGH


@dataclass(frozen=True)
class DialogFrame:
    """On-air duplicated symbols with one jammed copy per pair."""

    symbols: np.ndarray  # complex, length 2 * n_pairs
    jam_mask: np.ndarray  # uint8, jam_mask[i] selects the jammed copy of pair i
    jam_power: float

    def __post_init__(self):
        object.__setattr__(self, "symbols", np.asarray(self.symbols, dtype=np.complex128))
        object.__setattr__(self, "jam_mask", as_bits(self.jam_mask))
        if self.symbols.size % 2:
            raise ValueError("dialog frames hold an even number of symbols")
        if self.jam_mask.size != self.symbols.size // 2:
            raise ValueError("need one mask bit per duplicate pair")


@dataclass(frozen=True)
class JammingLadder:
    """Geometric jamming powers {p_max, p_max/9, ..., p_max/9^(L-1)}."""

    levels: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(float(v) for v in self.levels))
        if not self.levels:
            raise ValueError("ladder needs at least one level")
        for hi, lo in zip(self.levels, self.levels[1:]):
            if not math.isclose(hi / lo, 9.0, rel_tol=1e-9):
                raise ValueError("ladder levels must descend by a factor of 9")

    @property
    def count(self) -> int:
        return len(self.levels)


def ladder_levels(p_max: float, p0: float) -> JammingLadder:
    """Smallest factor-9 ladder covering eavesdroppers anywhere in [p0, p_max]."""
    if not p_max > p0 > 0:
        raise ValueError(f"need p_max > p0 > 0, got p_max={p_max}, p0={p0}")
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
        if n_bits > bits.size:
            raise ValueError(f"asked for {n_bits} bits, frame holds {bits.size}")
        bits = bits[:n_bits]
    return bits


def awgn(symbols: np.ndarray, noise_power: float, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian noise of total power ``noise_power`` per symbol."""
    if noise_power < 0:
        raise ValueError("noise power must be non-negative")
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
) -> DialogFrame:
    """Duplicate symbols back-to-back and jam one copy of each pair.

    The jam is zero-mean complex Gaussian with the same form as the
    modulated signal; channel noise of ``noise_power`` lands on both copies.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    jam_mask = as_bits(jam_mask)
    if jam_mask.size != symbols.size:
        raise ValueError("need one mask bit per symbol pair")
    on_air = np.repeat(symbols, 2)
    if jam_power > 0:
        jammed_idx = 2 * np.arange(symbols.size) + jam_mask
        scale = math.sqrt(jam_power / 2)
        on_air = on_air.copy()
        on_air[jammed_idx] += scale * (
            rng.normal(size=symbols.size) + 1j * rng.normal(size=symbols.size)
        )
    on_air = awgn(on_air, noise_power, rng)
    return DialogFrame(symbols=on_air, jam_mask=jam_mask, jam_power=jam_power)


def receiver_stitch(frame: DialogFrame, jam_mask: np.ndarray) -> np.ndarray:
    """Select the unjammed copy of each pair (receiver knows its own mask)."""
    jam_mask = as_bits(jam_mask)
    n_pairs = frame.symbols.size // 2
    if jam_mask.size != n_pairs:
        raise ValueError(f"mask length {jam_mask.size} does not match {n_pairs} pairs")
    clean_idx = 2 * np.arange(n_pairs) + (1 - jam_mask)
    return frame.symbols[clean_idx]


def eavesdrop(
    frame: DialogFrame,
    strategy: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-pair copy selection without knowledge of the jam mask.

    ``random-pick`` guesses a copy, ``energy-threshold`` keeps the
    lower-energy copy of each pair, ``average-both`` averages the two.
    """
    pairs = frame.symbols.reshape(-1, 2)
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


def ber_sweep_rows(
    orders: tuple[int, ...],
    snr_dbs: tuple[float, ...],
    n_bits: int,
    seed: int = 0,
) -> list[tuple]:
    """Measured-vs-formula BER grid as `m_order,snr_db,ber_theory,ber_measured,trials` rows."""
    rng = np.random.default_rng(seed)
    rows = []
    for order in orders:
        spec = QamSpec(order)
        for snr_db in snr_dbs:
            snr = 10.0 ** (snr_db / 10.0)
            bits = rng.integers(0, 2, size=n_bits, dtype=np.uint8)
            rx = awgn(qam_modulate(bits, spec), noise_power_for_snr(snr, spec), rng)
            measured = float(np.mean(qam_demodulate(rx, spec, n_bits=n_bits) != bits))
            rows.append((order, snr_db, ber_theoretical(order, snr), measured, n_bits))
    return rows


def write_ber_sweep(path, orders=(4, 16, 64), snr_dbs=(0.0, 5.0, 10.0, 15.0), n_bits=200_000, seed=0):
    with open(path, "w") as fh:
        fh.write("m_order,snr_db,ber_theory,ber_measured,trials\n")
        for row in ber_sweep_rows(orders, snr_dbs, n_bits, seed):
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n")


# -- OFDM Gaussianity ---------------------------------------------------------


@dataclass(frozen=True)
class GaussianityReport:
    statistic: float
    p_value: float
    excess_kurtosis: float
    n_samples: int


def ofdm_gaussianity_demo(
    n_subcarriers: int, qam: QamSpec, trials: int, seed: int = 0
) -> GaussianityReport:
    """Normality of IFFT output when subcarriers carry random QAM symbols.

    With many subcarriers the time-domain samples converge to a Gaussian
    (the premise for modelling the jamming signal as Gaussian noise); with a
    single subcarrier the output is just the constellation and the test
    rejects.
    """
    if n_subcarriers < 1 or trials < 1:
        raise ValueError("need at least one subcarrier and one trial")
    rng = np.random.default_rng(seed)
    k = qam.bits_per_symbol
    bits = rng.integers(0, 2, size=trials * n_subcarriers * k, dtype=np.uint8)
    loads = qam_modulate(bits, qam).reshape(trials, n_subcarriers)
    time_domain = np.fft.ifft(loads, axis=1) * math.sqrt(n_subcarriers)
    samples = np.concatenate([time_domain.real.ravel(), time_domain.imag.ravel()])
    stat, p_value = normaltest(samples)
    return GaussianityReport(
        statistic=float(stat),
        p_value=float(p_value),
        excess_kurtosis=float(kurtosis(samples)),
        n_samples=samples.size,
    )
