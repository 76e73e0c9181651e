"""Dialog codes: duplicate every symbol, jam one copy, stitch your own view.

The receiver jams exactly one copy of each duplicated QAM symbol with
Gaussian noise shaped like the signal. Knowing its own jam mask it stitches
a clean stream; an eavesdropper guessing copies absorbs the jam on half its
picks. A factor-9 power ladder guarantees some level lands in the effective
jam-to-signal band no matter where the eavesdropper sits.
"""

import numpy as np

from sienna.bits import random_bits
from sienna.channel import (
    QamSpec,
    awgn,
    ber_theoretical,
    dup_and_jam,
    eavesdrop,
    ladder_levels,
    noise_power_for_snr,
    ofdm_gaussianity_demo,
    qam_demodulate,
    qam_modulate,
    receiver_stitch,
    secrecy_capacity,
)

rng = np.random.default_rng(0)

# Closed-form BER tracks simulation across the constellation sizes
print("per-bit SNR 10 dB:")
for order in (4, 16, 64):
    spec = QamSpec(order)
    bits = random_bits(600_000, rng)
    rx = awgn(qam_modulate(bits, spec), noise_power_for_snr(10.0, spec), rng)
    measured = np.mean(qam_demodulate(rx, spec, n_bits=bits.size) != bits)
    print(f"  {order:2d}-QAM: measured BER {measured:.2e}, formula {ber_theoretical(order, 10.0):.2e}")

# One jammed exchange
spec = QamSpec(4)
bits = random_bits(20_000, rng)
symbols = qam_modulate(bits, spec)
mask = random_bits(symbols.size, rng)
noise = noise_power_for_snr(10 ** 1.5, spec)  # 15 dB
frame = dup_and_jam(symbols, mask, jam_power=4.0, rng=rng, noise_power=noise)
print(f"\non-air frame: {frame.size} symbols ({symbols.size} pairs), jam/signal = 4")

stitched = qam_demodulate(receiver_stitch(frame, mask), spec, n_bits=bits.size)
print(f"legitimate stitcher BER: {np.mean(stitched != bits):.2e}")
for strategy in ("random-pick", "energy-threshold", "average-both"):
    est = qam_demodulate(eavesdrop(frame, strategy, rng), spec, n_bits=bits.size)
    print(f"eavesdropper ({strategy:16s}) BER: {np.mean(est != bits):.3f}")

# The ladder covers every possible eavesdropper position
ladder = ladder_levels(p_max=1000.0, p0=1.0)
print(f"\njamming ladder for p_max/p0 = 1000: {[round(v, 2) for v in ladder.levels]}")
for p2 in (2.0, 30.0, 700.0):
    ratios = [level / p2 for level in ladder.levels]
    effective = [r for r in ratios if 1 < r <= 9]
    print(f"  eavesdropper at p2={p2:6.1f}: effective levels {effective}")

cs = secrecy_capacity(p1=31.6, p0=1.0, p2=31.6, p_jam=127.0)
print(f"\nsecrecy capacity with jamming at 4x the tapped signal: {cs:.2f} bit/symbol")

report = ofdm_gaussianity_demo(n_subcarriers=1024, qam=QamSpec(16), trials=20, seed=4)
print(
    f"OFDM time samples over 1024 subcarriers: normality p={report.p_value:.2f}, "
    f"excess kurtosis {report.excess_kurtosis:+.3f} (the jam hides in this)"
)
