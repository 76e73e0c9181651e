"""Level-crossing fingerprints: same person agrees, different people differ.

A bank of ten threshold pairs turns a breathing window into a binary
fingerprint (two bits per sample per branch, code 11 never occurs). Belt
and radar views of the same person produce nearly identical bits; another
person's bits disagree far beyond what error correction would bridge.
"""

from sienna.fingerprint import SAMPLE_INTERVAL_S, THRESHOLDS, extract, hamming_similarity, qtz
from sienna.protocol import BeltDevice, PairingScene, PrmsDevice, observe_scene
from sienna.breathing import sample_profile

print(f"bank: {THRESHOLDS.size} branches, thresholds ±0.05..±0.50, "
      f"sampled every {SAMPLE_INTERVAL_S}s")
print(f"qtz(0.7)  -> {qtz(0.7, 0.5, -0.5)}   (at or above the upper threshold)")
print(f"qtz(-0.6) -> {qtz(-0.6, 0.5, -0.5)}   (at or below the lower threshold)")
print(f"qtz(0.0)  -> {qtz(0.0, 0.5, -0.5)}   (inside the band)")


def fingerprint_bits(device, observation, t0, t1):
    return extract(device.prepare(observation), t0, t1)[0]


subjects = [sample_profile(seed, drift_std=0.015) for seed in (11, 22, 33)]
views = {}
for idx, profile in enumerate(subjects):
    scene = PairingScene(
        subjects=(profile,), seed=idx,
        belt_noise_std=0.02, radar_phase_noise_std=0.05,
    )
    belt, radar = observe_scene(scene)
    views[idx] = (
        fingerprint_bits(BeltDevice, belt, 0, 60),
        fingerprint_bits(PrmsDevice, radar, 0, 60),
    )

print(f"\nfingerprint length at 60 s: {views[0][0].size} bits "
      f"({THRESHOLDS.size} branches x 2 x 601 samples)")
print("\npairwise per-bit similarity (belt view vs radar view):")
print("          " + "  ".join(f"radar{j}" for j in range(3)))
for i in range(3):
    sims = [hamming_similarity(views[i][0], views[j][1]) for j in range(3)]
    print(f"  belt{i}   " + "  ".join(f"{s:.3f}" for s in sims))
print("diagonal = same person across modalities; off-diagonal = impostors")
