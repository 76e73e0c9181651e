"""Level-crossing fingerprints: same person agrees, different people differ.

A bank of ten threshold pairs turns a breathing window into a binary
fingerprint (two bits per sample per branch, code 11 never occurs). Belt
and radar views of the same person produce nearly identical bits; another
person's bits disagree far beyond what error correction would bridge.
"""

import numpy as np

from sienna.fingerprint import default_bank, extract, hamming_similarity, qtz
from sienna.protocol import PairingScene, observe_scene, prepare_series
from sienna.breathing import sample_profile

bank = default_bank()
print(f"bank: {bank.count} branches, thresholds ±0.05..±0.50, sampled every {bank.sample_interval}s")
print(f"qtz(0.7)  -> {qtz(0.7, 0.5, -0.5)}   (at or above the upper threshold)")
print(f"qtz(-0.6) -> {qtz(-0.6, 0.5, -0.5)}   (at or below the lower threshold)")
print(f"qtz(0.0)  -> {qtz(0.0, 0.5, -0.5)}   (inside the band)")


def fingerprint_bits(observation, t0, t1):
    return extract(prepare_series(observation), t0, t1, bank).bits[0]


subjects = [sample_profile(seed, drift_std=0.015) for seed in (11, 22, 33)]
views = {}
for idx, profile in enumerate(subjects):
    scene = PairingScene(
        subjects=(profile,), seed=idx,
        belt_noise_std=0.02, radar_phase_noise_std=0.05,
    )
    belt_obs, prms_obs = observe_scene(scene)
    views[idx] = (fingerprint_bits(belt_obs, 0, 60), fingerprint_bits(prms_obs, 0, 60))

print(f"\nfingerprint length at 60 s: {views[0][0].size} bits "
      f"({bank.count} branches x 2 x 601 samples)")
print("\npairwise per-bit similarity (belt view vs radar view):")
print("          " + "  ".join(f"radar{j}" for j in range(3)))
for i in range(3):
    sims = [hamming_similarity(views[i][0], views[j][1]) for j in range(3)]
    print(f"  belt{i}   " + "  ".join(f"{s:.3f}" for s in sims))
print("diagonal = same person across modalities; off-diagonal = impostors")
