"""One full pairing round, then the insider tries to steal the salt.

Device a (phone + belt) and device b (radar) observe the same minute of
breathing in a two-person room. a commits one sub-salt per jamming level
against its fingerprint of a 10-second slot; b jams, stitches, opens, and
acknowledges. Both derive the same key. An insider who knows the target's
breathing exactly still loses: at least one ladder level lands in its
effective band and destroys that sub-salt.
"""

import numpy as np

from sienna.breathing import belt_observe, synth_displacement
from sienna.channel import ChannelParams, JammingLadder, ladder_levels
from sienna.protocol import (
    BeltDevice,
    BeltObservation,
    PipelineConfig,
    PrmsDevice,
    attack,
    observe_scene,
    run_pairing,
    transcript_to_jsonl,
    two_subject_scene,
)

config = PipelineConfig()
channel = ChannelParams()  # 15 dB main link above a unit noise floor
ladder = ladder_levels(p_max=1000.0, p0=1.0)
print(f"ladder: {[round(v, 1) for v in ladder.levels]} (factor-9 steps)")

scene = two_subject_scene(seed=5)
rates = [p.resp_rate for p in scene.subjects]
print(f"two subjects breathing at {rates[0]:.1f} and {rates[1]:.1f} breaths/min")

belt_obs, prms_obs = observe_scene(scene)
device_a = BeltDevice(belt_obs, config)
device_b = PrmsDevice(prms_obs, config)

# the insider is the target patient: perfect knowledge of their own breathing
true_series = synth_displacement(scene.subjects[0], 0, scene.duration_s, 100.0)
insider = BeltDevice(BeltObservation(belt_observe(true_series, noise_std=0.0)), config)
fingerprint = lambda w: insider.derive_fingerprints(w)[0]

outcome = run_pairing(
    device_a, device_b, channel, ladder, np.random.default_rng(1),
    salt_seed=99,
)
print(f"\npairing: success={outcome.success}, keys match={outcome.key_a == outcome.key_b}")
for record in outcome.levels:
    print(
        f"  level {record.level_index}: jam {record.jam_power:8.2f}, "
        f"{record.verdict} after {record.retries} retries, "
        f"candidate {record.candidate_used}"
    )
print("transcript head:")
for line in transcript_to_jsonl(outcome.transcript).splitlines()[:3]:
    print("  " + line)

result = attack(outcome, channel.p1, channel, fingerprint, rng=np.random.default_rng(2))
print(f"\ninsider with the ladder active: salt recovered = {result.salt_recovered}")
for lvl in result.per_level:
    print(f"  level {lvl.level_index}: recovered={lvl.recovered}, commitment BER {lvl.ber:.3f}")

quiet = run_pairing(
    device_a, device_b, channel, JammingLadder((0.0,)), np.random.default_rng(3),
    salt_seed=100,
)
undefended = attack(quiet, channel.p1, channel, fingerprint, rng=np.random.default_rng(4))
print(f"\nsame insider with jamming disabled: salt recovered = {undefended.salt_recovered}")
print("the jamming, not the fuzziness, is what shuts the insider out")
