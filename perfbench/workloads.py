"""The benchmark's three workloads: input generation, one op each, output checks.

Every workload is a closed loop driven by one caller. Inputs are derived
from the workload seed and the op index only, and are generated before the
op's clock starts; an op sees nothing but its generated input. The timed
path calls sienna through its public API (names in each module's
``__all__``, plus the public classes' methods). Module attributes are looked
up at call time, so the traced run can rebind them to record spans.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

import sienna
from sienna import channel, commitment, fingerprint, protocol

# Input classes of commit-open, interleaved in this order: each in-radius
# bin of symbol distances d (t = 27 on the standard code) alternates with an
# open beyond the radius, so half the opens recover and half must not.
IN_RADIUS_BINS = ((0, 9), (9, 18), (18, 28))  # half-open ranges of d
BEYOND_RADIUS = (28, 128)  # t < d < M/2

# Window lengths of the sense workload, in seconds. Each observation runs
# one second longer than its window, as in a pairing session of that length.
SENSE_WINDOWS_S = (6, 12, 24, 48, 60)

# Index of the warm-up input, which no timed op uses.
WARMUP_INDEX = 1 << 32


def input_seed(seed: int, index: int, stream: int) -> int:
    """31-bit seed of input ``index``; ``stream`` keeps workloads apart."""
    state = np.random.SeedSequence([seed, stream, index]).generate_state(1)
    return int(state[0]) & 0x7FFFFFFF


@dataclass
class Checked:
    """Verdict on one op's output.

    ``correct`` is false only when the program produced a wrong output or
    raised; ``succeeded`` additionally requires the outcome a user wants
    (a pairing key), so a pairing the protocol rejected is correct but not
    succeeded. ``digest`` identifies the output bytes.
    """

    correct: bool
    succeeded: bool
    digest: bytes
    detail: str = ""


class PairRound:
    """One full pairing round over a pre-observed two-subject scene."""

    name = "pair-round"
    stream = 1

    def __init__(self):
        self.config = protocol.PipelineConfig()
        self.config.rs_spec.codec()
        self.channel = channel.ChannelParams()
        self.ladder = channel.ladder_levels(1000.0, 1.0)

    def make_input(self, seed: int, index: int):
        scene_seed = input_seed(seed, index, self.stream)
        belt, radar = protocol.observe_scene(protocol.two_subject_scene(scene_seed))
        return scene_seed, belt, radar

    def run_op(self, inp):
        scene_seed, belt, radar = inp
        return protocol.run_pairing(
            protocol.BeltDevice(belt, self.config),
            protocol.PrmsDevice(radar, self.config),
            self.channel,
            self.ladder,
            np.random.default_rng(scene_seed),
            salt_seed=scene_seed,
        )

    def check(self, inp, outcome) -> Checked:
        if not outcome.success:
            rejected = outcome.key_a is None and outcome.key_b is None
            return Checked(rejected, False, b"rejected", "" if rejected else "key on a failed round")
        expected = commitment.kdf(protocol.bootstrap_key(), outcome.evolution_salt)
        ok = outcome.key_a == outcome.key_b == expected
        return Checked(ok, ok, outcome.key_a, "" if ok else "keys differ")

    def samples(self, inp, outcome) -> dict[str, list[float]]:
        return {"stitched_bit_errors": [lvl.stitched_bit_errors for lvl in outcome.levels]}

    def summary(self, samples, prefix_ops: int) -> dict[str, float]:
        return {}


class CommitOpen:
    """One commit on the standard (255, 201) code, then one open at distance d."""

    name = "commit-open"
    stream = 2

    def __init__(self):
        self.spec = sienna.standard_code()
        self.spec.codec()

    def make_input(self, seed: int, index: int):
        spec = self.spec
        rng = np.random.default_rng(input_seed(seed, index, self.stream))
        if index % 2 == 0:
            bin_index = (index // 2) % len(IN_RADIUS_BINS)
            distance = int(rng.integers(*IN_RADIUS_BINS[bin_index]))
        else:
            bin_index = None
            distance = int(rng.integers(*BEYOND_RADIUS))
        salt = rng.integers(0, 2, spec.message_bits, dtype=np.uint8)
        fp = rng.integers(0, 2, spec.codeword_bits, dtype=np.uint8)
        k = spec.field.k_bits
        errors = np.zeros((spec.m_symbols, k), dtype=np.uint8)
        positions = rng.choice(spec.m_symbols, size=distance, replace=False)
        values = rng.integers(1, spec.field.size, size=distance)
        errors[positions] = (values[:, None] >> np.arange(k - 1, -1, -1)) & 1
        return salt, fp, fp ^ errors.ravel(), distance, bin_index

    def run_op(self, inp):
        salt, fp, fp_open, _, _ = inp
        t0 = time.perf_counter_ns()
        sealed = commitment.commit(salt, fp, self.spec)
        t1 = time.perf_counter_ns()
        outcome = commitment.open_commitment(sealed, fp_open, self.spec)
        t2 = time.perf_counter_ns()
        return outcome, t1 - t0, t2 - t1

    def check(self, inp, out) -> Checked:
        salt, _, _, distance, _ = inp
        outcome = out[0]
        expected = distance <= self.spec.t
        ok = outcome.recovered == expected and (
            not outcome.recovered or np.array_equal(outcome.salt, salt)
        )
        detail = "" if ok else f"d={distance} gave {outcome.status}"
        return Checked(ok, ok, outcome.status.encode(), detail)

    def samples(self, inp, out) -> dict[str, list[float]]:
        bin_index = inp[4]
        found = {"commit_ms": [out[1] / 1e6], "open_ms": [out[2] / 1e6]}
        if bin_index is not None:
            found[f"open_ms.bin{bin_index}"] = [out[2] / 1e6]
        return found

    def summary(self, samples, prefix_ops: int) -> dict[str, float]:
        # Criterion 10's guard: decode time must not depend on the error
        # count, so the lower-quartile open time of each in-radius bin
        # should match. Beyond-radius opens stop early, by design.
        quartiles = [
            float(np.percentile(samples[f"open_ms.bin{b}"], 25))
            for b in range(len(IN_RADIUS_BINS))
        ]
        return {
            "commit_ms.p50": float(np.median(samples["commit_ms"])),
            "open_ms.p50": float(np.median(samples["open_ms"])),
            "open_timing_skew": max(quartiles) / min(quartiles),
        }


class Sense:
    """Belt and radar fingerprints of a fresh observation, no codec work."""

    name = "sense"
    stream = 3

    def __init__(self):
        self.config = protocol.PipelineConfig()
        self.config.rs_spec.codec()

    def make_input(self, seed: int, index: int):
        window_s = SENSE_WINDOWS_S[index % len(SENSE_WINDOWS_S)]
        scene = protocol.two_subject_scene(
            input_seed(seed, index, self.stream), duration_s=window_s + 1.0
        )
        belt, radar = protocol.observe_scene(scene)
        return (0, window_s * 1000), belt, radar

    def run_op(self, inp):
        window, belt, radar = inp
        belt_fps = protocol.BeltDevice(belt, self.config).derive_fingerprints(window)
        radar_fps = protocol.PrmsDevice(radar, self.config).derive_fingerprints(window)
        return belt_fps, radar_fps

    def check(self, inp, out) -> Checked:
        fps = [*out[0], *out[1]]
        n_bits = self.config.rs_spec.codeword_bits
        ok = len(out[0]) == 1 and len(out[1]) >= 1 and all(
            fp.size == n_bits and fp.max(initial=0) <= 1 for fp in fps
        )
        digest = hashlib.sha256(b"".join(np.packbits(fp).tobytes() for fp in fps)).digest()
        return Checked(ok, ok, digest, "" if ok else "fingerprint has the wrong length")

    def samples(self, inp, out) -> dict[str, list[float]]:
        belt = out[0][0]
        best = max(fingerprint.hamming_similarity(belt, cand) for cand in out[1])
        return {"agreement": [best]}

    def summary(self, samples, prefix_ops: int) -> dict[str, float]:
        """fp_agreement: mean best belt-to-radar similarity over the prefix."""
        return {"fp_agreement": float(np.mean(samples["agreement"][:prefix_ops]))}


WORKLOADS = {w.name: w for w in (PairRound, CommitOpen, Sense)}
