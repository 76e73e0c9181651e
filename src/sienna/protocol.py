"""Key-evolution pairing protocol between a belt-fed phone (a) and a radar (b).

One round: ``a`` announces an observation window, both devices turn their
breathing observations into folded fingerprints, and ``a`` commits one
sub-salt per jamming-ladder level against its fingerprint. Each commitment
crosses the simulated channel as an SNNA commit frame sent as duplicated
QAM symbols, while ``b`` jams one copy of every pair at that level's power,
stitches its own clean view, decodes the frame, and opens the commitment
with its candidate fingerprints: first the one that opened the previous
level, then the rest in index order. It records the candidate that opened.
After every level is acknowledged both sides XOR the sub-salts into the
evolution salt and derive the next key.

The device observations and channel are simulated, the cryptography and
message formats are real, and every step is deterministic per seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Literal, Sequence

import numpy as np

from .bits import Sha256Drbg, bits_from_bytes, bits_to_bytes, random_bits
from .breathing import (
    DisplacementSeries,
    RadarIQ,
    SubjectProfile,
    belt_observe,
    linear_demodulate,
    radar_observe,
    sample_separable_pair,
    synth_displacement,
)
from .channel import (
    ChannelParams,
    JammingLadder,
    QamSpec,
    dup_and_jam,
    eavesdrop,
    noise_power_for_snr,
    qam_demodulate,
    qam_modulate,
    receiver_stitch,
)
from .commitment import (
    COMMITMENT_HEADER_BYTES,
    Commitment,
    commit,
    hash256,
    kdf,
    new_salt,
    open_commitment,
    serialize_commitment,
    deserialize_commitment,
    xor_fold,
)
from .fingerprint import NORMALIZED_STD, extract, normalize_series, skew
from .ica import MAX_SOURCES, jade_separate, lowpass_filter
from .rs import RsCodeSpec, standard_code

__all__ = [
    "AckNak",
    "Attempt",
    "AttackResult",
    "BeltDevice",
    "CommitMessage",
    "InitMessage",
    "LevelAttackOutcome",
    "PairingOutcome",
    "PairingScene",
    "PipelineConfig",
    "PrmsDevice",
    "ProtocolError",
    "PUBLIC_PARAMETER",
    "SessionState",
    "attack",
    "begin_commit",
    "bootstrap_key",
    "conclude",
    "decode_message",
    "encode_message",
    "handle_ack",
    "initiate",
    "observe_scene",
    "receive_init",
    "run_pairing",
    "slot_window",
    "transcript_to_jsonl",
    "two_subject_scene",
]

WIRE_MAGIC = b"SNNA"
WIRE_VERSION = 2
MSG_INIT, MSG_COMMIT, MSG_ACKNAK = 0x01, 0x02, 0x03
# Where the masked codeword starts in an encoded CommitMessage: after the
# SNNA header, the 4-byte level and the SNCM header.
COMMIT_MASK_OFFSET_BITS = 8 * (len(WIRE_MAGIC) + 2 + 4 + COMMITMENT_HEADER_BYTES)

# Known to every party; the first-round announcement carries its hash in
# place of a key hash, and the first-round prior key derives from it.
PUBLIC_PARAMETER = b"SIENNA-V1-BOOTSTRAP"

# Fixed parameters of the protocol, its devices and its simulated scenes.
QAM = QamSpec(4)  # dialog-code modulation of every frame
RETRY_BUDGET = 3  # reattempts of a ladder level after its first NAK
# Each ladder level commits against its own slot of the announced window;
# 10 s of 10 Hz quantization is 2020 bits, one padded codeword.
COMMIT_SLOT_MS = 10_000
# Model-order selection: eigenvalues of the channels' correlation matrix
# below this fraction of the leading one are treated as distortion/noise, not
# extra subjects. Unlike the covariance, it does not change with channel gain.
SOURCE_RANK_REL = 0.02
RADAR_RATE_HZ = 50.0
BELT_RATE_HZ = 100.0
# Finite-sample ICA leaves a little of each bystander in the separated
# target, so a device with several sources also offers the recombinations
# ``s_i - mu * s_j`` for each of these ``mu``. Candidates are ordered
# most-plausible-first; device b opens its last match first, then the rest
# in that order, and the commitment digest decides, so extra candidates cost
# opens at worst, never a wrong key.
LEAKAGE_GRID = (-0.08, -0.05, -0.02, 0.02, 0.05, 0.08)


def bootstrap_key() -> bytes:
    return hash256(PUBLIC_PARAMETER + b":key0")


class ProtocolError(Exception):
    """A message arrived in a phase where it is not allowed."""


# -- messages and wire format -------------------------------------------------


def _check_uint(value: int, bits: int, what: str) -> None:
    if not 0 <= value < 1 << bits:
        raise ValueError(f"{what} must lie in [0, 2**{bits}), got {value}")


@dataclass(frozen=True)
class InitMessage:
    key_hash: bytes
    t_str: int  # ms on the simulation clock
    t_end: int

    def __post_init__(self):
        if len(self.key_hash) != 32:
            raise ValueError("key hash must be 32 bytes")
        _check_uint(self.t_str, 64, "window start")
        _check_uint(self.t_end, 64, "window end")
        if self.t_end <= self.t_str:
            raise ValueError("observation window must have positive length")


@dataclass(frozen=True)
class CommitMessage:
    level_index: int
    commitment: Commitment

    def __post_init__(self):
        _check_uint(self.level_index, 32, "level")


@dataclass(frozen=True)
class AckNak:
    verdict: Literal["ACK", "NAK"]
    level_index: int

    def __post_init__(self):
        if self.verdict not in ("ACK", "NAK"):
            raise ValueError(f"verdict must be 'ACK' or 'NAK', got {self.verdict!r}")
        _check_uint(self.level_index, 32, "level")


def encode_message(msg: InitMessage | CommitMessage | AckNak) -> bytes:
    """SNNA wire form: magic, version, type, then the fields back to back at
    the widths the type fixes: INIT key hash, u64 window start and end;
    COMMIT u32 level and the SNCM blob; ACKNAK verdict byte and u32 level."""
    if isinstance(msg, InitMessage):
        body = msg.key_hash + msg.t_str.to_bytes(8, "big") + msg.t_end.to_bytes(8, "big")
        mtype = MSG_INIT
    elif isinstance(msg, CommitMessage):
        body = msg.level_index.to_bytes(4, "big") + serialize_commitment(msg.commitment)
        mtype = MSG_COMMIT
    elif isinstance(msg, AckNak):
        verdict = b"\x01" if msg.verdict == "ACK" else b"\x00"
        body = verdict + msg.level_index.to_bytes(4, "big")
        mtype = MSG_ACKNAK
    else:
        raise TypeError(f"not a protocol message: {type(msg)!r}")
    return WIRE_MAGIC + bytes([WIRE_VERSION, mtype]) + body


def _check_body(body: bytes, width: int, what: str) -> None:
    if len(body) != width:
        raise ValueError(f"{what} body must be {width} bytes, got {len(body)}")


def decode_message(data: bytes, rs_spec: RsCodeSpec) -> InitMessage | CommitMessage | AckNak:
    """Parse an SNNA message; any malformed input raises ValueError."""
    if len(data) < 6:
        raise ValueError(f"truncated message header: {len(data)} bytes")
    if data[:4] != WIRE_MAGIC:
        raise ValueError("bad message magic")
    if data[4] != WIRE_VERSION:
        raise ValueError(f"unsupported message version {data[4]}")
    mtype, body = data[5], data[6:]
    if mtype == MSG_INIT:
        _check_body(body, 48, "init")
        t_str, t_end = int.from_bytes(body[32:40], "big"), int.from_bytes(body[40:], "big")
        return InitMessage(body[:32], t_str, t_end)
    if mtype == MSG_COMMIT:
        # deserialize_commitment checks the blob's exact length for rs_spec,
        # so a body shorter than the level fails there too
        level = int.from_bytes(body[:4], "big")
        return CommitMessage(level, deserialize_commitment(body[4:], rs_spec))
    if mtype == MSG_ACKNAK:
        _check_body(body, 5, "acknak")
        if body[0] not in (0, 1):
            raise ValueError(f"verdict must be 0x00 or 0x01, got 0x{body[0]:02x}")
        return AckNak("ACK" if body[0] else "NAK", int.from_bytes(body[1:], "big"))
    raise ValueError(f"unknown message type 0x{mtype:02x}")


# -- session state machine ----------------------------------------------------

Phase = Literal["idle", "committing", "await-ack", "done", "failed"]


@dataclass
class SessionState:
    """Per-device key-evolution state. The key changes only on ``done``."""

    role: Literal["a", "b"]
    current_key: bytes = field(default_factory=bootstrap_key)
    window_ms: tuple[int, int] = (0, 60_000)
    round_index: int = 0
    phase: Phase = "idle"
    level: int = 0
    fail_stage: str | None = None  # set by fail()

    def announce_hash(self) -> bytes:
        return hash256(PUBLIC_PARAMETER if self.round_index == 0 else self.current_key)

    def _require(self, phase: Phase):
        if self.phase != phase:
            raise ProtocolError(f"{self.role}: illegal transition from phase {self.phase!r}")

    def fail(self, stage: str):
        self.phase = "failed"
        self.fail_stage = stage


def initiate(state: SessionState) -> InitMessage:
    """Device a announces the observation window (and key lineage)."""
    if state.role != "a":
        raise ProtocolError("only device a initiates")
    state._require("idle")
    msg = InitMessage(state.announce_hash(), state.window_ms[0], state.window_ms[1])
    state.phase = "committing"
    return msg


def receive_init(state: SessionState, msg: InitMessage) -> None:
    """Device b validates the announcement against its own key lineage."""
    if state.role != "b":
        raise ProtocolError("only device b receives the announcement")
    state._require("idle")
    if msg.key_hash != state.announce_hash():
        state.fail("announce-key-mismatch")
        raise ProtocolError("announced key hash does not match this device's lineage")
    state.window_ms = (msg.t_str, msg.t_end)
    state.phase = "committing"


def begin_commit(state: SessionState, level: int) -> None:
    state._require("committing")
    if level != state.level:
        raise ProtocolError(f"commit level {level} out of order (expected {state.level})")
    state.phase = "await-ack"


def handle_ack(state: SessionState, msg: AckNak, n_levels: int) -> None:
    state._require("await-ack")
    if msg.level_index != state.level:
        raise ProtocolError("acknowledgement for the wrong level")
    if msg.verdict == "ACK":
        state.level += 1
        state.phase = "done" if state.level >= n_levels else "committing"
    else:
        state.phase = "committing"  # caller decides retry vs. fail


def conclude(state: SessionState, salt_bits: np.ndarray) -> bytes:
    """Evolve the key and return the session to ``idle`` for the next round."""
    state._require("done")
    state.current_key = kdf(state.current_key, salt_bits)
    state.round_index += 1
    state.phase, state.level = "idle", 0
    return state.current_key


# -- fingerprint pipelines ----------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """A device's RS code; it sets the fingerprint length. Each device encodes,
    decodes and opens with its own, so a code the two do not share fails
    device b's header check on every commit frame and the round at level 0."""

    rs_spec: RsCodeSpec = field(default_factory=standard_code)


def _orient(series: DisplacementSeries) -> DisplacementSeries:
    """Fix the sign ambiguity of every series by its breathing waveform's skewness.

    Fast inhales and slow exhales leave positively skewed displacement, so
    orienting every modality to positive skew makes belt and separated
    radar views comparable regardless of sensor polarity or ICA sign. The
    sign is that of the third central moment.
    """
    flip = np.asarray(skew(series.samples) < 0)[..., None]
    return replace(series, samples=np.where(flip, -series.samples, series.samples))


def _affine_moments(samples: np.ndarray, weights: np.ndarray):
    """Mean, standard deviation and third central moment of each row of ``weights @ samples``.

    They follow from the (n, T) rows' means, n x n covariance and
    n x n x n third-moment tensor, one pass over T each, so the (C, T) rows
    themselves are never built.
    """
    n = samples.shape[0]
    mean = samples.mean(axis=-1)
    d = samples - mean[:, None]
    pairs = (d[:, None, :] * d[None, :, :]).reshape(n * n, -1)  # d_a * d_b
    cov = pairs.mean(axis=-1)  # (n * n,)
    third = pairs @ d.T / d.shape[-1]  # (n * n, n): mean(d_a * d_b * d_c)
    outer = (weights[:, :, None] * weights[:, None, :]).reshape(len(weights), n * n)
    return weights @ mean, np.sqrt(outer @ cov), np.sum((outer @ third) * weights, axis=-1)


@dataclass(frozen=True)
class _Candidates:
    """Candidate series as an affine map of the sources: ``weights @ sources + offsets``."""

    sources: DisplacementSeries  # (n, T)
    weights: np.ndarray  # (C, n)
    offsets: np.ndarray  # (C,)

    def value_at(self, instants: np.ndarray) -> np.ndarray:
        return self.weights @ self.sources.value_at(instants) + self.offsets[:, None]


@lru_cache(maxsize=None)
def _leakage_mixes(n: int) -> np.ndarray:
    """The recombinations ``s_i - mu * s_j`` of n sources as a read-only
    (rows, n) map, built once per source count. Rows are in the order
    (i, j, mu): every mu of a pair, pair by pair. One source has no pairs,
    so its map has no rows."""
    eye = np.eye(n)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    mixes = np.array([eye[i] - mu * eye[j] for i, j in pairs for mu in LEAKAGE_GRID])
    mixes = mixes.reshape(-1, n)
    mixes.flags.writeable = False
    return mixes


class _Device:
    """One device's fingerprint pipeline over what its sensor gives.

    The device's class picks the pipeline: its ``prepare`` turns the
    observation into sources, normalized and oriented over the whole
    observation so every window is quantized alike. The candidates are
    those rows, then the leakage-corrected recombinations ``s_i - mu * s_j``
    for each ordered pair of distinct sources and each ``mu`` in
    ``LEAKAGE_GRID``, each normalized and oriented likewise. One source has
    no pairs, so its only candidate is itself: the map is the 1 x 1
    identity with a zero offset, and no moments are formed. Recombining,
    normalizing and orienting are affine in the sources, so the device
    keeps the (n, T) sources and a (C, n) map with (C,) offsets, built
    from the sources' moments; a window interpolates the n sources and
    maps them to all C candidates, which it quantizes and folds at once.
    Several windows of one length are interpolated, quantized and folded
    together in the same way, as ``run_pairing`` does with every level's
    first slot.
    """

    def __init__(self, observation, config: PipelineConfig):
        self.config = config
        sources = self.prepare(observation)
        n = sources.samples.shape[0]
        # The sources are already centred, so their rows map to themselves
        # bit for bit: 1.0 * v + 0.0 * w + 0.0 == v.
        eye = np.eye(n)
        weights, offsets = eye, np.zeros(n)
        mixes = _leakage_mixes(n)
        if mixes.size:
            mean, std, third = _affine_moments(sources.samples, mixes)
            # Both sources have std NORMALIZED_STD and |mu| <= 0.08, so
            # std(s_i - mu * s_j) >= NORMALIZED_STD * (1 - |mu|) > 0. The gain
            # normalizes each recombination and orients it to a non-negative
            # third central moment, as _orient does.
            gain = np.where(third < 0, -NORMALIZED_STD, NORMALIZED_STD) / std
            weights = np.concatenate([eye, gain[:, None] * mixes])
            offsets = np.concatenate([offsets, -gain * mean])
        self.candidates = _Candidates(sources, weights, offsets)

    def derive_fingerprints(
        self, window_ms: tuple[int, int] | Sequence[tuple[int, int]]
    ) -> list[np.ndarray]:
        """Folded fingerprint of every candidate over a (t0, t1) window in ms,
        in candidate order.

        Given a sequence of k windows of one length, it returns one (C, n)
        array of them per window, each equal to that window's own call:
        one ``extract`` quantizes all k windows and one fold folds them.
        """
        # A window of plain numbers is divided without an array, which a
        # one-window call (the sense path) would otherwise pay for; any other
        # form converts, and a (2,) array of ms converts to two scalars.
        if isinstance(window_ms[0], (int, float)):
            t_str, t_end = window_ms[0] / 1000.0, window_ms[1] / 1000.0
        else:
            t_str, t_end = (np.asarray(window_ms, dtype=np.float64) / 1000.0).T
        bits = extract(self.candidates, t_str, t_end)
        n = self.config.rs_spec.codeword_bits
        length = bits.shape[-1]  # bits: ([k,] C, L)
        # Zero-pad each row to whole codewords and XOR them into the first.
        padded = np.zeros((*bits.shape[:-1], -(-length // n) * n), dtype=np.uint8)
        padded[..., :length] = bits
        folded = padded[..., :n]
        for start in range(n, padded.shape[-1], n):
            folded ^= padded[..., start : start + n]
        return list(folded)


class BeltDevice(_Device):
    """Device a: phone plus respiratory belt (one fingerprint)."""

    @staticmethod
    def prepare(series: DisplacementSeries) -> DisplacementSeries:
        """Low-pass, normalize and orient the belt series into one (1, T) row."""
        filtered = lowpass_filter(series.samples, series.sample_rate)
        stacked = DisplacementSeries(filtered[None, :], series.sample_rate, series.t_start)
        return _orient(normalize_series(stacked))


class PrmsDevice(_Device):
    """Device b: radar unit; it separates the subjects in its I/Q channels,
    and its candidates are them and their leakage-corrected recombinations,
    held as the sources and a 14 x 2 map when it separates two subjects."""

    @staticmethod
    def prepare(iq_channels: tuple[RadarIQ, ...]) -> DisplacementSeries:
        """Demodulate, low-pass, separate (JADE at the mixture's rank, at most
        ``MAX_SOURCES``), normalize and orient: (n, T), most confident first."""
        bases = {(iq.sample_rate, iq.t_start, iq.i_channel.size) for iq in iq_channels}
        if len(bases) != 1:
            raise ValueError(
                "need at least one radar channel, all on one time base "
                f"(sample rate, start, samples); got {sorted(bases)}"
            )
        ((rate, t_start, _),) = bases
        mixture = np.stack([linear_demodulate(iq) for iq in iq_channels])
        mixture = lowpass_filter(mixture, rate)
        centered = mixture - mixture.mean(axis=1, keepdims=True)
        cov = centered @ centered.T / centered.shape[1]
        sd = np.sqrt(np.diag(cov))
        eigvals = np.linalg.eigvalsh(cov / np.outer(sd, sd))[::-1]
        effective = int(np.sum(eigvals > SOURCE_RANK_REL * eigvals[0]))
        n_sources = min(MAX_SOURCES, effective)
        separation = jade_separate(mixture, n_sources)
        return _orient(normalize_series(DisplacementSeries(separation.sources, rate, t_start)))


def slot_window(
    window_ms: tuple[int, int], n_levels: int, level: int, attempt: int
) -> tuple[int, int]:
    """Commitment sub-window for one (level, attempt) pair.

    Successive levels take successive slots of the announced window; a
    reattempt of a level moves on by ``n_levels`` slots so it re-measures
    a different stretch of breathing. Wraps around when the ladder and
    retries need more slots than the window holds. A wrapped slot is
    committed on twice, and device a's fingerprint of a slot does not
    change, so the two masks XOR to RS(s ^ s'); the code is systematic, so
    anyone on the air reads s ^ s', the XOR of those two sub-salts. Only
    the slot index wraps: a level outside ``[0, n_levels)`` or a negative
    attempt raises ``ValueError``.
    """
    if not 0 <= level < n_levels or attempt < 0:
        raise ValueError(
            f"need 0 <= level < n_levels and attempt >= 0, got level {level} "
            f"of {n_levels}, attempt {attempt}"
        )
    n_slots = max(1, (window_ms[1] - window_ms[0]) // COMMIT_SLOT_MS)
    slot = (level + attempt * n_levels) % n_slots
    t0 = window_ms[0] + slot * COMMIT_SLOT_MS
    return (t0, min(t0 + COMMIT_SLOT_MS, window_ms[1]))


# -- scene harness ------------------------------------------------------------


@dataclass(frozen=True)
class PairingScene:
    """Everything needed to simulate one pairing attempt's observations.

    The belt wearer is ``subjects[0]``; the radar sees everyone.
    """

    subjects: tuple[SubjectProfile, ...]
    belt_noise_std: float = 0.002  # cm
    radar_phase_noise_std: float = 0.004  # rad
    duration_s: float = 61.0
    seed: int = 0


def _radar_mixing(n_subjects: int, seed: int) -> np.ndarray:
    """Path gains keeping each channel's phase arc within the linear regime."""
    rng = np.random.default_rng(seed ^ 0x5CE9E)
    n_channels = max(2, n_subjects)
    base = 0.10 * np.eye(n_channels)[:, :n_subjects]
    cross = rng.uniform(0.02, 0.05, size=(n_channels, n_subjects))
    return base + cross


def two_subject_scene(seed: int, **overrides) -> PairingScene:
    """Default noisy two-person scene with two separable breathing rates."""
    rng = np.random.default_rng(seed)
    return PairingScene(subjects=sample_separable_pair(rng), seed=seed, **overrides)


def observe_scene(scene: PairingScene) -> tuple[DisplacementSeries, tuple[RadarIQ, ...]]:
    """The target's belt series (a ``BeltDevice``'s input) and the radar's
    I/Q channels of everyone (a ``PrmsDevice``'s)."""
    rng = np.random.default_rng(scene.seed)
    sources = np.stack(
        [
            synth_displacement(p, 0.0, scene.duration_s, RADAR_RATE_HZ).samples
            for p in scene.subjects
        ]
    )
    target_hi = synth_displacement(scene.subjects[0], 0.0, scene.duration_s, BELT_RATE_HZ)
    belt = belt_observe(
        target_hi,
        noise_std=scene.belt_noise_std,
        sample_rate=BELT_RATE_HZ,
        seed=int(rng.integers(1 << 31)),
    )
    iqs = []
    for gains in _radar_mixing(len(scene.subjects), scene.seed):
        series = DisplacementSeries(gains @ sources, RADAR_RATE_HZ, 0.0)
        iqs.append(
            radar_observe(
                series,
                theta0=float(rng.uniform(0, 2 * np.pi)),
                phase_noise_std=scene.radar_phase_noise_std,
                seed=int(rng.integers(1 << 31)),
            )
        )
    return belt, tuple(iqs)


# -- pairing run --------------------------------------------------------------


@dataclass(frozen=True)
class Attempt:
    """One commit of a round and b's answer: ``recovered_salt`` and
    ``candidate_used`` are what b opened, both None on a NAK."""

    level_index: int
    retry: int
    jam_power: float
    window_ms: tuple[int, int]
    sub_salt: np.ndarray
    commitment: Commitment
    stitched_bit_errors: int
    recovered_salt: np.ndarray | None
    candidate_used: int | None

    @property
    def verdict(self) -> Literal["ACK", "NAK"]:
        return "ACK" if self.recovered_salt is not None else "NAK"


@dataclass(frozen=True)
class PairingOutcome:
    """A round: a's announcement, every attempt in order, and the keys once
    every level is ACKed. All else is derived from these."""

    init: InitMessage
    attempts: tuple[Attempt, ...]
    key_a: bytes | None
    key_b: bytes | None

    @property
    def levels(self) -> list[Attempt]:
        """Each level's last attempt, ACKed or not: the frames ``attack`` taps."""
        return list({a.level_index: a for a in self.attempts}.values())

    @property
    def evolution_salt(self) -> np.ndarray | None:
        """The XOR of a's ACKed sub-salts, once every level is ACKed."""
        acked = [a.sub_salt for a in self.attempts if a.verdict == "ACK"]
        return xor_fold(acked) if self.key_a is not None else None

    @property
    def failed_level(self) -> int | None:
        """The level whose last attempt NAKed, which ends a round."""
        last = self.attempts[-1]
        return last.level_index if last.verdict == "NAK" else None

    @property
    def success(self) -> bool:
        """Every level was ACKed and both devices derived the same key."""
        return self.key_a is not None and self.key_a == self.key_b


def _on_air(
    level: int, commitment: Commitment, jam_power: float, signal_power: float,
    channel: ChannelParams, rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A level's commit frame heard at ``signal_power`` over the noise floor ``p0``,
    one copy of every symbol pair jammed at ``jam_power``: (payload, jam mask, frame)."""
    payload = bits_from_bytes(encode_message(CommitMessage(level, commitment)))
    symbols = qam_modulate(payload, QAM)
    mask = random_bits(symbols.size, rng)
    noise_power = noise_power_for_snr(signal_power / channel.p0, QAM)
    frame = dup_and_jam(symbols, mask, jam_power / signal_power, rng, noise_power=noise_power)
    return payload, mask, frame


def run_pairing(
    device_a: BeltDevice,
    device_b: PrmsDevice,
    channel: ChannelParams,
    ladder: JammingLadder,
    rng: np.random.Generator,
    *,
    salt_seed: int,
) -> PairingOutcome:
    """Execute one full key-evolution round over the simulated channel.

    ``salt_seed`` seeds the deterministic CSPRNG that draws a's sub-salts.
    The outcome holds a's announcement, one ``Attempt`` per commit, NAKed
    ones included, and the keys once every level is ACKed: a from its own
    ACKed sub-salts, b from the salts it recovered.

    Device b opens each commitment with the previous level's
    ``candidate_used`` first (index 0 at level 0), then with the others in
    index order, and stops at the first that opens: that one is the
    attempt's ``candidate_used``.

    Every level's first attempt uses slot ``slot_window(window, n, level,
    0)``, known from the window alone, so each device derives those slots
    in one ``derive_fingerprints`` call at round start, b over the window
    it decoded from the init frame. A retry derives its slot alone. Only
    the ladder's first attempts are batched, not every slot of the window:
    at six slots the radar's temporaries pass glibc's 128 KB trim
    threshold, and in a tight loop such a call took twice the time of a
    four-slot one, with page faults on every call.
    """
    spec_a, spec_b = device_a.config.rs_spec, device_b.config.rs_spec
    state_a = SessionState(role="a")
    state_b = SessionState(role="b")
    init = initiate(state_a)
    receive_init(state_b, decode_message(encode_message(init), spec_b))

    drbg = Sha256Drbg(salt_seed)
    firsts_a, firsts_b = (
        device.derive_fingerprints(
            [slot_window(state.window_ms, ladder.count, level, 0) for level in range(ladder.count)]
        )
        for device, state in ((device_a, state_a), (device_b, state_b))
    )

    attempts: list[Attempt] = []
    for level_idx, jam_level in enumerate(ladder.levels):
        last_match = attempts[-1].candidate_used if attempts else 0
        for retry in range(RETRY_BUDGET + 1):
            begin_commit(state_a, level_idx)
            begin_commit(state_b, level_idx)
            # Every (re)attempt binds a fresh sub-salt to a fresh slot of the announced
            # window; b derives its candidates for the same slot of the window it
            # received, and re-randomizes its jam mask per transmission.
            window = slot_window(state_a.window_ms, ladder.count, level_idx, retry)
            window_b = slot_window(state_b.window_ms, ladder.count, level_idx, retry)
            fp_a = (device_a.derive_fingerprints(window) if retry else firsts_a[level_idx])[0]
            sub_salt = new_salt(spec_a, drbg)
            commitment = commit(sub_salt, fp_a, spec_a)
            payload, mask, frame_b = _on_air(
                level_idx, commitment, jam_level, channel.p1, channel, rng
            )
            stitched = receiver_stitch(frame_b, mask)
            rx_payload = qam_demodulate(stitched, QAM, n_bits=payload.size)
            recovered_salt = candidate_used = None
            try:
                received = decode_message(bits_to_bytes(rx_payload), spec_b)
            except ValueError:
                received = None
            # A frame that does not parse as this level's commitment is a NAK.
            if isinstance(received, CommitMessage) and received.level_index == level_idx:
                fingerprints = (
                    device_b.derive_fingerprints(window_b) if retry else firsts_b[level_idx]
                )
                order = [last_match] + [c for c in range(len(fingerprints)) if c != last_match]
                for cand_idx in order:
                    opened = open_commitment(received.commitment, fingerprints[cand_idx], spec_b)
                    if opened.recovered:
                        recovered_salt, candidate_used = opened.salt, cand_idx
                        break
            attempt = Attempt(
                level_idx, retry, jam_level, window, sub_salt, commitment,
                int(np.sum(rx_payload != payload)), recovered_salt, candidate_used,
            )
            attempts.append(attempt)
            ack = decode_message(encode_message(AckNak(attempt.verdict, level_idx)), spec_a)
            handle_ack(state_a, ack, ladder.count)
            handle_ack(state_b, ack, ladder.count)
            if attempt.verdict == "ACK":
                break
        if attempt.verdict != "ACK":
            break

    if state_a.phase == "done":
        acked = [a for a in attempts if a.verdict == "ACK"]
        key_a = conclude(state_a, xor_fold([a.sub_salt for a in acked]))
        key_b = conclude(state_b, xor_fold([a.recovered_salt for a in acked]))
    else:
        state_a.fail("commitment-rejected")
        state_b.fail("commitment-rejected")
        key_a = key_b = None
    return PairingOutcome(init, tuple(attempts), key_a, key_b)


def transcript_to_jsonl(outcome: PairingOutcome) -> str:
    """A round's messages as JSON lines in simulated ms: the init at 1, each commit 10
    after the event before it, each ACK/NAK 5 after its commit, and the key derivation,
    once every level is ACKed, with the last ACK. ``bits`` is a commit's frame length."""
    events = [(1, "a->b", "init", {**vars(outcome.init), "key_hash": outcome.init.key_hash.hex()})]
    for i, a in enumerate(outcome.attempts):
        bits = 8 * len(encode_message(CommitMessage(a.level_index, a.commitment)))
        events += [
            (15 * i + 11, "a->b", "commit", dict(level=a.level_index, retry=a.retry, bits=bits)),
            (15 * i + 16, "b->a", "acknak", dict(level=a.level_index, verdict=a.verdict)),
        ]
    if outcome.key_a is not None:
        events.append((events[-1][0], "a<->b", "kdf", {"round": 1}))
    return "".join(
        json.dumps({"t_ms": t_ms, "direction": way, "type": kind, **extra}, sort_keys=True) + "\n"
        for t_ms, way, kind, extra in events
    )


# -- insider attack harness ---------------------------------------------------


@dataclass(frozen=True)
class LevelAttackOutcome:
    level_index: int
    recovered: bool
    ber: float


@dataclass(frozen=True)
class AttackResult:
    per_level: tuple[LevelAttackOutcome, ...]

    @property
    def salt_recovered(self) -> bool:
        """A single level the insider cannot open destroys the evolution salt."""
        return all(lvl.recovered for lvl in self.per_level)


def attack(
    outcome: PairingOutcome,
    p2: float,
    channel: ChannelParams,
    fingerprint: Callable[[tuple[int, int]], np.ndarray],
    *,
    rng: np.random.Generator,
) -> AttackResult:
    """The insider's attack on a round's frames: recover the evolution salt.

    For each level, the insider receives the commit frame of its last
    attempt's commitment at signal power ``p2`` over the channel's noise floor
    ``p0``, with the level's jam over ``p2`` on one copy of every duplicated
    symbol pair. Only that frame's sub-salt survives into the evolution
    salt. The jam mask is drawn afresh: the insider picks one copy of every
    pair at random, so its odds do not depend on which copy was jammed. The
    insider measures their own breathing, so ``fingerprint`` maps any
    commitment window in ms to the exact fingerprint bits, and opens the
    intercepted mask, under the commitment's own code and digest, with it.
    Success requires every sub-salt. Each level's ``ber`` is the bit error
    rate of the insider's view against the transmitted frame.
    """
    per_level = []
    for record in outcome.levels:
        commitment = record.commitment
        payload, _, frame = _on_air(
            record.level_index, commitment, record.jam_power, p2, channel, rng
        )
        estimates = eavesdrop(frame, "random-pick", rng)
        rx_bits = qam_demodulate(estimates, QAM, n_bits=payload.size)
        ber = float(np.mean(rx_bits != payload))
        mask_end = COMMIT_MASK_OFFSET_BITS + commitment.spec.codeword_bits
        intercepted = replace(commitment, masked_codeword=rx_bits[COMMIT_MASK_OFFSET_BITS:mask_end])
        opened = open_commitment(intercepted, fingerprint(record.window_ms), commitment.spec)
        per_level.append(LevelAttackOutcome(record.level_index, opened.recovered, ber))
    return AttackResult(tuple(per_level))
