"""Key-evolution pairing protocol between a belt-fed phone (a) and a radar (b).

One round: ``a`` announces an observation window, both devices turn their
breathing observations into folded fingerprints, and ``a`` commits one
sub-salt per jamming-ladder level against its fingerprint. Each commitment
crosses the simulated channel as an SNNA commit frame sent as duplicated
QAM symbols, while ``b`` jams one copy of every pair at that level's power,
stitches its own clean view, decodes the frame, and opens the commitment
with each of its candidate fingerprints. After every level is acknowledged
both sides XOR the sub-salts into the evolution salt and derive the next key.

The device observations and channel are simulated, the cryptography and
message formats are real, and every step is deterministic per seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
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
from .fingerprint import NORMALIZED_STD, extract, normalize_series, segment_pad, skew
from .ica import jade_separate, lowpass_filter
from .rs import RsCodeSpec, standard_code

__all__ = [
    "AckNak",
    "AttackResult",
    "BeltDevice",
    "BeltObservation",
    "CommitMessage",
    "InitMessage",
    "PairingOutcome",
    "PairingScene",
    "PipelineConfig",
    "PrmsDevice",
    "PrmsObservation",
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
    "prepare_series",
    "receive_init",
    "run_pairing",
    "slot_window",
    "transcript_to_jsonl",
    "two_subject_scene",
]

WIRE_MAGIC = b"SNNA"
WIRE_VERSION = 1
MSG_INIT, MSG_COMMIT, MSG_ACKNAK = 0x01, 0x02, 0x03
# Where the masked codeword starts in an encoded CommitMessage: after the
# SNNA header, the length-prefixed 4-byte level, the commitment's length
# prefix and the SNCM header.
COMMIT_MASK_OFFSET_BITS = 8 * (len(WIRE_MAGIC) + 2 + (4 + 4) + 4 + COMMITMENT_HEADER_BYTES)

# Known to every party; the first-round announcement carries its hash in
# place of a key hash, and the first-round prior key derives from it.
PUBLIC_PARAMETER = b"SIENNA-V1-BOOTSTRAP"

# Fixed parameters of the protocol, its devices and its simulated scenes.
QAM = QamSpec(4)  # dialog-code modulation of every frame
RETRY_BUDGET = 3  # reattempts of a ladder level after its first NAK
# Each ladder level commits against its own slot of the announced window;
# 10 s of 10 Hz quantization is 2020 bits, one padded codeword.
COMMIT_SLOT_MS = 10_000
MAX_SOURCES = 2  # the radar separates at most this many subjects
# Model-order selection: mixture eigenvalues below this fraction of the
# leading one are treated as distortion/noise, not extra subjects.
SOURCE_RANK_REL = 0.02
RADAR_RATE_HZ = 50.0
BELT_RATE_HZ = 100.0
# Finite-sample ICA leaves a little of each bystander in the separated
# target, so a device with several sources also offers the recombinations
# ``s_i - mu * s_j`` for each of these ``mu``. Opening walks the candidates
# most-plausible-first and the commitment digest decides, so extra
# candidates cost retries at worst, never a wrong key.
LEAKAGE_GRID = (-0.08, -0.05, -0.02, 0.02, 0.05, 0.08)


def bootstrap_key() -> bytes:
    return hash256(PUBLIC_PARAMETER + b":key0")


class ProtocolError(Exception):
    """A message arrived in a phase where it is not allowed."""


# -- messages and wire format -------------------------------------------------


@dataclass(frozen=True)
class InitMessage:
    key_hash: bytes
    t_str: int  # ms on the simulation clock
    t_end: int

    def __post_init__(self):
        if len(self.key_hash) != 32:
            raise ValueError("key hash must be 32 bytes")
        if self.t_end <= self.t_str:
            raise ValueError("observation window must have positive length")


@dataclass(frozen=True)
class CommitMessage:
    level_index: int
    commitment: Commitment


@dataclass(frozen=True)
class AckNak:
    verdict: Literal["ACK", "NAK"]
    level_index: int


def _field(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data


def encode_message(msg: InitMessage | CommitMessage | AckNak) -> bytes:
    """SNNA wire form: magic, version, type, u32-length-prefixed fields."""
    if isinstance(msg, InitMessage):
        body = (
            _field(msg.key_hash)
            + _field(msg.t_str.to_bytes(8, "big"))
            + _field(msg.t_end.to_bytes(8, "big"))
        )
        mtype = MSG_INIT
    elif isinstance(msg, CommitMessage):
        body = _field(msg.level_index.to_bytes(4, "big")) + _field(
            serialize_commitment(msg.commitment)
        )
        mtype = MSG_COMMIT
    elif isinstance(msg, AckNak):
        body = _field(b"\x01" if msg.verdict == "ACK" else b"\x00") + _field(
            msg.level_index.to_bytes(4, "big")
        )
        mtype = MSG_ACKNAK
    else:
        raise TypeError(f"not a protocol message: {type(msg)!r}")
    return WIRE_MAGIC + bytes([WIRE_VERSION, mtype]) + body


def _split_fields(body: bytes) -> list[bytes]:
    fields, pos = [], 0
    while pos < len(body):
        if pos + 4 > len(body):
            raise ValueError("truncated field length")
        n = int.from_bytes(body[pos : pos + 4], "big")
        pos += 4
        if pos + n > len(body):
            raise ValueError("truncated field body")
        fields.append(body[pos : pos + n])
        pos += n
    return fields


def _uint(data: bytes, width: int, what: str) -> int:
    if len(data) != width:
        raise ValueError(f"{what} must be {width} bytes, got {len(data)}")
    return int.from_bytes(data, "big")


def decode_message(data: bytes, rs_spec: RsCodeSpec) -> InitMessage | CommitMessage | AckNak:
    """Parse an SNNA message; any malformed input raises ValueError."""
    if len(data) < 6:
        raise ValueError(f"truncated message header: {len(data)} bytes")
    if data[:4] != WIRE_MAGIC:
        raise ValueError("bad message magic")
    if data[4] != WIRE_VERSION:
        raise ValueError(f"unsupported message version {data[4]}")
    mtype, fields = data[5], _split_fields(data[6:])
    if mtype == MSG_INIT:
        key_hash, t_str, t_end = fields  # a wrong field count raises ValueError
        return InitMessage(key_hash, _uint(t_str, 8, "window start"), _uint(t_end, 8, "window end"))
    if mtype == MSG_COMMIT:
        level, blob = fields
        return CommitMessage(_uint(level, 4, "level"), deserialize_commitment(blob, rs_spec))
    if mtype == MSG_ACKNAK:
        verdict, level = fields
        if verdict not in (b"\x00", b"\x01"):
            raise ValueError(f"verdict must be 0x00 or 0x01, got {verdict!r}")
        return AckNak("ACK" if verdict == b"\x01" else "NAK", _uint(level, 4, "level"))
    raise ValueError(f"unknown message type 0x{mtype:02x}")


# -- session state machine ----------------------------------------------------

Phase = Literal["idle", "announced", "committing", "await-ack", "done", "failed"]


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

    def _require(self, *phases: Phase):
        if self.phase not in phases:
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
    state.phase = "announced"
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
    state.phase = "announced"


def begin_commit(state: SessionState, level: int) -> None:
    state._require("announced", "committing")
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
    """The RS code both devices must agree on; it sets the fingerprint length."""

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


@dataclass(frozen=True)
class BeltObservation:
    series: DisplacementSeries


@dataclass(frozen=True)
class PrmsObservation:
    iq_channels: tuple[RadarIQ, ...]


def prepare_series(observation: BeltObservation | PrmsObservation) -> DisplacementSeries:
    """Low-pass, demodulate/separate, normalize, and orient one observation.

    Returns the candidate breathing series this device can quantize, stacked
    on one time base with shape (n, T): one row for the belt, one per
    separated source for the radar (in separation confidence order).
    Normalization and orientation happen once over the whole observation so
    every sub-window is quantized consistently.
    """
    if isinstance(observation, BeltObservation):
        series = observation.series
        filtered = lowpass_filter(series.samples, series.sample_rate)
        stacked = DisplacementSeries(filtered[None, :], series.sample_rate, series.t_start)
        return _orient(normalize_series(stacked))

    rate = observation.iq_channels[0].sample_rate
    t_start = observation.iq_channels[0].t_start
    mixture = np.stack([linear_demodulate(iq) for iq in observation.iq_channels])
    mixture = lowpass_filter(mixture, rate)
    centered = mixture - mixture.mean(axis=1, keepdims=True)
    eigvals = np.linalg.eigvalsh(centered @ centered.T / centered.shape[1])[::-1]
    effective = int(np.sum(eigvals > SOURCE_RANK_REL * eigvals[0]))
    n_sources = max(1, min(MAX_SOURCES, mixture.shape[0], effective))
    separation = jade_separate(mixture, n_sources)
    return _orient(normalize_series(DisplacementSeries(separation.sources, rate, t_start)))


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


class _Device:
    """One device's fingerprint pipeline over one observation.

    The candidates are the rows of ``prepare_series``, then the
    leakage-corrected recombinations ``s_i - mu * s_j`` for each ordered
    pair of distinct sources and each ``mu`` in ``LEAKAGE_GRID``, each
    normalized and oriented over the whole observation. Recombining,
    normalizing and orienting are affine in the sources, so the device
    keeps the (n, T) sources and a (C, n) map with (C,) offsets, built
    from the sources' moments; a window interpolates the n sources and
    maps them to all C candidates, which it quantizes and folds at once.
    """

    def __init__(self, observation: BeltObservation | PrmsObservation, config: PipelineConfig):
        self.config = config
        sources = prepare_series(observation)
        n = sources.samples.shape[0]
        eye = np.eye(n)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        # Rows in the order (i, j, mu): every mu of a pair, pair by pair.
        mixes = np.array([eye[i] - mu * eye[j] for i, j in pairs for mu in LEAKAGE_GRID])
        mixes = mixes.reshape(-1, n)
        mean, std, third = _affine_moments(sources.samples, mixes)
        # Both sources have std NORMALIZED_STD and |mu| <= 0.08, so
        # std(s_i - mu * s_j) >= NORMALIZED_STD * (1 - |mu|) > 0. The gain
        # normalizes each recombination and orients it to a non-negative
        # third central moment, as _orient does.
        gain = np.where(third < 0, -NORMALIZED_STD, NORMALIZED_STD) / std
        # The sources are already centred, so their rows map to themselves
        # bit for bit: 1.0 * v + 0.0 * w + 0.0 == v.
        self.candidates = _Candidates(
            sources,
            np.concatenate([eye, gain[:, None] * mixes]),
            np.concatenate([np.zeros(n), -gain * mean]),
        )

    def derive_fingerprints(self, window_ms: tuple[int, int]) -> list[np.ndarray]:
        """Folded fingerprint of every candidate over a window, in candidate order."""
        t_str, t_end = window_ms[0] / 1000.0, window_ms[1] / 1000.0
        bits = extract(self.candidates, t_str, t_end)
        segments = segment_pad(bits, self.config.rs_spec.codeword_bits)
        return list(np.bitwise_xor.reduce(segments, axis=-2))


class BeltDevice(_Device):
    """Device a: phone plus respiratory belt (one fingerprint)."""


class PrmsDevice(_Device):
    """Device b: radar unit; candidates are the separated subjects and their
    leakage-corrected recombinations, held as the sources and a 14 x 2 map
    when the radar separates two subjects."""


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
    anyone on the air reads s ^ s', the XOR of those two sub-salts.
    """
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


def observe_scene(scene: PairingScene) -> tuple[BeltObservation, PrmsObservation]:
    """Belt view of the target subject and the radar's view of everyone."""
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
    return BeltObservation(belt), PrmsObservation(tuple(iqs))


# -- pairing run --------------------------------------------------------------


@dataclass
class LevelRecord:
    """One level of a round; ``window_ms`` and ``commitment`` are its last
    attempt's, ACKed or not, whose commit frame is all a listener sees."""

    level_index: int
    jam_power: float
    retries: int
    verdict: str
    stitched_bit_errors: int
    candidate_used: int | None
    window_ms: tuple[int, int]
    commitment: Commitment


@dataclass
class PairingOutcome:
    key_a: bytes | None
    key_b: bytes | None
    evolution_salt: np.ndarray | None
    transcript: list[dict]
    levels: list[LevelRecord]

    @property
    def failed_level(self) -> int | None:
        """The level that exhausted its retries, which ends a round."""
        return next((lvl.level_index for lvl in self.levels if lvl.verdict != "ACK"), None)

    @property
    def success(self) -> bool:
        """Every level was ACKed and both devices derived the same key."""
        return self.key_a is not None and self.key_a == self.key_b


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
    The outcome holds one ``LevelRecord`` per level tried, with the slot and
    the commitment of its last attempt (what ``attack`` intercepts), and
    the keys and evolution salt once every level is ACKed. The transcript
    is stamped in simulated ms.
    """
    now_ms = 0
    rs_spec = device_a.config.rs_spec
    state_a = SessionState(role="a")
    state_b = SessionState(role="b")
    transcript: list[dict] = []

    def log(direction: str, mtype: str, **extra):
        transcript.append({"t_ms": now_ms, "direction": direction, "type": mtype, **extra})

    init = initiate(state_a)
    now_ms += 1
    log("a->b", "init", t_str=init.t_str, t_end=init.t_end, key_hash=init.key_hash.hex())
    receive_init(state_b, decode_message(encode_message(init), rs_spec))

    drbg = Sha256Drbg(salt_seed)
    noise_main = noise_power_for_snr(channel.snr_main, QAM)

    levels: list[LevelRecord] = []
    sent_salts: list[np.ndarray] = []
    recovered_salts: list[np.ndarray] = []
    for level_idx, jam_level in enumerate(ladder.levels):
        outcome_salt = None
        candidate_used = None
        for attempt in range(RETRY_BUDGET + 1):
            begin_commit(state_a, level_idx)
            begin_commit(state_b, level_idx)
            now_ms += 10
            # Every (re)attempt binds a fresh sub-salt to a fresh slot of
            # the announced window; b derives its candidates for the same
            # slot of the window it received, and re-randomizes its jam mask
            # per transmission.
            window = slot_window(state_a.window_ms, ladder.count, level_idx, attempt)
            window_b = slot_window(state_b.window_ms, ladder.count, level_idx, attempt)
            fp_a = device_a.derive_fingerprints(window)[0]
            sub_salt = new_salt(rs_spec, drbg)
            commitment = commit(sub_salt, fp_a, rs_spec)
            payload = bits_from_bytes(encode_message(CommitMessage(level_idx, commitment)))
            symbols = qam_modulate(payload, QAM)
            mask = random_bits(symbols.size, rng)
            frame_b = dup_and_jam(
                symbols, mask, jam_level / channel.p1, rng, noise_power=noise_main
            )
            log("a->b", "commit", level=level_idx, retry=attempt, bits=int(payload.size))

            stitched = receiver_stitch(frame_b, mask)
            rx_payload = qam_demodulate(stitched, QAM, n_bits=payload.size)
            stitched_errors = int(np.sum(rx_payload != payload))
            try:
                received = decode_message(bits_to_bytes(rx_payload), rs_spec)
            except ValueError:
                received = None
            # A frame that does not parse as this level's commitment is a NAK.
            if isinstance(received, CommitMessage) and received.level_index == level_idx:
                for cand_idx, fp_candidate in enumerate(device_b.derive_fingerprints(window_b)):
                    opened = open_commitment(received.commitment, fp_candidate, rs_spec)
                    if opened.recovered:
                        outcome_salt = opened.salt
                        candidate_used = cand_idx
                        break
            verdict = "ACK" if outcome_salt is not None else "NAK"
            now_ms += 5
            log("b->a", "acknak", level=level_idx, verdict=verdict)
            ack = decode_message(encode_message(AckNak(verdict, level_idx)), rs_spec)
            handle_ack(state_a, ack, ladder.count)
            handle_ack(state_b, ack, ladder.count)
            if verdict == "ACK":
                break

        levels.append(
            LevelRecord(
                level_index=level_idx,
                jam_power=jam_level,
                # The ACKed attempt's index, or the attempt count on failure.
                retries=attempt if verdict == "ACK" else attempt + 1,
                verdict=verdict,
                stitched_bit_errors=stitched_errors,
                candidate_used=candidate_used,
                window_ms=window,
                commitment=commitment,
            )
        )
        if verdict != "ACK":
            break
        sent_salts.append(sub_salt)
        recovered_salts.append(outcome_salt)

    if state_a.phase == "done":
        evolution_salt = xor_fold(sent_salts)
        key_a = conclude(state_a, evolution_salt)
        key_b = conclude(state_b, xor_fold(recovered_salts))
        log("a<->b", "kdf", round=state_a.round_index)
    else:
        state_a.fail("commitment-rejected")
        state_b.fail("commitment-rejected")
        evolution_salt = key_a = key_b = None
    return PairingOutcome(key_a, key_b, evolution_salt, transcript, levels)


def transcript_to_jsonl(transcript: Sequence[dict]) -> str:
    return "\n".join(json.dumps(entry, sort_keys=True) for entry in transcript) + "\n"


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

    For each level, the insider receives the commit frame of the record's
    commitment at signal power ``p2`` over the channel's noise floor
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
    noise_power = noise_power_for_snr(p2 / channel.p0, QAM)
    per_level = []
    for record in outcome.levels:
        commitment = record.commitment
        payload = bits_from_bytes(encode_message(CommitMessage(record.level_index, commitment)))
        symbols = qam_modulate(payload, QAM)
        mask = random_bits(symbols.size, rng)
        frame = dup_and_jam(symbols, mask, record.jam_power / p2, rng, noise_power=noise_power)
        estimates = eavesdrop(frame, "random-pick", rng)
        rx_bits = qam_demodulate(estimates, QAM, n_bits=payload.size)
        ber = float(np.mean(rx_bits != payload))
        mask_end = COMMIT_MASK_OFFSET_BITS + commitment.spec.codeword_bits
        intercepted = replace(commitment, masked_codeword=rx_bits[COMMIT_MASK_OFFSET_BITS:mask_end])
        opened = open_commitment(intercepted, fingerprint(record.window_ms), commitment.spec)
        per_level.append(LevelAttackOutcome(record.level_index, opened.recovered, ber))
    return AttackResult(tuple(per_level))
