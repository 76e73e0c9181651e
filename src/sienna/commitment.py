"""Fuzzy commitment of a random salt against a noisy breathing fingerprint.

A salt of N*K bits is RS-encoded to an M*K-bit opening value and XOR-masked
with the fingerprint; the commitment carries the masked word plus a salt
digest. Any fingerprint within the code's correction radius of the
committing one opens the salt; the digest rejects everything else,
including bounded-distance miscorrections.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .bits import Sha256Drbg, as_bits, bits_from_bytes, bits_to_bytes
from .rs import RsCodeSpec

__all__ = [
    "Commitment",
    "OpenOutcome",
    "commit",
    "hash256",
    "kdf",
    "new_salt",
    "open_commitment",
    "serialize_commitment",
    "deserialize_commitment",
    "xor_fold",
]

COMMITMENT_MAGIC = b"SNCM"
COMMITMENT_VERSION = 1
COMMITMENT_HEADER_BYTES = 11  # magic, version, K/M/N as u16

# Domain-separation prefixes: salt digests and key derivation must never
# collide on identical byte strings.
_SALT_HASH_PREFIX = b"\x01"
_KDF_PREFIX = b"\x02"


@dataclass(frozen=True)
class Commitment:
    """Masked codeword (M*K bits) plus the 256-bit salt digest."""

    masked_codeword: np.ndarray
    salt_hash: bytes
    spec: RsCodeSpec

    def __post_init__(self):
        object.__setattr__(self, "masked_codeword", as_bits(self.masked_codeword))
        if self.masked_codeword.size != self.spec.codeword_bits:
            raise ValueError(
                f"masked codeword must be {self.spec.codeword_bits} bits, "
                f"got {self.masked_codeword.size}"
            )
        if len(self.salt_hash) != 32:
            raise ValueError("salt digest must be 32 bytes")


@dataclass(frozen=True)
class OpenOutcome:
    """Result of opening: the salt when recovered, else the failing stage."""

    status: Literal["recovered", "hash-mismatch", "decode-failure"]
    salt: np.ndarray | None = None

    @property
    def recovered(self) -> bool:
        return self.status == "recovered"


def hash256(data: bytes) -> bytes:
    """SHA-256 of a byte string; a bit array would reach hashlib as one byte per bit."""
    if not isinstance(data, bytes):
        raise TypeError(f"hash256 takes bytes, got {type(data).__name__}")
    return hashlib.sha256(data).digest()


def _salt_digest(salt_bits: np.ndarray) -> bytes:
    """Domain-separated SHA-256 of a salt the caller has already validated."""
    return hashlib.sha256(_SALT_HASH_PREFIX + np.packbits(salt_bits).tobytes()).digest()


def new_salt(spec: RsCodeSpec, source: Sha256Drbg | int) -> np.ndarray:
    """Fresh N*K-bit salt from a seeded deterministic CSPRNG."""
    drbg = source if isinstance(source, Sha256Drbg) else Sha256Drbg(source)
    return drbg.bits(spec.message_bits)


def kdf(key: bytes, salt_bits: np.ndarray) -> bytes:
    """Next 256-bit key from the previous key and the evolution salt."""
    if len(key) != 32:
        raise ValueError("key must be 32 bytes")
    return hashlib.sha256(_KDF_PREFIX + key + bits_to_bytes(salt_bits)).digest()


def xor_fold(segments: Sequence[np.ndarray]) -> np.ndarray:
    """Bitwise XOR of equal-length segments (associative, commutative)."""
    if len(segments) == 0:
        raise ValueError("xor_fold needs at least one segment")
    segments = [as_bits(seg) for seg in segments]
    if len({seg.size for seg in segments}) > 1:
        raise ValueError("xor_fold needs segments of equal length")
    return np.bitwise_xor.reduce(segments)


def _opening_value(salt_bits: np.ndarray, spec: RsCodeSpec) -> np.ndarray:
    """RS(salt) as M*K bits."""
    codec = spec.codec()
    return codec.symbols_to_bits(codec.encode(codec.bits_to_symbols(salt_bits)))


def commit(salt_bits: np.ndarray, fingerprint_bits: np.ndarray, spec: RsCodeSpec) -> Commitment:
    """Bind a salt to a fingerprint: mask = RS(salt) XOR fingerprint.

    Both inputs are validated once, here; every later step takes them as
    bit arrays.
    """
    salt_bits = as_bits(salt_bits)
    fingerprint_bits = as_bits(fingerprint_bits)
    if salt_bits.size != spec.message_bits:
        raise ValueError(f"salt must be {spec.message_bits} bits, got {salt_bits.size}")
    if fingerprint_bits.size != spec.codeword_bits:
        raise ValueError(
            f"fingerprint must be {spec.codeword_bits} bits, got {fingerprint_bits.size}"
        )
    return Commitment(
        masked_codeword=_opening_value(salt_bits, spec) ^ fingerprint_bits,
        salt_hash=_salt_digest(salt_bits),
        spec=spec,
    )


def open_commitment(
    commitment: Commitment, fingerprint_bits: np.ndarray, spec: RsCodeSpec
) -> OpenOutcome:
    """Unmask with the candidate fingerprint, RS-decode, confirm the digest.

    A decode that produces a salt failing the digest check is classified
    ``hash-mismatch`` (a binding event), not ``decode-failure``. ``spec``
    must be the commitment's own code. The fingerprint is validated once,
    here; the masked codeword was validated when the commitment was built.
    """
    if spec != commitment.spec:
        raise ValueError("commitment was made under a different RS code than spec")
    fingerprint_bits = as_bits(fingerprint_bits)
    if fingerprint_bits.size != spec.codeword_bits:
        raise ValueError(
            f"fingerprint must be {spec.codeword_bits} bits, got {fingerprint_bits.size}"
        )
    codec = spec.codec()
    noisy_codeword = commitment.masked_codeword ^ fingerprint_bits
    message = codec.decode(codec.bits_to_symbols(noisy_codeword))
    if message is None:
        return OpenOutcome("decode-failure")
    salt_bits = codec.symbols_to_bits(message)
    if _salt_digest(salt_bits) != commitment.salt_hash:
        return OpenOutcome("hash-mismatch")
    return OpenOutcome("recovered", salt=salt_bits)


# -- wire format ------------------------------------------------------------


def serialize_commitment(commitment: Commitment) -> bytes:
    """SNCM wire form: magic, version, K/M/N as u16, mask bytes, digest."""
    spec = commitment.spec
    header = (
        COMMITMENT_MAGIC
        + bytes([COMMITMENT_VERSION])
        + spec.field.k_bits.to_bytes(2, "big")
        + spec.m_symbols.to_bytes(2, "big")
        + spec.n_symbols.to_bytes(2, "big")
    )
    return header + bits_to_bytes(commitment.masked_codeword) + commitment.salt_hash


def deserialize_commitment(data: bytes, spec: RsCodeSpec) -> Commitment:
    """Parse an SNCM blob for ``spec``; any malformed input raises ValueError."""
    if len(data) < COMMITMENT_HEADER_BYTES:
        raise ValueError(f"truncated commitment header: {len(data)} bytes")
    if data[:4] != COMMITMENT_MAGIC:
        raise ValueError("bad commitment magic")
    if data[4] != COMMITMENT_VERSION:
        raise ValueError(f"unsupported commitment version {data[4]}")
    k = int.from_bytes(data[5:7], "big")
    m = int.from_bytes(data[7:9], "big")
    n = int.from_bytes(data[9:11], "big")
    if (k, m, n) != (spec.field.k_bits, spec.m_symbols, spec.n_symbols):
        raise ValueError(f"commitment code ({k},{m},{n}) does not match the session spec")
    mask_end = COMMITMENT_HEADER_BYTES + (spec.codeword_bits + 7) // 8
    if len(data) != mask_end + 32:
        raise ValueError(f"commitment is {len(data)} bytes, expected {mask_end + 32}")
    return Commitment(
        masked_codeword=bits_from_bytes(
            data[COMMITMENT_HEADER_BYTES:mask_end], spec.codeword_bits
        ),
        salt_hash=data[mask_end:],
        spec=spec,
    )
