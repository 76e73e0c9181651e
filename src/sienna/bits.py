"""Bit-string utilities shared by every layer of the pairing stack.

A bit string is a 1-D ``numpy.uint8`` array whose entries are 0 or 1.
Packing to bytes is big-endian (most significant bit first); a final
partial byte is zero-padded.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "as_bits",
    "bits_from_bytes",
    "bits_to_bytes",
    "random_bits",
    "Sha256Drbg",
    "xor_bits",
]


def as_bits(values) -> np.ndarray:
    """Coerce a sequence of 0/1 values into a canonical bit array."""
    arr = np.asarray(values, dtype=np.uint8).ravel()
    if arr.size and arr.max(initial=0) > 1:
        raise ValueError("bit strings may only contain 0 and 1")
    return arr


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Pack bits MSB-first into bytes, zero-padding the final byte."""
    bits = as_bits(bits)
    return np.packbits(bits).tobytes()


def bits_from_bytes(data: bytes, n_bits: int | None = None) -> np.ndarray:
    """Unpack bytes MSB-first, optionally trimming to ``n_bits``."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if n_bits is not None:
        if n_bits > bits.size:
            raise ValueError(f"need {n_bits} bits, got {bits.size}")
        bits = bits[:n_bits]
    return bits.astype(np.uint8)


def xor_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = as_bits(a), as_bits(b)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    return np.bitwise_xor(a, b)


def random_bits(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform bits from a simulation RNG (not for secrets; see Sha256Drbg)."""
    return rng.integers(0, 2, size=n, dtype=np.uint8)


class Sha256Drbg:
    """Deterministic byte/bit stream: SHA-256 over a seed and a block counter.

    Hash-counter DRBGs are a standard seedable CSPRNG construction; salts
    drawn here are reproducible per seed while remaining computationally
    unpredictable without it.
    """

    def __init__(self, seed: bytes | int | str):
        if isinstance(seed, int):
            seed = seed.to_bytes(16, "big", signed=False)
        elif isinstance(seed, str):
            seed = seed.encode()
        self._seed = bytes(seed)
        self._counter = 0
        self._buffer = b""

    def read(self, n_bytes: int) -> bytes:
        while len(self._buffer) < n_bytes:
            block = hashlib.sha256(
                self._seed + self._counter.to_bytes(8, "big")
            ).digest()
            self._buffer += block
            self._counter += 1
        out, self._buffer = self._buffer[:n_bytes], self._buffer[n_bytes:]
        return out

    def bits(self, n_bits: int) -> np.ndarray:
        n_bytes = (n_bits + 7) // 8
        return bits_from_bytes(self.read(n_bytes), n_bits)
