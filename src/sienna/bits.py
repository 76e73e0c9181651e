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
    "bit_array",
    "bits_from_bytes",
    "bits_to_bytes",
    "random_bits",
    "Sha256Drbg",
]


def bit_array(values) -> np.ndarray:
    """``values`` as a ``uint8`` array of its shape; any element other than
    exactly 0 or 1 (256, -1, 0.9) or a non-numeric dtype raises ``ValueError``."""
    arr = np.asarray(values)
    if arr.dtype == np.uint8:
        stray = arr.max(initial=0) > 1
    elif arr.dtype.kind in "biuf":  # bool, signed, unsigned, float
        stray = ((arr != 0) & (arr != 1)).any()
    else:
        raise ValueError(f"bit strings need a numeric dtype, got {arr.dtype}")
    if stray:
        raise ValueError("bit strings may only contain 0 and 1")
    return arr.astype(np.uint8, copy=False)


def as_bits(values) -> np.ndarray:
    """Coerce a sequence of 0/1 values into a canonical bit array."""
    return bit_array(values).ravel()


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Pack bits MSB-first into bytes, zero-padding the final byte."""
    bits = as_bits(bits)
    return np.packbits(bits).tobytes()


def bits_from_bytes(data: bytes, n_bits: int | None = None) -> np.ndarray:
    """Unpack bytes MSB-first, optionally trimming to ``n_bits``."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if n_bits is not None:
        if not 0 <= n_bits <= bits.size:
            raise ValueError(f"need {n_bits} bits, got {bits.size}")
        bits = bits[:n_bits]
    return bits.astype(np.uint8)


def random_bits(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform bits from a simulation RNG (not for secrets; see Sha256Drbg)."""
    return rng.integers(0, 2, size=n, dtype=np.uint8)


class Sha256Drbg:
    """Deterministic byte/bit stream: SHA-256 over a seed and a block counter.

    Hash-counter DRBGs are a standard seedable CSPRNG construction; salts
    drawn here are reproducible per seed while remaining computationally
    unpredictable without it. The seed is an int in [0, 2^128), hashed as
    its 16 big-endian bytes.
    """

    def __init__(self, seed: int):
        if not 0 <= seed < 1 << 128:
            raise ValueError(f"seed must be in [0, 2^128), got {seed}")
        self._seed = seed.to_bytes(16, "big")
        self._counter = 0
        self._buffer = b""

    def read(self, n_bytes: int) -> bytes:
        if n_bytes < 0:
            raise ValueError(f"cannot read {n_bytes} bytes")
        # Join all missing blocks at once: appending them one at a time
        # copies the buffer per block, quadratic in the request.
        n_blocks = max(0, (n_bytes - len(self._buffer) + 31) // 32)
        counters = range(self._counter, self._counter + n_blocks)
        self._buffer += b"".join(
            hashlib.sha256(self._seed + c.to_bytes(8, "big")).digest() for c in counters
        )
        self._counter += n_blocks
        out, self._buffer = self._buffer[:n_bytes], self._buffer[n_bytes:]
        return out

    def bits(self, n_bits: int) -> np.ndarray:
        n_bytes = (n_bits + 7) // 8
        return bits_from_bytes(self.read(n_bytes), n_bits)
