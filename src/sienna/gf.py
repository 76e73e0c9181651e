"""Finite-field arithmetic over GF(2^K), 2 <= K <= 8, for the Reed-Solomon codec.

Elements are integers in ``[0, 2^K)``, so every symbol fits in one byte.
Addition is XOR; multiplication is carry-less polynomial multiplication
reduced by the width's primitive polynomial, realized through exp/log
tables so the codec hot paths are plain numpy adds and gathers, often with
one operand kept in log form. A product table also lets ``bytes.translate``
multiply a byte string of symbols by one scalar, and a quotient table
divides one symbol by another with one index and no branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = ["DEFAULT_POLYS", "FieldSpec", "GaloisField", "gf_mul"]

# Conventional primitive polynomials (bitmask includes the x^K term). The
# wire carries K alone, so K fixes the polynomial.
DEFAULT_POLYS = {
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x89,
    8: 0x11D,
}


@dataclass(frozen=True)
class FieldSpec:
    """Symbol width K, 2 to 8 bits, of one GF(2^K); ``DEFAULT_POLYS[K]`` reduces it."""

    k_bits: int

    def __post_init__(self):
        if not 2 <= self.k_bits <= 8:
            raise ValueError(f"symbol width must be in [2, 8], got {self.k_bits}")

    @property
    def reduction_poly(self) -> int:
        return DEFAULT_POLYS[self.k_bits]

    @property
    def size(self) -> int:
        return 1 << self.k_bits

    def tables(self) -> "GaloisField":
        return _build_tables(self.k_bits)


class GaloisField:
    """Read-only exp/log tables plus vectorized arithmetic for one field instance.

    ``exp`` is byte-wide (uint8), so a gather from it yields symbols on
    which numpy reductions run one byte per element. ``log[0]`` is the
    sentinel ``2 * order``, and ``exp`` is zero from that index on: a sum
    of two logs lands in the periodic half of ``exp`` when
    both operands are non-zero and in the zero half otherwise. A product is
    then one add and one gather, with no branch on zero operands.
    ``inv_log`` holds the log of each element's inverse, with the same
    sentinel for 0, so a quotient ``a / b`` is ``exp[log[a] + inv_log[b]]``
    and reads 0 when ``b`` is 0.

    ``product_rows`` is the 2^K x 256 product table: row ``c`` is a
    ``bytes.translate`` table that multiplies every symbol of a
    one-byte-per-symbol string by ``c``. ``quotient_rows`` holds the same rows
    re-indexed: row ``b`` maps ``a`` to ``a / b = a * b^-1``, and row 0 maps
    every byte to 0, so indexing a row with a symbol divides it by ``b``.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        q = spec.size
        self.order = order = q - 1
        zero_log = 2 * order
        exp = np.zeros(2 * zero_log + 1, dtype=np.uint8)
        log = np.full(q, zero_log, dtype=np.int64)
        x = 1
        for i in range(order):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & q:
                x ^= spec.reduction_poly
        if x != 1:
            raise ValueError(
                f"0x{spec.reduction_poly:X} is not primitive for GF(2^{spec.k_bits})"
            )
        exp[order:zero_log] = exp[:order]
        inv_log = (order - log) % order
        inv_log[0] = zero_log
        # Every codec of this width shares these tables, so none may change.
        for table in (exp, log, inv_log):
            table.flags.writeable = False
        self.exp = exp
        self.log = log
        self.inv_log = inv_log

    def mul(self, a, b):
        """Element-wise product; scalars and arrays broadcast."""
        out = self.exp[self.log[a] + self.log[b]]
        return int(out) if out.ndim == 0 else out

    @cached_property
    def product_rows(self) -> tuple[bytes, ...]:
        """Row ``c`` maps byte ``v`` to ``c * v``; bytes ``v >= 2^K`` map to 0."""
        q = self.spec.size
        table = np.zeros((q, 256), dtype=np.uint8)
        table[:, :q] = self.exp[self.log[:, None] + self.log[None, :]]
        return tuple(row.tobytes() for row in table)

    @cached_property
    def quotient_rows(self) -> tuple[bytes, ...]:
        """Row ``b`` is the product row of ``b^-1``; the ``inv_log`` sentinel maps 0 to row 0."""
        return tuple(self.product_rows[c] for c in self.exp[self.inv_log])


@lru_cache(maxsize=None)
def _build_tables(k_bits: int) -> GaloisField:
    return GaloisField(FieldSpec(k_bits))


def gf_mul(a: int, b: int, field: FieldSpec) -> int:
    """Product of two field elements under the spec's reduction polynomial."""
    if not 0 <= a < field.size or not 0 <= b < field.size:
        raise ValueError(f"elements must be below 2^{field.k_bits}: got {a}, {b}")
    return field.tables().mul(a, b)
