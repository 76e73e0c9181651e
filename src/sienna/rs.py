"""Bounded-distance Reed-Solomon codec over GF(2^K), 2 <= K <= 8.

The code is systematic with codeword length M and message length N; up to
``t = (M - N) // 2`` corrupted symbols are corrected. The encoder is one
product with a precomputed parity matrix. The decoder computes syndromes,
then runs the reformulated Berlekamp-Massey register for exactly M - N
iterations on a register that holds one symbol per byte. Each iteration
divides the discrepancy by the one saved at the last swap through a row of
a quotient table, with no branch, so it is one scalar-times-vector product
(one ``bytes.translate``) and one XOR of two fixed-length ints. The word
is rejected unless the locator's degree is at most t and equals the
register's LFSR length. Chien search then evaluates the locator alone at
every position, and the word is rejected unless the root count equals the
locator's degree. Forney's formula runs on t slots only: the roots, ranked
into the slots, and zero-magnitude padding.
Every array's shape depends on the code, not on the received word, so
every correctable word runs the same operations, whatever its number of
errors. Decode failure is a returned value (``None``), not an exception:
callers confirm recovered messages through a hash, never through the
decoder alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import FieldSpec

__all__ = ["RsCodeSpec", "RsCodec", "standard_code"]


@dataclass(frozen=True)
class RsCodeSpec:
    """RS code parameters: GF(2^K) symbols, M-symbol codewords, N-symbol messages."""

    field: FieldSpec
    m_symbols: int
    n_symbols: int

    def __post_init__(self):
        if not self.n_symbols < self.m_symbols <= self.field.size - 1:
            raise ValueError(
                f"need N < M <= 2^K - 1, got N={self.n_symbols}, "
                f"M={self.m_symbols}, 2^K-1={self.field.size - 1}"
            )
        if (self.m_symbols - self.n_symbols) // 2 < 1:
            raise ValueError("parity too short to correct a single symbol")

    @property
    def t(self) -> int:
        """Maximum number of corrupted symbols the code is guaranteed to fix."""
        return (self.m_symbols - self.n_symbols) // 2

    @property
    def n_parity(self) -> int:
        return self.m_symbols - self.n_symbols

    @property
    def codeword_bits(self) -> int:
        return self.m_symbols * self.field.k_bits

    @property
    def message_bits(self) -> int:
        return self.n_symbols * self.field.k_bits

    def codec(self) -> "RsCodec":
        return _codec_for(self)


def standard_code() -> RsCodeSpec:
    """The (255, 201) code over GF(2^8) that pairing commits with; t = 27."""
    return RsCodeSpec(FieldSpec(8), 255, 201)


class RsCodec:
    """Table-driven encoder/decoder; every matrix is built once per code, read-only.

    Matrices whose entries are field constants are kept as logs, so a
    product with a word's symbols is one add of log arrays and one gather
    from the field's byte-wide ``exp`` table (see ``GaloisField``), so the
    XOR reductions run on uint8. The decoder's register multiplies through
    the field's ``product_rows`` and divides through its ``quotient_rows``.
    Position ``i`` of a codeword is the coefficient of ``x^(M-1-i)``; the
    message comes first, then the parity symbols.
    """

    def __init__(self, spec: RsCodeSpec):
        self.spec = spec
        self.gf = gf = spec.field.tables()
        order = gf.order
        m, n, p, t = spec.m_symbols, spec.n_symbols, spec.n_parity, spec.t

        # Generator g(x) = prod (x - alpha^i), i < p, lowest degree first.
        gen = np.array([1], dtype=np.int64)
        for i in range(p):
            gen = np.concatenate([[0], gen]) ^ np.append(gf.mul(gf.exp[i], gen), 0)
        g_low = gen[:p]  # x^p = g_low (mod g) in characteristic 2

        # Parity matrix: row i holds the parity of message symbol i, i.e.
        # x^(M-1-i) mod g(x) with parity symbol j the coefficient of
        # x^(p-1-j). Rows follow from x^p mod g by one shift-and-multiply
        # step each: x * r(x) = (r << 1) + r_{p-1} * g_low.
        rows = np.empty((n, p), dtype=np.int64)
        rem = g_low
        for e in range(n):
            rows[e] = rem
            rem = np.concatenate([[0], rem[:-1]]) ^ gf.mul(rem[-1], g_low)
        # Transposed: row j holds the log of parity symbol j's coefficient
        # for every message symbol, so encode reduces along contiguous rows.
        self._parity_log = np.ascontiguousarray(gf.log[rows[::-1, ::-1]].T)

        # Syndromes S_j = r(alpha^j): log alpha^(j * (M-1-i)) per (j, i).
        poly_pos = np.arange(m - 1, -1, -1, dtype=np.int64)
        self._synd_log = (np.arange(p)[:, None] * poly_pos[None, :]) % order

        # Chien search evaluates the locator (degrees 0..t) at every
        # x_i = alpha^-(M-1-i): log x_i^d per (d, i).
        self._locator_log = (-np.arange(t + 1)[:, None] * poly_pos[None, :]) % order
        # Forney evaluates, at the slots only, the high evaluator times
        # x_i^(p-1) (degrees p-1..p+t-2) and the locator's derivative,
        # whose degree-2j term is the locator's degree-(2j+1) coefficient.
        # _forney_log holds log x_i^d per (i, d), so a slot gathers its
        # position's row; _forney_coef picks the coefficients out of the
        # riBM register.
        degrees = np.concatenate([np.arange(t) + p - 1, np.arange(0, t, 2)])
        self._forney_log = (-poly_pos[:, None] * degrees[None, :]) % order
        self._forney_coef = np.concatenate([np.arange(t), np.arange(t + 1, 2 * t + 1, 2)])
        self._slots = np.arange(t + 1)
        self._positions = np.arange(m)
        # Padding slots sit at positions spread over the word, as roots do,
        # not at one shared position: a word with few errors then gathers
        # as many distinct table rows and columns as one with t, which
        # keeps the tail's time flat in the error count.
        self._pad_pos = self._slots * m // (t + 1)
        # One codec serves every caller of its spec (``_codec_for``).
        for table in vars(self).values():
            if isinstance(table, np.ndarray):
                table.flags.writeable = False

    # -- encoding ---------------------------------------------------------

    def encode(self, message: np.ndarray) -> np.ndarray:
        """Systematic codeword: the message, then its parity-matrix product."""
        exp, log = self.gf.exp, self.gf.log
        message = _check_symbols(message, self.spec, self.spec.n_symbols)
        terms = exp[self._parity_log + log[message]]
        return np.concatenate([message, np.bitwise_xor.reduce(terms, axis=1)])

    # -- decoding ---------------------------------------------------------

    def decode(self, received: np.ndarray) -> np.ndarray | None:
        """The message of the unique codeword within t symbols, else None.

        Syndromes, then the register of reformulated Berlekamp-Massey
        (riBM; Sarwate & Shanbhag, IEEE TVLSI 2001) for exactly M - N
        iterations. Where riBM computes ``gamma * (delta >> 1) ^ d0 * theta``
        to avoid inverting gamma, each iteration here computes
        ``delta = (delta >> 1) ^ (d0 / gamma) * theta``, dividing by the
        saved discrepancy as Massey's LFSR synthesis does (IEEE T-IT 1969).
        The quotient is one index into gamma's row of ``quotient_rows``, with
        no branch on zero; the product is one ``bytes.translate`` through a
        row of ``product_rows``; the XOR is one XOR of two ints of fixed
        length. The final register is riBM's times the non-zero constant
        1 / (product of the gammas), so the locator's degree and roots and
        the Forney ratio are riBM's.

        The swap follows Berlekamp-Massey's length update: it happens
        exactly when d0 != 0 and 2L <= r at iteration r, so ``k`` stays
        r - 2L and the register's LFSR length after p iterations is
        L = (p - k) / 2. The word is rejected unless the locator's degree
        is at most t and equals L. Chien search then evaluates only the
        locator (degrees 0..t) at all M positions, and a root count other
        than the degree rejects the word before any Forney work. Ranking the
        roots with a cumulative sum places them in the first of t slots; the
        other slots keep a zero magnitude. Forney's formula (Forney, IEEE
        T-IT 1965) evaluates the high evaluator and the locator's derivative
        at those t slots (non-zero at every root: v distinct roots of a
        degree-v locator are simple).

        These three rejections leave exactly the words within t symbols of
        a codeword, with no syndrome check of the corrected word. The
        register's (lambda, L) is the shortest LFSR that generates
        S_0..S_{p-1}. If deg lambda = L and lambda has L distinct roots at
        code positions X_1..X_L, the order-L recurrence holds from index 0,
        so S_j = sum_k Y_k X_k^j for j < p. Forney's e then has S(e) =
        S(received), and received ^ e is a codeword within L <= t symbols.
        Conversely, the locator of v <= t errors generates the syndromes,
        and as 2v <= p the shortest LFSR is unique, so it is lambda up to
        scale and deg lambda = L = v. If deg lambda < L, the first
        L - deg lambda syndromes are not constrained, and no codeword lies
        within t symbols. No step sizes an array by the data or branches on
        the data except to reject, and every division is a table read, so
        correctable words of any error count run the same operations.
        """
        spec, gf = self.spec, self.gf
        exp, log, inv_log = gf.exp, gf.log, gf.inv_log
        rows, qrows = gf.product_rows, gf.quotient_rows
        received = _check_symbols(received, spec, spec.m_symbols)
        p, t = spec.n_parity, spec.t
        width = p + t + 1  # 3t + 1 for even parity
        # Above its width symbols, the register carries a zero symbol, which
        # the next shift brings in, and the sentinel top byte 3; the product
        # carries two sentinel bytes 3. Shifted, the register's sentinel
        # meets the product's lower one and leaves a zero symbol, so every
        # int here has a fixed length and the XOR's time depends neither on
        # leading zero symbols nor on d0 == 0.
        length = width + 2

        # delta starts as S(x) + x^(width-1); theta starts equal to it. After
        # iteration r, delta holds (lambda * (S + x^(width-1))) / x^r for the
        # scaled locator lambda, so after p iterations delta[t:] is lambda
        # and delta[:t] is the high evaluator (lambda * S) / x^p. The int
        # reg holds delta's symbols little-endian, then a zero symbol and the
        # sentinel.
        syndromes = np.bitwise_xor.reduce(exp[self._synd_log + log[received]], axis=1)
        theta = syndromes.tobytes() + bytes(t) + b"\x01"
        reg = int.from_bytes(theta + b"\x00\x03", "little")
        # qrow is the quotient row of gamma, the discrepancy saved at the
        # last swap (1 at the start), so rows[qrow[d0]] multiplies by d0/gamma.
        qrow, k = qrows[1], 0
        for _ in range(p):
            raw = reg.to_bytes(length, "little")
            d0, shifted = raw[0], raw[1 : width + 1]
            product = theta.translate(rows[qrow[d0]]) + b"\x03\x03"
            reg = (reg >> 8) ^ int.from_bytes(product, "little")
            # The swap is a select: both outcomes cost the same.
            swap = (d0 != 0) & (k >= 0)
            theta = shifted if swap else theta
            qrow = qrows[d0] if swap else qrow
            k = -k - 1 if swap else k + 1
        raw = reg.to_bytes(length, "little")

        # The locator is delta[t:]; 2 * degree must be p - k, twice the
        # register's LFSR length (see the docstring).
        degree = len(raw[t:width].rstrip(b"\x00")) - 1  # -1 if all zero
        if degree > t or 2 * degree != p - k:
            return None
        logs = log[np.frombuffer(raw, dtype=np.uint8, count=width)]

        # Chien search on the locator alone, degrees 0..t.
        terms = exp[self._locator_log + logs[t : 2 * t + 1, None]]
        roots = np.bitwise_xor.reduce(terms, axis=0) == 0
        count = int(roots.sum())
        if count != degree:
            return None
        # Rank and scatter: the r-th root goes to slot r and every other
        # position to a dummy slot t, so the scatter has the same size for
        # any count. Slots count..t-1 keep their padding positions; they
        # and the dummy are not live and get zero magnitudes below.
        slot_of = np.where(roots, np.cumsum(roots) - 1, t)
        slot_pos = self._pad_pos.copy()
        slot_pos[slot_of] = self._positions
        live = self._slots < count

        # Column 0 of evals is the high evaluator, column 1 the locator's
        # derivative, at each slot's position.
        terms = exp[self._forney_log[slot_pos] + logs[self._forney_coef]]
        evals = np.bitwise_xor.reduceat(terms, (0, t), axis=1)
        # Forney with the high evaluator, e_i = x_i^(p-1) omega_h(x_i) / lambda'(x_i);
        # the scale of the riBM locator cancels.
        magnitudes = np.where(live, exp[log[evals[:, 0]] + inv_log[evals[:, 1]]], 0)
        n = spec.n_symbols
        return received[:n] ^ magnitudes[slot_of[:n]]

    # -- bit-level views ----------------------------------------------------

    def symbols_to_bits(self, symbols: np.ndarray) -> np.ndarray:
        """K bits per symbol, most significant first: the low K bits of
        each symbol's byte."""
        octets = np.unpackbits(np.asarray(symbols).astype(np.uint8))
        return octets.reshape(-1, 8)[:, 8 - self.spec.field.k_bits :].ravel()

    def bits_to_symbols(self, bits: np.ndarray) -> np.ndarray:
        """One symbol per K bits: each group, zero-padded to a byte, packs.

        ``bits`` is a bit array as ``as_bits`` returns it (``commitment``
        validates its inputs once); any non-zero entry packs as a 1.
        """
        k = self.spec.field.k_bits
        if bits.size % k:
            raise ValueError(f"bit length {bits.size} is not a multiple of {k}")
        octets = np.zeros((bits.size // k, 8), dtype=np.uint8)
        octets[:, 8 - k :] = bits.reshape(-1, k)
        return np.packbits(octets).astype(np.int64)


@lru_cache(maxsize=None)
def _codec_for(spec: RsCodeSpec) -> RsCodec:
    return RsCodec(spec)


def _check_symbols(values, spec: RsCodeSpec, expected_len: int) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"symbols must be integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=False).ravel()
    if arr.size != expected_len:
        raise ValueError(f"expected {expected_len} symbols, got {arr.size}")
    # The field's size is a power of two and a negative int64 ORs to a
    # negative value, so the OR of all symbols lies in range exactly when
    # every symbol does.
    if not 0 <= np.bitwise_or.reduce(arr) < spec.field.size:
        raise ValueError(f"symbols must lie in [0, {spec.field.size})")
    return arr
