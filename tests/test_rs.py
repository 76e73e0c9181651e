"""Reed-Solomon codec: naive-encoder oracle, exhaustive small-field decoding."""

import hashlib
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sienna.gf import FieldSpec
from sienna.rs import RsCodeSpec, standard_code

SMALL = RsCodeSpec(FieldSpec(3), 7, 3)


def naive_systematic_encode(message, spec):
    """Oracle: schoolbook polynomial long division with scratch GF helpers."""
    k, poly = spec.field.k_bits, spec.field.reduction_poly

    def mul(a, b):
        prod = 0
        for i in range(k):
            if (b >> i) & 1:
                prod ^= a << i
        for deg in range(2 * k - 2, k - 1, -1):
            if (prod >> deg) & 1:
                prod ^= poly << (deg - k)
        return prod

    # alpha^i by repeated multiplication with x = 0b10
    def alpha(i):
        v = 1
        for _ in range(i):
            v = mul(v, 2)
        return v

    # generator polynomial, highest degree first, roots alpha^0..alpha^(p-1)
    gen = [1]
    for i in range(spec.n_parity):
        root = alpha(i)
        nxt = [0] * (len(gen) + 1)
        for j, c in enumerate(gen):
            nxt[j] ^= mul(c, 1)
            nxt[j + 1] ^= mul(c, root)
        gen = nxt

    # long division of message * x^p by gen
    work = list(message) + [0] * spec.n_parity
    for i in range(spec.n_symbols):
        coef = work[i]
        if coef:
            for j, g in enumerate(gen):
                work[i + j] ^= mul(g, coef)
    return list(message) + work[spec.n_symbols :]


def corrupt(codeword, positions, values):
    out = np.array(codeword, dtype=np.int64)
    for pos, val in zip(positions, values):
        out[pos] ^= val
    return out


def test_correctable_symbols_examples():
    assert standard_code().t == 27
    assert SMALL.t == 2
    assert RsCodeSpec(FieldSpec(8), 255, 253).t == 1


def test_zero_message_encodes_to_zero():
    assert not SMALL.codec().encode(np.zeros(3, dtype=int)).any()


def test_encode_matches_naive_oracle_small_field():
    cw = SMALL.codec().encode([1, 0, 0])
    assert list(cw[:3]) == [1, 0, 0]
    assert list(cw) == naive_systematic_encode([1, 0, 0], SMALL)
    # frozen value computed with the independent oracle above
    assert list(cw) == [1, 0, 0, 2, 3, 5, 5]
    for msg in product(range(8), repeat=3):
        assert list(SMALL.codec().encode(msg)) == naive_systematic_encode(msg, SMALL)


def test_encode_matches_naive_oracle_gf256():
    spec = RsCodeSpec(FieldSpec(8), 255, 245)
    rng = np.random.default_rng(11)
    for _ in range(5):
        msg = rng.integers(0, 256, size=245)
        assert list(spec.codec().encode(msg)) == naive_systematic_encode(msg, spec)


def test_encoder_linearity():
    rng = np.random.default_rng(3)
    spec = standard_code()
    for _ in range(10):
        m1 = rng.integers(0, 256, size=201)
        m2 = rng.integers(0, 256, size=201)
        lhs = spec.codec().encode(m1) ^ spec.codec().encode(m2)
        assert np.array_equal(lhs, spec.codec().encode(m1 ^ m2))


def test_clean_codeword_decodes():
    rng = np.random.default_rng(5)
    spec = standard_code()
    msg = rng.integers(0, 256, size=201)
    assert np.array_equal(spec.codec().decode(spec.codec().encode(msg)), msg)


def test_exhaustive_small_field_up_to_t_errors():
    """Every <=2-symbol corruption of the zero codeword decodes to zero."""
    zero = np.zeros(7, dtype=np.int64)
    decoded = SMALL.codec().decode(zero)
    assert decoded is not None and not decoded.any()
    for pos in range(7):
        for val in range(1, 8):
            got = SMALL.codec().decode(corrupt(zero, [pos], [val]))
            assert got is not None and not got.any()
    for p1, p2 in combinations(range(7), 2):
        for v1 in range(1, 8):
            for v2 in range(1, 8):
                got = SMALL.codec().decode(corrupt(zero, [p1, p2], [v1, v2]))
                assert got is not None and not got.any()


def test_exhaustive_small_field_three_errors_never_silently_zero():
    """3 corruptions exceed t=2: outcome is failure or a non-zero message."""
    zero = np.zeros(7, dtype=np.int64)
    outcomes = {"failure": 0, "miscorrect": 0}
    for positions in combinations(range(7), 3):
        for values in product(range(1, 8), repeat=3):
            got = SMALL.codec().decode(corrupt(zero, positions, values))
            if got is None:
                outcomes["failure"] += 1
            else:
                assert got.any(), "3-error pattern decoded to the zero message"
                outcomes["miscorrect"] += 1
    assert outcomes["failure"] > 0
    assert outcomes["failure"] + outcomes["miscorrect"] == 35 * 7**3


def test_round_trip_random_errors_small_field():
    rng = np.random.default_rng(17)
    for _ in range(300):
        msg = rng.integers(0, 8, size=3)
        cw = SMALL.codec().encode(msg)
        n_err = rng.integers(0, 3)
        pos = rng.choice(7, size=n_err, replace=False)
        vals = rng.integers(1, 8, size=n_err)
        got = SMALL.codec().decode(corrupt(cw, pos, vals))
        assert got is not None and np.array_equal(got, msg)


def test_round_trip_gf256_at_full_correction_capacity():
    spec = standard_code()
    rng = np.random.default_rng(23)
    for _ in range(50):
        msg = rng.integers(0, 256, size=201)
        cw = spec.codec().encode(msg)
        pos = rng.choice(255, size=27, replace=False)
        vals = rng.integers(1, 256, size=27)
        got = spec.codec().decode(corrupt(cw, pos, vals))
        assert got is not None and np.array_equal(got, msg)


def test_decode_failure_is_value_not_exception():
    spec = standard_code()
    cw = spec.codec().encode(np.zeros(201, dtype=int))
    rng = np.random.default_rng(31)
    pos = rng.choice(255, size=120, replace=False)
    vals = rng.integers(1, 256, size=120)
    result = spec.codec().decode(corrupt(cw, pos, vals))
    assert result is None or result.any()


def test_length_and_range_validation():
    with pytest.raises(ValueError):
        SMALL.codec().encode(np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        SMALL.codec().decode(np.zeros(6, dtype=int))
    with pytest.raises(ValueError):
        SMALL.codec().encode([8, 0, 0])
    with pytest.raises(ValueError):
        RsCodeSpec(FieldSpec(3), 8, 3)  # M > 2^K - 1
    with pytest.raises(ValueError):
        RsCodeSpec(FieldSpec(3), 4, 3)  # t = 0


def test_symbols_must_be_integers():
    """Floats, bools and strings are rejected, not truncated or parsed."""
    codec = standard_code().codec()
    cw = codec.encode(np.arange(201) % 256)
    for word in (cw.astype(float) + 0.7, cw.astype(float), cw.astype(bool), cw.astype(str)):
        with pytest.raises(ValueError, match="integers"):
            codec.decode(word)
    for message in (np.ones(201), np.ones(201, dtype=bool), np.array(["1"] * 201)):
        with pytest.raises(ValueError, match="integers"):
            codec.encode(message)
    assert np.array_equal(codec.decode(cw.astype(np.uint8)), np.arange(201) % 256)


def test_codeword_bit_length():
    assert standard_code().codeword_bits == 2040
    assert SMALL.codeword_bits == 21
    assert standard_code().message_bits == 1608


# Odd parity, a shortened code, and a field narrower than a byte.
SOUNDNESS_CODES = {
    "255-222": RsCodeSpec(FieldSpec(8), 255, 222),
    "K8-100-60": RsCodeSpec(FieldSpec(8), 100, 60),
    "K4-15-7": RsCodeSpec(FieldSpec(4), 15, 7),
}


def random_errors(rng, spec, word, n_err):
    pos = rng.choice(spec.m_symbols, size=n_err, replace=False)
    return corrupt(word, pos, rng.integers(1, spec.field.size, size=n_err))


@pytest.mark.parametrize("name", sorted(SOUNDNESS_CODES))
def test_encoder_matches_naive_oracle(name):
    spec = SOUNDNESS_CODES[name]
    rng = np.random.default_rng(41)
    msg = rng.integers(0, spec.field.size, size=spec.n_symbols)
    assert list(spec.codec().encode(msg)) == naive_systematic_encode(msg, spec)


@pytest.mark.parametrize("name", sorted(SOUNDNESS_CODES))
def test_bounded_distance_soundness(name):
    """<= t errors recover; t + 1 never do; any output lies within t."""
    spec = SOUNDNESS_CODES[name]
    codec, t = spec.codec(), spec.t
    rng = np.random.default_rng(43)
    for _ in range(100):
        msg = rng.integers(0, spec.field.size, size=spec.n_symbols)
        cw = codec.encode(msg)
        for n_err in (int(rng.integers(0, t + 1)), t):
            assert np.array_equal(codec.decode(random_errors(rng, spec, cw, n_err)), msg)
        for n_err in (t + 1, int(rng.integers(t + 1, spec.m_symbols + 1))):
            word = random_errors(rng, spec, cw, n_err)
            got = codec.decode(word)
            if got is not None:
                assert not np.array_equal(got, msg)
                assert np.count_nonzero(codec.encode(got) != word) <= t


# Every word of a shortened code (p = 4) and of an odd-parity code (p = 3),
# and 2000 random words of the (7, 3) code.
BRUTE_FORCE_CODES = {
    "K3-7-3": (SMALL, 2000),
    "K3-5-1": (RsCodeSpec(FieldSpec(3), 5, 1), None),
    "K3-5-2": (RsCodeSpec(FieldSpec(3), 5, 2), None),
}


@pytest.mark.parametrize("name", sorted(BRUTE_FORCE_CODES))
def test_decode_equals_brute_force_bounded_distance_small_field(name):
    """Decode returns exactly the message of the unique codeword within t
    symbols, or None."""
    spec, samples = BRUTE_FORCE_CODES[name]
    codec, q, m = spec.codec(), spec.field.size, spec.m_symbols
    messages = np.array(list(product(range(q), repeat=spec.n_symbols)))
    if samples is None:
        words = np.array(list(product(range(q), repeat=m)))
    else:
        rng = np.random.default_rng(47)
        words = np.array([rng.integers(0, q, size=m) for _ in range(samples)])
    # Codewords lie at least 2t + 1 apart, so at most one is within t of a word.
    near = np.full(len(words), -1)
    for i, message in enumerate(messages):
        near[(words != codec.encode(message)).sum(axis=1) <= spec.t] = i
    for word, i in zip(words, near):
        got = codec.decode(word)
        if i >= 0:
            assert got is not None and np.array_equal(got, messages[i])
        else:
            assert got is None
    assert 0 < np.count_nonzero(near >= 0) < len(words)


# The decoder's register is a byte string whose XOR operands carry a
# sentinel top byte; these words put zero symbols at its top and bottom.
REGISTER_EDGE_CODES = {
    "K3-7-3": SMALL,
    "K4-15-7": SOUNDNESS_CODES["K4-15-7"],
    "255-201": standard_code(),
    "255-222": SOUNDNESS_CODES["255-222"],
}


@pytest.mark.parametrize("name", sorted(REGISTER_EDGE_CODES))
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_register_edge_cases(name, data):
    """All-zero and all-(2^K - 1) messages, zero syndromes, and errors
    confined to the first or last positions: <= t errors recover, more
    give None or a message whose codeword lies within t of the word."""
    spec = REGISTER_EDGE_CODES[name]
    codec, t, top = spec.codec(), spec.t, spec.field.size - 1
    fill = data.draw(st.sampled_from(["zero", "top", "random"]))
    if fill == "random":
        seed = data.draw(st.integers(0, 2**32 - 1))
        msg = np.random.default_rng(seed).integers(0, spec.field.size, size=spec.n_symbols)
    else:
        msg = np.full(spec.n_symbols, 0 if fill == "zero" else top, dtype=np.int64)
    cw = codec.encode(msg)
    assert np.array_equal(codec.decode(cw), msg)  # every syndrome is zero

    n_err = data.draw(st.integers(0, min(2 * t + 1, spec.m_symbols)))
    span = max(n_err, t)
    first = data.draw(st.booleans())
    window = range(span) if first else range(spec.m_symbols - span, spec.m_symbols)
    positions = data.draw(
        st.lists(st.sampled_from(window), min_size=n_err, max_size=n_err, unique=True)
    )
    values = data.draw(st.lists(st.integers(1, top), min_size=n_err, max_size=n_err))
    word = corrupt(cw, positions, values)
    got = codec.decode(word)
    if n_err <= t:
        assert np.array_equal(got, msg)
    elif got is not None:
        assert np.count_nonzero(codec.encode(got) != word) <= t


# The six codes of the decoder equivalence checks: two parities of the
# standard length, a shortened code and three fields narrower than a byte.
CORPUS_CODES = {
    "255-201": standard_code(),
    "255-222": SOUNDNESS_CODES["255-222"],
    "K8-100-60": SOUNDNESS_CODES["K8-100-60"],
    "K4-15-7": SOUNDNESS_CODES["K4-15-7"],
    "K3-7-3": SMALL,
    "K2-3-1": RsCodeSpec(FieldSpec(2), 3, 1),
}
CORPUS_DIGEST = "4e1f03b4515666eecda1e7aea6cd5bdc76c83eaa4717a5aa3dbdea7ca9c3f037"


def test_decode_corpus_digest():
    """Every decoder output on a seeded corpus is pinned: on each code,
    codewords with 0..M errors (several words per count on short codes)
    and uniformly random words. ``None`` hashes as its own marker."""
    digest = hashlib.sha256()
    for name, spec in CORPUS_CODES.items():
        codec, q = spec.codec(), spec.field.size
        rng = np.random.default_rng(53)
        words = []
        for n_err in range(spec.m_symbols + 1):
            for _ in range(max(1, 256 // (spec.m_symbols + 1))):
                cw = codec.encode(rng.integers(0, q, size=spec.n_symbols))
                words.append(random_errors(rng, spec, cw, n_err))
        words += list(rng.integers(0, q, size=(64, spec.m_symbols)))
        digest.update(name.encode())
        for word in words:
            got = codec.decode(word)
            digest.update(b"N" if got is None else b"M" + got.astype(np.uint8).tobytes())
    assert digest.hexdigest() == CORPUS_DIGEST
