"""Fuzzy commitment: completeness within t symbols, binding beyond it."""

import hashlib
from itertools import combinations, product

import numpy as np
import pytest

from sienna.bits import Sha256Drbg, bits_from_bytes, bits_to_bytes, random_bits
from sienna.commitment import (
    Commitment,
    commit,
    deserialize_commitment,
    hash256,
    kdf,
    new_salt,
    open_commitment,
    serialize_commitment,
    xor_fold,
)
from sienna.gf import FieldSpec
from sienna.randomness import gf2_rank, gf2_rank_rate
from sienna.rs import RsCodeSpec, standard_code

SMALL = RsCodeSpec(FieldSpec(3), 7, 3)  # t = 2, 21-bit codewords, 9-bit salts


def flip_symbols(bits, spec, positions, values):
    """Corrupt whole code symbols of a bit string."""
    out = np.array(bits, dtype=np.uint8)
    k = spec.field.k_bits
    for pos, val in zip(positions, values):
        for b in range(k):
            out[pos * k + b] ^= (val >> (k - 1 - b)) & 1
    return out


def test_zero_error_identity():
    rng = np.random.default_rng(1)
    salt = new_salt(SMALL, 42)
    fp = random_bits(SMALL.codeword_bits, rng)
    out = open_commitment(commit(salt, fp, SMALL), fp, SMALL)
    assert out.recovered and np.array_equal(out.salt, salt)


def test_zero_fingerprint_reveals_codeword():
    salt = new_salt(SMALL, 7)
    fp = np.zeros(SMALL.codeword_bits, dtype=np.uint8)
    c = commit(salt, fp, SMALL)
    codec = SMALL.codec()
    codeword_bits = codec.symbols_to_bits(codec.encode(codec.bits_to_symbols(salt)))
    assert np.array_equal(c.masked_codeword, codeword_bits)


def test_two_commitments_on_one_fingerprint_reveal_the_xor_of_their_salts():
    """Why no slot may carry two commitments: device a's fingerprint of a slot
    is fixed, so two masks on it XOR to RS(s ^ s'), a codeword with no
    fingerprint left in it, and the code is systematic, so anyone holding
    both masks reads s ^ s' from their first message_bits bits."""
    spec = standard_code()
    drbg = Sha256Drbg(31)
    s, s_prime = new_salt(spec, drbg), new_salt(spec, drbg)
    fp = random_bits(spec.codeword_bits, np.random.default_rng(31))
    masks = commit(s, fp, spec).masked_codeword ^ commit(s_prime, fp, spec).masked_codeword
    assert np.array_equal(masks, commit(s ^ s_prime, np.zeros_like(fp), spec).masked_codeword)
    assert np.array_equal(masks[: spec.message_bits], s ^ s_prime)
    assert not np.array_equal(s, s_prime)


def test_exhaustive_completeness_small_field():
    """Opens succeed for every fingerprint within 2 symbol corruptions."""
    rng = np.random.default_rng(5)
    salt = new_salt(SMALL, 99)
    fp = random_bits(SMALL.codeword_bits, rng)
    c = commit(salt, fp, SMALL)
    for n_err in (1, 2):
        for positions in combinations(range(7), n_err):
            for values in product(range(1, 8), repeat=n_err):
                noisy = flip_symbols(fp, SMALL, positions, values)
                out = open_commitment(c, noisy, SMALL)
                assert out.recovered and np.array_equal(out.salt, salt)


def test_exhaustive_binding_small_field_three_symbol_errors():
    """Three corrupted symbols never silently recover the committed salt."""
    rng = np.random.default_rng(6)
    salt = new_salt(SMALL, 123)
    fp = random_bits(SMALL.codeword_bits, rng)
    c = commit(salt, fp, SMALL)
    statuses = set()
    for positions in combinations(range(7), 3):
        for values in product(range(1, 8), repeat=3):
            noisy = flip_symbols(fp, SMALL, positions, values)
            out = open_commitment(c, noisy, SMALL)
            assert not out.recovered
            statuses.add(out.status)
    assert "hash-mismatch" in statuses  # miscorrections are caught by the digest


def test_random_wrong_fingerprints_rejected():
    """Monte Carlo binding surrogate at the production code size."""
    spec = standard_code()
    drbg = Sha256Drbg(2718)
    salt = new_salt(spec, drbg)
    rng = np.random.default_rng(8)
    fp = random_bits(spec.codeword_bits, rng)
    c = commit(salt, fp, spec)
    rejected = 0
    for _ in range(1000):
        wrong = random_bits(spec.codeword_bits, rng)
        out = open_commitment(c, wrong, spec)
        if not out.recovered:
            rejected += 1
    assert rejected >= 999


def test_fold_then_open_equals_prefolded_open():
    """XOR-chain consistency: folding segments commutes with opening."""
    spec = SMALL
    rng = np.random.default_rng(9)
    segs = [random_bits(spec.codeword_bits, rng) for _ in range(3)]
    salt = new_salt(spec, 4)
    folded = xor_fold(segs)
    c = commit(salt, folded, spec)
    out = open_commitment(c, xor_fold([segs[2], segs[0], segs[1]]), spec)
    assert out.recovered and np.array_equal(out.salt, salt)


def test_xor_fold_examples():
    rng = np.random.default_rng(10)
    f = random_bits(21, rng)
    assert np.array_equal(xor_fold([f]), f)
    assert not xor_fold([f, f]).any()
    f2, f3 = random_bits(21, rng), random_bits(21, rng)
    assert np.array_equal(xor_fold([f, f2, f3]), xor_fold([f3, f, f2]))
    with pytest.raises(ValueError):
        xor_fold([])
    with pytest.raises(ValueError):
        xor_fold([f, random_bits(20, rng)])


def test_hash256_published_empty_vector():
    expected = bytes.fromhex(
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
    assert hash256(b"") == expected
    assert hashlib.sha256(b"").digest() == expected


def test_hash256_takes_bytes_only():
    """numpy would hand hashlib one byte per bit, so a bit array is refused."""
    with pytest.raises(TypeError):
        hash256(np.zeros(8, dtype=np.uint8))


def test_hash256_deterministic_and_avalanche():
    rng = np.random.default_rng(11)
    bits = random_bits(512, rng)
    assert hash256(bits_to_bytes(bits)) == hash256(bits_to_bytes(bits.copy()))
    flips = []
    for _ in range(1000):
        bits = random_bits(512, rng)
        other = bits.copy()
        other[rng.integers(0, 512)] ^= 1
        d = np.bitwise_xor(
            bits_from_bytes(hash256(bits_to_bytes(bits))),
            bits_from_bytes(hash256(bits_to_bytes(other))),
        ).sum()
        assert d >= 1
        flips.append(d)
    assert 118 <= np.mean(flips) <= 138  # ~128 of 256 bits flip on average


def test_salt_lengths_validated():
    rng = np.random.default_rng(12)
    with pytest.raises(ValueError):
        commit(random_bits(8, rng), random_bits(21, rng), SMALL)
    with pytest.raises(ValueError):
        commit(random_bits(9, rng), random_bits(20, rng), SMALL)
    c = commit(new_salt(SMALL, 1), random_bits(21, rng), SMALL)
    with pytest.raises(ValueError):
        open_commitment(c, random_bits(22, rng), SMALL)


def test_non_bit_values_rejected():
    rng = np.random.default_rng(16)
    salt, fp = new_salt(SMALL, 2), random_bits(21, rng)
    for bad_salt, bad_fp in ((salt * 2, fp), (salt, fp * 2)):
        with pytest.raises(ValueError, match="only contain 0 and 1"):
            commit(bad_salt, bad_fp, SMALL)
    with pytest.raises(ValueError, match="only contain 0 and 1"):
        open_commitment(commit(salt, fp, SMALL), fp * 2, SMALL)


def test_bits_out_of_range_are_rejected_whatever_their_dtype():
    """Values a uint8 cast would wrap (256, -1) or truncate (0.9), and
    strings, are not bits; exact 0/1 floats and bools are."""
    spec = standard_code()
    fp = random_bits(spec.codeword_bits, np.random.default_rng(17))
    c = commit(new_salt(spec, 6), fp, spec)
    assert open_commitment(c, fp.astype(float), spec).recovered
    assert open_commitment(c, fp.astype(bool), spec).recovered
    wide = fp.astype(np.int64)
    for bad in (wide + 256, -wide, fp * 0.9, fp.astype(str)):
        with pytest.raises(ValueError):
            open_commitment(c, bad, spec)
        rows = np.stack([bad, bad])
        with pytest.raises(ValueError):
            gf2_rank(rows)
        with pytest.raises(ValueError):
            gf2_rank_rate(rows)


def test_open_rejects_a_spec_other_than_the_commitments():
    spec = standard_code()
    fingerprint = random_bits(spec.codeword_bits, np.random.default_rng(15))
    c = commit(new_salt(spec, 5), fingerprint, spec)
    assert open_commitment(c, fingerprint, spec).recovered
    with pytest.raises(ValueError):
        open_commitment(c, fingerprint, RsCodeSpec(FieldSpec(8), 255, 223))


def test_serialization_round_trip():
    spec = standard_code()
    rng = np.random.default_rng(13)
    c = commit(new_salt(spec, 77), random_bits(spec.codeword_bits, rng), spec)
    blob = serialize_commitment(c)
    assert blob[:4] == b"SNCM"
    assert len(blob) == 4 + 1 + 6 + 255 + 32
    back = deserialize_commitment(blob, spec)
    assert np.array_equal(back.masked_codeword, c.masked_codeword)
    assert back.salt_hash == c.salt_hash
    with pytest.raises(ValueError):
        deserialize_commitment(b"XXXX" + blob[4:], spec)
    with pytest.raises(ValueError):
        deserialize_commitment(blob, SMALL)


def test_deserialize_rejects_short_header_and_trailing_bytes():
    rng = np.random.default_rng(14)
    blob = serialize_commitment(commit(new_salt(SMALL, 3), random_bits(21, rng), SMALL))
    assert deserialize_commitment(blob, SMALL).salt_hash == blob[-32:]
    for cut in range(len(blob)):  # every strict prefix, b"SNCM" included
        with pytest.raises(ValueError):
            deserialize_commitment(blob[:cut], SMALL)
    with pytest.raises(ValueError):
        deserialize_commitment(blob + b"xx", SMALL)


def test_commitment_field_validation():
    with pytest.raises(ValueError):
        Commitment(np.zeros(20, dtype=np.uint8), b"\x00" * 32, SMALL)
    with pytest.raises(ValueError):
        Commitment(np.zeros(21, dtype=np.uint8), b"\x00" * 31, SMALL)


def test_kdf_determinism_and_order_sensitivity():
    k = hash256(b"initial")
    drbg = Sha256Drbg(555)
    s1 = new_salt(SMALL, drbg)
    s2 = new_salt(SMALL, drbg)
    assert kdf(k, s1) == kdf(k, s1)
    assert kdf(k, s1) != kdf(k, s2)
    assert kdf(kdf(k, s1), s2) != kdf(kdf(k, s2), s1)
    flipped = s1.copy()
    flipped[3] ^= 1
    assert kdf(k, flipped) != kdf(k, s1)
    with pytest.raises(ValueError):
        kdf(b"short", s1)


def test_concealment_masked_codeword_looks_random():
    """Fixed salt, random fingerprints: the mask passes monobit and runs."""
    from sienna.randomness import randomness_tests

    spec = standard_code()
    salt = new_salt(spec, 31337)
    rng = np.random.default_rng(14)
    passes_mono = passes_runs = 0
    trials = 200
    for _ in range(trials):
        fp = random_bits(spec.codeword_bits, rng)
        c = commit(salt, fp, spec)
        report = randomness_tests(c.masked_codeword)
        passes_mono += report.monobit_p >= 0.01
        passes_runs += report.runs_p >= 0.01
    # alpha = 0.01 rejects ~1% of truly random strings
    assert passes_mono >= 0.95 * trials
    assert passes_runs >= 0.95 * trials
