"""Randomness metrics against closed-form and reference behaviors."""

import hashlib

import numpy as np
import pytest

from sienna.bits import Sha256Drbg, random_bits
from sienna.commitment import commit, new_salt
from sienna.gf import FieldSpec
from sienna.randomness import (
    approximate_entropy,
    gf2_rank,
    gf2_rank_rate,
    monobit_test,
    randomness_tests,
    runs_test,
)
from sienna.rs import RsCodeSpec

SMALL = RsCodeSpec(FieldSpec(3), 7, 3)  # 21-bit codewords, 9-bit salts


def test_all_zeros_fails_monobit():
    report = randomness_tests(np.zeros(1000, dtype=np.uint8))
    assert report.monobit_p < 1e-10


def test_alternation_passes_monobit_fails_runs():
    bits = np.tile([0, 1], 500).astype(np.uint8)
    report = randomness_tests(bits)
    assert report.monobit_p == pytest.approx(1.0)
    assert report.runs_p < 1e-10


def test_runs_pre_check_short_circuit():
    bits = np.concatenate([np.ones(900, dtype=np.uint8), np.zeros(100, dtype=np.uint8)])
    assert runs_test(bits) == 0.0


def test_monobit_and_runs_reject_an_empty_string():
    for test in (monobit_test, runs_test):
        with pytest.raises(ValueError):
            test(np.zeros(0, dtype=np.uint8))


@pytest.mark.parametrize("bits", [np.ones(10), np.zeros(1), np.ones(1), np.zeros(15)])
def test_runs_of_a_constant_string_below_16_bits_is_zero(bits):
    """Below 16 bits the frequency pre-check does not fire, and pi(1 - pi)
    = 0 divides; 0.0 is the formula's limit and the pre-check's verdict."""
    assert runs_test(bits) == 0.0


def test_nist_worked_example_monobit():
    # 1011010101 from the NIST SP 800-22 frequency-test walkthrough: p ~ 0.527
    bits = np.array([1, 0, 1, 1, 0, 1, 0, 1, 0, 1], dtype=np.uint8)
    assert monobit_test(bits) == pytest.approx(0.527089, abs=1e-5)


def test_nist_worked_example_runs():
    # 1001101011 from the NIST SP 800-22 runs-test walkthrough: p ~ 0.147232
    bits = np.array([1, 0, 0, 1, 1, 0, 1, 0, 1, 1], dtype=np.uint8)
    assert runs_test(bits) == pytest.approx(0.147232, abs=1e-5)


def test_nist_worked_example_apen():
    # 0100110101 with m=3 from the NIST SP 800-22 ApEn walkthrough
    bits = np.array([0, 1, 0, 0, 1, 1, 0, 1, 0, 1], dtype=np.uint8)
    assert approximate_entropy(bits, block_len=3) == pytest.approx(0.190954, abs=1e-6)


def test_apen_needs_a_block_of_at_least_one_bit():
    with pytest.raises(ValueError):
        approximate_entropy(np.zeros(100, dtype=np.uint8), block_len=0)


def test_csprng_output_passes_all_three():
    bits = Sha256Drbg(1234).bits(1_000_000)
    report = randomness_tests(bits)
    assert report.monobit_p >= 0.01
    assert report.runs_p >= 0.01
    assert report.approx_entropy_per_bit > 0.999


def test_drbg_seed_is_an_int_below_2_128():
    for seed in (-1, 1 << 128):
        with pytest.raises(ValueError):
            Sha256Drbg(seed)
    # Block 0 hashes the seed's 16 big-endian bytes and an 8-byte counter.
    top = Sha256Drbg((1 << 128) - 1).read(32)
    assert top == hashlib.sha256(b"\xff" * 16 + bytes(8)).digest()


def test_drbg_stream_across_odd_size_reads_is_pinned():
    """Reads that split and straddle 32-byte blocks give the pinned stream."""
    drbg = Sha256Drbg(2024)
    stream = hashlib.sha256()
    for n_bytes in (1, 31, 33, 1000):
        stream.update(drbg.read(n_bytes))
    stream.update(drbg.bits(10**6).tobytes())
    assert stream.hexdigest() == "66af249a6a020f4461140f96a941ac83c75094c5cd9ad002db31f338b4b04089"


def test_drbg_rejects_a_negative_read():
    drbg = Sha256Drbg(2024)
    head = drbg.read(5)
    with pytest.raises(ValueError):
        drbg.read(-3)
    assert head + drbg.read(27) == Sha256Drbg(2024).read(32)


def test_biased_source_low_entropy():
    rng = np.random.default_rng(0)
    bits = (rng.random(100_000) < 0.1).astype(np.uint8)
    report = randomness_tests(bits)
    assert report.approx_entropy_per_bit < 0.6


def test_report_fields_in_range():
    rng = np.random.default_rng(1)
    report = randomness_tests(rng.integers(0, 2, 5000, dtype=np.uint8))
    assert 0.0 <= report.monobit_p <= 1.0
    assert 0.0 <= report.runs_p <= 1.0
    assert 0.0 <= report.approx_entropy_per_bit <= 1.0


def test_too_short_input_rejected():
    with pytest.raises(ValueError):
        randomness_tests(np.ones(99, dtype=np.uint8))


def test_drbg_bits_full_gf2_rank():
    samples = Sha256Drbg(5).bits(600 * 500).reshape(600, 500)
    assert gf2_rank(samples[:200]) == 200
    assert gf2_rank_rate(samples) == 1.0


def test_planted_xor_dependency_lowers_rank_by_one():
    rows = Sha256Drbg(11).bits(100 * 300).reshape(100, 300)
    assert gf2_rank(rows) == 100
    assert gf2_rank_rate(rows) == 99 / 300
    rows[7] = rows[1] ^ rows[2] ^ rows[3]
    assert gf2_rank(rows) == 99
    # an odd XOR of samples is also an affine dependency among x_i ^ x_0
    assert gf2_rank_rate(rows) == 98 / 300


def test_gf2_rank_rejects_bad_shapes():
    with pytest.raises(ValueError):
        gf2_rank(np.zeros(8, dtype=np.uint8))
    with pytest.raises(ValueError):
        gf2_rank_rate(np.zeros((1, 8), dtype=np.uint8))


def test_rank_rate_sees_rs_parity_and_rejects_random_parity():
    # R = codeword_bits + 64 differences, as the commitment-entropy scenario uses
    drbg = Sha256Drbg(21)
    fingerprint = random_bits(SMALL.codeword_bits, np.random.default_rng(3))
    honest = np.stack(
        [
            commit(new_salt(SMALL, drbg), fingerprint, SMALL).masked_codeword
            for _ in range(SMALL.codeword_bits + 65)
        ]
    )
    assert gf2_rank_rate(honest) == SMALL.message_bits / SMALL.codeword_bits
    forged = honest.copy()
    parity_bits = SMALL.codeword_bits - SMALL.message_bits
    random_parity = drbg.bits(forged.shape[0] * parity_bits).reshape(-1, parity_bits)
    forged[:, SMALL.message_bits :] = random_parity
    assert gf2_rank_rate(forged) == 1.0
