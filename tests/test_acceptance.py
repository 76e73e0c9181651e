"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict line
per criterion. Criterion 9 decides its entropy direction by the GF(2) rank
rate rather than by approximate entropy; its docstring says why.
"""

import time
from itertools import combinations, product

import numpy as np
import pytest

from sienna.bench import ExperimentConfig, run_experiment
from sienna.bits import random_bits
from sienna.channel import (
    QamSpec,
    awgn,
    ber_theoretical,
    dup_and_jam,
    noise_power_for_snr,
    qam_demodulate,
    qam_modulate,
    receiver_stitch,
)
from sienna.commitment import commit, new_salt, open_commitment
from sienna.gf import FieldSpec
from sienna.protocol import (
    BeltDevice,
    BeltObservation,
    PipelineConfig,
    PrmsDevice,
    attack,
    observe_scene,
    run_pairing,
    two_subject_scene,
)
from sienna.breathing import belt_observe, synth_displacement
from sienna.channel import ChannelParams, JammingLadder, ladder_levels
from sienna.rs import RsCodeSpec, standard_code

SMALL = RsCodeSpec(FieldSpec(3), 7, 3)
PRODUCTION = standard_code()


def _verdict(num: int, ok: bool, detail: str):
    print(f"\nCRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _corrupt_symbols(word, positions, values):
    out = np.array(word, dtype=np.int64)
    for pos, val in zip(positions, values):
        out[pos] ^= val
    return out


def test_criterion_01_rs_correctness():
    """Exhaustive small-field round trip; 10^4 randomized trials at t=27."""
    t_start = time.perf_counter()
    rng = np.random.default_rng(10)
    msg = rng.integers(0, 8, size=3)
    base = SMALL.codec().encode(msg)
    for n_err in (0, 1, 2):
        for positions in combinations(range(7), n_err):
            for values in product(range(1, 8), repeat=n_err):
                got = SMALL.codec().decode(_corrupt_symbols(base, positions, values))
                assert got is not None and np.array_equal(got, msg)
    # the code corrects exactly t=2: no 3-symbol pattern returns the message
    three_recovered = 0
    for positions in combinations(range(7), 3):
        for values in product(range(1, 8), repeat=3):
            got = SMALL.codec().decode(_corrupt_symbols(base, positions, values))
            if got is not None and np.array_equal(got, msg):
                three_recovered += 1
    assert three_recovered == 0

    codec = PRODUCTION.codec()
    recovered = 0
    trials = 10_000
    for _ in range(trials):
        message = rng.integers(0, 256, size=201)
        word = codec.encode(message)
        n_err = rng.integers(0, 28)
        pos = rng.choice(255, size=n_err, replace=False)
        word[pos] ^= rng.integers(1, 256, size=n_err)
        got = codec.decode(word)
        recovered += got is not None and np.array_equal(got, message)
    elapsed = time.perf_counter() - t_start
    ok = recovered == trials and elapsed < 60.0
    assert _verdict(
        1, ok, f"RS exhaustive t=2 + {recovered}/{trials} recoveries at <=27 errors "
        f"({elapsed:.1f}s < 60s)"
    )


def test_criterion_02_fuzzy_commitment_completeness_binding():
    """Open succeeds iff corruption <= t symbols; zero false salt recoveries."""
    t_start = time.perf_counter()
    rng = np.random.default_rng(20)
    salt = new_salt(SMALL, 42)
    fingerprint = random_bits(SMALL.codeword_bits, rng)
    commitment = commit(salt, fingerprint, SMALL)
    k = SMALL.field.k_bits

    def flip(fp, positions, values):
        out = fp.copy()
        for pos, val in zip(positions, values):
            for b in range(k):
                out[pos * k + b] ^= (val >> (k - 1 - b)) & 1
        return out

    for n_err in (0, 1, 2):
        for positions in combinations(range(7), n_err):
            for values in product(range(1, 8), repeat=n_err):
                outcome = open_commitment(commitment, flip(fingerprint, positions, values), SMALL)
                assert outcome.recovered and np.array_equal(outcome.salt, salt)
    for positions in combinations(range(7), 3):
        for values in product(range(1, 8), repeat=3):
            outcome = open_commitment(commitment, flip(fingerprint, positions, values), SMALL)
            assert not outcome.recovered

    spec = PRODUCTION
    big_salt = new_salt(spec, 77)
    big_fp = random_bits(spec.codeword_bits, rng)
    big_commitment = commit(big_salt, big_fp, spec)
    false_recoveries = 0
    trials = 10_000
    for _ in range(trials):
        wrong = random_bits(spec.codeword_bits, rng)
        outcome = open_commitment(big_commitment, wrong, spec)
        false_recoveries += outcome.recovered
    elapsed = time.perf_counter() - t_start
    ok = false_recoveries == 0 and elapsed < 60.0
    assert _verdict(
        2, ok, f"exhaustive iff at t=2; {false_recoveries} false recoveries in "
        f"{trials} wrong-fingerprint opens ({elapsed:.1f}s < 60s)"
    )


def test_criterion_03_jade_recovery():
    """100 two-subject scenes: matched correlation >= 0.90 in >= 90%."""
    t_start = time.perf_counter()
    summary = run_experiment(
        ExperimentConfig(scenario="separation", trials=100, output_path="/tmp/sienna-accept")
    )
    frac = summary["fraction_target_corr_ge_090"]
    elapsed = time.perf_counter() - t_start
    ok = frac >= 0.90 and elapsed < 300.0
    assert _verdict(
        3, ok, f"matched-source corr >= 0.90 in {frac:.0%} of 100 trials ({elapsed:.1f}s < 300s)"
    )


def test_criterion_04_fingerprint_behavior():
    """Same-subject similarity non-decreasing in window length; gap >= 0.15."""
    summary = run_experiment(
        ExperimentConfig(scenario="fingerprint-similarity", output_path="/tmp/sienna-accept")
    )
    by_duration = summary["same_subject_mean_by_duration"]
    ordered = [by_duration[k] for k in sorted(by_duration, key=float)]
    monotone = all(a <= b + 1e-12 for a, b in zip(ordered, ordered[1:]))
    gap = summary["gap_at_60s"]
    same6 = by_duration["6.0"]
    cross = summary["cross_subject_mean_at_60s"]
    ok = monotone and gap >= 0.15
    assert _verdict(
        4,
        ok,
        f"monotone={monotone}, gap={gap:.3f} (>=0.15); absolute levels reported, "
        f"not gated: same@6s={same6:.3f}, cross@60s={cross:.3f}",
    )


def test_criterion_05_ber_formula_vs_monte_carlo():
    """Simulated BER within max(15% relative, 3 MC standard errors) of formula."""
    t_start = time.perf_counter()
    rng = np.random.default_rng(50)
    n_bits = 1_000_000
    worst = []
    for order in (4, 16):
        spec = QamSpec(order)
        for snr_db in (5, 10, 15):
            snr = 10 ** (snr_db / 10)
            bits = random_bits(n_bits, rng)
            rx = awgn(qam_modulate(bits, spec), noise_power_for_snr(snr, spec), rng)
            measured = float(np.mean(qam_demodulate(rx, spec, n_bits=n_bits) != bits))
            theory = ber_theoretical(order, snr)
            se = np.sqrt(theory * (1 - theory) / n_bits)
            budget = max(0.15 * theory, 3 * se)
            gap = abs(measured - theory)
            worst.append((order, snr_db, measured, theory, gap <= budget))
            assert gap <= budget, (
                f"M={order} snr={snr_db}dB: measured {measured:.3g} vs theory "
                f"{theory:.3g}, gap {gap:.3g} > budget {budget:.3g}"
            )
    elapsed = time.perf_counter() - t_start
    ok = all(w[4] for w in worst) and elapsed < 120.0
    assert _verdict(
        5, ok, f"all 6 (M, SNR) points within tolerance ({elapsed:.1f}s < 120s)"
    )


def test_criterion_06_dialog_codes_asymmetry():
    """Legitimate stitching is error-free and independent of jam power."""
    rng = np.random.default_rng(60)
    spec = QamSpec(4)
    noise = noise_power_for_snr(10 ** (15 / 10), spec)
    p2 = 31.622776601683793
    payload_bits = 2296  # masked codeword plus salt digest
    frames = 1000
    residuals = {}
    for jam_power in (0.0, p2, 9 * p2):
        errors = 0
        for _ in range(frames):
            bits = random_bits(payload_bits, rng)
            symbols = qam_modulate(bits, spec)
            mask = random_bits(symbols.size, rng)
            frame = dup_and_jam(symbols, mask, jam_power, rng, noise_power=noise)
            out = qam_demodulate(receiver_stitch(frame, mask), spec, n_bits=payload_bits)
            errors += int(np.sum(out != bits))
        residuals[jam_power] = errors
    ok = all(v == 0 for v in residuals.values())
    assert _verdict(
        6,
        ok,
        f"residual bit errors across jam powers {{0, p2, 9p2}}: "
        f"{list(residuals.values())} over {frames} frames each (invariant, all zero)",
    )


def test_criterion_07_insider_defeat():
    """Ladder defeats the perfect-knowledge insider at every signal power.

    The 20-point grid gives the insider's exact odds, with no sampling; the
    full-protocol probes run real frames through the real decoder.
    """
    t_start = time.perf_counter()
    summary = run_experiment(
        ExperimentConfig(scenario="adversarial-ber", output_path="/tmp/sienna-accept")
    )
    min_failure = summary["min_insider_failure_rate"]
    disabled = summary["jamming_disabled_success_rate"]

    # Cross-validate the exact harness against the full protocol path
    # (real frames, real decoder) at a few insider powers.
    config = PipelineConfig()
    channel = ChannelParams()
    ladder = ladder_levels(1000.0, 1.0)
    scene = two_subject_scene(3)
    belt_obs, prms_obs = observe_scene(scene)
    device_a, device_b = BeltDevice(belt_obs, config), PrmsDevice(prms_obs, config)
    true_series = synth_displacement(scene.subjects[0], 0, scene.duration_s, 100.0)
    insider = BeltDevice(BeltObservation(belt_observe(true_series, noise_std=0.0)), config)
    fingerprint = lambda w: insider.derive_fingerprints(w)[0]
    full_path_failures = 0
    probes = 0
    # A round does not depend on the insider's power, so each round is
    # attacked at every power.
    for trial in range(3):
        out = run_pairing(
            device_a, device_b, channel, ladder,
            np.random.default_rng(900 + trial), salt_seed=7000 + trial,
        )
        for k, p2 in enumerate(np.logspace(0, 3, 5)):
            result = attack(out, float(p2), channel, fingerprint,
                            rng=np.random.default_rng([trial, k]))
            probes += 1
            full_path_failures += not result.salt_recovered
    disabled_out = run_pairing(
        device_a, device_b, channel, JammingLadder((0.0,)),
        np.random.default_rng(901), salt_seed=7100,
    )
    disabled_attack = attack(
        disabled_out, channel.p1, channel, fingerprint, rng=np.random.default_rng(5),
    )
    elapsed = time.perf_counter() - t_start
    ok = (
        min_failure >= 0.99
        and disabled >= 0.99
        and full_path_failures == probes
        and disabled_attack.salt_recovered
    )
    assert _verdict(
        7,
        ok,
        f"exact insider failure >= {min_failure:.3f} on the 20-point grid; "
        f"jamming-off success {disabled:.3f}; full-protocol probes {full_path_failures}/{probes} "
        f"defeated; BER q50={summary['ber_quantiles']['q50']:.3f} "
        f"q90={summary['ber_quantiles']['q90']:.3f} reported ({elapsed:.0f}s)",
    )


def test_criterion_08_end_to_end_pairing():
    """> 90% success over 100 seeded noisy two-subject scenes, equal keys."""
    t_start = time.perf_counter()
    summary = run_experiment(
        ExperimentConfig(
            scenario="pairing-success", trials=100, output_path="/tmp/sienna-accept"
        )
    )
    rate = summary["success_rate"]
    keys_ok = summary["keys_identical_in_every_completed_round"]
    elapsed = time.perf_counter() - t_start
    ok = rate > 0.90 and keys_ok
    assert _verdict(
        8, ok, f"success rate {rate:.0%} (> 90%), keys identical in every success "
        f"({elapsed:.0f}s)"
    )


def test_criterion_09_entropy_direction():
    """Salts pass monobit/runs; commitments carry less entropy per bit than salts.

    Entropy per bit is measured as the GF(2) rank rate: the rank of the
    differences ``x_i ^ x_0`` over R = codeword_bits + 64 samples, divided by
    the bit length. The RS code is GF(2)-linear, so commitments (codeword
    XOR a fixed fingerprint) span exactly message_bits dimensions, giving
    1608/2040 = 0.788, while good salts span all of their 1608 bits.

    Approximate entropy stays a reported figure but no longer decides the
    direction, for two reasons. Its estimate of a uniform string is biased
    down by about 2/(n ln 2) per bit, so comparing 1608-bit salts with
    2040-bit commitments measures only the length difference (0.99820 vs
    0.99857); at equal length the sign is a coin flip. And ApEn(m=2) sees
    3-bit windows, while every window of at most 201 symbols of an MDS
    codeword is exactly uniform, so no local statistic can see the rate.

    The check can fail: random or non-linear parity would lift the
    commitment rate to 1.0, and a linear dependency among salts would drop
    theirs below 1.0.
    """
    summary = run_experiment(
        ExperimentConfig(
            scenario="commitment-entropy", samples=10_000, output_path="/tmp/sienna-accept"
        )
    )
    salts_pass = summary["checks"]["salts_pass_monobit_runs"]
    rate_salt = summary["salt"]["rank_rate"]
    rate_commit = summary["commitment"]["rank_rate"]
    structural = summary["structural_entropy_per_bit"]
    apen_salt = summary["salt"]["mean_apen_per_bit"]
    apen_commit = summary["commitment"]["mean_apen_per_bit"]
    ok = (
        salts_pass
        and rate_salt == 1.0
        and rate_commit < rate_salt
        and rate_commit == structural
    )
    _verdict(
        9,
        ok,
        f"salts monobit/runs pass={salts_pass}; GF(2) rank rate salt={rate_salt:.6f} "
        f"commit={rate_commit:.6f} (structural {structural:.6f}); "
        f"ApEn/bit salt={apen_salt:.5f} commit={apen_commit:.5f} (reported only)",
    )
    assert salts_pass
    assert rate_salt == 1.0
    assert rate_commit < rate_salt
    assert rate_commit == structural == 1608 / 2040
    assert summary["checks"]["commitment_rank_rate_below_salt"]


def test_criterion_10_rs_decode_timing_flat():
    """Decode time varies < 10% across error counts at fixed parity."""
    summary = run_experiment(
        ExperimentConfig(scenario="rs-timing", output_path="/tmp/sienna-accept")
    )
    variations = summary["variation_by_parity"]
    worst = max(variations.values())
    ok = worst < 0.10
    assert _verdict(
        10, ok, "decode-time variation by parity: "
        + ", ".join(f"k={k}: {v:.1%}" for k, v in variations.items())
        + f" (worst {worst:.1%} < 10%)"
    )
