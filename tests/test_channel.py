"""QAM channel, dialog-codes jamming, and the analytic calculators."""

import math

import numpy as np
import pytest

from sienna import channel
from sienna.bits import bits_from_bytes, random_bits
from sienna.channel import (
    ChannelParams,
    JammingLadder,
    QamSpec,
    awgn,
    ber_theoretical,
    dup_and_jam,
    eavesdrop,
    ladder_levels,
    noise_power_for_snr,
    ofdm_gaussianity_demo,
    qam_demodulate,
    qam_modulate,
    receiver_stitch,
    secrecy_capacity,
)


def test_qam_round_trip_noiseless():
    rng = np.random.default_rng(0)
    for order in (4, 16, 64):
        spec = QamSpec(order)
        bits = random_bits(2040, rng)
        out = qam_demodulate(qam_modulate(bits, spec), spec, n_bits=2040)
        assert np.array_equal(out, bits)


def test_qpsk_four_distinct_points():
    spec = QamSpec(4)
    points = set()
    for pair in ([0, 0], [0, 1], [1, 0], [1, 1]):
        sym = qam_modulate(np.array(pair, dtype=np.uint8), spec)
        assert sym.size == 1
        points.add((round(sym[0].real, 9), round(sym[0].imag, 9)))
    assert len(points) == 4


def test_unit_symbol_energy():
    rng = np.random.default_rng(1)
    for order in (4, 16, 64):
        spec = QamSpec(order)
        sym = qam_modulate(random_bits(120000, rng), spec)
        assert np.mean(np.abs(sym) ** 2) == pytest.approx(1.0, rel=0.02)


def test_qam_padding_recorded_in_round_trip():
    spec = QamSpec(16)
    bits = np.array([1, 0, 1], dtype=np.uint8)  # not a multiple of 4
    sym = qam_modulate(bits, spec)
    assert sym.size == 1
    assert np.array_equal(qam_demodulate(sym, spec, n_bits=3), bits)


def test_bpsk_prohibited():
    with pytest.raises(ValueError, match="binary"):
        QamSpec(2)
    with pytest.raises(ValueError):
        QamSpec(8)


def test_monte_carlo_ber_matches_formula_16qam():
    rng = np.random.default_rng(2)
    spec = QamSpec(16)
    snr = 10 ** (10 / 10)
    bits = random_bits(400_000, rng)
    rx = awgn(qam_modulate(bits, spec), noise_power_for_snr(snr, spec), rng)
    ber = float(np.mean(qam_demodulate(rx, spec, n_bits=bits.size) != bits))
    assert ber == pytest.approx(ber_theoretical(16, snr), rel=0.15)


def test_ber_theoretical_examples():
    assert ber_theoretical(4, 1e12) < 1e-12
    assert ber_theoretical(4, 0) == 0.5  # clamped at the low-SNR end
    # frozen: (4/2) * (1 - 1/2) * Q(sqrt(20)) = Q(sqrt(20))
    q_oracle = 0.5 * math.erfc(math.sqrt(20) / math.sqrt(2))
    assert ber_theoretical(4, 10) == pytest.approx(q_oracle, rel=1e-12)
    assert ber_theoretical(4, 10) == pytest.approx(3.8721e-06, rel=1e-4)


def test_ber_theoretical_monotone_and_bounded():
    snrs = np.logspace(-2, 3, 40)
    for order in (4, 16, 64):
        values = [ber_theoretical(order, s) for s in snrs]
        assert all(0.0 <= v <= 0.5 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_secrecy_capacity_examples():
    assert secrecy_capacity(3, 1, 1, 1) == pytest.approx(1.0)
    assert secrecy_capacity(3, 1, 3, 1) == 0.0
    assert secrecy_capacity(2, 1, 30, 1) == 0.0
    with pytest.raises(ValueError):
        secrecy_capacity(1, 0, 1, 1)
    with pytest.raises(ValueError):
        secrecy_capacity(1, 1, 1, 0)


def test_ladder_levels_examples():
    assert ladder_levels(81.0, 1.0).levels == (81.0, 9.0)
    assert ladder_levels(9.0, 1.0).levels == (9.0,)
    ladder = ladder_levels(100.0, 1.0)
    assert ladder.count == 3
    assert ladder.levels[0] == 100.0
    assert ladder.levels[2] == pytest.approx(100.0 / 81.0)
    for p_max, p0 in ((1.0, 1.0), (math.inf, 1.0), (math.nan, 1.0), (1e10, 1e-310)):
        with pytest.raises(ValueError):
            ladder_levels(p_max, p0)


def test_ladder_guarantee_band_coverage():
    """Each eavesdropper position gets a level with ratio in (1, 9]."""
    p0, p_max = 1.0, 2000.0
    ladder = ladder_levels(p_max, p0)
    assert ladder.levels[-1] >= p0
    for p2 in np.logspace(0, np.log10(p_max), 50)[:-1]:
        ratios = [level / p2 for level in ladder.levels]
        assert any(1.0 < r <= 9.0 for r in ratios), f"no effective level for p2={p2}"


def test_channel_params_flags():
    """Both powers are divisors, so each must be finite and positive."""
    for powers in ({"p0": -1.0}, {"p0": 0.0}, {"p1": 0.0}, {"p0": math.nan}, {"p1": math.inf}):
        with pytest.raises(ValueError):
            ChannelParams(**powers)


def test_dup_and_jam_duplicates_back_to_back():
    rng = np.random.default_rng(3)
    sym = qam_modulate(random_bits(4, rng), QamSpec(4))
    frame = dup_and_jam(sym, np.array([0, 1], dtype=np.uint8), 0.0, rng)
    assert np.array_equal(frame[0::2], sym)
    assert np.array_equal(frame[1::2], sym)


def test_powers_that_cannot_be_applied_are_rejected():
    """A NaN or negative jam would otherwise send the clean frame, and a NaN
    noise power would return NaN symbols."""
    rng = np.random.default_rng(0)
    for power in (math.nan, -1.0, math.inf):
        with pytest.raises(ValueError):
            dup_and_jam(np.ones(4), np.zeros(4), power, rng)
        with pytest.raises(ValueError):
            awgn(np.ones(4), power, rng)


def test_zero_jam_power_copies_identical_up_to_noise():
    rng = np.random.default_rng(4)
    sym = qam_modulate(random_bits(400, rng), QamSpec(4))
    frame = dup_and_jam(sym, random_bits(200, rng), 0.0, rng, noise_power=0.0)
    pairs = frame.reshape(-1, 2)
    assert np.allclose(pairs[:, 0], pairs[:, 1])


def test_receiver_stitch_zero_noise_exact():
    rng = np.random.default_rng(5)
    sym = qam_modulate(random_bits(600, rng), QamSpec(4))
    mask = random_bits(300, rng)
    frame = dup_and_jam(sym, mask, jam_power=5.0, rng=rng, noise_power=0.0)
    assert np.allclose(receiver_stitch(frame, mask), sym)


def test_receiver_stitch_mask_mismatch():
    rng = np.random.default_rng(6)
    sym = qam_modulate(random_bits(40, rng), QamSpec(4))
    frame = dup_and_jam(sym, random_bits(20, rng), 0.0, rng)
    with pytest.raises(ValueError):
        receiver_stitch(frame, random_bits(19, rng))


def test_odd_frames_rejected():
    """A frame that splits into no whole number of pairs has no copies to pick."""
    rng = np.random.default_rng(13)
    sym = qam_modulate(random_bits(40, rng), QamSpec(4))
    frame = dup_and_jam(sym, random_bits(20, rng), 0.0, rng)
    with pytest.raises(ValueError, match="even number"):
        receiver_stitch(frame[:-1], random_bits(19, rng))
    with pytest.raises(ValueError, match="even number"):
        eavesdrop(frame[:-1], "average-both", rng)


def test_negative_n_bits_rejected():
    rng = np.random.default_rng(14)
    sym = qam_modulate(random_bits(8, rng), QamSpec(4))
    with pytest.raises(ValueError):
        qam_demodulate(sym, QamSpec(4), n_bits=-2)
    with pytest.raises(ValueError):
        bits_from_bytes(b"\xff", -3)
    assert qam_demodulate(sym, QamSpec(4), n_bits=0).size == 0
    assert bits_from_bytes(b"\xff", 0).size == 0


def test_stitched_ber_invariant_to_jam_power():
    """Dialog-codes correctness: the legitimate path never sees the jam."""
    rng = np.random.default_rng(7)
    spec = QamSpec(4)
    snr = 10 ** (15 / 10)
    noise = noise_power_for_snr(snr, spec)
    p2 = 10.0
    bers = []
    for jam_power in (0.0, p2, 9 * p2):
        errors = 0
        total = 0
        for _ in range(50):
            bits = random_bits(2040, rng)
            sym = qam_modulate(bits, spec)
            mask = random_bits(sym.size, rng)
            frame = dup_and_jam(sym, mask, jam_power, rng, noise_power=noise)
            out = qam_demodulate(receiver_stitch(frame, mask), spec, n_bits=2040)
            errors += int(np.sum(out != bits))
            total += bits.size
        bers.append(errors / total)
    assert max(bers) <= 2e-5  # essentially error-free at 15 dB


def test_inverted_mask_selects_all_jammed_copies():
    rng = np.random.default_rng(8)
    spec = QamSpec(4)
    bits = random_bits(20_000, rng)
    sym = qam_modulate(bits, spec)
    mask = random_bits(sym.size, rng)
    frame = dup_and_jam(sym, mask, jam_power=4.0, rng=rng, noise_power=0.01)
    right = qam_demodulate(receiver_stitch(frame, mask), spec, n_bits=bits.size)
    wrong = qam_demodulate(receiver_stitch(frame, 1 - mask), spec, n_bits=bits.size)
    assert np.mean(right != bits) < 0.001
    assert np.mean(wrong != bits) > 0.1


def test_eavesdropper_random_pick_degraded():
    rng = np.random.default_rng(9)
    spec = QamSpec(4)
    bits = random_bits(100_000, rng)
    sym = qam_modulate(bits, spec)
    mask = random_bits(sym.size, rng)
    snr_tap = 10 ** (15 / 10)
    frame = dup_and_jam(
        sym, mask, jam_power=4.0, rng=rng, noise_power=noise_power_for_snr(snr_tap, spec)
    )
    est = eavesdrop(frame, "random-pick", rng)
    ber = float(np.mean(qam_demodulate(est, spec, n_bits=bits.size) != bits))
    assert ber >= 0.10


def test_eavesdropper_zero_jam_equals_thermal():
    rng = np.random.default_rng(10)
    spec = QamSpec(4)
    bits = random_bits(200_000, rng)
    sym = qam_modulate(bits, spec)
    mask = random_bits(sym.size, rng)
    snr_tap = 10 ** (5 / 10)
    frame = dup_and_jam(
        sym, mask, 0.0, rng, noise_power=noise_power_for_snr(snr_tap, spec)
    )
    est = eavesdrop(frame, "random-pick", rng)
    ber = float(np.mean(qam_demodulate(est, spec, n_bits=bits.size) != bits))
    assert ber == pytest.approx(ber_theoretical(4, snr_tap), rel=0.15)


def test_energy_threshold_defeats_oversized_jamming():
    """Jam-to-signal far above the design band is detectable by energy."""
    rng = np.random.default_rng(11)
    spec = QamSpec(4)
    bits = random_bits(40_000, rng)
    sym = qam_modulate(bits, spec)
    mask = random_bits(sym.size, rng)
    noise = noise_power_for_snr(10 ** (15 / 10), spec)
    ratios = {}
    for ratio in (4.0, 100.0):
        frame = dup_and_jam(sym, mask, ratio, rng, noise_power=noise)
        est = eavesdrop(frame, "energy-threshold", rng)
        ratios[ratio] = float(np.mean(qam_demodulate(est, spec, n_bits=bits.size) != bits))
    assert ratios[100.0] < 0.01  # collapses toward thermal
    assert ratios[4.0] > 5 * ratios[100.0]  # in-band jamming still bites


def test_eavesdrop_unknown_strategy():
    rng = np.random.default_rng(12)
    sym = qam_modulate(random_bits(8, rng), QamSpec(4))
    frame = dup_and_jam(sym, random_bits(4, rng), 0.0, rng)
    with pytest.raises(ValueError):
        eavesdrop(frame, "clairvoyant", rng)


def test_ofdm_gaussianity():
    single = ofdm_gaussianity_demo(1, QamSpec(4), trials=4000, seed=1)
    assert single.p_value < 0.01  # constellation, not Gaussian
    wide = ofdm_gaussianity_demo(1024, QamSpec(16), trials=10, seed=2)
    assert wide.p_value >= 0.01
    assert abs(wide.excess_kurtosis) <= 0.1
    with pytest.raises(ValueError):
        ofdm_gaussianity_demo(1, QamSpec(4), trials=3)  # 6 samples; the test needs 8


def test_jamming_ladder_validation():
    with pytest.raises(ValueError):
        JammingLadder(())
    with pytest.raises(ValueError):
        JammingLadder((10.0, 2.0))
    for levels in ((math.nan,), (math.inf,), (-5.0,), (-9.0, -1.0), (9.0, 0.0), (0.0, 0.0)):
        with pytest.raises(ValueError):
            JammingLadder(levels)
    assert JammingLadder((0.0,)).levels == (0.0,)  # jamming off


# -- float-plane arithmetic against the complex reference -----------------------
#
# The channel computes on the float64 planes of its complex arrays. These are
# the complex-arithmetic versions it replaced; every output must match them
# byte for byte and leave the generator in the same state.


def _ref_qam_modulate(bits, spec):
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    k = spec.bits_per_symbol
    if bits.size % k:
        bits = np.concatenate([bits, np.zeros(k - bits.size % k, dtype=np.uint8)])
    half = k // 2
    groups = bits.reshape(-1, k)
    weights = 1 << np.arange(half - 1, -1, -1)
    i_label = groups[:, :half].astype(np.int64) @ weights
    q_label = groups[:, half:].astype(np.int64) @ weights
    to_pos = np.zeros(spec.side, dtype=np.int64)
    for pos in range(spec.side):
        to_pos[pos ^ (pos >> 1)] = pos
    i_amp = 2 * to_pos[i_label] - spec.side + 1
    q_amp = 2 * to_pos[q_label] - spec.side + 1
    return spec.amplitude_scale * (i_amp + 1j * q_amp)


def _ref_qam_demodulate(symbols, spec, n_bits=None):
    symbols = np.asarray(symbols, dtype=np.complex128)
    side = spec.side
    half = spec.bits_per_symbol // 2
    pos_range = np.arange(side)
    to_gray = pos_range ^ (pos_range >> 1)

    def axis_labels(values):
        pos = np.clip(np.round((values / spec.amplitude_scale + side - 1) / 2), 0, side - 1)
        return to_gray[pos.astype(np.int64)]

    i_label = axis_labels(symbols.real)
    q_label = axis_labels(symbols.imag)
    shifts = np.arange(half - 1, -1, -1)
    i_bits = (i_label[:, None] >> shifts) & 1
    q_bits = (q_label[:, None] >> shifts) & 1
    bits = np.concatenate([i_bits, q_bits], axis=1).ravel().astype(np.uint8)
    return bits if n_bits is None else bits[:n_bits]


def _ref_awgn(symbols, noise_power, rng):
    if noise_power == 0:
        return np.array(symbols, dtype=np.complex128, copy=True)
    scale = math.sqrt(noise_power / 2)
    n = symbols.size
    return symbols + scale * (rng.normal(size=n) + 1j * rng.normal(size=n))


def _ref_dup_and_jam(symbols, jam_mask, jam_power, rng, noise_power=0.0):
    symbols = np.asarray(symbols, dtype=np.complex128)
    on_air = np.repeat(symbols, 2)
    if jam_power > 0:
        jammed_idx = 2 * np.arange(symbols.size) + jam_mask
        scale = math.sqrt(jam_power / 2)
        on_air = on_air.copy()
        on_air[jammed_idx] += scale * (
            rng.normal(size=symbols.size) + 1j * rng.normal(size=symbols.size)
        )
    return _ref_awgn(on_air, noise_power, rng)


def _ref_receiver_stitch(frame, jam_mask):
    pairs = np.asarray(frame, dtype=np.complex128).reshape(-1, 2)
    return pairs[np.arange(pairs.shape[0]), 1 - jam_mask]


def _ref_eavesdrop(frame, strategy, rng):
    pairs = np.asarray(frame, dtype=np.complex128).reshape(-1, 2)
    if strategy == "random-pick":
        pick = rng.integers(0, 2, size=pairs.shape[0])
        return pairs[np.arange(pairs.shape[0]), pick]
    if strategy == "energy-threshold":
        pick = np.argmin(np.abs(pairs) ** 2, axis=1)
        return pairs[np.arange(pairs.shape[0]), pick]
    return pairs.mean(axis=1)


def _same(new, ref):
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert new.tobytes() == ref.tobytes()


@pytest.mark.parametrize("order", [4, 16, 64])
@pytest.mark.parametrize("n_bits", [1, 7, 101, 2531])
@pytest.mark.parametrize("jam_power", [0.0, 0.37, 9.0])
@pytest.mark.parametrize("noise_power", [0.0, 0.02, 1.5])
def test_float_planes_match_the_complex_reference(order, n_bits, jam_power, noise_power):
    spec = QamSpec(order)
    seed = [order, n_bits, int(100 * jam_power), int(100 * noise_power)]
    data_rng = np.random.default_rng(seed)
    bits = random_bits(n_bits, data_rng)
    symbols = qam_modulate(bits, spec)
    _same(symbols, _ref_qam_modulate(bits, spec))
    mask = random_bits(symbols.size, data_rng)

    rng, ref_rng = np.random.default_rng(seed + [1]), np.random.default_rng(seed + [1])
    frame = dup_and_jam(symbols, mask, jam_power, rng, noise_power=noise_power)
    _same(frame, _ref_dup_and_jam(symbols, mask, jam_power, ref_rng, noise_power))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    _same(awgn(symbols, noise_power, rng), _ref_awgn(symbols, noise_power, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    stitched = receiver_stitch(frame, mask)
    _same(stitched, _ref_receiver_stitch(frame, mask))
    views = [stitched]
    for strategy in ("random-pick", "energy-threshold", "average-both"):
        view = eavesdrop(frame, strategy, rng)
        _same(view, _ref_eavesdrop(frame, strategy, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        views.append(view)
    for view in views:
        _same(qam_demodulate(view, spec), _ref_qam_demodulate(view, spec))
        _same(
            qam_demodulate(view, spec, n_bits=n_bits),
            _ref_qam_demodulate(view, spec, n_bits=n_bits),
        )


def test_demodulation_ties_round_half_to_even():
    """Points exactly between two levels decide as the complex reference does."""
    for order in (4, 16, 64):
        spec = QamSpec(order)
        side = spec.side
        # Every decision boundary and both outer edges, on both axes.
        edges = spec.amplitude_scale * np.arange(-side, side + 1, 2, dtype=np.float64)
        symbols = (edges[:, None] + 1j * edges[None, :]).ravel()
        _same(qam_demodulate(symbols, spec), _ref_qam_demodulate(symbols, spec))


@pytest.mark.parametrize("order", [4, 16, 64])
@pytest.mark.parametrize("jam_power, noise_power", [(0.0, 0.0), (0.0, 0.02), (0.37, 0.0), (0.37, 0.02)])
def test_cached_tables_are_read_only_and_never_reach_an_output(order, jam_power, noise_power):
    """The QAM tables and the frame's scatter index are built once and shared;
    each call returns arrays of its own, and writing them changes no later call."""
    spec = QamSpec(order)
    bits = random_bits(2 * 101 + 3, np.random.default_rng(order))
    symbols = qam_modulate(bits, spec)
    kept = symbols.copy()
    mask = random_bits(symbols.size, np.random.default_rng(1))
    frame = dup_and_jam(symbols, mask, jam_power, np.random.default_rng(2), noise_power=noise_power)
    for table in (*channel._qam_tables(spec), channel._first_copies(symbols.size)):
        assert not np.shares_memory(table, frame) and not np.shares_memory(table, symbols)
        with pytest.raises(ValueError):
            table[0] = 1
    # The channel noise lands in place on the frame, never on the caller's symbols.
    assert not np.shares_memory(frame, symbols)
    _same(symbols, kept)
    ref = _ref_dup_and_jam(kept, mask, jam_power, np.random.default_rng(2), noise_power)
    _same(frame, ref)

    stitched = receiver_stitch(frame, mask)
    received = qam_demodulate(stitched, spec, n_bits=bits.size)
    if jam_power == noise_power == 0:
        _same(received, bits)
    for array in (symbols, frame, stitched, received):
        array[:] = 0
    _same(qam_modulate(bits, spec), kept)
    frame = dup_and_jam(kept, mask, jam_power, np.random.default_rng(2), noise_power=noise_power)
    _same(frame, ref)
    _same(qam_demodulate(receiver_stitch(frame, mask), spec, n_bits=bits.size),
          _ref_qam_demodulate(_ref_receiver_stitch(ref, mask), spec, n_bits=bits.size))
