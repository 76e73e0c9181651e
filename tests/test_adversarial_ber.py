"""The exact insider odds of ``adversarial-ber`` against a Monte Carlo oracle.

The scenario computes, with no RNG, the probability that an insider who
knows the fingerprint recovers each level's sub-salt. The oracle below
simulates the same insider frame by frame: modulate a random payload, add
channel noise to every symbol and the level's jam to a random half of them,
demodulate, and count the wrong RS symbols. The protocol's own ``attack``
on a real round's frames must agree with the same odds.
"""

from dataclasses import replace
from math import comb

import numpy as np
import pytest

from sienna.bench import (
    ADVERSARIAL_GRID_POINTS,
    CHANNEL,
    P_MAX,
    ExperimentConfig,
    _insider_success,
    run_experiment,
)
from sienna.bits import random_bits
from sienna.channel import (
    ChannelParams,
    ber_theoretical,
    ladder_levels,
    noise_power_for_snr,
    qam_demodulate,
    qam_modulate,
)
from sienna.cli import cli_entry
from sienna.gf import FieldSpec
from sienna.protocol import (
    QAM,
    BeltDevice,
    PipelineConfig,
    PrmsDevice,
    attack,
    observe_scene,
    run_pairing,
    two_subject_scene,
)
from sienna.rs import RsCodeSpec, standard_code

ORACLE_TRIALS = 400
ORACLE_GRID_INDICES = (5, 10, 16)  # grid points where some level's odds lie well inside (0, 1)


def _monte_carlo_success(spec, p2, jam_to_signal, p0, rng):
    """Recovered sub-salts out of ``ORACLE_TRIALS`` simulated insider frames."""
    payload = random_bits(spec.codeword_bits, rng)
    symbols = qam_modulate(payload, QAM)
    shape = (ORACLE_TRIALS, symbols.size)
    noise = np.sqrt(noise_power_for_snr(p2 / p0, QAM) / 2) * (
        rng.normal(size=shape) + 1j * rng.normal(size=shape)
    )
    jam = np.sqrt(jam_to_signal / 2) * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    picked_jammed = rng.integers(0, 2, size=shape).astype(bool)
    received = symbols + noise + np.where(picked_jammed, jam, 0)
    bits = qam_demodulate(received.ravel(), QAM).reshape(ORACLE_TRIALS, -1)
    errors = bits[:, : spec.codeword_bits] != payload
    wrong = errors.reshape(ORACLE_TRIALS, spec.m_symbols, spec.field.k_bits).any(axis=2).sum(axis=1)
    return int(np.count_nonzero(wrong <= spec.t))


def _binomial_bound(n, p):
    """Four binomial standard deviations, plus one count for the discreteness."""
    return 4 * np.sqrt(n * p * (1 - p)) + 1


@pytest.mark.parametrize(
    "spec",
    [standard_code(), RsCodeSpec(FieldSpec(7), 127, 97), RsCodeSpec(FieldSpec(3), 7, 3)],
    ids=["K8", "K7", "K3"],
)
def test_level_odds_match_a_seeded_monte_carlo(spec, tmp_path):
    """Odd K puts a QAM symbol across two RS symbols; the walk must still hold.

    The odds are taken on the scenario's grid of insider powers and ladder;
    for the standard code they are the scenario's own CSV rows."""
    p0 = CHANNEL.p0
    ladder = ladder_levels(P_MAX, p0)
    grid = np.logspace(np.log10(p0), np.log10(P_MAX), ADVERSARIAL_GRID_POINTS)
    points = [(float(p2), level) for p2 in grid for level in ladder.levels]
    # The flip odds of a clean and a jammed copy, as the scenario takes them.
    p_clean = np.array([ber_theoretical(QAM.order, p2 / p0) for p2, _ in points])
    p_jammed = np.array([
        ber_theoretical(QAM.order, 1.0 / (2.0 * (noise_power_for_snr(p2 / p0, QAM) + level / p2)))
        for p2, level in points
    ])
    odds = _insider_success(spec, p_clean, p_jammed)
    rows = [(p2, level / p2, float(o)) for (p2, level), o in zip(points, odds)]
    if spec == standard_code():
        run_experiment(ExperimentConfig(scenario="adversarial-ber", output_path=str(tmp_path)))
        lines = (tmp_path / "adversarial-ber.csv").read_text().splitlines()[1:]
        assert [tuple(float(line.split(",")[i]) for i in (0, 2, 4)) for line in lines] == rows
    n_levels = ladder.count
    rng = np.random.default_rng(2024)
    n = ORACLE_TRIALS
    for g in ORACLE_GRID_INDICES:
        for level_index, (p2, jam_to_signal, exact) in enumerate(
            rows[g * n_levels : (g + 1) * n_levels]
        ):
            hits = _monte_carlo_success(spec, p2, jam_to_signal, p0, rng)
            bound = _binomial_bound(n, exact)
            assert abs(hits - n * exact) <= bound, (g, level_index, hits / n, exact)


ATTACK_DRAWS = 300


@pytest.mark.parametrize(
    "grid_index, level_index",
    [(11, 3), (22, 2), (34, 1)],  # p2 ≈ 7.0, 49 and 413, where the odds are 0.66, 0.75 and 0.60
)
def test_attack_on_a_round_matches_the_exact_odds(grid_index, level_index):
    """The insider holds device a's own fingerprint, so only the channel
    errs; its recovery rate on one level of a seeded round must match
    ``_insider_success`` at the same insider power and jam level."""
    config, channel = PipelineConfig(), ChannelParams()
    ladder = ladder_levels(1000.0, channel.p0)
    belt_obs, prms_obs = observe_scene(two_subject_scene(3))
    device_a = BeltDevice(belt_obs, config)
    out = run_pairing(
        device_a, PrmsDevice(prms_obs, config), channel, ladder,
        np.random.default_rng(3), salt_seed=3,
    )
    assert out.success
    # Each draw attacks the one level under test, not all four.
    one_level = replace(out, attempts=(out.levels[level_index],))
    p2 = float(np.logspace(0, 3, 40)[grid_index])
    jam = ladder.levels[level_index]
    # The flip odds of a clean and a jammed copy, as the scenario takes them.
    noise = noise_power_for_snr(p2 / channel.p0, QAM)
    p_clean = ber_theoretical(QAM.order, p2 / channel.p0)
    p_jammed = ber_theoretical(QAM.order, 1.0 / (2.0 * (noise + jam / p2)))
    exact = float(_insider_success(config.rs_spec, np.array([p_clean]), np.array([p_jammed]))[0])

    rng = np.random.default_rng(grid_index)
    hits = sum(
        attack(one_level, p2, channel, lambda w: device_a.derive_fingerprints(w)[0],
               rng=rng).salt_recovered
        for _ in range(ATTACK_DRAWS)
    )
    assert abs(hits - ATTACK_DRAWS * exact) <= _binomial_bound(ATTACK_DRAWS, exact), (
        hits / ATTACK_DRAWS, exact,
    )


def test_even_width_odds_equal_the_binomial_tail():
    """For even K every RS symbol spans K/2 whole QAM symbols, so the wrong
    RS symbols are Binomial(m, 1 - q) with q = (½(1-p_u)² + ½(1-p_j)²)^(K/2)."""
    spec = standard_code()
    snrs = np.logspace(1.0, 1.5, 12)  # level odds from 1e-10 through 0.02, 0.66 and 0.998 to 1
    p_clean = np.array([ber_theoretical(QAM.order, s) for s in snrs])
    p_jammed = np.array([ber_theoretical(QAM.order, s / 10.0) for s in snrs])
    q = (0.5 * (1 - p_clean) ** 2 + 0.5 * (1 - p_jammed) ** 2) ** (spec.field.k_bits // 2)
    m = spec.m_symbols
    tail = [
        sum(comb(m, i) * (1 - qq) ** i * qq ** (m - i) for i in range(spec.t + 1)) for qq in q
    ]
    assert np.max(np.abs(_insider_success(spec, p_clean, p_jammed) - tail)) < 1e-12


@pytest.mark.parametrize(
    "spec", [RsCodeSpec(FieldSpec(3), 5, 1), RsCodeSpec(FieldSpec(5), 3, 1)], ids=["K3", "K5"]
)
def test_odd_width_odds_equal_a_sum_over_every_error_pattern(spec):
    """A 15-bit frame has 2^15 bit-error patterns. Each one's probability is a
    product over QAM symbols of the two jam picks' mean, the padding bit
    summed out; some QAM symbols straddle two RS symbols."""
    p_clean, p_jammed = np.array([0.02, 0.1, 0.002]), np.array([0.3, 0.45, 0.05])
    n = spec.codeword_bits
    patterns = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    wrong = patterns.reshape(-1, spec.m_symbols, spec.field.k_bits).any(axis=2).sum(axis=1)
    expected = []
    for flips in zip(p_clean, p_jammed):
        picks = [np.where(patterns, p, 1 - p) for p in flips]
        picks = [np.pad(b, ((0, 0), (0, n % 2)), constant_values=1.0) for b in picks]
        symbols = np.mean([b.reshape(2**n, -1, 2).prod(axis=2) for b in picks], axis=0)
        expected.append(symbols.prod(axis=1)[wrong <= spec.t].sum())
    assert np.allclose(_insider_success(spec, p_clean, p_jammed), expected, rtol=1e-12, atol=0)


def test_artifacts_ignore_the_seed_and_the_trial_count(tmp_path):
    outs = {}
    for seed, trials in (("0", "3"), ("0", "1000"), ("7", "3")):
        out = tmp_path / f"{seed}-{trials}"
        argv = ["run", "adversarial-ber", "--seed", seed, "--trials", trials, "--out", str(out)]
        assert cli_entry(argv) == 0
        outs[seed, trials] = out
    for name in ("adversarial-ber.csv", "adversarial-ber-summary.json"):
        assert (outs["0", "3"] / name).read_bytes() == (outs["0", "1000"] / name).read_bytes()
        assert (outs["0", "3"] / name).read_bytes() == (outs["7", "3"] / name).read_bytes()
