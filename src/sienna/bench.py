"""Experiment bench: seeded scenarios, CSV artifacts, and acceptance checks.

Each scenario reproduces one axis of the system evaluation at desk scale:
source-separation quality, fingerprint similarity across window lengths,
commitment randomness, decoder timing flatness, insider-adversary bit error
rates across the jamming ladder, and end-to-end pairing success. Scenarios
are deterministic per seed set; all timestamps come from the simulated
clock, so artifacts are byte-identical across runs (wall-clock timing
measurements in the rs-timing scenario are the one necessary exception).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bits import Sha256Drbg, random_bits
from .breathing import Scene, mix_scene, sample_profile, sample_separable_pair
from .channel import ChannelParams, ladder_levels, noise_power_for_snr, qam_demodulate, qam_modulate
from .commitment import commit, new_salt
from .fingerprint import extract, hamming_similarity
from .ica import jade_separate, match_sources
from .protocol import (
    BANK,
    QAM,
    BeltDevice,
    BeltObservation,
    PairingScene,
    PipelineConfig,
    PrmsDevice,
    PrmsObservation,
    observe_scene,
    prepare_series,
    run_pairing,
    two_subject_scene,
)
from .randomness import gf2_rank_rate, monobit_test, randomness_tests, runs_test
from .rs import RsCodeSpec, standard_code

__all__ = ["ExperimentConfig", "SCENARIOS", "SCENARIO_TABLE", "run_experiment"]


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = "pairing-success"
    seeds: tuple[int, ...] = (0,)
    population: int = 20
    durations: tuple[float, ...] = (6.0, 12.0, 24.0, 48.0, 60.0)
    rs: RsCodeSpec = field(default_factory=standard_code)
    channel: ChannelParams = field(default_factory=ChannelParams)
    p_max: float = 1000.0
    trials: int | None = None
    samples: int | None = None
    output_path: str = "out"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        if len(self.seeds) == 0:
            raise ValueError("need at least one seed")
        for d in self.durations:
            if not 6.0 <= d <= 60.0:
                raise ValueError(f"window durations must lie in [6, 60] s, got {d}")

    def trial_seed(self, index: int, salt: int = 0) -> int:
        base = self.seeds[index % len(self.seeds)]
        return (base * 1_000_003 + index * 7919 + salt * 104_729) % (1 << 31)


def _write_csv(path: Path, header: tuple[str, ...], rows: list[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n")


def run_experiment(config: ExperimentConfig) -> dict:
    """Run one scenario, write its CSV and summary JSON, return the summary."""
    runner, header = SCENARIO_TABLE[config.scenario]
    rows, summary = runner(config)
    out_dir = Path(config.output_path)
    _write_csv(out_dir / f"{config.scenario}.csv", header, rows)
    summary_blob = {"scenario": config.scenario, "seeds": list(config.seeds), **summary}
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{config.scenario}-summary.json", "w") as fh:
        json.dump(summary_blob, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return summary_blob


# -- separation -----------------------------------------------------------------


def _run_separation(config: ExperimentConfig):
    trials = config.trials or 100
    rows = []
    hits = 0
    for i in range(trials):
        seed = config.trial_seed(i)
        rng = np.random.default_rng(seed)
        p1, p2 = sample_separable_pair(rng)
        mixing = np.array([[1.0, 0.0], [0.0, 1.0]]) + rng.uniform(0.3, 0.7) * np.array(
            [[0.0, 1.0], [1.0, 0.0]]
        )
        scene = Scene(
            subjects=(p1, p2),
            mixing=mixing,
            noise_std=0.01,
            duration=60.0,
            sample_rate=10.0,
            seed=seed,
        )
        mixed, sources = mix_scene(scene)
        result = jade_separate(mixed, 2)
        match = match_sources(result.sources, sources[0])
        other = match_sources(result.sources, sources[1])
        ok = match.correlation >= 0.90
        hits += ok
        rows.append(
            (i, seed, match.correlation, other.correlation, int(result.converged), int(ok))
        )
    summary = {
        "trials": trials,
        "fraction_target_corr_ge_090": hits / trials,
        "checks": {"separation_ge_090_in_90pct": hits / trials >= 0.90},
    }
    return rows, summary


# -- fingerprint similarity -------------------------------------------------------


def _population_observations(
    config: ExperimentConfig,
    belt_noise_std: float = 0.002,
    radar_phase_noise_std: float = 0.004,
    drift_std: float = 0.01,
    duration_s: float = 61.0,
):
    """Single-subject belt and radar observations for `population` subjects."""
    observations = []
    for i in range(config.population):
        seed = config.trial_seed(i, salt=1)
        profile = sample_profile(seed, drift_std=drift_std)
        scene = PairingScene(
            subjects=(profile,),
            seed=seed,
            belt_noise_std=belt_noise_std,
            radar_phase_noise_std=radar_phase_noise_std,
            duration_s=duration_s,
        )
        observations.append(observe_scene(scene))
    return observations


def _slice_observations(belt_obs, prms_obs, t0: float, t1: float):
    """Restrict both observations to [t0, t1], as a session of that length."""
    return (
        BeltObservation(belt_obs.series.slice(t0, t1)),
        PrmsObservation(tuple(iq.slice(t0, t1) for iq in prms_obs.iq_channels)),
    )


def _raw_window_bits(observation, t0: float, t1: float):
    """Raw quantizer bits of a standalone session over [t0, t1]."""
    return extract(prepare_series(observation), t0, t1, BANK).bits[0]


def _run_fingerprint_similarity(config: ExperimentConfig, n_offsets: int = 6):
    """Per-bit Hamming similarity of raw fingerprints, session per window.

    Each (subject, duration, offset) is processed as its own session:
    observations are cut to the window and normalized over it alone,
    exactly as a pairing session of that length would see them. The
    characterization population is observed under heavier sensor noise
    than the pairing defaults so the short-window penalty (scale
    estimation over one or two breathing cycles) is visible.
    """
    obs_len = 91.0
    observations = _population_observations(
        config,
        belt_noise_std=0.025,
        radar_phase_noise_std=0.06,
        drift_std=0.02,
        duration_s=obs_len,
    )
    rows = []
    same_means = {}
    for duration in sorted(config.durations):
        offsets = np.linspace(0.0, obs_len - 1.0 - duration, n_offsets)
        sims_same = []
        for i, (belt_obs, prms_obs) in enumerate(observations):
            for w, off in enumerate(offsets):
                t0, t1 = float(off), float(off + duration)
                belt_cut, prms_cut = _slice_observations(belt_obs, prms_obs, t0, t1)
                bits_a = _raw_window_bits(belt_cut, t0, t1)
                bits_b = _raw_window_bits(prms_cut, t0, t1)
                sim = hamming_similarity(bits_a, bits_b)
                sims_same.append(sim)
                rows.append(("same", i, i, duration, w, sim))
        same_means[duration] = float(np.mean(sims_same))
    full_bits_belt = []
    full_bits_radar = []
    for belt_obs, prms_obs in observations:
        belt_cut, prms_cut = _slice_observations(belt_obs, prms_obs, 0.0, 60.0)
        full_bits_belt.append(_raw_window_bits(belt_cut, 0.0, 60.0))
        full_bits_radar.append(_raw_window_bits(prms_cut, 0.0, 60.0))
    cross_sims = []
    for i in range(config.population):
        for j in range(config.population):
            if i == j:
                continue
            sim = hamming_similarity(full_bits_belt[i], full_bits_radar[j])
            cross_sims.append(sim)
            rows.append(("cross", i, j, 60.0, 0, sim))
    cross_mean = float(np.mean(cross_sims))
    ordered = [same_means[d] for d in sorted(same_means)]
    monotone = all(a <= b + 1e-12 for a, b in zip(ordered, ordered[1:]))
    gap = same_means[max(same_means)] - cross_mean
    summary = {
        "same_subject_mean_by_duration": {str(k): v for k, v in sorted(same_means.items())},
        "cross_subject_mean_at_60s": cross_mean,
        "gap_at_60s": gap,
        "checks": {
            "same_subject_similarity_monotone": monotone,
            "gap_at_60s_ge_015": gap >= 0.15,
        },
    }
    return rows, summary


# -- commitment entropy -----------------------------------------------------------


def _run_commitment_entropy(config: ExperimentConfig):
    n_samples = config.samples or 10_000
    belt_obs, _ = _population_observations(replace(config, population=1))[0]
    pipeline = PipelineConfig(rs_spec=config.rs)
    fingerprint = BeltDevice(belt_obs, pipeline).derive_fingerprints((0, 60_000))[0]
    spec = config.rs
    codec = spec.codec()
    drbg = Sha256Drbg(config.trial_seed(0, salt=2))
    # The rank rate stacks R = codeword_bits + 64 differences x_i ^ x_0, so a
    # uniform source falls short of full rank with probability below 2^-64.
    # With fewer than R + 1 samples the rate is not measurable.
    rank_samples = spec.codeword_bits + 65
    measurable = n_samples >= rank_samples

    rows = []
    stats = {"salt": [], "opening": [], "commitment": []}
    pooled = {"salt": [], "opening": [], "commitment": []}
    for i in range(n_samples):
        salt = new_salt(spec, drbg)
        opening = codec.symbols_to_bits(codec.encode(codec.bits_to_symbols(salt)))
        commitment_bits = np.bitwise_xor(opening, fingerprint)
        for kind, bits in (("salt", salt), ("opening", opening), ("commitment", commitment_bits)):
            report = randomness_tests(bits)
            stats[kind].append(report)
            rows.append(
                (
                    kind,
                    i,
                    report.monobit_p,
                    report.runs_p,
                    report.approx_entropy_per_bit,
                )
            )
            if i < rank_samples:
                pooled[kind].append(bits)

    def agg(kind):
        reports = stats[kind]
        return {
            "mean_apen_per_bit": float(np.mean([r.approx_entropy_per_bit for r in reports])),
            "monobit_pass_rate": float(np.mean([r.monobit_p >= 0.01 for r in reports])),
            "runs_pass_rate": float(np.mean([r.runs_p >= 0.01 for r in reports])),
            "rank_rate": gf2_rank_rate(np.stack(pooled[kind])) if measurable else None,
        }

    summary = {kind: agg(kind) for kind in stats}
    summary["rank_samples"] = rank_samples
    pooled_salt = np.concatenate(pooled["salt"][:200])
    summary["salt_pooled_monobit_p"] = monobit_test(pooled_salt)
    summary["salt_pooled_runs_p"] = runs_test(pooled_salt)
    # The construction's true entropy rate: a codeword-length commitment
    # carries exactly the salt's entropy. Local statistics such as ApEn
    # cannot see this (any <= N-symbol marginal of an MDS codeword is
    # uniform); the GF(2) rank rate can, because the binary image of the RS
    # code is a linear subspace of dimension message_bits.
    summary["structural_entropy_per_bit"] = spec.message_bits / spec.codeword_bits
    rate_salt = summary["salt"]["rank_rate"]
    rate_commit = summary["commitment"]["rank_rate"]
    summary["checks"] = {
        "salts_pass_monobit_runs": (
            summary["salt_pooled_monobit_p"] >= 0.01 and summary["salt_pooled_runs_p"] >= 0.01
        ),
        "commitment_rank_rate_below_salt": measurable and rate_commit < rate_salt,
    }
    return rows, summary


# -- RS decode timing ---------------------------------------------------------------


def _run_rs_timing(config: ExperimentConfig, parities=(16, 32, 54), reps: int = 40):
    rows = []
    variations = {}
    rng = np.random.default_rng(config.trial_seed(0, salt=3))
    order_rng = np.random.default_rng(config.trial_seed(0, salt=6))
    for parity in parities:
        spec = RsCodeSpec(config.rs.field, 255, 255 - parity)
        codec = spec.codec()
        msg = rng.integers(0, spec.field.size, size=spec.n_symbols)
        clean = codec.encode(msg)
        words = []
        for n_err in range(spec.t + 1):
            word = clean.copy()
            pos = rng.choice(spec.m_symbols, size=n_err, replace=False)
            word[pos] ^= rng.integers(1, spec.field.size, size=n_err)
            words.append(word)
        for _ in range(10):
            codec.decode(clean)  # warm-up
        # Each rep times every error count once, in a fresh seeded order.
        # Slow spells from co-tenant load last several ms and cover stretches
        # of a rep; in a fixed order they would land on the same counts in
        # every rep. Dividing each time by its rep's median cancels a spell
        # that covers the whole rep, and the per-count median of those
        # ratios ignores spells that cover fewer than half of the reps.
        times = np.full((len(words), reps), np.inf)
        for rep in range(reps):
            for n_err in order_rng.permutation(len(words)):
                t0 = time.perf_counter()
                out = codec.decode(words[n_err])
                times[n_err, rep] = time.perf_counter() - t0
                assert out is not None and np.array_equal(out, msg)
        for n_err, count_times in enumerate(times):
            q25, median = np.quantile(count_times, [0.25, 0.5])
            rows.append((parity, n_err, float(q25), float(median)))
        ratios = np.median(times / np.median(times, axis=0), axis=1)
        variations[parity] = float((ratios.max() - ratios.min()) / ratios.mean())
    summary = {
        "variation_by_parity": {str(k): v for k, v in variations.items()},
        "checks": {"timing_variation_below_10pct": max(variations.values()) < 0.10},
    }
    return rows, summary


# -- adversarial BER ------------------------------------------------------------------


def _insider_success_mask(
    spec: RsCodeSpec,
    ladder_powers: tuple[float, ...],
    p2: float,
    p0: float,
    trials: int,
    rng: np.random.Generator,
):
    """Vectorized insider trial batch at one eavesdropper position.

    The insider knows the fingerprint exactly, so it recovers a sub-salt
    iff the channel corrupts at most t symbols of the masked codeword; its
    chosen copy is jammed with probability 1/2 (random pick against a
    uniform mask). Returns (per-level success matrix, per-level mean BER).
    """
    n_bits = spec.codeword_bits
    payload = random_bits(n_bits, rng)
    symbols = qam_modulate(payload, QAM)
    n_sym = symbols.size
    noise_tap = noise_power_for_snr(p2 / p0, QAM) if p2 > 0 else 0.0
    success = np.zeros((len(ladder_powers), trials), dtype=bool)
    bers = np.zeros(len(ladder_powers))
    for li, level in enumerate(ladder_powers):
        jam_ratio = level / p2
        picked_jammed = rng.integers(0, 2, size=(trials, n_sym)).astype(bool)
        noise = (rng.normal(size=(trials, n_sym)) + 1j * rng.normal(size=(trials, n_sym))) * np.sqrt(
            noise_tap / 2
        )
        jam = (rng.normal(size=(trials, n_sym)) + 1j * rng.normal(size=(trials, n_sym))) * np.sqrt(
            jam_ratio / 2
        )
        received = symbols[None, :] + noise + np.where(picked_jammed, jam, 0)
        bits = qam_demodulate(received.ravel(), QAM, n_bits=None).reshape(trials, -1)[
            :, :n_bits
        ]
        errors = bits != payload[None, :]
        bers[li] = float(errors.mean())
        sym_errors = errors.reshape(trials, spec.m_symbols, spec.field.k_bits).any(axis=2).sum(axis=1)
        success[li] = sym_errors <= spec.t
    return success, bers


def _run_adversarial_ber(config: ExperimentConfig, grid_points: int = 20):
    trials = config.trials or 1000
    spec = config.rs
    ladder = ladder_levels(config.p_max, config.channel.p0)
    grid = np.logspace(
        np.log10(config.channel.p0), np.log10(config.p_max), grid_points
    )
    rows = []
    failure_rates = []
    rng = np.random.default_rng(config.trial_seed(0, salt=4))
    all_bers = []
    for p2 in grid:
        success, bers = _insider_success_mask(
            spec, ladder.levels, float(p2), config.channel.p0, trials, rng
        )
        insider_wins = success.all(axis=0)
        failure_rate = float(1.0 - insider_wins.mean())
        failure_rates.append(failure_rate)
        all_bers.extend(bers.tolist())
        for li, level in enumerate(ladder.levels):
            rows.append(
                (
                    float(p2),
                    li,
                    float(level / p2),
                    float(bers[li]),
                    float(success[li].mean()),
                    failure_rate,
                )
            )
    # sanity inversion: jamming disabled at the insider's nominal position
    disabled_success, disabled_bers = _insider_success_mask(
        spec, (0.0,), config.channel.p1, config.channel.p0, trials, rng
    )
    disabled_rate = float(disabled_success.all(axis=0).mean())
    summary = {
        "grid_points": grid_points,
        "trials_per_point": trials,
        "ladder_levels": list(ladder.levels),
        "min_insider_failure_rate": min(failure_rates),
        "jamming_disabled_success_rate": disabled_rate,
        "jamming_disabled_ber": float(disabled_bers[0]),
        "ber_quantiles": {
            "q10": float(np.quantile(all_bers, 0.10)),
            "q50": float(np.quantile(all_bers, 0.50)),
            "q90": float(np.quantile(all_bers, 0.90)),
        },
        "checks": {
            "insider_fails_ge_99pct_everywhere": min(failure_rates) >= 0.99,
            "disabled_jamming_insider_succeeds": disabled_rate >= 0.99,
        },
    }
    return rows, summary


# -- end-to-end pairing -----------------------------------------------------------------


def _run_pairing_success(config: ExperimentConfig):
    trials = config.trials or 100
    pipeline = PipelineConfig(rs_spec=config.rs)
    ladder = ladder_levels(config.p_max, config.channel.p0)
    rows = []
    successes = 0
    key_matches = 0
    for i in range(trials):
        seed = config.trial_seed(i, salt=5)
        scene = two_subject_scene(seed)
        belt_obs, prms_obs = observe_scene(scene)
        outcome = run_pairing(
            BeltDevice(belt_obs, pipeline),
            PrmsDevice(prms_obs, pipeline),
            config.channel,
            ladder,
            np.random.default_rng(seed ^ 0x9E3779B9),
            salt_seed=seed,
        )
        successes += outcome.success
        keys_equal = outcome.success and outcome.key_a == outcome.key_b
        key_matches += keys_equal
        retries = sum(rec.retries for rec in outcome.levels)
        rows.append(
            (
                i,
                seed,
                int(outcome.success),
                int(keys_equal),
                retries,
                outcome.failed_level if outcome.failed_level is not None else -1,
            )
        )
    rate = successes / trials
    summary = {
        "trials": trials,
        "success_rate": rate,
        "keys_identical_in_every_success": key_matches == successes,
        "checks": {
            "success_rate_gt_090": rate > 0.90,
            "keys_identical": key_matches == successes,
        },
    }
    return rows, summary


# Every scenario: its runner and the header of the CSV it writes.
SCENARIO_TABLE = {
    "separation": (
        _run_separation,
        ("trial", "seed", "target_corr", "other_corr", "converged", "target_ok"),
    ),
    "fingerprint-similarity": (
        _run_fingerprint_similarity,
        ("kind", "subject_i", "subject_j", "duration_s", "window", "similarity"),
    ),
    "commitment-entropy": (
        _run_commitment_entropy,
        ("kind", "sample", "monobit_p", "runs_p", "apen_per_bit"),
    ),
    "rs-timing": (_run_rs_timing, ("parity_symbols", "n_errors", "min_s", "median_s")),
    "adversarial-ber": (
        _run_adversarial_ber,
        ("p2", "level", "jam_to_signal", "mean_ber", "level_success_rate", "insider_failure_rate"),
    ),
    "pairing-success": (
        _run_pairing_success,
        ("trial", "seed", "success", "keys_equal", "total_retries", "failed_level"),
    ),
}
SCENARIOS = tuple(SCENARIO_TABLE)
