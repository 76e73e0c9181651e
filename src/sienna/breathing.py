"""Synthetic chest displacement plus radar and belt observation models.

Displacement is the sum of an asymmetric respiration waveform (raised-cosine
inhale, exponential-relaxation exhale), a heartbeat sinusoid, and a slow
bounded baseline wander. A Doppler radar channel turns displacement x(t)
into quadrature pairs

    I(t) = A_I * cos(theta0 + 4*pi*x(t)/lambda + phase_noise)
    Q(t) = A_Q * sin(theta0 + 4*pi*x(t)/lambda + phase_noise)

recoverable through arctangent demodulation, while the belt applies a linear
gain at its own sample rate. Everything is deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DisplacementSeries",
    "RadarIQ",
    "Scene",
    "SubjectProfile",
    "arctan_demodulate",
    "belt_observe",
    "linear_demodulate",
    "load_series",
    "mix_scene",
    "radar_observe",
    "sample_profile",
    "sample_separable_pair",
    "save_series",
    "synth_displacement",
]

DEFAULT_WAVELENGTH_CM = 1.07  # 28 GHz carrier

# Exhale relaxation rate: displacement returns to within ~2% of baseline by
# the end of the exhale phase, keeping the waveform continuous at the wrap.
_EXHALE_DECAY = 4.0


@dataclass(frozen=True)
class SubjectProfile:
    """Generative parameters for one subject's chest motion."""

    resp_rate: float = 12.0  # breaths per minute
    resp_amp: float = 0.4  # cm
    inhale_fraction: float = 0.38
    heart_rate: float = 60.0  # beats per minute
    heart_amp: float = 0.03  # cm
    phase0: float = 0.0  # radians
    drift_std: float = 0.0  # cm
    seed: int = 0

    def __post_init__(self):
        if self.resp_rate <= 0 or self.heart_rate <= 0:
            raise ValueError("rates must be positive")
        if not 0 <= self.resp_amp <= 0.5:
            raise ValueError("respiration amplitude limited to [0, 0.5] cm")
        if not 0 <= self.heart_amp <= 0.05:
            raise ValueError("heartbeat amplitude limited to [0, 0.05] cm")
        if not 0 < self.inhale_fraction < 1:
            raise ValueError("inhale fraction must lie in (0, 1)")
        if self.drift_std < 0:
            raise ValueError("drift_std must be non-negative")


@dataclass(frozen=True)
class DisplacementSeries:
    """Uniformly sampled displacement in cm over [t_start, t_end).

    ``samples`` holds one series, shape (T,), or a stack of C series on the
    same time base, shape (C, T); time runs along the last axis.
    """

    samples: np.ndarray
    sample_rate: float
    t_start: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.samples.ndim not in (1, 2):
            raise ValueError("samples must be one series (T,) or a stack of series (C, T)")
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("displacement contains non-finite values")

    @property
    def t_end(self) -> float:
        return self.t_start + self.samples.shape[-1] / self.sample_rate

    @property
    def times(self) -> np.ndarray:
        return self.t_start + np.arange(self.samples.shape[-1]) / self.sample_rate

    def value_at(self, instants: np.ndarray) -> np.ndarray:
        """Linear interpolation of every series; instants must fall inside the span.

        Returns shape (..., len(instants)) and reproduces ``np.interp`` bit
        for bit: the sample itself at a sample instant or beyond either end,
        else ``slope * (t - t_j) + x_j`` on the enclosing interval.
        """
        instants = np.asarray(instants, dtype=np.float64)
        times = self.times
        eps = 0.5 / self.sample_rate
        if instants.min() < self.t_start - eps or instants.max() > times[-1] + eps:
            raise ValueError(
                f"window [{instants.min():.3f}, {instants.max():.3f}] s outside "
                f"series span [{self.t_start:.3f}, {times[-1]:.3f}] s"
            )
        x = self.samples
        if times.size == 1:
            return np.broadcast_to(x[..., :1], (*x.shape[:-1], instants.size)).copy()
        j = np.clip(np.searchsorted(times, instants, side="right") - 1, 0, times.size - 2)
        slope = (x[..., j + 1] - x[..., j]) / (times[j + 1] - times[j])
        values = slope * (instants - times[j]) + x[..., j]
        values = np.where(instants <= times[j], x[..., j], values)
        return np.where(instants >= times[-1], x[..., -1:], values)

    def slice(self, t0: float, t1: float) -> DisplacementSeries:
        """The samples at t0 through t1, both ends included, starting at t0."""
        cut = _sample_range(self.t_start, self.sample_rate, t0, t1)
        return replace(self, samples=self.samples[..., cut], t_start=t0)


def _sample_range(t_start: float, rate: float, t0: float, t1: float) -> slice:
    """Indices of the samples nearest t0 through t1, both ends included."""
    return slice(int(round((t0 - t_start) * rate)), int(round((t1 - t_start) * rate)) + 1)


def synth_displacement(
    profile: SubjectProfile, t_start: float, t_end: float, rate: float
) -> DisplacementSeries:
    """Deterministic displacement series for one subject."""
    if rate <= 0:
        raise ValueError("sample rate must be positive")
    if t_end <= t_start:
        raise ValueError("t_end must exceed t_start")
    n = round((t_end - t_start) * rate)
    t = t_start + np.arange(n) / rate
    rng = np.random.default_rng(profile.seed)

    period = 60.0 / profile.resp_rate
    phase = (t / period + profile.phase0 / (2 * np.pi)) % 1.0
    fi = profile.inhale_fraction
    inhale = 0.5 * (1 - np.cos(np.pi * phase / fi))
    u = (phase - fi) / (1 - fi)
    exhale = (np.exp(-_EXHALE_DECAY * u) - np.exp(-_EXHALE_DECAY)) / (
        1 - np.exp(-_EXHALE_DECAY)
    )
    resp = profile.resp_amp * np.where(phase < fi, inhale, exhale)

    heart_phase = rng.uniform(0, 2 * np.pi)
    heart = profile.heart_amp * np.sin(2 * np.pi * profile.heart_rate / 60.0 * t + heart_phase)

    drift = np.zeros(n)
    if profile.drift_std > 0:
        # Three slow sinusoids with |amplitude| summing to 3*drift_std keep the
        # wander bounded while remaining seeded and smooth.
        amps = np.abs(rng.normal(size=3))
        amps *= 3.0 * profile.drift_std / amps.sum()
        freqs = rng.uniform(0.005, 0.03, size=3)
        phases = rng.uniform(0, 2 * np.pi, size=3)
        for a, f, p in zip(amps, freqs, phases):
            drift += a * np.sin(2 * np.pi * f * t + p)

    return DisplacementSeries(resp + heart + drift, rate, t_start)


def sample_profile(seed: int, drift_std: float = 0.01) -> SubjectProfile:
    """Random resting-subject profile within the physiological envelope."""
    rng = np.random.default_rng(seed)
    return SubjectProfile(
        resp_rate=rng.uniform(9.0, 15.0),
        resp_amp=rng.uniform(0.3, 0.5),
        inhale_fraction=rng.uniform(0.28, 0.45),
        heart_rate=rng.uniform(48.0, 60.0),
        heart_amp=rng.uniform(0.02, 0.05),
        phase0=rng.uniform(0, 2 * np.pi),
        drift_std=drift_std,
        seed=seed,
    )


def sample_separable_pair(rng: np.random.Generator) -> tuple[SubjectProfile, SubjectProfile]:
    """Two random profiles whose breathing rates differ by at least 1.2 breaths/min.

    The second is redrawn until they do: near-identical rates leave the two
    sources mutually coherent over a one-minute window and no fourth-order
    method can separate them (nor could a radar hope to tell the people apart).
    """
    first = sample_profile(int(rng.integers(1 << 31)))
    second = sample_profile(int(rng.integers(1 << 31)))
    while abs(second.resp_rate - first.resp_rate) < 1.2:
        second = sample_profile(int(rng.integers(1 << 31)))
    return first, second


@dataclass(frozen=True)
class RadarIQ:
    """One radar channel's quadrature observation and its parameters."""

    i_channel: np.ndarray
    q_channel: np.ndarray
    sample_rate: float
    wavelength: float = DEFAULT_WAVELENGTH_CM  # cm
    theta0: float = 0.0
    a_i: float = 1.0
    a_q: float = 1.0
    phase_noise_std: float = 0.0
    t_start: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "i_channel", np.asarray(self.i_channel, dtype=np.float64))
        object.__setattr__(self, "q_channel", np.asarray(self.q_channel, dtype=np.float64))
        if self.i_channel.size != self.q_channel.size:
            raise ValueError("I and Q channels must have equal length")
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")

    def slice(self, t0: float, t1: float) -> RadarIQ:
        """The I/Q samples at t0 through t1, both ends included, starting at t0."""
        cut = _sample_range(self.t_start, self.sample_rate, t0, t1)
        return replace(
            self, i_channel=self.i_channel[cut], q_channel=self.q_channel[cut], t_start=t0
        )


def radar_observe(
    displacement: DisplacementSeries,
    wavelength: float = DEFAULT_WAVELENGTH_CM,
    theta0: float = 0.0,
    a_i: float = 1.0,
    a_q: float = 1.0,
    phase_noise_std: float = 0.0,
    seed: int = 0,
) -> RadarIQ:
    """Quadrature pair for a chest at displacement x(t), wavelength in cm."""
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    rng = np.random.default_rng(seed)
    noise = (
        rng.normal(0.0, phase_noise_std, size=displacement.samples.size)
        if phase_noise_std > 0
        else 0.0
    )
    theta = theta0 + 4 * np.pi * displacement.samples / wavelength + noise
    return RadarIQ(
        i_channel=a_i * np.cos(theta),
        q_channel=a_q * np.sin(theta),
        sample_rate=displacement.sample_rate,
        wavelength=wavelength,
        theta0=theta0,
        a_i=a_i,
        a_q=a_q,
        phase_noise_std=phase_noise_std,
        t_start=displacement.t_start,
    )


def arctan_demodulate(iq: RadarIQ) -> DisplacementSeries:
    """Unwrapped arctangent phase converted back to mean-centered cm.

    Exact up to an additive constant while the per-sample phase step stays
    within one unwrapping branch (guaranteed at >=10 Hz for the resting
    motion envelope).
    """
    if iq.a_i == 0 or iq.a_q == 0:
        raise ValueError("channel gains must be non-zero")
    theta = np.unwrap(np.arctan2(iq.a_i * iq.q_channel, iq.a_q * iq.i_channel))
    x = theta * iq.wavelength / (4 * np.pi)
    return DisplacementSeries(x - x.mean(), iq.sample_rate, iq.t_start)


def linear_demodulate(iq: RadarIQ) -> np.ndarray:
    """Projection of the mean-centered I/Q pair onto its principal axis.

    The output is the eigenvector projection with the largest variance,
    equal to the leading eigenvalue of the 2x2 channel covariance. Valid as
    a displacement proxy while the phase arc is small; the sign convention
    keeps the dominant channel weight positive.
    """
    data = np.stack([iq.i_channel, iq.q_channel])
    if data.shape[1] < 2:
        raise ValueError("need at least 2 samples")
    centered = data - data.mean(axis=1, keepdims=True)
    variances = centered.var(axis=1)
    for name, var in zip(("i_channel", "q_channel"), variances):
        if var == 0 and variances.max() == 0:
            raise ValueError(f"degenerate radar observation: {name} has zero variance")
    cov = centered @ centered.T / centered.shape[1]
    eigvals, eigvecs = np.linalg.eigh(cov)
    principal = eigvecs[:, -1]
    if principal[np.argmax(np.abs(principal))] < 0:
        principal = -principal
    return principal @ centered


def belt_observe(
    displacement: DisplacementSeries,
    gain: float = 1.0,
    noise_std: float = 0.0,
    sample_rate: float = 100.0,
    seed: int = 0,
) -> DisplacementSeries:
    """Belt transducer: linear gain plus sensor noise at the belt's own rate."""
    rng = np.random.default_rng(seed)
    n = round((displacement.t_end - displacement.t_start) * sample_rate)
    t = displacement.t_start + np.arange(n) / sample_rate
    t = np.minimum(t, displacement.times[-1])
    resampled = np.interp(t, displacement.times, displacement.samples)
    noise = rng.normal(0.0, noise_std, size=n) if noise_std > 0 else 0.0
    return DisplacementSeries(gain * resampled + noise, sample_rate, displacement.t_start)


@dataclass(frozen=True)
class Scene:
    """Multi-subject scene: sources, mixing weights, and channel noise."""

    subjects: tuple[SubjectProfile, ...]
    mixing: np.ndarray  # shape (n_channels, n_subjects)
    noise_std: float = 0.0
    duration: float = 60.0
    sample_rate: float = 10.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "subjects", tuple(self.subjects))
        object.__setattr__(self, "mixing", np.asarray(self.mixing, dtype=np.float64))
        if self.mixing.ndim != 2 or self.mixing.shape[1] != len(self.subjects):
            raise ValueError(
                f"mixing must have one column per subject, got shape {self.mixing.shape} "
                f"for {len(self.subjects)} subjects"
            )
        if not np.all(np.isfinite(self.mixing)):
            raise ValueError("mixing weights must be finite")


def mix_scene(scene: Scene) -> tuple[np.ndarray, np.ndarray]:
    """Observed mixtures X = mixing @ S plus noise, along with ground truth S."""
    sources = np.stack(
        [
            synth_displacement(p, 0.0, scene.duration, scene.sample_rate).samples
            for p in scene.subjects
        ]
    )
    rng = np.random.default_rng(scene.seed)
    mixed = scene.mixing @ sources
    if scene.noise_std > 0:
        mixed = mixed + rng.normal(0.0, scene.noise_std, size=mixed.shape)
    return mixed, sources


def save_series(series: DisplacementSeries, path) -> None:
    """One series per CSV file with a `t_seconds,value` header."""
    with open(path, "w") as fh:
        fh.write("t_seconds,value\n")
        for t, v in zip(series.times, series.samples):
            fh.write(f"{float(t)!r},{float(v)!r}\n")


def load_series(path) -> DisplacementSeries:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "t_seconds,value":
            raise ValueError(f"expected 't_seconds,value' header, got {header!r}")
        pairs = [line.split(",") for line in fh if line.strip()]
    times = np.array([float(t) for t, _ in pairs])
    values = np.array([float(v) for _, v in pairs])
    if times.size < 2:
        raise ValueError("need at least two samples")
    steps = np.diff(times)
    if not np.allclose(steps, steps[0], rtol=1e-6, atol=1e-9):
        raise ValueError("series must be uniformly sampled")
    return DisplacementSeries(values, 1.0 / steps[0], float(times[0]))
