"""Synthetic track generation: random hop-grid transcriptions rendered
through the drum machine, with amplitude normalization and gain augmentation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classes import CLASS_NAMES, NUM_CLASSES
from .drum_machine import OneShotBank, render
from .fileio import MAX_WAV_SAMPLES
from .signal import SAMPLE_RATE, DEFAULT_HOP, Waveform
from .transcription import Event, Transcription, onset_samples

# Onsets per second for each of the 9 classes; roughly a rock-kit feel with
# sparse toms and cymbals.
DENSITIES = {
    "kick": 2.0,
    "snare": 1.5,
    "hihat_closed": 3.0,
    "hihat_open": 0.5,
    "hi_tom": 0.3,
    "mid_tom": 0.3,
    "low_tom": 0.3,
    "crash_left": 0.2,
    "ride": 0.5,
}

VELOCITY_RANGE = (0.5, 1.5)
# Chance that a track's mixture gets a random gain from GAIN_RANGE.
GAIN_PROBABILITY = 0.8
# Minimum spacing, in hops, between same-class onsets; keeps zero-insertion
# aliasing negligible.
MIN_GAP_HOPS = 2
# Range of the random mixture gain, and of the per-class decay parameter.
GAIN_RANGE = (0.3, 1.0)
ALPHA_RANGE = (0.0, 0.3)


@dataclass(frozen=True)
class GenerationSpec:
    """Parameters of the synthetic dataset sampler."""

    n_tracks: int = 10
    duration: float = 6.0

    def __post_init__(self):
        if self.n_tracks < 1:
            raise ValueError(f"tracks must be at least 1, got {self.n_tracks}")
        if not (np.isfinite(self.duration)
                and DEFAULT_HOP <= round(self.duration * SAMPLE_RATE) <= MAX_WAV_SAMPLES):
            raise ValueError(
                f"duration must be from one hop ({DEFAULT_HOP} samples) to a "
                f"WAV's {MAX_WAV_SAMPLES} samples, got {self.duration} s"
            )


@dataclass(frozen=True)
class GeneratedTrack:
    track_id: str
    kit_id: str
    mixture: Waveform
    stems: np.ndarray  # K x T
    transcription: Transcription


def _sample_track(
    bank: OneShotBank, rng: np.random.Generator, spec: GenerationSpec
) -> tuple[np.ndarray, np.ndarray, Transcription]:
    n_samples = int(round(spec.duration * SAMPLE_RATE))
    n_frames = n_samples // DEFAULT_HOP
    events = []
    for name in CLASS_NAMES:
        density = DENSITIES.get(name, 0.0)
        count = rng.poisson(density * spec.duration)
        if count == 0:
            continue
        frames = _spaced_frames(rng, count, n_frames, MIN_GAP_HOPS)
        for m in frames:
            velocity = rng.uniform(*VELOCITY_RANGE)
            events.append(Event(m * DEFAULT_HOP / SAMPLE_RATE, name, velocity))
    transcription = Transcription(tuple(events))

    onsets, velocities = onset_samples(transcription, n_samples)
    alphas = rng.uniform(*ALPHA_RANGE, size=NUM_CLASSES)
    stems, mixture = render(bank, onsets, velocities, alphas, n_samples)

    # Normalize mixture (and stems, coherently) to [-1, 1], then apply the
    # random gain augmentation to everything so stems still sum to the mix.
    peak = np.abs(mixture).max()
    scale = 1.0 / peak if peak > 1e-12 else 1.0
    if rng.uniform() < GAIN_PROBABILITY:
        scale *= rng.uniform(*GAIN_RANGE)
    stems, mixture = stems * scale, mixture * scale
    # Stems that cancel in the mixture can still exceed full scale; bring them
    # within it, with the mixture, so a WAV write clips nothing.
    stem_peak = np.abs(stems).max()
    if stem_peak > 1.0:
        stems, mixture = stems / stem_peak, mixture / stem_peak
    return stems, mixture, transcription


def _spaced_frames(
    rng: np.random.Generator, count: int, n_frames: int, min_gap: int
) -> np.ndarray:
    """Draw up to ``count`` distinct frames more than ``min_gap`` apart:
    up to ``8 * count`` draws, each kept unless within ``min_gap`` of a
    frame kept before it. The frames so blocked are kept in a set, so each
    draw costs the same however many frames are kept."""
    frames: list[int] = []
    blocked: set[int] = set()
    for _ in range(8 * count):
        if len(frames) == count:
            break
        candidate = int(rng.integers(0, n_frames))
        if candidate not in blocked:
            frames.append(candidate)
            blocked.update(range(candidate - min_gap, candidate + min_gap + 1))
    return np.sort(np.array(frames, dtype=int))


def generate_dataset(
    banks: list[OneShotBank], seed: int, spec: GenerationSpec = GenerationSpec()
) -> list[GeneratedTrack]:
    """Sample ``spec.n_tracks`` synthetic tracks, deterministically in seed.

    Each track gets its own generator seeded from (seed, index), so tracks
    are independent of generation order.
    """
    if not banks:
        raise ValueError("at least one one-shot bank is required")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    tracks = []
    for i in range(spec.n_tracks):
        rng = np.random.default_rng([seed, i])
        bank = banks[int(rng.integers(0, len(banks)))]
        stems, mixture, transcription = _sample_track(bank, rng, spec)
        tracks.append(
            GeneratedTrack(
                track_id=f"track_{i:04d}",
                kit_id=bank.kit_id,
                mixture=Waveform(mixture),
                stems=stems,
                transcription=transcription,
            )
        )
    return tracks
