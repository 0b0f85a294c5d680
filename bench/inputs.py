"""Seeded benchmark inputs: a nine-class synthetic kit, tracks rendered from
it, and leaky stem estimates for the evaluate pipeline.

Everything here is the benchmark's own numpy code, so the program under test
only ever sees the files written from these arrays.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.io import wavfile

SAMPLE_RATE = 44100
HOP = 512
ONE_SHOT = SAMPLE_RATE
CLASS_NAMES = (
    "kick", "snare", "hihat_closed", "hihat_open", "hi_tom", "mid_tom",
    "low_tom", "crash_left", "ride",
)
# Onsets per second, about 8 in all; `make_track` also gives every class at
# least one onset, so all nine are active, unlike the two-class test fixture.
DENSITIES = (1.6, 1.2, 2.4, 0.5, 0.4, 0.4, 0.4, 0.3, 0.6)


def _noise_band(rng, n, lo, hi):
    """White noise band-limited to [lo, hi] Hz by zeroing FFT bins."""
    spec = np.fft.rfft(rng.normal(size=n))
    freqs = np.fft.rfftfreq(n, 1.0 / SAMPLE_RATE)
    spec[(freqs < lo) | (freqs > hi)] = 0.0
    return np.fft.irfft(spec, n)


def make_kit(seed: int) -> np.ndarray:
    """Nine one-second one-shots (9 x 44100) with distinct spectra, peak 0.95.

    Pitches, bands and decays are jittered by the seed so each seed is a
    different kit.
    """
    rng = np.random.default_rng([seed, 1])
    t = np.arange(ONE_SHOT) / SAMPLE_RATE

    def j():
        return rng.uniform(0.9, 1.1)

    def tone(f0, f1, decay):
        freq = f1 + (f0 - f1) * np.exp(-t * 30.0)
        return np.sin(2 * np.pi * np.cumsum(freq) / SAMPLE_RATE) * np.exp(-t * decay)

    def noise(lo, hi, decay):
        return _noise_band(rng, ONE_SHOT, lo, hi) * np.exp(-t * decay)

    def norm(x):
        return x / np.abs(x).max()

    shots = [
        tone(150 * j(), 50 * j(), 9 * j()),                                   # kick
        norm(tone(200 * j(), 180 * j(), 20 * j()))
        + norm(noise(1500, 6000, 25 * j())),                                  # snare
        noise(7000 * j(), 16000, 45 * j()),                                   # closed hat
        noise(6000 * j(), 16000, 7 * j()),                                    # open hat
        tone(320 * j(), 250 * j(), 10 * j()),                                 # hi tom
        tone(220 * j(), 170 * j(), 9 * j()),                                  # mid tom
        tone(150 * j(), 110 * j(), 8 * j()),                                  # low tom
        noise(3000 * j(), 12000, 3 * j()),                                    # crash
        norm(noise(4000 * j(), 10000, 5 * j()))
        + 0.5 * np.sin(2 * np.pi * 2900 * j() * t) * np.exp(-t * 6),         # ride
    ]
    return np.stack([0.95 * norm(s) for s in shots])


def make_track(kit: np.ndarray, seed: int, index: int, duration: float):
    """Onset events, per-class stems (9 x T) and their mixture.

    Onsets sit on the 512-sample hop grid, as `generate` writes them, at least
    three hops apart within a class; the mixture peaks at 0.8.
    """
    rng = np.random.default_rng([seed, 2, index])
    n = int(round(duration * SAMPLE_RATE))
    n_frames = n // HOP
    stems = np.zeros((len(CLASS_NAMES), n))
    events = []
    for k, density in enumerate(DENSITIES):
        slots = np.arange(0, n_frames - 1, 3)
        count = min(len(slots), max(1, rng.poisson(density * duration)))
        frames = np.sort(rng.choice(slots, size=count, replace=False))
        gain = rng.uniform(0.5, 1.0)
        for m in frames:
            velocity = rng.uniform(0.5, 1.5)
            pos = int(m) * HOP
            seg = min(ONE_SHOT, n - pos)
            stems[k, pos : pos + seg] += gain * velocity * kit[k, :seg]
            events.append((pos / SAMPLE_RATE, CLASS_NAMES[k], velocity))
    scale = 0.8 / np.abs(stems.sum(axis=0)).max()
    stems *= scale
    return events, stems, stems.sum(axis=0)


def leaky_estimates(stems: np.ndarray, leak: float) -> np.ndarray:
    """Each estimate keeps (1 - leak) of its stem plus leak times the mean of
    the others; the estimates still sum to the mixture."""
    k = len(stems)
    others = (stems.sum(axis=0, keepdims=True) - stems) / (k - 1)
    return (1.0 - leak) * stems + leak * others


def write_wav(path: Path, x: np.ndarray):
    """Mono float32 WAV, as drumsep writes them."""
    path.parent.mkdir(parents=True, exist_ok=True)
    wavfile.write(path, SAMPLE_RATE, np.asarray(x, dtype=np.float32))


def read_wav(path: Path) -> np.ndarray:
    rate, data = wavfile.read(path)
    if rate != SAMPLE_RATE or data.ndim != 1:
        raise ValueError(f"{path}: expected mono {SAMPLE_RATE} Hz")
    return data.astype(np.float64)


def write_kit(kit: np.ndarray, directory: Path):
    for k, name in enumerate(CLASS_NAMES):
        write_wav(directory / f"{name}.wav", kit[k])


def write_transcription(events, path: Path):
    lines = ["onset_sec,class,velocity"]
    lines += [f"{t:.6f},{c},{v:.6f}" for t, c, v in events]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
