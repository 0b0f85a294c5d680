"""Shared two-class desk fixture: a low-passed thump and a high-passed noise
burst with disjoint spectra, sequenced into a 6 s mixture."""

import numpy as np

from drumsep.classes import CLASS_INDEX, NUM_CLASSES
from drumsep.drum_machine import ONE_SHOT_LENGTH, OneShotBank, render
from drumsep.signal import SAMPLE_RATE, Waveform
from drumsep.transcription import Event, Transcription, onset_samples

CLASS_A = "kick"          # low band
CLASS_B = "hihat_closed"  # high band
HOP = 512
DURATION = 6.0


def two_class_bank(seed: int = 42) -> OneShotBank:
    r = ONE_SHOT_LENGTH
    t = np.arange(r) / SAMPLE_RATE
    rng = np.random.default_rng(seed)
    thump = np.sin(2 * np.pi * 70 * t) * np.exp(-t * 9)
    thump /= np.abs(thump).max()
    # first difference of white noise is high-passed
    burst = np.diff(rng.normal(size=r), prepend=0.0) * np.exp(-t * 25)
    burst /= np.abs(burst).max()
    shots = np.zeros((NUM_CLASSES, r))
    shots[CLASS_INDEX[CLASS_A]] = thump
    shots[CLASS_INDEX[CLASS_B]] = burst
    return OneShotBank("fixture_kit", shots)


def two_class_transcription() -> Transcription:
    events = [
        Event(tt, CLASS_A, 1.0 + 0.1 * i)
        for i, tt in enumerate([0.3, 1.2, 2.5, 3.8, 4.9])
    ] + [
        Event(tt, CLASS_B, 0.8 + 0.1 * i)
        for i, tt in enumerate([0.6, 1.7, 2.9, 4.2, 5.3])
    ]
    return Transcription(tuple(events))


def two_class_mixture():
    """Returns (mixture Waveform, true stems K x T, transcription, bank)."""
    bank = two_class_bank()
    trans = two_class_transcription()
    n = int(DURATION * SAMPLE_RATE)
    onsets, velocities = onset_samples(trans, n, HOP)
    gains = np.zeros(NUM_CLASSES)
    gains[CLASS_INDEX[CLASS_A]] = 0.9
    gains[CLASS_INDEX[CLASS_B]] = 0.7
    amplitudes = gains[[k for k, _ in onsets]] * velocities
    stems, mix = render(bank, onsets, amplitudes, np.zeros(NUM_CLASSES), n)
    scale = 0.8 / np.abs(mix).max()
    return Waveform(mix * scale), stems * scale, trans, bank


def normalized_xcorr(a: np.ndarray, b: np.ndarray, max_lag: int = 512) -> float:
    """Max |normalized cross-correlation| over small lags (the loss is
    blind to a global sign flip)."""
    best = 0.0
    na = np.linalg.norm(a)
    for lag in range(-max_lag, max_lag + 1):
        if lag >= 0:
            x, y = a[lag:], b[: len(b) - lag]
        else:
            x, y = a[: len(a) + lag], b[-lag:]
        denom = na * np.linalg.norm(y)
        if denom > 0:
            best = max(best, abs(float(np.dot(x, y))) / denom)
    return best
