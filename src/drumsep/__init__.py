"""Drum source separation toolkit.

A drum-machine forward model (one-shots triggered at each onset, scaled by
its velocity) inverted two ways: transcription-informed convolutive NMF and
per-track analysis-by-synthesis, which fits the one-shots by
conjugate-gradient least squares (CGLS; the library also keeps an Adam
solver on a multi-resolution STFT loss), with alpha-Wiener masking and a
full metric suite.
"""

from .classes import CLASS_NAMES, FIVE_CLASS_GROUPS, NUM_CLASSES
from .signal import SAMPLE_RATE, StftConfig, Waveform, istft, log_mel, magnitude, stft

__all__ = [
    "CLASS_NAMES",
    "FIVE_CLASS_GROUPS",
    "NUM_CLASSES",
    "SAMPLE_RATE",
    "StftConfig",
    "Waveform",
    "istft",
    "log_mel",
    "magnitude",
    "stft",
]

__version__ = "0.1.0"
