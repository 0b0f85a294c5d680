"""Spectral primitives: STFT, inverse STFT, magnitude, mel filterbank, log-mel,
the span buffers from which the lanes of the masking kernel and LSD take
their frames, and which frames hold a non-zero sample, so that those lanes
can skip the transforms of the silent ones.

All other modules build on these. Everything here is a pure function over
immutable values; nothing holds hidden state, so values are safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SAMPLE_RATE = 44100

# Toolkit-wide analysis configuration: window 2048, hop 512 at 44.1 kHz
# (86.1 Hz frame rate).
DEFAULT_WINDOW = 2048
DEFAULT_HOP = 512

N_MELS = 128
LOG_MEL_FLOOR = 1e-5


class SignalError(ValueError):
    """Invalid signal or analysis configuration."""


@dataclass(frozen=True)
class Waveform:
    """Mono audio at 44.1 kHz with amplitudes in [-1, 1] (not enforced;
    intermediate signals may exceed the range, file I/O clips)."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise SignalError(f"waveform must be 1-D, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise SignalError("waveform contains non-finite samples")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / SAMPLE_RATE


@dataclass(frozen=True)
class StftConfig:
    """Analysis parameters: power-of-two Hann window, hop dividing the window
    and at most half of it, so that overlap-add inverts the STFT (COLA).

    Framing pads window_size/2 zeros on both ends, so frame m is centered on
    sample m*hop (zero padding, not reflection).
    """

    window_size: int = DEFAULT_WINDOW
    hop_size: int = DEFAULT_HOP

    def __post_init__(self):
        w, h = self.window_size, self.hop_size
        if w <= 0 or (w & (w - 1)) != 0:
            raise SignalError(f"window_size must be a power of two, got {w}")
        if h <= 0 or w % h != 0:
            raise SignalError(f"hop_size must divide window_size, got {h} / {w}")
        if h > w // 2:
            raise SignalError(f"stft hop {h} > window/2 does not satisfy overlap-add")

    @property
    def n_bins(self) -> int:
        return self.window_size // 2 + 1


@dataclass(frozen=True)
class ComplexSpectrogram:
    """STFT coefficients (F x M complex) plus the parameters that made them."""

    bins: np.ndarray
    config: StftConfig
    origin_length: int

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.complex128)
        if bins.ndim != 2 or bins.shape[0] != self.config.n_bins:
            raise SignalError(
                f"expected {self.config.n_bins} frequency rows, got shape {bins.shape}"
            )
        object.__setattr__(self, "bins", bins)

    @property
    def n_frames(self) -> int:
        return self.bins.shape[1]


@lru_cache(maxsize=8)
def hann_window(size: int) -> np.ndarray:
    """Periodic Hann window (COLA-exact for hop = size/2, size/4, ...).

    Cached per size and shared between callers, so it is read-only."""
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(size) / size))
    window.flags.writeable = False
    return window


def num_frames(n_samples: int, cfg: StftConfig) -> int:
    """Frame count for a signal of ``n_samples`` under ``cfg``."""
    return 1 + n_samples // cfg.hop_size


def frame_signal(x: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Slice (padded) signal into overlapping frames, shape (M, window).

    The frames are a read-only strided view of the padded signal."""
    pad = cfg.window_size // 2
    return frame_span(np.pad(x, (pad, pad)), cfg)


def frame_span(span: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """The frames of sample rows (..., width), frame m starting at column
    m*hop: a read-only strided view of shape (..., 1 + (width - window) //
    hop, window). This is the one framing rule of ``stft``; a lane frames
    the span buffer that ``fill_span`` fills through it."""
    return sliding_window_view(span, cfg.window_size, axis=-1)[..., :: cfg.hop_size, :]


def fill_span(span: np.ndarray, begin: int, signals) -> tuple[int, int]:
    """Fill the rows of ``span`` (rows x width) with samples [begin, begin
    + width) of the equal-length 1-D ``signals``, one row each, and zeros
    past their ends, as ``frame_signal`` pads them. The rows after the
    signals' get only the zeros. Returns [first, last), the range of
    signal samples that the span holds. The frames of a span filled from
    ``begin = m*hop - window/2`` are frames m, m + 1, ... of ``stft``."""
    width, n = span.shape[-1], len(signals[0])
    first, last = min(max(begin, 0), begin + width), max(min(begin + width, n), begin)
    span[:, : first - begin] = 0.0
    for row, x in zip(span, signals):
        row[first - begin : last - begin] = x[first:last]
    span[:, last - begin :] = 0.0
    return first, last


def sounding_frames(frames: np.ndarray, cfg: StftConfig, out: np.ndarray) -> np.ndarray:
    """Which frames hold a non-zero sample: the frames of hop-aligned
    sample rows, (..., M, window) with frame m at sample m*hop of its row,
    as ``frame_signal`` gives them. Each hop-sized chunk of the rows is
    checked once, and a frame sounds if any of its window/hop chunks does.

    ``out`` is a C-contiguous boolean buffer of shape (..., M + window/hop
    - 1) that takes the chunks' flags and then the frames'; returns its
    first M columns. A frame that is silent gives an STFT column of +0.0
    magnitudes, so a caller may skip its transform."""
    if not out.flags.c_contiguous:
        raise ValueError("sounding_frames needs a C-contiguous buffer")
    hop, stride = cfg.hop_size, cfg.window_size // cfg.hop_size
    n_frames = frames.shape[-2]
    if n_frames:
        np.logical_or.reduce(frames[..., :hop], axis=-1, out=out[..., :n_frames])
        tail = frames[..., -1, hop:]
        np.logical_or.reduce(tail.reshape(*tail.shape[:-1], stride - 1, hop),
                             axis=-1, out=out[..., n_frames:])
        # Doubling: after the pass with shift w, entry m is the OR of chunks
        # m .. m + 2w - 1. Entries past a row's M-th read into the next row,
        # and only they do.
        flat, width = out.reshape(-1), 1
        while width < stride:
            np.logical_or(flat[:-width], flat[width:], out=flat[:-width])
            width *= 2
    return out[..., :n_frames]


def sounding_span(flags: np.ndarray) -> tuple[int, int]:
    """[first, stop): from the first True of a 1-D flag row to just past
    its last, or (0, 0) if it has none."""
    if not flags.any():
        return 0, 0
    return int(flags.argmax()), len(flags) - int(flags[::-1].argmax())


def overlap_add(
    frames: np.ndarray, hop: int, total: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Sum overlapping frames (M x window, frame m at offset m*hop, hop
    dividing window) into a signal of ``total`` samples; samples past
    ``total`` are dropped.

    Frames whose offsets differ by window are disjoint, so grouping frames
    by m mod (window/hop) turns the scatter into contiguous block adds.
    ``out``, if given, is a contiguous 1-D buffer of at least
    max(total, (M-1)*hop + window) samples that the frames are added into;
    its first ``total`` samples are returned as a view.
    """
    n_frames, window = frames.shape
    stride = window // hop
    if out is None:
        out = np.zeros(max(total, (n_frames - 1) * hop + window))
    for p in range(min(stride, n_frames)):
        group = frames[p::stride]
        start = p * hop
        block = out[start : start + group.size].reshape(group.shape)
        block += group
    return out[:total]


def stft(x: Waveform, cfg: StftConfig = StftConfig()) -> ComplexSpectrogram:
    """Short-time Fourier transform with a periodic Hann analysis window.

    Returns an F x M complex matrix, F = window_size/2 + 1. The signal is
    zero-padded by window_size/2 on both ends so frame m covers samples
    around m*hop.
    """
    if len(x) == 0:
        raise SignalError("cannot take the STFT of an empty signal")
    frames = frame_signal(x.samples, cfg) * hann_window(cfg.window_size)
    return ComplexSpectrogram(np.fft.rfft(frames, axis=1).T, cfg, len(x))


def overlap_add_norm(cfg: StftConfig, n_frames: int, total: int) -> np.ndarray:
    """What the inverse STFT divides its overlap-add of ``n_frames`` frames
    by: the overlap-added squared window over ``total`` samples, with 1
    where that sum is at most 1e-10, so those samples stay as they are."""
    window = hann_window(cfg.window_size)
    wsq = np.broadcast_to(window**2, (n_frames, cfg.window_size))
    norm = overlap_add(wsq, cfg.hop_size, total)
    norm[norm <= 1e-10] = 1.0
    return norm


def istft(spec: ComplexSpectrogram) -> Waveform:
    """Inverse STFT by windowed overlap-add with window-sum normalization,
    which every StftConfig satisfies (Hann, hop <= window/2). Output is
    trimmed to ``spec.origin_length``.
    """
    cfg = spec.config
    window = hann_window(cfg.window_size)
    frames = np.fft.irfft(spec.bins.T, n=cfg.window_size, axis=1) * window

    pad = cfg.window_size // 2
    total = spec.origin_length + 2 * pad
    out = overlap_add(frames, cfg.hop_size, total)
    out /= overlap_add_norm(cfg, len(frames), total)
    return Waveform(out[pad : pad + spec.origin_length])


def magnitude(spec: ComplexSpectrogram) -> np.ndarray:
    """Element-wise complex modulus, non-negative F x M matrix."""
    return np.abs(spec.bins)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=1)
def mel_filterbank() -> np.ndarray:
    """N_MELS x F non-negative weights at the default window: triangular
    filters on the 2595*log10(1 + f/700) mel scale, spanning 0 Hz to
    Nyquist.

    Cached and shared between callers, so it is read-only."""
    f_max = SAMPLE_RATE / 2
    n_bins = DEFAULT_WINDOW // 2 + 1
    bin_freqs = np.arange(n_bins) * SAMPLE_RATE / DEFAULT_WINDOW
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(f_max), N_MELS + 2)
    hz_points = mel_to_hz(mel_points)

    weights = np.zeros((N_MELS, n_bins))
    for i in range(N_MELS):
        lo, center, hi = hz_points[i], hz_points[i + 1], hz_points[i + 2]
        up = (bin_freqs - lo) / max(center - lo, 1e-12)
        down = (hi - bin_freqs) / max(hi - center, 1e-12)
        weights[i] = np.maximum(0.0, np.minimum(up, down))
    weights.flags.writeable = False
    return weights


def log_mel(x: Waveform) -> np.ndarray:
    """Log mel spectrogram: 128 bands over power spectra at window 2048,
    hop 512 (86.1 Hz frame rate); natural log with a 1e-5 power floor."""
    spec = stft(x, StftConfig(DEFAULT_WINDOW, DEFAULT_HOP))
    power = np.abs(spec.bins) ** 2
    mel = mel_filterbank() @ power
    return np.log(mel + LOG_MEL_FLOOR)
