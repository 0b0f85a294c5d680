"""Alpha-Wiener time-frequency masking with the mixture phase.

Every masked stem comes from one kernel that never holds a K x F x M array.
It walks the track in blocks of ``MASK_BLOCK`` hops. For each block it
takes the mixture's spectrum, the K estimate magnitudes (the spectra of
estimated stems, or a slice of given magnitudes or masks), the masks
est**alpha / (sum_k est**alpha + eps), and each class's masked inverse
transform, windowed and overlap-added into the K x T output. A block's
frames are taken from a lane buffer that holds the samples they cover,
with zeros past the track's ends, so no padded copy of the signals exists.
The blocks are split between the lanes of ``parallel.run_lanes``, under
the rules in ``parallel``'s docstring.

The stems are bit for bit the per-class ``istft`` of ``masks[k] *
stft(x)``, for any block size and lane count. ``signal.overlap_add`` adds a
sample's frames in the order of frame mod S, S = window/hop. So a block
that writes hops [a, b), a a multiple of S, overlap-adds frames a - S to
b - 1 from zero and keeps hops [a, b): every sample sees the same adds in
the same order. A lane carries each class's last S frames from one block
to the next; its first block computes the S - 1 frames before it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .parallel import run_lanes, thread_count
from .signal import (
    SignalError,
    StftConfig,
    Waveform,
    hann_window,
    num_frames,
    overlap_add,
    overlap_add_norm,
)

MASK_EPSILON = 1e-8
DEFAULT_ALPHA = 1.0
# Hops a lane masks at once (rounded up to a multiple of window/hop). At
# window 2048, hop 512 and nine classes a lane's buffers take about 7 MB.
MASK_BLOCK = 32


@dataclass(frozen=True)
class MaskSet:
    """Soft masks M_i = |S_i|^alpha / (sum_j |S_j|^alpha + eps), K x F x M."""

    masks: np.ndarray
    alpha: float
    epsilon: float


def check_mask_params(alpha: float, epsilon: float):
    """Raise ValueError unless alpha and epsilon are positive and finite."""
    if not (0 < alpha < np.inf and 0 < epsilon < np.inf):
        raise ValueError(f"masking alpha and epsilon must be positive and "
                         f"finite, got {alpha} and {epsilon}")


def _check_estimates(estimates) -> np.ndarray:
    estimates = np.asarray(estimates, dtype=np.float64)
    if estimates.ndim != 3:
        raise ValueError(f"expected K x F x M estimates, got shape {estimates.shape}")
    if estimates.min() < 0:
        raise ValueError("magnitude estimates must be non-negative")
    return estimates


def compute_masks(
    estimates: np.ndarray,
    alpha: float = DEFAULT_ALPHA,
    epsilon: float = MASK_EPSILON,
) -> MaskSet:
    """Build alpha-Wiener masks from per-class magnitude estimates (K x F x M).

    Each mask lies in [0, 1); the masks sum to just under 1 wherever the
    estimates carry energy well above epsilon.
    """
    check_mask_params(alpha, epsilon)
    masks = _check_estimates(estimates) ** alpha
    masks /= masks.sum(axis=0, keepdims=True) + epsilon
    return MaskSet(masks, alpha, epsilon)


def apply_masks(
    x: Waveform, mask_set: MaskSet, cfg: StftConfig = StftConfig()
) -> np.ndarray:
    """Mask the mixture STFT and invert with the mixture phase.

    Returns K waveform stems as a K x len(x) array.
    """
    return _mask(x, cfg, masks=np.asarray(mask_set.masks, dtype=np.float64))


def mask_with_magnitudes(
    x: Waveform,
    estimates: np.ndarray,
    cfg: StftConfig = StftConfig(),
    alpha: float = DEFAULT_ALPHA,
    epsilon: float = MASK_EPSILON,
) -> np.ndarray:
    """Mask the mixture with K x F x M magnitude estimates: K x len(x)
    masked stems, ``apply_masks(x, compute_masks(estimates, alpha,
    epsilon), cfg)`` without the K x F x M masks."""
    check_mask_params(alpha, epsilon)
    return _mask(x, cfg, magnitudes=_check_estimates(estimates),
                 alpha=alpha, epsilon=epsilon)


def mask_with_stems(
    x: Waveform,
    stems: np.ndarray,
    cfg: StftConfig = StftConfig(),
    alpha: float = DEFAULT_ALPHA,
    epsilon: float = MASK_EPSILON,
) -> np.ndarray:
    """Mask the mixture with the magnitude spectrograms of K x T stem
    estimates: K x len(x) masked stems."""
    stems = np.asarray(stems, dtype=np.float64)
    if stems.ndim != 2 or stems.shape[1] != len(x):
        raise ValueError(f"expected K x {len(x)} stems, got shape {stems.shape}")
    if not np.all(np.isfinite(stems)):
        raise SignalError("waveform contains non-finite samples")
    check_mask_params(alpha, epsilon)
    return _mask(x, cfg, stems=stems, alpha=alpha, epsilon=epsilon)


def _mask(x: Waveform, cfg: StftConfig, masks=None, magnitudes=None,
          stems=None, alpha=DEFAULT_ALPHA, epsilon=MASK_EPSILON) -> np.ndarray:
    """The K x len(x) masked stems from exactly one of K x F x M ``masks``,
    K x F x M ``magnitudes`` or K x len(x) ``stems``, on lanes."""
    n = len(x)
    if n == 0:
        raise SignalError("cannot take the STFT of an empty signal")
    window, hop = cfg.window_size, cfg.hop_size
    pad, stride, n_frames = window // 2, window // hop, num_frames(n, cfg)
    given = masks if masks is not None else magnitudes
    if given is not None and given.shape[1:] != (cfg.n_bins, n_frames):
        raise ValueError(
            f"mask shape {given.shape[1:]} does not match spectrogram "
            f"{(cfg.n_bins, n_frames)}"
        )
    source = stems if stems is not None else given
    k = len(source)

    out = np.empty((k, n))
    job = _MaskJob(
        cfg, x.samples, source, stems is not None, masks is None, alpha,
        epsilon, overlap_add_norm(cfg, n_frames, n + 2 * pad)[pad : pad + n], out,
    )
    hops = -(-(pad + n) // hop)  # the hops that hold output samples
    block = min(stride * -(-MASK_BLOCK // stride), hops)
    n_blocks = -(-hops // block)
    lanes = thread_count(n_blocks)
    run_lanes(_mask_lane, [
        (job, _MaskBuffers(k, block + stride, cfg, 1 + k * job.from_stems),
         n_blocks * i // lanes * block,
         min(n_blocks * (i + 1) // lanes * block, hops), block)
        for i in range(lanes)
    ])
    return out


@dataclass(frozen=True)
class _MaskJob:
    """What every masking lane reads: the mixture, the source of the
    estimates (K x T stems, or K x F x M magnitudes or masks), whether the
    source is stems and whether to turn it into masks, the mask parameters
    and the normalization of the output samples. Each lane writes its own
    hops of ``out``."""

    cfg: StftConfig
    mixture: np.ndarray
    source: np.ndarray
    from_stems: bool
    make_masks: bool
    alpha: float
    epsilon: float
    norm: np.ndarray
    out: np.ndarray


class _MaskBuffers:
    """One masking lane's buffers for ``rows`` frames: the samples those
    frames cover in each of ``signals`` signals (the mixture, then any
    stems) and their frames as a view; windowed frames (later one class's masked frames), the mixture's
    spectrum and one class's, the K estimates (later the masks) and their
    sum, each class's last S frames carried to the next block, and an
    overlap-add buffer."""

    def __init__(self, k: int, rows: int, cfg: StftConfig, signals: int):
        stride = cfg.window_size // cfg.hop_size
        self.span = np.empty((signals, (rows - 1) * cfg.hop_size + cfg.window_size))
        self.span_frames = sliding_window_view(
            self.span, cfg.window_size, axis=1)[:, :: cfg.hop_size]
        self.frames = np.empty((rows, cfg.window_size))
        self.spec = np.empty((rows, cfg.n_bins), dtype=np.complex128)
        self.work = np.empty((rows, cfg.n_bins), dtype=np.complex128)
        self.est = np.empty(k * rows * cfg.n_bins)
        self.den = np.empty((rows, cfg.n_bins))
        self.carry = np.zeros((k, stride, cfg.window_size))
        self.ola = np.empty((rows + stride) * cfg.hop_size)


def _mask_lane(job: _MaskJob, buf: _MaskBuffers, start: int, stop: int, block: int):
    """Masked stems for the hops [start, stop) of the padded track, block
    by block, into ``job.out``. Runs on a lane (see ``parallel``)."""
    cfg, window = job.cfg, hann_window(job.cfg.window_size)
    hop, stride = cfg.hop_size, cfg.window_size // cfg.hop_size
    pad = cfg.window_size // 2
    (k, n), n_bins = job.out.shape, cfg.n_bins
    n_frames = num_frames(n, cfg)
    for a in range(start, stop, block):
        b = min(a + block, stop)
        # Frames [c, e) are new; row r holds frame a - S + r, and the rows
        # before c come from the carry (zeros where no frame is carried).
        c = max(a - stride + 1, 0) if a == start else a
        e = max(min(b, n_frames), c)
        nf, r0 = e - c, c - (a - stride)
        # They cover samples [begin, end) of the track, which the span
        # holds with zeros past its ends, as ``stft`` pads.
        begin, end = c * hop - pad, (e - 1) * hop + pad
        first, last = min(max(begin, 0), end), max(min(end, n), begin)
        span = buf.span[:, : end - begin]
        span[:, : first - begin] = 0.0
        span[0, first - begin : last - begin] = job.mixture[first:last]
        if job.from_stems:
            span[1:, first - begin : last - begin] = job.source[:, first:last]
        span[:, last - begin :] = 0.0
        frames = buf.frames[:nf]
        np.multiply(buf.span_frames[0, :nf], window, out=frames)
        np.fft.rfft(frames, axis=1, out=buf.spec[:nf])

        est = buf.est[: k * nf * n_bins].reshape(k, nf, n_bins)
        if job.from_stems:
            for i in range(k):
                np.multiply(buf.span_frames[1 + i, :nf], window, out=frames)
                np.fft.rfft(frames, axis=1, out=buf.work[:nf])
                np.abs(buf.work[:nf], out=est[i])
        else:
            np.copyto(est, job.source[:, :, c:e].transpose(0, 2, 1))
        if job.make_masks:
            est **= job.alpha
            den = buf.den[:nf]
            np.sum(est, axis=0, out=den)
            den += job.epsilon
            est /= den

        # Output hops [a, b) are padded samples [a * hop, b * hop).
        lo, hi = max(a * hop, pad), min(b * hop, pad + n)
        used = b - a + stride
        shift = (a - stride) * hop
        for i in range(k):
            frames = buf.frames[:used]
            frames[:stride] = buf.carry[i]
            masked = buf.work[:nf]
            np.multiply(buf.spec[:nf].real, est[i], out=masked.real)
            np.multiply(buf.spec[:nf].imag, est[i], out=masked.imag)
            new = frames[r0 : r0 + nf]
            np.fft.irfft(masked, n=cfg.window_size, axis=1, out=new)
            new *= window
            frames[r0 + nf :] = 0.0
            buf.ola.fill(0.0)
            overlap_add(frames, hop, len(buf.ola), out=buf.ola)
            buf.carry[i] = frames[used - stride :]
            if lo < hi:
                np.divide(buf.ola[lo - shift : hi - shift],
                          job.norm[lo - pad : hi - pad],
                          out=job.out[i, lo - pad : hi - pad])

