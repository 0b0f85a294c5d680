"""Alpha-Wiener time-frequency masking with the mixture phase.

``apply_masks`` defines the masked stems: the per-class ``istft`` of
``masks[k] * stft(x)``. The commands get the same bits from one kernel that
never holds a K x F x M or a K x T array. It walks the track in blocks of
``MASK_BLOCK`` hops. For each block it takes the mixture's spectrum, the K
estimate magnitudes (the spectra of the stems that one-shots and onsets
render, or an NMFD model's per-class magnitudes), the masks est**alpha /
(sum_k est**alpha + eps), and each class's masked inverse transform,
windowed and overlap-added. A block's frames are taken from a lane buffer
that holds the samples they cover, with zeros past the track's ends
(``signal.fill_span``), so no padded copy of the signals exists. The block
renders its stem samples itself by ``drum_machine.trigger`` over its sample
range, from the onsets that reach into it. A given K x T stem is the
one-shot of a single onset at sample 0 with amplitude 1.0, which renders it
exactly, so stems need no source of their own. With an NMFD model, a block
copies its frames' magnitudes out of the chunks that
``nmfd.chunk_magnitudes`` computes, from which every caller builds them.
Each class's finished samples go to a block writer, such as those
``fileio.stem_blocks`` gives for the stem files. The blocks are split
between the lanes of ``parallel.run_lanes``, under the rules in
``parallel``'s docstring.

A rendered stem is exactly zero wherever no one-shot reaches, so with
one-shots as the source a block transforms, for each class, only the rows
from its first to its last frame that ``signal.sounding_frames`` marks.
That changes no bit: the spectrum of a silent frame has magnitude +0.0,
which gives a +0.0 mask (alpha > 0, and the denominator is at least eps),
and an overlap-add that starts at +0.0 is unchanged by a +-0 frame. A class
that is silent over a block, with its carried frames zero, is not
overlap-added or written at all: its samples are +0.0, which an unwritten
range of every block writer reads. With a model, there are no samples to
check, and every frame is transformed.

The kernel's stems are bit for bit those of ``apply_masks``, for any block
size and lane count. ``signal.overlap_add`` adds a sample's frames in the
order of frame mod S, S = window/hop. So a block
that writes hops [a, b), a a multiple of S, overlap-adds frames a - S to
b - 1 from zero and keeps hops [a, b): every sample sees the same adds in
the same order. A lane carries each class's last S frames from one block
to the next; its first block computes the S - 1 frames before it. A
block's rendered stem samples are those of the whole-track ``trigger``,
which adds each sample's onsets in the same order for any range, and its
model magnitudes are those of the whole-track chunks, whichever block or
lane computes a chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drum_machine import trigger
from .nmfd import CHUNK, ChunkBuffers, NmfdModel, chunk_magnitudes
from .parallel import run_lanes, thread_count
from .signal import (
    ComplexSpectrogram,
    SignalError,
    StftConfig,
    Waveform,
    fill_span,
    frame_span,
    hann_window,
    istft,
    num_frames,
    overlap_add,
    overlap_add_norm,
    sounding_frames,
    sounding_span,
    stft,
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
    estimates = np.asarray(estimates, dtype=np.float64)
    if estimates.ndim != 3:
        raise ValueError(f"expected K x F x M estimates, got shape {estimates.shape}")
    if estimates.min() < 0:
        raise ValueError("magnitude estimates must be non-negative")
    masks = estimates**alpha
    masks /= masks.sum(axis=0, keepdims=True) + epsilon
    return MaskSet(masks, alpha, epsilon)


def apply_masks(
    x: Waveform, mask_set: MaskSet, cfg: StftConfig = StftConfig()
) -> np.ndarray:
    """Mask the mixture STFT and invert with the mixture phase: the K x
    len(x) stems ``istft(masks[k] * stft(x))``, whose bits the masking
    kernel gives block by block."""
    spec = stft(x, cfg)
    _check_mask_shape(mask_set.masks.shape[1:], cfg, len(x))
    stems = np.empty((len(mask_set.masks), len(x)))
    for stem, mask in zip(stems, mask_set.masks):
        stem[:] = istft(ComplexSpectrogram(mask * spec.bins, cfg, len(x))).samples
    return stems


def _check_mask_shape(shape: tuple, cfg: StftConfig, n: int):
    """Raise ValueError unless the F x M ``shape`` of masks or magnitudes
    fits the spectrogram of ``n`` samples."""
    want = (cfg.n_bins, num_frames(n, cfg))
    if tuple(shape) != want:
        raise ValueError(f"mask shape {tuple(shape)} does not match spectrogram {want}")


def mask_with_model(
    x: Waveform,
    model: NmfdModel,
    cfg: StftConfig = StftConfig(),
    alpha: float = DEFAULT_ALPHA,
    epsilon: float = MASK_EPSILON,
    *,
    writers,
):
    """Mask the mixture with an NMFD model's per-class magnitudes and write
    the K masked stems, bit for bit ``apply_masks(x,
    compute_masks(nmfd.reconstruct_per_class(model, M), alpha, epsilon),
    cfg)`` with M the mixture's frame count, to the K block ``writers``
    (see ``_mask``), without the magnitudes or the masks. Each block builds
    its frames' magnitudes from the model's chunks."""
    check_mask_params(alpha, epsilon)
    _mask(x, cfg, alpha, epsilon, writers, model=model)


def mask_with_shots(
    x: Waveform,
    shots: np.ndarray,
    onsets: list[tuple[int, int]],
    amplitudes: np.ndarray,
    cfg: StftConfig = StftConfig(),
    alpha: float = DEFAULT_ALPHA,
    epsilon: float = MASK_EPSILON,
    *,
    writers,
):
    """Mask the mixture with the magnitude spectrograms of the stems that
    K x R one-shots render at their onsets and write the K masked stems,
    bit for bit ``apply_masks(x, compute_masks(|stft(trigger(shots,
    onsets, amplitudes, len(x)))|, alpha, epsilon), cfg)``, to the K block
    ``writers`` (see ``_mask``), without the stems or the masks. Each
    block renders the samples its frames cover from the onsets that reach
    into it. Given K x T stems, pass them as one-shots of length T with
    onsets ``[(k, 0) for k in range(K)]`` and amplitudes ``ones(K)``."""
    shots = np.asarray(shots, dtype=np.float64)
    amplitudes = np.asarray(amplitudes, dtype=np.float64)
    if shots.ndim != 2 or amplitudes.shape != (len(onsets),):
        raise ValueError(f"expected K x R one-shots and {len(onsets)} amplitudes, "
                         f"got shapes {shots.shape} and {amplitudes.shape}")
    if not (np.all(np.isfinite(shots)) and np.all(np.isfinite(amplitudes))):
        raise SignalError("one-shots or amplitudes contain non-finite values")
    check_mask_params(alpha, epsilon)
    _mask(x, cfg, alpha, epsilon, writers, shots=(shots, onsets, amplitudes))


def _mask(x: Waveform, cfg: StftConfig, alpha: float, epsilon: float, writers,
          model=None, shots=None):
    """The masked stems from exactly one of an NMFD ``model`` or ``shots``,
    a (one-shots, onsets, amplitudes) triple, on lanes.

    Each class's stem goes block by block to ``writers[k].write(start,
    samples, scratch)``, which takes the float64 samples from ``start`` on
    and may use ``scratch``, a float32 lane buffer at least as long; the
    lanes write disjoint ranges at once. With one-shots, a range whose
    samples are all +0.0 is not written, so a writer's unwritten samples
    must read 0.0."""
    n = len(x)
    if n == 0:
        raise SignalError("cannot take the STFT of an empty signal")
    window, hop = cfg.window_size, cfg.hop_size
    pad, stride, n_frames = window // 2, window // hop, num_frames(n, cfg)
    if shots is None:
        _check_mask_shape((model.templates.shape[1], model.activations.shape[1]), cfg, n)
        source, classes = model, len(model.templates)
    else:
        source, classes = shots[0], len(shots[0])
    if len(writers) != classes:
        raise ValueError(f"{len(writers)} writers for {classes} stems")

    hops = -(-(pad + n) // hop)  # the hops that hold output samples
    block = min(stride * -(-MASK_BLOCK // stride), hops)
    n_blocks = -(-hops // block)
    job = _MaskJob(
        cfg, x.samples, source, alpha, epsilon,
        overlap_add_norm(cfg, n_frames, n + 2 * pad)[pad : pad + n], writers,
        None if shots is None else _onsets_by_block(
            cfg, block, hops, source.shape[1], *shots[1:]),
    )
    lanes = thread_count(n_blocks)
    run_lanes(_mask_lane, [
        (job, _MaskBuffers(job, block + stride),
         n_blocks * i // lanes * block,
         min(n_blocks * (i + 1) // lanes * block, hops), block)
        for i in range(lanes)
    ])


def _onsets_by_block(cfg: StftConfig, block: int, hops: int, length: int,
                     onsets, amplitudes) -> list[tuple[list, np.ndarray]]:
    """For each block of ``block`` hops, the onsets, in list order, and
    their amplitudes whose ``length``-sample one-shots reach into the
    samples a lane may render for it: those its frames cover, and the S - 1
    frames before them."""
    hop, pad = cfg.hop_size, cfg.window_size // 2
    stride = cfg.window_size // hop
    starts = np.array([pos for _, pos in onsets], dtype=np.int64)
    reach = []
    for a in range(0, hops, block):
        b = min(a + block, hops)
        picked = np.flatnonzero((starts < (b - 1) * hop + pad)
                                & (starts + length > (a - stride + 1) * hop - pad))
        reach.append(([onsets[j] for j in picked], amplitudes[picked]))
    return reach


@dataclass(frozen=True)
class _MaskJob:
    """What every masking lane reads: the mixture, the source of the
    estimates (K x R one-shots, or an NMFD model), the mask parameters, the
    normalization of the output samples and each class's block writer.
    With one-shots, whose rendered stems' spectra are the estimates,
    ``reach`` holds each block's onsets and amplitudes; otherwise it is
    None."""

    cfg: StftConfig
    mixture: np.ndarray
    source: np.ndarray | NmfdModel
    alpha: float
    epsilon: float
    norm: np.ndarray
    writers: list
    reach: list | None


class _MaskBuffers:
    """One masking lane's buffers for ``rows`` frames: the samples those
    frames cover in the mixture and the rendered stems, and their frames as
    a view; windowed frames (later one class's masked frames), the
    mixture's spectrum and one class's, the K estimates (later the masks)
    and their sum, each class's last S frames carried to the next block,
    an overlap-add buffer, and scratch for one rendered onset and for the
    writers. Without one-shots the rendered stems, their sounding flags
    and the onset scratch take no room, and ``chunk`` holds the model's
    chunk buffers."""

    def __init__(self, job: _MaskJob, rows: int):
        cfg, k = job.cfg, len(job.writers)
        rendered = job.reach is not None
        signals, stride = 1 + k * rendered, cfg.window_size // cfg.hop_size
        self.span = np.empty((signals, (rows - 1) * cfg.hop_size + cfg.window_size))
        self.span_frames = frame_span(self.span, cfg)
        self.frames = np.empty((rows, cfg.window_size))
        self.spec = np.empty((rows, cfg.n_bins), dtype=np.complex128)
        self.work = np.empty((rows, cfg.n_bins), dtype=np.complex128)
        self.est = np.empty(k * rows * cfg.n_bins)
        self.den = np.empty((rows, cfg.n_bins))
        self.carry = np.zeros((k, stride, cfg.window_size))
        self.sounding = np.empty(k * (rows + stride - 1) * rendered, dtype=bool)
        self.ola = np.empty((rows + stride) * cfg.hop_size)
        self.scaled = np.empty(job.source.shape[1] if rendered else 0)
        self.chunk = None if rendered else ChunkBuffers(job.source)
        self.scratch = np.empty((rows - stride) * cfg.hop_size, dtype=np.float32)


def _mask_lane(job: _MaskJob, buf: _MaskBuffers, start: int, stop: int, block: int):
    """Masked stems for the hops [start, stop) of the padded track, block
    by block, to ``job.writers``. Runs on a lane (see ``parallel``)."""
    cfg, window = job.cfg, hann_window(job.cfg.window_size)
    hop, stride = cfg.hop_size, cfg.window_size // cfg.hop_size
    pad = cfg.window_size // 2
    k, n, n_bins = len(job.writers), len(job.mixture), cfg.n_bins
    n_frames = num_frames(n, cfg)
    for a in range(start, stop, block):
        b = min(a + block, stop)
        # Frames [c, e) are new; row r holds frame a - S + r, and the rows
        # before c come from the carry (zeros where no frame is carried).
        c = max(a - stride + 1, 0) if a == start else a
        e = max(min(b, n_frames), c)
        nf, r0 = e - c, c - (a - stride)
        # They cover the samples from begin on, which the span holds with
        # zeros past the track's ends, as ``stft`` pads.
        begin = c * hop - pad
        span = buf.span[:, : (nf - 1) * hop + cfg.window_size]
        first, last = fill_span(span, begin, [job.mixture])
        if job.reach is not None:
            onsets, amplitudes = job.reach[a // block]
            trigger(job.source, onsets, amplitudes, n, first, last,
                    out=span[1:, first - begin : last - begin], scaled=buf.scaled)
        frames = buf.frames[:nf]
        np.multiply(buf.span_frames[0, :nf], window, out=frames)
        np.fft.rfft(frames, axis=1, out=buf.spec[:nf])

        est = buf.est[: k * nf * n_bins].reshape(k, nf, n_bins)
        if job.reach is not None:
            # Only the rows from a class's first to its last sounding frame
            # are transformed; the others' magnitudes are +0.0.
            flags = buf.sounding[: k * (nf + stride - 1)].reshape(k, nf + stride - 1)
            spans = [sounding_span(row) for row in
                     sounding_frames(buf.span_frames[1:, :nf], cfg, flags)]
            for i, (f0, f1) in enumerate(spans):
                est[i, :f0] = 0.0
                est[i, f1:] = 0.0
                np.multiply(buf.span_frames[1 + i, f0:f1], window, out=frames[f0:f1])
                np.fft.rfft(frames[f0:f1], axis=1, out=buf.work[f0:f1])
                np.abs(buf.work[f0:f1], out=est[i, f0:f1])
        else:
            spans = [(0, nf)] * k
            # Frames [c, e) from the chunks that hold them.
            for j in range(c // CHUNK, -(-e // CHUNK) if nf else 0):
                lo, hi = max(c, j * CHUNK), min(e, (j + 1) * CHUNK)
                for i in range(k):
                    product = chunk_magnitudes(job.source, i, j, n_frames, buf.chunk)
                    np.copyto(est[i, lo - c : hi - c],
                              product[:, lo - j * CHUNK : hi - j * CHUNK].T)
        est **= job.alpha
        den = buf.den[:nf]
        np.sum(est, axis=0, out=den)
        den += job.epsilon
        est /= den

        # Output hops [a, b) are padded samples [a * hop, b * hop).
        lo, hi = max(a * hop, pad), min(b * hop, pad + n)
        used = b - a + stride
        shift = (a - stride) * hop
        for i, (f0, f1) in enumerate(spans):
            if job.reach is not None and f0 == f1 and not buf.carry[i].any():
                continue  # its samples are +0.0, which the writer holds
            frames = buf.frames[:used]
            frames[:stride] = buf.carry[i]
            masked = buf.work[f0:f1]
            np.multiply(buf.spec[f0:f1].real, est[i, f0:f1], out=masked.real)
            np.multiply(buf.spec[f0:f1].imag, est[i, f0:f1], out=masked.imag)
            new = frames[r0 : r0 + nf]
            new[:f0] = 0.0
            new[f1:] = 0.0
            np.fft.irfft(masked, n=cfg.window_size, axis=1, out=new[f0:f1])
            new[f0:f1] *= window
            frames[r0 + nf :] = 0.0
            buf.ola.fill(0.0)
            overlap_add(frames, hop, len(buf.ola), out=buf.ola)
            buf.carry[i] = frames[used - stride :]
            if lo < hi:
                stem = buf.ola[lo - shift : hi - shift]
                np.divide(stem, job.norm[lo - pad : hi - pad], out=stem)
                job.writers[i].write(lo - pad, stem, buf.scratch)
