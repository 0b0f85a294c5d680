"""Forward model: onsets trigger one-shot samples.

An onset is a class and a sample position, with one amplitude. A stem is
its class's one-shot, decayed by an exponential envelope, placed at every
onset of the class and scaled by that onset's amplitude; the tail past the
track end is dropped and the mixture is the sum of stems. This is the
linear convolution of a sparse audio-rate impulse train with the one-shot,
computed onset by onset. ``render`` takes the onset list of
``transcription.onset_samples``; ``onset_index`` reads one off a frame grid.

``trigger`` and ``apply_envelope`` are the model. ``trigger`` renders the
whole track or any sample range of it, bit for bit the same samples, so
the masking kernel renders a block's stems from the onsets without the
K x T stems. ``render``, ``trigger`` plus the stems' mixture, renders
every stem a command writes, one sample range at a time, and the Adam
solver's stems. ``trigger_mixture`` is ``trigger`` summed over classes, up
to rounding, without building the stems.
``trigger_mixture_adjoint`` (in the one-shots),
``trigger_mixture_amplitude_adjoint`` (in the amplitudes) and
``apply_envelope_adjoint`` are exact transposes, which the Adam solver
chains into its reverse pass; the least-squares solver uses
``trigger_mixture`` and its one-shot adjoint as its operator pair. The
adjoints reduce by elementwise products and ``.sum()``, never a BLAS call:
a BLAS dot or GEMV would round differently for different BLAS thread
counts. All functions are pure, so the renderer can run
concurrently per track.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classes import NUM_CLASSES
from .signal import SAMPLE_RATE, Waveform

ONE_SHOT_LENGTH = SAMPLE_RATE  # one second


@dataclass(frozen=True)
class FrameActivations:
    """Frame-rate onsets in [0,1] and velocities in [0,2], both K x M."""

    onsets: np.ndarray
    velocities: np.ndarray
    hop_size: int

    def __post_init__(self):
        o = np.asarray(self.onsets, dtype=np.float64)
        v = np.asarray(self.velocities, dtype=np.float64)
        if o.shape != v.shape or o.ndim != 2:
            raise ValueError(f"onset/velocity shapes differ: {o.shape} vs {v.shape}")
        if o.size and (o.min() < 0 or o.max() > 1):
            raise ValueError("onsets must lie in [0, 1]")
        if v.size and (v.min() < 0 or v.max() > 2):
            raise ValueError("velocities must lie in [0, 2]")
        object.__setattr__(self, "onsets", o)
        object.__setattr__(self, "velocities", v)


@dataclass(frozen=True)
class OneShotBank:
    """Per-class one-shot waveforms of one drum kit, K x R in [-1, 1]."""

    kit_id: str
    one_shots: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.one_shots, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != NUM_CLASSES:
            raise ValueError(f"expected {NUM_CLASSES} one-shots, got shape {w.shape}")
        if w.shape[1] != ONE_SHOT_LENGTH:
            raise ValueError(
                f"one-shots must be {ONE_SHOT_LENGTH} samples, got {w.shape[1]}"
            )
        if w.size and np.abs(w).max() > 1.0 + 1e-9:
            raise ValueError("one-shot amplitudes must lie in [-1, 1]")
        object.__setattr__(self, "one_shots", w)

    @staticmethod
    def from_waveforms(kit_id: str, waves: list[Waveform]) -> "OneShotBank":
        """Zero-pad (or truncate) each waveform to exactly one second."""
        if len(waves) != NUM_CLASSES:
            raise ValueError(f"expected {NUM_CLASSES} waveforms, got {len(waves)}")
        w = np.zeros((NUM_CLASSES, ONE_SHOT_LENGTH))
        for k, wave in enumerate(waves):
            n = min(len(wave), ONE_SHOT_LENGTH)
            w[k, :n] = wave.samples[:n]
        return OneShotBank(kit_id, w)


def envelope(alpha, length: int = ONE_SHOT_LENGTH) -> np.ndarray:
    """Exponential decay exp(-20*alpha*t/R): 1 at t=0, non-increasing.

    ``alpha`` is a scalar (returns R samples) or one decay per class
    (returns K x R).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if np.any(alpha < 0):
        raise ValueError("decay parameter must be non-negative")
    env = np.multiply(alpha[..., None], _log_envelope_slope(length))
    return np.exp(env, out=env)


def _log_envelope_slope(length: int) -> np.ndarray:
    """d log(envelope) / d alpha = -20*t/R."""
    slope = np.arange(length, dtype=np.float64)
    slope *= -20.0
    slope /= length
    return slope


def apply_envelope(one_shots: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """One-shots as the sequencer plays them: each row times its decay
    envelope, K x R."""
    return one_shots * envelope(alphas, one_shots.shape[1])


def apply_envelope_adjoint(
    g_shaped: np.ndarray,
    one_shots: np.ndarray,
    alphas: np.ndarray,
    work: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (K x R, K) of ``apply_envelope`` w.r.t. one-shots and
    decays, given the gradient w.r.t. its output. ``work``, a K x R array
    the caller no longer needs, takes the decay product in place of a new
    array."""
    r = one_shots.shape[1]
    env = envelope(alphas, r)
    product = np.multiply(g_shaped, one_shots, out=work)
    product *= env
    product *= _log_envelope_slope(r)
    g_alphas = product.sum(axis=1)
    env *= g_shaped
    return env, g_alphas


def onset_index(grid: FrameActivations) -> list[tuple[int, int]]:
    """(class, sample position) of every onset, ordered by class then frame.

    This ordering defines which amplitude belongs to which onset in
    ``trigger`` and the solver's per-onset velocities.
    """
    ks, ms = np.nonzero(grid.onsets)  # row-major: class, then frame
    return [(int(k), int(m) * grid.hop_size) for k, m in zip(ks, ms)]


def trigger(
    shaped: np.ndarray,
    onsets: list[tuple[int, int]],
    amplitudes: np.ndarray,
    n_samples: int,
    start: int = 0,
    stop: int | None = None,
    out: np.ndarray | None = None,
    scaled: np.ndarray | None = None,
) -> np.ndarray:
    """Stems K x T: ``amplitudes[j] * shaped[k]`` added at sample ``pos``
    for the j-th onset (k, pos); the tail past the track end is dropped.

    Given a range 0 <= ``start`` <= ``stop`` <= ``n_samples``, only its
    samples: K x (stop - start), bit for bit those columns of the whole
    track, as every sample sees the same adds in the same order. ``out``
    takes them in place of a new array, and ``scaled``, R samples, takes
    each ``amp * seg`` in place of a temporary."""
    length, stop = shaped.shape[1], n_samples if stop is None else stop
    if out is None:
        out = np.zeros((shaped.shape[0], stop - start))
    else:
        out.fill(0.0)
    if scaled is None:
        scaled = np.empty(length)
    for (k, pos), amp in zip(onsets, amplitudes):
        lo, hi = max(pos, start), min(pos + length, stop)
        if lo < hi:
            out[k, lo - start : hi - start] += np.multiply(
                amp, shaped[k, lo - pos : hi - pos], out=scaled[: hi - lo])
    return out


def trigger_mixture(
    shaped: np.ndarray,
    onsets: list[tuple[int, int]],
    amplitudes: np.ndarray,
    n_samples: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The mixture of ``trigger``'s stems, T, without the K x T stems:
    every onset is added straight into one track-length row, so it equals
    ``trigger(...).sum(axis=0)`` up to rounding. ``out``, T samples, takes
    it in place of a new array."""
    if out is None:
        out = np.zeros(n_samples)
    else:
        out.fill(0.0)
    scaled = np.empty(shaped.shape[1])
    for (k, pos), amp in zip(onsets, amplitudes):
        seg = shaped[k, : max(0, n_samples - pos)]
        out[pos : pos + len(seg)] += np.multiply(amp, seg, out=scaled[: len(seg)])
    return out


def trigger_mixture_adjoint(
    g_mixture: np.ndarray,
    shaped: np.ndarray,
    onsets: list[tuple[int, int]],
    amplitudes: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Transpose of ``trigger_mixture`` in ``shaped``: given dL/dmixture
    (T), returns dL/dshaped (K x R), written into ``out`` if given."""
    r = shaped.shape[1]
    if out is None:
        out = np.zeros_like(shaped)
    else:
        out.fill(0.0)
    product = np.empty(r)
    for j, (k, pos) in enumerate(onsets):
        seg = g_mixture[pos : pos + r]
        out[k, : len(seg)] += np.multiply(amplitudes[j], seg, out=product[: len(seg)])
    return out


def trigger_mixture_amplitude_adjoint(
    g_mixture: np.ndarray,
    shaped: np.ndarray,
    onsets: list[tuple[int, int]],
) -> np.ndarray:
    """Transpose of ``trigger_mixture`` in ``amplitudes``: given
    dL/dmixture (T), returns dL/damplitudes (one per onset)."""
    r = shaped.shape[1]
    g_amps = np.zeros(len(onsets))
    product = np.empty(r)
    for j, (k, pos) in enumerate(onsets):
        seg = g_mixture[pos : pos + r]
        g_amps[j] = np.multiply(seg, shaped[k, : len(seg)], out=product[: len(seg)]).sum()
    return g_amps


def sequence(one_shot: np.ndarray, activation: np.ndarray) -> np.ndarray:
    """Trigger a one-shot at every non-zero activation sample.

    Linear convolution of the audio-rate activation row with the one-shot,
    truncated to the activation length (tail past the track end is dropped).
    """
    hits = np.flatnonzero(activation)
    onsets = [(0, int(pos)) for pos in hits]
    return trigger(one_shot[None, :], onsets, activation[hits], len(activation))[0]


def render(shaped: np.ndarray, onsets: list[tuple[int, int]], amplitudes: np.ndarray,
           n_samples: int, start: int = 0, stop: int | None = None,
           out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``trigger``'s stems of the played one-shots ``shaped`` over samples
    [``start``, ``stop``), written into ``out`` if given, and their
    mixture: the rows added in class order, as ``sum(axis=0)`` adds a
    track's, also over a range one sample wide, where ``sum(axis=0)``
    would add them pairwise."""
    stems = trigger(shaped, onsets, amplitudes, n_samples, start, stop, out)
    mixture = stems[0].copy()
    for row in stems[1:]:
        mixture += row
    return stems, mixture
