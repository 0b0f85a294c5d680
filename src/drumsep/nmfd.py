"""Transcription-informed convolutive NMF (NMFD) under generalized KL.

The mixture magnitude V (F x M) is approximated by Lambda[f, m] =
sum_k sum_tau W[k, f, tau] * H[k, m - tau]: per-class spectro-temporal
templates convolved with onset-informed activations. Multiplicative updates
keep everything non-negative and do not increase the KL divergence.

The convolution is one matrix product, Lambda = W_mat @ H_s: column k*L + tau
of W_mat is W[k, :, tau] and row k*L + tau of H_s is H[k] delayed by tau
frames (zero for tau >= M). With Q = V / Lambda, the H update's numerator is
W_mat^T @ Q summed along lag diagonals; the W update's is Q @ H_s^T. A run
iterates in buffers it allocates once.

Class k's magnitudes Lambda_k are W[k] @ H_s,k, built in chunks of
``CHUNK`` frames by ``chunk_magnitudes``, the one definition that
``nmfd_run``, the masking kernel and ``magnitudes.npz`` share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .classes import NUM_CLASSES
from .drum_machine import OneShotBank
from .signal import DEFAULT_HOP, StftConfig, Waveform, magnitude, stft
from .transcription import Transcription, events_to_grid

EPSILON = 1e-10
# Frames per chunk of the per-class magnitudes. BLAS rounds a product's
# columns differently for different column counts, so every caller builds
# class k's frames [j*CHUNK, (j+1)*CHUNK) as one product of this shape. It
# matches the masking kernel's default block.
CHUNK = 32


@dataclass(frozen=True)
class NmfdCase:
    """Baseline configuration: iteration budget, template length, init mode."""

    case_id: str
    iterations: int
    template_length: int
    fixed_templates: bool
    informed_templates: bool

    @staticmethod
    def preset(case_id: str) -> "NmfdCase":
        presets = {
            "1A": NmfdCase("1A", 50, 40, fixed_templates=True, informed_templates=True),
            "1B": NmfdCase("1B", 20, 10, fixed_templates=False, informed_templates=True),
            "3": NmfdCase("3", 20, 7, fixed_templates=False, informed_templates=False),
        }
        key = case_id.upper().lstrip("0")
        if key not in presets:
            raise ValueError(f"unknown NMFD case {case_id!r}; use 1A, 1B or 3")
        return presets[key]


@dataclass(frozen=True)
class NmfdModel:
    """Templates W (K x F x L), activations H (K x M), both >= 0, held
    C-contiguous."""

    templates: np.ndarray
    activations: np.ndarray
    fixed_templates: bool

    def __post_init__(self):
        w = np.ascontiguousarray(self.templates, dtype=np.float64)
        h = np.ascontiguousarray(self.activations, dtype=np.float64)
        if w.ndim != 3 or h.ndim != 2 or w.shape[0] != h.shape[0]:
            raise ValueError(
                f"inconsistent template/activation shapes {w.shape} / {h.shape}"
            )
        if (w.size and w.min() < 0) or (h.size and h.min() < 0):
            raise ValueError("NMFD factors must be non-negative")
        object.__setattr__(self, "templates", w)
        object.__setattr__(self, "activations", h)


class ChunkBuffers:
    """One caller's buffers for ``chunk_magnitudes`` on ``model``: a
    stretch of one class's activations with L - 1 zeros before frame 0, its
    L x CHUNK window H_s,k and the F x CHUNK product."""

    def __init__(self, model: NmfdModel):
        n_bins, length = model.templates.shape[1:]
        self.segment = np.empty(length - 1 + CHUNK)
        self.window = np.empty(length * CHUNK)
        self.product = np.empty(n_bins * CHUNK)


def chunk_magnitudes(model: NmfdModel, k: int, j: int, n_frames: int,
                     buf: ChunkBuffers) -> np.ndarray:
    """Class k's magnitudes over frames [j*CHUNK, min((j+1)*CHUNK,
    n_frames)): W[k] @ H_s,k for those frames, computed into ``buf``, whose
    product it returns as an F x width view. Allocates no array."""
    w, h = model.templates[k], model.activations[k]
    length = w.shape[1]
    a = j * CHUNK
    width = min(a + CHUNK, n_frames) - a
    # segment[i] is frame a - L + 1 + i, zero before frame 0.
    zeros = max(length - 1 - a, 0)
    segment = buf.segment[: length - 1 + width]
    segment[:zeros] = 0.0
    segment[zeros:] = h[a - length + 1 + zeros : a + width]
    window = buf.window[: length * width].reshape(length, width)
    np.copyto(window, sliding_window_view(segment, width)[::-1])
    product = buf.product[: len(w) * width].reshape(len(w), width)
    return np.matmul(w, window, out=product)


def class_magnitudes(model: NmfdModel, n_frames: int):
    """Each class's approximation Lambda_k (F x ``n_frames``), in class
    order, as the concatenation of its chunks. Every class is yielded in
    one buffer, which the next overwrites."""
    k, n_bins, _ = model.templates.shape
    row, buf = np.empty((n_bins, n_frames)), ChunkBuffers(model)
    for i in range(k):
        for j in range(-(-n_frames // CHUNK)):
            row[:, j * CHUNK : (j + 1) * CHUNK] = chunk_magnitudes(model, i, j, n_frames, buf)
        yield row


def reconstruct_per_class(model: NmfdModel, n_frames: int) -> np.ndarray:
    """Per-class approximations Lambda_k, shape K x F x M: the rows of
    ``class_magnitudes``."""
    k, n_bins, _ = model.templates.shape
    per_class = np.empty((k, n_bins, n_frames))
    for out, row in zip(per_class, class_magnitudes(model, n_frames)):
        out[:] = row
    return per_class


def reconstruct(model: NmfdModel, n_frames: int) -> np.ndarray:
    """Full approximation Lambda = sum_k Lambda_k, shape F x M."""
    lam = np.zeros((model.templates.shape[1], n_frames))
    for row in class_magnitudes(model, n_frames):
        lam += row
    return lam


def kl_divergence(v: np.ndarray, lam: np.ndarray, eps: float = EPSILON) -> float:
    """Generalized KL divergence D(V || Lambda + eps)."""
    lam = lam + eps
    pos = v > 0
    return float(np.sum(v[pos] * np.log(v[pos] / lam[pos])) - v.sum() + lam.sum())


def init_informed(
    v: np.ndarray,
    t: Transcription,
    bank: OneShotBank | None,
    case: NmfdCase,
    seed: int = 0,
    hop_size: int = DEFAULT_HOP,
) -> NmfdModel:
    """Build the onset-informed starting point.

    Activations are 1 at annotated onset frames of each class and epsilon
    elsewhere. Templates are the first L magnitude frames of the class
    one-shot at the mixture's STFT config (cases 1A/1B), or uniform random
    in (0, 1] (case 3). ``hop_size`` is the mixture's hop. A transcription
    without onsets informs nothing and raises ValueError.
    """
    if len(t) == 0:
        raise ValueError("transcription must contain at least one onset")
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.min() < 0:
        raise ValueError("mixture magnitude must be a non-negative F x M matrix")
    n_bins, m = v.shape

    h = np.maximum(events_to_grid(t, m, hop_size).onsets, EPSILON)

    if case.informed_templates:
        if bank is None:
            raise ValueError(f"NMFD case {case.case_id} requires a one-shot bank")
        w = _templates_from_bank(bank, n_bins, case, hop_size)
    else:
        rng = np.random.default_rng(seed)
        w = 1.0 - rng.uniform(0.0, 1.0, size=(NUM_CLASSES, n_bins, case.template_length))
    return NmfdModel(w, h, case.fixed_templates)


def _templates_from_bank(
    bank: OneShotBank, n_bins: int, case: NmfdCase, hop_size: int
) -> np.ndarray:
    """The first L magnitude frames of each one-shot, at the mixture's
    window (from ``n_bins``) and hop. Frame L - 1 ends before sample (L -
    1)*hop + window/2, so only the samples before it are transformed."""
    cfg = StftConfig(window_size=2 * (n_bins - 1), hop_size=hop_size)
    w = np.full((NUM_CLASSES, n_bins, case.template_length), EPSILON)
    covered = (case.template_length - 1) * hop_size + cfg.window_size // 2
    for k in range(NUM_CLASSES):
        shot = bank.one_shots[k]
        if np.abs(shot).max() == 0:
            continue
        mag = magnitude(stft(Waveform(shot[:covered]), cfg))
        frames = min(case.template_length, mag.shape[1])
        w[k, :, :frames] = np.maximum(mag[:, :frames], EPSILON)
    return w


def _iterate(model: NmfdModel, v: np.ndarray, iterations: int) -> NmfdModel:
    """``iterations`` multiplicative KL updates of H, then of W (unless
    templates are fixed), with the epsilon floor re-applied after each
    update, in buffers allocated once: W_mat, H behind L - 1 zero frames
    (so H_s is a copy of its windows), H_s, Lambda (then Q), the lag sum's
    padded rows and the sums. With fixed templates the H update's
    denominator is computed once."""
    v = np.asarray(v, dtype=np.float64)
    k, n_bins, length = model.templates.shape
    m = v.shape[1]
    if v.shape[0] != n_bins or model.activations.shape[1] != m:
        raise ValueError("model and magnitude dimensions do not match")

    w_mat = np.empty((n_bins, k * length))
    w_mat.reshape(n_bins, k, length)[:] = model.templates.transpose(1, 0, 2)
    padded = np.zeros((k, length - 1 + m))
    h = padded[:, length - 1 :]
    h[:] = model.activations
    # Window tau of a padded row, reversed, is H[k] delayed by tau frames.
    delayed = sliding_window_view(padded, m, axis=1)[:, ::-1]
    stacked = np.empty((k * length, m))
    lam = np.empty((n_bins, m))
    # The lag sum's K x L x M terms, in rows padded to M + L: there a step
    # of M + L + 1 is one lag and one frame.
    lagged = np.zeros((k, length, m + length))
    terms = lagged[:, :, :m]
    diagonals = sliding_window_view(lagged.reshape(k, -1), m, axis=1)[:, :: m + length + 1]
    num, den = np.empty((k, m)), np.empty((k, m))
    w_num, h_sum = np.empty((n_bins, k * length)), np.empty(k * length)

    def quotient():
        """Q = V / (W_mat @ H_s + eps) into ``lam``, H_s from H."""
        np.copyto(stacked.reshape(k, length, m), delayed)
        np.matmul(w_mat, stacked, out=lam)
        np.add(lam, EPSILON, out=lam)
        np.divide(v, lam, out=lam)

    for step in range(iterations):
        # H update: Lambda is linear in H, so this is a plain
        # majorize-minimize step on an expanded basis.
        quotient()
        np.matmul(w_mat.T, lam, out=terms.reshape(k * length, m))
        np.sum(diagonals, axis=1, out=num)
        if step == 0 or not model.fixed_templates:
            w = w_mat.reshape(n_bins, k, length).transpose(1, 0, 2)
            terms[:] = w.sum(axis=1)[:, :, None]
            np.sum(diagonals, axis=1, out=den)
            np.maximum(den, EPSILON, out=den)
        np.multiply(h, num, out=num)
        np.divide(num, den, out=num)
        np.maximum(num, EPSILON, out=h)

        if not model.fixed_templates:
            quotient()
            np.matmul(lam, stacked.T, out=w_num)
            np.multiply(w_mat, w_num, out=w_mat)
            np.sum(stacked, axis=1, out=h_sum)
            np.maximum(h_sum, EPSILON, out=h_sum)
            np.divide(w_mat, h_sum, out=w_mat)
            np.maximum(w_mat, EPSILON, out=w_mat)
    return NmfdModel(w_mat.reshape(n_bins, k, length).transpose(1, 0, 2), h,
                     model.fixed_templates)


def nmfd_step(model: NmfdModel, v: np.ndarray) -> NmfdModel:
    """One multiplicative KL update of H, then of W (unless templates are
    fixed), with the epsilon floor re-applied after each update."""
    return _iterate(model, v, 1)


def fit(
    v: np.ndarray,
    t: Transcription,
    bank: OneShotBank | None,
    case: NmfdCase,
    seed: int = 0,
    hop_size: int = DEFAULT_HOP,
) -> NmfdModel:
    """Initialize and run the case's iterations; returns the model."""
    model = init_informed(v, t, bank, case, seed=seed, hop_size=hop_size)
    return _iterate(model, v, case.iterations)


def nmfd_run(
    v: np.ndarray,
    t: Transcription,
    bank: OneShotBank | None,
    case: NmfdCase,
    seed: int = 0,
    hop_size: int = DEFAULT_HOP,
) -> tuple[NmfdModel, np.ndarray]:
    """``fit``, then the per-class magnitudes (K x F x M), which sum to the
    full reconstruction."""
    model = fit(v, t, bank, case, seed=seed, hop_size=hop_size)
    return model, reconstruct_per_class(model, v.shape[1])
