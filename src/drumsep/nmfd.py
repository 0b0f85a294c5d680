"""Transcription-informed convolutive NMF (NMFD) under generalized KL.

The mixture magnitude V (F x M) is approximated by Lambda[f, m] =
sum_k sum_tau W[k, f, tau] * H[k, m - tau]: per-class spectro-temporal
templates convolved with onset-informed activations. Multiplicative updates
keep everything non-negative and do not increase the KL divergence.

The convolution is one matrix product, Lambda = W_mat @ H_s: column k*L + tau
of W_mat is W[k, :, tau] and row k*L + tau of H_s is H[k] delayed by tau
frames (zero for tau >= M). With Q = V / Lambda, the H update's numerator is
W_mat^T @ Q summed along lag diagonals; the W update's is Q @ H_s^T.
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
    """Templates W (K x F x L), activations H (K x M), both >= 0."""

    templates: np.ndarray
    activations: np.ndarray
    fixed_templates: bool

    def __post_init__(self):
        w = np.asarray(self.templates, dtype=np.float64)
        h = np.asarray(self.activations, dtype=np.float64)
        if w.ndim != 3 or h.ndim != 2 or w.shape[0] != h.shape[0]:
            raise ValueError(
                f"inconsistent template/activation shapes {w.shape} / {h.shape}"
            )
        if (w.size and w.min() < 0) or (h.size and h.min() < 0):
            raise ValueError("NMFD factors must be non-negative")
        object.__setattr__(self, "templates", w)
        object.__setattr__(self, "activations", h)


def _stacked(h: np.ndarray, length: int) -> np.ndarray:
    """H_s, (K*L) x M: row k*L + tau is H[k] delayed by tau frames."""
    k, m = h.shape
    padded = np.pad(h, ((0, 0), (length - 1, 0)))
    # Window j starts at padded frame j, i.e. H delayed by L - 1 - j.
    return sliding_window_view(padded, m, axis=1)[:, ::-1].reshape(k * length, m)


def _lag_sum(g: np.ndarray) -> np.ndarray:
    """Adjoint of _stacked for g of shape K x L x M:
    out[k, m] = sum of g[k, tau, m + tau] over tau with m + tau < M."""
    k, length, m = g.shape
    # In rows of g padded to M + L, a step of M + L + 1 is one lag and one frame.
    flat = np.pad(g, ((0, 0), (0, 0), (0, length))).reshape(k, -1)
    return sliding_window_view(flat, m, axis=1)[:, :: m + length + 1].sum(axis=1)


def reconstruct_per_class(model: NmfdModel, n_frames: int) -> np.ndarray:
    """Per-class approximations Lambda_k, shape K x F x M."""
    k, _, length = model.templates.shape
    h_s = _stacked(model.activations[:, :n_frames], length)
    return model.templates @ h_s.reshape(k, length, n_frames)


def reconstruct(model: NmfdModel, n_frames: int) -> np.ndarray:
    """Full approximation Lambda = sum_k Lambda_k, shape F x M."""
    k, f, length = model.templates.shape
    w_mat = model.templates.transpose(1, 0, 2).reshape(f, k * length)
    return w_mat @ _stacked(model.activations[:, :n_frames], length)


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


def nmfd_step(model: NmfdModel, v: np.ndarray) -> NmfdModel:
    """One multiplicative KL update of H, then of W (unless templates are
    fixed), with the epsilon floor re-applied after each update."""
    v = np.asarray(v, dtype=np.float64)
    k, n_bins, length = model.templates.shape
    m = v.shape[1]
    if v.shape[0] != n_bins or model.activations.shape[1] != m:
        raise ValueError("model and magnitude dimensions do not match")

    w, h = model.templates, model.activations
    w_mat = w.transpose(1, 0, 2).reshape(n_bins, k * length)

    # H update: Lambda is linear in H, so this is a plain majorize-minimize
    # step on an expanded basis.
    q = v / (w_mat @ _stacked(h, length) + EPSILON)
    num = _lag_sum((w_mat.T @ q).reshape(k, length, m))
    den = _lag_sum(np.broadcast_to(w.sum(axis=1)[:, :, None], (k, length, m)))
    h = np.maximum(h * num / np.maximum(den, EPSILON), EPSILON)

    if not model.fixed_templates:
        h_s = _stacked(h, length)
        q = v / (w_mat @ h_s + EPSILON)
        w_mat = w_mat * (q @ h_s.T) / np.maximum(h_s.sum(axis=1), EPSILON)
        w = np.maximum(w_mat, EPSILON).reshape(n_bins, k, length).transpose(1, 0, 2)
    return NmfdModel(w, h, model.fixed_templates)


def nmfd_run(
    v: np.ndarray,
    t: Transcription,
    bank: OneShotBank | None,
    case: NmfdCase,
    seed: int = 0,
    hop_size: int = DEFAULT_HOP,
) -> tuple[NmfdModel, np.ndarray]:
    """Initialize and iterate; returns the model and per-class magnitudes
    (K x F x M), which sum to the full reconstruction."""
    model = init_informed(v, t, bank, case, seed=seed, hop_size=hop_size)
    for _ in range(case.iterations):
        model = nmfd_step(model, v)
    return model, reconstruct_per_class(model, v.shape[1])
