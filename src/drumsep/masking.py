"""Alpha-Wiener time-frequency masking with the mixture phase."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal import (
    ComplexSpectrogram,
    StftConfig,
    Waveform,
    istft,
    magnitude,
    stft,
)

MASK_EPSILON = 1e-8
DEFAULT_ALPHA = 1.0


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
    """Mask the mixture STFT and invert with the mixture phase.

    Returns K waveform stems as a K x len(x) array.
    """
    spec = stft(x, cfg)
    masks = mask_set.masks
    if masks.shape[1:] != spec.bins.shape:
        raise ValueError(
            f"mask shape {masks.shape[1:]} does not match spectrogram "
            f"{spec.bins.shape}"
        )
    stems = np.empty((masks.shape[0], len(x)))
    for i in range(masks.shape[0]):
        masked = ComplexSpectrogram(masks[i] * spec.bins, cfg, len(x))
        stems[i] = istft(masked).samples
    return stems


def mask_with_stems(
    x: Waveform,
    stems: np.ndarray,
    cfg: StftConfig = StftConfig(),
    alpha: float = DEFAULT_ALPHA,
    epsilon: float = MASK_EPSILON,
) -> np.ndarray:
    """Mask the mixture with the magnitude spectrograms of K x T stem
    estimates: K x len(x) masked stems."""
    estimates = np.stack([magnitude(stft(Waveform(s), cfg)) for s in stems])
    return apply_masks(x, compute_masks(estimates, alpha, epsilon), cfg)
