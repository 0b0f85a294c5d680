"""Per-track analysis-by-synthesis over the drum-machine forward model.

Given a mixture and its ground-truth onsets, jointly optimizes one-shot
waveforms, per-onset velocities, track gains and envelope decays by Adam on
the multi-resolution STFT loss. The stems come from the drum-machine forward
model (``drum_machine.trigger``). Gradients are computed by a hand-written
reverse pass: magnitude adjoint, windowed overlap-add STFT adjoint, the
forward model's adjoints (``trigger_adjoint``, ``apply_envelope_adjoint``),
then the squashing chain rules. Onsets themselves receive no gradient; their
support is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classes import NUM_CLASSES
from .drum_machine import (
    FrameActivations,
    apply_envelope,
    apply_envelope_adjoint,
    onset_index,
    trigger,
    trigger_adjoint,
)
from .signal import (
    DEFAULT_HOP,
    SAMPLE_RATE,
    StftConfig,
    Waveform,
    frame_signal,
    hann_window,
    overlap_add,
)
from .transcription import Transcription, events_to_grid

LN10 = float(np.log(10.0))
EXP_SIGMOID_MAX = 2.0
EXP_SIGMOID_FLOOR = 1e-7


def exp_sigmoid(x):
    """Smooth squashing onto (1e-7, 2 + 1e-7): 2 * sigmoid(x)^ln(10) + 1e-7."""
    x = np.asarray(x, dtype=np.float64)
    sig = 1.0 / (1.0 + np.exp(-x))
    return EXP_SIGMOID_MAX * sig**LN10 + EXP_SIGMOID_FLOOR


def exp_sigmoid_grad(x):
    x = np.asarray(x, dtype=np.float64)
    sig = 1.0 / (1.0 + np.exp(-x))
    return EXP_SIGMOID_MAX * LN10 * sig**LN10 * (1.0 - sig)


def inverse_exp_sigmoid(y: float) -> float:
    """Raw value mapping to ``y`` under exp_sigmoid."""
    sig = ((y - EXP_SIGMOID_FLOOR) / EXP_SIGMOID_MAX) ** (1.0 / LN10)
    return float(np.log(sig / (1.0 - sig)))


@dataclass(frozen=True)
class LossConfig:
    """Multi-resolution STFT loss: L1 on magnitudes plus L1 on log
    magnitudes over descending power-of-two window sizes, hop = window/4."""

    scales: tuple[int, ...] = (2048, 1024, 512, 256)
    log_floor: float = 1e-5

    def __post_init__(self):
        for a, b in zip(self.scales, self.scales[1:]):
            if a <= b:
                raise ValueError("scales must be strictly descending")
        for s in self.scales:
            if s <= 0 or (s & (s - 1)) != 0:
                raise ValueError(f"scale {s} is not a power of two")

    def stft_config(self, scale: int) -> StftConfig:
        return StftConfig(window_size=scale, hop_size=scale // 4)


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 5e-3
    grad_clip_norm: float = 0.5
    steps: int = 1000
    seed: int = 0
    # Adam moments.
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.learning_rate <= 0 or self.grad_clip_norm <= 0:
            raise ValueError("learning rate and clip norm must be positive")
        if self.steps < 1:
            raise ValueError(f"solver steps must be at least 1, got {self.steps}")


@dataclass
class AbsParams:
    """Unconstrained parameters; constrained views are obtained through
    tanh (one-shots) and exp_sigmoid (velocities, gains, decays)."""

    raw_one_shots: np.ndarray  # K x R
    raw_velocities: np.ndarray  # one per annotated onset
    raw_gains: np.ndarray  # K
    raw_alphas: np.ndarray  # K

    def one_shots(self) -> np.ndarray:
        return np.tanh(self.raw_one_shots)

    def velocities(self) -> np.ndarray:
        return exp_sigmoid(self.raw_velocities)

    def gains(self) -> np.ndarray:
        return exp_sigmoid(self.raw_gains)

    def alphas(self) -> np.ndarray:
        return exp_sigmoid(self.raw_alphas)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "raw_one_shots": self.raw_one_shots,
            "raw_velocities": self.raw_velocities,
            "raw_gains": self.raw_gains,
            "raw_alphas": self.raw_alphas,
        }

    def copy(self) -> "AbsParams":
        return AbsParams(**{k: v.copy() for k, v in self.arrays().items()})


def init_params(
    num_classes: int, one_shot_length: int, num_onsets: int, seed: int
) -> AbsParams:
    """Seeded small-noise one-shots; velocities and gains at the squashing
    midpoint; decays starting at 0.05."""
    rng = np.random.default_rng(seed)
    return AbsParams(
        raw_one_shots=rng.normal(0.0, 1e-2, size=(num_classes, one_shot_length)),
        raw_velocities=np.zeros(num_onsets),
        raw_gains=np.zeros(num_classes),
        raw_alphas=np.full(num_classes, inverse_exp_sigmoid(0.05)),
    )


def informed_init(
    x: Waveform,
    positions: list[tuple[int, int]],
    num_classes: int,
    one_shot_length: int,
    seed: int,
) -> AbsParams:
    """Noise init plus, per active class, the mixture excerpt after its
    first annotated onset (peak-normalized to 0.9) as the one-shot seed.

    Gradient descent from pure noise stalls far from the waveform optimum
    within a realistic step budget; seeding from the audible hit puts the
    solver in the right basin and leaves velocities, gains, decay and the
    residual waveform detail to the optimizer.
    """
    params = init_params(num_classes, one_shot_length, len(positions), seed)
    first_onset: dict[int, int] = {}
    for cls, pos in positions:
        first_onset.setdefault(cls, pos)
    for cls, pos in first_onset.items():
        snippet = x.samples[pos : pos + one_shot_length]
        seed_wave = np.zeros(one_shot_length)
        seed_wave[: len(snippet)] = snippet
        peak = np.abs(seed_wave).max()
        if peak > 0:
            seed_wave *= 0.9 / peak
        params.raw_one_shots[cls] = np.arctanh(np.clip(seed_wave, -0.999, 0.999))
    return params


def effective_one_shots(params: AbsParams) -> np.ndarray:
    """The one-shots as the sequencer plays them: squashed waveform times
    the learned decay envelope, K x R."""
    return apply_envelope(params.one_shots(), params.alphas())


# ---------------------------------------------------------------------------
# Multi-resolution loss and its adjoint
# ---------------------------------------------------------------------------


def _scale_magnitudes(x: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Frame-major magnitude spectrogram (M x F) of a raw sample array."""
    frames = frame_signal(x, cfg) * hann_window(cfg.window_size)
    return np.abs(np.fft.rfft(frames, axis=1))


def recon_loss(x: Waveform, x_hat: Waveform, cfg: LossConfig = LossConfig()) -> float:
    """Sum over scales of ||  |X| - |X_hat| ||_1 plus the same L1 distance
    between floored log magnitudes."""
    if len(x) != len(x_hat):
        raise ValueError(f"length mismatch: {len(x)} vs {len(x_hat)}")
    total = 0.0
    for scale in cfg.scales:
        scfg = cfg.stft_config(scale)
        ax = _scale_magnitudes(x.samples, scfg)
        ah = _scale_magnitudes(x_hat.samples, scfg)
        total += np.abs(ax - ah).sum()
        total += np.abs(
            np.log(ax + cfg.log_floor) - np.log(ah + cfg.log_floor)
        ).sum()
    return float(total)


def _loss_and_grad_wrt_signal(
    x_hat: np.ndarray, targets: dict[int, np.ndarray], cfg: LossConfig
) -> tuple[float, np.ndarray]:
    """Loss value and dL/dx_hat through every scale's magnitude STFT."""
    n = len(x_hat)
    grad = np.zeros(n)
    loss = 0.0
    for scale in cfg.scales:
        scfg = cfg.stft_config(scale)
        window = hann_window(scale)
        frames = frame_signal(x_hat, scfg) * window
        spec = np.fft.rfft(frames, axis=1)  # M x F
        mag = np.abs(spec)
        target = targets[scale]

        diff = mag - target
        log_diff = np.log(mag + cfg.log_floor) - np.log(target + cfg.log_floor)
        loss += np.abs(diff).sum() + np.abs(log_diff).sum()

        # Adjoint of the magnitude: dL/dS = dL/d|S| * S / |S|, 0 where S = 0.
        g_mag = np.sign(diff) + np.sign(log_diff) / (mag + cfg.log_floor)
        ratio = np.divide(g_mag, mag, out=np.zeros_like(mag), where=mag > 0)

        # Adjoint of the real FFT, Re(sum_k g_k e^{+2 pi i k n / N}), as
        # N * irfft: irfft counts each interior bin twice (its conjugate
        # mirror), so those bins are halved; DC and Nyquist are not.
        ratio[:, 1:-1] *= 0.5
        g_frames = np.fft.irfft(spec * ratio, n=scale, axis=1) * (scale * window)

        # Adjoint of framing: overlap-add back into the padded signal.
        pad = scale // 2
        g_padded = overlap_add(g_frames, scfg.hop_size, n + 2 * pad)
        grad += g_padded[pad : pad + n]
    return float(loss), grad


def target_magnitudes(x: Waveform, cfg: LossConfig) -> dict[int, np.ndarray]:
    """Per-scale magnitude spectrograms of the target, precomputable once
    per track."""
    return {s: _scale_magnitudes(x.samples, cfg.stft_config(s)) for s in cfg.scales}


def loss_gradient(
    params: AbsParams,
    x: Waveform,
    grid: FrameActivations,
    cfg: LossConfig = LossConfig(),
    targets: dict[int, np.ndarray] | None = None,
) -> tuple[float, AbsParams]:
    """Exact reverse-mode gradient of recon_loss(x, render(params, grid)).

    Returns (loss, gradients) with gradients shaped like ``params``.
    """
    onsets = onset_index(grid)
    if len(onsets) != len(params.raw_velocities):
        raise ValueError(
            f"{len(params.raw_velocities)} velocity parameters for "
            f"{len(onsets)} onsets"
        )
    if targets is None:
        targets = target_magnitudes(x, cfg)
    w, alphas = params.one_shots(), params.alphas()
    v, gains = params.velocities(), params.gains()
    classes = np.nonzero(grid.onsets)[0]  # the order of onset_index
    shaped = apply_envelope(w, alphas)
    amps = gains[classes] * v
    stems = trigger(shaped, onsets, amps, len(x))
    loss, g_xhat = _loss_and_grad_wrt_signal(stems.sum(axis=0), targets, cfg)

    # The mixture is the sum of the stems, so every stem gets its gradient.
    g_shaped, g_amps = trigger_adjoint(
        np.broadcast_to(g_xhat, stems.shape), shaped, onsets, amps
    )
    g_w, g_alphas = apply_envelope_adjoint(g_shaped, w, alphas)
    g_gains = np.bincount(classes, weights=g_amps * v, minlength=len(gains))
    grads = AbsParams(
        raw_one_shots=g_w * (1.0 - w**2),
        raw_velocities=g_amps * gains[classes]
        * exp_sigmoid_grad(params.raw_velocities),
        raw_gains=g_gains * exp_sigmoid_grad(params.raw_gains),
        raw_alphas=g_alphas * exp_sigmoid_grad(params.raw_alphas),
    )
    return loss, grads


def render_from_params(
    params: AbsParams, grid: FrameActivations, n_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stems (K x T) and mixture for the constrained parameters."""
    amps = params.gains()[np.nonzero(grid.onsets)[0]] * params.velocities()
    stems = trigger(effective_one_shots(params), onset_index(grid), amps, n_samples)
    return stems, stems.sum(axis=0)


# ---------------------------------------------------------------------------
# Optimizer driver
# ---------------------------------------------------------------------------


@dataclass
class SolveResult:
    params: AbsParams
    stems: np.ndarray  # K x T synthesis estimates
    mixture: np.ndarray  # T
    loss_trace: list[float]


def _clip_global_norm(grads: AbsParams, max_norm: float) -> AbsParams:
    arrays = grads.arrays()
    total = np.sqrt(sum(float(np.sum(v**2)) for v in arrays.values()))
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return AbsParams(**{k: v * scale for k, v in arrays.items()})


def solve_track(
    x: Waveform,
    t: Transcription,
    opt: OptimizerConfig = OptimizerConfig(),
    cfg: LossConfig = LossConfig(),
    one_shot_length: int = SAMPLE_RATE,
    num_classes: int = NUM_CLASSES,
) -> SolveResult:
    """Fit the forward model to ``x`` with its onsets fixed to ``t``.

    Adam with per-step global gradient-norm clipping; deterministic for a
    fixed seed. The loss has L1 kinks, so Adam does not descend monotonically;
    the result holds the iterate with the lowest loss, which ends the trace.
    The returned stems sum exactly to the returned mixture.
    """
    if len(t) == 0:
        raise ValueError("transcription must contain at least one onset")
    n_frames = max(1, len(x) // DEFAULT_HOP)
    grid = events_to_grid(t, n_frames, DEFAULT_HOP)
    if grid.num_classes != num_classes:
        raise ValueError("transcription class count does not match solver")

    positions = onset_index(grid)
    params = informed_init(x, positions, num_classes, one_shot_length, opt.seed)

    state_m = {k: np.zeros_like(v) for k, v in params.arrays().items()}
    state_v = {k: np.zeros_like(v) for k, v in params.arrays().items()}
    targets = target_magnitudes(x, cfg)
    trace, best, best_loss = [], params, np.inf
    for step in range(1, opt.steps + 1):
        loss, grads = loss_gradient(params, x, grid, cfg, targets=targets)
        trace.append(loss)
        if loss < best_loss:
            best, best_loss = params.copy(), loss
        grads = _clip_global_norm(grads, opt.grad_clip_norm)
        g_arrays = grads.arrays()
        p_arrays = params.arrays()
        for key, p in p_arrays.items():
            g = g_arrays[key]
            state_m[key] = opt.beta1 * state_m[key] + (1 - opt.beta1) * g
            state_v[key] = opt.beta2 * state_v[key] + (1 - opt.beta2) * g**2
            m_hat = state_m[key] / (1 - opt.beta1**step)
            v_hat = state_v[key] / (1 - opt.beta2**step)
            p -= opt.learning_rate * m_hat / (np.sqrt(v_hat) + opt.adam_eps)

    stems, mixture = render_from_params(params, grid, len(x))
    final_loss = recon_loss(x, Waveform(mixture), cfg)
    if final_loss > best_loss:
        params, final_loss = best, best_loss
        stems, mixture = render_from_params(params, grid, len(x))
    trace.append(final_loss)
    return SolveResult(params, stems, mixture, trace)
