"""Per-track analysis-by-synthesis over the drum-machine forward model.

Given a mixture and its ground-truth onsets, jointly optimizes one-shot
waveforms, per-onset velocities, track gains and envelope decays by Adam on
the multi-resolution STFT loss. The stems come from the drum-machine forward
model (``drum_machine.trigger``). Gradients are computed by a hand-written
reverse pass: magnitude adjoint, windowed overlap-add STFT adjoint, the
forward model's adjoints (``trigger_adjoint``, ``apply_envelope_adjoint``),
then the squashing chain rules. Onsets themselves receive no gradient; their
support is fixed.

A solve builds one ``LossTargets`` per track: the target's magnitudes and
floored log magnitudes at every scale, and a workspace (a frames buffer, a
complex spectrum buffer, four float buffers, a mask and a padded signal,
shared by all scales) in which the loss adjoint writes every intermediate,
so that it allocates only the gradient it returns. Adam and gradient
clipping update their arrays in place.
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


def target_magnitudes(x: Waveform, cfg: LossConfig) -> dict[int, np.ndarray]:
    """Per-scale magnitude spectrograms of the target, precomputable once
    per track."""
    return {s: _scale_magnitudes(x.samples, cfg.stft_config(s)) for s in cfg.scales}


class LossTargets:
    """The loss's per-track state: the target's magnitudes and floored log
    magnitudes at every scale, plus one set of work buffers that every scale
    and every call of the loss adjoint reuses.

    Each buffer is sized for the scale that needs the most of it (frames x
    window, frames x bins, or padded samples), and each scale works in views
    of its head. One instance serves one signal length and one caller at a
    time.
    """

    def __init__(self, x: Waveform, cfg: LossConfig):
        self.cfg = cfg
        self.n_samples = len(x)
        self.magnitudes = target_magnitudes(x, cfg)
        self.log_magnitudes = {
            s: np.log(a + cfg.log_floor) for s, a in self.magnitudes.items()
        }
        bins = max(a.size for a in self.magnitudes.values())
        self._frames = np.empty(
            max(a.shape[0] * s for s, a in self.magnitudes.items())
        )
        self._spec = np.empty(bins, dtype=np.complex128)
        self._work = np.empty((4, bins))
        self._mask = np.empty(bins, dtype=bool)
        # The padded signal: window/2 zeros on both ends at the largest scale.
        self._padded = np.empty(self.n_samples + max(cfg.scales))


def _targets_for(
    x: Waveform, cfg: LossConfig, targets: LossTargets | None
) -> LossTargets:
    """``targets`` once checked against ``x`` and ``cfg``, or new ones."""
    if targets is None:
        return LossTargets(x, cfg)
    if targets.cfg != cfg or targets.n_samples != len(x):
        raise ValueError("loss targets were built for another signal or loss")
    return targets


def _view(buffer: np.ndarray, rows: int, cols: int) -> np.ndarray:
    return buffer[: rows * cols].reshape(rows, cols)


def recon_loss(
    x: Waveform,
    x_hat: Waveform,
    cfg: LossConfig = LossConfig(),
    targets: LossTargets | None = None,
) -> float:
    """Sum over scales of ||  |X| - |X_hat| ||_1 plus the same L1 distance
    between floored log magnitudes. ``targets``, built from ``x`` and
    ``cfg``, saves taking the STFTs of ``x`` again."""
    if len(x) != len(x_hat):
        raise ValueError(f"length mismatch: {len(x)} vs {len(x_hat)}")
    targets = _targets_for(x, cfg, targets)
    total = 0.0
    for scale in cfg.scales:
        ah = _scale_magnitudes(x_hat.samples, cfg.stft_config(scale))
        total += np.abs(targets.magnitudes[scale] - ah).sum()
        total += np.abs(
            targets.log_magnitudes[scale] - np.log(ah + cfg.log_floor)
        ).sum()
    return float(total)


def _loss_and_grad_wrt_signal(
    x_hat: np.ndarray, targets: LossTargets
) -> tuple[float, np.ndarray]:
    """Loss value and dL/dx_hat through every scale's magnitude STFT.

    Every intermediate lives in the work buffers of ``targets``; only the
    returned gradient is allocated."""
    cfg = targets.cfg
    n = len(x_hat)
    grad = np.zeros(n)
    loss = 0.0
    for scale in cfg.scales:
        scfg = cfg.stft_config(scale)
        window = hann_window(scale)
        target = targets.magnitudes[scale]
        m, n_bins = target.shape
        frames = _view(targets._frames, m, scale)
        spec = _view(targets._spec, m, n_bins)
        mag, diff, log_diff, tmp = (_view(w, m, n_bins) for w in targets._work)
        mask = _view(targets._mask, m, n_bins)

        np.multiply(frame_signal(x_hat, scfg), window, out=frames)
        np.fft.rfft(frames, axis=1, out=spec)  # M x F
        np.abs(spec, out=mag)

        np.subtract(mag, target, out=diff)
        np.add(mag, cfg.log_floor, out=log_diff)
        np.log(log_diff, out=log_diff)
        log_diff -= targets.log_magnitudes[scale]
        diff_l1 = np.abs(diff, out=tmp).sum()
        loss += diff_l1 + np.abs(log_diff, out=tmp).sum()

        # Adjoint of the magnitude: dL/dS = dL/d|S| * S / |S|, 0 where S = 0.
        # g_mag = sign(diff) + sign(log_diff) / (mag + floor) goes into diff.
        np.sign(diff, out=diff)
        np.sign(log_diff, out=log_diff)
        log_diff /= np.add(mag, cfg.log_floor, out=tmp)
        diff += log_diff
        ratio = tmp
        ratio.fill(0.0)
        np.divide(diff, mag, out=ratio, where=np.greater(mag, 0.0, out=mask))

        # Adjoint of the real FFT, Re(sum_k g_k e^{+2 pi i k n / N}), as
        # N * irfft: irfft counts each interior bin twice (its conjugate
        # mirror), so those bins are halved; DC and Nyquist are not.
        ratio[:, 1:-1] *= 0.5
        spec *= ratio
        g_frames = np.fft.irfft(spec, n=scale, axis=1, out=frames)
        g_frames *= scale * window

        # Adjoint of framing: overlap-add back into the padded signal.
        pad = scale // 2
        padded = targets._padded[: n + 2 * pad]
        padded.fill(0.0)
        overlap_add(g_frames, scfg.hop_size, n + 2 * pad, out=padded)
        grad += padded[pad : pad + n]
    return float(loss), grad


def loss_gradient(
    params: AbsParams,
    x: Waveform,
    grid: FrameActivations,
    cfg: LossConfig = LossConfig(),
    targets: LossTargets | None = None,
) -> tuple[float, AbsParams]:
    """Exact reverse-mode gradient of recon_loss(x, render(params, grid)).

    Returns (loss, gradients) with gradients shaped like ``params``.
    ``targets``, built once per track from ``x`` and ``cfg``, is reused
    across calls; without it each call builds its own.
    """
    onsets = onset_index(grid)
    if len(onsets) != len(params.raw_velocities):
        raise ValueError(
            f"{len(params.raw_velocities)} velocity parameters for "
            f"{len(onsets)} onsets"
        )
    targets = _targets_for(x, cfg, targets)
    w, alphas = params.one_shots(), params.alphas()
    v, gains = params.velocities(), params.gains()
    classes = np.nonzero(grid.onsets)[0]  # the order of onset_index
    shaped = apply_envelope(w, alphas)
    amps = gains[classes] * v
    mixture = trigger(shaped, onsets, amps, len(x)).sum(axis=0)
    loss, g_xhat = _loss_and_grad_wrt_signal(mixture, targets)

    # The mixture is the sum of the stems, so every stem gets its gradient.
    g_shaped, g_amps = trigger_adjoint(
        np.broadcast_to(g_xhat, (len(shaped), len(x))), shaped, onsets, amps
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
    """Scale ``grads`` in place so their global L2 norm is at most
    ``max_norm``; returns them."""
    arrays = grads.arrays()
    total = np.sqrt(sum(float(np.sum(v**2)) for v in arrays.values()))
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    for v in arrays.values():
        v *= scale
    return grads


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
    scratch = {k: np.empty_like(v) for k, v in params.arrays().items()}
    targets = LossTargets(x, cfg)
    trace, best, best_loss = [], params, np.inf
    for step in range(1, opt.steps + 1):
        loss, grads = loss_gradient(params, x, grid, cfg, targets=targets)
        trace.append(loss)
        if loss < best_loss:
            best, best_loss = params.copy(), loss
        g_arrays = _clip_global_norm(grads, opt.grad_clip_norm).arrays()
        for key, p in params.arrays().items():
            # Adam, in place: the fresh gradient array holds sqrt(v_hat) + eps
            # once the moments have read it, and ``tmp`` holds the step.
            g, m, v, tmp = g_arrays[key], state_m[key], state_v[key], scratch[key]
            m *= opt.beta1
            m += np.multiply(g, 1 - opt.beta1, out=tmp)
            v *= opt.beta2
            v += np.multiply(np.square(g, out=tmp), 1 - opt.beta2, out=tmp)
            np.divide(v, 1 - opt.beta2**step, out=g)
            np.sqrt(g, out=g)
            g += opt.adam_eps
            np.divide(m, 1 - opt.beta1**step, out=tmp)
            tmp *= opt.learning_rate
            tmp /= g
            p -= tmp

    stems, mixture = render_from_params(params, grid, len(x))
    final_loss = recon_loss(x, Waveform(mixture), cfg, targets=targets)
    if final_loss > best_loss:
        params, final_loss = best, best_loss
        stems, mixture = render_from_params(params, grid, len(x))
    trace.append(final_loss)
    return SolveResult(params, stems, mixture, trace)
