"""Per-track analysis-by-synthesis over the drum-machine forward model.

Given a mixture and its ground-truth onsets, jointly optimizes one-shot
waveforms, per-onset velocities, track gains and envelope decays by Adam on
the multi-resolution STFT loss. The mixture comes from the drum-machine
forward model (``drum_machine.trigger_mixture``). Gradients are computed by
a hand-written reverse pass: magnitude adjoint, windowed overlap-add STFT
adjoint, the forward model's adjoints (``trigger_mixture_adjoint``,
``apply_envelope_adjoint``), then the squashing chain rules. Onsets
themselves receive no gradient; their support is fixed.

A solve builds one ``LossTargets`` per track: the target's magnitudes and
floored log magnitudes at every scale, one padded copy of the estimate that
every scale frames as a strided view, and one workspace per worker (a frames
buffer that also hosts two of the four M x F float buffers while it is dead,
a complex spectrum buffer that takes the overlap-add once it is dead, two
float buffers and a mask). The loss scales are independent until their
gradients are summed, so during a solve they run on min(#scales, usable
CPUs, 2) threads (``parallel.thread_count``), each in its own workspace: a
worker allocates no array and calls only numpy and ``signal.overlap_add``,
never a function a tracer may wrap. Two is the only thread count whose time
and peak memory were measured; each further worker adds a workspace (13 MB
on a 3 s track). The
scales go in rounds of one per worker, and the main thread adds each
round's losses and gradients in scale order before the next round reuses
the workspaces, so every bit is the same for any number of workers, and
with one worker the same per-scale function runs inline.

The step makes no BLAS call: the forward model's adjoints reduce by
elementwise products and ``.sum()``. A BLAS dot or GEMV would wake the BLAS
library's threads, which then busy-wait on the cores the loss scales run on.
Adam and gradient clipping update their arrays in place.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .classes import NUM_CLASSES
from .drum_machine import (
    FrameActivations,
    apply_envelope,
    apply_envelope_adjoint,
    onset_index,
    trigger,
    trigger_mixture,
    trigger_mixture_adjoint,
)
from .parallel import thread_count
from .signal import (
    DEFAULT_HOP,
    SAMPLE_RATE,
    StftConfig,
    Waveform,
    frame_padded,
    hann_window,
    magnitude,
    overlap_add,
    stft,
)
from .transcription import Transcription, events_to_grid

LN10 = float(np.log(10.0))
EXP_SIGMOID_MAX = 2.0
EXP_SIGMOID_FLOOR = 1e-7

# Adam's moment decay rates and the denominator's epsilon.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
            self.stft_config(s)  # StftConfig's checks raise ValueError

    def stft_config(self, scale: int) -> StftConfig:
        return StftConfig(window_size=scale, hop_size=scale // 4)


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 5e-3
    grad_clip_norm: float = 0.5
    steps: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.learning_rate < np.inf and 0 < self.grad_clip_norm < np.inf):
            raise ValueError(
                f"solver learning rate and clip norm must be positive and "
                f"finite, got {self.learning_rate} and {self.grad_clip_norm}"
            )
        if self.steps < 1:
            raise ValueError(f"solver steps must be at least 1, got {self.steps}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


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


def target_magnitudes(x: Waveform, cfg: LossConfig) -> dict[int, np.ndarray]:
    """Per-scale frame-major (M x F) magnitude spectrograms of the target,
    precomputable once per track."""
    return {s: magnitude(stft(x, cfg.stft_config(s))).T for s in cfg.scales}


class _Workspace:
    """One worker's buffers. Each is sized for the scale that needs the most
    of it; a scale works in views of its head.

    The frames buffer (M x window) is dead from the forward real FFT until
    the inverse one writes it again, so it is sized M x (window + 2), twice
    M x F, and hosts two of the four M x F float buffers in between. The
    spectrum buffer is dead after the inverse FFT, so it takes the scale's
    overlap-add."""

    def __init__(self, shapes: dict[int, tuple[int, int]], n_samples: int):
        cells = max(m * f for m, f in shapes.values())
        self.frames = np.empty(2 * cells)
        self.spec = np.empty(
            max(max(m * f, (n_samples + s + 1) // 2) for s, (m, f) in shapes.items()),
            dtype=np.complex128,
        )
        self.work = np.empty((2, cells))
        self.mask = np.empty(cells, dtype=bool)


class LossTargets:
    """The loss's per-track state: the target's magnitudes and floored log
    magnitudes at every scale, the estimate's padded signal and its frames
    at every scale, and one workspace per worker.

    The scales run inline in one workspace, or, while ``workers()`` is
    open, on ``parallel.thread_count(#scales)`` threads with one
    workspace each. One instance serves one signal length and one caller
    at a time.
    """

    def __init__(self, x: Waveform, cfg: LossConfig):
        self.cfg = cfg
        self.n_samples = n = len(x)
        self.magnitudes = target_magnitudes(x, cfg)
        self.log_magnitudes = {
            s: np.log(a + cfg.log_floor) for s, a in self.magnitudes.items()
        }
        # The estimate, with window/2 zeros on both ends at the largest scale:
        # the caller writes it once per call and every scale frames a view.
        pad = max(cfg.scales) // 2
        self._padded = np.zeros(n + 2 * pad)
        self._signal = self._padded[pad : pad + n]
        self._frames_of = {
            s: frame_padded(
                self._padded[pad - s // 2 : pad + n + s // 2], cfg.stft_config(s)
            )
            for s in cfg.scales
        }
        self._windows = {s: hann_window(s) for s in cfg.scales}
        self._scaled_windows = {s: s * w for s, w in self._windows.items()}
        self._shapes = {s: a.shape for s, a in self.magnitudes.items()}
        self._workspaces = [_Workspace(self._shapes, n)]
        self._map, self._in_use = map, 1

    @contextmanager
    def workers(self):
        """Run the scales on one thread per workspace while open, adding the
        workspaces the threads need. They stay allocated after it closes,
        when the scales run inline in the first one again."""
        count = thread_count(len(self.cfg.scales))
        if count == 1:
            yield self
            return
        self._workspaces += [
            _Workspace(self._shapes, self.n_samples)
            for _ in range(count - len(self._workspaces))
        ]
        with ThreadPoolExecutor(count) as pool:
            self._map, self._in_use = pool.map, count
            try:
                yield self
            finally:
                self._map, self._in_use = map, 1

    def _per_scale(self, x_hat: np.ndarray, with_grad: bool):
        """Each scale's (magnitude L1, log-magnitude L1, dL/dx_hat or None),
        in scale order.

        The scales run in rounds of one per workspace, so a gradient is a
        view into its worker's buffers that stays valid only until the
        caller asks for the next round."""
        self._signal[:] = x_hat
        scales, spaces = self.cfg.scales, self._workspaces[: self._in_use]
        for start in range(0, len(scales), len(spaces)):
            yield from self._map(
                lambda scale, ws: _scale_terms(self, scale, ws, with_grad),
                scales[start : start + len(spaces)],
                spaces,
            )


def _scale_terms(targets: LossTargets, scale: int, ws: _Workspace, with_grad: bool):
    """One scale's loss terms and, ``with_grad``, its dL/dx_hat, with every
    intermediate in ``ws``. Runs on a worker thread: it allocates no array
    and calls numpy and ``signal.overlap_add`` only, none of the functions
    a tracer may wrap."""
    cfg = targets.cfg
    target = targets.magnitudes[scale]
    m, n_bins = target.shape
    cells = m * n_bins
    frames = _view(ws.frames, m, scale)
    spec = _view(ws.spec, m, n_bins)
    mag, diff = _view(ws.frames, m, n_bins), _view(ws.frames[cells:], m, n_bins)
    log_diff, tmp = (_view(w, m, n_bins) for w in ws.work)
    mask = _view(ws.mask, m, n_bins)

    np.multiply(targets._frames_of[scale], targets._windows[scale], out=frames)
    np.fft.rfft(frames, axis=1, out=spec)  # M x F; the frames are dead
    np.abs(spec, out=mag)

    np.subtract(mag, target, out=diff)
    np.add(mag, cfg.log_floor, out=log_diff)
    np.log(log_diff, out=log_diff)
    log_diff -= targets.log_magnitudes[scale]
    diff_l1 = np.abs(diff, out=tmp).sum()
    log_l1 = np.abs(log_diff, out=tmp).sum()
    if not with_grad:
        return diff_l1, log_l1, None

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
    g_frames *= targets._scaled_windows[scale]

    # Adjoint of framing: overlap-add back into the padded signal, which
    # lands in the dead spectrum buffer.
    n, pad = targets.n_samples, scale // 2
    padded = ws.spec.view(np.float64)[: n + 2 * pad]
    padded.fill(0.0)
    overlap_add(g_frames, scale // 4, n + 2 * pad, out=padded)
    return diff_l1, log_l1, padded[pad : pad + n]


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
    for diff_l1, log_l1, _ in targets._per_scale(x_hat.samples, with_grad=False):
        total += diff_l1
        total += log_l1
    return float(total)


def _loss_and_grad_wrt_signal(
    x_hat: np.ndarray, targets: LossTargets
) -> tuple[float, np.ndarray]:
    """Loss value and dL/dx_hat through every scale's magnitude STFT.

    Every intermediate lives in the buffers of ``targets``; only the
    returned gradient is allocated. The scales' terms are summed in scale
    order whichever worker computed them, so the result does not depend on
    the number of workers."""
    grad = np.zeros(len(x_hat))
    loss = 0.0
    for diff_l1, log_l1, g in targets._per_scale(x_hat, with_grad=True):
        loss += diff_l1 + log_l1
        grad += g
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
    loss, g_xhat = _loss_and_grad_wrt_signal(
        trigger_mixture(shaped, onsets, amps, len(x)), targets
    )

    g_shaped, g_amps = trigger_mixture_adjoint(g_xhat, shaped, onsets, amps)
    del g_xhat
    # ``shaped`` is dead from here on: it takes the decay product, then
    # 1 - w^2 for the tanh chain rule.
    g_w, g_alphas = apply_envelope_adjoint(g_shaped, w, alphas, work=shaped)
    del g_shaped
    np.square(w, out=shaped)
    np.subtract(1.0, shaped, out=shaped)
    g_w *= shaped
    g_gains = np.bincount(classes, weights=g_amps * v, minlength=len(gains))
    grads = AbsParams(
        raw_one_shots=g_w,
        raw_velocities=g_amps * gains[classes]
        * exp_sigmoid_grad(params.raw_velocities),
        raw_gains=g_gains * exp_sigmoid_grad(params.raw_gains),
        raw_alphas=g_alphas * exp_sigmoid_grad(params.raw_alphas),
    )
    return loss, grads


def _amplitudes(params: AbsParams, grid: FrameActivations) -> np.ndarray:
    """Per-onset amplitudes, track gain times velocity, in onset order."""
    return params.gains()[np.nonzero(grid.onsets)[0]] * params.velocities()


def render_from_params(
    params: AbsParams, grid: FrameActivations, n_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stems (K x T) and mixture for the constrained parameters."""
    stems = trigger(
        effective_one_shots(params), onset_index(grid), _amplitudes(params, grid),
        n_samples,
    )
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
) -> SolveResult:
    """Fit the forward model to ``x`` with its onsets fixed to ``t``.

    Adam with per-step global gradient-norm clipping; deterministic for a
    fixed seed. The loss has L1 kinks, so Adam does not descend monotonically;
    the result holds the iterate with the lowest loss, which ends the trace.
    The returned stems sum exactly to the returned mixture. A non-finite
    loss stops the solve with a ``ValueError`` that names the step.
    """
    if len(t) == 0:
        raise ValueError("transcription must contain at least one onset")
    n_frames = max(1, len(x) // DEFAULT_HOP)
    grid = events_to_grid(t, n_frames, DEFAULT_HOP)
    positions = onset_index(grid)
    params = informed_init(x, positions, NUM_CLASSES, one_shot_length, opt.seed)

    state_m = {k: np.zeros_like(v) for k, v in params.arrays().items()}
    state_v = {k: np.zeros_like(v) for k, v in params.arrays().items()}
    scratch = {k: np.empty_like(v) for k, v in params.arrays().items()}
    trace, best, best_loss = [], params, np.inf
    with LossTargets(x, cfg).workers() as targets:
        for step in range(1, opt.steps + 1):
            loss, grads = loss_gradient(params, x, grid, cfg, targets=targets)
            if not np.isfinite(loss):
                raise ValueError(f"abs solver: non-finite loss at step {step}")
            trace.append(loss)
            if loss < best_loss:
                best, best_loss = params.copy(), loss
            g_arrays = _clip_global_norm(grads, opt.grad_clip_norm).arrays()
            for key, p in params.arrays().items():
                # Adam, in place: the fresh gradient array holds
                # sqrt(v_hat) + eps once the moments have read it, and
                # ``tmp`` holds the step.
                g, m, v, tmp = g_arrays[key], state_m[key], state_v[key], scratch[key]
                m *= ADAM_BETA1
                m += np.multiply(g, 1 - ADAM_BETA1, out=tmp)
                v *= ADAM_BETA2
                v += np.multiply(np.square(g, out=tmp), 1 - ADAM_BETA2, out=tmp)
                np.divide(v, 1 - ADAM_BETA2**step, out=g)
                np.sqrt(g, out=g)
                g += ADAM_EPS
                np.divide(m, 1 - ADAM_BETA1**step, out=tmp)
                tmp *= opt.learning_rate
                tmp /= g
                p -= tmp

        # The last iterate's loss needs only its mixture; the stems are
        # rendered once, for the iterate returned.
        mixture = trigger_mixture(
            effective_one_shots(params), positions, _amplitudes(params, grid), len(x)
        )
        final_loss = recon_loss(x, Waveform(mixture), cfg, targets=targets)
    if final_loss > best_loss:
        params, final_loss = best, best_loss
    stems, mixture = render_from_params(params, grid, len(x))
    trace.append(final_loss)
    return SolveResult(params, stems, mixture, trace)
