"""Per-track analysis-by-synthesis over the drum-machine forward model.

Two solvers fit the forward model to a mixture with its onsets fixed to the
annotated ones.

``least_squares``, which ``separate abs`` runs, also fixes each onset's
amplitude to its annotated velocity. The mixture is then linear in the nine
one-shots (each with its track gain folded in), so it solves for them by
CGLS, conjugate gradients on the normal equations of the squared residual,
with ``trigger_mixture`` and ``trigger_mixture_adjoint`` as the operator and
its transpose. Each one-shot spans its full second, written as exp(-t /
``LSQ_DECAY_SECONDS``) times u; that substitution is the solve's only prior.
``LSQ_ITERATIONS`` is the default iteration count. The solve runs on the
calling thread.

``solve_track`` jointly optimizes one-shot waveforms, per-onset
velocities, track gains and envelope decays by Adam on the
multi-resolution STFT loss. The mixture comes from the drum-machine
forward model (``drum_machine.trigger_mixture``). Gradients are computed by
a hand-written reverse pass: magnitude adjoint, windowed overlap-add STFT
adjoint, the forward model's adjoints (``trigger_mixture_adjoint``,
``trigger_mixture_amplitude_adjoint``, ``apply_envelope_adjoint``), then
the squashing chain rules. Onsets themselves receive no gradient; their
support is fixed.

An Adam solve builds one ``LossTargets`` per track: the target's magnitudes
and floored log magnitudes at every scale, and one workspace that holds a
buffer per intermediate of the loss. The scales run in order on the calling
thread, each framing the estimate with ``signal.frame_signal`` as ``stft``
does.

Neither solver makes a BLAS call: the forward model's adjoints and the
CGLS inner products reduce by elementwise products and ``.sum()``, because
a BLAS dot or GEMV would round differently for different BLAS thread
counts. Gradient clipping scales its arrays in place; the Adam update
builds new ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classes import NUM_CLASSES
from .drum_machine import (
    ONE_SHOT_LENGTH,
    FrameActivations,
    apply_envelope,
    apply_envelope_adjoint,
    onset_index,
    trigger,
    trigger_mixture,
    trigger_mixture_adjoint,
    trigger_mixture_amplitude_adjoint,
)
from .signal import (
    DEFAULT_HOP,
    SAMPLE_RATE,
    StftConfig,
    Waveform,
    frame_signal,
    hann_window,
    magnitude,
    overlap_add,
    stft,
)
from .transcription import Transcription, events_to_grid, onset_samples

LN10 = float(np.log(10.0))
EXP_SIGMOID_MAX = 2.0
EXP_SIGMOID_FLOOR = 1e-7

# Adam's step size, moment decay rates and the denominator's epsilon, and
# the global norm each step's gradient is clipped to.
ADAM_LEARNING_RATE = 5e-3
ADAM_CLIP_NORM = 0.5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# The one-shots are written w = e * u with e = exp(-t / LSQ_DECAY_SECONDS).
# CGLS from u = 0 stays in the row space of A * e, so its iterates tend to
# the least-||u|| fit: a one-shot may ring for its full second, but its tail
# costs more the later it sounds. The prior acts from the first iteration,
# with no penalty term in the objective.
LSQ_DECAY_SECONDS = 0.2
LSQ_ITERATIONS = 30  # the knee of nSDR improvement against time
# The solve stops once the squared normal-equation gradient falls to this
# fraction of its start: the gradient is then rounding noise, and a step
# along it can raise the objective.
LSQ_GRADIENT_FLOOR = np.finfo(np.float64).eps ** 2


def check_iterations(iterations: int):
    """Raise ValueError unless ``iterations`` is at least 1."""
    if iterations < 1:
        raise ValueError(f"solver steps must be at least 1, got {iterations}")


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
    steps: int = 1000
    seed: int = 0

    def __post_init__(self):
        check_iterations(self.steps)
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
    """The loss's buffers, one per intermediate. Each is sized for the scale
    that needs the most of it; a scale works in views of its head."""

    def __init__(self, shapes: dict[int, tuple[int, int]], n_samples: int):
        cells = max(m * f for m, f in shapes.values())
        self.frames = np.empty(max(m * s for s, (m, _) in shapes.items()))
        self.spec = np.empty(cells, dtype=np.complex128)
        self.mag, self.diff, self.log_diff, self.tmp = np.empty((4, cells))
        self.mask = np.empty(cells, dtype=bool)
        self.padded = np.empty(n_samples + max(shapes))  # the largest scale's padding


class LossTargets:
    """The loss's per-track state: the target's magnitudes and floored log
    magnitudes at every scale and the workspace, all allocated here. One
    instance serves one signal length and one caller at a time.
    """

    def __init__(self, x: Waveform, cfg: LossConfig):
        self.cfg = cfg
        self.n_samples = len(x)
        self.magnitudes = target_magnitudes(x, cfg)
        self.log_magnitudes = {
            s: np.log(a + cfg.log_floor) for s, a in self.magnitudes.items()
        }
        shapes = {s: a.shape for s, a in self.magnitudes.items()}
        self._workspace = _Workspace(shapes, self.n_samples)


def _scale_terms(targets: LossTargets, scale: int, x_hat: np.ndarray, with_grad: bool):
    """One scale's magnitude L1, log-magnitude L1 and, ``with_grad``, its
    dL/dx_hat (else None), with every intermediate in the workspace. The
    gradient is a view into the workspace, valid until the next call."""
    cfg, ws = targets.cfg, targets._workspace
    target = targets.magnitudes[scale]
    m, n_bins = target.shape
    frames = _view(ws.frames, m, scale)
    spec = _view(ws.spec, m, n_bins)
    mag, diff = _view(ws.mag, m, n_bins), _view(ws.diff, m, n_bins)
    log_diff, tmp = _view(ws.log_diff, m, n_bins), _view(ws.tmp, m, n_bins)
    mask = _view(ws.mask, m, n_bins)

    window = hann_window(scale)
    np.multiply(frame_signal(x_hat, cfg.stft_config(scale)), window, out=frames)
    np.fft.rfft(frames, axis=1, out=spec)  # M x F
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
    # g_mag = sign(diff) + sign(log_diff) / (mag + floor) goes into diff,
    # and g_mag / |S| into tmp.
    np.sign(diff, out=diff)
    np.sign(log_diff, out=log_diff)
    log_diff /= np.add(mag, cfg.log_floor, out=tmp)
    diff += log_diff
    tmp.fill(0.0)
    np.divide(diff, mag, out=tmp, where=np.greater(mag, 0.0, out=mask))

    # Adjoint of the real FFT, Re(sum_k g_k e^{+2 pi i k n / N}), as
    # N * irfft: irfft counts each interior bin twice (its conjugate
    # mirror), so those bins are halved; DC and Nyquist are not.
    tmp[:, 1:-1] *= 0.5
    spec *= tmp
    g_frames = np.fft.irfft(spec, n=scale, axis=1, out=frames)
    g_frames *= scale * window

    # Adjoint of framing: overlap-add back into the padded signal.
    n, pad = targets.n_samples, scale // 2
    padded = ws.padded[: n + 2 * pad]
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
    for scale in cfg.scales:
        diff_l1, log_l1, _ = _scale_terms(targets, scale, x_hat.samples, False)
        total += diff_l1
        total += log_l1
    return float(total)


def _loss_and_grad_wrt_signal(
    x_hat: np.ndarray, targets: LossTargets
) -> tuple[float, np.ndarray]:
    """Loss value and dL/dx_hat through every scale's magnitude STFT.

    Every intermediate lives in the workspace of ``targets``; only the
    returned gradient and one padded copy of ``x_hat`` per scale are
    allocated."""
    grad = np.zeros(len(x_hat))
    loss = 0.0
    for scale in targets.cfg.scales:
        diff_l1, log_l1, g = _scale_terms(targets, scale, x_hat, True)
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

    g_shaped = trigger_mixture_adjoint(g_xhat, shaped, onsets, amps)
    g_amps = trigger_mixture_amplitude_adjoint(g_xhat, shaped, onsets)
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
    trace, best, best_loss = [], params, np.inf
    targets = LossTargets(x, cfg)
    for step in range(1, opt.steps + 1):
        loss, grads = loss_gradient(params, x, grid, cfg, targets=targets)
        if not np.isfinite(loss):
            raise ValueError(f"abs solver: non-finite loss at step {step}")
        trace.append(loss)
        if loss < best_loss:
            best, best_loss = params, loss
        g_arrays = _clip_global_norm(grads, ADAM_CLIP_NORM).arrays()
        updated = {}
        for key, p in params.arrays().items():
            g = g_arrays[key]
            m = state_m[key] = state_m[key] * ADAM_BETA1 + g * (1 - ADAM_BETA1)
            v = state_v[key] = state_v[key] * ADAM_BETA2 + g * g * (1 - ADAM_BETA2)
            m_hat, v_hat = m / (1 - ADAM_BETA1**step), v / (1 - ADAM_BETA2**step)
            denom = np.sqrt(v_hat) + ADAM_EPS
            updated[key] = p - m_hat * ADAM_LEARNING_RATE / denom
        params = AbsParams(**updated)

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


# ---------------------------------------------------------------------------
# Least squares over the one-shots
# ---------------------------------------------------------------------------


@dataclass
class LeastSquaresResult:
    one_shots: np.ndarray  # K x R, track gains folded in
    stems: np.ndarray  # K x T synthesis estimates
    mixture: np.ndarray  # T
    loss_trace: list[float]  # ||x - mixture||^2 at iterates 0..iterations


def least_squares(
    x: Waveform, t: Transcription, iterations: int = LSQ_ITERATIONS
) -> LeastSquaresResult:
    """Fit the nine one-shots to ``x`` by CGLS (conjugate gradients on the
    normal equations), with the onsets and velocities fixed to ``t``.

    With the onsets and their amplitudes fixed, the mixture is linear in
    the one-shots: ``trigger_mixture`` is the operator and
    ``trigger_mixture_adjoint`` its transpose. Each one-shot spans
    ``ONE_SHOT_LENGTH`` samples and absorbs its class's track gain. The
    solve minimizes the squared residual ||x - A(e * u)||^2 over u from
    u = 0, which makes the decay substitution its only prior (see
    ``LSQ_DECAY_SECONDS``); the trace holds the squared residual from u = 0
    on, and it does not rise. The
    solve holds its iterate once the gradient is down to
    ``LSQ_GRADIENT_FLOOR`` of its start, so the one-shots of a track whose
    gradient is zero at the start (silence, or every velocity 0) stay zero.
    A non-finite residual stops the solve with a ``ValueError`` that names
    the step.
    """
    if len(t) == 0:
        raise ValueError("transcription must contain at least one onset")
    check_iterations(iterations)
    n = len(x)
    onsets, amps = onset_samples(t, n)
    env = np.exp(np.arange(ONE_SHOT_LENGTH) / (-LSQ_DECAY_SECONDS * SAMPLE_RATE))
    shots = np.empty((NUM_CLASSES, ONE_SHOT_LENGTH))  # e * p, A's argument

    def squares(a: np.ndarray, out: np.ndarray) -> float:
        return float(np.multiply(a, a, out=out).sum())

    def normal_gradient(r: np.ndarray, out: np.ndarray):
        """e * A^T r, into ``out``; the adjoint reads only the shape of
        ``shots``."""
        np.multiply(trigger_mixture_adjoint(r, shots, onsets, amps), env, out=out)

    w = np.zeros_like(shots)  # e * u: the one-shots
    s, p, tmp = np.empty_like(w), np.empty_like(w), np.empty_like(w)
    r = x.samples.copy()
    r_tmp = np.empty(n)
    normal_gradient(r, s)
    p[:] = s
    gamma = squares(s, tmp)
    floor = LSQ_GRADIENT_FLOOR * gamma
    trace = [squares(r, r_tmp)]
    for step in range(1, iterations + 1):
        if gamma <= floor:  # u is the minimizer: nothing is left to descend
            trace.append(trace[-1])
            continue
        np.multiply(p, env, out=shots)
        q = trigger_mixture(shots, onsets, amps, n)
        alpha = gamma / squares(q, r_tmp)
        w += np.multiply(shots, alpha, out=tmp)
        r -= np.multiply(q, alpha, out=q)
        trace.append(squares(r, r_tmp))
        if not np.isfinite(trace[-1]):
            raise ValueError(f"abs solver: non-finite loss at step {step}")
        normal_gradient(r, s)
        gamma, previous = squares(s, tmp), gamma
        p *= gamma / previous
        p += s

    stems = trigger(w, onsets, amps, n)
    return LeastSquaresResult(w, stems, stems.sum(axis=0), trace)
