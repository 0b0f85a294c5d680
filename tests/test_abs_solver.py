"""Analysis-by-synthesis solver: squashing closed forms, a naive-DFT loss
oracle, an allocate-per-op loss adjoint oracle, finite-difference gradient
checks, allocation budgets, a plain Adam loop that the solve must equal bit
for bit, the threads a solve runs on, small end-to-end solves, and the
least-squares solve's objective."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drumsep import abs_solver
from drumsep.abs_solver import (
    AbsParams,
    LossConfig,
    LossTargets,
    OptimizerConfig,
    _loss_and_grad_wrt_signal,
    effective_one_shots,
    exp_sigmoid,
    exp_sigmoid_grad,
    informed_init,
    init_params,
    inverse_exp_sigmoid,
    least_squares,
    loss_gradient,
    recon_loss,
    render_from_params,
    solve_track,
    target_magnitudes,
)
from drumsep.classes import CLASS_INDEX, CLASS_NAMES, NUM_CLASSES
from drumsep.drum_machine import (
    ONE_SHOT_LENGTH,
    FrameActivations,
    onset_index,
    trigger,
    trigger_mixture,
)
from drumsep.signal import SAMPLE_RATE, Waveform, frame_signal, hann_window
from drumsep.transcription import Event, Transcription, events_to_grid, onset_samples

from hooked_calls import record_hooked_calls

RNG = np.random.default_rng(11)

SMALL_CFG = LossConfig(scales=(64, 32))


def naive_loss(x, x_hat, cfg):
    """Multi-resolution loss recomputed with explicit DFT sums."""
    total = 0.0
    for scale in cfg.scales:
        hop = scale // 4
        window = hann_window(scale)
        pad = scale // 2
        mags = []
        for sig in (x, x_hat):
            padded = np.pad(sig, (pad, pad))
            m = 1 + (len(padded) - scale) // hop
            mag = np.zeros((m, scale // 2 + 1))
            k = np.arange(scale // 2 + 1)
            t = np.arange(scale)
            basis = np.exp(-2j * np.pi * np.outer(k, t) / scale)
            for i in range(m):
                frame = padded[i * hop : i * hop + scale] * window
                mag[i] = np.abs(basis @ frame)
            mags.append(mag)
        a, b = mags
        total += np.abs(a - b).sum()
        total += np.abs(np.log(a + cfg.log_floor) - np.log(b + cfg.log_floor)).sum()
    return total


def reference_loss_and_grad(x_hat, targets, cfg):
    """The loss adjoint with a fresh array for every intermediate and a
    frame-by-frame overlap-add (frames taken by m mod 4, as
    ``signal.overlap_add`` groups them): the buffered implementation must
    equal it bit for bit."""
    n = len(x_hat)
    grad = np.zeros(n)
    loss = 0.0
    for scale in cfg.scales:
        hop = cfg.stft_config(scale).hop_size
        window = hann_window(scale)
        frames = frame_signal(x_hat, cfg.stft_config(scale)) * window
        spec = np.fft.rfft(frames, axis=1)
        mag = np.abs(spec)
        target = targets[scale]

        diff = mag - target
        log_diff = np.log(mag + cfg.log_floor) - np.log(target + cfg.log_floor)
        loss += np.abs(diff).sum() + np.abs(log_diff).sum()

        g_mag = np.sign(diff) + np.sign(log_diff) / (mag + cfg.log_floor)
        ratio = np.divide(g_mag, mag, out=np.zeros_like(mag), where=mag > 0)
        ratio[:, 1:-1] *= 0.5
        g_frames = np.fft.irfft(spec * ratio, n=scale, axis=1) * (scale * window)

        pad = scale // 2
        g_padded = np.zeros(n + 2 * pad)
        for p in range(scale // hop):
            for m in range(p, len(g_frames), scale // hop):
                g_padded[m * hop : m * hop + scale] += g_frames[m]
        grad += g_padded[pad : pad + n]
    return float(loss), grad


def with_silence(rng, n):
    """Noise with up to two runs of exact zeros, long enough to silence
    whole frames at the smaller scales."""
    x = rng.normal(0, 0.3, n)
    for _ in range(rng.integers(0, 3)):
        start = rng.integers(0, n)
        x[start : start + rng.integers(1, max(2, n // 2))] = 0.0
    return x


def tiny_instance(seed, k=2, r=64, t=256):
    rng = np.random.default_rng(seed)
    onsets = np.zeros((k, t // 8))
    velocities = np.zeros((k, t // 8))
    for cls in range(k):
        for m in rng.choice(t // 8, size=2, replace=False):
            onsets[cls, m] = 1.0
            velocities[cls, m] = rng.uniform(0.5, 1.5)
    grid = FrameActivations(onsets, velocities, 8)
    n_onsets = int(onsets.sum())
    params = AbsParams(
        raw_one_shots=rng.normal(0, 0.5, (k, r)),
        raw_velocities=rng.normal(0, 0.5, n_onsets),
        raw_gains=rng.normal(0, 0.5, k),
        raw_alphas=rng.normal(0, 0.5, k),
    )
    x = Waveform(rng.normal(0, 0.3, t))
    return params, x, grid


def numeric_gradient(params, x, grid, cfg, key, index, h=1e-6):
    def loss_at(p):
        _, mix = render_from_params(p, grid, len(x))
        return recon_loss(x, Waveform(mix), cfg)

    plus = params.copy()
    plus.arrays()[key].flat[index] += h
    minus = params.copy()
    minus.arrays()[key].flat[index] -= h
    return (loss_at(plus) - loss_at(minus)) / (2 * h)


class TestSquashing:
    def test_exp_sigmoid_limits(self):
        assert exp_sigmoid(-40.0) == pytest.approx(1e-7, rel=1e-6)
        assert exp_sigmoid(40.0) == pytest.approx(2.0 + 1e-7, rel=1e-9)

    def test_exp_sigmoid_midpoint(self):
        # 2 * 0.5^ln(10) + 1e-7
        assert exp_sigmoid(0.0) == pytest.approx(0.405408, abs=1e-5)

    def test_monotone_increasing(self):
        xs = np.linspace(-10, 10, 200)
        assert np.all(np.diff(exp_sigmoid(xs)) > 0)

    def test_grad_matches_finite_difference(self):
        for x in [-3.0, -0.5, 0.0, 1.2, 4.0]:
            fd = (exp_sigmoid(x + 1e-6) - exp_sigmoid(x - 1e-6)) / 2e-6
            assert exp_sigmoid_grad(x) == pytest.approx(fd, rel=1e-5)

    def test_inverse_round_trip(self):
        for y in [0.05, 0.4, 1.0, 1.9]:
            assert exp_sigmoid(inverse_exp_sigmoid(y)) == pytest.approx(y, rel=1e-9)


class TestLossConfigs:
    def test_scales_must_descend(self):
        with pytest.raises(ValueError):
            LossConfig(scales=(256, 512))

    def test_scales_must_be_powers_of_two(self):
        with pytest.raises(ValueError):
            LossConfig(scales=(100,))

    def test_hop_is_quarter_window(self):
        assert LossConfig().stft_config(2048).hop_size == 512

    def test_optimizer_validation(self):
        for steps in (0, -3):
            with pytest.raises(ValueError):
                OptimizerConfig(steps=steps)
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            OptimizerConfig(seed=-1)


class TestReconLoss:
    def test_zero_at_identity(self):
        x = Waveform(RNG.normal(size=500))
        assert recon_loss(x, x, SMALL_CFG) == 0.0

    def test_matches_naive_dft_oracle(self):
        x = RNG.normal(size=300)
        y = RNG.normal(size=300)
        got = recon_loss(Waveform(x), Waveform(y), SMALL_CFG)
        assert got == pytest.approx(naive_loss(x, y, SMALL_CFG), rel=1e-9)

    def test_blind_to_global_sign(self):
        x = RNG.normal(size=400)
        y = RNG.normal(size=400)
        a = recon_loss(Waveform(x), Waveform(y), SMALL_CFG)
        b = recon_loss(Waveform(x), Waveform(-y), SMALL_CFG)
        assert a == pytest.approx(b, rel=1e-9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            recon_loss(Waveform(np.zeros(100)), Waveform(np.zeros(99)), SMALL_CFG)


class TestGradient:
    def test_loss_value_matches_recon_loss(self):
        params, x, grid = tiny_instance(0)
        loss, _ = loss_gradient(params, x, grid, SMALL_CFG)
        _, mix = render_from_params(params, grid, len(x))
        assert loss == pytest.approx(recon_loss(x, Waveform(mix), SMALL_CFG), rel=1e-12)

    def test_matches_finite_differences(self):
        # generous log floor keeps curvature within finite-difference reach
        cfg = LossConfig(scales=(64, 32), log_floor=1e-2)
        params, x, grid = tiny_instance(1)
        _, grads = loss_gradient(params, x, grid, cfg)
        rng = np.random.default_rng(2)
        for key, g in grads.arrays().items():
            for index in rng.choice(g.size, size=min(4, g.size), replace=False):
                best = np.inf
                for h in (1e-4, 1e-5, 1e-6):
                    fd = numeric_gradient(params, x, grid, cfg, key, int(index), h)
                    denom = max(abs(fd), abs(g.flat[index]), 1e-3)
                    best = min(best, abs(g.flat[index] - fd) / denom)
                assert best < 1e-4

    def test_zero_at_self_rendered_optimum(self):
        """The target is rendered by ``trigger_mixture``, the operator the
        loss renders with, so the loss and every gradient are exactly 0."""
        params, x, grid = tiny_instance(3)
        amps = params.gains()[np.nonzero(grid.onsets)[0]] * params.velocities()
        mix = trigger_mixture(
            effective_one_shots(params), onset_index(grid), amps, len(x))
        loss, grads = loss_gradient(params, Waveform(mix), grid, SMALL_CFG)
        assert loss == 0.0
        for g in grads.arrays().values():
            assert np.all(g == 0)

    def test_inactive_class_receives_no_gradient(self):
        params, x, grid = tiny_instance(4)
        silent = FrameActivations(
            np.zeros_like(grid.onsets), np.zeros_like(grid.velocities), grid.hop_size
        )
        silent.onsets[0] = grid.onsets[0]
        silent.velocities[0] = grid.velocities[0]
        n_onsets = int(silent.onsets.sum())
        params = AbsParams(
            params.raw_one_shots, params.raw_velocities[:n_onsets],
            params.raw_gains, params.raw_alphas,
        )
        _, grads = loss_gradient(params, x, silent, SMALL_CFG)
        assert np.all(grads.raw_one_shots[1] == 0)
        assert grads.raw_gains[1] == 0 and grads.raw_alphas[1] == 0

    def test_velocity_count_mismatch_rejected(self):
        params, x, grid = tiny_instance(5)
        bad = AbsParams(params.raw_one_shots, params.raw_velocities[:-1],
                        params.raw_gains, params.raw_alphas)
        with pytest.raises(ValueError):
            loss_gradient(bad, x, grid, SMALL_CFG)

    def test_targets_of_another_signal_or_loss_rejected(self):
        params, x, grid = tiny_instance(7)
        for other in (LossTargets(x, LossConfig(scales=(32,))),
                      LossTargets(Waveform(x.samples[:-1]), SMALL_CFG)):
            with pytest.raises(ValueError, match="another signal or loss"):
                loss_gradient(params, x, grid, SMALL_CFG, targets=other)

    def test_precomputed_targets_change_nothing(self):
        params, x, grid = tiny_instance(6)
        targets = LossTargets(x, SMALL_CFG)
        a = loss_gradient(params, x, grid, SMALL_CFG)
        for _ in range(2):  # the reused work buffers keep nothing stale
            b = loss_gradient(params, x, grid, SMALL_CFG, targets=targets)
            assert a[0] == b[0]
            for ga, gb in zip(a[1].arrays().values(), b[1].arrays().values()):
                np.testing.assert_array_equal(ga, gb)


@given(
    n=st.integers(300, 5000),
    cfg=st.sampled_from([LossConfig(), LossConfig(scales=(512, 256))]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_buffered_loss_adjoint_equals_reference(n, cfg, seed):
    """Loss and gradient equal the allocate-per-op reference exactly, for
    lengths whose scales differ in frame count and signals and targets with
    silent frames (the |S| > 0 branch). One LossTargets serves two different
    estimates in a row, so a buffer left stale by the first call shows."""
    rng = np.random.default_rng(seed)
    x = Waveform(with_silence(rng, n))
    targets = LossTargets(x, cfg)
    for _ in range(2):
        x_hat = with_silence(rng, n)
        loss, grad = _loss_and_grad_wrt_signal(x_hat, targets)
        ref_loss, ref_grad = reference_loss_and_grad(
            x_hat, target_magnitudes(x, cfg), cfg)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)


def test_loss_adjoint_reuses_its_buffers():
    """A call with prebuilt targets allocates little beyond the gradient it
    returns: its traced peak stays under four signals' worth of bytes, where
    a fresh array per intermediate peaks near thirty."""
    x = Waveform(RNG.normal(0, 0.3, 3 * 44100))
    x_hat = RNG.normal(0, 0.3, len(x))
    targets = LossTargets(x, LossConfig())
    _loss_and_grad_wrt_signal(x_hat, targets)
    tracemalloc.start()
    try:
        _loss_and_grad_wrt_signal(x_hat, targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * x_hat.nbytes


def nine_class_instance(seconds=3.0, hop=512, seed=0):
    """All nine classes sounding on a dense onset grid, one-second
    one-shots: the size of the benchmark's tracks."""
    rng = np.random.default_rng(seed)
    n = int(seconds * 44100)
    onsets = (rng.uniform(size=(9, n // hop)) < 0.08).astype(float)
    velocities = onsets * rng.uniform(0.5, 1.5, onsets.shape)
    grid = FrameActivations(onsets, velocities, hop)
    params = init_params(9, 44100, int(onsets.sum()), seed=seed)
    return params, Waveform(rng.normal(0, 0.3, n)), grid


def test_loss_gradient_allocation_budget():
    """A loss_gradient call with prebuilt targets on a 3 s nine-class track
    peaks under 14 MB of traced allocations: four K x R arrays of the
    forward model and its adjoint (3.2 MB each) and no K x T stems. Measured
    13.1 MB; 21.2 MB when the call built the stems and summed them."""
    params, x, grid = nine_class_instance()
    targets = LossTargets(x, LossConfig())
    loss_gradient(params, x, grid, targets=targets)
    tracemalloc.start()
    try:
        loss_gradient(params, x, grid, targets=targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 14e6


class TestWorkers:
    def test_traced_functions_run_on_the_main_thread_only(self, monkeypatch):
        """bench/tracing.py wraps the functions its HOOKS list names, and
        its span stack is not thread-safe: every call a solve makes to
        those in abs_solver, signal or drum_machine runs on the main
        thread."""
        calls = record_hooked_calls(
            monkeypatch, ("abs_solver", "signal", "drum_machine"))
        x, trans = TestSolve()._track()
        abs_solver.solve_track(x, trans, OptimizerConfig(steps=3, seed=0),
                               LossConfig(scales=(512, 256)),
                               one_shot_length=1024)
        names = {name for name, _ in calls}
        for name in ("solve_track", "target_magnitudes", "loss_gradient",
                     "recon_loss", "render_from_params"):
            assert f"abs_solver.{name}" in names
        assert all(main for _, main in calls)


def test_non_finite_loss_stops_the_solve(monkeypatch):
    calls = []

    def nan_at_step_3(*args, **kwargs):
        calls.append(None)
        loss, grads = loss_gradient(*args, **kwargs)
        return (np.nan if len(calls) == 3 else loss), grads

    monkeypatch.setattr(abs_solver, "loss_gradient", nan_at_step_3)
    x, trans = TestSolve()._track()
    with pytest.raises(ValueError, match=r"^abs solver: non-finite loss at step 3$"):
        solve_track(x, trans, OptimizerConfig(steps=10, seed=0),
                    LossConfig(scales=(512, 256)), one_shot_length=1024)
    assert len(calls) == 3


class TestInit:
    def test_init_params_shapes_and_values(self):
        p = init_params(3, 64, 5, seed=0)
        assert p.raw_one_shots.shape == (3, 64)
        assert p.raw_velocities.shape == (5,)
        np.testing.assert_array_equal(p.raw_gains, 0.0)
        assert p.alphas() == pytest.approx(np.full(3, 0.05), rel=1e-9)

    def test_informed_init_seeds_active_classes(self):
        x = Waveform(RNG.normal(0, 0.3, 1000))
        positions = [(0, 100), (0, 500), (2, 300)]
        p = informed_init(x, positions, 3, 64, seed=0)
        # active classes carry the (normalized) mixture excerpt
        seeded = np.tanh(p.raw_one_shots[0])
        assert np.abs(seeded).max() == pytest.approx(0.9, abs=1e-6)
        snippet = x.samples[100:164]
        scaled = snippet * 0.9 / np.abs(snippet).max()
        np.testing.assert_allclose(seeded, np.clip(scaled, -0.999, 0.999), atol=1e-9)
        # the silent class stays small noise
        assert np.abs(p.raw_one_shots[1]).max() < 0.1

    def test_effective_one_shots_apply_envelope(self):
        p = init_params(2, 100, 1, seed=1)
        eff = effective_one_shots(p)
        env = np.exp(-20.0 * p.alphas()[0] * np.arange(100) / 100)
        np.testing.assert_allclose(eff[0], np.tanh(p.raw_one_shots[0]) * env)

    def test_onset_index_orders_by_class_then_frame(self):
        onsets = np.zeros((2, 6))
        velocities = np.zeros((2, 6))
        onsets[1, 1] = onsets[0, 4] = onsets[0, 2] = 1.0
        velocities[1, 1] = velocities[0, 4] = velocities[0, 2] = 1.0
        grid = FrameActivations(onsets, velocities, 10)
        assert onset_index(grid) == [(0, 20), (0, 40), (1, 10)]


class TestSolve:
    def _track(self):
        rng = np.random.default_rng(20)
        shot = rng.uniform(-0.8, 0.8, 800) * np.exp(-np.arange(800) / 200)
        x = np.zeros(44100)
        times = [0.05, 0.35, 0.65]
        for t in times:
            pos = int(t * 44100)
            x[pos : pos + 800] += shot
        trans = Transcription(tuple(Event(t, "kick", 1.0) for t in times))
        return Waveform(x), trans

    def test_loss_decreases_and_stems_sum(self):
        x, trans = self._track()
        opt = OptimizerConfig(steps=20, seed=0)
        cfg = LossConfig(scales=(512, 256))
        result = solve_track(x, trans, opt, cfg, one_shot_length=2048)
        # Adam's steps leak into the track's silent frames, so the loss climbs
        # for a few steps before it falls; within 20 steps the best iterate,
        # which ends the trace, is the informed init, below the loss after
        # the first update
        assert result.loss_trace[-1] < result.loss_trace[1]
        np.testing.assert_allclose(
            result.stems.sum(axis=0), result.mixture, atol=1e-12
        )
        assert len(result.loss_trace) == opt.steps + 1
        assert np.all(np.isfinite(result.loss_trace))

    def test_deterministic_in_seed(self):
        x, trans = self._track()
        opt = OptimizerConfig(steps=5, seed=3)
        cfg = LossConfig(scales=(512, 256))
        a = solve_track(x, trans, opt, cfg, one_shot_length=1024)
        b = solve_track(x, trans, opt, cfg, one_shot_length=1024)
        np.testing.assert_array_equal(a.mixture, b.mixture)
        assert a.loss_trace == b.loss_trace

    def test_returns_lowest_loss_iterate(self):
        x, trans = self._track()
        cfg = LossConfig(scales=(512, 256))
        result = solve_track(x, trans, OptimizerConfig(steps=5, seed=0), cfg,
                             one_shot_length=1024)
        assert result.loss_trace[-1] == min(result.loss_trace)
        assert result.loss_trace[-1] == pytest.approx(
            recon_loss(x, Waveform(result.mixture), cfg), rel=1e-9)

    def test_equals_a_plain_adam_loop(self):
        """The solve is Adam at learning rate 5e-3 on the gradient clipped
        to global norm 0.5, returning the best iterate: a loop with a fresh
        array for every value gives the same trace, parameters and stems,
        bit for bit."""
        x, trans = self._track()
        cfg, steps, seed, length = LossConfig(scales=(512, 256)), 6, 2, 1024
        result = solve_track(x, trans, OptimizerConfig(steps=steps, seed=seed),
                             cfg, one_shot_length=length)

        grid = events_to_grid(trans, len(x) // 512, 512)
        params = informed_init(x, onset_index(grid), NUM_CLASSES, length, seed)
        m = {k: np.zeros_like(p) for k, p in params.arrays().items()}
        v = {k: np.zeros_like(p) for k, p in params.arrays().items()}
        trace, best, best_loss = [], params, np.inf
        for step in range(1, steps + 1):
            loss, grads = loss_gradient(params, x, grid, cfg)
            trace.append(loss)
            if loss < best_loss:
                best, best_loss = params, loss
            g = grads.arrays()
            norm = np.sqrt(sum(float(np.sum(a**2)) for a in g.values()))
            if norm > 0.5:
                g = {k: a * (0.5 / norm) for k, a in g.items()}
            updated = {}
            for k, p in params.arrays().items():
                m[k] = 0.9 * m[k] + (1 - 0.9) * g[k]
                v[k] = 0.999 * v[k] + (1 - 0.999) * g[k] ** 2
                m_hat = m[k] / (1 - 0.9**step)
                v_hat = v[k] / (1 - 0.999**step)
                updated[k] = p - 5e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
            params = AbsParams(**updated)
        _, mixture = render_from_params(params, grid, len(x))
        final_loss = recon_loss(x, Waveform(mixture), cfg)
        if final_loss > best_loss:
            params, final_loss = best, best_loss
        stems, mixture = render_from_params(params, grid, len(x))

        assert result.loss_trace == trace + [final_loss]
        for key, value in params.arrays().items():
            assert np.array_equal(result.params.arrays()[key], value)
        assert np.array_equal(result.stems, stems)
        assert np.array_equal(result.mixture, mixture)

    @pytest.mark.parametrize("scales, onset, start", [
        ((4096, 2048), 512, 512),  # a 1024 hop would move it to 0 or 1024
        ((512, 256), 640, 512),  # a 128 hop would keep it at 640
    ])
    def test_grid_hop_does_not_follow_loss_scale(self, scales, onset, start):
        # onsets sit on the 512 grid whatever the first loss window
        x = np.zeros(8192)
        x[onset : onset + 200] = np.linspace(0.8, 0.0, 200)
        trans = Transcription((Event(onset / 44100, "kick", 1.0),))
        result = solve_track(Waveform(x), trans, OptimizerConfig(steps=1),
                             LossConfig(scales=scales), one_shot_length=256)
        k = CLASS_INDEX["kick"]
        played = np.flatnonzero(result.stems[k])
        shot = np.flatnonzero(effective_one_shots(result.params)[k])
        assert played.size and played[0] - shot[0] == start

    def test_empty_transcription_rejected(self):
        with pytest.raises(ValueError):
            solve_track(Waveform(np.zeros(44100)), Transcription(()))


def grid_transcription(rng, n_samples, n_events):
    """Random events on the 512-sample grid of an ``n_samples`` track, with
    velocities in [0, 2]."""
    frames = max(1, n_samples // 512)
    return Transcription(tuple(
        Event(int(m) * 512 / SAMPLE_RATE, CLASS_NAMES[k], float(v))
        for m, k, v in zip(rng.integers(0, frames, n_events),
                           rng.integers(0, NUM_CLASSES, n_events),
                           rng.uniform(0.0, 2.0, n_events))
    ))


def squared_residual(x, result):
    """||x - mixture||^2, with the mixture rendered by ``trigger`` from the
    returned one-shots, onsets and amplitudes."""
    stems = trigger(result.one_shots, result.onsets, result.amplitudes, len(x))
    return np.sum((x - stems.sum(axis=0)) ** 2)


class TestLeastSquares:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6000),
           n_events=st.integers(1, 6), iterations=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    # one sample, solved in one step: the steps after it were rounding
    # noise, and the fifth raised the objective by 5e-6 of itself
    @example(seed=388, n=1, n_events=1, iterations=5)
    def test_objective_never_rises(self, seed, n, n_events, iterations):
        rng = np.random.default_rng(seed)
        x = with_silence(rng, n)
        result = least_squares(
            Waveform(x), grid_transcription(rng, n, n_events), iterations)
        trace = result.loss_trace
        assert len(trace) == iterations + 1
        assert trace[0] == np.sum(x * x)
        for before, after in zip(trace, trace[1:]):
            assert after <= before * (1 + 1e-12)
        # A track solved exactly leaves a residual of rounding noise, which
        # the trace and the mixture round differently: hence the floor.
        assert trace[-1] == pytest.approx(
            squared_residual(x, result), rel=1e-9, abs=1e-15 * trace[0])

    def test_fits_a_self_rendered_track(self):
        rng = np.random.default_rng(7)
        n = 2 * SAMPLE_RATE
        t = grid_transcription(rng, n, 12)
        decay = np.exp(-np.arange(ONE_SHOT_LENGTH) / 2000)
        shots = rng.uniform(-1, 1, (NUM_CLASSES, ONE_SHOT_LENGTH)) * decay
        onsets, amps = onset_samples(t, n)
        x = trigger(shots, onsets, amps, n).sum(axis=0)
        solved = least_squares(Waveform(x), t, 30)
        # 5.9e-5 here; steepest descent, CG without its conjugate
        # directions, stops at 5.0e-4
        assert solved.loss_trace[-1] < 2e-4 * solved.loss_trace[0]
        assert solved.loss_trace[-1] == pytest.approx(
            squared_residual(x, solved), rel=1e-9)
        assert solved.onsets == onsets
        np.testing.assert_array_equal(solved.amplitudes, amps)
        stems = trigger(solved.one_shots, onsets, amps, n)
        for k in range(NUM_CLASSES):
            assert np.array_equal(solved.stem(k, np.full(n, np.nan)), stems[k])

    def test_bad_input_rejected(self):
        x = Waveform(np.ones(4096))
        with pytest.raises(ValueError, match="at least one onset"):
            least_squares(x, Transcription(()))
        with pytest.raises(ValueError, match="^solver steps must be at least 1, got 0$"):
            least_squares(x, Transcription((Event(0.0, "kick", 1.0),)), 0)
        # ||x||^2 overflows to inf at iterate 0, before any step is taken.
        huge = Waveform(np.random.default_rng(0).normal(size=4096) * 1e154)
        two_onsets = Transcription((Event(0.0, "kick", 1.0), Event(0.02, "snare", 1.0)))
        with pytest.raises(ValueError, match="^abs solver: non-finite loss at step 0$"):
            with np.errstate(over="ignore"):
                least_squares(huge, two_onsets)
