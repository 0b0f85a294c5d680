"""Alpha-Wiener masks: scalar closed forms, partition and reconstruction,
and the blocked masking kernel against the composition it replaced."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drumsep import fileio, masking, parallel
from drumsep.classes import CLASS_NAMES, NUM_CLASSES
from drumsep.drum_machine import trigger
from drumsep.evaluation import lsd
from drumsep.masking import (
    MaskSet,
    apply_masks,
    compute_masks,
    mask_with_magnitudes,
    mask_with_shots,
)
from drumsep.signal import (
    SAMPLE_RATE,
    StftConfig,
    Waveform,
    frame_signal,
    hann_window,
    magnitude,
    num_frames,
    overlap_add,
    stft,
)

from hooked_calls import count_fft_rows, record_hooked_calls

RNG = np.random.default_rng(55)


def at_zero(stems):
    """The onsets and amplitudes that make K x T ``stems`` their own
    one-shots: one onset at sample 0 per class, with amplitude 1.0."""
    return [(k, 0) for k in range(len(stems))], np.ones(len(stems))


class RowWriter:
    """A block writer into one row of an array that checks what the
    kernel hands it: a float32 scratch buffer as long as the block."""

    def __init__(self, row):
        self.row = row

    def write(self, start, samples, scratch):
        assert scratch.dtype == np.float32 and len(scratch) >= len(samples)
        self.row[start : start + len(samples)] = samples


def to_array(mask, x, source, *args, **kwargs):
    """The K x len(x) stems that ``mask``, ``mask_with_magnitudes`` or
    ``mask_with_shots``, writes for the K estimates or one-shots of
    ``source``, each into a ``RowWriter`` over a row of zeros, as a stem
    file's unwritten samples read 0.0."""
    out = np.zeros((len(source), len(x)))
    mask(x, source, *args, writers=[RowWriter(row) for row in out], **kwargs)
    return out


class TestComputeMasks:
    def test_scalar_cells_match_direct_formula(self):
        est = RNG.uniform(0, 2, (3, 4, 5))
        alpha, eps = 1.3, 1e-8
        mask_set = compute_masks(est, alpha=alpha, epsilon=eps)
        for i in range(3):
            expected = est[i] ** alpha / ((est**alpha).sum(axis=0) + eps)
            np.testing.assert_allclose(mask_set.masks[i], expected, atol=1e-14)

    def test_single_active_source_gets_everything(self):
        est = np.zeros((3, 4, 5))
        est[1] = 1.0
        masks = compute_masks(est).masks
        np.testing.assert_allclose(masks[1], 1.0, atol=1e-7)
        assert np.all(masks[0] == 0) and np.all(masks[2] == 0)

    def test_equal_sources_split_evenly(self):
        est = np.ones((2, 3, 3))
        masks = compute_masks(est).masks
        np.testing.assert_allclose(masks, 0.5, atol=1e-7)

    def test_masks_in_unit_interval_and_sum_below_one(self):
        est = RNG.uniform(0, 3, (4, 10, 12))
        masks = compute_masks(est).masks
        assert masks.min() >= 0
        total = masks.sum(axis=0)
        assert np.all(total < 1.0)
        strong = est.sum(axis=0) >= 1e3 * 1e-8
        assert np.all(total[strong] >= 1.0 - 1e-6)

    def test_alpha_two_emphasizes_dominant_source(self):
        est = np.stack([np.full((2, 2), 2.0), np.ones((2, 2))])
        m1 = compute_masks(est, alpha=1.0).masks[0, 0, 0]
        m2 = compute_masks(est, alpha=2.0).masks[0, 0, 0]
        assert m2 > m1
        assert m2 == pytest.approx(0.8, abs=1e-7)

    def test_negative_estimates_rejected(self):
        with pytest.raises(ValueError):
            compute_masks(-np.ones((2, 3, 3)))

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            compute_masks(np.ones((3, 3)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha, epsilon", [
        (0.0, 1e-8), (-1.0, 1e-8), (np.nan, 1e-8), (np.inf, 1e-8),
        (1.0, 0.0), (1.0, -1e-8), (1.0, np.nan), (1.0, np.inf),
    ])
    def test_non_positive_or_non_finite_parameters_rejected(self, alpha, epsilon):
        with pytest.raises(ValueError, match="masking alpha and epsilon"):
            compute_masks(np.zeros((2, 3, 3)), alpha, epsilon)


class TestApplyMasks:
    def _mixture(self, n=20000):
        return Waveform(RNG.normal(0, 0.2, n))

    def test_unit_masks_reproduce_mixture(self):
        x = self._mixture()
        cfg = StftConfig(1024, 256)
        spec = stft(x, cfg)
        masks = MaskSet(np.ones((1,) + spec.bins.shape), 1.0, 0.0)
        stems = apply_masks(x, masks, cfg)
        assert np.max(np.abs(stems[0] - x.samples)) < 1e-6

    def test_zero_masks_give_silence(self):
        x = self._mixture()
        cfg = StftConfig(1024, 256)
        spec = stft(x, cfg)
        masks = MaskSet(np.zeros((2,) + spec.bins.shape), 1.0, 0.0)
        stems = apply_masks(x, masks, cfg)
        assert np.all(stems == 0)

    def test_masked_stems_sum_back_to_mixture(self):
        x = self._mixture()
        cfg = StftConfig(1024, 256)
        est = RNG.uniform(0.1, 2, (3,) + stft(x, cfg).bins.shape)
        mask_set = compute_masks(est)
        stems = apply_masks(x, mask_set, cfg)
        residual = stems.sum(axis=0) - x.samples
        rel_db = 10 * np.log10(np.sum(residual**2) / np.sum(x.samples**2))
        assert rel_db < -60.0

    def test_mixture_phase_is_kept(self):
        # a mask that keeps one source still uses the mixture's phase
        x = self._mixture()
        cfg = StftConfig(1024, 256)
        spec = stft(x, cfg)
        masks = MaskSet(np.full((1,) + spec.bins.shape, 0.5), 1.0, 0.0)
        stems = apply_masks(x, masks, cfg)
        half = stft(Waveform(stems[0]), cfg).bins
        np.testing.assert_allclose(np.angle(half[np.abs(half) > 1e-6]),
                                   np.angle(spec.bins[np.abs(half) > 1e-6]),
                                   atol=1e-5)

    def test_shape_mismatch_rejected(self):
        x = self._mixture()
        with pytest.raises(ValueError):
            apply_masks(x, MaskSet(np.ones((2, 10, 10)), 1.0, 0.0),
                        StftConfig(1024, 256))


class TestMaskingHelpers:
    def test_mask_with_shots_of_stems_is_estimate_mask_and_invert(self):
        """Stems, as one-shots at sample 0, -> magnitude estimates (zeros
        for a silent stem) -> masks -> masked stems, bit for bit the
        composition it replaces."""
        cfg = StftConfig(512, 128)
        x = Waveform(RNG.normal(0, 0.3, 3000))
        stems = RNG.normal(0, 0.3, (3, 3000))
        stems[1] = 0.0
        alpha, eps = 1.5, 1e-6
        estimates = np.stack([
            magnitude(stft(Waveform(stems[0]), cfg)),
            np.zeros((cfg.n_bins, num_frames(len(x), cfg))),
            magnitude(stft(Waveform(stems[2]), cfg)),
        ])
        expected = apply_masks(x, compute_masks(estimates, alpha, eps), cfg)
        assert np.array_equal(
            to_array(mask_with_shots, x, stems, *at_zero(stems), cfg, alpha, eps),
            expected)

    @pytest.mark.parametrize("shape, fill, match", [
        ((2, 257, 24), -1.0, "non-negative"),
        ((257, 24), 1.0, "K x F x M"),
        ((2, 257, 23), 1.0, "does not match"),
    ])
    def test_mask_with_magnitudes_rejects_what_compute_masks_rejects(
            self, shape, fill, match):
        x = Waveform(RNG.normal(0, 0.3, 3000))  # 24 frames at hop 128
        with pytest.raises(ValueError, match=match):
            to_array(mask_with_magnitudes, x, np.full(shape, fill), StftConfig(512, 128))

    @pytest.mark.parametrize("shots, amps, match", [
        (np.full((2, 100), np.nan), [1.0], "non-finite"),
        (np.ones((2, 100)), [np.inf], "non-finite"),
        (np.ones(100), [1.0], "one-shots"),
        (np.ones((2, 100)), [1.0, 1.0], "amplitudes"),
    ])
    def test_mask_with_shots_rejects_bad_shots(self, shots, amps, match):
        x = Waveform(RNG.normal(0, 0.3, 3000))
        with pytest.raises(ValueError, match=match):
            to_array(mask_with_shots, x, shots, [(0, 10)], np.array(amps),
                     StftConfig(512, 128))


def reference_masking(x, estimates, cfg, alpha, epsilon):
    """The masked stems as the per-class inverse STFT of masks[i] * stft(x)
    built them before masking ran in blocks: full K x F x M masks, then one
    windowed overlap-add per class with the window-sum normalization."""
    masks = estimates**alpha
    masks /= masks.sum(axis=0, keepdims=True) + epsilon
    spec = stft(x, cfg).bins
    window = hann_window(cfg.window_size)
    pad = cfg.window_size // 2
    total = len(x) + 2 * pad
    stems = np.empty((len(masks), len(x)))
    for i in range(len(masks)):
        frames = np.fft.irfft((masks[i] * spec).T, n=cfg.window_size, axis=1)
        frames *= window
        out = overlap_add(frames, cfg.hop_size, total)
        wsq = np.broadcast_to(window**2, frames.shape)
        norm = overlap_add(wsq, cfg.hop_size, total)
        good = norm > 1e-10
        out[good] /= norm[good]
        stems[i] = out[pad : pad + len(x)]
    return stems, masks


@st.composite
def masking_cases(draw):
    """A config, a mixture length, K stems (some silent), alpha and a block
    size: lengths from one sample to several blocks of the smallest block."""
    window, hop = draw(st.sampled_from([(512, 128), (1024, 256), (2048, 512)]))
    n = draw(st.one_of(
        st.integers(1, hop - 1),  # under one hop
        st.integers(hop, window - 1),  # under one window
        st.integers(window, 14 * window),  # several blocks, and lanes
    ))
    k = draw(st.integers(1, 9))
    silent = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    alpha = draw(st.sampled_from([1.0, 1.5, 2.0]))
    block = draw(st.sampled_from([1, 8, masking.MASK_BLOCK]))
    return StftConfig(window, hop), n, silent, alpha, block, draw(st.integers(0, 2**32 - 1))


class TestBlockedKernel:
    @given(masking_cases())
    @settings(max_examples=40, deadline=None)
    @example((StftConfig(512, 128), 1, [False], 1.0, 1, 0))
    @example((StftConfig(2048, 512), 3 * 44100 // 4, [False] * 8 + [True], 2.0,
              masking.MASK_BLOCK, 1))
    def test_same_bits_as_per_class_inverse(self, case):
        """Every entry point gives the bits of the per-class inverse STFT of
        the full masks, for any block size and 1, 2 or 3 lanes; the kernel
        writes every sample of a magnitudes source, and stems go in as
        one-shots at sample 0. The one-shots source gives those of the
        stems ``trigger`` renders from them, with cut tails, onsets past the
        end and same-sample duplicates. Sources with silent frames are
        checked for three alphas too (``_check_sparse_sources``)."""
        cfg, n, silent, alpha, block, seed = case
        rng = np.random.default_rng(seed)
        eps = 1e-8
        x = Waveform(rng.normal(0, 0.3, n))
        stems = rng.normal(0, 0.3, (len(silent), n))
        stems[silent] = 0.0
        estimates = np.stack([magnitude(stft(Waveform(s), cfg)) for s in stems])
        want, masks = reference_masking(x, estimates, cfg, alpha, eps)

        length = int(rng.integers(1, 2 * cfg.window_size))
        shots = rng.normal(0, 0.3, (len(silent), length))
        loud = [i for i, quiet in enumerate(silent) if not quiet]
        onsets = [(loud[int(rng.integers(len(loud)))],
                   int(rng.integers(0, n + length)))
                  for _ in range(int(rng.integers(0, 12)) if loud else 0)]
        onsets += onsets[:2]
        amps = rng.uniform(0, 2, len(onsets))
        rendered = trigger(shots, onsets, amps, n)
        want_shots, _ = reference_masking(
            x, np.stack([magnitude(stft(Waveform(s), cfg)) for s in rendered]),
            cfg, alpha, eps)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(masking, "MASK_BLOCK", block)
                for lanes in (1, 2, 3):
                    mp.setattr(parallel, "usable_cpus", lambda lanes=lanes: lanes)
                    mp.setattr(parallel, "MAX_THREADS", max(2, lanes))
                    written = np.full(want.shape, np.nan)
                    assert mask_with_magnitudes(
                        x, estimates, cfg, alpha, eps,
                        writers=[RowWriter(row) for row in written]) is None
                    got = [
                        to_array(mask_with_shots, x, stems, *at_zero(stems), cfg,
                                 alpha, eps),
                        apply_masks(x, MaskSet(masks, alpha, eps), cfg),
                        written,
                    ]
                    for stems_out in got:
                        assert stems_out.shape == want.shape
                        assert stems_out.tobytes() == want.tobytes()
                    shots_out = to_array(mask_with_shots, x, shots, onsets, amps,
                                         cfg, alpha, eps)
                    assert shots_out.tobytes() == want_shots.tobytes()
                self._check_sparse_sources(x, cfg, block, rng)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _check_sparse_sources(x, cfg, block, rng):
        """Stems (as one-shots at sample 0) and one-shots that are exactly
        zero over whole frames, which the kernel does not transform:
        leading and trailing silence, an interior gap longer than a block, a
        class silent throughout, exact zeros inside a sounding stretch and a
        single onset at the track's end. For alpha 0.5, 1 and 2 and 1 to 3
        lanes, written into block writers over zeros, they give the
        per-class inverse's bits."""
        n, hop = len(x), cfg.hop_size
        stride = cfg.window_size // hop
        third = n // 3
        stems = rng.normal(0, 0.3, (5, n))
        stems[0, :third] = stems[0, n - third :] = 0.0
        gap = (stride * -(-block // stride) + 2 * stride) * hop
        stems[1, n // 4 : n // 4 + gap] = 0.0
        stems[2] = 0.0
        stems[3, ::7] = 0.0
        stems[3, n // 2 : n // 2 + hop] = -0.0
        stems[4, : n - 1] = 0.0

        length = int(rng.integers(1, 2 * cfg.window_size))
        shots = rng.normal(0, 0.3, (5, length))
        shots[3, ::5] = 0.0
        shots[3, length // 2 : length // 2 + hop] = 0.0
        onsets = [(0, int(p)) for p in
                  rng.integers(third, max(third, n - third - length) + 1, 3)]
        onsets += [(1, 0), (1, n // 4 + gap)]
        onsets += [(3, int(p)) for p in rng.integers(0, n, 4)]
        onsets += [(4, n - 1)]
        amps = rng.uniform(0.5, 2, len(onsets))
        rendered = trigger(shots, onsets, amps, n)

        eps = 1e-8
        for alpha in (0.5, 1.0, 2.0):
            wants = [reference_masking(
                x, np.stack([magnitude(stft(Waveform(s), cfg)) for s in source]),
                cfg, alpha, eps)[0] for source in (stems, rendered)]
            for lanes in (1, 2, 3):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(parallel, "usable_cpus", lambda lanes=lanes: lanes)
                    mp.setattr(parallel, "MAX_THREADS", max(2, lanes))
                    got = [to_array(mask_with_shots, x, stems, *at_zero(stems),
                                    cfg, alpha, eps),
                           to_array(mask_with_shots, x, shots, onsets, amps, cfg,
                                    alpha, eps)]
                for want, rows in zip(wants, got):
                    assert rows.tobytes() == want.tobytes()

    def test_lanes_writing_one_set_of_files_at_once(self, tmp_path, monkeypatch):
        """Four lanes on 4-hop blocks, switching threads every microsecond,
        write the stem files of ``write_stems`` over the stems' array."""
        monkeypatch.setattr(masking, "MASK_BLOCK", 4)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
        monkeypatch.setattr(parallel, "MAX_THREADS", 4)
        rng = np.random.default_rng(8)
        n = 2 * SAMPLE_RATE
        x = Waveform(rng.normal(0, 0.3, n))
        shots = rng.normal(0, 0.3, (NUM_CLASSES, 3000))
        onsets = [(int(k), int(pos)) for k, pos in
                  zip(rng.integers(0, NUM_CLASSES, 40), rng.integers(0, n, 40))]
        amps = rng.uniform(0, 2, len(onsets))
        fileio.write_stems(to_array(mask_with_shots, x, shots, onsets, amps),
                           tmp_path / "arrays")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with fileio.stem_blocks(tmp_path / "blocks", n) as writers:
                mask_with_shots(x, shots, onsets, amps, writers=writers)
        finally:
            sys.setswitchinterval(interval)
        for name in CLASS_NAMES:
            assert ((tmp_path / "blocks" / f"{name}.wav").read_bytes()
                    == (tmp_path / "arrays" / f"{name}.wav").read_bytes())

    def test_traced_functions_run_on_the_calling_thread_only(self, monkeypatch):
        """No function that bench/tracing.py hooks in masking, signal or
        drum_machine runs on a masking lane."""
        calls = record_hooked_calls(
            monkeypatch, ("masking", "signal", "drum_machine"),
            [("masking", "_mask_lane")])
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        cfg = StftConfig(1024, 256)
        x = Waveform(RNG.normal(0, 0.3, SAMPLE_RATE))
        stems = RNG.normal(0, 0.3, (3, SAMPLE_RATE))
        estimates = np.stack([magnitude(stft(Waveform(s), cfg)) for s in stems])
        to_array(masking.mask_with_magnitudes, x, estimates, cfg)
        masking.apply_masks(x, masking.compute_masks(estimates), cfg)
        to_array(masking.mask_with_shots, x, stems[:, :2000], [(0, 100), (2, 30000)],
                 np.ones(2), cfg)
        assert ("masking.apply_masks", True) in calls
        # the blocks did run on a lane, and nothing traced did
        assert ("masking._mask_lane", False) in calls
        off_main = {name for name, main in calls if not main}
        assert off_main == {"masking._mask_lane"}

    @pytest.fixture
    def sparse_track(self, monkeypatch):
        """A 3 s mixture and the one-shots of nine classes, eight of them
        silent, on one lane. The ninth class sounds in one run of frames,
        under a quarter of the track, whose length is returned last."""
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        rng = np.random.default_rng(4)
        n = 3 * SAMPLE_RATE
        shots = np.zeros((NUM_CLASSES, 4000))
        shots[0] = rng.normal(0, 0.3, 4000)
        onsets, amps = [(0, SAMPLE_RATE), (0, SAMPLE_RATE + 3000)], np.ones(2)
        stems = trigger(shots, onsets, amps, n)
        sounding = np.flatnonzero(np.any(frame_signal(stems[0], StftConfig()) != 0,
                                         axis=1))
        assert len(sounding) == sounding[-1] + 1 - sounding[0]
        assert len(sounding) < num_frames(n, StftConfig()) // 4
        return Waveform(rng.normal(0, 0.3, n)), shots, onsets, amps, stems, len(sounding)

    def test_silent_frames_are_not_transformed(self, monkeypatch, sparse_track):
        """The one-shots source transforms the mixture's frames and the one
        sounding class's sounding frames, forward and back, and LSD the
        frames from the first to the last sounding one of reference and
        estimate: 8 of 9 classes cost no transform."""
        x, shots, onsets, amps, stems, sounding = sparse_track
        frames = num_frames(len(x), StftConfig())
        counts = count_fft_rows(monkeypatch)
        masked = to_array(mask_with_shots, x, shots, onsets, amps)
        assert counts == {"rfft": frames + sounding, "irfft": sounding}
        counts.update(rfft=0, irfft=0)
        estimate = np.flatnonzero(np.any(
            frame_signal(masked[0], StftConfig()) != 0, axis=1))
        for ref, est in zip(stems, masked):
            lsd(Waveform(ref), Waveform(est))
        assert counts == {"rfft": sounding + estimate[-1] + 1 - estimate[0],
                          "irfft": 0}

    def test_mask_sources_transform_every_frame(self, monkeypatch, sparse_track):
        """Given magnitudes there are no samples to check: the mixture's
        frames go forward and every class's frames back, as before the
        waveform sources skipped silent frames. ``apply_masks``, the
        per-class inverse STFT, transforms as many."""
        x, _, _, _, stems, _ = sparse_track
        frames = num_frames(len(x), StftConfig())
        estimates = np.stack([magnitude(stft(Waveform(s))) for s in stems])
        masks = compute_masks(estimates)
        counts = count_fft_rows(monkeypatch)
        to_array(mask_with_magnitudes, x, estimates)
        assert counts == {"rfft": frames, "irfft": NUM_CLASSES * frames}
        apply_masks(x, masks)
        assert counts == {"rfft": 2 * frames, "irfft": 2 * NUM_CLASSES * frames}

    @pytest.fixture
    def track(self, monkeypatch):
        """A 3 s mixture with nine stems and their magnitudes, on two lanes."""
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        rng = np.random.default_rng(3)
        n = 3 * SAMPLE_RATE
        stems = rng.normal(0, 0.3, (9, n))
        estimates = np.stack([magnitude(stft(Waveform(s))) for s in stems])
        return Waveform(rng.normal(0, 0.3, n)), stems, estimates

    @staticmethod
    def _peak(func, *args) -> int:
        tracemalloc.start()
        try:
            func(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_masking_with_stems_stays_in_budget(self, track):
        """Stems as track-length one-shots: the output and two lanes'
        buffers, each with a rendered stem block and an onset row. Measured
        27.4 MB; 64.9 MB when the K x F x M estimates and masks were
        built."""
        x, stems, _ = track
        assert self._peak(to_array, mask_with_shots, x, stems, *at_zero(stems)) < 36e6

    def test_masking_with_magnitudes_stays_in_budget(self, track):
        """Measured 22.2 MB; 45.8 MB when the K x F x M masks were built."""
        x, _, estimates = track
        assert self._peak(to_array, mask_with_magnitudes, x, estimates) < 26e6
