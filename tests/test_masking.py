"""Alpha-Wiener masks: scalar closed forms, partition and reconstruction."""

import numpy as np
import pytest

from drumsep.masking import (
    MaskSet,
    apply_masks,
    compute_masks,
    mask_with_stems,
)
from drumsep.signal import StftConfig, Waveform, magnitude, num_frames, stft

RNG = np.random.default_rng(55)


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
    def test_mask_with_stems_is_estimate_mask_and_invert(self):
        """Stems -> magnitude estimates (zeros for a silent stem) -> masks
        -> masked stems, bit for bit the composition it replaces."""
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
        assert np.array_equal(mask_with_stems(x, stems, cfg, alpha, eps), expected)
