"""Synthetic dataset sampler: determinism, coherence and onset statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drumsep import dataset
from drumsep.classes import CLASS_INDEX, CLASS_NAMES, NUM_CLASSES
from drumsep.dataset import (
    DENSITIES,
    MIN_GAP_HOPS,
    VELOCITY_RANGE,
    GenerationSpec,
    generate_dataset,
)
from drumsep.drum_machine import ONE_SHOT_LENGTH, OneShotBank
from drumsep.fileio import read_wav, write_wav
from drumsep.signal import DEFAULT_HOP, Waveform


def small_bank(seed=0):
    rng = np.random.default_rng(seed)
    shots = np.zeros((NUM_CLASSES, ONE_SHOT_LENGTH))
    t = np.arange(2000)
    for k in range(NUM_CLASSES):
        shots[k, :2000] = rng.uniform(-1, 1, 2000) * np.exp(-t / 400)
    return OneShotBank(f"kit_{seed}", shots)


class TestGenerate:
    def test_deterministic_in_seed(self):
        spec = GenerationSpec(n_tracks=3, duration=1.0)
        a = generate_dataset([small_bank()], 5, spec)
        b = generate_dataset([small_bank()], 5, spec)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.mixture.samples, tb.mixture.samples)
            assert ta.transcription == tb.transcription

    def test_different_seeds_differ(self):
        spec = GenerationSpec(n_tracks=1, duration=1.0)
        a = generate_dataset([small_bank()], 1, spec)[0]
        b = generate_dataset([small_bank()], 2, spec)[0]
        assert not np.array_equal(a.mixture.samples, b.mixture.samples)

    def test_stems_sum_to_mixture(self):
        spec = GenerationSpec(n_tracks=2, duration=1.5)
        for track in generate_dataset([small_bank()], 0, spec):
            np.testing.assert_allclose(
                track.stems.sum(axis=0), track.mixture.samples, atol=1e-12
            )

    def test_zero_density_class_is_silent(self, monkeypatch):
        monkeypatch.setitem(DENSITIES, "kick", 0.0)
        spec = GenerationSpec(n_tracks=3, duration=2.0)
        for track in generate_dataset([small_bank()], 3, spec):
            assert "kick" not in track.transcription.active_classes()
            assert np.all(track.stems[CLASS_INDEX["kick"]] == 0)

    def test_mixture_peak_within_unit_range(self):
        spec = GenerationSpec(n_tracks=4, duration=1.0)
        for track in generate_dataset([small_bank()], 11, spec):
            assert np.abs(track.mixture.samples).max() <= 1.0 + 1e-12

    def test_cancelling_stems_written_without_clipping(self, tmp_path,
                                                       monkeypatch):
        # kick is s and snare -s; on a one-frame track both hit frame 0, so
        # the mixture nearly cancels and its peak alone understates the stems'
        s = small_bank().one_shots[0]
        shots = np.zeros((NUM_CLASSES, ONE_SHOT_LENGTH))
        shots[CLASS_INDEX["kick"]], shots[CLASS_INDEX["snare"]] = s, -s
        monkeypatch.setattr(dataset, "DENSITIES",
                            {"kick": 1000.0, "snare": 1000.0})
        spec = GenerationSpec(n_tracks=3, duration=512 / 44100)
        for track in generate_dataset([OneShotBank("cancel", shots)], 0, spec):
            written = []
            for i, stem in enumerate(track.stems):
                path = tmp_path / f"{track.track_id}_{i}.wav"
                assert np.abs(stem).max() <= 1.0
                write_wav(path, Waveform(stem))
                written.append(read_wav(path).samples)
            assert np.abs(written).max() <= 1.0
            mix_path = tmp_path / f"{track.track_id}_mix.wav"
            assert np.abs(track.mixture.samples).max() <= 1.0
            write_wav(mix_path, track.mixture)
            np.testing.assert_allclose(np.sum(written, axis=0),
                                       read_wav(mix_path).samples, atol=1e-6)

    def test_same_class_onsets_respect_min_gap(self):
        spec = GenerationSpec(n_tracks=3, duration=3.0)
        hop_sec = DEFAULT_HOP / 44100
        for track in generate_dataset([small_bank()], 21, spec):
            for name in CLASS_NAMES:
                times = track.transcription.times_for(name)
                if len(times) > 1:
                    assert np.diff(times).min() > MIN_GAP_HOPS * hop_sec

    def test_empty_bank_list_rejected(self):
        with pytest.raises(ValueError):
            generate_dataset([], 0)

    def test_onset_counts_match_poisson_mean(self, monkeypatch):
        monkeypatch.setattr(dataset, "GAIN_PROBABILITY", 0.0)
        spec = GenerationSpec(n_tracks=100, duration=1.0)
        tracks = generate_dataset([small_bank()], 17, spec)
        total = sum(len(t.transcription) for t in tracks)
        mean = sum(DENSITIES.values()) * spec.duration * spec.n_tracks
        assert abs(total - mean) < 3 * np.sqrt(mean)

    def test_velocities_within_configured_range(self):
        spec = GenerationSpec(n_tracks=3, duration=2.0)
        lo, hi = VELOCITY_RANGE
        for track in generate_dataset([small_bank()], 8, spec):
            for e in track.transcription.events:
                assert lo <= e.velocity <= hi

    def test_multiple_banks_all_used(self):
        banks = [small_bank(0), small_bank(1)]
        spec = GenerationSpec(n_tracks=12, duration=0.5)
        kits = {t.kit_id for t in generate_dataset(banks, 2, spec)}
        assert kits == {"kit_0", "kit_1"}


def quadratic_spaced_frames(rng, count, n_frames, min_gap):
    """``dataset._spaced_frames`` as it was: each draw compared with every
    frame kept so far."""
    frames = []
    for _ in range(8 * count):
        if len(frames) == count:
            break
        candidate = int(rng.integers(0, n_frames))
        if all(abs(candidate - f) > min_gap for f in frames):
            frames.append(candidate)
    return np.sort(np.array(frames, dtype=int))


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 300),
       n_frames=st.integers(1, 2000), min_gap=st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_spaced_frames_draw_as_the_quadratic_loop(seed, count, n_frames, min_gap):
    """The same frames from the same draws, leaving the generator in the
    same state, as the loop that compared each draw with every kept frame."""
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    frames = dataset._spaced_frames(rng, count, n_frames, min_gap)
    want = quadratic_spaced_frames(reference_rng, count, n_frames, min_gap)
    assert np.array_equal(frames, want)
    assert rng.integers(2**62) == reference_rng.integers(2**62)
