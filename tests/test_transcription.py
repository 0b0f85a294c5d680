"""Onset placement and event grids, peak picking, spectral flux and onset
matching (with a brute-force matching oracle)."""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from drumsep.classes import CLASS_NAMES
from drumsep.drum_machine import onset_index
from drumsep.signal import SAMPLE_RATE, Waveform
from drumsep.transcription import (
    Event,
    GridRangeError,
    Transcription,
    events_to_grid,
    match_onsets,
    nearest_frame,
    onset_samples,
    peak_pick,
    spectral_flux_curve,
)

RNG = np.random.default_rng(99)
HOP = 512


def brute_force_hits(est, ref, tolerance):
    """Maximum number of one-to-one pairs within tolerance, by enumeration."""
    best = 0
    small, large = (est, ref) if len(est) <= len(ref) else (ref, est)
    for perm in permutations(range(len(large)), len(small)):
        hits = sum(
            1 for i, j in enumerate(perm) if abs(small[i] - large[j]) <= tolerance
        )
        best = max(best, hits)
    return best


def bipartite_hits(est, ref, tolerance):
    """Maximum number of one-to-one pairs within tolerance, by scipy's
    maximum bipartite matching over the feasibility graph."""
    feasible = np.abs(np.subtract.outer(est, ref)) <= tolerance
    matching = maximum_bipartite_matching(csr_matrix(feasible), perm_type="column")
    return int((matching >= 0).sum())


class TestTranscription:
    def test_sorted_by_class_then_time(self):
        t = Transcription((
            Event(1.0, "snare", 1.0),
            Event(0.5, "kick", 1.0),
            Event(0.2, "snare", 1.0),
        ))
        assert [e.class_name for e in t.events] == ["kick", "snare", "snare"]
        assert t.events[1].time == 0.2

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            Transcription((Event(0.0, "cowbell", 1.0),))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Transcription((Event(-0.1, "kick", 1.0),))

    def test_velocity_range_enforced(self):
        with pytest.raises(ValueError):
            Transcription((Event(0.0, "kick", 2.5),))

    def test_times_for_and_active_classes(self):
        t = Transcription((Event(0.5, "kick", 1.0), Event(1.5, "kick", 1.0)))
        np.testing.assert_array_equal(t.times_for("kick"), [0.5, 1.5])
        assert t.active_classes() == {"kick"}
        assert len(t.times_for("ride")) == 0


class TestNearestFrame:
    def test_zero_maps_to_zero(self):
        assert nearest_frame(0.0, HOP) == 0

    def test_half_frame_tie_rounds_down(self):
        # exactly 1.5 hops from the origin
        assert nearest_frame(1.5 * HOP / SAMPLE_RATE, HOP) == 1

    def test_just_past_half_rounds_up(self):
        assert nearest_frame(1.5001 * HOP / SAMPLE_RATE, HOP) == 2

    def test_matches_argmin_over_grid(self):
        for _ in range(200):
            t = float(RNG.uniform(0, 5))
            m = nearest_frame(t, HOP)
            grid = np.arange(600) * HOP / SAMPLE_RATE
            best = np.abs(grid - t).min()
            assert abs(m * HOP / SAMPLE_RATE - t) <= best + 1e-12


class TestGrids:
    def test_events_land_on_nearest_frames(self):
        t = Transcription((Event(0.3, "kick", 1.2), Event(0.6, "snare", 0.7)))
        acts = events_to_grid(t, 100, HOP)
        m_kick = nearest_frame(0.3, HOP)
        assert acts.onsets[0, m_kick] == 1.0
        assert acts.velocities[0, m_kick] == 1.2
        assert acts.onsets.sum() == 2.0

    def test_out_of_range_event_rejected(self):
        t = Transcription((Event(5.0, "kick", 1.0),))
        with pytest.raises(GridRangeError):
            events_to_grid(t, 10, HOP)

    def test_same_frame_events_all_sound_and_the_grid_keeps_the_later(self):
        t = Transcription((Event(0.2, "kick", 1.0), Event(0.201, "kick", 0.5)))
        onsets, velocities = onset_samples(t, SAMPLE_RATE)
        assert onsets == [(0, 8704), (0, 8704)]
        np.testing.assert_array_equal(velocities, [1.0, 0.5])
        grid = events_to_grid(t, SAMPLE_RATE // HOP, HOP)
        assert onset_index(grid) == [(0, 8704)]
        assert grid.velocities[0, 17] == 0.5

    def test_round_trip_within_half_hop(self):
        # distinct frames, so quantization cannot merge events
        frames = RNG.choice(np.arange(1, 500), size=30, replace=False)
        events = tuple(
            Event(float((m + RNG.uniform(-0.49, 0.49)) * HOP / SAMPLE_RATE),
                  "kick", float(RNG.uniform(0.1, 2)))
            for m in frames
        )
        t = Transcription(events)
        acts = events_to_grid(t, 520, HOP)
        ks, ms = np.nonzero(acts.onsets)
        assert len(ms) == len(t) and not ks.any()
        tol = 0.5 * HOP / SAMPLE_RATE + 1e-9
        for e, m in zip(t.events, ms):
            assert abs(e.time - m * HOP / SAMPLE_RATE) <= tol
            assert acts.velocities[0, m] == e.velocity


@st.composite
def placements(draw):
    """A transcription, a track length and a hop of 8 or 512. The times are
    off the grid, on exact half-frame ties or on frames, some repeat on one
    frame of one class, and some lie past the end."""
    hop = draw(st.sampled_from([8, 512]))
    n_samples = draw(st.integers(1, 12 * hop))
    n_frames = max(1, n_samples // hop)
    events = []
    for _ in range(draw(st.integers(0, 8))):
        name = draw(st.sampled_from(CLASS_NAMES[:3]))
        m = draw(st.integers(0, n_frames + 1))
        offset = draw(st.one_of(st.just(0.0), st.just(0.5),
                                st.floats(-0.49, 0.49)))
        time = max(0.0, (m + offset) * hop / SAMPLE_RATE)
        events.append(Event(time, name, draw(st.floats(0, 2))))
        if draw(st.booleans()):
            events.append(Event(time, name, draw(st.floats(0, 2))))
    return Transcription(tuple(events)), n_samples, hop


@settings(max_examples=300, deadline=None)
@given(placements())
def test_events_to_grid_is_the_grid_of_onset_samples(case):
    t, n_samples, hop = case
    n_frames = max(1, n_samples // hop)
    try:
        onsets, velocities = onset_samples(t, n_samples, hop)
    except GridRangeError:
        with pytest.raises(GridRangeError):
            events_to_grid(t, n_frames, hop)
        return
    grid = events_to_grid(t, n_frames, hop)
    assert [k for k, _ in onsets] == [CLASS_NAMES.index(e.class_name)
                                      for e in t.events]
    np.testing.assert_array_equal(velocities, [e.velocity for e in t.events])
    rebuilt_onsets = np.zeros_like(grid.onsets)
    rebuilt_velocities = np.zeros_like(grid.velocities)
    for e, (k, pos), v in zip(t.events, onsets, velocities):
        assert pos % hop == 0 and pos < n_frames * hop
        assert abs(pos - e.time * SAMPLE_RATE) <= hop / 2 + 1e-6
        rebuilt_onsets[k, pos // hop] = 1.0
        rebuilt_velocities[k, pos // hop] = v
    np.testing.assert_array_equal(grid.onsets, rebuilt_onsets)
    np.testing.assert_array_equal(grid.velocities, rebuilt_velocities)
    if len(set(onsets)) == len(onsets):
        assert onset_index(grid) == onsets
        np.testing.assert_array_equal(grid.velocities[np.nonzero(grid.onsets)],
                                      velocities)


class TestPeakPick:
    def test_flat_curve_has_no_peaks(self):
        assert len(peak_pick(np.zeros(50))) == 0

    def test_single_spike(self):
        curve = np.zeros(30)
        curve[10] = 1.0
        np.testing.assert_array_equal(peak_pick(curve), [10])

    def test_wait_suppresses_close_peaks(self):
        curve = np.zeros(30)
        curve[10] = 1.0
        curve[12] = 0.9
        curve[20] = 0.8
        np.testing.assert_array_equal(peak_pick(curve), [10, 20])

    def test_delta_threshold(self):
        # a bump below the local mean + delta is not picked
        curve = np.full(30, 0.5)
        curve[15] = 0.52
        assert len(peak_pick(curve, delta=0.05)) == 0
        assert 15 in peak_pick(curve, delta=0.001)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            peak_pick(np.array([0.0, np.inf]))

    @given(st.lists(st.floats(0, 1), min_size=5, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_picks_respect_wait_gap(self, values):
        picks = peak_pick(np.array(values))
        assert np.all(np.diff(picks) > 2)


class TestSpectralFlux:
    def test_silence_gives_zero_curve(self):
        curve = spectral_flux_curve(Waveform(np.zeros(SAMPLE_RATE)))
        assert np.all(curve == 0)

    def test_normalized_to_unit_peak(self):
        x = RNG.normal(size=SAMPLE_RATE) * 0.1
        curve = spectral_flux_curve(Waveform(x))
        assert curve.max() == pytest.approx(1.0)
        assert curve.min() >= 0

    def test_click_produces_local_peak(self):
        x = np.zeros(2 * SAMPLE_RATE)
        pos = SAMPLE_RATE
        x[pos : pos + 64] = RNG.uniform(-1, 1, 64)
        curve = spectral_flux_curve(Waveform(x))
        frame = pos // HOP
        assert abs(int(np.argmax(curve)) - frame) <= 2


class TestMatchOnsets:
    def test_identical_lists_are_perfect(self):
        times = np.array([0.1, 0.5, 1.0])
        assert match_onsets(times, times) == (1.0, 1.0, 1.0)

    def test_both_empty(self):
        assert match_onsets([], []) == (1.0, 1.0, 1.0)

    def test_one_empty(self):
        assert match_onsets([], [0.5]) == (0.0, 0.0, 0.0)
        assert match_onsets([0.5], []) == (0.0, 0.0, 0.0)

    def test_each_onset_used_once(self):
        # two estimates near one reference: only one can match
        p, r, f1 = match_onsets([1.0, 1.04], [1.02], tolerance=0.05)
        assert p == pytest.approx(0.5)
        assert r == pytest.approx(1.0)
        assert f1 == pytest.approx(2 / 3)

    def test_outside_tolerance_no_match(self):
        assert match_onsets([0.0], [0.2], tolerance=0.05) == (0.0, 0.0, 0.0)

    def test_matches_brute_force_on_random_instances(self):
        for _ in range(150):
            est = np.sort(RNG.uniform(0, 1, size=RNG.integers(1, 7)))
            ref = np.sort(RNG.uniform(0, 1, size=RNG.integers(1, 7)))
            p, r, _ = match_onsets(est, ref, tolerance=0.08)
            hits = brute_force_hits(est, ref, 0.08)
            assert p == pytest.approx(hits / len(est))
            assert r == pytest.approx(hits / len(ref))

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(st.integers(0, 40), min_size=1, max_size=25),
        st.lists(st.integers(0, 40), min_size=1, max_size=25),
        st.one_of(st.sampled_from([0.0, 0.01, 0.03, 0.05]), st.floats(0, 0.5)),
    )
    def test_matches_scipy_bipartite_matching(self, est_ticks, ref_ticks,
                                              tolerance):
        # times on a 0.01 s lattice give duplicates and pairs exactly at the
        # tolerance; the lists stay in drawing order, unsorted
        est = np.array(est_ticks) * 0.01
        ref = np.array(ref_ticks) * 0.01
        hits = bipartite_hits(est, ref, tolerance)
        precision, recall = hits / len(est), hits / len(ref)
        f1 = 0.0 if hits == 0 else 2 * precision * recall / (precision + recall)
        assert match_onsets(est, ref, tolerance) == (precision, recall, f1)
