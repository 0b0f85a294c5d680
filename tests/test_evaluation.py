"""Metric closed forms, grouping, track evaluation and aggregation."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drumsep import evaluation, parallel
from drumsep.classes import CLASS_NAMES, FIVE_CLASS_GROUPS, FIVE_CLASS_NAMES
from drumsep.evaluation import (
    LSD_BLOCK,
    METRIC_EPSILON,
    PES_FLOOR_DB,
    PES_FRAME,
    MetricsRow,
    aggregate,
    evaluate_track,
    group_stems,
    lsd,
    nsdr,
    pes,
)
from drumsep.signal import DEFAULT_HOP, SAMPLE_RATE, Waveform, stft
from drumsep.transcription import Event, Transcription

from hooked_calls import record_hooked_calls

RNG = np.random.default_rng(77)


def unit_energy_signal(n=44100):
    x = RNG.normal(size=n)
    return Waveform(x / np.linalg.norm(x))


class TestNsdr:
    def test_perfect_estimate_of_unit_energy_signal(self):
        s = unit_energy_signal()
        assert nsdr(s, s) == pytest.approx(10 * np.log10(1.0 / 1e-8 + 1e-8), abs=1e-3)
        assert nsdr(s, s) == pytest.approx(80.0, abs=1e-3)

    def test_zero_estimate_of_unit_energy_signal(self):
        s = unit_energy_signal()
        zero = Waveform(np.zeros(len(s)))
        assert nsdr(s, zero) == pytest.approx(0.0, abs=1e-3)

    def test_silence_against_silence(self):
        zero = Waveform(np.zeros(1000))
        assert nsdr(zero, zero) == pytest.approx(-80.0, abs=1e-3)

    def test_three_db_closed_form(self):
        s = unit_energy_signal()
        est = Waveform(s.samples * 0.5)
        # noise energy is 0.25 of signal energy
        assert nsdr(s, est) == pytest.approx(10 * np.log10(4.0), abs=1e-4)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nsdr(Waveform(np.zeros(10)), Waveform(np.zeros(11)))


class TestLsd:
    def test_zero_at_identity(self):
        s = Waveform(RNG.normal(size=8000))
        assert lsd(s, s) == 0.0

    def test_constant_power_ratio(self):
        # scaling by 10 multiplies power by 100 in every bin with energy
        # well above the 1e-8 floor, so LSD approaches ln(100)
        s = Waveform(RNG.normal(size=4 * SAMPLE_RATE) * 0.1)
        assert lsd(s, Waveform(10 * s.samples)) == pytest.approx(np.log(100), rel=0.01)

    def test_symmetric(self):
        a = Waveform(RNG.normal(size=8000))
        b = Waveform(RNG.normal(size=8000))
        assert lsd(a, b) == pytest.approx(lsd(b, a), rel=1e-12)

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            lsd(Waveform(np.zeros(0)), Waveform(np.zeros(0)))

    @settings(max_examples=40, deadline=None)
    @given(
        frames=st.sampled_from([1, 2, LSD_BLOCK - 1, LSD_BLOCK, LSD_BLOCK + 1,
                                2 * LSD_BLOCK, 2 * LSD_BLOCK + 1, 3 * LSD_BLOCK + 7]),
        offset=st.integers(0, DEFAULT_HOP - 1),
        seed=st.integers(0, 2**32 - 1),
        silent=st.sampled_from(["", "reference", "estimate", "both"]),
    )
    def test_equals_the_closed_form_bit_for_bit(self, frames, offset, seed, silent):
        """Lengths from 1 sample over one block, exact multiples of it and
        odd remainders: the blocked, threaded LSD is the closed form. With
        silent stretches in the reference, the estimate or both (where the
        two are silent in the same frames), some of them as long as a
        block, the frames it does not transform give the same bits."""
        n = max(1, (frames - 1) * DEFAULT_HOP + offset)
        rng = np.random.default_rng(seed)
        ref = rng.normal(size=n) * rng.uniform(0, 1, n)
        est = 0.7 * ref + 0.3 * rng.normal(size=n)
        quiet = [(a, a + int(rng.integers(1, 2 * LSD_BLOCK * DEFAULT_HOP)))
                 for a in rng.integers(0, n, int(rng.integers(1, 4)))]
        for signal in {"reference": [ref], "estimate": [est],
                       "both": [ref, est]}.get(silent, []):
            for a, b in quiet:
                signal[a:b] = 0.0
        s, s_hat = Waveform(ref), Waveform(est)
        assert lsd(s, s_hat) == closed_form_lsd(s, s_hat)
        assert lsd(s, Waveform(np.zeros(n))) == closed_form_lsd(s, Waveform(np.zeros(n)))

    def test_same_bits_for_any_lane_count(self, monkeypatch):
        """One to three lanes, with thread switches forced every
        microsecond: a lane writing outside its slice of frames, or into
        another's buffers, changes bits."""
        rng = np.random.default_rng(31)
        pairs = [
            (Waveform(rng.normal(size=n)), Waveform(rng.normal(size=n)))
            for n in (1, 30000, 3 * LSD_BLOCK * DEFAULT_HOP, 100000)
        ]
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for lanes in (1, 2, 3):
                monkeypatch.setattr(parallel, "usable_cpus", lambda: lanes)
                monkeypatch.setattr(parallel, "MAX_THREADS", max(2, lanes))
                results[lanes] = [lsd(s, s_hat) for s, s_hat in pairs]
        finally:
            sys.setswitchinterval(interval)
        assert results[2] == results[1] == results[3]
        assert results[1] == [closed_form_lsd(s, s_hat) for s, s_hat in pairs]

    def test_traced_functions_run_on_the_calling_thread_only(self, monkeypatch):
        """No function that bench/tracing.py hooks in evaluation or signal
        runs on a scoring lane, and evaluate_track scores on lanes without
        calling the hooked nsdr, lsd or pes."""
        calls = record_hooked_calls(monkeypatch, ("evaluation", "signal"),
                                    [("evaluation", "_score_lane")])
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        refs = TestEvaluateTrack()._stems(SAMPLE_RATE)
        ests = {k: Waveform(0.5 * v.samples) for k, v in refs.items()}
        evaluation.evaluate_track("t0", refs, ests,
                                  TestEvaluateTrack()._transcription())
        assert calls[0] == ("evaluation.evaluate_track", True)
        # the scores did run on a lane, and nothing traced did
        assert ("evaluation._score_lane", False) in calls
        assert {name for name, _ in calls} == {"evaluation.evaluate_track",
                                               "evaluation._score_lane"}
        off_main = {name for name, main in calls if not main}
        assert off_main == {"evaluation._score_lane"}

    def test_allocation_budget(self):
        """One lsd call on a 6 s pair peaks under 9 MB of traced
        allocations: each lane's block buffers, and no padded signal.
        Measured 7.7 MB; 10.8 MB with the two padded signals, and 21.2 MB
        when both full spectrograms were built."""
        s = Waveform(RNG.normal(size=6 * SAMPLE_RATE))
        s_hat = Waveform(RNG.normal(size=6 * SAMPLE_RATE))
        tracemalloc.start()
        try:
            lsd(s, s_hat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 9e6


def closed_form_lsd(s: Waveform, s_hat: Waveform) -> float:
    """LSD from the two full spectrograms, in one expression per step."""
    p_ref = np.abs(stft(s).bins) ** 2
    p_est = np.abs(stft(s_hat).bins) ** 2
    ratio = np.log((p_est + METRIC_EPSILON) / (p_ref + METRIC_EPSILON))
    return float(np.sqrt(np.mean(ratio**2, axis=0)).mean())


def closed_form_nsdr(s: Waveform, s_hat: Waveform) -> float:
    """nSDR from whole-row sums, in one expression per step."""
    signal = float(np.sum(s.samples**2))
    noise = float(np.sum((s.samples - s_hat.samples) ** 2))
    return float(10.0 * np.log10(signal / (noise + METRIC_EPSILON) + METRIC_EPSILON))


def closed_form_pes(s: Waveform, s_hat: Waveform) -> float | None:
    """PES from the 512-sample frames of both signals, in one expression
    per step."""
    n = len(s) // PES_FRAME
    if n == 0:
        return None
    ref = s.samples[: n * PES_FRAME].reshape(n, PES_FRAME)
    est = s_hat.samples[: n * PES_FRAME].reshape(n, PES_FRAME)
    silent = 10.0 * np.log10(np.sum(ref**2, axis=1) + METRIC_EPSILON) <= PES_FLOOR_DB
    if not silent.any():
        return None
    est_db = 10.0 * np.log10(np.sum(est[silent] ** 2, axis=1) + METRIC_EPSILON)
    return float(np.maximum(est_db, PES_FLOOR_DB).mean())


class TestPes:
    def test_silence_vs_silence_is_floor(self):
        zero = Waveform(np.zeros(5120))
        assert pes(zero, zero) == -60.0

    def test_energy_in_silent_frames_closed_form(self):
        n = 10 * 512
        ref = Waveform(np.zeros(n))
        est = np.zeros(n)
        est[:] = 0.1  # every frame has energy 512 * 0.01
        expected = 10 * np.log10(512 * 0.01 + 1e-8)
        assert pes(ref, Waveform(est)) == pytest.approx(expected, abs=1e-9)

    def test_loud_reference_has_no_silent_frames(self):
        x = Waveform(RNG.uniform(0.5, 1.0, 5120))
        assert pes(x, x) is None

    def test_only_silent_frames_counted(self):
        n = 4 * 512
        ref = np.zeros(n)
        ref[:512] = 0.5  # first frame is loud
        est = np.zeros(n)
        est[512:1024] = 0.1  # energy only inside a silent frame
        expected = (10 * np.log10(512 * 0.01 + 1e-8) + 2 * (-60.0)) / 3
        assert pes(Waveform(ref), Waveform(est)) == pytest.approx(expected, abs=1e-9)

    def test_short_signal_returns_none(self):
        x = Waveform(np.zeros(100))
        assert pes(x, x) is None

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 20 * PES_FRAME), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_closed_form_bit_for_bit(self, n, seed):
        """With silent and loud frames in the reference, and the estimate
        passed as the same array too, as are nSDR's."""
        rng = np.random.default_rng(seed)
        ref = rng.normal(size=n) * (rng.uniform(size=n) < 0.5)
        ref[rng.integers(0, n) : rng.integers(0, n + 1)] = 0.0
        ref[rng.integers(0, n) :: 3] *= 1e-5
        s, s_hat = Waveform(ref), Waveform(0.5 * ref + 1e-4 * rng.normal(size=n))
        for a, b in ((s, s_hat), (s, s), (s_hat, s)):
            assert pes(a, b) == closed_form_pes(a, b)
            assert nsdr(a, b) == closed_form_nsdr(a, b)


class TestGrouping:
    def test_nine_is_identity(self):
        stems = {n: Waveform(RNG.normal(size=100)) for n in CLASS_NAMES}
        grouped = group_stems(stems, 9)
        for n in CLASS_NAMES:
            np.testing.assert_array_equal(grouped[n].samples, stems[n].samples)

    def test_five_sums_members(self):
        stems = {n: Waveform(RNG.normal(size=100)) for n in CLASS_NAMES}
        grouped = group_stems(stems, 5)
        assert set(grouped) == set(FIVE_CLASS_NAMES)
        hh = stems["hihat_closed"].samples + stems["hihat_open"].samples
        np.testing.assert_allclose(grouped["HH"].samples, hh, atol=1e-15)
        tt = sum(stems[n].samples for n in ("hi_tom", "mid_tom", "low_tom"))
        np.testing.assert_allclose(grouped["TT"].samples, tt, atol=1e-15)
        cy = stems["crash_left"].samples + stems["ride"].samples
        np.testing.assert_allclose(grouped["CY"].samples, cy, atol=1e-15)
        np.testing.assert_array_equal(grouped["KD"].samples, stems["kick"].samples)
        np.testing.assert_array_equal(grouped["SD"].samples, stems["snare"].samples)

    def test_mapping_covers_all_nine(self):
        assert set(FIVE_CLASS_GROUPS) == set(CLASS_NAMES)
        assert set(FIVE_CLASS_GROUPS.values()) == set(FIVE_CLASS_NAMES)

    def test_bad_grouping_rejected(self):
        with pytest.raises(ValueError):
            group_stems({}, 7)


class TestEvaluateTrack:
    def _stems(self, n=3 * SAMPLE_RATE):
        return {name: Waveform(RNG.normal(size=n) * 0.1) for name in CLASS_NAMES}

    def _transcription(self):
        return Transcription((
            Event(0.5, "kick", 1.0),
            Event(1.0, "kick", 1.0),
            Event(0.7, "snare", 1.0),
        ))

    def test_perfect_estimates(self):
        refs = self._stems()
        rows = evaluate_track("t0", refs, dict(refs), self._transcription())
        assert len(rows) == len(CLASS_NAMES)
        by_name = {r.class_name: r for r in rows}
        assert by_name["kick"].active and by_name["snare"].active
        assert not by_name["ride"].active
        assert by_name["kick"].lsd == 0.0
        assert by_name["kick"].nsdr > 70
        assert by_name["ride"].nsdr is None and by_name["ride"].lsd is None

    def test_synthesis_kind_suppresses_nsdr(self):
        refs = self._stems()
        rows = evaluate_track("t0", refs, dict(refs), self._transcription(),
                              estimate_kind="synthesis")
        assert all(r.nsdr is None for r in rows)
        assert any(r.lsd is not None for r in rows)

    def test_onset_scores_only_with_estimated_transcription(self):
        refs = self._stems()
        t = self._transcription()
        rows = evaluate_track("t0", refs, dict(refs), t)
        assert all(r.precision is None for r in rows)
        rows = evaluate_track("t0", refs, dict(refs), t, est_transcription=t)
        by_name = {r.class_name: r for r in rows}
        assert by_name["kick"].precision == 1.0 and by_name["kick"].recall == 1.0
        assert by_name["ride"].precision is None

    def test_five_class_grouping_matches_external_sums(self):
        refs = self._stems()
        ests = {n: Waveform(refs[n].samples + RNG.normal(size=len(refs[n])) * 0.01)
                for n in CLASS_NAMES}
        t = self._transcription()
        rows5 = evaluate_track("t0", refs, ests, t, grouping=5)
        refs_g = group_stems(refs, 5)
        ests_g = group_stems(ests, 5)
        by_name = {r.class_name: r for r in rows5}
        for g in FIVE_CLASS_NAMES:
            row = by_name[g]
            if row.active:
                assert row.nsdr == pytest.approx(nsdr(refs_g[g], ests_g[g]), abs=1e-9)
                assert row.lsd == pytest.approx(lsd(refs_g[g], ests_g[g]), abs=1e-9)

    @pytest.mark.parametrize("grouping", [9, 5])
    @pytest.mark.parametrize("kind", ["masked", "synthesis"])
    @pytest.mark.parametrize("n", [1, 5000, LSD_BLOCK * DEFAULT_HOP // 2, SAMPLE_RATE])
    def test_rows_are_the_closed_forms(self, grouping, kind, n):
        """Each row's scores are the closed forms of its group's stems bit
        for bit, for a 1-sample track, tracks shorter than one LSD block and
        a 1 s track; the active snare is silent in reference and estimate,
        and half of the other stems is silent in the reference."""
        rng = np.random.default_rng(n)
        refs, ests = {}, {}
        for k, name in enumerate(CLASS_NAMES):
            ref = 0.1 * rng.normal(size=n) * (name != "snare")
            ref[: n // 2 * (k % 2)] = 0.0
            refs[name] = Waveform(ref)
            noise = 0.05 * rng.normal(size=n) * (name != "snare")
            ests[name] = Waveform(0.7 * ref + noise)
        rows = evaluate_track("t0", refs, ests, self._transcription(),
                              grouping=grouping, estimate_kind=kind)
        refs_g, ests_g = group_stems(refs, grouping), group_stems(ests, grouping)
        assert [r.class_name for r in rows] == list(refs_g)
        for row in rows:
            s, s_hat = refs_g[row.class_name], ests_g[row.class_name]
            masked = kind == "masked" and row.active
            assert row.nsdr == (closed_form_nsdr(s, s_hat) if masked else None)
            assert row.lsd == (closed_form_lsd(s, s_hat) if row.active else None)
            assert row.pes == closed_form_pes(s, s_hat)

    def test_allocation_budget(self, monkeypatch):
        """One evaluate_track on a 6 s track peaks under 4.25 track rows of
        traced allocations: for each of two lanes, one row whose memory its
        LSD block buffers (about 1.7 rows) share, and no padded copy of any
        stem. Measured 3.7 rows; 5.2 rows with the padded stems of each LSD
        and each lane's buffers apart from nSDR's and PES's arrays."""
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        n = 6 * SAMPLE_RATE
        refs = {name: Waveform(RNG.normal(size=n)) for name in CLASS_NAMES}
        ests = {name: Waveform(0.5 * v.samples) for name, v in refs.items()}
        t = Transcription(tuple(Event(0.1, name, 1.0) for name in CLASS_NAMES))
        tracemalloc.start()
        try:
            evaluate_track("t0", refs, ests, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.25 * 8 * n

    def test_mismatched_class_sets_rejected(self):
        refs = self._stems()
        ests = dict(refs)
        del ests["ride"]
        with pytest.raises(ValueError):
            evaluate_track("t0", refs, ests, self._transcription())

    def test_unknown_estimate_kind_rejected(self):
        refs = self._stems()
        with pytest.raises(ValueError):
            evaluate_track("t0", refs, dict(refs), self._transcription(),
                           estimate_kind="oracle")


class TestAggregate:
    def _row(self, track, name, **kwargs):
        defaults = dict(active=True, nsdr=None, lsd=None, pes=None,
                        precision=None, recall=None)
        defaults.update(kwargs)
        return MetricsRow(track_id=track, class_name=name, **defaults)

    def test_quartiles_of_known_values(self):
        rows = [self._row(f"t{i}", "kick", nsdr=v)
                for i, v in enumerate([1.0, 2.0, 3.0, 4.0])]
        stats = aggregate(rows)["per_class"]["kick"]["nsdr"]
        assert stats["mean"] == 2.5
        assert stats["median"] == 2.5
        assert stats["q25"] == 1.75  # linear interpolation
        assert stats["q75"] == 3.25
        assert stats["min"] == 1.0 and stats["max"] == 4.0
        assert stats["count"] == 4

    def test_none_values_shrink_counts(self):
        rows = [
            self._row("t0", "kick", nsdr=5.0),
            self._row("t1", "kick", nsdr=None, lsd=0.2),
        ]
        agg = aggregate(rows)
        assert agg["per_class"]["kick"]["nsdr"]["count"] == 1
        assert agg["per_class"]["kick"]["lsd"]["count"] == 1

    def test_overall_pools_across_classes(self):
        rows = [
            self._row("t0", "kick", nsdr=2.0),
            self._row("t0", "snare", nsdr=4.0),
        ]
        overall = aggregate(rows)["overall"]["nsdr"]
        assert overall["mean"] == 3.0 and overall["count"] == 2

    def test_metric_without_values_is_omitted(self):
        rows = [self._row("t0", "kick", lsd=0.1)]
        assert "nsdr" not in aggregate(rows)["per_class"]["kick"]

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])
