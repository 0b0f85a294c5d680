"""Forward-model tests: the onset-by-onset sequencer and render against a
naive time-domain convolution oracle, the mixture trigger against the sum of
the stems, the adjoints against the exact transpose identity, envelope
closed forms, and render invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drumsep.classes import NUM_CLASSES
from drumsep.drum_machine import (
    ONE_SHOT_LENGTH,
    FrameActivations,
    OneShotBank,
    apply_envelope,
    apply_envelope_adjoint,
    envelope,
    onset_index,
    render,
    sequence,
    trigger,
    trigger_mixture,
    trigger_mixture_adjoint,
    trigger_mixture_amplitude_adjoint,
)
from drumsep.signal import Waveform

RNG = np.random.default_rng(7)


def naive_sequence(one_shot: np.ndarray, activation: np.ndarray) -> np.ndarray:
    """Direct O(T*R) triggering: add a scaled copy at each non-zero sample."""
    out = np.zeros(len(activation))
    for t in np.nonzero(activation)[0]:
        seg = one_shot[: len(out) - t]
        out[t : t + len(seg)] += activation[t] * seg
    return out


def make_acts(onsets, velocities, hop=4):
    return FrameActivations(np.asarray(onsets, float), np.asarray(velocities, float), hop)


def upsampled(acts: FrameActivations, n_samples: int) -> np.ndarray:
    """Render through a bank of unit impulses: the zero-insertion upsampling
    of onset * velocity to audio rate, K x T."""
    ks, ms = np.nonzero(acts.onsets)  # the order of onset_index
    impulses = np.zeros((NUM_CLASSES, ONE_SHOT_LENGTH))
    impulses[:, 0] = 1.0
    stems, _ = render(impulses, onset_index(acts),
                      (acts.onsets * acts.velocities)[ks, ms], n_samples)
    return stems[: len(acts.onsets)]


class TestActivations:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_acts(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_onset_range_enforced(self):
        with pytest.raises(ValueError):
            make_acts([[1.5]], [[1.0]])

    def test_velocity_range_enforced(self):
        with pytest.raises(ValueError):
            make_acts([[1.0]], [[2.5]])

    def test_upsample_places_products_on_hop_grid(self):
        acts = make_acts([[1.0, 0.0, 1.0]], [[0.5, 0.0, 2.0]], hop=4)
        a = upsampled(acts, 12)
        expected = np.zeros((1, 12))
        expected[0, 0] = 0.5
        expected[0, 8] = 2.0
        np.testing.assert_array_equal(a, expected)

    def test_upsample_drops_frames_past_end(self):
        acts = make_acts([[1.0, 1.0]], [[1.0, 1.0]], hop=10)
        a = upsampled(acts, 8)
        assert a.shape == (1, 8)
        assert a[0, 0] == 1.0 and np.count_nonzero(a) == 1

    def test_upsample_zero_between_frames(self):
        acts = make_acts(RNG.integers(0, 2, (3, 5)).astype(float),
                         RNG.uniform(0, 2, (3, 5)), hop=7)
        a = upsampled(acts, 40)
        off_grid = np.ones(40, bool)
        off_grid[::7] = False
        assert np.all(a[:, off_grid] == 0)


class TestEnvelope:
    def test_zero_alpha_is_flat(self):
        np.testing.assert_array_equal(envelope(0.0, 100), np.ones(100))

    def test_starts_at_one_and_decays(self):
        env = envelope(0.1, 1000)
        assert env[0] == 1.0
        assert np.all(np.diff(env) < 0)

    def test_closed_form_value(self):
        r = ONE_SHOT_LENGTH
        env = envelope(0.1, r)
        np.testing.assert_allclose(env[r // 2], np.exp(-1.0))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            envelope(-0.01)


class TestSequence:
    def test_single_onset_is_shifted_copy(self):
        shot = RNG.normal(size=50)
        act = np.zeros(200)
        act[30] = 1.3
        out = sequence(shot, act)
        np.testing.assert_allclose(out[30:80], 1.3 * shot, atol=1e-10)
        assert np.max(np.abs(out[:30])) < 1e-10

    def test_matches_naive_convolution(self):
        for _ in range(100):
            r = int(RNG.integers(5, 80))
            t = int(RNG.integers(r, 400))
            shot = RNG.normal(size=r)
            act = np.zeros(t)
            hits = RNG.integers(0, t, size=RNG.integers(1, 6))
            act[hits] = RNG.uniform(0.1, 2.0, size=len(hits))
            np.testing.assert_allclose(
                sequence(shot, act), naive_sequence(shot, act), atol=1e-6
            )

    def test_tail_truncated_at_track_end(self):
        shot = np.ones(100)
        act = np.zeros(120)
        act[110] = 1.0
        out = sequence(shot, act)
        assert len(out) == 120
        np.testing.assert_allclose(out[110:], np.ones(10))

    def test_linearity_in_activation(self):
        shot = RNG.normal(size=64)
        a = RNG.normal(size=300) * (RNG.uniform(size=300) < 0.05)
        b = RNG.normal(size=300) * (RNG.uniform(size=300) < 0.05)
        np.testing.assert_allclose(
            sequence(shot, a + b), sequence(shot, a) + sequence(shot, b), atol=1e-9
        )

    def test_trigger_full_length_is_linear_convolution(self):
        a = RNG.normal(size=17)
        w = RNG.normal(size=9)
        onsets = [(0, pos) for pos in range(17)]
        np.testing.assert_allclose(
            trigger(w[None, :], onsets, a, 25)[0], np.convolve(a, w), atol=1e-12
        )


def random_onsets(rng, k, r, t, n_onsets):
    """Onsets in random class order, half of them drawn near the track end
    (up to r samples past it), so tails are cut and some onsets fall
    outside the track."""
    near_end = rng.integers(max(0, t - r), t + r, size=n_onsets)
    anywhere = rng.integers(0, t + r, size=n_onsets)
    positions = np.where(rng.uniform(size=n_onsets) < 0.5, near_end, anywhere)
    classes = rng.integers(k, size=n_onsets)
    return [(int(c), int(pos)) for c, pos in zip(classes, positions)]


@given(
    k=st.integers(1, 9),
    r=st.integers(1, 60),
    t=st.integers(1, 120),
    n_onsets=st.integers(0, 20),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_trigger_mixture_is_stem_sum(k, r, t, n_onsets, seed):
    """The mixture trigger equals the sum of trigger's stems to rounding,
    whatever the class order of the onsets and whichever classes are
    silent: per sample, within 1e-12 of the sum of the terms' magnitudes.
    Into a dirty ``out`` buffer, it is the same bits."""
    rng = np.random.default_rng(seed)
    onsets = random_onsets(rng, k, r, t, n_onsets)
    shaped = rng.normal(size=(k, r))
    amps = rng.normal(size=n_onsets)
    mixture = trigger_mixture(shaped, onsets, amps, t)
    buffer = np.full(t, np.nan)
    assert trigger_mixture(shaped, onsets, amps, t, out=buffer) is buffer
    assert buffer.tobytes() == mixture.tobytes()
    scale = trigger(np.abs(shaped), onsets, np.abs(amps), t).sum(axis=0)
    difference = np.abs(mixture - trigger(shaped, onsets, amps, t).sum(axis=0))
    assert np.all(difference <= 1e-12 * scale)


def whole_track_trigger(shaped, onsets, amplitudes, n_samples):
    """``trigger`` as it was before it took a sample range: every onset
    added into a new K x T array, one temporary ``amp * seg`` each."""
    stems = np.zeros((shaped.shape[0], n_samples))
    for (k, pos), amp in zip(onsets, amplitudes):
        seg = shaped[k, : max(0, n_samples - pos)]
        stems[k, pos : pos + len(seg)] += amp * seg
    return stems


@given(
    k=st.integers(1, 9),
    r=st.integers(1, 60),
    t=st.integers(1, 120),
    n_onsets=st.integers(0, 20),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_trigger_range_is_those_columns_bit_for_bit(k, r, t, n_onsets, seed):
    """Any range [start, stop) of ``trigger``, into a dirty buffer through
    a dirty scratch buffer, is bit for bit those columns of the whole-track
    call, which is bit for bit the loop it replaced: with cut tails, onsets
    past the end and same-sample duplicates."""
    rng = np.random.default_rng(seed)
    onsets = random_onsets(rng, k, r, t, n_onsets)
    onsets += onsets[: n_onsets // 2]  # the same onsets again, after the rest
    shaped = rng.normal(size=(k, r))
    amps = rng.normal(size=len(onsets))
    whole = trigger(shaped, onsets, amps, t)
    assert whole.tobytes() == whole_track_trigger(shaped, onsets, amps, t).tobytes()
    start = int(rng.integers(0, t + 1))
    stop = int(rng.integers(start, t + 1))
    out = np.full((k, stop - start), np.nan)
    got = trigger(shaped, onsets, amps, t, start, stop, out=out,
                  scaled=np.full(r, np.nan))
    assert got is out
    assert got.tobytes() == whole[:, start:stop].tobytes()


@given(
    k=st.integers(1, 3),
    r=st.integers(1, 40),
    t=st.integers(1, 80),
    n_onsets=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_adjoints_are_exact_transposes(k, r, t, n_onsets, seed):
    """trigger_mixture is bilinear, so each of its two adjoints is the
    transpose in one argument: <F(shaped, amps), g> = <shaped, g_shaped>
    = <amps, g_amps>."""
    rng = np.random.default_rng(seed)
    onsets = random_onsets(rng, k, r, t, n_onsets)
    shaped = rng.normal(size=(k, r))
    amps = rng.normal(size=n_onsets)
    g = rng.normal(size=t)

    g_shaped = trigger_mixture_adjoint(g, shaped, onsets, amps)
    g_amps = trigger_mixture_amplitude_adjoint(g, shaped, onsets)
    # written into a dirty buffer, the adjoint has the same bits
    buffer = np.full_like(shaped, np.nan)
    assert trigger_mixture_adjoint(g, shaped, onsets, amps, out=buffer) is buffer
    assert buffer.tobytes() == g_shaped.tobytes()
    lhs = float(np.sum(trigger_mixture(shaped, onsets, amps, t) * g))
    scale = float(np.sum(
        trigger_mixture(np.abs(shaped), onsets, np.abs(amps), t) * np.abs(g)))
    tol = 1e-12 * max(scale, 1e-300)
    assert abs(lhs - float(np.sum(shaped * g_shaped))) <= tol
    assert abs(lhs - float(amps @ g_amps)) <= tol

    # The envelope is linear in the one-shots for fixed decays.
    one_shots = rng.normal(size=(k, r))
    alphas = rng.uniform(0, 0.5, k)
    g_w, _ = apply_envelope_adjoint(g_shaped, one_shots, alphas)
    lhs = float(np.sum(apply_envelope(one_shots, alphas) * g_shaped))
    scale = float(np.sum(np.abs(one_shots) * np.abs(g_shaped)))
    assert abs(lhs - float(np.sum(one_shots * g_w))) <= 1e-12 * max(scale, 1e-300)


class TestBank:
    def test_wrong_class_count_rejected(self):
        with pytest.raises(ValueError):
            OneShotBank("kit", np.zeros((4, ONE_SHOT_LENGTH)))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            OneShotBank("kit", np.zeros((NUM_CLASSES, 100)))

    def test_amplitude_range_enforced(self):
        shots = np.zeros((NUM_CLASSES, ONE_SHOT_LENGTH))
        shots[0, 0] = 1.5
        with pytest.raises(ValueError):
            OneShotBank("kit", shots)

    def test_from_waveforms_pads_and_truncates(self):
        waves = [Waveform(np.ones(10) * 0.5)] + [
            Waveform(np.zeros(ONE_SHOT_LENGTH + 500)) for _ in range(NUM_CLASSES - 1)
        ]
        bank = OneShotBank.from_waveforms("kit", waves)
        assert bank.one_shots.shape == (NUM_CLASSES, ONE_SHOT_LENGTH)
        np.testing.assert_array_equal(bank.one_shots[0, :10], 0.5)
        assert np.all(bank.one_shots[0, 10:] == 0)


class TestRender:
    # (class, sample) onsets on hops 2 and 7 of a 512-sample grid
    ONSETS = [(0, 2 * 512), (1, 7 * 512)]
    VELOCITIES = np.array([1.0, 0.5])

    def _shots(self):
        rng = np.random.default_rng(123)
        shots = np.zeros((NUM_CLASSES, ONE_SHOT_LENGTH))
        shots[0, :100] = rng.uniform(-1, 1, 100)
        shots[1, :100] = rng.uniform(-1, 1, 100)
        return shots

    def test_mixture_is_exact_stem_sum(self):
        stems, mix = render(self._shots(), self.ONSETS, self.VELOCITIES, 12000)
        np.testing.assert_array_equal(mix, stems.sum(axis=0))

    def test_a_range_is_those_columns_of_the_track(self):
        """The stems and mixture of any range, one sample wide included,
        are bit for bit those columns of the whole track's. Over one column
        ``sum(axis=0)`` adds the nine rows pairwise, not in class order."""
        rng = np.random.default_rng(11)
        shots = rng.uniform(-1, 1, (NUM_CLASSES, ONE_SHOT_LENGTH))
        n = 600
        onsets = [(k, int(pos)) for k in range(NUM_CLASSES)
                  for pos in np.sort(rng.integers(0, n, 3))]
        amplitudes = rng.uniform(0, 2, len(onsets))
        stems, mix = render(shots, onsets, amplitudes, n)
        ranges = [(i, i + 1) for i in range(n)] + [(0, 7), (250, 599), (0, n)]
        for start, stop in ranges:
            part, part_mix = render(shots, onsets, amplitudes, n, start, stop,
                                    out=np.full((NUM_CLASSES, stop - start), np.nan))
            assert np.array_equal(part, stems[:, start:stop])
            assert np.array_equal(part_mix, mix[start:stop])
        assert not all(stems[:, i].sum() == mix[i] for i in range(n))

    def test_zero_velocities_silence_everything(self):
        stems, mix = render(self._shots(), self.ONSETS, np.zeros(2), 12000)
        assert np.all(stems == 0) and np.all(mix == 0)

    def test_velocity_scales_stem_linearly(self):
        stems1, _ = render(self._shots(), self.ONSETS, self.VELOCITIES, 12000)
        stems2, _ = render(self._shots(), self.ONSETS, np.array([2.0, 0.5]), 12000)
        np.testing.assert_allclose(stems2[0], 2.0 * stems1[0], atol=1e-12)
        np.testing.assert_array_equal(stems2[1], stems1[1])

    def test_single_onset_reproduces_enveloped_shot(self):
        shots = self._shots()
        alphas = np.zeros(NUM_CLASSES)
        alphas[0] = 0.2
        stems, _ = render(apply_envelope(shots, alphas), self.ONSETS, self.VELOCITIES,
                          12000)
        start = 2 * 512
        expected = shots[0, :100] * envelope(0.2)[:100]
        np.testing.assert_allclose(stems[0, start : start + 100], expected, atol=1e-9)

    def test_matches_naive_oracle_near_track_end(self):
        rng = np.random.default_rng(5)
        shots = rng.uniform(-1, 1, (NUM_CLASSES, ONE_SHOT_LENGTH))
        hop, n = 512, 3 * ONE_SHOT_LENGTH // 2 + 77
        n_frames = n // hop + 3  # the last frames lie past the track end
        for _ in range(5):
            # drawn with replacement, so one class may sound twice on a frame
            ks = np.sort(rng.integers(0, NUM_CLASSES, 60))
            ms = np.concatenate([rng.integers(0, n_frames, 50),
                                 rng.integers(n_frames - 6, n_frames, 10)])
            onsets = [(int(k), int(m) * hop) for k, m in zip(ks, ms)]
            velocities = rng.uniform(0, 2, len(onsets))
            alphas = rng.uniform(0, 0.5, NUM_CLASSES)
            stems, mix = render(apply_envelope(shots, alphas), onsets, velocities, n)
            for k in range(NUM_CLASSES):
                a = np.zeros(n)
                for (c, pos), v in zip(onsets, velocities):
                    if c == k and pos < n:
                        a[pos] += v
                expected = naive_sequence(shots[k] * envelope(alphas[k]), a)
                np.testing.assert_allclose(stems[k], expected, atol=1e-12)
            np.testing.assert_array_equal(mix, stems.sum(axis=0))
