"""NMFD: reconstruction oracle, KL monotonicity, informed initialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drumsep.classes import CLASS_INDEX, NUM_CLASSES
from drumsep.drum_machine import ONE_SHOT_LENGTH, OneShotBank
from drumsep.nmfd import (
    EPSILON,
    NmfdCase,
    NmfdModel,
    init_informed,
    kl_divergence,
    nmfd_run,
    nmfd_step,
    reconstruct,
    reconstruct_per_class,
)
from drumsep.signal import StftConfig, Waveform, magnitude, stft
from drumsep.transcription import Event, Transcription

RNG = np.random.default_rng(31)


def naive_reconstruct(w, h):
    """Triple-loop Lambda[f, m] = sum_k sum_tau W[k,f,tau] H[k, m-tau]."""
    k, f, length = w.shape
    m = h.shape[1]
    lam = np.zeros((f, m))
    for kk in range(k):
        for tau in range(length):
            for mm in range(tau, m):
                lam[:, mm] += w[kk, :, tau] * h[kk, mm - tau]
    return lam


def _delayed(h, tau):
    """H delayed by tau frames, zero-filled at the start."""
    out = np.zeros_like(h)
    if tau < h.shape[1]:
        out[:, tau:] = h[:, : h.shape[1] - tau]
    return out


def loop_reconstruct_per_class(w, h):
    """Per-lag oracle: Lambda_k = sum_tau W[k, :, tau] (x) H[k] delayed by tau."""
    k, f, length = w.shape
    m = h.shape[1]
    lam = np.zeros((k, f, m))
    for tau in range(length):
        lam += w[:, :, tau][:, :, None] * _delayed(h, tau)[:, None, :]
    return lam


def loop_step(w, h, v, fixed, eps=EPSILON):
    """Per-lag oracle for one multiplicative KL update of H, then of W."""
    k, _, length = w.shape
    m = v.shape[1]
    q = v / (loop_reconstruct_per_class(w, h).sum(axis=0) + eps)
    num = np.zeros((k, m))
    den = np.zeros((k, m))
    w_sums = w.sum(axis=1)
    for tau in range(min(length, m)):
        num[:, : m - tau] += np.einsum("kf,fm->km", w[:, :, tau], q[:, tau:])
        den[:, : m - tau] += w_sums[:, tau : tau + 1]
    h = np.maximum(h * num / np.maximum(den, eps), eps)
    if fixed:
        return w, h
    q = v / (loop_reconstruct_per_class(w, h).sum(axis=0) + eps)
    w_new = np.empty_like(w)
    for tau in range(length):
        h_tau = _delayed(h, tau)
        num_w = np.einsum("fm,km->kf", q, h_tau)
        den_w = h_tau.sum(axis=1)[:, None]
        w_new[:, :, tau] = w[:, :, tau] * num_w / np.maximum(den_w, eps)
    return np.maximum(w_new, eps), h


def random_model(k=3, f=12, length=4, m=20, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.01, 1, (k, f, length))
    h = rng.uniform(0.01, 1, (k, m))
    return NmfdModel(w, h, fixed_templates=False)


class TestReconstruct:
    def test_matches_naive_triple_loop(self):
        model = random_model(seed=4)
        lam = reconstruct(model, 20)
        np.testing.assert_allclose(
            lam, naive_reconstruct(model.templates, model.activations), atol=1e-12
        )

    def test_per_class_sums_to_full(self):
        model = random_model(seed=5)
        per = reconstruct_per_class(model, 20)
        np.testing.assert_allclose(per.sum(axis=0), reconstruct(model, 20), atol=1e-12)

    def test_single_impulse_activation_copies_template(self):
        w = RNG.uniform(0.1, 1, (1, 6, 3))
        h = np.zeros((1, 10))
        h[0, 4] = 1.0
        lam = reconstruct(NmfdModel(w, h, True), 10)
        np.testing.assert_allclose(lam[:, 4:7], w[0], atol=1e-12)
        assert np.all(lam[:, :4] == 0) and np.all(lam[:, 7:] == 0)


@given(
    k=st.integers(1, 4),
    f=st.integers(1, 40),
    length=st.integers(1, 12),
    m=st.integers(1, 30),
    fixed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_matrix_products_match_per_lag_oracle(k, f, length, m, fixed, seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.01, 1, (k, f, length))
    h = rng.uniform(0.01, 1, (k, m))
    v = rng.uniform(0, 1, (f, m))
    model = NmfdModel(w, h, fixed_templates=fixed)
    per = loop_reconstruct_per_class(w, h)
    np.testing.assert_allclose(reconstruct_per_class(model, m), per, rtol=1e-12, atol=0)
    lam = reconstruct(model, m)
    np.testing.assert_allclose(lam, per.sum(axis=0), rtol=1e-12, atol=0)
    w_ref, h_ref = loop_step(w, h, v, fixed)
    stepped = nmfd_step(model, v)
    np.testing.assert_allclose(stepped.activations, h_ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(stepped.templates, w_ref, rtol=1e-12, atol=0)


class TestKl:
    def test_zero_at_equality(self):
        v = RNG.uniform(0.1, 2, (5, 7))
        assert kl_divergence(v, v, eps=0.0) == pytest.approx(0.0, abs=1e-12)

    def test_positive_off_optimum(self):
        v = RNG.uniform(0.1, 2, (5, 7))
        assert kl_divergence(v, 2 * v, eps=0.0) > 0

    def test_scalar_closed_form(self):
        # D(2 || 1) = 2 ln 2 - 2 + 1
        v = np.array([[2.0]])
        lam = np.array([[1.0]])
        assert kl_divergence(v, lam, eps=0.0) == pytest.approx(2 * np.log(2) - 1)


class TestUpdates:
    def test_kl_never_increases(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            v = rng.uniform(0, 1, (15, 25))
            model = random_model(k=3, f=15, length=4, m=25, seed=seed + 100)
            prev = kl_divergence(v, reconstruct(model, 25))
            for _ in range(20):
                model = nmfd_step(model, v)
                cur = kl_divergence(v, reconstruct(model, 25))
                assert cur <= prev + 1e-9
                prev = cur

    def test_factors_stay_floored(self):
        v = RNG.uniform(0, 1, (10, 15))
        model = random_model(k=2, f=10, length=3, m=15, seed=9)
        for _ in range(5):
            model = nmfd_step(model, v)
        assert model.templates.min() >= EPSILON
        assert model.activations.min() >= EPSILON

    def test_fixed_templates_untouched(self):
        v = RNG.uniform(0, 1, (10, 15))
        model = random_model(k=2, f=10, length=3, m=15, seed=2)
        model = NmfdModel(model.templates, model.activations, fixed_templates=True)
        w0 = model.templates.copy()
        stepped = nmfd_step(model, v)
        np.testing.assert_array_equal(stepped.templates, w0)

    def test_exact_factorization_is_near_fixed_point(self):
        model = random_model(k=2, f=10, length=3, m=15, seed=3)
        v = reconstruct(model, 15)
        stepped = nmfd_step(model, v)
        rel = np.abs(stepped.activations - model.activations) / model.activations
        assert rel.max() < 1e-6

    def test_dimension_mismatch_rejected(self):
        model = random_model()
        with pytest.raises(ValueError):
            nmfd_step(model, RNG.uniform(0, 1, (99, 20)))


class TestInit:
    def _transcription(self):
        return Transcription((
            Event(0.1, "kick", 1.0),
            Event(0.5, "kick", 1.0),
            Event(0.3, "snare", 0.8),
        ))

    def _bank(self):
        shots = np.zeros((NUM_CLASSES, ONE_SHOT_LENGTH))
        rng = np.random.default_rng(0)
        shots[:2, :4000] = rng.uniform(-0.9, 0.9, (2, 4000))
        return OneShotBank("kit", shots)

    def test_activations_one_at_onsets_epsilon_elsewhere(self):
        v = RNG.uniform(0, 1, (1025, 60))
        model = init_informed(v, self._transcription(), self._bank(),
                              NmfdCase.preset("1A"))
        h = model.activations
        k_kick = CLASS_INDEX["kick"]
        assert np.count_nonzero(h == 1.0) == 3
        assert h[k_kick].max() == 1.0
        off = h[h != 1.0]
        np.testing.assert_array_equal(off, EPSILON)

    @pytest.mark.parametrize("window, hop", [(2048, 512), (2048, 256),
                                             (2048, 1024), (1024, 256)])
    def test_informed_templates_match_one_shot_stft(self, window, hop):
        # the templates take the mixture's window and hop
        v = RNG.uniform(0, 1, (window // 2 + 1, 120))
        case = NmfdCase.preset("1B")
        bank = self._bank()
        model = init_informed(v, self._transcription(), bank, case, hop_size=hop)
        mag = magnitude(stft(Waveform(bank.one_shots[0]), StftConfig(window, hop)))
        np.testing.assert_allclose(
            model.templates[0], np.maximum(mag[:, : case.template_length], EPSILON)
        )

    @settings(max_examples=30, deadline=None)
    @given(
        config=st.sampled_from([(2048, 512), (1024, 256), (4096, 1024), (256, 128)]),
        length=st.integers(1, 400),
        onset=st.integers(0, ONE_SHOT_LENGTH - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_informed_templates_equal_whole_shot_templates(self, config, length,
                                                           onset, seed):
        """The templates, taken from the samples that the first L frames
        cover, are bit for bit the first L frames of each whole one-shot's
        spectrogram, also when L frames reach past the shot's end and when
        a shot sounds only after those frames."""
        window, hop = config
        rng = np.random.default_rng(seed)
        shots = np.zeros((NUM_CLASSES, ONE_SHOT_LENGTH))
        shots[0] = rng.uniform(-1, 1, ONE_SHOT_LENGTH)
        shots[1, onset:] = rng.uniform(-1, 1, ONE_SHOT_LENGTH - onset)
        shots[2, : onset + 1] = rng.uniform(-1, 1, onset + 1)
        case = NmfdCase("x", 1, length, fixed_templates=True, informed_templates=True)
        v = np.ones((window // 2 + 1, 400))
        model = init_informed(v, self._transcription(), OneShotBank("kit", shots),
                              case, hop_size=hop)
        expected = np.full((NUM_CLASSES, window // 2 + 1, length), EPSILON)
        for k in range(3):
            mag = magnitude(stft(Waveform(shots[k]), StftConfig(window, hop)))
            frames = min(length, mag.shape[1])
            expected[k, :, :frames] = np.maximum(mag[:, :frames], EPSILON)
        np.testing.assert_array_equal(model.templates, expected)

    def test_silent_class_template_is_floor(self):
        v = RNG.uniform(0, 1, (1025, 60))
        model = init_informed(v, self._transcription(), self._bank(),
                              NmfdCase.preset("1A"))
        np.testing.assert_array_equal(model.templates[5], EPSILON)

    def test_case3_random_templates_deterministic(self):
        v = RNG.uniform(0, 1, (513, 60))
        case = NmfdCase.preset("3")
        a = init_informed(v, self._transcription(), None, case, seed=7)
        b = init_informed(v, self._transcription(), None, case, seed=7)
        np.testing.assert_array_equal(a.templates, b.templates)
        assert a.templates.min() > 0

    def test_informed_case_requires_bank(self):
        v = RNG.uniform(0, 1, (513, 40))
        with pytest.raises(ValueError):
            init_informed(v, self._transcription(), None, NmfdCase.preset("1A"))

    def test_empty_transcription_rejected(self):
        v = RNG.uniform(0, 1, (513, 40))
        with pytest.raises(ValueError, match="^transcription must contain at least one onset$"):
            init_informed(v, Transcription(()), None, NmfdCase.preset("3"))

    def test_onset_past_grid_rejected(self):
        v = RNG.uniform(0, 1, (513, 5))
        with pytest.raises(ValueError):
            init_informed(v, self._transcription(), self._bank(),
                          NmfdCase.preset("3"))

    def test_case_presets(self):
        a = NmfdCase.preset("1a")
        assert (a.iterations, a.template_length, a.fixed_templates) == (50, 40, True)
        b = NmfdCase.preset("1B")
        assert (b.iterations, b.template_length, b.fixed_templates) == (20, 10, False)
        c = NmfdCase.preset("3")
        assert (c.iterations, c.template_length, c.informed_templates) == (20, 7, False)
        with pytest.raises(ValueError):
            NmfdCase.preset("2")


class TestRun:
    def test_per_class_output_sums_to_reconstruction(self):
        t = Transcription((Event(0.05, "kick", 1.0), Event(0.2, "snare", 1.0)))
        v = RNG.uniform(0, 1, (257, 30))
        model, per = nmfd_run(v, t, None, NmfdCase.preset("3"), hop_size=512)
        assert per.shape == (NUM_CLASSES, 257, 30)
        np.testing.assert_allclose(per.sum(axis=0), reconstruct(model, 30), atol=1e-10)

    def test_case_1a_shorter_than_templates(self):
        # 26 frames against L = 40: lags past the last frame contribute nothing
        shots = np.zeros((NUM_CLASSES, ONE_SHOT_LENGTH))
        shots[:, :3000] = RNG.uniform(-1, 1, (NUM_CLASSES, 3000))
        t = Transcription((Event(0.05, "kick", 1.0), Event(0.2, "snare", 1.0)))
        v = RNG.uniform(0, 1, (1025, 26))
        model, per = nmfd_run(v, t, OneShotBank("kit", shots), NmfdCase.preset("1A"))
        assert per.shape == (NUM_CLASSES, 1025, 26)
        np.testing.assert_allclose(per.sum(axis=0), reconstruct(model, 26), atol=1e-10)

    def test_disjoint_bands_separate(self):
        # class 0 occupies low bins, class 1 high bins, at distinct frames
        f, m = 40, 50
        v = np.zeros((f, m))
        low = np.zeros(f)
        low[:10] = 1.0
        high = np.zeros(f)
        high[30:] = 1.0
        kick_frames = [5, 20, 35]
        snare_frames = [12, 28, 44]
        for fr in kick_frames:
            v[:, fr : fr + 3] += low[:, None]
        for fr in snare_frames:
            v[:, fr : fr + 3] += high[:, None]
        hop = 512
        events = [Event(fr * hop / 44100, "kick", 1.0) for fr in kick_frames]
        events += [Event(fr * hop / 44100, "snare", 1.0) for fr in snare_frames]
        t = Transcription(tuple(events))
        _, per = nmfd_run(v, t, None, NmfdCase.preset("3"), seed=1, hop_size=hop)
        k_kick, k_snare = CLASS_INDEX["kick"], CLASS_INDEX["snare"]
        kick_low = per[k_kick, :10].sum()
        kick_high = per[k_kick, 30:].sum()
        snare_high = per[k_snare, 30:].sum()
        snare_low = per[k_snare, :10].sum()
        assert kick_low / (kick_low + kick_high) > 0.9
        assert snare_high / (snare_high + snare_low) > 0.9

    def test_deterministic(self):
        t = Transcription((Event(0.05, "kick", 1.0),))
        v = RNG.uniform(0, 1, (129, 20))
        _, a = nmfd_run(v, t, None, NmfdCase.preset("3"), seed=3, hop_size=512)
        _, b = nmfd_run(v, t, None, NmfdCase.preset("3"), seed=3, hop_size=512)
        np.testing.assert_array_equal(a, b)
