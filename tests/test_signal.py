"""STFT/iSTFT, magnitude and log-mel tests with direct-DFT oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drumsep.signal import (
    DEFAULT_HOP,
    DEFAULT_WINDOW,
    LOG_MEL_FLOOR,
    N_MELS,
    SAMPLE_RATE,
    ComplexSpectrogram,
    SignalError,
    StftConfig,
    Waveform,
    fill_span,
    frame_span,
    hann_window,
    hz_to_mel,
    istft,
    log_mel,
    magnitude,
    mel_filterbank,
    frame_signal,
    num_frames,
    overlap_add,
    sounding_frames,
    sounding_span,
    stft,
)

RNG = np.random.default_rng(1234)


def naive_dft_frame(frame: np.ndarray) -> np.ndarray:
    """O(N^2) DFT of one windowed frame, positive frequencies only."""
    n = len(frame)
    k = np.arange(n // 2 + 1)
    t = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(k, t) / n)
    return basis @ frame


class TestStft:
    def test_zero_signal_gives_zero_spectrogram(self):
        spec = stft(Waveform(np.zeros(4096)))
        assert np.all(spec.bins == 0)

    def test_matches_naive_dft_per_frame(self):
        cfg = StftConfig(window_size=64, hop_size=16)
        x = RNG.normal(size=300)
        spec = stft(Waveform(x), cfg)
        window = hann_window(64)
        padded = np.pad(x, (32, 32))
        for m in range(spec.n_frames):
            frame = padded[m * 16 : m * 16 + 64] * window
            np.testing.assert_allclose(
                spec.bins[:, m], naive_dft_frame(frame), atol=1e-9
            )

    def test_frame_count_formula(self):
        cfg = StftConfig(DEFAULT_WINDOW, DEFAULT_HOP)
        n = 6 * SAMPLE_RATE
        spec = stft(Waveform(np.zeros(n)), cfg)
        assert spec.n_frames == num_frames(n, cfg) == 1 + (n + 2048 - 2048) // 512

    def test_pure_tone_concentrates_on_its_bin(self):
        cfg = StftConfig(1024, 256)
        bin_index = 40
        freq = bin_index * SAMPLE_RATE / 1024
        t = np.arange(SAMPLE_RATE // 2) / SAMPLE_RATE
        spec = magnitude(stft(Waveform(np.sin(2 * np.pi * freq * t)), cfg))
        interior = spec[:, 10:-10]
        peak = interior[bin_index].min()
        away = interior[bin_index + 8 :].max()
        assert peak > 30 * away

    def test_linearity(self):
        cfg = StftConfig(512, 128)
        x = RNG.normal(size=2000)
        y = RNG.normal(size=2000)
        lhs = stft(Waveform(2.0 * x - 0.5 * y), cfg).bins
        rhs = 2.0 * stft(Waveform(x), cfg).bins - 0.5 * stft(Waveform(y), cfg).bins
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_empty_signal_rejected(self):
        with pytest.raises(SignalError):
            stft(Waveform(np.zeros(0)))

    def test_cached_window_is_read_only(self):
        window = hann_window(64)
        assert hann_window(64) is window
        with pytest.raises(ValueError):
            window[0] = 1.0


class TestIstft:
    @pytest.mark.parametrize("window,hop", [(2048, 512), (1024, 256)])
    def test_round_trip(self, window, hop):
        cfg = StftConfig(window, hop)
        for _ in range(5):
            x = RNG.normal(size=SAMPLE_RATE)
            y = istft(stft(Waveform(x), cfg)).samples
            assert len(y) == len(x)
            assert np.max(np.abs(y - x)) < 1e-6

    def test_round_trip_odd_length(self):
        cfg = StftConfig(512, 128)
        x = RNG.normal(size=10001)
        y = istft(stft(Waveform(x), cfg)).samples
        assert np.max(np.abs(y - x)) < 1e-6

    def test_zero_spectrogram_inverts_to_silence(self):
        cfg = StftConfig(512, 128)
        spec = ComplexSpectrogram(np.zeros((257, 20)), cfg, 2000)
        assert np.all(istft(spec).samples == 0)

    def test_non_cola_hop_rejected(self):
        with pytest.raises(SignalError, match="hop 512 > window/2"):
            StftConfig(512, 512)


def naive_overlap_add(frames, hop, total, out):
    """Frame-by-frame overlap-add into ``out``, frames taken by m mod
    (window/hop) as ``overlap_add`` groups them, so every sample receives its
    terms in the same order."""
    n_frames, window = frames.shape
    for p in range(window // hop):
        for m in range(p, n_frames, window // hop):
            out[m * hop : m * hop + window] += frames[m]
    return out[:total]


@given(
    log_window=st.integers(0, 6),
    log_ratio=st.integers(0, 6),
    n_frames=st.integers(1, 20),
    extra=st.integers(-70, 70),
    into_buffer=st.booleans(),
    broadcast=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_overlap_add_matches_frame_loop(log_window, log_ratio, n_frames, extra,
                                        into_buffer, broadcast, seed):
    """Equal to the frame loop bit for bit: with or without a caller buffer
    (which it adds into), for strided and broadcast frames, and for totals
    shorter or longer than the frames cover."""
    window = 2**log_window
    hop = window // 2 ** min(log_ratio, log_window)
    covered = (n_frames - 1) * hop + window
    total = max(0, covered + extra)
    rng = np.random.default_rng(seed)
    frames = (np.broadcast_to(rng.normal(size=window), (n_frames, window))
              if broadcast else rng.normal(size=(n_frames, window)))
    start = rng.normal(size=max(total, covered)) if into_buffer else None
    expected = naive_overlap_add(
        frames, hop, total,
        np.zeros(max(total, covered)) if start is None else start.copy(),
    )
    got = overlap_add(frames, hop, total, out=start)
    np.testing.assert_array_equal(got, expected)
    if into_buffer:
        np.testing.assert_array_equal(start[:total], expected)


@given(
    cfg=st.sampled_from([StftConfig(8, 4), StftConfig(16, 2), StftConfig(512, 128),
                         StftConfig(2048, 512), StftConfig(1024, 64)]),
    n=st.integers(1, 6000),
    rows=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_sounding_frames_are_the_frames_with_a_non_zero_sample(cfg, n, rows, seed):
    """Against each frame's samples, for one signal's ``frame_signal``
    frames and for several rows at once: silent stretches, lone samples
    and -0.0, which is silent, as its transform is."""
    rng = np.random.default_rng(seed)
    x = np.zeros((rows, n))
    for row in x:
        for a in rng.integers(0, n, int(rng.integers(0, 4))):
            b = min(n, a + int(rng.integers(1, 3 * cfg.window_size)))
            row[a:b] = rng.normal(size=b - a) * (rng.random(b - a) < rng.random())
    x[rng.random(x.shape) < 0.3] = -0.0
    frames = np.stack([frame_signal(row, cfg) for row in x])
    chunks = frames.shape[1] + cfg.window_size // cfg.hop_size - 1
    want = np.any(frames != 0, axis=-1)
    buffer = np.ones((rows, chunks), dtype=bool)
    np.testing.assert_array_equal(sounding_frames(frames, cfg, buffer), want)
    one = sounding_frames(frame_signal(x[0], cfg), cfg, np.empty(chunks, dtype=bool))
    np.testing.assert_array_equal(one, want[0])
    first, stop = sounding_span(one)
    assert one[first:stop].sum() == one.sum()
    assert (first, stop) == (0, 0) or one[first] and one[stop - 1]


@given(
    cfg=st.sampled_from([StftConfig(2048, 512), StftConfig(1024, 512),
                         StftConfig(256, 64), StftConfig(16, 8)]),
    n=st.integers(1, 6000),
    extra=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_filled_span_frames_are_stft_frames(cfg, n, extra, seed, data):
    """A span filled from frame m's first sample holds frames m, m + 1, ...
    of ``frame_signal`` for each signal, from the track's start to past
    its end; rows past the signals' hold zeros outside the returned range,
    whose samples the caller fills."""
    rng = np.random.default_rng(seed)
    signals = rng.normal(size=(2, n))
    n_frames = num_frames(n, cfg)
    m = data.draw(st.integers(0, n_frames - 1))
    count = data.draw(st.integers(1, n_frames - m))
    span = np.full((2 + extra, (count - 1) * cfg.hop_size + cfg.window_size), np.nan)
    begin = m * cfg.hop_size - cfg.window_size // 2
    first, last = fill_span(span, begin, list(signals))
    assert (first, last) == (max(begin, 0), min(begin + span.shape[1], n))
    frames = frame_span(span, cfg)
    assert frames.shape == (2 + extra, count, cfg.window_size)
    for row, x in zip(frames, signals):
        np.testing.assert_array_equal(row, frame_signal(x, cfg)[m : m + count])
    assert np.all(np.isnan(span[2:, first - begin : last - begin]))
    span[2:, first - begin : last - begin] = 0.0
    assert np.all(span[2:] == 0.0)


class TestConfigValidation:
    def test_non_power_of_two_window(self):
        with pytest.raises(SignalError):
            StftConfig(window_size=1000, hop_size=250)

    def test_hop_must_divide_window(self):
        with pytest.raises(SignalError):
            StftConfig(window_size=1024, hop_size=300)

    def test_n_bins(self):
        assert StftConfig(2048, 512).n_bins == 1025


class TestWaveform:
    def test_rejects_nan(self):
        with pytest.raises(SignalError):
            Waveform(np.array([0.0, np.nan]))

    def test_rejects_stereo(self):
        with pytest.raises(SignalError):
            Waveform(np.zeros((2, 10)))

    def test_duration(self):
        assert Waveform(np.zeros(SAMPLE_RATE * 2)).duration == 2.0


class TestMagnitude:
    def test_pythagorean_cell(self):
        cfg = StftConfig(8, 2)
        bins = np.zeros((5, 1), dtype=complex)
        bins[2, 0] = 3.0 + 4.0j
        assert magnitude(ComplexSpectrogram(bins, cfg, 8))[2, 0] == 5.0

    def test_matches_modulus(self):
        spec = stft(Waveform(RNG.normal(size=5000)), StftConfig(512, 128))
        np.testing.assert_allclose(
            magnitude(spec), np.sqrt(spec.bins.real**2 + spec.bins.imag**2),
            rtol=1e-12,
        )


class TestMel:
    def test_hz_to_mel_reference_points(self):
        assert hz_to_mel(0.0) == 0.0
        np.testing.assert_allclose(hz_to_mel(700.0), 2595.0 * np.log10(2.0))

    def test_filterbank_shape_and_support(self):
        fb = mel_filterbank()
        assert fb.shape == (N_MELS, DEFAULT_WINDOW // 2 + 1)
        assert fb.min() >= 0
        # every filter has support
        assert np.all(fb.sum(axis=1) > 0)
        # cached and shared, so read-only
        assert mel_filterbank() is fb
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0

    def test_log_mel_of_silence_is_log_floor(self):
        lm = log_mel(Waveform(np.zeros(SAMPLE_RATE)))
        np.testing.assert_allclose(lm, np.log(LOG_MEL_FLOOR))

    def test_log_mel_shape(self):
        x = Waveform(RNG.normal(size=SAMPLE_RATE))
        cfg = StftConfig(DEFAULT_WINDOW, DEFAULT_HOP)
        assert log_mel(x).shape == (N_MELS, num_frames(len(x), cfg))

    def test_log_mel_tracks_power(self):
        # scaling the signal by 0.5 lowers high-energy cells by ~log(4)
        x = RNG.normal(size=SAMPLE_RATE)
        a = log_mel(Waveform(x))
        b = log_mel(Waveform(0.5 * x))
        hot = a > np.log(LOG_MEL_FLOOR) + 8
        np.testing.assert_allclose(a[hot] - b[hot], np.log(4.0), atol=1e-3)
