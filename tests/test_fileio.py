"""File formats: WAV, transcription CSV, banks, NMFD magnitudes, run config,
reports."""

import json
import zipfile

import numpy as np
import pytest
from scipy.io import wavfile

from drumsep.classes import CLASS_NAMES, NUM_CLASSES
from drumsep.drum_machine import ONE_SHOT_LENGTH, OneShotBank
from drumsep.fileio import (
    CONFIG_DEFAULTS,
    FileFormatError,
    _atomic_open,
    default_config,
    read_bank,
    read_config,
    read_transcription,
    read_wav,
    write_bank,
    write_loss_trace,
    write_magnitudes,
    write_report,
    write_transcription,
    write_wav,
)
from drumsep.signal import SAMPLE_RATE, Waveform
from drumsep.transcription import Event, Transcription

RNG = np.random.default_rng(13)


class TestWav:
    def test_float32_round_trip_is_bit_exact(self, tmp_path):
        x = Waveform(RNG.uniform(-1, 1, 5000).astype(np.float32).astype(np.float64))
        path = tmp_path / "a.wav"
        assert write_wav(path, x) == 0
        back = read_wav(path)
        np.testing.assert_array_equal(back.samples, x.samples)

    def test_int16_scaling(self, tmp_path):
        data = np.array([0, 16384, -32768, 32767], dtype=np.int16)
        path = tmp_path / "b.wav"
        with open(path, "wb") as handle:
            wavfile.write(handle, SAMPLE_RATE, data)
        back = read_wav(path)
        np.testing.assert_allclose(
            back.samples, [0.0, 0.5, -1.0, 32767 / 32768], atol=1e-12
        )

    def test_stereo_averaged_to_mono(self, tmp_path):
        data = np.stack([np.full(100, 0.2), np.full(100, 0.6)], axis=1)
        path = tmp_path / "c.wav"
        with open(path, "wb") as handle:
            wavfile.write(handle, SAMPLE_RATE, data.astype(np.float32))
        back = read_wav(path)
        np.testing.assert_allclose(back.samples, 0.4, atol=1e-7)

    def test_wrong_sample_rate_rejected(self, tmp_path):
        path = tmp_path / "d.wav"
        with open(path, "wb") as handle:
            wavfile.write(handle, 48000, np.zeros(100, dtype=np.float32))
        with pytest.raises(FileFormatError, match="44100"):
            read_wav(path)

    def test_unsupported_dtype_rejected(self, tmp_path):
        path = tmp_path / "e.wav"
        with open(path, "wb") as handle:
            wavfile.write(handle, SAMPLE_RATE, np.zeros(100, dtype=np.int32))
        with pytest.raises(FileFormatError):
            read_wav(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "f.wav"
        path.write_bytes(b"not a wav at all")
        with pytest.raises(FileFormatError):
            read_wav(path)

    def test_clipping_reported_and_applied(self, tmp_path):
        x = Waveform(np.array([0.0, 1.5, -2.0, 0.5]))
        path = tmp_path / "g.wav"
        assert write_wav(path, x) == 2
        back = read_wav(path)
        np.testing.assert_array_equal(back.samples, [0.0, 1.0, -1.0, 0.5])

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")


class TestTranscriptionCsv:
    def test_round_trip(self, tmp_path):
        events = tuple(
            Event(float(i) * 0.25, CLASS_NAMES[i % NUM_CLASSES],
                  round(float(RNG.uniform(0.1, 2)), 6))
            for i in range(50)
        )
        t = Transcription(events)
        path = tmp_path / "t.csv"
        write_transcription(t, path)
        back = read_transcription(path)
        assert back == t

    def test_written_format(self, tmp_path):
        t = Transcription((Event(1.5, "snare", 0.75),))
        path = tmp_path / "t.csv"
        write_transcription(t, path)
        assert path.read_text() == (
            "onset_sec,class,velocity\n1.500000,snare,0.750000\n"
        )

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(FileFormatError, match="empty"):
            read_transcription(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,drum,vel\n")
        with pytest.raises(FileFormatError, match=":1:"):
            read_transcription(path)

    def test_unknown_class_error_carries_line_number(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("onset_sec,class,velocity\n0.5,kick,1.0\n0.6,gong,1.0\n")
        with pytest.raises(FileFormatError, match=":3:"):
            read_transcription(path)

    def test_non_numeric_field_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("onset_sec,class,velocity\nabc,kick,1.0\n")
        with pytest.raises(FileFormatError, match=":2:"):
            read_transcription(path)

    def test_negative_time_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("onset_sec,class,velocity\n-0.5,kick,1.0\n")
        with pytest.raises(FileFormatError):
            read_transcription(path)

    @pytest.mark.parametrize("row", ["nan,snare,1.0", "inf,snare,1.0",
                                     "0.6,snare,nan"])
    def test_non_finite_field_error_carries_line_number(self, tmp_path, row):
        path = tmp_path / "t.csv"
        path.write_text(f"onset_sec,class,velocity\n0.5,kick,1.0\n{row}\n")
        with pytest.raises(FileFormatError, match=":3:"):
            read_transcription(path)

    def test_velocity_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("onset_sec,class,velocity\n0.5,kick,2.5\n")
        with pytest.raises(FileFormatError):
            read_transcription(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("onset_sec,class,velocity\n0.5,kick,1.0\n\n")
        assert len(read_transcription(path)) == 1


class TestBank:
    def test_round_trip(self, tmp_path):
        shots = RNG.uniform(-0.9, 0.9, (NUM_CLASSES, ONE_SHOT_LENGTH))
        bank = OneShotBank("kit", shots)
        write_bank(bank, tmp_path / "kit")
        back = read_bank(tmp_path / "kit")
        assert back.kit_id == "kit"
        np.testing.assert_allclose(back.one_shots, shots, atol=1e-7)

    def test_missing_class_file_rejected(self, tmp_path):
        bank = OneShotBank("kit", np.zeros((NUM_CLASSES, ONE_SHOT_LENGTH)))
        write_bank(bank, tmp_path / "kit")
        (tmp_path / "kit" / "ride.wav").unlink()
        with pytest.raises(FileFormatError, match="ride"):
            read_bank(tmp_path / "kit")

    def test_short_one_shots_padded(self, tmp_path):
        d = tmp_path / "kit"
        for name in CLASS_NAMES:
            write_wav(d / f"{name}.wav", Waveform(np.full(100, 0.25)))
        bank = read_bank(d)
        assert bank.one_shots.shape == (NUM_CLASSES, ONE_SHOT_LENGTH)
        assert np.all(bank.one_shots[:, 100:] == 0)


class TestMagnitudes:
    def test_one_uncompressed_member_per_class(self, tmp_path):
        per_class = RNG.uniform(0, 1, (NUM_CLASSES, 17, 5))
        path = tmp_path / "magnitudes.npz"
        write_magnitudes(per_class, path)
        with zipfile.ZipFile(path) as archive:
            assert [i.filename for i in archive.infolist()] == [
                f"{name}.npy" for name in CLASS_NAMES]
            assert all(i.compress_type == zipfile.ZIP_STORED
                       for i in archive.infolist())
        with np.load(path) as loaded:
            assert list(loaded.keys()) == list(CLASS_NAMES)
            for k, name in enumerate(CLASS_NAMES):
                np.testing.assert_array_equal(loaded[name], per_class[k])

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_no_partial_or_temp_file(self, tmp_path, existing):
        path = tmp_path / "magnitudes.npz"
        if existing:
            write_magnitudes(np.ones((NUM_CLASSES, 3, 2)), path)
        before = path.read_bytes() if existing else None
        with pytest.raises(RuntimeError, match="disk full"):
            with _atomic_open(path) as handle:
                np.savez(handle, kick=np.zeros((3, 2)))
                raise RuntimeError("disk full")
        assert sorted(tmp_path.iterdir()) == ([path] if existing else [])
        if existing:
            assert path.read_bytes() == before


class TestConfig:
    def test_defaults(self):
        cfg = default_config()
        assert cfg["solver.steps"] == 1000
        assert cfg["solver.lr"] == 5e-3
        assert cfg["solver.clip"] == 0.5
        assert cfg.loss_scales == (2048, 1024, 512, 256)
        assert cfg["masking.alpha"] == 1.0

    def test_parse_overrides_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment\nsolver.steps = 10\nmasking.alpha = 2.0  # inline\n\n"
        )
        cfg = read_config(path)
        assert cfg["solver.steps"] == 10
        assert cfg["masking.alpha"] == 2.0
        assert cfg["solver.lr"] == 5e-3  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("solver.momentum = 0.9\n")
        with pytest.raises(FileFormatError, match="unknown key"):
            read_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("solver.steps = many\n")
        with pytest.raises(FileFormatError, match=":1:"):
            read_config(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("solver.steps 10\n")
        with pytest.raises(FileFormatError):
            read_config(path)


class TestReports:
    def test_report_is_stable_sorted_json(self, tmp_path):
        path = tmp_path / "report.json"
        write_report({"b": 1, "a": {"z": 2, "y": 3}}, path)
        text = path.read_text()
        assert json.loads(text) == {"b": 1, "a": {"z": 2, "y": 3}}
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_loss_trace_format(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_loss_trace([1.5, 0.25], path)
        assert path.read_text() == "step,loss\n0,1.5\n1,0.25\n"

    def test_config_defaults_are_known_keys_only(self):
        expected = {
            "stft.window", "stft.hop", "loss.scales", "solver.steps",
            "solver.lr", "solver.clip", "nmfd.case", "masking.alpha",
            "masking.epsilon", "seed",
        }
        assert set(CONFIG_DEFAULTS) == expected
