"""File formats: WAV, transcription CSV, banks, NMFD magnitudes, run config,
reports."""

import ast
import io
import json
import os
import re
import struct
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.io import wavfile

import drumsep
from drumsep.abs_solver import LSQ_ITERATIONS, OptimizerConfig
from drumsep.classes import CLASS_NAMES, NUM_CLASSES
from drumsep.drum_machine import ONE_SHOT_LENGTH, OneShotBank
from drumsep.fileio import (
    CONFIG_DEFAULTS,
    MAX_WAV_SAMPLES,
    FileFormatError,
    _atomic_open,
    read_bank,
    read_config,
    read_transcription,
    read_wav,
    stem_blocks,
    wav_blocks,
    write_bank,
    write_config,
    write_loss_trace,
    write_magnitudes,
    write_report,
    write_stems,
    write_transcription,
    write_wav,
)
from drumsep.masking import DEFAULT_ALPHA, MASK_EPSILON
from drumsep.signal import DEFAULT_HOP, DEFAULT_WINDOW, SAMPLE_RATE, Waveform
from drumsep.transcription import Event, Transcription

RNG = np.random.default_rng(13)

# Sub-format GUIDs of a WAVE_FORMAT_EXTENSIBLE header (RFC 2361): the format
# tag in the first four bytes, then a fixed tail.
GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def chunk(chunk_id: bytes, payload: bytes) -> bytes:
    """One RIFF chunk, with the pad byte an odd-sized payload needs."""
    pad = b"\x00" if len(payload) % 2 else b""
    return chunk_id + struct.pack("<I", len(payload)) + payload + pad


def riff(*chunks: bytes) -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def fmt_chunk(tag: int, channels: int, bits: int, rate: int = SAMPLE_RATE,
              sub_format: int | None = None) -> bytes:
    """A ``fmt `` chunk; with ``sub_format`` it is WAVE_FORMAT_EXTENSIBLE."""
    block = channels * bits // 8
    body = struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits)
    if sub_format is not None:
        body += struct.pack("<HHI", 22, bits, 0)
        body += struct.pack("<I", sub_format) + GUID_TAIL
    return chunk(b"fmt ", body)


def scipy_read_wav(path) -> np.ndarray:
    """The reader's semantics as scipy.io.wavfile implements them: int16
    scaled by 1/32768, float32 widened, channels averaged."""
    _, data = wavfile.read(path)
    samples = data.astype(np.float64)
    if data.dtype == np.int16:
        samples = samples / 32768.0
    return samples.mean(axis=1) if samples.ndim == 2 else samples


class TestWav:
    def test_float32_round_trip_is_bit_exact(self, tmp_path):
        x = Waveform(RNG.uniform(-1, 1, 5000).astype(np.float32).astype(np.float64))
        path = tmp_path / "a.wav"
        assert np.abs(x.samples).max() <= 1.0
        write_wav(path, x)
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

    def test_clipping_applied(self, tmp_path):
        x = Waveform(np.array([0.0, 1.5, -2.0, 0.5]))
        path = tmp_path / "g.wav"
        write_wav(path, x)
        back = read_wav(path)
        np.testing.assert_array_equal(back.samples, [0.0, 1.0, -1.0, 0.5])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_names_the_file_and_index(self, tmp_path, value):
        data = np.zeros((50, 2), dtype=np.float32)
        data[37, 1] = value
        path = tmp_path / "h.wav"
        with open(path, "wb") as handle:
            wavfile.write(handle, SAMPLE_RATE, data)
        with pytest.raises(FileFormatError) as info:
            read_wav(path)
        assert str(info.value) == f"{path}: non-finite sample at index 37"

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")


class TestWavCodec:
    """The numpy codec against scipy.io.wavfile as the reference."""

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 400),
                      elements=st.floats(-3, 3)))
    def test_write_matches_scipy_bytes(self, tmp_path_factory, samples):
        path = tmp_path_factory.mktemp("w") / "x.wav"
        write_wav(path, Waveform(samples))
        expected = io.BytesIO()
        wavfile.write(expected, SAMPLE_RATE,
                      np.clip(samples, -1.0, 1.0).astype(np.float32))
        assert path.read_bytes() == expected.getvalue()

    def test_write_wav_writes_in_bounded_ranges(self, tmp_path, monkeypatch):
        """``write_wav`` writes ``WAV_RANGE`` samples or fewer a call, as one
        ``pwrite`` on Linux moves at most 0x7ffff000 bytes, and across
        range boundaries gives scipy.io.wavfile's bytes."""
        size = 7
        monkeypatch.setattr("drumsep.fileio.WAV_RANGE", size)
        pwrite, written = os.pwrite, []

        def recording(fd, data, offset):
            written.append(memoryview(data).nbytes)
            return pwrite(fd, data, offset)

        monkeypatch.setattr(os, "pwrite", recording)
        for n in (size - 1, size, size + 1, 3 * size + 5):
            samples = RNG.uniform(-1.5, 1.5, n)
            written.clear()
            write_wav(tmp_path / "x.wav", Waveform(samples))
            expected = io.BytesIO()
            wavfile.write(expected, SAMPLE_RATE,
                          np.clip(samples, -1.0, 1.0).astype(np.float32))
            assert (tmp_path / "x.wav").read_bytes() == expected.getvalue()
            assert len(written) == -(-n // size) and sum(written) == 4 * n
            assert max(written) <= 4 * size

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 400), elements=st.floats(-3, 3)),
           st.lists(st.integers(1, 400), max_size=8), st.randoms())
    def test_blocks_in_any_order_give_write_wav_bytes(
            self, tmp_path_factory, samples, cuts, random):
        """Sample ranges written in shuffled order, through one scratch
        buffer, give the bytes of ``write_wav``."""
        directory = tmp_path_factory.mktemp("w")
        write_wav(directory / "whole.wav", Waveform(samples))
        bounds = sorted({0, len(samples)} | {c for c in cuts if c < len(samples)})
        ranges = list(zip(bounds, bounds[1:]))
        random.shuffle(ranges)
        scratch = np.full(len(samples), np.nan, dtype=np.float32)
        with wav_blocks(directory / "blocks.wav", len(samples)) as blocks:
            for a, b in ranges:
                blocks.write(a, samples[a:b], scratch)
        assert ((directory / "blocks.wav").read_bytes()
                == (directory / "whole.wav").read_bytes())

    @settings(max_examples=30, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 400), elements=st.floats(-3, 3)),
           st.lists(st.integers(1, 400), max_size=8), st.randoms())
    def test_ranges_never_written_read_as_zero(
            self, tmp_path_factory, samples, cuts, random):
        """The masking kernel leaves a silent class's ranges unwritten: they
        give the bytes of written +0.0 samples."""
        directory = tmp_path_factory.mktemp("w")
        bounds = sorted({0, len(samples)} | {c for c in cuts if c < len(samples)})
        ranges = list(zip(bounds, bounds[1:]))
        skipped = [r for r in ranges if random.random() < 0.5]
        zeroed = samples.copy()
        for a, b in skipped:
            zeroed[a:b] = 0.0
        write_wav(directory / "whole.wav", Waveform(zeroed))
        scratch = np.empty(len(samples), dtype=np.float32)
        with wav_blocks(directory / "blocks.wav", len(samples)) as blocks:
            for a, b in ranges:
                if (a, b) not in skipped:
                    blocks.write(a, samples[a:b], scratch)
        assert ((directory / "blocks.wav").read_bytes()
                == (directory / "whole.wav").read_bytes())

    @pytest.mark.parametrize("existing", [False, True])
    def test_raising_block_leaves_no_stem_and_no_temp_file(self, tmp_path, existing):
        """A block that raises deletes every temp file; the directory keeps
        what it held."""
        if existing:
            write_wav(tmp_path / "kick.wav", Waveform(np.ones(5)))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        scratch = np.empty(10, dtype=np.float32)
        with pytest.raises(RuntimeError, match="lane failed"):
            with stem_blocks(tmp_path, 10) as writers:
                assert len(writers) == NUM_CLASSES
                writers[0].write(0, np.ones(10), scratch)
                raise RuntimeError("lane failed")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_stem_blocks_write_each_class(self, tmp_path):
        stems = np.random.default_rng(2).normal(0, 0.5, (NUM_CLASSES, 37))
        scratch = np.empty(37, dtype=np.float32)
        with stem_blocks(tmp_path / "blocks", 37) as writers:
            for writer, row in zip(writers, stems):
                writer.write(0, row, scratch)
        write_stems(stems, tmp_path / "whole")
        for name in CLASS_NAMES:
            assert ((tmp_path / "blocks" / f"{name}.wav").read_bytes()
                    == (tmp_path / "whole" / f"{name}.wav").read_bytes())

    def test_track_past_the_wav_bound_rejected_before_a_file(self, tmp_path):
        with pytest.raises(ValueError, match="exceed a RIFF WAV's 4 GiB"):
            with wav_blocks(tmp_path / "x.wav", MAX_WAV_SAMPLES + 1):
                pass
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([np.int16, np.float32]), st.integers(1, 3),
           st.integers(0, 300), st.integers(0, 2**32 - 1))
    def test_read_matches_scipy_semantics(self, tmp_path_factory, dtype,
                                          channels, frames, seed):
        rng = np.random.default_rng(seed)
        if dtype == np.int16:
            data = rng.integers(-32768, 32768, (frames, channels)).astype(dtype)
        else:
            data = rng.uniform(-1, 1, (frames, channels)).astype(dtype)
        if channels == 1:
            data = data[:, 0]
        path = tmp_path_factory.mktemp("r") / "x.wav"
        wavfile.write(path, SAMPLE_RATE, data)
        back = read_wav(path).samples
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, scipy_read_wav(path))

    @pytest.mark.parametrize("sub_format, bits, dtype", [
        (1, 16, np.int16), (3, 32, np.float32)])
    def test_wave_format_extensible(self, tmp_path, sub_format, bits, dtype):
        data = np.array([[1000, -2000], [3000, 5000]]).astype(dtype)
        if dtype == np.float32:
            data = data / np.float32(8192)
        path = tmp_path / "ext.wav"
        path.write_bytes(riff(fmt_chunk(0xFFFE, 2, bits, sub_format=sub_format),
                              chunk(b"data", data.tobytes())))
        expected = data.astype(np.float64).mean(axis=1)
        if dtype == np.int16:
            expected = (data.astype(np.float64) / 32768.0).mean(axis=1)
        np.testing.assert_array_equal(read_wav(path).samples, expected)

    def test_extensible_with_unknown_sub_format_rejected(self, tmp_path):
        path = tmp_path / "ext.wav"
        path.write_bytes(riff(fmt_chunk(0xFFFE, 1, 16, sub_format=2),
                              chunk(b"data", b"\x00" * 8)))
        with pytest.raises(FileFormatError, match="unsupported sample format"):
            read_wav(path)

    def test_list_chunk_before_data_skipped(self, tmp_path):
        data = np.array([0.25, -0.5, 0.75], dtype=np.float32)
        path = tmp_path / "list.wav"
        path.write_bytes(riff(fmt_chunk(3, 1, 32),
                              chunk(b"LIST", b"INFOISFT\x04\x00\x00\x00abc\x00"),
                              chunk(b"data", data.tobytes())))
        np.testing.assert_array_equal(read_wav(path).samples, data)

    def test_odd_sized_chunk_and_its_pad_byte_skipped(self, tmp_path):
        data = np.array([100, -200, 300], dtype=np.int16)
        path = tmp_path / "odd.wav"
        path.write_bytes(riff(chunk(b"junk", b"xyz"), fmt_chunk(1, 1, 16),
                              chunk(b"odd ", b"12345"),
                              chunk(b"data", data.tobytes())))
        np.testing.assert_array_equal(read_wav(path).samples, data / 32768.0)

    @pytest.mark.parametrize("tag, bits, what", [
        (1, 24, "24-bit"), (1, 32, "32-bit"), (3, 64, "64-bit"), (1, 8, "8-bit")])
    def test_other_sample_formats_rejected(self, tmp_path, tag, bits, what):
        path = tmp_path / "bad.wav"
        path.write_bytes(riff(fmt_chunk(tag, 1, bits),
                              chunk(b"data", b"\x00" * (bits // 8) * 4)))
        with pytest.raises(FileFormatError, match=f"{what}.*expected PCM16 or "
                                                  "float32") as info:
            read_wav(path)
        assert str(path) in str(info.value)

    def test_truncated_data_rejected(self, tmp_path):
        path = tmp_path / "cut.wav"
        write_wav(path, Waveform(np.linspace(-0.5, 0.5, 10)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FileFormatError) as info:
            read_wav(path)
        assert str(info.value) == (f"{path}: truncated WAV: data chunk declares "
                                   "40 bytes, file holds 32")

    def test_missing_fmt_chunk_rejected(self, tmp_path):
        path = tmp_path / "nofmt.wav"
        path.write_bytes(riff(chunk(b"data", b"\x00" * 8)))
        with pytest.raises(FileFormatError,
                           match="malformed WAV: no fmt chunk before data"):
            read_wav(path)

    def test_missing_data_chunk_rejected(self, tmp_path):
        path = tmp_path / "nodata.wav"
        path.write_bytes(riff(fmt_chunk(3, 1, 32), chunk(b"LIST", b"")))
        with pytest.raises(FileFormatError, match="malformed WAV: no data chunk"):
            read_wav(path)

    def test_chunk_running_past_the_end_rejected(self, tmp_path):
        path = tmp_path / "overrun.wav"
        path.write_bytes(riff(fmt_chunk(3, 1, 32))
                         + b"LIST" + struct.pack("<I", 1000) + b"\x00" * 8)
        with pytest.raises(FileFormatError, match="no data chunk"):
            read_wav(path)


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

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.builds(Event, st.floats(0, 3600),
                              st.sampled_from(CLASS_NAMES), st.floats(0, 2)),
                    max_size=30))
    def test_any_transcription_round_trips(self, tmp_path_factory, events):
        t = Transcription(tuple(events))
        path = tmp_path_factory.mktemp("t") / "t.csv"
        write_transcription(t, path)
        back = read_transcription(path)
        assert [e.class_name for e in back.events] == [
            e.class_name for e in t.events]
        # half a unit of the sixth decimal, plus the parse's rounding
        for field in ("time", "velocity"):
            np.testing.assert_allclose(
                [getattr(e, field) for e in back.events],
                [getattr(e, field) for e in t.events], rtol=0, atol=5e-7 + 1e-12)

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

    def test_bytes_that_are_not_utf8_name_the_file_and_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"onset_sec,class,velocity\n0.5,kick,1.0\n\xff,snare,1\n")
        with pytest.raises(FileFormatError) as raised:
            read_transcription(path)
        assert str(raised.value) == f"{path}:3: not UTF-8 text (invalid start byte)"


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

    def test_rows_one_at_a_time_give_the_bytes_of_savez(self, tmp_path):
        """Rows yielded one at a time in one reused buffer, as
        ``nmfd.class_magnitudes`` yields them, are written as ``np.savez``
        writes the stacked rows."""
        per_class = RNG.uniform(0, 1, (NUM_CLASSES, 17, 5))

        def rows():
            row = np.empty((17, 5))
            for values in per_class:
                row[:] = values
                yield row

        write_magnitudes(rows(), tmp_path / "streamed.npz")
        with open(tmp_path / "saved.npz", "wb") as handle:
            np.savez(handle, **dict(zip(CLASS_NAMES, per_class)))
        assert ((tmp_path / "streamed.npz").read_bytes()
                == (tmp_path / "saved.npz").read_bytes())

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


@st.composite
def run_configs(draw):
    """A config every value of which its owning type accepts, with a hop
    of at most half the window."""
    window = draw(st.integers(1, 16))
    positive = st.floats(min_value=0, exclude_min=True, allow_infinity=False)
    return {
        "stft.window": 2**window,
        "stft.hop": 2 ** draw(st.integers(0, window - 1)),
        "solver.steps": draw(st.integers(min_value=1)),
        "masking.alpha": draw(positive),
        "masking.epsilon": draw(positive),
        "seed": draw(st.integers(min_value=0)),
    }


def unread_keys(package: Path) -> list[str]:
    """CONFIG_DEFAULTS keys that no module of ``package`` but fileio.py
    subscripts with a string literal."""
    read = {
        node.slice.value
        for path in package.glob("*.py") if path.name != "fileio.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
    }
    return sorted(set(CONFIG_DEFAULTS) - read)


class TestConfig:
    def test_defaults(self):
        cfg = read_config(None)
        assert cfg["solver.steps"] == LSQ_ITERATIONS == 30
        assert cfg["seed"] == OptimizerConfig.seed == 0
        assert cfg["masking.alpha"] == DEFAULT_ALPHA == 1.0
        assert cfg["masking.epsilon"] == MASK_EPSILON
        assert (cfg["stft.window"], cfg["stft.hop"]) == (DEFAULT_WINDOW, DEFAULT_HOP)

    def test_parse_overrides_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment\nsolver.steps = 10\nmasking.alpha = 2.0  # inline\n\n"
        )
        cfg = read_config(path)
        assert cfg["solver.steps"] == 10
        assert cfg["masking.alpha"] == 2.0
        assert cfg["seed"] == 0  # untouched default

    def test_bytes_that_are_not_utf8_name_the_file_and_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed = 1\r\nsolver.steps = \xe9\n")
        with pytest.raises(FileFormatError) as raised:
            read_config(path)
        assert str(raised.value) == (
            f"{path}:2: not UTF-8 text (invalid continuation byte)")

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

    @pytest.mark.parametrize("line", [
        "loss.scales = 2048,1024,512,256", "loss.scales = 2048,2048",
        "solver.lr = 0.005", "solver.lr = -1", "solver.lr = nan",
        "solver.clip = 0.5", "solver.clip = inf",
    ])
    def test_removed_keys_are_unknown(self, tmp_path, line):
        # the keys of the Adam solve, which separate abs no longer runs
        path = tmp_path / "run.cfg"
        path.write_text("solver.steps = 2\n" + line + "\n")
        key = line.partition(" ")[0]
        with pytest.raises(FileFormatError, match=f":2: unknown key '{key}'$"):
            read_config(path)

    @pytest.mark.parametrize("line", [
        "stft.window = 1000", "solver.steps = 0", "seed = -1",
        "masking.epsilon = 0", "masking.alpha = nan", "stft.hop = 2048",
    ])
    def test_values_the_owner_rejects_name_the_file(self, tmp_path, line):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}:1: "):
            read_config(path)

    @pytest.mark.parametrize("text, lineno, message", [
        ("seed = 3\n\nstft.window = 1000", 3,
         "window_size must be a power of two, got 1000"),
        ("stft.hop = 1000\nseed = 3", 1,
         "hop_size must divide window_size, got 1000 / 2048"),
        # the pair's later line, whichever key it sets
        ("stft.window = 1024\n# the hop\nstft.hop = 1024", 3,
         "stft hop 1024 > window/2 does not satisfy overlap-add"),
        ("stft.hop = 1024\nseed = 3\nstft.window = 1024", 3,
         "stft hop 1024 > window/2 does not satisfy overlap-add"),
        ("seed = 3\nsolver.steps = 0", 2, "solver steps must be at least 1, got 0"),
        ("seed = -1\nsolver.steps = 2", 1, "seed must be non-negative, got -1"),
        # a repeated key's last line, which set the value
        ("seed = 1\nmasking.alpha = 0\nseed = 2\nmasking.alpha = -1", 4,
         "masking alpha and epsilon must be positive and finite, got -1.0 and 1e-08"),
        ("masking.epsilon = 0\nmasking.alpha = 2", 2,
         "masking alpha and epsilon must be positive and finite, got 2.0 and 0.0"),
    ])
    def test_each_owner_check_names_the_line_of_its_key(self, tmp_path, text,
                                                        lineno, message):
        path = tmp_path / "run.cfg"
        path.write_text(text + "\n")
        with pytest.raises(FileFormatError) as raised:
            read_config(path)
        assert str(raised.value) == f"{path}:{lineno}: {message}"

    def test_values_are_checked_after_the_last_line(self, tmp_path):
        # window 256 fails with the default hop 512; the next line sets the hop
        path = tmp_path / "run.cfg"
        path.write_text("stft.window = 256\nstft.hop = 64\n")
        assert read_config(path)["stft.hop"] == 64

    @given(run_configs())
    def test_write_read_round_trip(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("cfg") / "config.txt"
        write_config(values, path)
        back = read_config(path)
        assert back == values
        assert {k: type(v) for k, v in back.items()} == {
            k: type(v) for k, v in values.items()}

    def test_default_config_text(self, tmp_path):
        path = tmp_path / "config.txt"
        write_config(read_config(None), path)
        assert path.read_text() == (
            "masking.alpha = 1.0\nmasking.epsilon = 1e-08\nseed = 0\n"
            "solver.steps = 30\nstft.hop = 512\nstft.window = 2048\n"
        )

    def test_every_key_is_read_outside_fileio(self):
        """Each key is read as ``mapping["key"]`` in a module other than
        fileio, so a key that no command reads fails here."""
        assert unread_keys(Path(drumsep.__file__).parent) == []


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
            "stft.window", "stft.hop", "solver.steps", "masking.alpha",
            "masking.epsilon", "seed",
        }
        assert set(CONFIG_DEFAULTS) == expected
