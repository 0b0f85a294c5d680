"""File formats: WAV, transcription CSV, class-stem and bank directories,
NMFD magnitudes, run config, report JSON and loss traces.

Every file is written atomically, through a temp file renamed into place.
Every WAV file is written by ``wav_blocks``, as sample ranges in any order:
``write_wav`` writes a whole track through it in ranges, and
``stem_blocks`` opens one per class."""

from __future__ import annotations

import csv
import io
import json
import os
import struct
import tempfile
import zipfile
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from .abs_solver import LSQ_ITERATIONS, OptimizerConfig, check_iterations
from .classes import CLASS_NAMES
from .drum_machine import ONE_SHOT_LENGTH, OneShotBank
from .masking import DEFAULT_ALPHA, MASK_EPSILON, check_mask_params
from .signal import (
    DEFAULT_HOP,
    DEFAULT_WINDOW,
    SAMPLE_RATE,
    SignalError,
    StftConfig,
    Waveform,
)
from .transcription import Event, Transcription

TRANSCRIPTION_HEADER = ["onset_sec", "class", "velocity"]


class FileFormatError(ValueError):
    """A file does not conform to the documented formats."""


# ---------------------------------------------------------------------------
# WAV
# ---------------------------------------------------------------------------


# Format tags and the sub-format GUID tail shared by PCM and IEEE float in a
# WAVE_FORMAT_EXTENSIBLE header (RFC 2361).
_WAVE_PCM = 1
_WAVE_FLOAT = 3
_WAVE_EXTENSIBLE = 0xFFFE
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# The longest track a WAV file can hold: the RIFF size field, 32 bits,
# counts 50 header bytes and 4 bytes a sample.
MAX_WAV_SAMPLES = (0xFFFFFFFF - 50) // 4
# The samples ``write_wav`` writes at once, through 256 KiB of float32
# scratch; one ``pwrite`` on Linux moves at most 0x7ffff000 bytes. The CLI
# renders the tracks it writes in ranges of this many samples too.
WAV_RANGE = 2**16


def read_wav(path: str | Path) -> Waveform:
    """Read a 44.1 kHz PCM16 or float32 RIFF/WAVE file; multichannel is
    averaged to mono, int16 is scaled by 1/32768. No resampling: other rates
    error out.

    The format tag may be 1 (PCM), 3 (IEEE float) or 0xFFFE
    (WAVE_FORMAT_EXTENSIBLE) with one of those two as its sub-format. Chunks
    other than ``fmt `` and ``data`` are skipped, with the pad byte that
    follows an odd-sized chunk. Any other file, a ``data`` chunk that runs
    past the end of the file, and a NaN or infinite sample raise
    FileFormatError naming ``path``.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        riff = handle.read(12)
        if len(riff) < 12 or riff[:4] != b"RIFF" or riff[8:] != b"WAVE":
            raise FileFormatError(f"{path}: unreadable WAV (not a RIFF/WAVE file)")
        fmt = None
        while True:
            header = handle.read(8)
            if len(header) < 8:
                missing = "fmt" if fmt is None else "data"
                raise FileFormatError(f"{path}: malformed WAV: no {missing} chunk")
            chunk_id, size = struct.unpack("<4sI", header)
            if chunk_id == b"data":
                break
            start = handle.tell()
            if chunk_id == b"fmt ":
                fmt = handle.read(size)
            handle.seek(start + size + (size & 1))
        if fmt is None:
            raise FileFormatError(f"{path}: malformed WAV: no fmt chunk before data")
        held = os.fstat(handle.fileno()).st_size - handle.tell()
        if size > held:
            raise FileFormatError(
                f"{path}: truncated WAV: data chunk declares {size} bytes, "
                f"file holds {held}"
            )
        dtype, channels, rate = _wav_sample_format(path, fmt)
        if rate != SAMPLE_RATE:
            raise FileFormatError(
                f"{path}: sample rate {rate} unsupported, expected 44100"
            )
        frames = size // (dtype.itemsize * channels)
        data = np.fromfile(handle, dtype, frames * channels)
    samples = data.astype(np.float64)
    if dtype.kind == "i":
        samples /= 32768.0
    if channels > 1:
        samples = samples.reshape(frames, channels).mean(axis=1)
    try:
        return Waveform(samples)
    except SignalError:
        bad = np.flatnonzero(~np.isfinite(samples))[0]
        raise FileFormatError(f"{path}: non-finite sample at index {bad}") from None


def _wav_sample_format(path: Path, fmt: bytes) -> tuple[np.dtype, int, int]:
    """(sample dtype, channels, sample rate) of a ``fmt `` chunk body that
    describes PCM16 or float32; anything else raises FileFormatError."""
    if len(fmt) < 16:
        raise FileFormatError(f"{path}: malformed WAV: fmt chunk of {len(fmt)} bytes")
    tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == _WAVE_EXTENSIBLE:
        if len(fmt) < 40 or struct.unpack_from("<H", fmt, 16)[0] < 22:
            raise FileFormatError(
                f"{path}: malformed WAV: WAVE_FORMAT_EXTENSIBLE fmt chunk too short")
        if fmt[28:40] == _GUID_TAIL:
            (tag,) = struct.unpack_from("<I", fmt, 24)
    if tag == _WAVE_PCM and 8 < bits <= 16 and block_align == 2 * channels > 0:
        return np.dtype("<i2"), channels, rate
    if tag == _WAVE_FLOAT and bits == 32 and block_align == 4 * channels > 0:
        return np.dtype("<f4"), channels, rate
    raise FileFormatError(
        f"{path}: unsupported sample format (format tag {tag:#x}, {bits}-bit, "
        f"{channels} channels), expected PCM16 or float32"
    )


def write_wav(path: str | Path, x: Waveform):
    """Write mono float32 WAV at 44.1 kHz, atomically (temp then rename),
    through ``wav_blocks`` in ranges of ``WAV_RANGE`` samples. Samples
    outside [-1, 1] are clipped."""
    samples = x.samples
    scratch = np.empty(min(len(samples), WAV_RANGE), dtype=np.float32)
    with wav_blocks(path, len(samples)) as blocks:
        for start in range(0, len(samples), WAV_RANGE):
            blocks.write(start, samples[start : start + WAV_RANGE], scratch)


def _wav_header(path: str | Path, n_samples: int) -> bytes:
    """The header of a mono float32 WAV of ``n_samples`` samples at 44.1
    kHz: scipy.io.wavfile's layout for float data, an 18-byte ``fmt `` chunk
    (tag 3, cbSize 0), a ``fact`` chunk with the sample count, then the
    ``data`` chunk's header. A track past ``MAX_WAV_SAMPLES`` raises
    ValueError naming ``path``."""
    if n_samples > MAX_WAV_SAMPLES:
        raise ValueError(f"{path}: {n_samples} samples exceed a RIFF WAV's 4 GiB")
    return struct.pack(
        "<4sI4s" "4sIHHIIHHH" "4sII" "4sI",
        b"RIFF", 50 + 4 * n_samples, b"WAVE",  # the size after these 8 bytes
        b"fmt ", 18, _WAVE_FLOAT, 1, SAMPLE_RATE, 4 * SAMPLE_RATE, 4, 32, 0,
        b"fact", 4, n_samples,
        b"data", 4 * n_samples,
    )


class WavBlocks:
    """A float32 WAV file that ``wav_blocks`` opens, written one sample
    range at a time, in any order."""

    def __init__(self, path: Path, fd: int, offset: int):
        self._path, self._fd, self._offset = path, fd, offset

    def write(self, start: int, samples: np.ndarray, scratch: np.ndarray):
        """Write ``samples`` as the track's samples from ``start`` on,
        clipped to [-1, 1] and rounded to float32, through ``scratch``, a
        float32 array at least as long. Threads may write disjoint ranges
        at once: each write is one ``os.pwrite``."""
        data = np.clip(samples, -1.0, 1.0, out=scratch[: len(samples)])
        data = data.astype("<f4", copy=False)  # no copy on a little-endian host
        if os.pwrite(self._fd, data, self._offset + 4 * start) != data.nbytes:
            raise OSError(f"{self._path}: short write")


@contextmanager
def wav_blocks(path: str | Path, n_samples: int):
    """Yield a ``WavBlocks`` for a mono float32 WAV of ``n_samples``
    samples at 44.1 kHz, laid out as ``_wav_header`` says. The file is
    sized up front, so samples never written read as 0.0, the bytes a
    written +0.0 gives; the masking kernel leaves silent ranges unwritten.
    The file is written atomically: a temp file, renamed onto ``path``
    when the block ends and deleted if it raises."""
    path = Path(path)
    header = _wav_header(path, n_samples)
    with _atomic_open(path) as handle:
        handle.write(header)
        handle.truncate(len(header) + 4 * n_samples)
        yield WavBlocks(path, handle.fileno(), len(header))


@contextmanager
def _atomic_open(path: Path):
    """Yield a binary handle on a temp file beside ``path``. The file is
    renamed onto ``path`` when the block ends and deleted if it raises, so
    ``path`` never holds a partial write."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_text(path: Path, text: str):
    with _atomic_open(path) as handle:
        handle.write(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# Transcription CSV
# ---------------------------------------------------------------------------


def _read_text(path: Path) -> str:
    """The UTF-8 text of ``path``; other bytes raise FileFormatError naming
    the path and the line they are on."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FileFormatError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def read_transcription(path: str | Path) -> Transcription:
    """Parse `onset_sec,class,velocity` CSV; errors carry line numbers."""
    path = Path(path)
    with io.StringIO(_read_text(path), newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise FileFormatError(f"{path}: empty transcription file")
        if header != TRANSCRIPTION_HEADER:
            raise FileFormatError(
                f"{path}:1: bad header {header!r}, expected "
                f"{','.join(TRANSCRIPTION_HEADER)}"
            )
        events = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise FileFormatError(f"{path}:{lineno}: expected 3 columns")
            time_s, class_name, velocity = row
            # Transcription holds the checks; one row at a time gives its
            # error the row's line.
            try:
                event = Event(float(time_s), class_name, float(velocity))
                Transcription((event,))
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: {exc}") from None
            events.append(event)
    return Transcription(tuple(events))


def write_transcription(t: Transcription, path: str | Path):
    """Write events sorted by (class, time), 6 decimal places, LF endings."""
    # Transcription keeps (class, time) order.
    _write_event_rows(((e.time, e.class_name, e.velocity) for e in t.events), path)


def write_onsets(times: np.ndarray, strengths: np.ndarray, path: str | Path):
    """Write class-agnostic onsets in the transcription layout: class
    ``unknown``, which ``read_transcription`` rejects, and each onset's
    strength in the velocity column."""
    _write_event_rows(((t, "unknown", s) for t, s in zip(times, strengths)), path)


def _write_event_rows(rows, path: str | Path):
    lines = [",".join(TRANSCRIPTION_HEADER)]
    lines += [f"{time:.6f},{name},{value:.6f}" for time, name, value in rows]
    _atomic_write_text(Path(path), "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Class-stem and one-shot bank directories
# ---------------------------------------------------------------------------


def read_stems(directory: str | Path) -> dict[str, Waveform]:
    """Load `<class>.wav` for all nine classes from a directory, by class."""
    directory = Path(directory)
    stems = {}
    for name in CLASS_NAMES:
        path = directory / f"{name}.wav"
        if not path.exists():
            raise FileFormatError(f"{directory}: missing {name}.wav")
        stems[name] = read_wav(path)
    return stems


def write_stems(stems: np.ndarray, directory: str | Path):
    """Write the rows of a K x T array as `<class>.wav`, in class order."""
    directory = Path(directory)
    for name, samples in zip(CLASS_NAMES, stems):
        write_wav(directory / f"{name}.wav", Waveform(samples))


@contextmanager
def stem_blocks(directory: str | Path, n_samples: int):
    """Yield one ``WavBlocks`` per class, in class order, for the
    `<class>.wav` stems of ``n_samples`` samples in ``directory``: the bytes
    ``write_stems`` writes once every sample is written. All files are
    renamed into place when the block ends, and deleted if it raises."""
    directory = Path(directory)
    with ExitStack() as stack:
        yield [stack.enter_context(wav_blocks(directory / f"{name}.wav", n_samples))
               for name in CLASS_NAMES]


def read_bank(directory: str | Path) -> OneShotBank:
    """A stem directory as a kit named after it; each one-shot is cut or
    zero-padded to one second. A sample of that second outside [-1, 1]
    raises FileFormatError naming the file and the sample."""
    directory = Path(directory)
    stems = read_stems(directory)
    for name, wave in stems.items():
        over = np.flatnonzero(np.abs(wave.samples[:ONE_SHOT_LENGTH]) > 1.0)
        if over.size:
            raise FileFormatError(f"{directory / f'{name}.wav'}: one-shot sample "
                                  f"{over[0]} lies outside [-1, 1]")
    return OneShotBank.from_waveforms(directory.name, list(stems.values()))


def write_bank(bank: OneShotBank, directory: str | Path):
    write_stems(bank.one_shots, directory)


# ---------------------------------------------------------------------------
# NMFD magnitudes
# ---------------------------------------------------------------------------


def write_magnitudes(rows, path: str | Path):
    """Write per-class magnitudes, the F x M rows that ``rows`` yields in
    class order, as an uncompressed ``.npz`` with one ``<class>.npy`` member
    per class, atomically: the bytes of ``np.savez`` of the stacked rows.
    Each member is written as its row comes, so a caller may build one row
    at a time.

    Members are stored, not deflated: zlib shrinks float64 magnitudes by
    only 5-8 % and would cost more than the rest of ``separate nmfd``. The
    archive is streamed into the temp file rather than built in memory.
    """
    with (_atomic_open(Path(path)) as handle,
          zipfile.ZipFile(handle, "w", zipfile.ZIP_STORED, allowZip64=True) as archive):
        for name, row in zip(CLASS_NAMES, rows):
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(member, np.asanyarray(row))


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

# Each default is read from the module that owns it; its type is the key's.
CONFIG_DEFAULTS: dict[str, object] = {
    "stft.window": DEFAULT_WINDOW,
    "stft.hop": DEFAULT_HOP,
    "solver.steps": LSQ_ITERATIONS,
    "masking.alpha": DEFAULT_ALPHA,
    "masking.epsilon": MASK_EPSILON,
    "seed": OptimizerConfig.seed,
}


def read_config(path: str | Path | None) -> dict[str, object]:
    """CONFIG_DEFAULTS overridden by the `section.key = value` lines of
    ``path``, if given; '#' starts a comment. Each value takes its default's
    type. A value its owner rejects names the key's line, or the later line
    of the keys an owner checks together."""
    values = dict(CONFIG_DEFAULTS)
    lines: dict[str, int] = {}  # the line of each key the file sets
    text = _read_text(Path(path)).splitlines() if path else []
    for lineno, raw in enumerate(text, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FileFormatError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_DEFAULTS:
            raise FileFormatError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = type(CONFIG_DEFAULTS[key])(value)
        except ValueError:
            raise FileFormatError(f"{path}:{lineno}: bad value for {key}") from None
        lines[key] = lineno
    # after the last line, as stft.window and stft.hop bound each other; a
    # check fails only on a value the file set, as the defaults pass
    for keys, check in _owner_checks(values):
        try:
            check()
        except ValueError as exc:
            lineno = max(lines[k] for k in keys if k in lines)
            raise FileFormatError(f"{path}:{lineno}: {exc}") from None
    return values


def _owner_checks(config: dict[str, object]) -> list[tuple[tuple[str, ...], object]]:
    """Each owning type's check of ``config``, with the keys it reads."""
    return [
        (("stft.window", "stft.hop"),
         lambda: StftConfig(config["stft.window"], config["stft.hop"])),
        (("solver.steps",), lambda: check_iterations(config["solver.steps"])),
        (("seed",), lambda: OptimizerConfig(seed=config["seed"])),
        (("masking.alpha", "masking.epsilon"),
         lambda: check_mask_params(config["masking.alpha"], config["masking.epsilon"])),
    ]


def check_config(config: dict[str, object]):
    """Raise ValueError unless the owner of every value accepts it."""
    for _, check in _owner_checks(config):
        check()


def write_config(config: dict[str, object], path: str | Path):
    """Write one `key = value` line per key, sorted; read_config reads the
    file back to the same values."""
    lines = [f"{key} = {value}" for key, value in sorted(config.items())]
    _atomic_write_text(Path(path), "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Reports and traces
# ---------------------------------------------------------------------------


def write_report(report: dict, path: str | Path):
    """Serialize {"tracks": [...], "aggregates": {...}} with stable keys."""
    _atomic_write_text(Path(path), json.dumps(report, indent=2, sort_keys=True) + "\n")


def write_loss_trace(trace: list[float], path: str | Path):
    lines = ["step,loss"] + [f"{i},{v:.10g}" for i, v in enumerate(trace)]
    _atomic_write_text(Path(path), "\n".join(lines) + "\n")
