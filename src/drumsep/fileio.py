"""File formats: WAV, transcription CSV, bank directories, NMFD magnitudes,
run config, report JSON and loss traces."""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .classes import CLASS_NAMES
from .drum_machine import OneShotBank
from .signal import SAMPLE_RATE, Waveform
from .transcription import Event, Transcription

TRANSCRIPTION_HEADER = ["onset_sec", "class", "velocity"]


class FileFormatError(ValueError):
    """A file does not conform to the documented formats."""


# ---------------------------------------------------------------------------
# WAV
# ---------------------------------------------------------------------------


def read_wav(path: str | Path) -> Waveform:
    """Read a 44.1 kHz PCM16 or float32 WAV; multichannel is averaged to
    mono, int16 is scaled by 1/32768. No resampling: other rates error out."""
    path = Path(path)
    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise FileFormatError(f"{path}: unreadable WAV ({exc})") from exc
    if rate != SAMPLE_RATE:
        raise FileFormatError(
            f"{path}: sample rate {rate} unsupported, expected 44100"
        )
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise FileFormatError(
            f"{path}: unsupported sample format {data.dtype}, expected "
            "int16 or float32"
        )
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return Waveform(samples)


def write_wav(path: str | Path, x: Waveform) -> int:
    """Write mono float32 WAV at 44.1 kHz, atomically (temp then rename).

    Samples outside [-1, 1] are clipped; returns the number clipped.
    """
    samples = x.samples
    clipped = int(np.count_nonzero((samples < -1.0) | (samples > 1.0)))
    data = np.clip(samples, -1.0, 1.0).astype(np.float32)
    _atomic_write_bytes(Path(path), _wav_bytes(data))
    return clipped


def _wav_bytes(data: np.ndarray) -> bytes:
    buf = io.BytesIO()
    wavfile.write(buf, SAMPLE_RATE, data)
    return buf.getvalue()


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


def _atomic_write_bytes(path: Path, payload: bytes):
    with _atomic_open(path) as handle:
        handle.write(payload)


def _atomic_write_text(path: Path, text: str):
    _atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# Transcription CSV
# ---------------------------------------------------------------------------


def read_transcription(path: str | Path) -> Transcription:
    """Parse `onset_sec,class,velocity` CSV; errors carry line numbers."""
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as handle:
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
    lines = [",".join(TRANSCRIPTION_HEADER)]
    for e in t.events:  # Transcription keeps (class, time) order
        lines.append(f"{e.time:.6f},{e.class_name},{e.velocity:.6f}")
    _atomic_write_text(Path(path), "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# One-shot bank directories
# ---------------------------------------------------------------------------


def read_bank(directory: str | Path) -> OneShotBank:
    """Load `<class>.wav` for all nine classes from a kit directory."""
    directory = Path(directory)
    waves = []
    for name in CLASS_NAMES:
        wav_path = directory / f"{name}.wav"
        if not wav_path.exists():
            raise FileFormatError(f"{directory}: missing one-shot {name}.wav")
        waves.append(read_wav(wav_path))
    return OneShotBank.from_waveforms(directory.name, waves)


def write_bank(bank: OneShotBank, directory: str | Path):
    directory = Path(directory)
    for k, name in enumerate(CLASS_NAMES):
        write_wav(directory / f"{name}.wav", Waveform(bank.one_shots[k]))


# ---------------------------------------------------------------------------
# NMFD magnitudes
# ---------------------------------------------------------------------------


def write_magnitudes(per_class: np.ndarray, path: str | Path):
    """Write per-class magnitudes (K x F x M) as an uncompressed ``.npz``
    with one ``<class>.npy`` member per class, atomically.

    Members are stored, not deflated: zlib shrinks float64 magnitudes by
    only 5-8 % and would cost more than the rest of ``separate nmfd``. The
    archive is streamed into the temp file rather than built in memory.
    """
    with _atomic_open(Path(path)) as handle:
        np.savez(handle, **dict(zip(CLASS_NAMES, per_class)))


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

CONFIG_DEFAULTS: dict[str, object] = {
    "stft.window": 2048,
    "stft.hop": 512,
    "loss.scales": "2048,1024,512,256",
    "solver.steps": 1000,
    "solver.lr": 5e-3,
    "solver.clip": 0.5,
    "nmfd.case": "1A",
    "masking.alpha": 1.0,
    "masking.epsilon": 1e-8,
    "seed": 0,
}


@dataclass(frozen=True)
class RunConfig:
    """Key-value run configuration; unknown keys are rejected."""

    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def loss_scales(self) -> tuple[int, ...]:
        return tuple(int(s) for s in str(self.values["loss.scales"]).split(","))


def default_config() -> RunConfig:
    return RunConfig(dict(CONFIG_DEFAULTS))


def read_config(path: str | Path) -> RunConfig:
    """Parse `section.key = value` lines; '#' starts a comment."""
    values = dict(CONFIG_DEFAULTS)
    path = Path(path)
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FileFormatError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_DEFAULTS:
            raise FileFormatError(f"{path}:{lineno}: unknown key {key!r}")
        default = CONFIG_DEFAULTS[key]
        try:
            if isinstance(default, int) and not isinstance(default, bool):
                values[key] = int(value)
            elif isinstance(default, float):
                values[key] = float(value)
            else:
                values[key] = value
        except ValueError:
            raise FileFormatError(f"{path}:{lineno}: bad value for {key}")
    return RunConfig(values)


# ---------------------------------------------------------------------------
# Reports and traces
# ---------------------------------------------------------------------------


def write_report(report: dict, path: str | Path):
    """Serialize {"tracks": [...], "aggregates": {...}} with stable keys."""
    _atomic_write_text(Path(path), json.dumps(report, indent=2, sort_keys=True) + "\n")


def write_loss_trace(trace: list[float], path: str | Path):
    lines = ["step,loss"] + [f"{i},{v:.10g}" for i, v in enumerate(trace)]
    _atomic_write_text(Path(path), "\n".join(lines) + "\n")
