"""Output checks and the benchmark's own quality measures.

Nothing here imports drumsep: a change to the program's metrics code cannot
move the gate that scores it.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from inputs import CLASS_NAMES, SAMPLE_RATE, read_wav

# Acceptance criterion 6 of the test suite bounds the mask partition error
# by the same figure.
SUM_TOLERANCE_DB = -60.0
NSDR_EPS = 1e-8
# The report's nSDR must match the closed form on the same files.
REPORT_NSDR_TOLERANCE_DB = 1e-3


def nsdr_db(reference: np.ndarray, estimate: np.ndarray) -> float:
    """10 log10(||s||^2 / (||s - s_hat||^2 + eps) + eps), eps = 1e-8."""
    signal = float(np.sum(reference**2))
    noise = float(np.sum((reference - estimate) ** 2))
    return float(10.0 * np.log10(signal / (noise + NSDR_EPS) + NSDR_EPS))


def residual_db(parts: np.ndarray, whole: np.ndarray) -> float:
    """Energy of (sum of parts - whole) relative to the whole, in dB."""
    err = float(np.sum((parts.sum(axis=0) - whole) ** 2))
    return float(10.0 * np.log10(err / max(float(np.sum(whole**2)), 1e-30) + 1e-30))


def read_stems(directory: Path, length: int) -> np.ndarray:
    """The nine `<class>.wav` stems of a directory; raises if any is missing
    or has the wrong length."""
    stems = np.stack([read_wav(directory / f"{name}.wav") for name in CLASS_NAMES])
    if stems.shape[1] != length:
        raise ValueError(f"{directory}: stems have {stems.shape[1]} samples, expected {length}")
    return stems


def stems_sum_to(directory: Path, mixture: np.ndarray) -> tuple[bool, np.ndarray | None]:
    """Check that the stems in ``directory`` sum to ``mixture`` within
    SUM_TOLERANCE_DB; returns (passed, stems or None if unreadable)."""
    try:
        stems = read_stems(directory, len(mixture))
    except (OSError, ValueError):
        return False, None
    return residual_db(stems, mixture) <= SUM_TOLERANCE_DB, stems


def separation_scores(refs: np.ndarray, ests: np.ndarray, mixture: np.ndarray,
                      active: list[int]) -> list[tuple[float, float]]:
    """(nSDR, nSDR improvement) of each active class's estimate; the
    improvement is over taking the mixture itself as the estimate."""
    return [(v, v - nsdr_db(refs[k], mixture))
            for k, v in ((k, nsdr_db(refs[k], ests[k])) for k in active)]


def check_report(path: Path, expected: dict[str, dict[str, tuple[bool, float]]]) -> bool:
    """An evaluate report passes when it has exactly one row per (track,
    class), the active flags match the transcriptions, and each active row's
    nSDR matches the closed form. ``expected[track][class]`` is (active,
    closed-form nSDR)."""
    try:
        rows = json.loads(path.read_text())["tracks"]
    except (OSError, ValueError, KeyError, TypeError):
        return False
    seen = set()
    for row in rows:
        try:
            key = (row["track"], row["class"])
            active, want = expected[key[0]][key[1]]
        except (KeyError, TypeError):
            return False
        if key in seen or row["active"] != active:
            return False
        seen.add(key)
        if active and (row["nsdr"] is None
                       or abs(row["nsdr"] - want) > REPORT_NSDR_TOLERANCE_DB):
            return False
    return len(seen) == sum(len(v) for v in expected.values())


def check_onsets(path: Path, duration: float, expect_onsets: bool) -> bool:
    """A detect-onsets file passes when it has the transcription header,
    every onset lies inside the track, and it is not empty unless the track
    has no onsets (short generated tracks can have none)."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = [r for r in csv.reader(handle) if r]
    except OSError:
        return False
    if not rows or rows[0] != ["onset_sec", "class", "velocity"]:
        return False
    try:
        times = [float(r[0]) for r in rows[1:]]
    except (ValueError, IndexError):
        return False
    if expect_onsets and not times:
        return False
    return all(0.0 <= t <= duration + 1.0 / SAMPLE_RATE for t in times)
