"""Event lists, frame grids, peak picking and onset matching."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .classes import CLASS_INDEX, CLASS_NAMES, NUM_CLASSES
from .drum_machine import FrameActivations
from .signal import SAMPLE_RATE, Waveform, log_mel

ONSET_TOLERANCE_SEC = 0.05


class Event(NamedTuple):
    time: float
    class_name: str
    velocity: float


@dataclass(frozen=True)
class Transcription:
    """Onset events (time in seconds, drum class, velocity in [0,2]),
    kept sorted by time within each class."""

    events: tuple[Event, ...]

    def __post_init__(self):
        for e in self.events:
            if e.class_name not in CLASS_INDEX:
                raise ValueError(f"unknown drum class {e.class_name!r}")
            if not np.isfinite(e.time) or e.time < 0:
                raise ValueError(f"invalid onset time {e.time!r}")
            if not 0 <= e.velocity <= 2:
                raise ValueError(f"velocity {e.velocity!r} outside [0, 2]")
        ordered = tuple(
            sorted(self.events, key=lambda e: (CLASS_INDEX[e.class_name], e.time))
        )
        object.__setattr__(self, "events", ordered)

    def times_for(self, class_name: str) -> np.ndarray:
        return np.array(
            [e.time for e in self.events if e.class_name == class_name]
        )

    def active_classes(self) -> set[str]:
        return {e.class_name for e in self.events}

    def __len__(self) -> int:
        return len(self.events)


class GridRangeError(ValueError):
    """An event falls beyond the activation grid."""


def nearest_frame(time_sec: float, hop: int) -> int:
    """Nearest frame to a time; an exact half-frame tie rounds down."""
    pos = time_sec * SAMPLE_RATE / hop
    return max(0, int(np.ceil(pos - 0.5)))


def events_to_grid(t: Transcription, n_frames: int, hop: int) -> FrameActivations:
    """Place each event on its nearest frame: onset 1 and the event velocity
    at that cell, zeros elsewhere."""
    onsets = np.zeros((NUM_CLASSES, n_frames))
    velocities = np.zeros((NUM_CLASSES, n_frames))
    for e in t.events:
        m = nearest_frame(e.time, hop)
        if m >= n_frames:
            raise GridRangeError(
                f"event at {e.time:.6f} s ({e.class_name}) maps to frame {m} "
                f"beyond grid of {n_frames} frames"
            )
        k = CLASS_INDEX[e.class_name]
        onsets[k, m] = 1.0
        velocities[k, m] = e.velocity
    return FrameActivations(onsets, velocities, hop)


def grid_to_events(acts: FrameActivations) -> Transcription:
    """Inverse of events_to_grid up to frame quantization."""
    events = []
    ks, ms = np.nonzero(acts.onsets)
    for k, m in zip(ks, ms):
        time = m * acts.hop_size / SAMPLE_RATE
        events.append(Event(time, CLASS_NAMES[k], float(acts.velocities[k, m])))
    return Transcription(tuple(events))


@dataclass(frozen=True)
class PeakPickConfig:
    """Windows (in frames) for the local-max / local-mean onset heuristic."""

    pre_max: int = 1
    post_max: int = 1
    pre_avg: int = 2
    post_avg: int = 2
    delta: float = 0.05
    wait: int = 2

    def __post_init__(self):
        if min(self.pre_max, self.post_max, self.pre_avg, self.post_avg, self.wait) < 0:
            raise ValueError("peak-picking windows must be non-negative")


def peak_pick(curve: np.ndarray, cfg: PeakPickConfig = PeakPickConfig()) -> np.ndarray:
    """Select frames that are local maxima exceeding a local mean by delta,
    at least ``wait`` frames after the previous selection.

    Windows are clipped at the curve boundaries.
    """
    curve = np.asarray(curve, dtype=np.float64)
    if not np.all(np.isfinite(curve)):
        raise ValueError("activation curve contains non-finite values")
    picks = []
    last = None
    for n in range(len(curve)):
        lo = max(0, n - cfg.pre_max)
        hi = min(len(curve), n + cfg.post_max + 1)
        if curve[n] < curve[lo:hi].max():
            continue
        lo = max(0, n - cfg.pre_avg)
        hi = min(len(curve), n + cfg.post_avg + 1)
        if curve[n] < curve[lo:hi].mean() + cfg.delta:
            continue
        if last is not None and n - last <= cfg.wait:
            continue
        picks.append(n)
        last = n
    return np.array(picks, dtype=int)


def spectral_flux_curve(x: Waveform) -> np.ndarray:
    """Class-agnostic onset envelope: half-wave-rectified log-mel flux
    summed over bands, scaled to [0, 1] by its maximum."""
    mel = log_mel(x)
    flux = np.maximum(0.0, np.diff(mel, axis=1, prepend=mel[:, :1])).sum(axis=0)
    peak = flux.max()
    return flux / peak if peak > 0 else flux


def match_onsets(
    est: np.ndarray, ref: np.ndarray, tolerance: float = ONSET_TOLERANCE_SEC
) -> tuple[float, float, float]:
    """Score estimated against reference onsets (times in seconds).

    Pairs onsets within ``tolerance`` of each other, each onset used at most
    once, and counts the largest number of such pairs. Both lists empty
    scores (1,1,1); exactly one empty scores (0,0,0).

    A greedy pass over both lists in time order finds that maximum. The
    onsets that lie within the tolerance of a time t form a contiguous run
    of the sorted list, and the run moves right as t grows; the rounding of
    ``e - r`` is monotone in both times, so this holds for the float test
    too. Take the earliest unmatched onset of each list. If they are within
    the tolerance, some maximum matching pairs them: in any maximum
    matching, swapping their partners keeps every pair within it. If they
    are not, the earlier of the two cannot reach any later onset of the
    other list either, so it can be dropped.
    """
    est = np.sort(np.asarray(est, dtype=np.float64))
    ref = np.sort(np.asarray(ref, dtype=np.float64))
    if len(est) == 0 and len(ref) == 0:
        return 1.0, 1.0, 1.0
    if len(est) == 0 or len(ref) == 0:
        return 0.0, 0.0, 0.0

    hits = i = j = 0
    while i < len(est) and j < len(ref):
        if abs(est[i] - ref[j]) <= tolerance:
            hits += 1
            i += 1
            j += 1
        elif est[i] < ref[j]:
            i += 1
        else:
            j += 1
    precision = hits / len(est)
    recall = hits / len(ref)
    f1 = 0.0 if hits == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1
