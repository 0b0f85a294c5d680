"""Event lists, onset placement, frame grids, peak picking and matching."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .classes import CLASS_INDEX, NUM_CLASSES
from .drum_machine import FrameActivations
from .signal import DEFAULT_HOP, SAMPLE_RATE, Waveform, log_mel

ONSET_TOLERANCE_SEC = 0.05

# Peak picking, in frames of the onset curve: a pick is the largest value
# within PEAK_MAX_RADIUS frames, exceeds the mean within PEAK_MEAN_RADIUS
# frames by delta, and lies more than PEAK_WAIT frames after the last pick.
PEAK_MAX_RADIUS = 1
PEAK_MEAN_RADIUS = 2
PEAK_WAIT = 2
PEAK_DELTA = 0.05


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
    """An event falls past the track's last whole hop."""


def nearest_frame(time_sec: float, hop: int) -> int:
    """Nearest frame to a time; an exact half-frame tie rounds down."""
    pos = time_sec * SAMPLE_RATE / hop
    return max(0, int(np.ceil(pos - 0.5)))


def onset_samples(
    t: Transcription, n_samples: int, hop: int = DEFAULT_HOP
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Each event's (class, sample position) in ``t.events`` order, the
    order of ``onset_index``, and the velocities. An event sounds on its
    nearest hop, and same-class events on one hop all sound; one past the
    track's ``max(1, n_samples // hop)`` whole hops raises ``GridRangeError``."""
    n_frames = max(1, n_samples // hop)
    onsets = []
    for e in t.events:
        m = nearest_frame(e.time, hop)
        if m >= n_frames:
            raise GridRangeError(
                f"event at {e.time:.6f} s ({e.class_name}) falls past the last "
                f"whole {hop}-sample hop of the {n_samples / SAMPLE_RATE:g} s track"
            )
        onsets.append((CLASS_INDEX[e.class_name], m * hop))
    return onsets, np.array([e.velocity for e in t.events])


def events_to_grid(t: Transcription, n_frames: int, hop: int) -> FrameActivations:
    """The frames of ``onset_samples``: onset 1 and the event velocity at
    each event's frame, zeros elsewhere; of events sharing a cell, the later
    one's velocity is kept."""
    onsets = np.zeros((NUM_CLASSES, n_frames))
    velocities = np.zeros((NUM_CLASSES, n_frames))
    for (k, pos), v in zip(*onset_samples(t, n_frames * hop, hop)):
        onsets[k, pos // hop] = 1.0
        velocities[k, pos // hop] = v
    return FrameActivations(onsets, velocities, hop)


def peak_pick(curve: np.ndarray, delta: float = PEAK_DELTA) -> np.ndarray:
    """Select frames that are local maxima exceeding a local mean by
    ``delta``, more than PEAK_WAIT frames after the previous selection.

    Windows are clipped at the curve boundaries.
    """
    curve = np.asarray(curve, dtype=np.float64)
    if not np.all(np.isfinite(curve)):
        raise ValueError("activation curve contains non-finite values")
    picks = []
    last = None
    for n in range(len(curve)):
        lo = max(0, n - PEAK_MAX_RADIUS)
        hi = min(len(curve), n + PEAK_MAX_RADIUS + 1)
        if curve[n] < curve[lo:hi].max():
            continue
        lo = max(0, n - PEAK_MEAN_RADIUS)
        hi = min(len(curve), n + PEAK_MEAN_RADIUS + 1)
        if curve[n] < curve[lo:hi].mean() + delta:
            continue
        if last is not None and n - last <= PEAK_WAIT:
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
