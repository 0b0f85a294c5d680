"""Separation and transcription metrics with grouping and aggregation.

nSDR is reported for masked estimates only; LSD and PES apply to both
masked and synthesized outputs. Apart from PES, metrics are restricted to
active stems (at least one onset in the track). Overall aggregates pool
per-track, per-class scores flattened, independent of class.

LSD's frames are independent until their mean, so ``lsd`` splits them
into one slice per lane of ``parallel.run_lanes``, under the rules in
``parallel``'s docstring. The mean is taken once over all slices, so every
bit is the same for any number of lanes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classes import CLASS_NAMES, FIVE_CLASS_GROUPS
from .parallel import run_lanes, thread_count
from .signal import (
    DEFAULT_HOP,
    DEFAULT_WINDOW,
    SignalError,
    StftConfig,
    Waveform,
    frame_signal,
    hann_window,
)
from .transcription import Transcription, match_onsets

METRIC_EPSILON = 1e-8
PES_FRAME = 512
PES_FLOOR_DB = -60.0
# Frames an LSD lane transforms at once; its buffers take about 3 MB.
LSD_BLOCK = 64


def _check_lengths(s: Waveform, s_hat: Waveform):
    if len(s) != len(s_hat):
        raise ValueError(f"length mismatch: {len(s)} vs {len(s_hat)}")


def nsdr(s: Waveform, s_hat: Waveform) -> float:
    """10*log10(||s||^2 / (||s - s_hat||^2 + eps) + eps), eps = 1e-8."""
    _check_lengths(s, s_hat)
    signal = float(np.sum(s.samples**2))
    noise = float(np.sum((s.samples - s_hat.samples) ** 2))
    return float(10.0 * np.log10(signal / (noise + METRIC_EPSILON) + METRIC_EPSILON))


def lsd(s: Waveform, s_hat: Waveform) -> float:
    """Log-spectral distance: per-frame RMS over frequency of the log power
    ratio (natural log, eps = 1e-8), averaged over frames. Window 2048,
    hop 512."""
    _check_lengths(s, s_hat)
    if len(s) == 0:
        raise SignalError("cannot take the STFT of an empty signal")
    cfg = StftConfig(DEFAULT_WINDOW, DEFAULT_HOP)
    ref, est = (frame_signal(x.samples, cfg) for x in (s, s_hat))
    n_frames = len(ref)
    lanes = thread_count(-(-n_frames // LSD_BLOCK))
    bounds = [n_frames * i // lanes for i in range(lanes + 1)]
    block = min(LSD_BLOCK, bounds[-1] - bounds[-2])
    per_frame = np.empty(n_frames)
    work = [
        (ref, est, per_frame, bounds[i], bounds[i + 1], _LsdBuffers(block, cfg))
        for i in range(lanes)
    ]
    run_lanes(_lsd_lane, work)
    return float(per_frame.mean())


class _LsdBuffers:
    """One LSD lane's buffers for ``block`` frames: windowed frames, their
    spectrum and the power spectra of reference and estimate."""

    def __init__(self, block: int, cfg: StftConfig):
        self.window = hann_window(cfg.window_size)
        self.frames = np.empty((block, cfg.window_size))
        self.spec = np.empty((block, cfg.n_bins), dtype=np.complex128)
        self.p_ref = np.empty((block, cfg.n_bins))
        self.p_est = np.empty((block, cfg.n_bins))


def _lsd_lane(ref, est, per_frame, start, stop, buf: _LsdBuffers):
    """RMS over frequency of the log power ratio of frames [start, stop)
    into ``per_frame``, in blocks that live in ``buf``. Runs on a lane (see
    ``parallel``)."""
    block = len(buf.frames)
    for a in range(start, stop, block):
        b = min(a + block, stop)
        frames, spec = buf.frames[: b - a], buf.spec[: b - a]
        p_ref, p_est = buf.p_ref[: b - a], buf.p_est[: b - a]
        for framed, power in ((ref, p_ref), (est, p_est)):
            np.multiply(framed[a:b], buf.window, out=frames)
            np.fft.rfft(frames, axis=1, out=spec)
            np.abs(spec, out=power)
            np.square(power, out=power)
            power += METRIC_EPSILON
        np.divide(p_est, p_ref, out=p_est)
        np.log(p_est, out=p_est)
        np.square(p_est, out=p_est)
        np.mean(p_est, axis=1, out=per_frame[a:b])
    np.sqrt(per_frame[start:stop], out=per_frame[start:stop])


def pes(reference: Waveform, estimate: Waveform) -> float | None:
    """Predicted energy at silence, in dB.

    Both signals are cut into non-overlapping 512-sample frames; frames whose
    reference energy is at most -60 dB count as silent. The estimate's
    per-frame energy 10*log10(sum x^2 + 1e-8) is clipped below at -60 dB and
    averaged over the silent frames. Returns None when no frame is silent.
    """
    _check_lengths(reference, estimate)
    n_frames = len(reference) // PES_FRAME
    if n_frames == 0:
        return None
    ref = reference.samples[: n_frames * PES_FRAME].reshape(n_frames, PES_FRAME)
    est = estimate.samples[: n_frames * PES_FRAME].reshape(n_frames, PES_FRAME)
    ref_db = 10.0 * np.log10(np.sum(ref**2, axis=1) + METRIC_EPSILON)
    silent = ref_db <= PES_FLOOR_DB
    if not silent.any():
        return None
    est_db = 10.0 * np.log10(np.sum(est[silent] ** 2, axis=1) + METRIC_EPSILON)
    return float(np.maximum(est_db, PES_FLOOR_DB).mean())


@dataclass(frozen=True)
class MetricsRow:
    """Metrics of one (track, class) pair; None marks inapplicable values."""

    track_id: str
    class_name: str
    active: bool
    nsdr: float | None
    lsd: float | None
    pes: float | None
    precision: float | None
    recall: float | None


# Class-to-group map of each grouping; reports list the groups in the order
# they first appear among the map's values.
_GROUPINGS = {9: {name: name for name in CLASS_NAMES}, 5: FIVE_CLASS_GROUPS}


def group_stems(
    stems: dict[str, Waveform], grouping: int
) -> dict[str, Waveform]:
    """Return stems under the requested grouping: each group is the sum of
    its members, and a group of one is its stem, not a copy (9 passes
    through; 5 sums member classes per Table-style mapping)."""
    if grouping not in _GROUPINGS:
        raise ValueError("grouping must be 9 or 5")
    grouped: dict[str, Waveform] = {}
    for name, wave in stems.items():
        g = _GROUPINGS[grouping][name]
        if g in grouped:
            wave = Waveform(grouped[g].samples + wave.samples)
        grouped[g] = wave
    return grouped


def evaluate_track(
    track_id: str,
    refs: dict[str, Waveform],
    ests: dict[str, Waveform],
    t: Transcription,
    grouping: int = 9,
    estimate_kind: str = "masked",
    est_transcription: Transcription | None = None,
) -> list[MetricsRow]:
    """Per-class metric rows for one track.

    ``refs``/``ests`` map 9-class names to stems of equal length; a stem
    pair of unequal lengths raises ValueError naming the track and class.
    nSDR is emitted only for ``estimate_kind="masked"``; PES is computed for
    every class, the rest only for active ones. Onset precision/recall, at
    the default ``match_onsets`` tolerance, is filled when an estimated
    transcription is supplied.
    """
    if set(refs) != set(ests):
        raise ValueError(
            f"reference and estimate class sets differ: {sorted(refs)} vs "
            f"{sorted(ests)}"
        )
    if estimate_kind not in ("masked", "synthesis"):
        raise ValueError(f"unknown estimate kind {estimate_kind!r}")
    for name, ref in refs.items():
        if len(ref) != len(ests[name]):
            raise ValueError(
                f"track {track_id}, class {name}: reference has {len(ref)} "
                f"samples, estimate {len(ests[name])}"
            )

    refs_g = group_stems(refs, grouping)
    ests_g = group_stems(ests, grouping)
    groups = _GROUPINGS[grouping]
    active = {groups[c] for c in t.active_classes()}

    rows = []
    for name in dict.fromkeys(groups.values()):
        if name not in refs_g:
            continue
        ref, est = refs_g[name], ests_g[name]
        is_active = name in active
        row_nsdr = row_lsd = prec = rec = None
        if is_active:
            if estimate_kind == "masked":
                row_nsdr = nsdr(ref, est)
            row_lsd = lsd(ref, est)
            if est_transcription is not None:
                prec, rec, _ = match_onsets(
                    _group_times(est_transcription, name, groups),
                    _group_times(t, name, groups),
                )
        rows.append(
            MetricsRow(
                track_id=track_id,
                class_name=name,
                active=is_active,
                nsdr=row_nsdr,
                lsd=row_lsd,
                pes=pes(ref, est),
                precision=prec,
                recall=rec,
            )
        )
    return rows


def _group_times(t: Transcription, name: str, groups: dict[str, str]) -> np.ndarray:
    """Onset times of the classes in group ``name``, unsorted."""
    return np.concatenate([t.times_for(c) for c, g in groups.items() if g == name])


METRIC_FIELDS = ("nsdr", "lsd", "pes", "precision", "recall")


def _stats(values: list[float]) -> dict[str, float | int]:
    arr = np.asarray(values, dtype=np.float64)
    return {
        "mean": float(arr.mean()),
        "median": float(np.percentile(arr, 50)),
        "q25": float(np.percentile(arr, 25)),
        "q75": float(np.percentile(arr, 75)),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "count": int(arr.size),
    }


def aggregate(rows: list[MetricsRow]) -> dict:
    """Per-class and overall summary statistics (linear-interpolation
    quantiles). None values are excluded and shrink the counts; classes with
    no valid values for a metric omit that metric."""
    if not rows:
        raise ValueError("no metric rows to aggregate")
    classes = sorted({r.class_name for r in rows})
    return {
        "per_class": {
            name: _summary([r for r in rows if r.class_name == name])
            for name in classes
        },
        "overall": _summary(rows),
    }


def _summary(rows: list[MetricsRow]) -> dict:
    """_stats of each metric over the rows' non-None values; a metric with
    none is left out."""
    summary = {}
    for metric in METRIC_FIELDS:
        values = [getattr(r, metric) for r in rows if getattr(r, metric) is not None]
        if values:
            summary[metric] = _stats(values)
    return summary
