"""Separation and transcription metrics with grouping and aggregation.

nSDR is reported for masked estimates only; LSD and PES apply to both
masked and synthesized outputs. Apart from PES, metrics are restricted to
active stems (at least one onset in the track). Overall aggregates pool
per-track, per-class scores flattened, independent of class.

Every score comes from one lane code, which ``nsdr``, ``lsd`` and ``pes``
run on a single pair and ``evaluate_track`` on all of a track's groups at
once, in one ``parallel.run_lanes`` call under the rules in ``parallel``'s
docstring. Lane i of L takes frames [M*i/L, M*(i+1)/L) of every LSD pair,
M being the pair's frame count, and the nSDR and PES of pairs i, i + L,
.... The calling thread allocates every buffer and takes each LSD as one
mean over the pair's whole row of per-frame distances; nSDR and PES sum
whole rows as one numpy sum each. So every bit is the same for any number
of lanes.

An LSD lane frames a block of frames from a span buffer that holds the
samples they cover, zero past the track's ends (``signal.fill_span``), so
no padded copy of a stem exists. A frame with no non-zero sample
(``signal.sounding_frames``) is not transformed: its power is exactly 0 +
eps, which the lane writes instead.
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
    fill_span,
    frame_span,
    hann_window,
    num_frames,
    sounding_frames,
    sounding_span,
)
from .transcription import Transcription, match_onsets

METRIC_EPSILON = 1e-8
PES_FRAME = 512
PES_FLOOR_DB = -60.0
# Frames an LSD lane transforms at once; its buffers take about 3.7 MB,
# which its nSDR and PES row then reuses.
LSD_BLOCK = 64
_LSD_CONFIG = StftConfig(DEFAULT_WINDOW, DEFAULT_HOP)


def _check_lengths(s: Waveform, s_hat: Waveform):
    if len(s) != len(s_hat):
        raise ValueError(f"length mismatch: {len(s)} vs {len(s_hat)}")


def nsdr(s: Waveform, s_hat: Waveform) -> float:
    """10*log10(||s||^2 / (||s - s_hat||^2 + eps) + eps), eps = 1e-8."""
    _check_lengths(s, s_hat)
    return _score([(s.samples, s_hat.samples, ("nsdr",))])[0]["nsdr"]


def lsd(s: Waveform, s_hat: Waveform) -> float:
    """Log-spectral distance: per-frame RMS over frequency of the log power
    ratio (natural log, eps = 1e-8), averaged over frames. Window 2048,
    hop 512."""
    _check_lengths(s, s_hat)
    if len(s) == 0:
        raise SignalError("cannot take the STFT of an empty signal")
    return _score([(s.samples, s_hat.samples, ("lsd",))])[0]["lsd"]


def pes(reference: Waveform, estimate: Waveform) -> float | None:
    """Predicted energy at silence, in dB.

    Both signals are cut into non-overlapping 512-sample frames; frames whose
    reference energy is at most -60 dB count as silent. The estimate's
    per-frame energy 10*log10(sum x^2 + 1e-8) is clipped below at -60 dB and
    averaged over the silent frames. Returns None when no frame is silent.
    """
    _check_lengths(reference, estimate)
    return _score([(reference.samples, estimate.samples, ("pes",))])[0]["pes"]


def _score(pairs: list[tuple[np.ndarray, np.ndarray, tuple[str, ...]]]) -> list[dict]:
    """Each (reference, estimate, metric names) pair's scores, by metric
    name, from one ``run_lanes`` call (see the module docstring). The two
    rows of a pair are equal in length, and non-empty for LSD."""
    per_frame = {j: np.empty(num_frames(len(ref), _LSD_CONFIG))
                 for j, (ref, _, metrics) in enumerate(pairs) if "lsd" in metrics}
    longest = max(map(len, per_frame.values()), default=0)
    lanes = thread_count(max(len(pairs), -(-longest // LSD_BLOCK)))
    block = max(1, min(LSD_BLOCK, -(-longest // lanes)))
    row = max((len(ref) for ref, _, metrics in pairs if "nsdr" in metrics
               or "pes" in metrics), default=0)
    scores = [{} for _ in pairs]
    for lane_scores in run_lanes(_score_lane, [
        (pairs, per_frame, i, lanes, _ScoreBuffers(block, row))
        for i in range(lanes)
    ]):
        for j, score in lane_scores:
            scores[j] |= score
    for j, distances in per_frame.items():
        scores[j]["lsd"] = float(distances.mean())
    return scores


class _ScoreBuffers:
    """One scoring lane's buffers. For ``block`` LSD frames: one spectrum,
    the power spectra of reference and estimate, windowed frames, and the
    samples the frames cover in both, with those frames as a view, and
    their sounding flags. For nSDR and PES: a row of ``row`` samples, and
    PES's per-frame energies, silent flags and the energies it averages.
    A lane is done with its LSD frames before it starts on nSDR and PES,
    so the row takes the memory of the LSD buffers."""

    def __init__(self, block: int, row: int):
        window, stride = DEFAULT_WINDOW, DEFAULT_WINDOW // DEFAULT_HOP
        bins, width = block * _LSD_CONFIG.n_bins, (block - 1) * DEFAULT_HOP + window
        memory = np.empty(max(row, 4 * bins + block * window + 2 * width))
        self.spec = memory[: 2 * bins].view(np.complex128).reshape(block, -1)
        self.power = memory[2 * bins : 4 * bins].reshape(2, block, -1)
        self.frames = memory[4 * bins :][: block * window].reshape(block, window)
        self.span = memory[4 * bins + block * window :][: 2 * width].reshape(2, width)
        self.span_frames = frame_span(self.span, _LSD_CONFIG)
        self.sounding = np.empty(2 * (block + stride - 1), dtype=bool)
        self.row = memory[:row]
        self.energy = np.empty(row // PES_FRAME)
        self.silent = np.empty(row // PES_FRAME, dtype=bool)
        self.kept = np.empty(row // PES_FRAME)


def _score_lane(pairs, per_frame: dict, lane: int, lanes: int, buf: _ScoreBuffers):
    """Lane ``lane`` of ``lanes``: its slice of every LSD pair's frames
    into ``per_frame``, then the nSDR and PES of pairs lane, lane + lanes,
    ...; returns those as (pair index, scores). Runs on a lane (see
    ``parallel``)."""
    for j, distances in per_frame.items():
        m = len(distances)
        _lsd_frames(pairs[j][0], pairs[j][1], distances,
                    m * lane // lanes, m * (lane + 1) // lanes, buf)
    scores = []
    for j in range(lane, len(pairs), lanes):
        ref, est, metrics = pairs[j]
        score = {}
        if "nsdr" in metrics:
            score["nsdr"] = _nsdr(ref, est, buf)
        if "pes" in metrics:
            score["pes"] = _pes(ref, est, buf)
        scores.append((j, score))
    return scores


def _nsdr(ref: np.ndarray, est: np.ndarray, buf: _ScoreBuffers) -> float:
    """``nsdr``, squaring into ``buf.row``."""
    row = buf.row[: len(ref)]
    np.square(ref, out=row)
    signal = float(row.sum())
    np.subtract(ref, est, out=row)
    np.square(row, out=row)
    noise = float(row.sum())
    return float(10.0 * np.log10(signal / (noise + METRIC_EPSILON) + METRIC_EPSILON))


def _lsd_frames(ref, est, distances, start, stop, buf: _ScoreBuffers):
    """RMS over frequency of the log power ratio of frames [start, stop)
    into ``distances``, in blocks that live in ``buf``. Only the frames
    from a block's first to its last sounding one are transformed; a
    silent frame's power is 0 + eps."""
    window = hann_window(DEFAULT_WINDOW)
    hop, stride = DEFAULT_HOP, DEFAULT_WINDOW // DEFAULT_HOP
    block = len(buf.frames)
    for a in range(start, stop, block):
        nf = min(block, stop - a)
        fill_span(buf.span[:, : (nf - 1) * hop + DEFAULT_WINDOW],
                  a * hop - DEFAULT_WINDOW // 2, (ref, est))
        framed = buf.span_frames[:, :nf]
        flags = sounding_frames(framed, _LSD_CONFIG, buf.sounding[
            : 2 * (nf + stride - 1)].reshape(2, nf + stride - 1))
        frames, spec, power = buf.frames[:nf], buf.spec[:nf], buf.power[:, :nf]
        for x, sounding, p in zip(framed, flags, power):
            f0, f1 = sounding_span(sounding)
            p[:f0] = METRIC_EPSILON
            p[f1:] = METRIC_EPSILON
            np.multiply(x[f0:f1], window, out=frames[f0:f1])
            np.fft.rfft(frames[f0:f1], axis=1, out=spec[f0:f1])
            np.abs(spec[f0:f1], out=p[f0:f1])
            np.square(p[f0:f1], out=p[f0:f1])
            p[f0:f1] += METRIC_EPSILON
        p_ref, p_est = power
        np.divide(p_est, p_ref, out=p_est)
        np.log(p_est, out=p_est)
        np.square(p_est, out=p_est)
        np.mean(p_est, axis=1, out=distances[a : a + nf])
    np.sqrt(distances[start:stop], out=distances[start:stop])


def _pes(ref: np.ndarray, est: np.ndarray, buf: _ScoreBuffers) -> float | None:
    """``pes``, in ``buf``'s row and per-frame buffers."""
    n_frames = len(ref) // PES_FRAME
    if n_frames == 0:
        return None
    energy, silent = buf.energy[:n_frames], buf.silent[:n_frames]
    np.less_equal(_frame_db(ref, buf.row, energy), PES_FLOOR_DB, out=silent)
    if not silent.any():
        return None
    np.maximum(_frame_db(est, buf.row, energy), PES_FLOOR_DB, out=energy)
    kept = np.compress(silent, energy, out=buf.kept[: np.count_nonzero(silent)])
    return float(kept.mean())


def _frame_db(x: np.ndarray, row: np.ndarray, energy: np.ndarray) -> np.ndarray:
    """10*log10(sum x^2 + eps) of the first len(energy) PES frames of ``x``
    into ``energy``, squaring into ``row``."""
    squares = row[: len(energy) * PES_FRAME]
    np.square(x[: len(squares)], out=squares)
    np.sum(squares.reshape(len(energy), PES_FRAME), axis=1, out=energy)
    energy += METRIC_EPSILON
    np.log10(energy, out=energy)
    energy *= 10.0
    return energy


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
    pair of unequal lengths, or of no samples, raises ValueError naming the
    track and class.
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
        if len(ref) != len(ests[name]) or len(ref) == 0:
            raise ValueError(
                f"track {track_id}, class {name}: reference has {len(ref)} "
                f"samples, estimate {len(ests[name])}"
            )

    refs_g = group_stems(refs, grouping)
    ests_g = group_stems(ests, grouping)
    groups = _GROUPINGS[grouping]
    active = {groups[c] for c in t.active_classes()}

    names = [name for name in dict.fromkeys(groups.values()) if name in refs_g]
    scored = ("nsdr", "lsd", "pes") if estimate_kind == "masked" else ("lsd", "pes")
    scores = _score([(refs_g[name].samples, ests_g[name].samples,
                      scored if name in active else ("pes",)) for name in names])
    rows = []
    for name, score in zip(names, scores):
        prec = rec = None
        if name in active and est_transcription is not None:
            prec, rec, _ = match_onsets(
                _group_times(est_transcription, name, groups),
                _group_times(t, name, groups),
            )
        rows.append(
            MetricsRow(
                track_id=track_id,
                class_name=name,
                active=name in active,
                nsdr=score.get("nsdr"),
                lsd=score.get("lsd"),
                pes=score["pes"],
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
