"""Command-line pipelines: render, generate, separate, detect-onsets,
evaluate. Every command is deterministic given (inputs, config, seed) and
exits non-zero with a one-line reason on error."""

from __future__ import annotations

import sys
from pathlib import Path

import click
import numpy as np

from . import abs_solver, dataset, evaluation, fileio, masking, nmfd
from .classes import CLASS_NAMES, NUM_CLASSES
from .drum_machine import render as render_stems
from .signal import DEFAULT_HOP, SAMPLE_RATE, StftConfig, Waveform, magnitude, stft
from .transcription import onset_samples, peak_pick, spectral_flux_curve


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _guarded(func):
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except (fileio.FileFormatError, ValueError, OSError) as exc:
            _fail(str(exc))

    wrapper.__name__ = func.__name__
    wrapper.__doc__ = func.__doc__
    return wrapper


def _run_config(path: str | None, seed: int | None, steps: int | None = None) -> dict:
    """The --config file's values, or the defaults without one, with the
    --seed and --steps given written over their keys and checked."""
    given = {"seed": seed, "solver.steps": steps}
    config = fileio.read_config(path)
    config |= {k: v for k, v in given.items() if v is not None}
    fileio.check_config(config)
    return config


def _check_memory(command: str, tracks: int, n_samples: int):
    """Raise ValueError, before anything is drawn or rendered, if the
    command's ``tracks`` tracks of K stems and a mixture, ``n_samples``
    float64 samples each, would take more bytes than physical memory."""
    need, have = tracks * (NUM_CLASSES + 1) * n_samples * 8, fileio.physical_memory()
    if need > have:
        raise ValueError(f"{command} would hold {need / 2**30:.2f} GiB of samples, "
                         f"more than the {have / 2**30:.2f} GiB of physical memory")


def _read_mixture(path: str) -> Waveform:
    """The --mixture WAV; one that holds no samples raises ValueError."""
    x = fileio.read_wav(path)
    if len(x) == 0:
        raise ValueError(f"{path}: the mixture holds no samples")
    return x


@click.group()
def main():
    """Drum source separation toolkit."""


@main.command("render")
@click.option("--bank", "bank_dir", required=True, type=click.Path(exists=True))
@click.option("--transcription", "transcription_path", required=True,
              type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--duration", type=float, default=None, help="Track length in seconds.")
@_guarded
def render_cmd(bank_dir, transcription_path, out_dir, duration):
    """Render per-class stems and the mixture for a transcription."""
    bank = fileio.read_bank(bank_dir)
    t = fileio.read_transcription(transcription_path)
    if duration is None:
        last = max((e.time for e in t.events), default=0.0)
        duration = last + 1.0
    if not 1 <= duration * SAMPLE_RATE <= fileio.MAX_WAV_SAMPLES:
        raise ValueError(
            f"duration must be from one sample to a WAV's {fileio.MAX_WAV_SAMPLES} "
            f"samples, got {duration} s"
        )
    n_samples = int(round(duration * SAMPLE_RATE))
    _check_memory("render", 1, n_samples)
    onsets, velocities = onset_samples(t, n_samples)
    stems, mixture = render_stems(bank, onsets, velocities, np.zeros(NUM_CLASSES),
                                  n_samples)
    out = Path(out_dir)
    fileio.write_stems(stems, out)
    fileio.write_wav(out / "mixture.wav", Waveform(mixture))


@main.command("generate")
@click.option("--banks", "bank_dirs", required=True, multiple=True,
              type=click.Path(exists=True))
@click.option("--tracks", "n_tracks", required=True, type=int)
@click.option("--seed", type=int, default=0)
@click.option("--duration", type=float, default=6.0)
@click.option("--out", "out_dir", required=True, type=click.Path())
@_guarded
def generate_cmd(bank_dirs, n_tracks, seed, duration, out_dir):
    """Generate a synthetic dataset with stems and annotations."""
    banks = [fileio.read_bank(d) for d in bank_dirs]
    spec = dataset.GenerationSpec(n_tracks=n_tracks, duration=duration)
    _check_memory("generate", n_tracks, int(round(duration * SAMPLE_RATE)))
    tracks = dataset.generate_dataset(banks, seed, spec)
    out = Path(out_dir)
    for track in tracks:
        track_dir = out / track.track_id
        fileio.write_wav(track_dir / "mixture.wav", track.mixture)
        fileio.write_stems(track.stems, track_dir / "stems")
        fileio.write_transcription(track.transcription, track_dir / "transcription.csv")


@main.group("separate")
def separate_cmd():
    """Invert a mixture into per-class stems."""


@separate_cmd.command("nmfd")
@click.option("--case", "case_id", required=True,
              type=click.Choice(["1a", "1b", "3"], case_sensitive=False))
@click.option("--mixture", "mixture_path", required=True, type=click.Path(exists=True))
@click.option("--transcription", "transcription_path", required=True,
              type=click.Path(exists=True))
@click.option("--bank", "bank_dir", default=None, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--config", "config_path", default=None, type=click.Path(exists=True))
@_guarded
def separate_nmfd(case_id, mixture_path, transcription_path, bank_dir, out_dir,
                  seed, config_path):
    """Transcription-informed NMFD followed by Wiener masking."""
    config = _run_config(config_path, seed)
    case = nmfd.NmfdCase.preset(case_id)
    if case.informed_templates and bank_dir is None:
        raise click.UsageError(f"NMFD case {case.case_id} requires --bank")
    x = _read_mixture(mixture_path)
    t = fileio.read_transcription(transcription_path)
    bank = fileio.read_bank(bank_dir) if bank_dir else None
    onset_samples(t, len(x))  # the range rule of `separate abs` and `render`
    cfg = StftConfig(config["stft.window"], config["stft.hop"])

    _, per_class = nmfd.nmfd_run(
        magnitude(stft(x, cfg)), t, bank, case, seed=config["seed"],
        hop_size=cfg.hop_size,
    )
    out = Path(out_dir)
    with fileio.stem_blocks(out / "masked", len(x)) as writers:
        masking.mask_with_magnitudes(x, per_class, cfg, config["masking.alpha"],
                                     config["masking.epsilon"], writers=writers)
    fileio.write_magnitudes(per_class, out / "magnitudes.npz")
    fileio.write_config(config, out / "config.txt")


@separate_cmd.command("abs")
@click.option("--mixture", "mixture_path", required=True, type=click.Path(exists=True))
@click.option("--transcription", "transcription_path", required=True,
              type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--steps", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--config", "config_path", default=None, type=click.Path(exists=True))
@_guarded
def separate_abs(mixture_path, transcription_path, out_dir, steps, seed, config_path):
    """Least-squares one-shots on the annotated onsets, then Wiener masking
    of the mixture. --steps is the solver's iteration count; --seed is
    echoed to config.txt, and the solve does not use it."""
    config = _run_config(config_path, seed, steps)
    x = _read_mixture(mixture_path)
    t = fileio.read_transcription(transcription_path)
    result = abs_solver.least_squares(x, t, config["solver.steps"])

    cfg = StftConfig(config["stft.window"], config["stft.hop"])
    out = Path(out_dir)
    # One class's synth stem at a time; their sum in class order is the
    # stems' sum, bit for bit.
    stem, mixture = np.empty(len(x)), np.zeros(len(x))
    for k, name in enumerate(CLASS_NAMES):
        result.stem(k, stem)
        mixture += stem
        fileio.write_wav(out / "synth" / f"{name}.wav", Waveform(stem))
    with fileio.stem_blocks(out / "masked", len(x)) as writers:
        masking.mask_with_shots(x, result.one_shots, result.onsets, result.amplitudes,
                                cfg, config["masking.alpha"], config["masking.epsilon"],
                                writers=writers)
    fileio.write_wav(out / "reconstruction.wav", Waveform(mixture))
    fileio.write_loss_trace(result.loss_trace, out / "loss_trace.csv")
    fileio.write_config(config, out / "config.txt")


@main.command("detect-onsets")
@click.option("--mixture", "mixture_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@_guarded
def detect_onsets_cmd(mixture_path, out_path):
    """Class-agnostic onsets from spectral flux and peak picking."""
    x = _read_mixture(mixture_path)
    curve = spectral_flux_curve(x)
    frames = peak_pick(curve)
    fileio.write_onsets(
        frames * DEFAULT_HOP / SAMPLE_RATE, np.minimum(curve[frames], 1.0), out_path
    )


@main.command("evaluate")
@click.option("--refs", "refs_dir", required=True, type=click.Path(exists=True))
@click.option("--ests", "ests_dir", required=True, type=click.Path(exists=True))
@click.option("--transcription", "transcription_path", default=None,
              type=click.Path(exists=True))
@click.option("--grouping", type=click.Choice(["9", "5"]), default="9")
@click.option("--kind", type=click.Choice(["masked", "synthesis"]), default="masked")
@click.option("--out", "out_path", required=True, type=click.Path())
@_guarded
def evaluate_cmd(refs_dir, ests_dir, transcription_path, grouping, kind, out_path):
    """Score estimated stems against references; writes a JSON report.

    The directories either contain `<class>.wav` stems for one track, scored
    against --transcription, or one subdirectory per track: stems/ and its
    own transcription.csv on the reference side, as `generate` writes them,
    and `<track>/stems` if it is a directory, else `<track>`, for estimates.
    """
    refs, ests = Path(refs_dir), Path(ests_dir)
    # (track id, reference stems, estimated stems, transcription) per track
    tracks = []
    if (refs / f"{CLASS_NAMES[0]}.wav").exists():
        if transcription_path is None:
            raise click.UsageError("single-track evaluation requires --transcription")
        named = refs.absolute()  # generate writes <track>/stems
        track_id = named.parent.name if named.name == "stems" else named.name
        tracks.append((track_id, refs, ests, transcription_path))
    elif transcription_path is not None:
        raise click.UsageError(
            "--transcription is for a single track; each track directory "
            "holds its own transcription.csv"
        )
    else:
        track_dirs = sorted(d for d in refs.iterdir() if d.is_dir())
        if not track_dirs:
            raise fileio.FileFormatError(f"{refs}: no stems or track directories")
        for track_dir in track_dirs:
            est_dir = ests / track_dir.name
            if not est_dir.exists():
                raise fileio.FileFormatError(
                    f"{ests}: missing estimates for track {track_dir.name}"
                )
            if (est_dir / "stems").is_dir():
                est_dir = est_dir / "stems"
            tracks.append((track_dir.name, track_dir / "stems", est_dir,
                           track_dir / "transcription.csv"))
    rows = []
    for track_id, ref_dir, est_dir, t_path in tracks:
        t = fileio.read_transcription(t_path)
        # The previous track's stems are freed only as these are read: freeing
        # them first made 2.7x the page faults over three 2 s tracks.
        ref_stems = fileio.read_stems(ref_dir)
        est_stems = fileio.read_stems(est_dir)
        rows += evaluation.evaluate_track(
            track_id, ref_stems, est_stems, t,
            grouping=int(grouping), estimate_kind=kind,
        )
    report = {
        "tracks": [
            {
                "track": r.track_id, "class": r.class_name, "active": r.active,
                "nsdr": r.nsdr, "lsd": r.lsd, "pes": r.pes,
                "precision": r.precision, "recall": r.recall,
            }
            for r in rows
        ],
        "aggregates": evaluation.aggregate(rows),
    }
    fileio.write_report(report, out_path)


if __name__ == "__main__":
    main()
