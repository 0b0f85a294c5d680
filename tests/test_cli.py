"""End-to-end CLI paths with click's test runner."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import drumsep
from drumsep.classes import CLASS_NAMES, NUM_CLASSES
from drumsep import abs_solver, nmfd, parallel
from drumsep.cli import main
from drumsep.drum_machine import ONE_SHOT_LENGTH, OneShotBank
from drumsep.fileio import (
    CONFIG_DEFAULTS,
    read_bank,
    read_config,
    read_transcription,
    read_wav,
    write_bank,
    write_transcription,
    write_wav,
)
from drumsep.signal import SAMPLE_RATE, StftConfig, Waveform, magnitude, stft
from drumsep.transcription import Event, Transcription

RUNNER = CliRunner()


def write_test_bank(directory: Path) -> Path:
    rng = np.random.default_rng(0)
    shots = np.zeros((NUM_CLASSES, ONE_SHOT_LENGTH))
    t = np.arange(3000)
    for k in range(NUM_CLASSES):
        shots[k, :3000] = rng.uniform(-1, 1, 3000) * np.exp(-t / 500)
        shots[k] /= np.abs(shots[k]).max()
    write_bank(OneShotBank("testkit", shots), directory)
    return directory


def write_test_transcription(path: Path) -> Path:
    t = Transcription((
        Event(0.2, "kick", 1.0),
        Event(0.8, "kick", 1.2),
        Event(0.5, "snare", 0.9),
    ))
    write_transcription(t, path)
    return path


@pytest.fixture()
def bank_dir(tmp_path):
    return write_test_bank(tmp_path / "kit")


@pytest.fixture()
def transcription_path(tmp_path):
    return write_test_transcription(tmp_path / "t.csv")


def run(*args):
    return RUNNER.invoke(main, [str(a) for a in args])


class TestRender:
    def test_writes_stems_mixture_and_config(self, tmp_path, bank_dir,
                                             transcription_path):
        # no config.txt: render's inputs are not run-config keys
        out = tmp_path / "out"
        result = run("render", "--bank", bank_dir,
                     "--transcription", transcription_path,
                     "--out", out, "--duration", 2.0)
        assert result.exit_code == 0, result.output
        for name in CLASS_NAMES:
            assert (out / f"{name}.wav").exists()
        mixture = read_wav(out / "mixture.wav")
        assert len(mixture) == 2 * SAMPLE_RATE
        stems = sum(read_wav(out / f"{n}.wav").samples for n in CLASS_NAMES)
        np.testing.assert_allclose(stems, mixture.samples, atol=1e-6)
        assert not (out / "config.txt").exists()

    def test_evaluating_render_against_itself_is_perfect(self, tmp_path, bank_dir,
                                                         transcription_path):
        out = tmp_path / "out"
        run("render", "--bank", bank_dir, "--transcription", transcription_path,
            "--out", out, "--duration", 2.0)
        report_path = tmp_path / "report.json"
        result = run("evaluate", "--refs", out, "--ests", out,
                     "--transcription", transcription_path, "--out", report_path)
        assert result.exit_code == 0, result.output
        report = json.loads(report_path.read_text())
        for row in report["tracks"]:
            if row["active"]:
                assert row["lsd"] == 0.0
                assert row["nsdr"] > 70

    def test_missing_bank_fails_cleanly(self, tmp_path, transcription_path):
        result = run("render", "--bank", tmp_path, "--transcription",
                     transcription_path, "--out", tmp_path / "out")
        assert result.exit_code != 0

    @pytest.mark.parametrize("duration", ["inf", "nan", 0, -1])
    def test_bad_duration_is_one_error_line(self, tmp_path, bank_dir,
                                            transcription_path, duration):
        out = tmp_path / "out"
        result = run("render", "--bank", bank_dir, "--transcription",
                     transcription_path, "--out", out, "--duration", duration)
        assert result.exit_code == 1
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: duration "), lines
        assert f"got {float(duration)} s" in lines[0]
        assert not out.exists()


    def test_short_duration_is_one_error_line(self, tmp_path, bank_dir,
                                              transcription_path):
        out = tmp_path / "out"
        result = run("render", "--bank", bank_dir, "--transcription",
                     transcription_path, "--out", out, "--duration", 0.5)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "error: event at 0.800000 s (kick) falls past the last whole "
            "512-sample hop of the 0.5 s track"]
        assert not out.exists()

    def test_event_past_any_track_is_one_error_line(self, tmp_path, bank_dir):
        # without --duration the track would be 1e308 s long
        write_transcription(Transcription((Event(1e308, "kick", 1.0),)),
                            tmp_path / "t.csv")
        out = tmp_path / "out"
        result = run("render", "--bank", bank_dir, "--transcription",
                     tmp_path / "t.csv", "--out", out)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "error: duration must be finite and at least one sample, got 1e+308 s"]
        assert not out.exists()

    def test_same_frame_events_both_sound(self, tmp_path, bank_dir):
        # 0.2 s and 0.201 s both lie nearest hop 17, sample 8704
        shots = read_bank(bank_dir).one_shots.copy()
        kick = CLASS_NAMES.index("kick")
        shots[kick] *= 0.5  # so that 1.5x stays within full scale
        write_bank(OneShotBank("halfkick", shots), tmp_path / "halfkick")
        write_transcription(
            Transcription((Event(0.2, "kick", 1.0), Event(0.201, "kick", 0.5))),
            tmp_path / "t.csv")
        out = tmp_path / "out"
        result = run("render", "--bank", tmp_path / "halfkick", "--transcription",
                     tmp_path / "t.csv", "--out", out, "--duration", 1.0)
        assert result.exit_code == 0, result.output
        shot = read_bank(tmp_path / "halfkick").one_shots[kick]
        expected = np.zeros(SAMPLE_RATE)
        expected[8704:] = 1.5 * shot[: SAMPLE_RATE - 8704]
        np.testing.assert_allclose(read_wav(out / "kick.wav").samples, expected,
                                   atol=1e-7)


class TestGenerate:
    def test_layout_and_coherence(self, tmp_path, bank_dir):
        out = tmp_path / "data"
        result = run("generate", "--banks", bank_dir, "--tracks", 2,
                     "--duration", 1.0, "--seed", 4, "--out", out)
        assert result.exit_code == 0, result.output
        for i in range(2):
            track = out / f"track_{i:04d}"
            assert (track / "mixture.wav").exists()
            assert (track / "transcription.csv").exists()
            mixture = read_wav(track / "mixture.wav")
            stems = sum(read_wav(track / "stems" / f"{n}.wav").samples
                        for n in CLASS_NAMES)
            np.testing.assert_allclose(stems, mixture.samples, atol=1e-5)


class TestSeparate:
    def test_nmfd_informed_case_requires_bank(self, tmp_path, bank_dir,
                                              transcription_path):
        out = tmp_path / "out"
        run("render", "--bank", bank_dir, "--transcription", transcription_path,
            "--out", out, "--duration", 2.0)
        result = run("separate", "nmfd", "--case", "1a",
                     "--mixture", out / "mixture.wav",
                     "--transcription", transcription_path,
                     "--out", tmp_path / "sep")
        assert result.exit_code != 0
        assert "requires --bank" in result.output

    def test_nmfd_blind_case_runs(self, tmp_path, bank_dir, transcription_path):
        out = tmp_path / "out"
        run("render", "--bank", bank_dir, "--transcription", transcription_path,
            "--out", out, "--duration", 2.0)
        sep = tmp_path / "sep"
        result = run("separate", "nmfd", "--case", "3",
                     "--mixture", out / "mixture.wav",
                     "--transcription", transcription_path, "--out", sep)
        assert result.exit_code == 0, result.output
        mixture = read_wav(out / "mixture.wav")
        masked = np.stack([read_wav(sep / "masked" / f"{n}.wav").samples
                           for n in CLASS_NAMES])
        assert masked.shape == (NUM_CLASSES, len(mixture))
        # masked stems partition the mixture
        residual = masked.sum(axis=0) - mixture.samples
        assert np.sqrt(np.mean(residual**2)) < 1e-3
        assert (sep / "magnitudes.npz").exists()

    def test_nmfd_fixed_templates_on_short_mixture(self, tmp_path, bank_dir):
        # 0.3 s is 26 frames, fewer than case 1A's 40-frame templates
        t = tmp_path / "short.csv"
        write_transcription(Transcription((
            Event(0.05, "kick", 1.0), Event(0.15, "snare", 0.9))), t)
        out = tmp_path / "out"
        run("render", "--bank", bank_dir, "--transcription", t,
            "--out", out, "--duration", 0.3)
        result = run("separate", "nmfd", "--case", "1a", "--bank", bank_dir,
                     "--mixture", out / "mixture.wav", "--transcription", t,
                     "--out", tmp_path / "sep")
        assert result.exit_code == 0, result.output

    def test_abs_writes_synth_masked_and_trace(self, tmp_path, bank_dir,
                                               transcription_path):
        out = tmp_path / "out"
        run("render", "--bank", bank_dir, "--transcription", transcription_path,
            "--out", out, "--duration", 2.0)
        sep = tmp_path / "sep"
        result = run("separate", "abs", "--mixture", out / "mixture.wav",
                     "--transcription", transcription_path,
                     "--out", sep, "--steps", 3, "--seed", 0)
        assert result.exit_code == 0, result.output
        for sub in ("synth", "masked"):
            for name in CLASS_NAMES:
                assert (sep / sub / f"{name}.wav").exists()
        trace = (sep / "loss_trace.csv").read_text().splitlines()
        assert trace[0] == "step,loss"
        assert len(trace) == 1 + 3 + 1  # header, per-step, final
        assert (sep / "reconstruction.wav").exists()

    def test_abs_mixture_shorter_than_transcription_is_one_error_line(
            self, tmp_path, transcription_path):
        mixture = tmp_path / "mix.wav"
        write_wav(mixture, Waveform(np.full(SAMPLE_RATE // 2, 0.1)))
        out = tmp_path / "out"
        result = run("separate", "abs", "--mixture", mixture, "--transcription",
                     transcription_path, "--out", out, "--steps", 2)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "error: event at 0.800000 s (kick) falls past the last whole "
            "512-sample hop of the 0.5 s track"]
        assert not out.exists()

    @pytest.mark.parametrize("steps", [0, -3])
    def test_abs_rejects_non_positive_steps(self, tmp_path, bank_dir,
                                            transcription_path, steps):
        out = tmp_path / "out"
        run("render", "--bank", bank_dir, "--transcription", transcription_path,
            "--out", out, "--duration", 1.0)
        result = run("separate", "abs", "--mixture", out / "mixture.wav",
                     "--transcription", transcription_path,
                     "--out", tmp_path / "sep", "--steps", steps)
        assert result.exit_code == 1
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert result.stdout == "" and result.stderr.count("error:") == 1
        assert not (tmp_path / "sep").exists()

    def test_abs_non_finite_loss_is_one_error_line(self, tmp_path, bank_dir,
                                                   transcription_path,
                                                   monkeypatch):
        # the solver applies its operator once per step, so a NaN from the
        # third application makes the objective of step 3 NaN
        real = abs_solver.trigger_mixture
        calls = []

        def nan_at_step_3(*args, **kwargs):
            calls.append(None)
            mixture = real(*args, **kwargs)
            return mixture * np.nan if len(calls) == 3 else mixture

        monkeypatch.setattr(abs_solver, "trigger_mixture", nan_at_step_3)
        out = tmp_path / "out"
        run("render", "--bank", bank_dir, "--transcription", transcription_path,
            "--out", out, "--duration", 1.0)
        result = run("separate", "abs", "--mixture", out / "mixture.wav",
                     "--transcription", transcription_path,
                     "--out", tmp_path / "sep", "--steps", 5)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: abs solver: non-finite loss at step 3\n"

    @pytest.mark.parametrize("silent", ["mixture", "velocities"])
    def test_abs_without_a_gradient_writes_zero_stems(self, tmp_path, bank_dir,
                                                      silent):
        # a silent mixture, or onsets that all have velocity 0, leave the
        # least-squares solve no gradient to follow
        t = write_test_transcription(tmp_path / "t.csv")
        mixture = tmp_path / "track" / "mixture.wav"
        if silent == "mixture":
            write_wav(mixture, Waveform(np.zeros(SAMPLE_RATE)))
        else:
            run("render", "--bank", bank_dir, "--transcription", t,
                "--out", tmp_path / "track", "--duration", 1.0)
            events = read_transcription(t).events
            write_transcription(Transcription(
                tuple(e._replace(velocity=0.0) for e in events)), t)
        sep = tmp_path / "sep"
        result = run("separate", "abs", "--mixture", mixture, "--transcription",
                     t, "--out", sep, "--steps", 4)
        assert result.exit_code == 0, result.output
        for name in CLASS_NAMES:
            assert not read_wav(sep / "synth" / f"{name}.wav").samples.any()
        trace = (sep / "loss_trace.csv").read_text().splitlines()
        assert len(trace) == 1 + 4 + 1
        assert len({line.split(",")[1] for line in trace[1:]}) == 1

    def test_abs_masked_stems_sum_to_a_long_ringing_mixture(self, tmp_path):
        # every one-shot rings for its full second: a solve over a shorter
        # support leaves the tails' time-frequency cells to no synth stem,
        # and their energy out of every masked stem
        rng = np.random.default_rng(4)
        ring = np.exp(-np.arange(ONE_SHOT_LENGTH) / (0.4 * SAMPLE_RATE))
        shots = rng.uniform(-1, 1, (NUM_CLASSES, ONE_SHOT_LENGTH)) * ring
        write_bank(OneShotBank("ringing", shots), tmp_path / "kit")
        result = run("generate", "--banks", tmp_path / "kit", "--tracks", 1,
                     "--duration", 2.0, "--seed", 1, "--out", tmp_path / "data")
        assert result.exit_code == 0, result.output
        track = tmp_path / "data" / "track_0000"
        sep = tmp_path / "sep"
        result = run("separate", "abs", "--mixture", track / "mixture.wav",
                     "--transcription", track / "transcription.csv",
                     "--out", sep, "--steps", 10)
        assert result.exit_code == 0, result.output
        mixture = read_wav(track / "mixture.wav").samples
        masked = sum(read_wav(sep / "masked" / f"{name}.wav").samples
                     for name in CLASS_NAMES)
        error_db = 10 * np.log10(np.sum((masked - mixture) ** 2)
                                 / np.sum(mixture**2))
        assert error_db <= -60.0

    def test_abs_output_same_for_one_and_two_blas_threads(self, tmp_path,
                                                          inputs):
        track = inputs / "track"
        trees = []
        for threads in ("1", "2"):
            sep = tmp_path / f"sep{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(drumsep.__file__).parents[1]))
            proc = subprocess.run(
                [sys.executable, "-m", "drumsep.cli", "separate", "abs",
                 "--mixture", str(track / "mixture.wav"), "--transcription",
                 str(inputs / "t.csv"), "--out", str(sep), "--steps", "5"],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            trees.append({p.relative_to(sep): p.read_bytes()
                          for p in sorted(sep.rglob("*")) if p.is_file()})
        assert len(trees[0]) == 2 * NUM_CLASSES + 3
        assert trees[0] == trees[1]

    def test_abs_output_same_for_one_and_two_workers(self, tmp_path, bank_dir,
                                                     transcription_path,
                                                     monkeypatch):
        out = tmp_path / "out"
        run("render", "--bank", bank_dir, "--transcription", transcription_path,
            "--out", out, "--duration", 1.0)
        trees = []
        for workers in (1, 2):
            monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
            sep = tmp_path / f"sep{workers}"
            result = run("separate", "abs", "--mixture", out / "mixture.wav",
                         "--transcription", transcription_path,
                         "--out", sep, "--steps", 4)
            assert result.exit_code == 0, result.output
            trees.append({p.relative_to(sep): p.read_bytes()
                          for p in sorted(sep.rglob("*")) if p.is_file()})
        assert len(trees[0]) == 2 * NUM_CLASSES + 3
        assert trees[0] == trees[1]

    def test_nmfd_magnitudes_are_nmfd_run_output(self, tmp_path, bank_dir,
                                                 transcription_path):
        out = tmp_path / "out"
        run("render", "--bank", bank_dir, "--transcription", transcription_path,
            "--out", out, "--duration", 2.0)
        paths = []
        for sep in ("sep1", "sep2"):
            result = run("separate", "nmfd", "--case", "1b", "--bank", bank_dir,
                         "--mixture", out / "mixture.wav",
                         "--transcription", transcription_path,
                         "--out", tmp_path / sep, "--seed", 2)
            assert result.exit_code == 0, result.output
            paths.append(tmp_path / sep / "magnitudes.npz")
        assert paths[0].read_bytes() == paths[1].read_bytes()

        cfg = StftConfig()
        v = magnitude(stft(read_wav(out / "mixture.wav"), cfg))
        _, per_class = nmfd.nmfd_run(
            v, read_transcription(transcription_path), read_bank(bank_dir),
            nmfd.NmfdCase.preset("1b"), seed=2, hop_size=cfg.hop_size,
        )
        with np.load(paths[0]) as archive:
            assert list(archive.keys()) == list(CLASS_NAMES)
            for k, name in enumerate(CLASS_NAMES):
                assert archive[name].dtype == np.float64
                assert np.array_equal(archive[name], per_class[k])

    def test_nmfd_seed_falls_back_to_config(self, tmp_path, bank_dir,
                                            transcription_path):
        out = tmp_path / "out"
        run("render", "--bank", bank_dir, "--transcription", transcription_path,
            "--out", out, "--duration", 1.0)
        config = tmp_path / "run.cfg"
        config.write_text("seed = 5\n")
        args = ["separate", "nmfd", "--case", "3", "--mixture", out / "mixture.wav",
                "--transcription", transcription_path]
        runs = {"config": ["--config", config], "option": ["--seed", 5],
                "default": []}
        for name, extra in runs.items():
            result = run(*args, *extra, "--out", tmp_path / name)
            assert result.exit_code == 0, result.output
        magnitudes = {name: (tmp_path / name / "magnitudes.npz").read_bytes()
                      for name in runs}
        assert magnitudes["config"] == magnitudes["option"]
        assert magnitudes["config"] != magnitudes["default"]
        assert read_config(tmp_path / "config" / "config.txt")["seed"] == 5

    @pytest.mark.parametrize("method", ["nmfd", "abs"])
    def test_config_echo_reads_back(self, tmp_path, bank_dir, transcription_path,
                                    method):
        out = tmp_path / "out"
        run("render", "--bank", bank_dir, "--transcription", transcription_path,
            "--out", out, "--duration", 1.0)
        extra = ["--case", "3"] if method == "nmfd" else ["--steps", 1]
        sep = tmp_path / "sep"
        result = run("separate", method, *extra, "--mixture", out / "mixture.wav",
                     "--transcription", transcription_path, "--out", sep,
                     "--seed", 5)
        assert result.exit_code == 0, result.output
        ran_with = {"seed": 5} | ({"solver.steps": 1} if method == "abs" else {})
        assert read_config(sep / "config.txt") == CONFIG_DEFAULTS | ran_with


class TestDetectOnsets:
    def test_detects_clicks(self, tmp_path, bank_dir, transcription_path):
        out = tmp_path / "out"
        run("render", "--bank", bank_dir, "--transcription", transcription_path,
            "--out", out, "--duration", 2.0)
        onsets_path = tmp_path / "onsets.csv"
        result = run("detect-onsets", "--mixture", out / "mixture.wav",
                     "--out", onsets_path)
        assert result.exit_code == 0, result.output
        lines = onsets_path.read_text().splitlines()
        assert lines[0] == "onset_sec,class,velocity"
        times = [float(line.split(",")[0]) for line in lines[1:]]
        assert len(times) >= 3
        # the three rendered onsets are near 0.2, 0.5 and 0.8 s
        for expected in (0.2, 0.5, 0.8):
            assert min(abs(t - expected) for t in times) < 0.05
        assert all(line.split(",")[1] == "unknown" for line in lines[1:])


class TestEvaluate:
    def test_multi_track_layout(self, tmp_path, bank_dir):
        data = tmp_path / "data"
        run("generate", "--banks", bank_dir, "--tracks", 2, "--duration", 1.0,
            "--seed", 7, "--out", data)
        report_path = tmp_path / "report.json"
        result = run("evaluate", "--refs", data, "--ests", data,
                     "--out", report_path)
        assert result.exit_code == 0, result.output
        report = json.loads(report_path.read_text())
        tracks = {row["track"] for row in report["tracks"]}
        assert tracks == {"track_0000", "track_0001"}
        assert "overall" in report["aggregates"]

    def test_missing_estimates_fail_cleanly(self, tmp_path, bank_dir):
        data = tmp_path / "data"
        run("generate", "--banks", bank_dir, "--tracks", 1, "--duration", 1.0,
            "--seed", 7, "--out", data)
        empty = tmp_path / "empty"
        empty.mkdir()
        result = run("evaluate", "--refs", data, "--ests", empty,
                     "--out", tmp_path / "r.json")
        assert result.exit_code == 1
        assert "error:" in result.output

    def test_length_mismatch_names_track_and_class(self, tmp_path, bank_dir):
        data = tmp_path / "data"
        run("generate", "--banks", bank_dir, "--tracks", 1, "--duration", 1.0,
            "--seed", 7, "--out", data)
        ests = shutil.copytree(data, tmp_path / "ests")
        snare = ests / "track_0000" / "stems" / "snare.wav"
        write_wav(snare, Waveform(read_wav(snare).samples[:-100]))
        result = run("evaluate", "--refs", data, "--ests", ests,
                     "--out", tmp_path / "r.json")
        assert result.exit_code == 1
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "track_0000" in lines[0] and "snare" in lines[0]

    def test_single_track_requires_transcription(self, tmp_path, bank_dir,
                                                 transcription_path):
        out = tmp_path / "out"
        run("render", "--bank", bank_dir, "--transcription", transcription_path,
            "--out", out, "--duration", 2.0)
        result = run("evaluate", "--refs", out, "--ests", out,
                     "--out", tmp_path / "r.json")
        assert result.exit_code != 0

    def test_multi_track_rejects_transcription(self, tmp_path, bank_dir,
                                               transcription_path):
        data = tmp_path / "data"
        run("generate", "--banks", bank_dir, "--tracks", 1, "--duration", 1.0,
            "--seed", 7, "--out", data)
        report_path = tmp_path / "r.json"
        result = run("evaluate", "--refs", data, "--ests", data,
                     "--transcription", transcription_path, "--out", report_path)
        assert result.exit_code == 2
        assert result.stderr.splitlines()[-1] == (
            "Error: --transcription is for a single track; each track "
            "directory holds its own transcription.csv"
        )
        assert not report_path.exists()

    def test_single_track_equals_one_track_layout(self, tmp_path, bank_dir):
        data = tmp_path / "data"
        run("generate", "--banks", bank_dir, "--tracks", 1, "--duration", 1.0,
            "--seed", 7, "--out", data)
        track = data / "track_0000"
        # leaky estimates, in the flat <ests>/<track> layout
        ests = tmp_path / "ests"
        ride = read_wav(track / "stems" / "ride.wav").samples
        for name in CLASS_NAMES:
            stem = read_wav(track / "stems" / f"{name}.wav").samples
            write_wav(ests / "track_0000" / f"{name}.wav",
                      Waveform(0.8 * stem + 0.2 * ride))
        reports = []
        for args in (["--refs", track / "stems", "--ests", ests / "track_0000",
                      "--transcription", track / "transcription.csv"],
                     ["--refs", data, "--ests", ests]):
            report_path = tmp_path / f"r{len(reports)}.json"
            result = run("evaluate", *args, "--out", report_path)
            assert result.exit_code == 0, result.output
            reports.append(json.loads(report_path.read_text()))
        single, layout = reports
        # a stems/ directory is named after its track, as in the layout
        assert {row["track"] for row in single["tracks"]} == {"track_0000"}
        assert single == layout
        assert any(row["nsdr"] is not None for row in single["tracks"])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A bank, a transcription and the 1 s track rendered from them."""
    root = tmp_path_factory.mktemp("inputs")
    write_test_bank(root / "kit")
    write_test_transcription(root / "t.csv")
    result = run("render", "--bank", root / "kit", "--transcription",
                 root / "t.csv", "--out", root / "track", "--duration", 1.0)
    assert result.exit_code == 0, result.output
    return root


def command_args(command: str, out: Path, kit: Path, transcription: Path,
                 mixture: Path, refs: Path, ests: Path) -> list:
    """Arguments of one run of each CLI command, writing under ``out``."""
    return {
        "render": ["render", "--bank", kit, "--transcription", transcription,
                   "--out", out, "--duration", 1.0],
        "generate": ["generate", "--banks", kit, "--tracks", 1,
                     "--duration", 0.5, "--out", out],
        "separate-nmfd-3": ["separate", "nmfd", "--case", "3", "--mixture",
                            mixture, "--transcription", transcription,
                            "--out", out],
        "separate-nmfd-1a": ["separate", "nmfd", "--case", "1a", "--bank", kit,
                             "--mixture", mixture, "--transcription",
                             transcription, "--out", out],
        "separate-abs": ["separate", "abs", "--steps", 1, "--mixture", mixture,
                         "--transcription", transcription, "--out", out],
        "detect-onsets": ["detect-onsets", "--mixture", mixture,
                          "--out", out / "onsets.csv"],
        "evaluate": ["evaluate", "--refs", refs, "--ests", ests,
                     "--transcription", transcription,
                     "--out", out / "report.json"],
    }[command]


# Runs one command in this interpreter and reports which scipy modules it
# loaded; click ends every command with SystemExit.
IMPORT_GUARD = """
import sys
from drumsep.cli import main
try:
    main(sys.argv[1:])
finally:
    loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
    print("scipy modules:", loaded, file=sys.stderr)
"""


@pytest.mark.parametrize("command", ["render", "generate", "separate-nmfd-3",
                                     "separate-abs", "detect-onsets", "evaluate"])
def test_commands_run_without_scipy(tmp_path, inputs, command):
    track = inputs / "track"
    args = command_args(command, tmp_path / "out", inputs / "kit",
                        inputs / "t.csv", track / "mixture.wav", track, track)
    env = dict(os.environ, PYTHONPATH=str(Path(drumsep.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "scipy modules: []"
    assert any(p.is_file() for p in (tmp_path / "out").rglob("*"))


# (command, the WAV it reads that is replaced by a bad one)
WAV_READERS = [
    ("render", "kit"), ("generate", "kit"), ("separate-nmfd-3", "mixture"),
    ("separate-nmfd-1a", "kit"), ("separate-abs", "mixture"),
    ("detect-onsets", "mixture"), ("evaluate", "ests"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("damage", ["garbage", "truncated"])
@pytest.mark.parametrize("command, slot", WAV_READERS)
def test_malformed_wav_is_one_error_line(tmp_path, inputs, command, slot, damage):
    kit = shutil.copytree(inputs / "kit", tmp_path / "kit")
    ests = shutil.copytree(inputs / "track", tmp_path / "ests")
    mixture = tmp_path / "mixture.wav"
    shutil.copy(inputs / "track" / "mixture.wav", mixture)
    bad = {"kit": kit / "kick.wav", "mixture": mixture,
           "ests": ests / "kick.wav"}[slot]
    # garbage is no RIFF file; truncated drops the last two float32 samples
    bad.write_bytes(b"not a wav file at all" if damage == "garbage"
                    else bad.read_bytes()[:-8])
    out = tmp_path / "out"
    result = run(*command_args(command, out, kit, inputs / "t.csv", mixture,
                               inputs / "track", ests))
    assert result.exit_code == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert str(bad) in lines[0]
    assert not out.exists()


# --config files that both separate commands reject
BAD_CONFIGS = [
    "solver.steps 10", "nmfd.case = 9", "solver.momentum = 0.9",
    "solver.steps = ten", "loss.scales = 2048,abc", "loss.scales = 2048,2048",
    "stft.window = 1000", "solver.lr = -1", "solver.lr = nan",
    "solver.clip = inf", "seed = -1", "masking.epsilon = 0",
    "masking.alpha = -1", "solver.lr = 0.005",
    "stft.window = 1024\nstft.hop = 1024",
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", BAD_CONFIGS)
@pytest.mark.parametrize("command", ["separate-nmfd-3", "separate-abs"])
def test_malformed_config_is_one_error_line(tmp_path, inputs, command, text):
    config = tmp_path / "run.cfg"
    config.write_text(text + "\n")
    track = inputs / "track"
    out = tmp_path / "out"
    args = command_args(command, out, inputs / "kit", inputs / "t.csv",
                        track / "mixture.wav", track, track)
    result = run(*args, "--config", config)
    assert result.exit_code == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {config}"), lines
    key = text.partition("=")[0].strip()
    if "=" in text and key not in CONFIG_DEFAULTS:
        assert lines[0] == f"error: {config}:1: unknown key {key!r}"
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "separate-nmfd-3", "separate-abs"])
def test_negative_seed_is_one_error_line(tmp_path, inputs, command):
    track = inputs / "track"
    out = tmp_path / "out"
    args = command_args(command, out, inputs / "kit", inputs / "t.csv",
                        track / "mixture.wav", track, track)
    result = run(*args, "--seed", -1)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "error: seed must be non-negative, got -1\n"
    assert not out.exists()


# generate options it rejects; each error names the option
BAD_GENERATE_OPTIONS = [("--tracks", 0), ("--tracks", -2), ("--duration", -1),
                        ("--duration", 0), ("--duration", "nan"),
                        ("--duration", 1e-4)]


@pytest.mark.parametrize("option, value", BAD_GENERATE_OPTIONS)
def test_bad_generate_option_is_one_error_line(tmp_path, inputs, option, value):
    out = tmp_path / "out"
    result = run("generate", "--banks", inputs / "kit", "--tracks", 1,
                 "--out", out, option, value)
    assert result.exit_code == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {option[2:]} "), lines
    assert not out.exists()


# transcription files every reader rejects, and the line each error names
BAD_TRANSCRIPTIONS = {
    "missing header": ("0.200000,kick,1.000000\n", 1),
    "non-numeric time": ("onset_sec,class,velocity\n0.200000,kick,1.0\n"
                         "abc,snare,1.0\n", 3),
    "negative time": ("onset_sec,class,velocity\n0.200000,kick,1.0\n"
                      "-0.5,snare,1.0\n", 3),
    "unknown class": ("onset_sec,class,velocity\n0.200000,kick,1.0\n"
                      "0.5,cowbell,1.0\n", 3),
    "short row": ("onset_sec,class,velocity\n0.200000,kick,1.0\n0.5,snare\n", 3),
}


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory, inputs):
    """One generated 0.5 s track, as multi-track evaluate reads it."""
    data = tmp_path_factory.mktemp("dataset") / "data"
    result = run("generate", "--banks", inputs / "kit", "--tracks", 1,
                 "--duration", 0.5, "--out", data)
    assert result.exit_code == 0, result.output
    return data


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("damage", sorted(BAD_TRANSCRIPTIONS))
@pytest.mark.parametrize("command", ["render", "separate-nmfd-3", "separate-abs",
                                     "evaluate", "evaluate-tracks"])
def test_malformed_transcription_is_one_error_line(tmp_path, inputs, dataset_dir,
                                                   command, damage):
    text, line = BAD_TRANSCRIPTIONS[damage]
    track = inputs / "track"
    out = tmp_path / "out"
    if command == "evaluate-tracks":
        data = shutil.copytree(dataset_dir, tmp_path / "data")
        bad = data / "track_0000" / "transcription.csv"
        args = ["evaluate", "--refs", data, "--ests", data,
                "--out", out / "report.json"]
    else:
        bad = tmp_path / "t.csv"
        args = command_args(command, out, inputs / "kit", bad,
                            track / "mixture.wav", track, track)
    bad.write_text(text)
    result = run(*args)
    assert result.exit_code == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {bad}:{line}: "), lines
    assert not out.exists()


# transcriptions that `separate abs` and every `separate nmfd` case reject on
# a 0.5 s mixture, and the error line all of them print; `render` rejects all
# but the empty one, which renders silence
BAD_ONSETS = {
    "empty": (b"onset_sec,class,velocity\n",
              "transcription must contain at least one onset"),
    "past the last whole hop": (
        b"onset_sec,class,velocity\n0.499229,kick,1.000000\n",
        "event at 0.499229 s (kick) falls past the last whole 512-sample hop "
        "of the 0.5 s track"),
    "1e308 s": (b"onset_sec,class,velocity\n1e308,kick,1.000000\n",
                "event at 1e+308 s (kick) falls past the last whole 512-sample "
                "hop of the 0.5 s track"),
    "not UTF-8": (b"\xff\xfe", "{path}:1: not UTF-8 text (invalid start byte)"),
}


@pytest.fixture(scope="module")
def half_second(tmp_path_factory, inputs):
    """A 0.5 s mixture with one kick, rendered from the test bank."""
    root = tmp_path_factory.mktemp("half")
    write_transcription(Transcription((Event(0.2, "kick", 1.0),)), root / "t.csv")
    result = run("render", "--bank", inputs / "kit", "--transcription",
                 root / "t.csv", "--out", root, "--duration", 0.5)
    assert result.exit_code == 0, result.output
    return root / "mixture.wav"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("damage", sorted(BAD_ONSETS))
def test_bad_onsets_are_one_error_line_for_every_command(tmp_path, inputs,
                                                         half_second, damage):
    data, message = BAD_ONSETS[damage]
    bad = tmp_path / "t.csv"
    bad.write_bytes(data)
    kit = inputs / "kit"
    commands = {"separate-abs": ["separate", "abs", "--steps", 1]}
    for case in ("1a", "1b", "3"):
        commands[f"separate-nmfd-{case}"] = ["separate", "nmfd", "--case", case,
                                             "--bank", kit]
    for args in commands.values():
        args += ["--mixture", half_second, "--transcription", bad]
    if damage != "empty":
        commands["render"] = ["render", "--bank", kit, "--transcription", bad,
                              "--duration", 0.5]
    for command, args in commands.items():
        out = tmp_path / command
        result = run(*args, "--out", out)
        assert result.exit_code == 1, (command, result.output)
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "error: " + message.format(path=bad)], command
        assert not out.exists()
