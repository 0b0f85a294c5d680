#!/usr/bin/env python3
"""drumsep benchmark: closed-loop CLI pipelines on seeded synthetic inputs.

    python3 bench/run.py --workload separate-abs --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

One client process runs the `drumsep` CLI in-process, each command starting
after the previous one finished, so command times exclude interpreter start;
`setup_s` measures that start separately. Inputs are generated from --seed by
the benchmark's own code and reach the program only as files. Every output is
checked; the last stdout line is the JSON result. With --trace 1 the same
commands also run with spans around the calls into each drumsep module and the
result holds the per-layer metrics (see README.md).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import inputs
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NMFD_CASES = ("1a", "1b", "3")
COMMANDS = ("generate", "evaluate", "detect_onsets", "nmfd_1a", "nmfd_1b", "nmfd_3", "abs")
# Input index of the untimed warm-up round, apart from the rounds' indices.
WARMUP = 999
# Share of each generated estimate that leaks from the other classes, so the
# evaluate report carries non-trivial nSDR values.
LEAK = 0.25


@dataclass(frozen=True)
class Sizes:
    """Input sizes. Every round gets fresh inputs; the quality metric is
    taken over the first `pool` rounds only, so it does not depend on how
    many rounds fit in the window, and every run makes at least that many."""

    abs_duration: float = 3.0
    abs_steps: int = 10
    abs_pool: int = 4
    nmfd_duration: float = 2.0
    nmfd_pool: int = 2
    gen_duration: float = 6.0
    gen_tracks: int = 2
    gen_pool: int = 3
    warmup_duration: float = 0.5
    setup_repeats: int = 5


FULL = Sizes()
SMOKE = Sizes(abs_duration=0.5, abs_steps=2, abs_pool=1, nmfd_duration=0.5,
              gen_duration=0.5, gen_tracks=1, gen_pool=1, setup_repeats=1)


def load_program():
    """Import drumsep.cli from this checkout's src/; exits non-zero without a
    result when the program is missing."""
    if not (SRC / "drumsep" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'drumsep'} not found; run from a drumsep checkout")
    sys.path.insert(0, str(SRC))
    import click
    import drumsep.cli
    if Path(drumsep.cli.__file__).resolve().parent != SRC / "drumsep":
        raise SystemExit(f"error: imported drumsep from {drumsep.cli.__file__}, not {SRC}")
    return click, drumsep.cli


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _openblas():
    """numpy's bundled OpenBLAS as (library, symbol prefix, symbol suffix)."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                    return lib, prefix, suffix
    return None


def blas_threads() -> dict:
    """Record OpenBLAS's version and thread count, lowering the count to the
    usable CPUs if the default exceeds them; otherwise the user's default
    threading is what gets measured."""
    cpus = len(os.sched_getaffinity(0))
    info = {"openblas": None, "blas_threads_default": None, "blas_threads": None,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    found = _openblas()
    if found is None:
        return info
    lib, prefix, suffix = found
    get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
    get.restype = ctypes.c_int
    config = getattr(lib, f"{prefix}_get_config{suffix}", None)
    if config is not None:
        config.restype = ctypes.c_char_p
        info["openblas"] = config().decode()
    info["blas_threads_default"] = get()
    if get() > cpus:
        setter = getattr(lib, f"{prefix}_set_num_threads{suffix}")
        setter.argtypes = [ctypes.c_int]
        setter(cpus)
    info["blas_threads"] = get()
    return info


def environment() -> dict:
    import scipy
    return {"cpus": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, **blas_threads()}


def measure_setup(repeats: int) -> float:
    """Median wall time of a fresh interpreter importing drumsep.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import drumsep.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


@dataclass
class Track:
    """A benchmark-rendered track: its files, the mixture as the program
    reads it back, and the reference stems."""

    mixture_path: Path
    transcription_path: Path
    mixture: np.ndarray
    stems: np.ndarray
    active: list[int]


def _path_size(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Run:
    """State of one benchmark run: timings, checks, quality values, spans."""

    def __init__(self, program, workload: str, seed: int, sizes: Sizes, work: Path,
                 trace: bool):
        self.click, self.cli = program
        self.workload, self.seed, self.sizes, self.work = workload, seed, sizes, work
        self.tracer = Tracer() if trace else None
        self.recording = True
        self.attempted = self.failed = 0
        self.times: dict[str, list[float]] = defaultdict(list)  # command -> s per track
        self.round_times: list[float] = []
        # (command, round) -> [(nSDR, nSDR improvement)] of active classes
        self.quality: dict[tuple[str, int], list[tuple[float, float]]] = {}
        self.overhead: dict[str, list[float]] = defaultdict(list)
        self.out_bytes: dict[str, list[int]] = defaultdict(list)
        self.kit = inputs.make_kit(seed)
        self.kit_dir = work / "kit"
        inputs.write_kit(self.kit, self.kit_dir)
        self.pool = {"separate-abs": sizes.abs_pool, "separate-nmfd": sizes.nmfd_pool,
                     "generate-evaluate": sizes.gen_pool}[workload]

    # -- inputs ------------------------------------------------------------

    def track(self, duration: float, index: int) -> Track:
        """Render track ``index`` and write its mixture and transcription."""
        events, stems, mix = inputs.make_track(self.kit, self.seed, index, duration)
        base = self.work / f"input-{index}"
        mixture_path, transcription_path = base.with_suffix(".wav"), base.with_suffix(".csv")
        inputs.write_wav(mixture_path, mix)
        inputs.write_transcription(events, transcription_path)
        active = sorted({inputs.CLASS_NAMES.index(c) for _, c, _ in events})
        return Track(mixture_path, transcription_path, inputs.read_wav(mixture_path),
                     stems, active)

    # -- commands and checks -----------------------------------------------

    def _invoke(self, args: list[str]) -> tuple[float, int]:
        start = time.perf_counter()
        try:
            # Without standalone mode click returns an exit code from ctx.exit().
            result = self.cli.main.main(args=args, prog_name="drumsep", standalone_mode=False)
            code = result if isinstance(result, int) else 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except self.click.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except Exception:  # a crash is a failed command, not a failed run
            traceback.print_exc()
            code = 1
        return time.perf_counter() - start, code

    def command(self, name: str, args: list, out: Path) -> tuple[bool, float]:
        """Run one CLI command; in a traced run, run it again with spans,
        alternating which goes first. Returns (exit code 0, untraced seconds)."""
        args = [str(a) for a in args]
        traced_first = self.tracer is not None and len(self.overhead[name]) % 2 == 1
        if traced_first:
            traced, traced_code = self._invoke_traced(name, args)
        seconds, code = self._invoke(args)
        if self.tracer is not None:
            if not traced_first:
                traced, traced_code = self._invoke_traced(name, args)
            self.check(traced_code == 0, f"traced {' '.join(args)}: exit {traced_code}")
            if self.recording:
                self.overhead[name].append(traced - seconds)
        self.check(code == 0, f"{' '.join(args)}: exit {code}")
        if code == 0 and self.recording and self.tracer is not None:
            self.out_bytes[name].append(_path_size(out))
        return code == 0, seconds

    def _invoke_traced(self, name: str, args: list[str]) -> tuple[float, int]:
        with self.tracer.instrument(), self.tracer.span(f"cli.{name}") as root:
            seconds, code = self._invoke(args)
        root.notes = {"recorded": self.recording}
        for span in self.tracer.spans[-1::-1]:
            if span is root:
                break
            if "per_class" in span.notes:  # keep the KL, drop the arrays
                span.notes = {"kl": _kl(span.notes["v"], span.notes["per_class"]),
                              "active": span.notes["active"]}
        return seconds, code

    def check(self, passed: bool, what: str) -> bool:
        """Count one attempted command or check; report a failure on stderr."""
        self.attempted += 1
        if not passed:
            self.failed += 1
            print(f"failed: {what}", file=sys.stderr)
        return passed

    def record(self, name: str, seconds: float, tracks: int):
        if self.recording:
            self.times[name].append(seconds / tracks)

    def record_quality(self, key: tuple[str, int], values: list[tuple[float, float]]):
        if self.recording and key[1] < self.pool:
            self.quality[key] = values

    # -- workloads ---------------------------------------------------------

    def round_separate_abs(self, index: int, warmup: bool):
        s = self.sizes
        track = self.track(s.warmup_duration if warmup else s.abs_duration, index)
        out = self.work / f"abs-{index}"
        ok, seconds = self.command("abs", [
            "separate", "abs", "--mixture", track.mixture_path, "--transcription",
            track.transcription_path, "--out", out, "--steps", s.abs_steps], out)
        self.record("abs", seconds, 1)
        self.record("pipeline", seconds, 1)
        if ok:
            passed, masked = checks.stems_sum_to(out / "masked", track.mixture)
            if self.check(passed, f"{out}/masked: stems do not sum to the mixture"):
                self.record_quality(("abs", index), checks.separation_scores(
                    track.stems, masked, track.mixture, track.active))
        shutil.rmtree(out, ignore_errors=True)

    def round_separate_nmfd(self, index: int, warmup: bool):
        s = self.sizes
        track = self.track(s.warmup_duration if warmup else s.nmfd_duration, index)
        total = 0.0
        for case in NMFD_CASES:
            name = f"nmfd_{case}"
            out = self.work / f"{name}-{index}"
            ok, seconds = self.command(name, [
                "separate", "nmfd", "--case", case, "--bank", self.kit_dir, "--mixture",
                track.mixture_path, "--transcription", track.transcription_path,
                "--out", out], out)
            self.record(name, seconds, 1)
            total += seconds
            if ok:
                passed, masked = checks.stems_sum_to(out / "masked", track.mixture)
                if self.check(passed, f"{out}/masked: stems do not sum to the mixture"):
                    self.record_quality((name, index), checks.separation_scores(
                        track.stems, masked, track.mixture, track.active))
            shutil.rmtree(out, ignore_errors=True)
        self.record("pipeline", total, 1)

    def round_generate_evaluate(self, index: int, warmup: bool):
        s = self.sizes
        duration, n_tracks = (s.warmup_duration, 1) if warmup else (s.gen_duration, s.gen_tracks)
        gen, est = self.work / f"gen-{index}", self.work / f"est-{index}"
        ok, t_gen = self.command("generate", [
            "generate", "--banks", self.kit_dir, "--tracks", n_tracks, "--seed",
            self.seed * 1000 + index, "--duration", duration, "--out", gen], gen)
        self.record("generate", t_gen, n_tracks)
        names = [f"track_{j:04d}" for j in range(n_tracks)]
        expected: dict[str, dict[str, tuple[bool, float]]] = {}
        scores: list[tuple[float, float]] = []
        ok = ok and self._derive_estimates(gen, est, names, expected, scores)
        if not ok:
            shutil.rmtree(gen, ignore_errors=True)
            shutil.rmtree(est, ignore_errors=True)
            return
        report = self.work / f"report-{index}.json"
        ok, t_eval = self.command("evaluate", ["evaluate", "--refs", gen, "--ests", est,
                                               "--out", report], report)
        self.record("evaluate", t_eval, n_tracks)
        if ok and self.check(checks.check_report(report, expected),
                             f"{report}: rows or nSDR values wrong"):
            self.record_quality(("evaluate", index), scores)
        t_detect = 0.0
        for name in names:
            onsets = self.work / f"onsets-{index}-{name}.csv"
            ok, seconds = self.command("detect_onsets", [
                "detect-onsets", "--mixture", gen / name / "mixture.wav", "--out", onsets],
                onsets)
            self.record("detect_onsets", seconds, 1)
            t_detect += seconds
            if ok:
                has_onsets = any(active for active, _ in expected[name].values())
                self.check(checks.check_onsets(onsets, duration, has_onsets),
                           f"{onsets}: bad header, onsets outside the track, or none found")
            onsets.unlink(missing_ok=True)
        self.record("pipeline", t_gen + t_eval + t_detect, n_tracks)
        shutil.rmtree(gen, ignore_errors=True)
        shutil.rmtree(est, ignore_errors=True)
        report.unlink(missing_ok=True)

    def _derive_estimates(self, gen: Path, est: Path, names: list[str], expected: dict,
                          scores: list) -> bool:
        """Check generated tracks (stems sum to the mixture), write leaky
        estimates, fill ``expected`` with the report each track should get
        and ``scores`` with the active classes' separation scores. Returns
        False if a track cannot be read."""
        for name in names:
            try:
                mixture = inputs.read_wav(gen / name / "mixture.wav")
                with open(gen / name / "transcription.csv", encoding="utf-8") as handle:
                    active = {line.split(",")[1] for line in handle.read().splitlines()[1:] if line}
            except (OSError, ValueError, IndexError) as exc:
                return self.check(False, f"{gen / name}: unreadable ({exc})")
            passed, refs = checks.stems_sum_to(gen / name / "stems", mixture)
            self.check(passed, f"{gen / name}/stems: missing, or do not sum to the mixture")
            if refs is None:
                return False
            ests = inputs.leaky_estimates(refs, LEAK).astype(np.float32).astype(np.float64)
            expected[name] = {}
            for k, cls in enumerate(inputs.CLASS_NAMES):
                inputs.write_wav(est / name / f"{cls}.wav", ests[k])
                expected[name][cls] = (cls in active, checks.nsdr_db(refs[k], ests[k]))
            scores += checks.separation_scores(
                refs, ests, mixture, [inputs.CLASS_NAMES.index(c) for c in sorted(active)])
        return True

    def execute(self, seconds: float, min_rounds: int) -> float:
        """Warm up once on tiny inputs, then run rounds until the next one
        would end past ``seconds``. Returns the measured window."""
        body = getattr(self, "round_" + self.workload.replace("-", "_"))
        self.recording = False
        body(WARMUP, warmup=True)
        self.recording = True
        start = time.perf_counter()
        index = 0
        while True:
            t0 = time.perf_counter()
            body(index, warmup=False)
            self.round_times.append(time.perf_counter() - t0)
            index += 1
            elapsed = time.perf_counter() - start
            if index >= min_rounds and elapsed + statistics.median(self.round_times) > seconds:
                return elapsed

    # -- results -----------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, int]]:
        """Every end-to-end figure the workload's pipeline produces, as
        (value, number of samples)."""
        out = {}
        for name in COMMANDS + ("pipeline",):
            if self.times[name]:
                out[f"{name}_s_per_track"] = (statistics.median(self.times[name]),
                                              len(self.times[name]))
        for name in ("abs",) + tuple(f"nmfd_{c}" for c in NMFD_CASES) + ("evaluate",):
            scores = [v for (n, _), vs in self.quality.items() if n == name for v in vs]
            if scores:
                out[f"{name}_nsdr_db"] = (statistics.median(v for v, _ in scores), len(scores))
                out[f"{name}_nsdri_db"] = (statistics.fmean(i for _, i in scores), len(scores))
        # With every pool round failed there is no output to score: 0 dB.
        improvements = [i for vs in self.quality.values() for _, i in vs] or [0.0]
        out["nsdri_db"] = (statistics.fmean(improvements), len(improvements))
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
        out["failed_ratio"] = (self.failed / max(1, self.attempted), self.attempted)
        return out

    def per_layer(self) -> dict[str, float]:
        return layer_metrics(self.tracer, self.overhead, self.out_bytes,
                             self.failed / max(1, self.attempted))


def _kl(v: np.ndarray, per_class: np.ndarray, eps: float = 1e-10) -> float:
    """Generalized KL divergence D(V || sum_k Lambda_k + eps)."""
    lam = per_class.sum(axis=0) + eps
    pos = v > 0
    return float(np.sum(v[pos] * np.log(v[pos] / lam[pos])) - v.sum() + lam.sum())


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

# Per-call medians: metric -> (span name, scale to the unit).
CALL_METRICS = {
    "abs_solver.solve_track_s": ("abs_solver.solve_track", 1.0),
    "abs_solver.loss_gradient_ms": ("abs_solver.loss_gradient", 1e3),
    "abs_solver.render_from_params_ms": ("abs_solver.render_from_params", 1e3),
    "abs_solver.recon_loss_ms": ("abs_solver.recon_loss", 1e3),
    "abs_solver.target_magnitudes_ms": ("abs_solver.target_magnitudes", 1e3),
    "masking.compute_masks_ms": ("masking.compute_masks", 1e3),
    "masking.apply_masks_ms": ("masking.apply_masks", 1e3),
    "signal.stft_ms": ("signal.stft", 1e3),
    "signal.istft_ms": ("signal.istft", 1e3),
    "signal.log_mel_ms": ("signal.log_mel", 1e3),
    "drum_machine.render_ms": ("drum_machine.render", 1e3),
    "dataset.generate_dataset_s": ("dataset.generate_dataset", 1.0),
    "transcription.spectral_flux_curve_ms": ("transcription.spectral_flux_curve", 1e3),
    "transcription.peak_pick_ms": ("transcription.peak_pick", 1e3),
    "transcription.events_to_grid_ms": ("transcription.events_to_grid", 1e3),
    "evaluation.evaluate_track_ms": ("evaluation.evaluate_track", 1e3),
    "evaluation.nsdr_ms": ("evaluation.nsdr", 1e3),
    "evaluation.lsd_ms": ("evaluation.lsd", 1e3),
    "evaluation.pes_ms": ("evaluation.pes", 1e3),
    "evaluation.aggregate_ms": ("evaluation.aggregate", 1e3),
    "fileio.read_wav_ms": ("fileio.read_wav", 1e3),
    "fileio.write_wav_ms": ("fileio.write_wav", 1e3),
    "fileio.read_bank_ms": ("fileio.read_bank", 1e3),
}
NMFD_CALL_METRICS = {
    "nmfd.nmfd_run_s": ("nmfd.nmfd_run", 1.0),
    "nmfd.nmfd_step_ms": ("nmfd.nmfd_step", 1e3),
    "nmfd.reconstruct_per_class_ms": ("nmfd.reconstruct_per_class", 1e3),
    "nmfd.init_informed_ms": ("nmfd.init_informed", 1e3),
}
ROUND_FIRST_COMMANDS = ("abs", "nmfd_1a", "generate")
READS = ("fileio.read_wav", "fileio.read_transcription")
WRITES = ("fileio.write_wav", "fileio.write_transcription", "fileio.write_report",
          "fileio.write_loss_trace")


def per_layer_names() -> dict[str, tuple[str, str]]:
    """Every per-layer metric with (unit, better)."""
    names = {m: ("s" if m.endswith("_s") else "ms", "lower") for m in CALL_METRICS}
    names |= {"abs_solver.step_rest_ms": ("ms", "lower"),
              "abs_solver.loss_ratio": ("ratio", "lower"),
              "abs_solver.onsets": ("count", "higher"),
              "abs_solver.active_classes": ("count", "higher"),
              "nmfd.active_class_ratio": ("ratio", "higher"),
              "drum_machine.render_samples": ("count", "higher"),
              "fileio.bytes_read": ("bytes", "lower"),
              "fileio.bytes_written": ("bytes", "lower"),
              "failed_ratio": ("ratio", "lower")}
    for case in NMFD_CASES:
        for m in NMFD_CALL_METRICS:
            names[f"{m}.{case}"] = ("s" if m.endswith("_s") else "ms", "lower")
        names[f"nmfd.kl_final.{case}"] = ("nats", "lower")
    for cmd in COMMANDS:
        names[f"cli.command_s.{cmd}"] = ("s", "lower")
        names[f"cli.self_s.{cmd}"] = ("s", "lower")
        names[f"cli.out_bytes.{cmd}"] = ("bytes", "lower")
        names[f"trace.overhead_s.{cmd}"] = ("s", "lower")
        names[f"trace.coverage.{cmd}"] = ("ratio", "higher")
    return names


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, overhead, out_bytes, failed_ratio: float) -> dict[str, float]:
    """Per-layer metrics over the recorded (not warm-up) commands; a layer
    the workload never calls reads 0."""
    spans, kids = tracer.spans, tracer.children()
    covered = {i: sum(spans[c].seconds for c in kids[i]) for i in range(len(spans))}
    samples: dict[str, list[float]] = defaultdict(list)
    n_rounds = bytes_read = bytes_written = 0
    for root in kids[None]:
        if not spans[root].notes.get("recorded"):
            continue
        cmd = spans[root].name[len("cli."):]
        case = cmd[len("nmfd_"):] if cmd.startswith("nmfd_") else None
        n_rounds += cmd in ROUND_FIRST_COMMANDS
        wall = spans[root].seconds
        samples[f"cli.command_s.{cmd}"].append(wall)
        samples[f"cli.self_s.{cmd}"].append(wall - covered[root])
        samples[f"trace.coverage.{cmd}"].append(covered[root] / wall)
        stack = list(kids[root])
        while stack:
            i = stack.pop()
            stack.extend(kids[i])
            span = spans[i]
            for metric, (name, unit) in CALL_METRICS.items():
                if span.name == name:
                    samples[metric].append(span.seconds * unit)
            for metric, (name, unit) in NMFD_CALL_METRICS.items():
                if span.name == name:
                    samples[f"{metric}.{case}"].append(span.seconds * unit)
            if span.name in READS:
                bytes_read += span.notes.get("bytes_read", 0)
            elif span.name in WRITES:
                bytes_written += span.notes.get("bytes_written", 0)
            elif span.name == "drum_machine.render":
                samples["drum_machine.render_samples"].append(span.notes["samples"])
            elif span.name == "nmfd.nmfd_run":
                samples[f"nmfd.kl_final.{case}"].append(span.notes["kl"])
                samples["nmfd.active_class_ratio"].append(span.notes["active"] / 9)
            elif span.name == "abs_solver.solve_track":
                steps = sum(spans[c].name == "abs_solver.loss_gradient" for c in kids[i])
                samples["abs_solver.step_rest_ms"].append(
                    (span.seconds - covered[i]) / max(1, steps) * 1e3)
                trace = span.notes["loss_trace"]
                samples["abs_solver.loss_ratio"].append(trace[-1] / trace[0])
                samples["abs_solver.onsets"].append(span.notes["onsets"])
                samples["abs_solver.active_classes"].append(span.notes["active"])
    for cmd, values in overhead.items():
        samples[f"trace.overhead_s.{cmd}"] = values
    for cmd, values in out_bytes.items():
        samples[f"cli.out_bytes.{cmd}"] = values
    metrics = {name: _median(samples[name]) for name in per_layer_names()}
    metrics["fileio.bytes_read"] = bytes_read / max(1, n_rounds)
    metrics["fileio.bytes_written"] = bytes_written / max(1, n_rounds)
    metrics["failed_ratio"] = failed_ratio
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

WORKLOADS = ("separate-abs", "separate-nmfd", "generate-evaluate")
E2E_UNITS = {"pipeline_s_per_track": "s", "nsdri_db": "dB", "peak_rss_mb": "MB", "setup_s": "s"}
DETAIL_UNITS = {"_s_per_track": "s", "_db": "dB", "failed_ratio": "ratio"}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes) -> dict:
    """One run; prints detail lines and returns the result object."""
    program = load_program()
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_s = measure_setup(sizes.setup_repeats)
        env = environment()
        run = Run(program, workload, seed, sizes, work, trace)
        # A traced run reports no quality metric, so one round is enough.
        window = run.execute(seconds, 1 if trace else run.pool)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((ROOT / ".bench_work").glob("*")):
            shutil.rmtree(ROOT / ".bench_work", ignore_errors=True)
    print(json.dumps({"workload": workload, "seed": seed, "trace": int(trace),
                      "rounds": len(run.round_times), "window_s": window,
                      "environment": env}))
    if trace:
        trace_path = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.jsonl"
        run.tracer.write(trace_path)
        metrics = run.per_layer()
        units = {name: unit for name, (unit, _) in per_layer_names().items()}
        print(json.dumps({"spans": str(trace_path.relative_to(ROOT)),
                          "missing_hooks": sorted(run.tracer.missing_hooks)}))
    else:
        detail = run.end_to_end()
        detail["setup_s"] = (setup_s, sizes.setup_repeats)
        for name, (value, n) in detail.items():
            unit = E2E_UNITS.get(name) or next(u for suffix, u in DETAIL_UNITS.items()
                                               if name.endswith(suffix))
            spread = ""
            if name.endswith("_s_per_track"):
                values = run.times[name[:-len("_s_per_track")]]
                spread = f"  min {min(values):.6f} max {max(values):.6f}"
            print(f"{name:28s} {value:14.6f} {unit:6s} n={n}{spread}")
        metrics = {k: detail[k][0] for k in E2E_UNITS}
        units = E2E_UNITS
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def smoke() -> int:
    """Every workload path, traced and untraced, on tiny inputs; checks the
    result schema against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    if layers != {n: u for n, (u, _) in per_layer_names().items()}:
        problems.append("BENCHMARK.json per_layer differs from run.py")
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_workload(workload, 0, 0.0, trace, SMOKE)
            want = layers if trace else e2e
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            label = f"{workload} trace={int(trace)}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if got != want:
                problems.append(f"{label}: metrics/units differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
            if not trace and any(v["value"] == 0 for v in result["metrics"].values()):
                problems.append(f"{label}: an end-to-end metric is 0")
    for problem in problems:
        print("smoke:", problem)
    print(json.dumps({"smoke": "failed" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload and check on tiny inputs")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), FULL)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
