"""In-memory spans around the calls into each drumsep module.

`Tracer.instrument()` swaps each hooked function, under every name a drumsep
module binds it to, for a wrapper that records a span: name, start, end and
parent span. The CLI then drives the calls in its own order and the program's
files stay untouched. Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _path_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# (module, function, what to note about a call from its args and result).
# Notes only keep references or read sizes; anything costlier is computed
# after the command has finished.
HOOKS = [
    ("fileio", "read_wav", lambda a, k, r: {"bytes_read": _path_bytes(_arg(a, k, 0, "path"))}),
    ("fileio", "write_wav", lambda a, k, r: {"bytes_written": _path_bytes(_arg(a, k, 0, "path"))}),
    ("fileio", "read_bank", None),
    ("fileio", "read_transcription", lambda a, k, r: {"bytes_read": _path_bytes(_arg(a, k, 0, "path"))}),
    ("fileio", "write_transcription", lambda a, k, r: {"bytes_written": _path_bytes(_arg(a, k, 1, "path"))}),
    ("fileio", "write_report", lambda a, k, r: {"bytes_written": _path_bytes(_arg(a, k, 1, "path"))}),
    ("fileio", "write_loss_trace", lambda a, k, r: {"bytes_written": _path_bytes(_arg(a, k, 1, "path"))}),
    ("signal", "stft", None),
    ("signal", "istft", None),
    ("signal", "log_mel", None),
    ("drum_machine", "render", lambda a, k, r: {"samples": int(r[0].size)}),
    ("dataset", "generate_dataset", None),
    ("transcription", "spectral_flux_curve", None),
    ("transcription", "peak_pick", None),
    ("transcription", "events_to_grid", None),
    ("nmfd", "nmfd_run", lambda a, k, r: {
        "v": _arg(a, k, 0, "v"), "per_class": r[1],
        "active": len(_arg(a, k, 1, "t").active_classes())}),
    ("nmfd", "init_informed", None),
    ("nmfd", "nmfd_step", None),
    ("nmfd", "reconstruct_per_class", None),
    ("abs_solver", "solve_track", lambda a, k, r: {
        "loss_trace": r.loss_trace, "onsets": len(_arg(a, k, 1, "t")),
        "active": len(_arg(a, k, 1, "t").active_classes())}),
    ("abs_solver", "target_magnitudes", None),
    ("abs_solver", "informed_init", None),
    ("abs_solver", "loss_gradient", None),
    ("abs_solver", "render_from_params", None),
    ("abs_solver", "recon_loss", None),
    ("masking", "compute_masks", None),
    ("masking", "apply_masks", None),
    ("evaluation", "evaluate_track", None),
    ("evaluation", "nsdr", None),
    ("evaluation", "lsd", None),
    ("evaluation", "pes", None),
    ("evaluation", "aggregate", None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "notes")

    def __init__(self, name: str, start: float, parent: int | None):
        self.name, self.start, self.end, self.parent = name, start, start, parent
        self.notes: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; span ids are list indices, roots have parent None."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.missing_hooks: set[str] = set()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, time.perf_counter(), parent)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, func, note):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = func(*args, **kwargs)
            if note is not None:
                span.notes = note(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def instrument(self):
        """Patch every hooked function in every loaded drumsep module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "drumsep" or n.startswith("drumsep.")]
        saved = []
        try:
            for module_name, func_name, note in HOOKS:
                owner = sys.modules.get(f"drumsep.{module_name}")
                func = getattr(owner, func_name, None)
                if func is None:
                    self.missing_hooks.add(f"{module_name}.{func_name}")
                    continue
                wrapper = self._wrap(f"{module_name}.{func_name}", func, note)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is func:
                            saved.append((module, attr, value))
                            setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def children(self) -> dict[int | None, list[int]]:
        """Span ids by parent id, in start order."""
        kids: dict[int | None, list[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            kids[span.parent].append(i)
        return kids

    def write(self, path: Path):
        """Dump spans as JSON lines: id, name, start and end (s), parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": s.name, "start": round(s.start - t0, 9),
                    "end": round(s.end - t0, 9), "parent": s.parent,
                }) + "\n")
