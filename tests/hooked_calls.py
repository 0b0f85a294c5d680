"""Which thread runs each function that bench/tracing.py hooks, a loader
for the bench's modules, and a count of the rows numpy's FFT transforms.

The tracer's span stack is shared by all threads, so a function it wraps
must not run on a worker thread."""

import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np


def bench_module(name: str):
    """bench/<name>.py, loaded as a module: bench/ is not a package."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_hooks() -> list[tuple[str, str]]:
    """(module, function) of every entry of bench/tracing.py's HOOKS."""
    return [(m, f) for m, f, _ in bench_module("tracing").HOOKS]


def record_hooked_calls(monkeypatch, modules, unhooked=()):
    """Wrap, under every name a drumsep module binds it to, each function
    that bench/tracing.py's HOOKS names in ``modules``, and each
    ``(module, name)`` of ``unhooked``. Returns the list of (qualified
    name, ran on the main thread) that every call to them appends to."""
    hooked = [(m, f) for m, f in bench_hooks() if m in modules]

    calls = []

    def recording(name, func):
        def wrapper(*args, **kwargs):
            main = threading.current_thread() is threading.main_thread()
            calls.append((name, main))
            return func(*args, **kwargs)
        return wrapper

    loaded = [m for n, m in list(sys.modules.items()) if n.startswith("drumsep.")]
    for module_name, func_name in hooked + list(unhooked):
        func = getattr(sys.modules[f"drumsep.{module_name}"], func_name)
        wrapper = recording(f"{module_name}.{func_name}", func)
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, wrapper)
    return calls


def count_fft_rows(monkeypatch) -> dict[str, int]:
    """Wrap ``numpy.fft.rfft`` and ``irfft`` so that every call, from any
    thread, adds the rows it transforms (all but the last axis) to the
    returned counts."""
    counts = {"rfft": 0, "irfft": 0}
    lock = threading.Lock()

    def counting(name, func):
        def wrapper(a, *args, **kwargs):
            with lock:
                counts[name] += int(np.prod(np.shape(a)[:-1]))
            return func(a, *args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    return counts
