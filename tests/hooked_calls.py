"""Which thread runs each function that bench/tracing.py hooks, and a
loader for the bench's modules.

The tracer's span stack is shared by all threads, so a function it wraps
must not run on a worker thread."""

import importlib.util
import sys
import threading
from pathlib import Path


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
