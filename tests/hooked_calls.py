"""Which thread runs each function that bench/tracing.py hooks.

The tracer's span stack is shared by all threads, so a function it wraps
must not run on a worker thread."""

import importlib.util
import sys
import threading
from pathlib import Path


def record_hooked_calls(monkeypatch, modules, unhooked=()):
    """Wrap, under every name a drumsep module binds it to, each function
    that bench/tracing.py's HOOKS names in ``modules``, and each
    ``(module, name)`` of ``unhooked``. Returns the list of (qualified
    name, ran on the main thread) that every call to them appends to."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    hooked = [(m, f) for m, f, _ in tracing.HOOKS if m in modules]

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
