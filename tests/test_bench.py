"""The benchmark's smoke run: every workload, traced and untraced, on tiny
inputs, with the bench's own output checks."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_run_is_ok():
    """A change that breaks a command the bench runs, or a check the bench
    makes of its outputs, fails here. Takes about 5 s."""
    result = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                            capture_output=True, text=True, timeout=600)
    lines = result.stdout.splitlines()
    assert lines, result.stderr
    assert json.loads(lines[-1]) == {"smoke": "ok", "problems": 0}, result.stdout
    assert result.returncode == 0, result.stderr
