"""How many threads a computation split into independent parts may use:
the loss scales of ``abs_solver`` and the frames of ``evaluation.lsd``."""

from __future__ import annotations

import os

# The most threads a computation uses: the count measured to be faster than
# one with no more peak memory (2 vCPUs). Lift it only on measurements from
# a machine with more CPUs.
MAX_THREADS = 2


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_count(parts: int) -> int:
    """Threads for ``parts`` independent parts: min(parts, usable CPUs,
    ``MAX_THREADS``), at least one."""
    return max(1, min(parts, usable_cpus(), MAX_THREADS))
