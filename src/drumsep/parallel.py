"""Lanes: a computation split into ``thread_count(parts)`` independent
slices that ``run_lanes`` runs at once, one thread each. The hop blocks of
``masking`` run this way, and so do the scores of ``evaluation``: a track's
LSD frames, split by frame, and its nSDR and PES, split by stem, in one
call. No other module starts a thread.

Every lane user keeps three rules, so that the lane count changes no bit
and adds no memory beyond each lane's buffers:

- The calling thread allocates every buffer a lane writes. Arrays a worker
  thread allocates land in a per-thread malloc arena that is not given back
  to the system, which raised peak RSS by up to 16 %.
- A lane allocates no array and calls numpy, ``signal.fill_span``,
  ``signal.overlap_add``, ``signal.sounding_frames`` and
  ``drum_machine.trigger`` into its own buffers, ``signal.sounding_span``
  and a block writer's ``write``
  (``fileio.WavBlocks``, one ``os.pwrite`` of a range) only, never a
  function a tracer may wrap: a tracer's span stack is not thread-safe.
- A lane writes only its own buffers or its own slice of a shared output,
  array or file, and the caller reduces the lanes' results in a fixed
  order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

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


def run_lanes(lane, args: list[tuple]) -> list:
    """``[lane(*a) for a in args]``, each on its own thread: ``args[0]`` on
    the calling thread, the others on a pool of ``len(args) - 1`` threads
    (none for one lane). A lane's exception reaches the caller."""
    if len(args) == 1:
        return [lane(*args[0])]
    with ThreadPoolExecutor(len(args) - 1) as pool:
        futures = [pool.submit(lane, *a) for a in args[1:]]
        first = lane(*args[0])
        return [first] + [future.result() for future in futures]
