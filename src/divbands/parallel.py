"""Fork-split work whose parts are independent.

CSV emission, simulation batches and the power/log solve's two bracket
tables split their work into a few contiguous runs: run 0 goes in the
calling process and each other run goes in a child made with
``os.fork``.  A child inherits the inputs without copying or pickling,
writes its results where the caller can read them (a temp file, or
arrays from ``shared_arrays``), and always ends in ``os._exit``.
It therefore never returns into the caller's stack, never flushes stdio
buffers it inherited, and never runs exit handlers.  Children never fork
again.  A part whose child failed is re-run in the caller, so an
exception surfaces there with its serial type and message.
Only the calling thread is copied into a child, so a part must use only
what that thread owns: the parts here format floats or step numpy
arrays, and need no lock held by another thread.  The kernel places
every process of a split.
"""

from __future__ import annotations

import errno
import math
import mmap
import os
from typing import Callable, Sequence

import numpy as np


def shared_arrays(specs: Sequence[tuple[tuple[int, ...], type]], what: str
                  ) -> list[np.ndarray]:
    """Zeroed arrays of the given (shape, dtype)s, as views on one anonymous
    shared mmap, so a forked child's writes reach the caller.

    Each array starts at a multiple of its dtype's alignment.  The size is
    computed with Python ints, so a size beyond ``ssize_t`` is refused
    rather than wrapped; it, and a mapping the OS refuses for want of
    memory, raise MemoryError naming the bytes and ``what`` they hold.
    """
    offsets, size = [], 0
    for shape, dtype in specs:
        dtype = np.dtype(dtype)
        size = -(-size // dtype.alignment) * dtype.alignment
        offsets.append(size)
        size += math.prod(shape) * dtype.itemsize
    try:
        buf = mmap.mmap(-1, size)
    except (OSError, OverflowError) as exc:  # OverflowError: beyond ssize_t
        if isinstance(exc, OSError) and exc.errno != errno.ENOMEM:
            raise
        raise MemoryError(f"cannot map {size} bytes of {what}") from exc
    return [np.frombuffer(buf, dtype=dtype, count=math.prod(shape), offset=offset
                          ).reshape(shape)
            for (shape, dtype), offset in zip(specs, offsets)]


def split_runs(threads: int, items: Sequence) -> list[Sequence]:
    """``items`` cut into k contiguous runs of nearly equal length.

    k = min(threads, usable CPUs, len(items)), and at least 1, so a huge
    ``threads`` starts no more processes than there are CPUs, and
    ``threads=1`` keeps everything in the caller.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity calls on this platform
        cpus = 0
    n = len(items)
    k = max(1, min(threads, cpus or os.cpu_count() or 1, n))
    return [items[n * i // k:n * (i + 1) // k] for i in range(k)]


def fork_parts(k: int, part: Callable[[int], None]) -> None:
    """Run part(0) here and part(1), ..., part(k-1) in forked children.

    A child's part that failed (it raised, the child died, or the OS
    refused the fork) is re-run here, in ascending order, once every
    child is reaped, so its error surfaces with its serial type and
    message.  If part(0) raises, the exception propagates once every child
    is reaped and nothing is re-run; no child is left running either way.
    """
    children: dict[int, int] = {}
    failed: list[int] = []
    try:
        for i in range(1, k):
            try:
                pid = os.fork()
            except OSError:  # out of processes or memory: run it here
                failed.append(i)
                continue
            if pid == 0:
                code = 1
                try:
                    part(i)
                    code = 0
                finally:
                    os._exit(code)
            children[pid] = i
        part(0)
    finally:
        for pid, i in children.items():
            _, status = os.waitpid(pid, 0)
            if os.waitstatus_to_exitcode(status) != 0:
                failed.append(i)
    for i in sorted(failed):
        part(i)
