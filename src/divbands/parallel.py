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
arrays, and need no lock held by another thread.

Where the kernel does not balance load across this process's CPUs (its
cgroup-v1 cpuset and every ancestor have ``sched_load_balance`` 0, as on
some VMs), a forked child stays on its parent's CPU and the two share it:
on such a 2-vCPU VM an unpinned split of two equal pure-Python loops took
as long as running them one after the other.  There, and only there,
part i is pinned to the i-th usable CPU while the split runs, which made
the split take half as long; the caller's own CPU mask is put back
afterwards.  Elsewhere placement is left to the kernel.  Splits in
several processes at once all pin to the same first CPUs; that case is
unmeasured.
"""

from __future__ import annotations

import errno
import math
import mmap
import os
from contextlib import suppress
from pathlib import Path
from typing import Callable, Sequence

import numpy as np


def _cpus() -> list[int]:
    """The CPUs this process may run on; empty where the OS does not say."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity calls on this platform
        return []


def _balance_off(proc: str = "/proc/self") -> bool:
    """Whether the kernel leaves this process's CPUs out of load balancing.

    True when the process's cgroup-v1 cpuset and each of its ancestors
    have ``sched_load_balance`` 0; false otherwise, and wherever that
    cannot be read (cgroup v2 only, no cpuset, not Linux).
    """
    try:
        with open(f"{proc}/cgroup") as fh:
            path = next(line.rstrip("\n").split(":", 2)[2] for line in fh
                        if "cpuset" in line.split(":", 2)[1].split(","))
        with open(f"{proc}/mountinfo") as fh:
            root, mount = next(f[3:5] for f in map(str.split, fh)
                               if f[f.index("-") + 1] == "cgroup"
                               and "cpuset" in f[-1].split(","))
        rel = os.path.relpath(path, root)
        if rel.startswith(".."):
            return False
        top = Path(mount)
        for d in (top / rel, *(top / rel).parents):
            if (d / "cpuset.sched_load_balance").read_text().strip() != "0":
                return False
            if d == top:
                return True
    except (OSError, StopIteration, IndexError, ValueError):
        pass
    return False


def _set_cpus(cpus: list[int]) -> None:
    """Run this process on ``cpus`` only; no change when the list is empty."""
    if cpus:
        with suppress(OSError):  # a CPU gone offline: leave placement to the kernel
            os.sched_setaffinity(0, cpus)


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
    n = len(items)
    k = max(1, min(threads, len(_cpus()) or os.cpu_count() or 1, n))
    return [items[n * i // k:n * (i + 1) // k] for i in range(k)]


def fork_parts(k: int, part: Callable[[int], None]) -> None:
    """Run part(0) here and part(1), ..., part(k-1) in forked children.

    A child's part that failed (it raised, the child died, or the OS
    refused the fork) is re-run here, in ascending order, once every
    child is reaped and this process's CPU mask is put back, so its error
    surfaces with its serial type and message.  If part(0) raises, the
    exception propagates once every child is reaped and nothing is
    re-run; no child is left running either way.
    """
    cpus = _cpus() if k > 1 and _balance_off() else []  # [] leaves placement alone
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
                    _set_cpus(cpus[i:i + 1])
                    part(i)
                    code = 0
                finally:
                    os._exit(code)
            children[pid] = i
        _set_cpus(cpus[:1])
        part(0)
    finally:
        for pid, i in children.items():
            _, status = os.waitpid(pid, 0)
            if os.waitstatus_to_exitcode(status) != 0:
                failed.append(i)
        _set_cpus(cpus)
    for i in sorted(failed):
        part(i)
