"""Clocks, the host-speed calibration kernel and the paired-ratio estimator.

Host speed on a shared box drifts in phases longer than one run, and it
moves an op and a fixed pure-Python kernel together.  So every timing
the benchmark gates on is a *normalised second*: each timed call's wall
time is divided by the host speed around it — the median of the kernel
executions of the calibration samples taken immediately before and
after it — the per-call ratios are reduced by their median, and the
result is scaled by :data:`CALIB_REF_S` (the kernel's time on the
reference host) so the unit still reads as seconds.  This module never
imports ``repro``.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from typing import Any, Callable, Optional, Sequence

#: One calibration sample is this many kernel executions, each timed.
CALIB_REPEATS = 3
_CALIB_ITERATIONS = 60_000
_CALIB_KEY_MASK = 32_767

#: One kernel execution on the reference host (2-CPU Xeon @ 2.1 GHz,
#: CPython 3.11).  A constant of the benchmark: changing it, or the
#: kernel, rescales every normalised second ever recorded.
CALIB_REF_S = 0.011


def calibration_kernel() -> int:
    """Dict updates and integer arithmetic in a pure-Python loop."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(_CALIB_ITERATIONS):
        key = (i * 7919) & _CALIB_KEY_MASK
        acc = (acc + table.get(key, 0) * 3 + i) & 0xFFFFFFF
        table[key] = acc
    return acc


Sample = tuple[float, ...]


def calibrate() -> Sample:
    """One calibration sample: the seconds of each kernel execution."""
    times = []
    for _ in range(CALIB_REPEATS):
        started = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - started)
    return tuple(times)


def timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    """``(fn(), wall seconds)`` with the collector run outside the clock."""
    gc.collect()
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def paired_ratio(wall: float, before: Sample, after: Sample) -> float:
    """A wall time over the host speed around it.

    The host speed is the median kernel execution of the two samples: a
    single disturbed execution does not move it, a slow phase that
    covers the call moves it with the call.
    """
    return wall / statistics.median(before + after)


class PairedClock:
    """Times calls between calibration samples.

    Consecutive calls share the sample between them, so a loop of *n*
    calls costs *n + 1* samples.  ``samples`` keeps every calibration
    sample in order (``host.calib_ms`` / ``host.noisy`` read it).
    """

    def __init__(self) -> None:
        self.samples: list[Sample] = [calibrate()]

    def time(self, fn: Callable[[], Any]) -> tuple[Any, float, float]:
        """``(result, wall seconds, wall / local host speed)``."""
        before = self.samples[-1]
        result, wall = timed(fn)
        after = calibrate()
        self.samples.append(after)
        return result, wall, paired_ratio(wall, before, after)

    def resample(self) -> None:
        """Refresh the pending *before* sample after untimed work."""
        self.samples.append(calibrate())


def normalised_seconds(ratios_by_segment: Sequence[Sequence[float]]) -> float:
    """The paired-ratio estimate of one op, in normalised seconds.

    ``ratios_by_segment[k]`` holds segment *k*'s ``wall / host speed``
    ratio for every measured op; an op that is one timed call has one
    segment.  Medians are taken per segment and then summed, so a
    three-cycle compile run is robust to one disturbed call per segment.
    """
    return CALIB_REF_S * sum(statistics.median(r) for r in ratios_by_segment)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def host_noisy(samples: Sequence[Sample]) -> bool:
    """Did the best kernel execution of the run's first third and of its
    last third differ by more than 10 %?"""
    third = max(1, len(samples) // 3)
    first = min(min(sample) for sample in samples[:third])
    last = min(min(sample) for sample in samples[-third:])
    return abs(first - last) / min(first, last) > 0.10


def kernel_seconds(samples: Sequence[Sample]) -> list[float]:
    """Every kernel execution of the samples, in order."""
    return [seconds for sample in samples for seconds in sample]


# ----------------------------------------------------------------------
# CPU and memory readers


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_kb(pid: int) -> Optional[int]:
    """``VmHWM`` of a live process in KiB, or None when unreadable."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None
