"""Fresh-interpreter children of a run: the set-up timer and the call counter.

``python3 -m bench.child setup SPEC`` measures a cold start: from just
before ``import repro`` to the first op's result returned, with a fresh
cache directory; the inputs come generated from the parent and building
them is outside the clock.  ``python3 -m bench.child count SPEC`` pins
itself to one CPU at the lowest priority and counts the calls of one warmed op.
Both print one JSON object as their last line; the counter also leaves
the counted op's outputs next to the spec for the parent to verify.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import sys
import time

from . import counting, measure
from .workloads import SRC, WORKLOADS, untimed

def setup(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    # One set-up is one ratio, so each side of it gets two samples.
    before = measure.calibrate() + measure.calibrate()
    started = time.perf_counter()
    import repro  # noqa: F401  (the import is what is being timed)

    import_wall = time.perf_counter() - started
    inputs = workload.build(spec["plain"])
    gc.collect()
    started = time.perf_counter()
    running = workload.start(inputs, spec["sources"], spec["scratch"], spec["smoke"])
    try:
        running.first_op()
        wall = import_wall + time.perf_counter() - started
        # VmHWM, not ru_maxrss: that one starts at the parent's resident set.
        pids = [os.getpid()] + ([running.daemon_pid] if running.daemon_pid else [])
        peak_rss_kb = max(measure.proc_peak_rss_kb(pid) or 0 for pid in pids)
    finally:
        running.close()
    after = measure.calibrate() + measure.calibrate()
    return {
        "setup_wall_s": wall,
        "setup_ratio": measure.paired_ratio(wall, before, after),
        "calib_s": [before, after],
        "peak_rss_kb": peak_rss_kb,
    }


def count(spec: dict) -> dict:
    counting.pin_to_one_cpu()
    _lowest_priority()
    counter = counting.CallCounter()  # before any thread of the op exists
    import repro  # noqa: F401

    workload = WORKLOADS[spec["workload"]]
    inputs = workload.build(spec["plain"])
    running = workload.start(
        inputs, spec["sources"], spec["scratch"], spec["smoke"], in_process=True
    )
    try:
        for _ in range(workload.warmup_ops):
            running.op(untimed)
        counter.begin()
        try:
            record = running.op(untimed)
        finally:
            counter.end()
    finally:
        running.close()
    with open(spec["count_record"], "wb") as handle:
        pickle.dump(record.facts(), handle)
    total, by_package, sizeof = counter.totals()
    return {"op_calls": total, "calls_by_package": by_package, "sizeof_calls": sizeof}


def _lowest_priority() -> None:
    """Yield to the parent's timed work: the count is exact at any speed.

    ``nice`` rather than ``SCHED_IDLE``: the load balancer moves a timed
    process that lands on the pinned CPU over to the free one, where under
    ``SCHED_IDLE`` it stays and starves this child for seconds.
    """
    os.nice(19)


def main(argv: list[str]) -> int:
    mode, spec_path = argv
    with open(spec_path, "rb") as handle:
        spec = pickle.load(handle)
    sys.path.insert(0, SRC)
    print(json.dumps({"setup": setup, "count": count}[mode](spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
