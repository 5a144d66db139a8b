"""``python3 -m bench.run --workload W --seed S --seconds N --trace {0,1}``.

One closed-loop client over one workload.  ``--seconds`` is the whole
run's wall budget: set-up children, the reference interpreter and the
verification all come out of it, and the op loop fills what is left.
The fixed work of a run (the fewest set-up children and ops, one counted
op) can overrun it when the host is slow; a child still running at twice
the budget is killed and the run fails.

``--trace 0`` measures the four end-to-end metrics with nothing wrapped.
``--trace 1`` is the separate traced run: an untraced stretch (raw
timings, per-request clocks, CPU), then a stretch with the wrappers of
:mod:`bench.instrument` installed, which yields the per-layer ledger.
Both modes run the counting child (:mod:`bench.child`) for the exact
call counts.  Every op's outputs are checked against the reference
interpreter outside every timer; the last stdout line is one JSON object
``{correct, attempted, failed, metrics}`` and the exit code is non-zero
when any op failed or any output was wrong.  The command itself only
supervises (:func:`_supervise`): the measurement runs in a child
interpreter, and the command exits once every process below it has ended.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from . import measure
from .counting import PACKAGES
from .instrument import SPAN_NAMES, installed
from .trace import ROOT_NAME, Tracer, ledger, mean_ledger
from .workloads import (
    ROOT,
    SRC,
    WORKLOADS,
    OpRecord,
    child_env,
    load_sources,
    plan_units,
    untimed,
)

DEFAULT_SECONDS = 24
SETUP_CHILDREN = 5
MIN_SETUP_CHILDREN = 3
#: No further set-up child starts once this share of the budget is spent.
SETUP_SHARE = 0.55
#: Share of the op-loop time a traced run spends untraced.
UNTRACED_SHARE = 0.6
#: No child outlives this multiple of ``--seconds`` (``--smoke``: of this many seconds).
HARD_STOP_FACTOR = 2.0
SMOKE_HARD_STOP_S = 150.0
SCRATCH_ROOT = os.path.join(ROOT, ".bench_scratch")
#: Set in the measuring interpreter's environment by :func:`_supervise`.
_SUPERVISED = "BENCH_RUN_SUPERVISED"
#: How long what a finished run left behind may take to end by itself.
STRAGGLER_GRACE_S = 5.0

END_TO_END = {"op_s": "s", "setup_s": "s", "op_calls_k": "kcalls", "peak_rss_mb": "MiB"}

_SELF_ROWS = SPAN_NAMES + (ROOT_NAME,)
PER_LAYER = {
    **{f"{span}_self_s": "s" for span in _SELF_ROWS},
    "synthesis.candidates_cold": "count",
    "synthesis.candidates_warm": "count",
    "pipeline.cache_hits": "count",
    "pipeline.cache_misses": "count",
    "pipeline.cold_s": "s",
    "pipeline.warm_s": "s",
    "planner.backend_flips": "count",
    "engine.spill_runs": "count",
    "engine.spilled_bytes": "bytes",
    "engine.sizeof_calls_k": "kcalls",
    "engine.records": "count",
    "engine.guard_trips": "count",
    "engine.fallbacks": "count",
    "engine.report_gap_s": "s",
    "session.queue_s": "s",
    "serve.req_p50_ms": "ms",
    "serve.req_p95_ms": "ms",
    "serve.daemon_cpu_s_per_op": "s",
    **{f"calls.{package}_k": "kcalls" for package in PACKAGES + ("other",)},
    "op_wall_raw_s": "s",
    "op_p90_s": "s",
    "cpu_s_per_op": "s",
    "host.calib_ms": "ms",
    "host.noisy": "flag",
    "trace.overhead_share": "ratio",
}


# ----------------------------------------------------------------------
# Ops: attempt, verify outside the timer, remember what the metrics need


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def attempt(
        self, run_op: Callable[[], OpRecord], verify: Callable[[OpRecord], list[str]]
    ) -> Optional[OpRecord]:
        """Run one op; None (and a failure on the tally) unless it is correct."""
        self.attempted += 1
        try:
            record = run_op()
        except Exception as exc:  # a failed op counts against the run; the run goes on
            self.fail(f"op raised {type(exc).__name__}: {exc}")
            return None
        problems = verify(record)
        if problems:
            self.fail("; ".join(problems))
            return None
        return record


@dataclass
class OpSample:
    """One measured op: per-segment ``(wall, ratio)`` and its evidence."""

    segments: dict[str, tuple[float, float]]
    record: OpRecord
    cpu_s: float
    daemon_cpu_s: float

    @property
    def wall(self) -> float:
        return sum(wall for wall, _ in self.segments.values())

    @property
    def ratio(self) -> float:
        return sum(ratio for _, ratio in self.segments.values())


def _self_cpu() -> float:
    t = os.times()
    return t.user + t.system


def _no_time_for_another(costs: list[float], done: int, min_ops: int, until: float) -> bool:
    """The loops' stop rule: ``min_ops`` good ops are in (or three times as
    many were tried) and one more, at the median cost so far, overruns."""
    enough = done >= min_ops or len(costs) >= 3 * min_ops
    return enough and time.perf_counter() + statistics.median(costs) > until


def timed_loop(
    running: Any,
    verify: Callable[[OpRecord], list[str]],
    tally: Tally,
    clock: measure.PairedClock,
    until: float,
    min_ops: int,
) -> list[OpSample]:
    """Measure ops until another would overrun ``until`` (at least ``min_ops``)."""
    samples: list[OpSample] = []
    costs: list[float] = []
    daemon_pid = running.daemon_pid
    while True:
        loop_started = time.perf_counter()
        segments: dict[str, tuple[float, float]] = {}

        def timer(label: str, fn: Callable[[], Any]) -> Any:
            result, wall, ratio = clock.time(fn)
            segments[label] = (wall, ratio)
            return result

        cpu = _self_cpu()
        daemon_cpu = measure.proc_cpu_seconds(daemon_pid) if daemon_pid else 0.0
        record = tally.attempt(lambda: running.op(timer), verify)
        if record is not None:
            # one calibration sample followed each segment
            calibration_cpu = sum(measure.kernel_seconds(clock.samples[-len(segments) :]))
            samples.append(
                OpSample(
                    segments,
                    record,
                    _self_cpu() - cpu - calibration_cpu,
                    (measure.proc_cpu_seconds(daemon_pid) - daemon_cpu) if daemon_pid else 0.0,
                )
            )
        costs.append(time.perf_counter() - loop_started)
        if _no_time_for_another(costs, len(samples), min_ops, until):
            return samples


def op_seconds(samples: list[OpSample], labels: Optional[tuple[str, ...]] = None) -> float:
    """Normalised seconds of the op (or of the named segments of it)."""
    labels = labels or tuple(samples[0].segments)
    return measure.normalised_seconds(
        [[s.segments[label][1] for s in samples] for label in labels]
    )


# ----------------------------------------------------------------------
# Children


def _child(mode: str, spec_path: str, scratch: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "bench.child", mode, spec_path],
        cwd=ROOT,
        env=child_env(scratch),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        # Its own process group (see _kill), not its own session: a session
        # is a scheduler autogroup, inside which the counter's nice is moot.
        process_group=0,
    )


def _kill(proc: subprocess.Popen) -> None:
    """Kill a child and whatever it started (a set-up child of
    ``serve_small`` has a daemon subprocess), and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def _child_result(
    proc: subprocess.Popen, what: str, tally: Tally, hard_stop: float
) -> Optional[dict]:
    """The child's last line, or None (and a failure on the tally) when it
    exited non-zero or was still running at ``hard_stop``."""
    try:
        out, err = proc.communicate(timeout=max(0.0, hard_stop - time.perf_counter()))
    except subprocess.TimeoutExpired:
        _kill(proc)
        tally.fail(f"{what} was still running at the run's hard stop")
        return None
    if proc.returncode != 0:
        tally.fail(f"{what} exited {proc.returncode}: {err.strip()[-400:]}")
        return None
    return json.loads(out.strip().splitlines()[-1])


def run_setup_children(
    spec_path: str, scratch: str, tally: Tally, n: int, until: float, hard_stop: float
) -> list[dict]:
    """Cold starts in fresh interpreters, one after the other.

    ``n`` of them, or as few as :data:`MIN_SETUP_CHILDREN` once ``until``
    has passed: in a slow host phase the op loop keeps its share of the run.
    """
    results = []
    for index in range(n):
        if index >= MIN_SETUP_CHILDREN and time.perf_counter() > until:
            break
        tally.attempted += 1
        result = _child_result(
            _child("setup", spec_path, scratch), f"set-up child {index}", tally, hard_stop
        )
        if result is not None:
            results.append(result)
    return results


# ----------------------------------------------------------------------
# Per-op evidence → per-layer counters


def _report_wall(report: Any) -> float:
    if report is None:
        return 0.0
    if isinstance(report, dict):
        return float(report.get("wall_seconds", 0.0))
    return float(report.wall_seconds)


def op_backend(record: OpRecord) -> tuple:
    return tuple(
        unit.get("backend_used") for _, job in record.jobs for unit in plan_units(job.plan_report)
    )


def job_counters(record: OpRecord) -> dict[str, float]:
    """Counters of one op, read off its jobs' reports and diagnostics."""
    out: Counter = Counter()
    for _, job in record.jobs:
        for unit in plan_units(job.plan_report):
            spill = unit.get("spill_stats") or {}
            out["engine.spill_runs"] += spill.get("spill_runs", 0)
            out["engine.spilled_bytes"] += spill.get("spilled_bytes", 0)
            out["engine.records"] += unit.get("input_records") or 0
            out["engine.guard_trips"] += (unit.get("columnar") or {}).get("guard_fallbacks", 0)
        for diag in job.diagnostics:
            code = diag["code"] if isinstance(diag, dict) else diag.code
            out["engine.fallbacks"] += code.startswith("REP3")
        out["session.queue_s"] += job.queued_seconds
        out["report_wall_s"] += _report_wall(job.plan_report)
    for _, half, entry in record.compiles:
        out[f"synthesis.candidates_{half}"] += entry.candidates_checked
    out["pipeline.cache_hits"] = record.cache_hits
    out["pipeline.cache_misses"] = record.cache_misses
    return dict(out)


# ----------------------------------------------------------------------
# One run


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: int
    tally: Tally
    metrics: dict[str, dict[str, Any]]
    notes: dict[str, Any]

    @property
    def correct(self) -> bool:
        return self.tally.failed == 0

    def last_line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": self.metrics,
        }


def run_one(name: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> RunResult:
    started = time.perf_counter()
    hard_stop = started + (SMOKE_HARD_STOP_S if smoke else HARD_STOP_FACTOR * seconds)
    workload = WORKLOADS[name]
    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=SCRATCH_ROOT)
    # Spill files and cache dirs of the program under test land in the
    # checkout too, not in the host's /tmp.
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = None
    tally = Tally()
    phases: dict[str, float] = {}

    def mark(phase: str) -> None:
        phases[phase] = round(time.perf_counter() - started, 2)

    counter: Optional[subprocess.Popen] = None
    try:
        plain = workload.make_inputs(seed, smoke)
        sources = load_sources(workload.programs)
        spec_path = os.path.join(scratch, "spec.pkl")
        count_record = os.path.join(scratch, "count-record.pkl")
        with open(spec_path, "wb") as handle:
            pickle.dump(
                {
                    "workload": name,
                    "smoke": smoke,
                    "plain": plain,
                    "sources": sources,
                    "scratch": scratch,
                    "count_record": count_record,
                },
                handle,
            )
        # Lowest priority, pinned to one CPU: it runs beside everything
        # below and is joined last (see bench.child).
        counter = _child("count", spec_path, scratch)
        mark("inputs")
        running = workload.start(workload.build(plain), sources, scratch, smoke)
        mark("started")
        try:
            expected = running.reference()
            mark("reference")

            def verify(record: OpRecord) -> list[str]:
                return running.verify(record, expected)

            for _ in range(workload.warmup_ops):
                tally.attempt(lambda: running.op(untimed), verify)
            stage = Stage(
                workload=workload,
                running=running,
                verify=verify,
                tally=tally,
                spec_path=spec_path,
                scratch=scratch,
                started=started,
                deadline=started + (0.0 if smoke else seconds - workload.reserve_s),
                hard_stop=hard_stop,
                min_ops=2 if smoke else workload.min_ops,
                smoke=smoke,
                sources=sources,
                plain=plain,
            )
            mark("warm")
            finish = (trace_run if trace else plain_run)(stage)
            mark("measured")
            tally.attempted += 1
            problems = running.final_checks()
            if problems:
                tally.fail("; ".join(problems))
            mark("checked")
        finally:
            running.close()
        tally.attempted += 1
        counted = _child_result(counter, "counting child", tally, hard_stop)
        if counted is None:
            counted = {"op_calls": 0, "calls_by_package": {}, "sizeof_calls": 0}
        else:
            with open(count_record, "rb") as handle:
                problems = verify(pickle.load(handle))
            if problems:
                tally.fail("counted op: " + "; ".join(problems))
    finally:
        if counter is not None and counter.poll() is None:  # only on an error above
            _kill(counter)
        shutil.rmtree(scratch, ignore_errors=True)
    metrics, notes = finish(counted)
    mark("done")
    notes["phases_s"] = phases
    return RunResult(name, seed, trace, tally, metrics, notes)


@dataclass
class Stage:
    """What both modes need once the workload is up and warm."""

    workload: Any
    running: Any
    verify: Callable[[OpRecord], list[str]]
    tally: Tally
    spec_path: str
    scratch: str
    started: float
    deadline: float
    hard_stop: float
    min_ops: int
    smoke: bool
    sources: dict[str, str]
    plain: Any


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def plain_run(stage: Stage) -> Callable[[dict], tuple[dict, dict]]:
    """``--trace 0``: set-up children, then the op loop; nothing wrapped."""
    running = stage.running
    setups = run_setup_children(
        stage.spec_path,
        stage.scratch,
        stage.tally,
        2 if stage.smoke else SETUP_CHILDREN,
        stage.started + SETUP_SHARE * (stage.deadline - stage.started),
        stage.hard_stop,
    )
    clock = measure.PairedClock()
    samples = timed_loop(
        running, stage.verify, stage.tally, clock, stage.deadline, stage.min_ops
    )

    def finish(counted: dict) -> tuple[dict, dict]:
        values = {
            "op_s": op_seconds(samples) if samples else 0.0,
            "setup_s": (
                measure.normalised_seconds([[s["setup_ratio"] for s in setups]])
                if setups
                else 0.0
            ),
            "op_calls_k": counted["op_calls"] / 1e3,
            # The smallest of the set-up children's, each a process of one
            # op.  An op the planner flips to the pool (every other one when
            # the host runs at half speed) leaves 8 MiB resident for the
            # rest of its process: many ops in one process, or the median
            # of the children, read one mode or the other by the hour.
            "peak_rss_mb": min((s["peak_rss_kb"] for s in setups), default=0) / 1024.0,
        }
        notes = {
            "ops": len(samples),
            "backends": dict(Counter(str(op_backend(s.record)) for s in samples)),
            "setup_children": len(setups),
            "op_wall_raw_s": statistics.median(s.wall for s in samples) if samples else 0.0,
            "setup_wall_raw_s": [round(s["setup_wall_s"], 4) for s in setups],
            "setup_ratios": [round(s["setup_ratio"], 3) for s in setups],
            "setup_peak_rss_kb": [s["peak_rss_kb"] for s in setups],
            "host.calib_ms": statistics.median(measure.kernel_seconds(clock.samples)) * 1e3,
            "host.noisy": measure.host_noisy(clock.samples),
            # every op and calibration sample, for --out only
            "per_op": {
                "op_walls_s": [round(s.wall, 5) for s in samples],
                "op_ratios": [round(s.ratio, 4) for s in samples],
                "calib_ms": [[round(c * 1e3, 3) for c in sample] for sample in clock.samples],
            },
        }
        return {k: _metric(values[k], unit) for k, unit in END_TO_END.items()}, notes

    return finish


def trace_run(stage: Stage) -> Callable[[dict], tuple[dict, dict]]:
    """``--trace 1``: an untraced stretch, then the wrapped stretch."""
    running, verify, tally = stage.running, stage.verify, stage.tally
    deadline, min_ops = stage.deadline, stage.min_ops
    now = time.perf_counter()
    clock = measure.PairedClock()
    untraced = timed_loop(
        running,
        verify,
        tally,
        clock,
        now + UNTRACED_SHARE * (deadline - now),
        min_ops if stage.smoke else stage.workload.min_untraced_ops,
    )

    # The wrappers only reach this process: a daemon workload is traced
    # against a daemon hosted on a thread here instead of the subprocess.
    traced_running = running
    if running.daemon_pid is not None:
        traced_running = stage.workload.start(
            stage.workload.build(stage.plain),
            stage.sources,
            stage.scratch,
            stage.smoke,
            in_process=True,
        )
    tracer = Tracer()
    op_rows: list[list] = []
    traced_ratios: list[float] = []

    def traced_op() -> OpRecord:
        before = clock.samples[-1]
        with tracer.op() as rows:
            record = traced_running.op(untimed)
        clock.resample()
        op_rows.append(rows)
        traced_ratios.append(
            measure.paired_ratio(rows[0][2] - rows[0][1], before, clock.samples[-1])
        )
        return record

    try:
        if traced_running is not running:
            for _ in range(stage.workload.warmup_ops):
                tally.attempt(lambda: traced_running.op(untimed), verify)
            clock.resample()
        costs: list[float] = []
        with installed(tracer):
            while True:
                loop_started = time.perf_counter()
                kept = len(op_rows)
                if tally.attempt(traced_op, verify) is None:
                    del op_rows[kept:], traced_ratios[kept:]  # explain nothing
                costs.append(time.perf_counter() - loop_started)
                if _no_time_for_another(costs, len(op_rows), min_ops, deadline):
                    break
    finally:
        if traced_running is not running:
            traced_running.close()

    def finish(counted: dict) -> tuple[dict, dict]:
        values = dict.fromkeys(PER_LAYER, 0.0)
        ledgers = [ledger(rows) for rows in op_rows]
        traced_walls = [rows[0][2] - rows[0][1] for rows in op_rows]
        for span, seconds in (mean_ledger(ledgers) if ledgers else {}).items():
            values[f"{span}_self_s"] = seconds
        if untraced:
            counters = [job_counters(s.record) for s in untraced]
            for key in counters[0]:
                if key in values:
                    values[key] = statistics.median(c[key] for c in counters)
            labels = tuple(untraced[0].segments)
            if len(labels) > 1:  # compile_mix: the two halves of the cycle
                values["pipeline.cold_s"] = op_seconds(untraced, labels[:-1])
                values["pipeline.warm_s"] = op_seconds(untraced, labels[-1:])
            backends = Counter(op_backend(s.record) for s in untraced)
            values["planner.backend_flips"] = len(untraced) - max(backends.values())
            values["engine.report_gap_s"] = statistics.median(
                s.wall - c["report_wall_s"] if s.record.jobs else 0.0
                for s, c in zip(untraced, counters)
            )
            requests = [ms for s in untraced for ms in s.record.request_ms]
            if requests:
                values["serve.req_p50_ms"] = statistics.median(requests)
                values["serve.req_p95_ms"] = measure.percentile(requests, 0.95)
            raw = statistics.median(s.wall for s in untraced)
            values["serve.daemon_cpu_s_per_op"] = statistics.mean(s.daemon_cpu_s for s in untraced)
            values["op_wall_raw_s"] = raw
            values["op_p90_s"] = measure.CALIB_REF_S * measure.percentile(
                [s.ratio for s in untraced], 0.9
            )
            values["cpu_s_per_op"] = statistics.mean(
                s.cpu_s + s.daemon_cpu_s for s in untraced
            )
            if traced_ratios:  # both sides normalised: the stretches ran at different times
                values["trace.overhead_share"] = (
                    statistics.median(traced_ratios)
                    / statistics.median(s.ratio for s in untraced)
                    - 1.0
                )
        for package in PACKAGES + ("other",):
            values[f"calls.{package}_k"] = counted["calls_by_package"].get(package, 0) / 1e3
        values["engine.sizeof_calls_k"] = counted["sizeof_calls"] / 1e3
        values["host.calib_ms"] = statistics.median(measure.kernel_seconds(clock.samples)) * 1e3
        values["host.noisy"] = float(measure.host_noisy(clock.samples))
        notes = {
            "ops": len(untraced),
            "backends": dict(Counter(str(op_backend(s.record)) for s in untraced)),
            "traced_ops": len(op_rows),
            "requests": sum(len(s.record.request_ms) for s in untraced),
            "traced_op_mean_s": statistics.mean(traced_walls) if traced_walls else 0.0,
            "ledger_sum_s": sum(values[f"{span}_self_s"] for span in _SELF_ROWS),
            "op_calls_k": counted["op_calls"] / 1e3,
            "spans_per_op": statistics.mean(len(rows) for rows in op_rows) if op_rows else 0,
        }
        return {k: _metric(values[k], unit) for k, unit in PER_LAYER.items()}, notes

    return finish


# ----------------------------------------------------------------------
# Command line


def _adopt_orphans() -> None:
    """Make this process the reaper of every descendant whose parent ends."""
    import ctypes

    pr_set_child_subreaper = 36
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(pr_set_child_subreaper, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _child_pids() -> list[int]:
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except (OSError, IndexError):  # ended while we looked
                continue
            if int(fields[1]) == me:
                pids.append(int(entry))
    return pids


def _wait_for_descendants(grace_s: float) -> int:
    """Reap every descendant; kill those still running after ``grace_s``.
    Returns how many had to be killed."""
    killed = 0
    deadline = time.perf_counter() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.perf_counter() < deadline:
            time.sleep(0.005)
            continue
        # Whatever a killed process had started is ours on the next pass.
        for child in _child_pids():
            try:
                os.kill(child, signal.SIGKILL)
                killed += 1
            except ProcessLookupError:
                pass
        time.sleep(0.005)


def _terminated(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


def _supervise(argv: list[str]) -> int:
    """Measure in a child interpreter and end only once all it started has.

    The child runs with ``PYTHONHASHSEED=0`` (set and dict-of-str orders,
    and with them the search's candidate counts, then repeat run to run).
    This process adopts whatever outlives its parent below it — a worker
    pool's ``multiprocessing`` resource tracker when the planner flips an
    op to the pool, a daemon or counting child on an error path — gives it
    :data:`STRAGGLER_GRACE_S` to end by itself, kills it otherwise, and
    waits for each: when this process exits nothing it started runs.
    """
    _adopt_orphans()
    signal.signal(signal.SIGTERM, _terminated)
    env = dict(os.environ, PYTHONHASHSEED="0", **{_SUPERVISED: "1"})
    grace = 0.0
    try:
        code = subprocess.call([sys.executable, "-m", "bench.run", *argv], env=env)
        grace = STRAGGLER_GRACE_S
    finally:
        killed = _wait_for_descendants(grace)
        if killed:
            print(f"bench.run: killed {killed} process(es) the run left behind", file=sys.stderr)
    return code


def _report(result: RunResult) -> None:
    print(f"# {result.workload} seed={result.seed} trace={result.trace}")
    for name, metric in result.metrics.items():
        print(f"{name:36s} {metric['value']:>16.6f} {metric['unit']}")
    for name, value in result.notes.items():
        if name != "per_op":
            print(f"# {name}: {value}")


def _write_out(path: str, result: RunResult) -> None:
    payload = dict(
        result.last_line(),
        workload=result.workload,
        seed=result.seed,
        trace=result.trace,
        notes=result.notes,
        nproc=len(os.sched_getaffinity(0)),
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)


def smoke(names: list[str], seed: Optional[int]) -> int:
    """Every workload, both modes, at 1/50 size and two ops per loop."""
    failed = 0
    for name in names:
        for trace in (0, 1):
            result = run_one(name, seed or WORKLOADS[name].default_seed, 0.0, trace, smoke=True)
            _report(result)
            failed += result.tally.failed
            print(json.dumps(result.last_line()))
    return 1 if failed else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.run", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result (with workload and seed) as JSON")
    parser.add_argument("--smoke", action="store_true", help=smoke.__doc__)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench.run: no program to measure at {SRC}", file=sys.stderr)
        return 2
    if os.environ.get(_SUPERVISED) != "1":
        return _supervise(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, SRC)
    if args.smoke:
        return smoke([args.workload] if args.workload else list(WORKLOADS), args.seed)
    if args.workload is None:
        parser.error("--workload is required (or --smoke)")
    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    result = run_one(args.workload, seed, args.seconds, args.trace)
    _report(result)
    if args.out:
        _write_out(args.out, result)
    print(json.dumps(result.last_line()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
