"""The five workloads: seeded inputs, the op each one times, its reference.

Sizes are fixed here for the 2-CPU reference host so one op lasts
0.3–0.8 s (long enough to dwarf timer and GC jitter, short enough for a
dozen or more per run).  Inputs are generated from ``--seed`` as plain
Python data (tuples, strings, ints) by this module — the program under
test only ever receives the generated inputs — and every run plans with
``ExecOptions(plan="auto")``, the documented path.

An op is a sequence of *segments*; the harness times each segment
between two calibration samples (see :mod:`bench.measure`).  The run
workloads have one segment; ``compile_mix`` has six, so the calibration
is sampled between compile calls.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from datetime import date
from typing import Any, Callable, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: ``timer(label, fn) -> fn()`` — how an op hands its segments to the harness.
Timer = Callable[[str, Callable[[], Any]], Any]


def untimed(label: str, fn: Callable[[], Any]) -> Any:
    """The timer of warm-up, traced and counted ops: just run the segment."""
    return fn()


LINEITEMS = 80_000
SUPPLIERS = 50
#: The planner compiles a kernel from 10 000 expression evaluations up
#: (below that the interpreter runs the rows, and nothing is vectorized):
#: ``--smoke`` shrinks the lineitems no further than this.
MIN_LINEITEMS = 6_000
WORDS = 150_000
WORD_KEYS = 10_000
SPILL_BUDGET = 2 * 1024 * 1024
SERVE_RECORDS = 5_000
SERVE_ROUND_TRIPS = 8
VERIFY_RECORDS = 1_000
#: The interpreter's nested-loop join is cubic in this: 1 000 orders cost
#: 2.9 s of a 24 s run, 300 cost 0.3 s.
VERIFY_JOIN_RECORDS = 300
#: ``--smoke`` divides every size by this (and the spill budget, so the
#: spill executor still spills).
SMOKE_DIVISOR = 50

_EPOCH_1992 = (date(1992, 1, 1) - date(1970, 1, 1)).days
_LINEITEM_FIELDS = (
    "l_suppkey",
    "l_partkey",
    "l_quantity",
    "l_extendedprice",
    "l_discount",
    "l_tax",
    "l_returnflag",
    "l_linestatus",
    "l_shipdate",
)


def child_env(scratch: str) -> dict[str, str]:
    """Environment of every child: fixed hash seed, scratch under the checkout."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = scratch
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# ----------------------------------------------------------------------
# Seeded inputs (plain data; no ``repro`` import)


def lineitem_rows(n: int, seed: int) -> list[tuple]:
    """TPC-H lineitem-like rows, one tuple per record, field order as
    :data:`_LINEITEM_FIELDS` (the ship date as days since 1970)."""
    rnd = random.Random(seed).random
    return [
        (
            int(rnd() * SUPPLIERS),
            int(rnd() * 200),
            float(1 + int(rnd() * 50)),
            round(900.0 + rnd() * 104100.0, 2),
            int(rnd() * 11) / 100,
            int(rnd() * 9) / 100,
            "ANR"[int(rnd() * 3)],
            "OF"[int(rnd() * 2)],
            _EPOCH_1992 + int(rnd() * 7 * 365),
        )
        for _ in range(n)
    ]


def zipf_words(n: int, keys: int, seed: int) -> list[str]:
    """``n`` words over exactly ``keys`` distinct keys, Zipf(1.1) counts.

    The multiset is the same for every seed — only the order is drawn —
    so the distinct-key count, and with it the deterministic call count,
    does not move with the seed.
    """
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(keys)]
    scale = (n - keys) / sum(weights)
    counts = [1 + int(w * scale) for w in weights]
    counts[0] += n - sum(counts)
    words = [f"w{rank:05d}" for rank, count in enumerate(counts) for _ in range(count)]
    random.Random(seed).shuffle(words)
    return words


def int_records(n: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randint(-1000, 1000) for _ in range(n)]


def build_lineitems(rows: list[tuple]) -> list:
    """Rows → the ``Instance`` records the mini-Java program reads."""
    from repro.lang.values import Instance

    out = []
    for row in rows:
        fields = dict(zip(_LINEITEM_FIELDS, row))
        fields["l_shipdate"] = Instance("Date", {"epoch": row[8]})
        out.append(Instance("LineItem", fields))
    return out


def load_sources(names: tuple[str, ...]) -> dict[str, str]:
    """Mini-Java source text of the named suite programs."""
    from repro.workloads.registry import get_benchmark

    return {name: get_benchmark(name).source for name in names}


# ----------------------------------------------------------------------
# What one op leaves behind for the checks outside the timer


@dataclass
class OpRecord:
    #: Finished jobs as ``(reference key, JobResult)``.
    jobs: list[tuple[str, Any]] = field(default_factory=list)
    #: ``(program, "cold" | "warm", RegisteredProgram)`` per compile call.
    compiles: list[tuple[str, str, Any]] = field(default_factory=list)
    #: Per-request submit→result wall, ms (serve only).
    request_ms: list[float] = field(default_factory=list)
    #: Summary-cache ``hits`` / ``misses`` of the sessions the op opened.
    cache_hits: int = 0
    cache_misses: int = 0

    def facts(self) -> "OpRecord":
        """The picklable part: what :meth:`verify` reads, nothing live."""
        return OpRecord(
            jobs=[
                (key, JobFacts(job.status, job.error, job.outputs, plan_units(job.plan_report)))
                for key, job in self.jobs
            ],
            compiles=[
                (
                    name,
                    half,
                    CompileFacts(
                        entry.fragments,
                        entry.translated,
                        entry.candidates_checked,
                        entry.cache_hits,
                    ),
                )
                for name, half, entry in self.compiles
            ],
        )


@dataclass
class JobFacts:
    status: str
    error: Optional[str]
    outputs: Any
    #: :func:`plan_units` of the job's report.
    plan_report: list[dict]


@dataclass
class CompileFacts:
    fragments: int
    translated: int
    candidates_checked: int
    cache_hits: int


def plan_units(report: Any) -> list[dict]:
    """Per-unit plan summaries of a job's report (live, wire dict,
    :class:`JobFacts` list, or None)."""
    if report is None:
        return []
    if isinstance(report, list):
        return report
    summary = report.summary() if hasattr(report, "summary") else report
    if "unit_reports" in summary:
        return list(summary["unit_reports"].values())
    return [summary]


def _outputs_equal(exact: bool, outputs: Any, expected: Any) -> bool:
    if exact:
        return outputs == expected
    from repro.lang.values import values_equal

    return values_equal(outputs, expected)


def verify_jobs(record: OpRecord, expected: dict[str, Any], exact: bool) -> list[str]:
    """Why the op failed, or ``[]``: every job ok and equal to its reference.

    ``exact`` follows Tier-1's differential sweeps: integer and string
    outputs compare with ``==``; float folds re-associate under the
    vectorized kernel and compare with ``values_equal``'s tolerance.
    """
    problems = []
    for key, job in record.jobs:
        if job.status != "ok":
            problems.append(f"{key}: status {job.status}: {job.error}")
        elif not _outputs_equal(exact, job.outputs, expected[key]):
            problems.append(f"{key}: outputs differ from the reference interpreter")
    return problems


def verify_vectorized(record: OpRecord) -> list[str]:
    """Why the op is not the vectorized columnar path, or ``[]``: every
    unit ran the numpy chunk kernel on column chunks and no guard sent a
    chunk back to the row loop."""
    problems = []
    for key, job in record.jobs:
        for unit in plan_units(job.plan_report):
            columnar = unit.get("columnar") or {}
            if not columnar.get("columnar_chunks") or columnar.get("guard_fallbacks"):
                problems.append(
                    f"{key}: not the vector kernel (kernel={unit.get('kernel')}, "
                    f"layout={unit.get('layout')}, columnar={columnar or None})"
                )
    return problems


# ----------------------------------------------------------------------
# Inline-session workloads: scan_vector, keyed_inmem, keyed_spill


class _SubmitRunning:
    segments = ("submit",)
    daemon_pid: Optional[int] = None

    def __init__(
        self,
        exact: bool,
        vectorized: bool,
        inputs: dict[str, Any],
        source: str,
        scratch: str,
        budget: Optional[int],
    ):
        import repro

        self.exact = exact
        self.vectorized = vectorized
        self.inputs = inputs
        self.session = repro.Session(
            cache_dir=tempfile.mkdtemp(prefix="cache-", dir=scratch), max_workers=0
        )
        self.program = self.session.compile(source)
        self.options = repro.ExecOptions(plan="auto", memory_budget=budget)

    def _submit(self) -> Any:
        return self.session.submit(self.program, self.inputs, self.options).result()

    def first_op(self) -> None:
        _require_ok(self._submit())

    def op(self, timer: Timer) -> OpRecord:
        return OpRecord(jobs=[("job", timer("submit", self._submit))])

    def reference(self) -> dict[str, Any]:
        from repro.graph.executor import interpret_reference

        graph = self.program.compilation.job_graph
        return {"job": interpret_reference(graph, dict(self.inputs))}

    def verify(self, record: OpRecord, expected: dict[str, Any]) -> list[str]:
        problems = verify_jobs(record, expected, self.exact)
        if self.vectorized and not problems:
            problems = verify_vectorized(record)
        return problems

    def final_checks(self) -> list[str]:
        return []  # every op was already checked against the reference

    def close(self) -> None:
        self.session.close()


@dataclass(frozen=True)
class SubmitWorkload:
    """One ``Session.submit(...).result()`` in an inline session."""

    name: str
    why: str
    default_seed: int
    program: str
    kind: str  # "lineitems" | "words"
    exact: bool
    #: Every op must run the numpy chunk kernel (see :func:`verify_vectorized`).
    vectorized: bool = False
    budget: Optional[int] = None
    #: Unmeasured ops first: the planner re-prices from the first run's
    #: observation, so the third op is the steady state.
    warmup_ops: int = 2
    #: Fewest measured ops per stretch.
    min_ops: int = 5
    min_untraced_ops: int = 5
    #: Left at the end of the budget for shutdown and clean-up.
    reserve_s: float = 1.0

    @property
    def programs(self) -> tuple[str, ...]:
        return (self.program,)

    def make_inputs(self, seed: int, smoke: bool) -> Any:
        shrink = SMOKE_DIVISOR if smoke else 1
        if self.kind == "lineitems":
            return lineitem_rows(max(LINEITEMS // shrink, MIN_LINEITEMS), seed)
        return zipf_words(WORDS // shrink, WORD_KEYS // shrink, seed)

    def build(self, plain: Any) -> dict[str, Any]:
        """The generated data under the program's parameter names."""
        if self.kind == "lineitems":
            return {"lineitem": build_lineitems(plain), "suppliers": SUPPLIERS}
        return {"wordList": plain}

    def start(
        self,
        inputs: dict[str, Any],
        sources: dict[str, str],
        scratch: str,
        smoke: bool = False,
        in_process: bool = False,
    ) -> _SubmitRunning:
        budget = self.budget
        if budget is not None and smoke:
            budget = max(16 * 1024, budget // SMOKE_DIVISOR)
        return _SubmitRunning(
            self.exact, self.vectorized, inputs, sources[self.program], scratch, budget
        )


def _require_ok(job: Any) -> Any:
    if job.status != "ok":
        raise RuntimeError(f"job {job.job_id} failed: {job.error}")
    return job


# ----------------------------------------------------------------------
# serve_small: round trips to a daemon


class _DaemonProcess:
    """``python -m repro.serve`` as a subprocess on an ephemeral port."""

    def __init__(self, cache_dir: str, scratch: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.serve", "--port", "0", "--cache-dir", cache_dir],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=child_env(scratch),
            text=True,
        )
        assert self.proc.stdout is not None
        banner = self.proc.stdout.readline()
        if "listening at" not in banner:
            self.stop()
            raise RuntimeError(f"serve daemon did not start: {banner!r}")
        self.address = banner.rsplit(" ", 1)[1].strip()
        self.pid = self.proc.pid

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class _ServeRunning:
    segments = ("round_trips",)

    def __init__(self, inputs: Any, sources: dict[str, str], scratch: str, in_process: bool):
        import repro
        from repro.serve.client import DaemonClient

        numbers, words = inputs
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch)
        self._process: Optional[_DaemonProcess] = None
        self._daemon: Any = None
        if in_process:
            # The traced run and the counting child host the daemon on a
            # thread of this process, where wrappers and profilers reach it.
            from repro.serve.daemon import serve

            self._daemon = serve(cache_dir=cache_dir)
            address = self._daemon.address
        else:
            self._process = _DaemonProcess(cache_dir, scratch)
            address = self._process.address
        self.daemon_pid = self._process.pid if self._process else None
        self.client = DaemonClient(address)
        self.options = repro.ExecOptions(plan="auto")
        sum_program = self.client.compile(sources["ariths_sum"])
        wc_program = self.client.compile(sources["phoenix_wordcount"])
        self.sources = sources
        self.requests = [
            ("sum", sum_program, {"data": numbers, "n": len(numbers)}),
            ("wc", wc_program, {"wordList": words}),
        ] * (SERVE_ROUND_TRIPS // 2)

    def _round_trips(self) -> OpRecord:
        record = OpRecord()
        clock = time.perf_counter
        for key, program, inputs in self.requests:
            started = clock()
            job = self.client.submit(program, inputs, self.options).result()
            record.request_ms.append((clock() - started) * 1e3)
            record.jobs.append((key, job))
        return record

    def first_op(self) -> None:
        for _, job in self._round_trips().jobs:
            _require_ok(job)

    def op(self, timer: Timer) -> OpRecord:
        return timer("round_trips", self._round_trips)

    def reference(self) -> dict[str, Any]:
        import repro
        from repro.graph.executor import interpret_reference

        expected = {}
        for key, name in (("sum", "ariths_sum"), ("wc", "phoenix_wordcount")):
            inputs = next(i for k, _, i in self.requests if k == key)
            graph = repro.translate(self.sources[name]).job_graph
            expected[key] = interpret_reference(graph, dict(inputs))
        return expected

    def verify(self, record: OpRecord, expected: dict[str, Any]) -> list[str]:
        return verify_jobs(record, expected, exact=True)

    def final_checks(self) -> list[str]:
        return []

    def close(self) -> None:
        if self._daemon is not None:
            self._daemon.shutdown()
        if self._process is not None:
            try:
                self.client.shutdown()
            except Exception:  # already gone: stop() reaps or kills it
                pass
            self._process.stop()


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    why: str
    default_seed: int
    programs: tuple[str, ...] = ("ariths_sum", "phoenix_wordcount")
    warmup_ops: int = 2
    min_ops: int = 5
    #: ``serve.req_p95_ms`` wants 200 requests = 25 ops.
    min_untraced_ops: int = 25
    reserve_s: float = 1.0

    def make_inputs(self, seed: int, smoke: bool) -> Any:
        n = SERVE_RECORDS // (SMOKE_DIVISOR if smoke else 1)
        return int_records(n, seed), zipf_words(n, 26, seed + 1)

    def build(self, plain: Any) -> Any:
        return plain

    def start(
        self,
        inputs: Any,
        sources: dict[str, str],
        scratch: str,
        smoke: bool = False,
        in_process: bool = False,
    ) -> _ServeRunning:
        return _ServeRunning(inputs, sources, scratch, in_process)


# ----------------------------------------------------------------------
# compile_mix: cold + warm compile of five fixed programs

COMPILE_PROGRAMS = (
    "tpch_q6",
    "joins_q3_revenue",
    "ariths_average",
    "fiji_red_to_magenta",
    "phoenix_matrix_multiply",
)
_SMOKE_COMPILE_PROGRAMS = ("ariths_average", "fiji_red_to_magenta")

#: program → (fragments, translated fragments, cold ``candidates_checked``).
#: A change to the search or the suite programs must update this table on
#: purpose; the warm half must check no candidates and hit the cache for
#: every translated fragment.
EXPECTED_COMPILES = {
    "tpch_q6": (1, 1, 6),
    "joins_q3_revenue": (1, 1, 800),
    "ariths_average": (1, 1, 14),
    "fiji_red_to_magenta": (3, 3, 27),
    "phoenix_matrix_multiply": (1, 0, 0),
}


class _CompileRunning:
    daemon_pid: Optional[int] = None

    def __init__(self, seed: int, sources: dict[str, str], scratch: str, smoke: bool):
        self.seed = seed
        self.sources = sources
        self.scratch = scratch
        self.names = _SMOKE_COMPILE_PROGRAMS if smoke else COMPILE_PROGRAMS
        self.segments = tuple(f"cold:{name}" for name in self.names) + ("warm",)
        self._last_cold: dict[str, Any] = {}

    def first_op(self) -> None:
        """Set-up's first op: the first program's cold compile only."""
        import repro

        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        with repro.Session(cache_dir=cache_dir, max_workers=0) as session:
            session.compile(self.sources[self.names[0]])

    def op(self, timer: Timer) -> OpRecord:
        import repro

        record = OpRecord()
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        try:
            cold = repro.Session(cache_dir=cache_dir, max_workers=0)
            for name in self.names:
                source = self.sources[name]
                entry = timer(f"cold:{name}", lambda: cold.compile(source))
                record.compiles.append((name, "cold", entry))
                self._last_cold[name] = entry
            cold.close()
            sessions = [cold]

            def warm_half() -> list:
                with repro.Session(cache_dir=cache_dir, max_workers=0) as warm:
                    sessions.append(warm)
                    return [warm.compile(self.sources[name]) for name in self.names]

            for name, entry in zip(self.names, timer("warm", warm_half)):
                record.compiles.append((name, "warm", entry))
            for session in sessions:
                stats = session.registry.cache.stats
                record.cache_hits += stats.hits
                record.cache_misses += stats.misses
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return record

    def reference(self) -> dict[str, Any]:
        return {}

    def verify(self, record: OpRecord, expected: dict[str, Any]) -> list[str]:
        problems = []
        for name, half, entry in record.compiles:
            fragments, translated, candidates = EXPECTED_COMPILES[name]
            got = (entry.fragments, entry.translated, entry.candidates_checked)
            want = (fragments, translated, candidates if half == "cold" else 0)
            if got != want:
                problems.append(
                    f"{half} {name}: (fragments, translated, candidates) {got} != {want}"
                )
            if half == "warm" and entry.cache_hits != translated:
                problems.append(f"warm {name}: {entry.cache_hits} cache hits != {translated}")
        return problems

    def final_checks(self) -> list[str]:
        """Run each translated program once against the interpreter.

        Uses the last op's cold compilations and a seeded
        ``VERIFY_RECORDS``-record input from the suite's own generator
        (``VERIFY_JOIN_RECORDS`` orders for the join).
        """
        import repro
        from repro.graph.executor import interpret_reference
        from repro.lang.values import values_equal
        from repro.workloads.registry import get_benchmark

        problems = []
        with repro.Session(max_workers=0) as session:
            for name, entry in self._last_cold.items():
                if entry.translated == 0:
                    continue
                size = VERIFY_JOIN_RECORDS if name.startswith("joins_") else VERIFY_RECORDS
                inputs = get_benchmark(name).make_inputs(size, self.seed)
                job = session.submit(
                    entry.compilation, dict(inputs), repro.ExecOptions(plan="auto")
                ).result()
                expected = interpret_reference(entry.compilation.job_graph, dict(inputs))
                if job.status != "ok":
                    problems.append(f"{name}: status {job.status}: {job.error}")
                elif not values_equal(job.outputs, expected):
                    problems.append(f"{name}: translated outputs differ from the interpreter")
        return problems

    def close(self) -> None:
        pass


@dataclass(frozen=True)
class CompileWorkload:
    name: str
    why: str
    default_seed: int
    programs: tuple[str, ...] = COMPILE_PROGRAMS
    #: A cycle starts from a fresh cache directory and fresh sessions: it
    #: is cold by construction and needs no warm-up.  Three fit a run; a
    #: slow host phase gets two, so that the run still ends on its budget.
    warmup_ops: int = 0
    min_ops: int = 2
    min_untraced_ops: int = 2
    #: The translated programs still run against the interpreter.
    reserve_s: float = 2.0

    def make_inputs(self, seed: int, smoke: bool) -> Any:
        return seed  # the programs are fixed; the seed draws the verification inputs

    def build(self, plain: Any) -> Any:
        return plain

    def start(
        self,
        inputs: Any,
        sources: dict[str, str],
        scratch: str,
        smoke: bool = False,
        in_process: bool = False,
    ) -> _CompileRunning:
        return _CompileRunning(inputs, sources, scratch, smoke)


# ----------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        CompileWorkload(
            name="compile_mix",
            why=(
                "cold then warm compile of five fixed programs: the only workload "
                "where lang/synthesis/verification/codegen/pipeline do all the work "
                "and engine none"
            ),
            default_seed=11,
        ),
        SubmitWorkload(
            name="scan_vector",
            why=(
                "tpch_q15 lineitem scan on the vector kernel (revenue per supplier, 50 keys): "
                "plan, column extraction and byte accounting are the cost, the numpy kernel "
                "and fold a rounding error; no spill"
            ),
            default_seed=12,
            program="tpch_q15",
            kind="lineitems",
            exact=False,
            vectorized=True,
        ),
        SubmitWorkload(
            name="keyed_inmem",
            why=(
                "wordcount over 10k string keys on the row path: map emit, in-memory "
                "grouping and reduce dominate; spill is nil"
            ),
            default_seed=13,
            program="phoenix_wordcount",
            kind="words",
            exact=True,
        ),
        SubmitWorkload(
            name="keyed_spill",
            why=(
                "the same program and input as keyed_inmem under a 2 MiB budget: "
                "the streaming/spill executor instead of the in-memory one"
            ),
            default_seed=13,
            program="phoenix_wordcount",
            kind="words",
            exact=True,
            budget=SPILL_BUDGET,
        ),
        ServeWorkload(
            name="serve_small",
            why=(
                "eight small submit-result round trips to a daemon subprocess: queue, "
                "admission, wire codec and HTTP are the cost, map work is under 1 ms"
            ),
            default_seed=15,
        ),
    )
}
