"""Real multiprocess MapReduce backend over a ``ProcessPoolExecutor``.

This backend actually spreads map, shuffle-combine, and reduce work
across worker processes, measuring real wall-clock seconds alongside
the familiar simulated-time accounting.  That pairing is what lets the
execution planner (:mod:`repro.planner`) be validated against measured
reality.  It is also the only engine a translated program runs on: the
simulated Spark/Hadoop/Flink seconds are priced from one sequential run
of it (:func:`repro.engine.core.price`).

There is **one executor**.  Every input becomes a
:class:`~repro.engine.source.Dataset`; one step walker cuts the step
list into ``map* reduce?`` segments and driver-side bridges; one map
phase consumes each segment's chunk stream (``chunk_records_for``
reproduces ``partition_data``'s block layout, so per-chunk combining
groups records exactly as a framework's map tasks would), inline or in
pool tasks that all report one ``_MapOut``; one bridge and one
reduce-stage charge serve every run.  Pool and in-process runs are
identical: same block partitioning, per-partition map-side combining,
first-seen key ordering and ordered value folds — only the work moves.

The only thing ``memory_budget`` selects is the **shuffle store**:

* *resident* (no budget) — map tasks return each chunk's (combined)
  key and value columns and the driver folds them into one dict in chunk
  order, pool or no pool.  The whole input is one round of map tasks.
* *spilled* (a budget) — map tasks hash-partition those columns into a
  budgeted :class:`~repro.engine.spill.SpillWriter` (pool workers spill
  locally: one file per flush, each partition's run at its own offset)
  and return only run references, their keys by writer rank and
  counters; the reduce merges one partition at a time, grouping by rank,
  and restores global first-seen key order from the driver's key table.
  Input is read in bounded rounds, so peak resident memory is
  O(budget + one partition) rather than O(input); the
  ``peak_resident_bytes`` proxy is kept only here, where there is a
  bound to hold it against.

What the stores share is the row path's one shape — *columns in, fold
kernel, columns out*: the last map stage before a shuffle emits a key
column and a value column (``map_columns``), and the map-side combine,
the resident reduce and the spilled partition merge are all
:func:`~repro.engine.columnar.fold_columns`, which runs a compiled λr's
own ``fold`` kernel once per batch and applies any other callable pair
by pair.  The store itself is deliberately *not* merged into one:
routing the resident case through a ``SpillWriter`` with an unbounded
budget measured +16.9 % calls on the ``keyed_inmem`` benchmark workload
when routing was per pair (PR 17); batch routing makes the question
worth re-asking, and ``keyed_inmem`` / ``keyed_spill`` are the benchmark
rows on either side of the selection.  The one combine that is not
``fold_columns`` is the map-side combine of a stage that emits one int
literal under an int ``+`` λr: its keys are counted in C, once per map
task (:class:`~repro.engine.columnar.KeyCount`), so the resident reduce
folds one partial per task, not one per chunk, and a spilling task hands
its writer one partial per budget *window*, not one per chunk.

The vector tier runs one shape: a sole vectorized map stage whose block
a sum/min/max combiner folds is mapped a *segment* of chunks at a time —
columns built end to end, one kernel call, every chunk's partials from
one grouped fold.  Every other stage reads plain record lists through
the compiled row loop and never tries the kernel: per chunk, column
extraction cost what the kernel saved (DESIGN.md, "One vector path").

Closures are shipped to workers with plain :mod:`pickle`; payloads that
cannot be pickled (e.g. a locally-defined lambda) trigger a transparent
fallback to in-process execution, recorded as the result's ``fallback``
diagnostic (``REP301``–``REP305``) so callers (the planner's
``PlanReport``) can surface it.  Only genuine
pickling errors fall back — an exception raised *inside* a map or
reduce callable in a worker always propagates to the caller.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Union

from ..cpu import available_cpu_count
from ..diagnostics import Diagnostic, make as make_diagnostic
from ..errors import EngineError, SpillError
from .columnar import (
    KeyCount,
    build_segment,
    fold_columns,
    grouped_fold,
    split_pairs,
)
from .config import DEFAULT_PARTITIONS, EngineConfig
from .core import lambda_cpu_ns
from .metrics import JobMetrics
from .sizes import dataset_bytes, pair_columns_bytes, pairs_bytes, sizeof
from .source import (
    DEFAULT_CHUNK_RECORDS,
    Dataset,
    ListSource,
    as_dataset,
    chunk_records_for,
)
from .spill import (
    RunRef,
    SpillStats,
    SpillWriter,
    cleanup_runs,
    merge_partition,
    rank_tables,
)

#: Errors ``pickle.dumps`` itself raises for unpicklable payloads
#: (RecursionError: a structure too deep to serialize).  Only these
#: trigger the transparent in-process fallback — any other exception is
#: a genuine bug in user code (or ours) and must propagate, never be
#: silently swallowed as "unpicklable".
_PICKLE_ERRORS = (
    pickle.PicklingError,
    AttributeError,
    TypeError,
    RecursionError,
)


@dataclass(frozen=True)
class MapStep:
    """One narrow stage: ``fn(record) -> iterable of emitted records``."""

    fn: Callable[[Any], Any]
    complexity: int = 3


@dataclass(frozen=True)
class ReduceStep:
    """One keyed reduction: ``fn(a, b) -> a``, optionally map-side combined."""

    fn: Callable[[Any, Any], Any]
    combine: bool = True


@dataclass(frozen=True)
class BridgeStep:
    """A driver-side barrier between fused jobs: pairs in, records out.

    ``fn(pairs) -> records`` re-binds one job's result pairs into the
    next job's input records (the job-graph layer's stitched handoff).
    The bridge runs on the driver — it needs the complete pair list, so
    it cannot be parallelized — but it keeps a fused chain inside one
    engine invocation: no second scan, no second job startup, and the
    bridged records are re-partitioned in memory for the next stages.
    Only the driver-collect network cost is charged, mirroring what the
    unfused execution would pay to collect the first job's result.
    """

    fn: Callable[[list], list]
    name: str = "bridge"


PipelineStep = Union[MapStep, ReduceStep, BridgeStep]


@dataclass
class MultiprocessResult:
    """Outcome of one multiprocess job: pairs, metrics, and how it ran."""

    pairs: list
    metrics: JobMetrics
    processes_used: int = 0
    map_tasks: int = 0
    #: Why the engine executed in-process instead of across workers, as
    #: its ``REP301``–``REP305`` diagnostic (``None`` when the pool
    #: actually ran).
    fallback: Optional[Diagnostic] = None
    #: Spill accounting (:meth:`repro.engine.spill.SpillStats.as_dict`,
    #: its ``peak_resident_bytes`` the high-water mark of estimated
    #: resident bytes); set exactly when the job ran under a memory
    #: budget (the spilled shuffle store) — the budget may be roomy
    #: enough that no run was written — and None without one.
    spill_stats: Optional[dict] = None
    #: Chunks whose first map stage executed on the vectorized column
    #: path, and chunks where an exactness guard (int64 overflow risk,
    #: non-finite float result, type-promise break) forced the compiled
    #: row loop instead.
    columnar_chunks: int = 0
    guard_fallbacks: int = 0
    #: Mid-job decisions the engine made (budgeted runs only): what a
    #: first-chunk probe of an unknown-length source measured —
    #: ``REP405`` partitions shrunk or kept, ``REP406`` source not
    #: exhausted.  Never silent:
    #: :meth:`~repro.planner.plan.PlanReport.absorb` appends them to the
    #: report's diagnostics.
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: ``pairs_bytes`` of each reduce output a map stage consumes next,
    #: in step order — what a cluster framework's reduce stage emits
    #: there (:func:`repro.engine.core.price`).  Kept off the stage
    #: counters, which stay the local engine's own.
    reduce_bytes: list = field(default_factory=list)

    @property
    def executed_parallel(self) -> bool:
        return self.fallback is None and self.processes_used > 1

    def columnar_stats(self) -> Optional[dict]:
        """Compact columnar accounting; None when nothing vectorized."""
        if self.columnar_chunks == 0 and self.guard_fallbacks == 0:
            return None
        return {
            "columnar_chunks": self.columnar_chunks,
            "guard_fallbacks": self.guard_fallbacks,
        }


@dataclass
class _MapOut:
    """What one map task reports back to the driver.

    With the resident shuffle store the output rides along
    (``chunk_output``); with the spilled store it stays on disk and only
    metadata (run references in order, the task's keys by writer rank,
    the spill counters) crosses the process boundary.  Either way the
    shuffle counters are per chunk: what each chunk's own combined
    partial shuffles, however many partials the task really kept.
    """

    #: Per fused map stage: [records_in, records_out, bytes_out].
    stage_counts: list[list[int]]
    #: Per chunk, what stays resident: the ``(keys, values)`` columns
    #: bound for the shuffle (one entry for all of a counted task's
    #: chunks), or a map-only segment's emitted records.  Empty under
    #: a budget, where the writer took them.
    chunk_output: list = field(default_factory=list)
    #: Per partition, its spill runs in chronological order.
    run_files: list[list[RunRef]] = field(default_factory=list)
    #: Per map task, its writer's keys and their partitions, by writer
    #: rank (spilled store only).
    task_keys: dict[int, tuple[list, list]] = field(default_factory=dict)
    #: Shuffle key → its partition, keys in job-wide first-seen order,
    #: built from ``task_keys`` as tasks merge: a key's place is its job
    #: rank, and it is the very object its first task reported.
    key_order: dict = field(default_factory=dict)
    outgoing_records: int = 0
    shuffled_bytes: int = 0
    chunks: int = 0
    input_records: int = 0
    #: Estimated bytes of the input chunks (0 unless the task measured).
    input_bytes: int = 0
    #: Chunks the vectorized column path produced / guard-rejected.
    columnar_chunks: int = 0
    guard_fallbacks: int = 0
    stats: SpillStats = field(default_factory=SpillStats)

    def held_bytes(self, shuffle_next: bool) -> int:
        """Estimated bytes of the resident ``chunk_output``: what it
        will shuffle as, or (map-only output) what the last stage emitted."""
        return self.shuffled_bytes if shuffle_next else self.stage_counts[-1][2]

    def merge(self, other: "_MapOut") -> None:
        """Absorb the report of the task that ran next in chunk order."""
        self.chunk_output.extend(other.chunk_output)
        for mine, theirs in zip(self.stage_counts, other.stage_counts):
            for i in range(3):
                mine[i] += theirs[i]
        for mine_runs, their_runs in zip(self.run_files, other.run_files):
            mine_runs.extend(their_runs)
        for keys, parts in other.task_keys.values():
            # Order-preserving: a key keeps its first task's place (and
            # its partition, which every task computes alike).
            self.key_order.update(zip(keys, parts))
        self.task_keys.update(other.task_keys)
        self.outgoing_records += other.outgoing_records
        self.shuffled_bytes += other.shuffled_bytes
        self.chunks += other.chunks
        self.input_records += other.input_records
        self.input_bytes += other.input_bytes
        self.columnar_chunks += other.columnar_chunks
        self.guard_fallbacks += other.guard_fallbacks
        self.stats.merge(other.stats)


def _block_mapper(
    map_fns: Sequence[Callable], combiner: Optional[Callable]
) -> Optional[Callable]:
    """The sole, vectorized map stage when a sum/min/max combiner folds
    its block — the one shape the vector tier runs — else None."""
    if len(map_fns) != 1 or getattr(combiner, "grouped_op", None) is None:
        return None
    return map_fns[0] if getattr(map_fns[0], "vectorized", False) else None


def _run_map_chunks(
    map_fns: Sequence[Callable],
    combiner: Optional[Callable[[Any, Any], Any]],
    chunks: Iterable[list],
    shuffle_next: bool,
    measure_input: bool,
    spill: Optional[tuple[str, int, int, int]] = None,
) -> _MapOut:
    """Apply fused map stages (then an optional combine) per chunk.

    Shared by the pool workers and the in-process fallback, so both
    execution modes produce byte-identical results.  ``spill`` selects
    the shuffle store: None keeps each chunk's output resident on the
    report; ``(spill_dir, partitions, budget, task_id)`` routes it into
    a :class:`SpillWriter` instead — hash-partitioned, budget-bounded
    buffers, each flush one spill file.  The per-chunk work is the same
    either way, so per-chunk combining groups records identically and
    spilled results stay byte-identical.

    A mapper exposing ``map_chunk`` (the compiled kernels of
    :mod:`repro.codegen.kernels`) is handed the whole chunk at once —
    one call per chunk instead of one per record; per-record mappers
    run the classic inner loop.  Both paths emit identical pairs in
    identical order.

    Ahead of a shuffle the pairs travel as two columns.  A last map
    stage exposing ``map_columns`` emits them that way, so its output is
    counted with ``len`` and priced by
    :func:`~repro.engine.sizes.pair_columns_bytes` without a tuple per
    pair; any other mapper's pair list is split once.  The combine is
    one :func:`~repro.engine.columnar.fold_columns` into a per-chunk
    dict, and the store takes the combined columns whole.  When the last
    stage emits one int literal (``emit_constant``) its value column is
    priced by arithmetic, and under a ``"sum"`` combiner the combine
    counts keys instead (*counted*): the task counts its chunks into one
    :class:`~repro.engine.columnar.KeyCount`.  The resident store takes
    that count's one partial — the last ``chunk_output`` entry, in place
    of a partial per chunk.  Under a budget the count is bounded: once
    its priced bytes plus the writer's residency pass the budget, its
    partial goes to the writer as one *window*, written as one flush
    file (:meth:`SpillWriter.add_window`), and counting starts afresh;
    the last window is buffered at the end of the task and flushed by
    ``finish``.  Either way every chunk's outgoing records and shuffled
    bytes are still what its own partial would have shuffled.

    When the sole map stage is vectorized and a sum/min/max combiner
    folds it (:func:`_block_mapper`, the one shape the vector tier runs)
    every chunk given here is one **segment** (one chunk under a budget):
    columns built end to end (``build_segment``), one kernel call, counts
    and bytes from the whole arrays, and every chunk's ``(keys, values)``
    partials from one ``grouped_fold``.  Failed validation, a guard trip
    or a refused fold maps the segment again one chunk at a time.  A
    chunk whose kernel refuses alone counts one guard fallback and takes
    the per-chunk row loop, in its place in order; a chunk whose fold
    alone is refused folds its block's pairs with ``fold_columns``.
    """
    out = _MapOut(stage_counts=[[0, 0, 0] for _ in map_fns])
    writer = SpillWriter(*spill) if spill is not None else None
    if writer is not None:
        out.stats = writer.stats
    last = len(map_fns) - 1
    #: The int every value of the last stage is, when it emits one
    #: literal: that column is priced by arithmetic, and under an int
    #: ``+`` combiner the combine counts keys instead of folding.
    constant = getattr(map_fns[last], "emit_constant", None)
    value_size = None if constant is None else sizeof(constant)
    fold_op = getattr(combiner, "grouped_op", None)
    counted = constant is not None and fold_op == "sum"
    block_fn = _block_mapper(map_fns, combiner)
    #: A counted task's partial, bounded by the budget under one (a
    #: constant value is never vectorized, so no block mapper's partials
    #: come between its chunks).
    task_count = KeyCount(constant, writer is not None) if counted else None

    def map_segment(segment: list) -> Iterator[list]:
        """Map a segment whole; yield each chunk it could not map."""
        columns, segment_bytes = build_segment(segment, block_fn.columns_spec)
        block = None if columns is None else block_fn.map_block(columns)
        del columns  # the columns the block does not hold are freed for the fold
        rows = list(map(len, segment))
        folded = None if block is None else grouped_fold(block, fold_op, rows)
        if len(segment) > 1 and folded is None:
            for chunk in segment:
                yield from map_segment([chunk])
            return
        if block is None:
            out.guard_fallbacks += 1
            yield segment[0]
            return
        counts = out.stage_counts[0]
        out.chunks += len(segment)
        out.input_records += sum(rows)
        out.input_bytes += segment_bytes if measure_input else 0
        out.columnar_chunks += len(segment)
        counts[0] += sum(rows)
        counts[1] += len(block)
        counts[2] += block.stage_bytes()
        if folded is None:
            # One chunk whose grouped fold was refused: its pairs, dict-folded.
            local: dict[Any, Any] = {}
            fold_columns(combiner, block.key_list(), block.values.tolist(), local)
            keys, values, bounds = list(local), list(local.values()), [0, len(local)]
            shuffled = dataset_bytes(keys) + dataset_bytes(values)
        else:
            partials, bounds = folded
            keys, values = partials.key_list(), partials.values.tolist()
            shuffled = partials.shuffle_bytes()
        if writer is not None:
            writer.add_columns(keys, values)  # a budgeted segment is one chunk
        else:
            out.outgoing_records += len(keys)
            out.shuffled_bytes += shuffled
            out.chunk_output.extend(
                (keys[lo:hi], values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
            )
        if measure_input:
            held = writer.resident_bytes if writer is not None else out.held_bytes(True)
            out.stats.note_resident(held + segment_bytes)

    if block_fn is not None:
        segments = [list(chunks)] if writer is None else ([c] for c in chunks)
        chunks = (c for segment in segments if segment for c in map_segment(segment))
    for chunk in chunks:
        out.chunks += 1
        out.input_records += len(chunk)
        chunk_bytes = dataset_bytes(chunk) if measure_input else 0
        out.input_bytes += chunk_bytes
        current: list = chunk
        #: The last stage's pairs as (keys, values), once a stage made them.
        columns: Optional[tuple[list, list]] = None
        for index, fn in enumerate(map_fns):
            counts = out.stage_counts[index]
            chunk_fn = getattr(fn, "map_chunk", None)
            if chunk_fn is None:
                emitted = []
                for record in current:
                    counts[0] += 1
                    for pair in fn(record):
                        emitted.append(pair)
            else:
                counts[0] += len(current)
                if index == last and shuffle_next and hasattr(fn, "map_columns"):
                    columns = fn.map_columns(current)
                else:
                    emitted = list(chunk_fn(current))
            if columns is not None:
                counts[1] += len(columns[0])
                counts[2] += pair_columns_bytes(*columns, value_size)
            else:
                counts[1] += len(emitted)
                counts[2] += dataset_bytes(emitted)
                current = emitted
        if not shuffle_next:
            out.outgoing_records += len(current)
            out.chunk_output.append(current)
        else:
            keys, values = columns if columns is not None else split_pairs(current)
            if task_count is not None:
                records, size = task_count.add(keys)
                out.outgoing_records += records
                out.shuffled_bytes += size
            else:
                if combiner is not None:
                    local: dict[Any, Any] = {}
                    fold_columns(combiner, keys, values, local)
                    keys, values = list(local), list(local.values())
                if writer is not None:
                    writer.add_columns(keys, values)
                else:
                    out.outgoing_records += len(keys)
                    out.shuffled_bytes += dataset_bytes(keys) + dataset_bytes(values)
                    out.chunk_output.append((keys, values))
        if writer is not None:
            # The in-flight chunk is resident alongside what the store
            # holds, a bounded count included.
            held = writer.resident_bytes
            if task_count is not None:
                held += task_count.resident_bytes
            out.stats.note_resident(held + chunk_bytes)
            if task_count is not None and held > writer.budget_bytes:
                # Past the budget: the count is one window, one flush file.
                writer.add_window(*task_count.columns())
                task_count = KeyCount(constant, True)
        elif measure_input:
            out.stats.note_resident(out.held_bytes(shuffle_next) + chunk_bytes)
    if task_count is not None and out.chunks:
        if writer is None:
            out.chunk_output.append(task_count.columns())
        else:
            writer.add_columns(*task_count.columns())  # within the budget
    if writer is not None:
        writer.finish()
        out.run_files = writer.run_files
        out.task_keys = {writer.task_id: (writer.key_order, writer.key_partitions)}
        if task_count is None:
            out.outgoing_records = writer.pairs_in
            out.shuffled_bytes = writer.bytes_in
    return out


def _map_task(payload: bytes) -> _MapOut:
    """Pool entry point: unpickle one map task and run it."""
    return _run_map_chunks(*pickle.loads(payload))


def _spill_reduce_task(payload: bytes) -> tuple[list[tuple], int]:
    """Pool entry point: merge-reduce one partition's spill runs."""
    fn, runs, ranks = pickle.loads(payload)
    stats = SpillStats()
    pairs = merge_partition(runs, fn, stats, ranks)
    return pairs, stats.peak_resident_bytes


def default_process_count() -> int:
    """Worker processes available to the multiprocess backend
    (cgroup/affinity aware — see :func:`repro.cpu.available_cpu_count`)."""
    return available_cpu_count()


@dataclass
class MultiprocessEngine:
    """Executes a map/shuffle/reduce pipeline across worker processes.

    ``processes <= 1`` runs the identical algorithm in-process — that is
    the planner's *sequential* backend, and also the automatic fallback
    for unpicklable payloads or tiny inputs.
    """

    config: EngineConfig = field(default_factory=EngineConfig)
    #: Worker processes; None → one per available core.
    processes: Optional[int] = None
    #: Logical partitions (block partitioning, mirrors the simulated
    #: engines); None → :data:`~repro.engine.config.DEFAULT_PARTITIONS`.
    partitions: Optional[int] = None
    #: Inputs smaller than this run in-process — pool startup dominates.
    min_parallel_records: int = 2048
    #: Estimated bytes the shuffle may hold resident before spilling to
    #: disk; None keeps the shuffle resident (and the input one round).
    memory_budget: Optional[int] = None
    #: Where spill runs are written; None → a private temp directory,
    #: removed when the job finishes.
    spill_dir: Optional[str] = None

    def run_pipeline(
        self, records: Union[list, Dataset], steps: Sequence[PipelineStep]
    ) -> MultiprocessResult:
        """Run the stage list over the records; returns final pairs.

        ``records`` may be a plain list or a
        :class:`~repro.engine.source.Dataset`.  With a ``memory_budget``
        input is consumed in bounded rounds of chunks and the shuffle
        spills to disk once the budget is exceeded, so peak resident
        memory is O(budget) instead of O(n).  Without one the shuffle is
        resident anyway, so the whole input is a single round (an
        unknown-length source is materialized to learn its layout).
        """
        if not steps:
            raise EngineError("multiprocess pipeline needs at least one step")
        budget = self.memory_budget
        if budget is not None and budget <= 0:
            raise SpillError(
                f"memory budget must be a positive byte count, got {budget!r}"
            )
        dataset = as_dataset(records)
        steps = list(steps)
        metrics = JobMetrics()
        partitions = self.partitions or DEFAULT_PARTITIONS
        result = MultiprocessResult(pairs=[], metrics=metrics)
        known = dataset.known_length
        if known is None and budget is None:
            dataset = ListSource(dataset.materialize())
            known = dataset.known_length
        elif known is None:
            known, partitions = self._probe_unknown_stream(
                dataset, steps, partitions, result
            )
        spill_root = self._ensure_spill_dir() if budget is not None else None
        stats = SpillStats(partitions=partitions)
        pool = self._start_pool(result, known)
        started = time.perf_counter()
        try:
            pairs = self._execute_steps(
                dataset, steps, pool, result, stats, spill_root, partitions
            )
        finally:
            if pool is not None:
                pool.shutdown()
            if spill_root is not None:
                # The per-job run directory is always swept — on success,
                # on a mid-job failure, and for broken-pool orphans alike.
                shutil.rmtree(spill_root, ignore_errors=True)
        metrics.add_wall_seconds(time.perf_counter() - started)
        self._charge_collect(metrics, pairs)
        result.pairs = pairs
        if budget is not None:
            result.spill_stats = stats.as_dict()
        return result

    # ------------------------------------------------------------------
    # Stage execution

    def _execute_steps(
        self,
        dataset: Dataset,
        steps: list[PipelineStep],
        pool: Optional[ProcessPoolExecutor],
        result: MultiprocessResult,
        stats: SpillStats,
        spill_root: Optional[str],
        partitions: int,
    ) -> list:
        """Walk ``map* reduce? | bridge`` segments; each segment's pairs
        are the next one's input.  The scan is charged as soon as the
        first segment (or an opening bridge) has consumed the source."""
        metrics = result.metrics
        index = 0
        stage_counter = 0
        pairs: list = []
        scanned = False
        while index < len(steps):
            step = steps[index]
            if isinstance(step, BridgeStep):
                index += 1
                if not scanned:
                    # A chain opening with a bridge consumes the raw
                    # input on the driver.
                    pairs = dataset.materialize()
                    self._charge_scan(metrics, len(pairs), dataset_bytes(pairs))
                    scanned = True
                pairs = self._bridge_phase(pairs, step, result, stage_counter, stats)
                dataset = ListSource(pairs)
                stage_counter += 1
                continue
            map_fns: list[Callable] = []
            complexities: list[int] = []
            while index < len(steps) and isinstance(steps[index], MapStep):
                map_fns.append(steps[index].fn)
                complexities.append(steps[index].complexity)
                index += 1
            reduce_step: Optional[ReduceStep] = None
            if index < len(steps):
                nxt = steps[index]
                if isinstance(nxt, ReduceStep):
                    reduce_step = nxt
                    index += 1
                elif not isinstance(nxt, BridgeStep):
                    # Fail loudly: an unrecognized step would otherwise
                    # leave `index` unadvanced and spin forever.
                    raise EngineError(
                        f"unknown pipeline step type {type(nxt).__name__!r}"
                    )
            if not map_fns and reduce_step is None:
                continue  # a BridgeStep is next; handled at the loop top
            combiner = (
                reduce_step.fn
                if reduce_step is not None and reduce_step.combine
                else None
            )
            started = time.perf_counter()
            out = self._map_phase(
                dataset,
                map_fns,
                combiner,
                shuffle_next=reduce_step is not None,
                # Input bytes feed the scan charge and, under a budget,
                # every segment's residency proxy.
                measure_input=not scanned or self.memory_budget is not None,
                pool=pool,
                result=result,
                spill_root=spill_root,
                partitions=partitions,
            )
            elapsed = time.perf_counter() - started
            if not scanned:
                self._charge_scan(metrics, out.input_records, out.input_bytes)
                scanned = True
            self._charge_map_stages(
                metrics, out, max(1, out.chunks), stage_counter, complexities, elapsed
            )
            stats.merge(out.stats)
            result.columnar_chunks += out.columnar_chunks
            result.guard_fallbacks += out.guard_fallbacks
            stage_counter += len(map_fns)
            if reduce_step is None:
                # A map-only segment's output is the job's (or the next
                # bridge's) input, so it is materialized by contract.
                pairs = [pair for chunk in out.chunk_output for pair in chunk]
            else:
                started = time.perf_counter()
                pairs = self._reduce_phase(out, reduce_step, pool, result, stats)
                self._charge_reduce_stage(
                    metrics,
                    out,
                    len(pairs),
                    stage_counter,
                    time.perf_counter() - started,
                )
                stage_counter += 1
                if index < len(steps) and isinstance(steps[index], MapStep):
                    result.reduce_bytes.append(pairs_bytes(pairs))
            dataset = ListSource(pairs)
        return pairs

    def _map_phase(
        self,
        dataset: Dataset,
        map_fns: list[Callable],
        combiner: Optional[Callable],
        shuffle_next: bool,
        measure_input: bool,
        pool: Optional[ProcessPoolExecutor],
        result: MultiprocessResult,
        spill_root: Optional[str],
        partitions: int,
    ) -> _MapOut:
        """Map + combine over the chunk stream, into the shuffle store.

        With a pool, chunks are read in rounds and each round's tasks
        run in the workers (spilling locally under a budget — only
        run metadata returns to the driver).  A budget bounds a
        round to two chunks per task; without one the input is resident
        anyway and the whole stream is one round.  Without a pool (or
        after a fallback) one driver-side call consumes the rest of the
        stream.  Either way task order equals chunk order, which is
        what keeps reductions byte-identical.
        """
        budget = self.memory_budget
        spilling = shuffle_next and budget is not None
        chunks: Iterable[list] = dataset.iter_chunks(
            chunk_records_for(dataset, partitions, budget_bytes=budget)
        )
        agg = _MapOut(
            stage_counts=[[0, 0, 0] for _ in map_fns],
            run_files=[[] for _ in range(partitions)] if spilling else [],
        )

        def store(task: int) -> Optional[tuple[str, int, int, int]]:
            return (spill_root, partitions, budget, task) if spilling else None

        task_id = 0
        if pool is not None:
            tasks_per_round = max(1, result.processes_used) * 2
            # Bounded rounds pack two chunks per task; the unbounded
            # round spreads every chunk over the same number of tasks.
            per_task = 1 if budget is None else 2
            round_limit = None if budget is None else per_task * tasks_per_round
            for round_chunks in _batched(chunks, round_limit):
                bounds = self._task_bounds(
                    len(round_chunks),
                    min(tasks_per_round, -(-len(round_chunks) // per_task)),
                )
                tasks = [
                    (
                        map_fns,
                        combiner,
                        round_chunks[lo:hi],
                        shuffle_next,
                        measure_input,
                        store(task_id + offset),
                    )
                    for offset, (lo, hi) in enumerate(bounds)
                ]
                outs, error = self._run_tasks(
                    pool, _map_task, tasks, result, "worker pool broke mid-job"
                )
                task_id += len(tasks)  # ids consumed even when lost
                if error is not None:
                    self._record_fallback(result, error, "REP301")
                if outs is None:
                    # Re-run this round, then the rest of the stream,
                    # inline (a fresh task id keeps the flush files
                    # distinct from any the lost tasks wrote —
                    # unregistered orphans are swept with the spill dir).
                    chunks = itertools.chain(round_chunks, chunks)
                    break
                for out in outs:
                    agg.merge(out)
                # The whole round's chunks sat on the driver while its
                # tasks ran, beside whatever pairs came back resident.
                agg.stats.note_resident(
                    (0 if spilling else agg.held_bytes(shuffle_next))
                    + sum(out.input_bytes for out in outs)
                )
                result.map_tasks += len(tasks)
            else:
                return agg
        agg.merge(
            _run_map_chunks(
                map_fns,
                combiner,
                chunks,
                shuffle_next,
                measure_input,
                store(task_id),
            )
        )
        return agg

    def _run_tasks(
        self,
        pool: ProcessPoolExecutor,
        entry: Callable,
        tasks: list,
        result: MultiprocessResult,
        broke: str,
    ) -> tuple[Optional[list], Optional[str]]:
        """Ship ``tasks`` to the pool; ``(outputs, None)`` in task order.

        ``(None, reason)`` means the payload is unpicklable — the caller
        decides whether that is a recorded fallback; ``(None, None)``
        means the pool broke (recorded here as ``broke``).  Either way
        the caller runs the same work inline.
        """
        sent, error = self._send_tasks(tasks)
        if error is not None:
            return None, error
        try:
            return list(pool.map(entry, sent)), None
        except BrokenProcessPool:
            self._record_fallback(result, broke)
            return None, None

    @staticmethod
    def _send_tasks(tasks: list) -> tuple[list[bytes], Optional[str]]:
        """Pickle each task, in band, for the pool.

        Returns ``(sent, error)``; a non-None ``error`` means the
        payload is unpicklable (``sent`` is empty) and the caller falls
        back in-process.  Only pickling failures report as errors —
        anything else raised while serializing (a buggy ``__reduce__``
        in user code) is a real bug and propagates.
        """
        try:
            return [pickle.dumps(task) for task in tasks], None
        except _PICKLE_ERRORS as exc:
            return [], f"payload not picklable: {exc!r}"

    @staticmethod
    def _record_fallback(
        result: MultiprocessResult, reason: str, code: str = "REP305"
    ) -> None:
        """Report a fallback; when no pool work has run yet, the job was
        effectively single-process, so keep ``processes_used`` honest."""
        result.fallback = make_diagnostic(code, reason)
        if result.map_tasks == 0:
            result.processes_used = 1

    @staticmethod
    def _task_bounds(n_chunks: int, n_tasks: int) -> list[tuple[int, int]]:
        """Contiguous chunk slices — order across tasks is preserved."""
        base, extra = divmod(n_chunks, n_tasks)
        bounds = []
        lo = 0
        for task in range(n_tasks):
            hi = lo + base + (1 if task < extra else 0)
            bounds.append((lo, hi))
            lo = hi
        return bounds

    def _bridge_phase(
        self,
        pairs: list,
        step: BridgeStep,
        result: MultiprocessResult,
        stage_index: int,
        stats: SpillStats,
    ) -> list:
        """Driver-side fused handoff: collected pairs in, records out."""
        started = time.perf_counter()
        records = step.fn(pairs)
        elapsed = time.perf_counter() - started
        metrics = result.metrics
        stage = metrics.stage(f"{step.name}.{stage_index}")
        stage.records_in = len(pairs)
        stage.records_out = len(records)
        stage.wall_seconds = elapsed
        total = dataset_bytes(pairs)
        stage.bytes_in = total
        # The handoff pays one driver-side collect over the network;
        # the re-scan + job startup the unfused execution would pay
        # for the downstream job is exactly what fusion saves.
        seconds = (total * self.config.scale) / self.config.cluster.network_bw
        stage.seconds += seconds
        metrics.add_seconds(seconds)
        if self.memory_budget is not None:
            stats.note_resident(total + dataset_bytes(records))
        return records

    def _reduce_phase(
        self,
        out: _MapOut,
        reduce_step: ReduceStep,
        pool: Optional[ProcessPoolExecutor],
        result: MultiprocessResult,
        stats: SpillStats,
    ) -> list[tuple]:
        """Fold the shuffle store's pairs key by key, in arrival order.

        Both stores run the same ordered left fold
        (:func:`~repro.engine.columnar.fold_columns`): the resident
        store's chunk columns (a counted task's one partial) into one
        dict on the driver; the spilled
        store's partitions merged one at a time (in pool tasks when
        there are several), values grouped by job rank, and put back in
        global first-seen key order by rank, keys from the driver's own
        table.
        An unpicklable reducer merges in-process without recording a
        fallback — the map phase may still have pooled fine.
        """
        fn = reduce_step.fn
        if self.memory_budget is None:
            # Resident store.  Chunk order gives first-seen key ordering
            # and per-key value order that match the simulated engines
            # exactly.
            acc: dict[Any, Any] = {}
            for keys, values in out.chunk_output:
                fold_columns(fn, keys, values, acc)
            return list(acc.items())
        # Spilled store.  Merge-reduce partition by partition, then
        # restore the global first-seen key order.
        tables = rank_tables(out.key_order, out.task_keys, len(out.run_files))
        parts = [
            (runs, None if tables is None else tables[partition])
            for partition, runs in enumerate(out.run_files)
            if runs
        ]
        folded = None
        if pool is not None and len(parts) > 1:
            outs, _error = self._run_tasks(
                pool,
                _spill_reduce_task,
                [(fn, runs, ranks) for runs, ranks in parts],
                result,
                "worker pool broke during reduce",
            )
            if outs is not None:
                folded = []
                for bucket, peak in outs:
                    stats.note_resident(peak)
                    folded.append(bucket)
        if folded is None:
            folded = [merge_partition(runs, fn, stats, ranks) for runs, ranks in parts]
        cleanup_runs(out.run_files)
        # The merges return values by job rank; the job's keys in rank
        # order are the driver's own first-seen key objects.
        by_rank = dict(itertools.chain.from_iterable(folded))
        if len(by_rank) != len(out.key_order):
            raise SpillError(
                f"spill merge returned {len(by_rank)} keys for "
                f"{len(out.key_order)} shuffled ones"
            )
        pairs = list(zip(out.key_order, map(by_rank.__getitem__, range(len(by_rank)))))
        stats.note_resident(pairs_bytes(pairs))
        return pairs

    # ------------------------------------------------------------------
    # Metrics: wall-clock measured, simulated time modeled

    def _start_pool(
        self, result: MultiprocessResult, known: Optional[int]
    ) -> Optional[ProcessPoolExecutor]:
        """Open the worker pool, or record on ``result`` why the job runs
        in-process: one process requested (REP302), an input too small
        to repay pool startup (REP303), or a pool that would not start
        (REP304).  ``known`` is the record count — None for a stream of
        unknown length, which is assumed large."""
        processes = (
            self.processes if self.processes is not None else default_process_count()
        )
        pool: Optional[ProcessPoolExecutor] = None
        if processes <= 1:
            result.fallback = make_diagnostic("REP302", "single process requested")
        elif known is not None and known < self.min_parallel_records:
            result.fallback = make_diagnostic(
                "REP303",
                f"tiny input ({known} records < "
                f"{self.min_parallel_records}): pool startup would dominate",
            )
        else:
            pool = self._open_pool(processes)
            if pool is None:
                self._record_fallback(
                    result,
                    "worker pool could not start (process/semaphore limits)",
                    "REP304",
                )
        result.processes_used = processes if pool is not None else 1
        return pool

    def _open_pool(self, processes: int) -> Optional[ProcessPoolExecutor]:
        import multiprocessing

        context = None
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        try:
            return ProcessPoolExecutor(max_workers=processes, mp_context=context)
        except (OSError, ValueError):
            return None

    def _charge_scan(
        self, metrics: JobMetrics, records: int, total_bytes: int
    ) -> None:
        stage = metrics.stage("scan")
        stage.records_in = records
        stage.records_out = records
        stage.bytes_in = total_bytes
        stage.bytes_out = total_bytes
        cluster = self.config.cluster
        seconds = (total_bytes * self.config.scale) / (
            cluster.worker_disk_bw * cluster.workers
        )
        stage.seconds += seconds
        metrics.add_seconds(seconds + self.config.framework.startup_s)

    def _charge_map_stages(
        self,
        metrics: JobMetrics,
        out: _MapOut,
        num_chunks: int,
        stage_offset: int,
        complexities: list[int],
        wall_elapsed: float,
    ) -> None:
        profile = self.config.framework
        cluster = self.config.cluster
        for index, counts in enumerate(out.stage_counts):
            records_in, records_out, bytes_out = counts
            stage = metrics.stage(f"map.{stage_offset + index}")
            stage.records_in = records_in
            stage.records_out = records_out
            stage.bytes_out = bytes_out
            complexity = complexities[index] if index < len(complexities) else 3
            total_cpu = (
                records_in
                * self.config.scale
                * lambda_cpu_ns(complexity)
                * profile.record_cpu_factor
                * 1e-9
            )
            slots = max(1, min(num_chunks, cluster.total_slots))
            seconds = total_cpu / slots + profile.per_stage_overhead_s
            seconds += (bytes_out * self.config.scale) / cluster.emit_bw
            stage.seconds += seconds
            stage.wall_seconds = wall_elapsed / max(1, len(out.stage_counts))
            metrics.add_seconds(seconds)

    def _charge_reduce_stage(
        self,
        metrics: JobMetrics,
        out: _MapOut,
        records_out: int,
        stage_index: int,
        wall_elapsed: float,
    ) -> None:
        cluster = self.config.cluster
        stage = metrics.stage(f"shuffle.reduce.{stage_index}")
        stage.records_in = out.outgoing_records
        stage.records_out = records_out
        stage.bytes_shuffled = out.shuffled_bytes
        stage.wall_seconds = wall_elapsed
        scaled = out.shuffled_bytes * self.config.scale
        seconds = scaled / cluster.network_bw + cluster.shuffle_latency_s
        seconds += 2 * scaled / (cluster.worker_disk_bw * cluster.workers)
        # Spilled runs pay one extra write + read-back on local disk
        # (zero when nothing spilled).
        spilled_scaled = out.stats.spilled_bytes * self.config.scale
        seconds += 2 * spilled_scaled / (cluster.worker_disk_bw * cluster.workers)
        stage.seconds += seconds
        metrics.add_seconds(seconds)

    def _charge_collect(self, metrics: JobMetrics, pairs: list) -> None:
        total = dataset_bytes(pairs)
        metrics.add_seconds(
            (total * self.config.scale) / self.config.cluster.network_bw
        )

    # ------------------------------------------------------------------
    # Budgeted runs: stream probe and the per-job spill directory

    def _probe_unknown_stream(
        self,
        dataset: Dataset,
        steps: list[PipelineStep],
        partitions: int,
        result: MultiprocessResult,
    ) -> tuple[Optional[int], int]:
        """Measure an unknown-length source's first chunk mid-job.

        A bounded probe (one chunk's worth of records) either exhausts
        the stream — the exact length is now known, and when no
        map-side combine depends on the chunk layout the partition
        count is shrunk to match the measured size — or establishes
        that the stream really is large and the pessimistic defaults
        stand.  Either way the measurement is one decision on
        ``result.diagnostics`` (``REP405`` or ``REP406``), so the
        planner's report surfaces what the engine learned; the plan is
        never revised silently.

        Partitions are only adapted when the pipeline has no combining
        reduce: per-chunk combining folds each chunk's records in
        chunk-layout order, so revising the layout mid-job could drift
        float folds away from the plan-time result.  Without combining,
        the spilled reduce restores global first-seen key order and
        the result is partition-count invariant.
        """
        probe = dataset.probe()
        if not probe.exhausted:
            note = (
                f"stream probe: source exceeds {probe.records} records — "
                "keeping the plan's pessimistic large-stream settings"
            )
            result.diagnostics.append(make_diagnostic("REP406", note))
            return None, partitions
        combining = any(
            isinstance(step, ReduceStep) and step.combine for step in steps
        )
        ideal = max(1, math.ceil(probe.records / DEFAULT_CHUNK_RECORDS))
        if not combining and ideal < partitions:
            note = (
                f"stream probe: source ended at {probe.records} records "
                f"(~{probe.bytes} B) — shrank the shuffle from "
                f"{partitions} to {ideal} partition(s) mid-job"
            )
            partitions = ideal
        else:
            note = (
                f"stream probe: source ended at {probe.records} records "
                f"(~{probe.bytes} B); partition count kept at {partitions}"
                + (
                    " (map-side combine pins the chunk layout)"
                    if combining and ideal < partitions
                    else ""
                )
            )
        result.diagnostics.append(make_diagnostic("REP405", note))
        return probe.records, partitions

    def _ensure_spill_dir(self) -> str:
        """A private per-job run directory, removed when the job ends.

        Even with a caller-provided ``spill_dir``, runs go into a fresh
        subdirectory: concurrent jobs sharing the directory cannot
        collide on flush-file names, and sweeping the subdirectory cleans
        up orphans from failed or broken-pool jobs without touching
        anything else the caller keeps there.
        """
        if self.spill_dir is None:
            try:
                return tempfile.mkdtemp(prefix="repro-spill-")
            except OSError as exc:
                raise SpillError(
                    f"cannot create a temporary spill directory: {exc}"
                ) from exc
        try:
            os.makedirs(self.spill_dir, exist_ok=True)
            return tempfile.mkdtemp(prefix="job-", dir=self.spill_dir)
        except OSError as exc:
            raise SpillError(
                f"spill directory {self.spill_dir!r} is not writable: {exc}"
            ) from exc


def _batched(
    iterator: Iterable[list], count: Optional[int]
) -> Iterator[list[list]]:
    """Group an iterator's items into lists of at most ``count`` (None:
    one list of everything; nothing at all for an empty iterator)."""
    batch: list[list] = []
    for item in iterator:
        batch.append(item)
        if count is not None and len(batch) >= count:
            yield batch
            batch = []
    if batch:
        yield batch
