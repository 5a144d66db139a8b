"""Real multiprocess MapReduce backend over a ``ProcessPoolExecutor``.

Unlike the simulated Spark/Hadoop/Flink engines — which execute lambdas
in-process and only *model* distributed time — this backend actually
spreads map, shuffle-combine, and reduce work across worker processes,
measuring real wall-clock seconds alongside the familiar simulated-time
accounting.  That pairing is what lets the execution planner
(:mod:`repro.planner`) be validated against measured reality.

Results are guaranteed identical to the in-process engines: the same
block partitioning (``partition_data``), per-partition map-side
combining, first-seen key ordering, and ordered value folds are
reproduced exactly — only the work moves to other processes.  Closures
are shipped to workers with plain :mod:`pickle`; payloads that cannot be
pickled (e.g. a locally-defined lambda) trigger a transparent fallback
to in-process execution, recorded as ``fallback_reason`` so callers (the
planner's ``PlanReport``) can surface it.  Only genuine pickling errors
fall back — an exception raised *inside* a map or reduce callable in a
worker always propagates to the caller.

With a ``memory_budget`` the engine runs **out of core**: input arrives
as bounded chunk streams (:mod:`repro.engine.source`), map output is
hash-partitioned into budgeted spill buffers that flush to disk runs
(:mod:`repro.engine.spill`; pool workers spill locally), and reduces
merge one partition at a time — peak resident memory is O(budget +
one partition) rather than O(input), while results stay byte-identical
to the in-memory path.
"""

from __future__ import annotations

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
from ..diagnostics.pickling import probe_payload, static_unpicklable_reason
from ..errors import EngineError, SpillError
from .columnar import Chunk, build_chunk, grouped_fold
from .config import EngineConfig
from .core import lambda_cpu_ns, partition_data
from .metrics import JobMetrics
from .shm import (
    SHM_AVAILABLE,
    ShmRef,
    load_payload,
    release_segments,
    write_payload,
)
from .sizes import sizeof, sizeof_pair
from .source import (
    DEFAULT_CHUNK_RECORDS,
    Dataset,
    ListSource,
    as_dataset,
    chunk_records_for,
)
from .spill import (
    SpillMapOut,
    SpillStats,
    SpillWriter,
    cleanup_runs,
    merge_partition,
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
    #: Why the engine executed in-process instead of across workers
    #: (``None`` when the pool actually ran).
    fallback_reason: Optional[str] = None
    #: Stable diagnostic code for the fallback (``REP301``–``REP305``);
    #: set whenever ``fallback_reason`` is.
    fallback_code: Optional[str] = None
    #: Pickle probes where static analysis said OK but the runtime dump
    #: failed — the analyzer's measured imprecision (see ``PlanReport``).
    probe_disagreements: int = 0
    #: Whether the out-of-core streaming path executed this job.
    spilled: bool = False
    #: High-water mark of estimated resident bytes (streaming runs only).
    peak_resident_bytes: int = 0
    #: Spill accounting (:meth:`repro.engine.spill.SpillStats.as_dict`);
    #: None for in-memory runs.
    spill_stats: Optional[dict] = None
    #: How task payloads traveled to the pool: "queue" (re-pickled
    #: through the executor pipes) or "shm" (staged once in shared
    #: memory, handed off by name).
    transport: str = "queue"
    #: Shared-memory segments created / payload bytes they carried.
    shm_segments: int = 0
    shm_bytes: int = 0
    #: Payloads that fell back to the queue after a failed segment write.
    shm_fallbacks: int = 0
    #: Chunk layout the engine ran with ("rows" or "columns").
    layout: str = "rows"
    #: Chunks whose first map stage executed on the vectorized column
    #: path, and chunks where an exactness guard (int64 overflow risk,
    #: non-finite float result, type-promise break) forced the compiled
    #: row loop instead.
    columnar_chunks: int = 0
    guard_fallbacks: int = 0
    #: Mid-job plan revisions the engine made (streaming runs only):
    #: each entry is a dict with a ``kind`` and a human-readable
    #: ``note`` — e.g. ``stream_partitions`` when a first-chunk probe
    #: of an unknown-length source let the engine shrink the partition
    #: count to match the measured size.  Never silent: callers
    #: surface these through ``PlanReport.adaptations``.
    adaptations: list = field(default_factory=list)

    @property
    def executed_parallel(self) -> bool:
        return self.fallback_reason is None and self.processes_used > 1

    def transport_stats(self) -> Optional[dict]:
        """Compact transport accounting; None when nothing pooled."""
        if self.shm_segments == 0 and self.shm_fallbacks == 0:
            return None
        return {
            "transport": self.transport,
            "segments": self.shm_segments,
            "bytes": self.shm_bytes,
            "fallbacks": self.shm_fallbacks,
        }

    def columnar_stats(self) -> Optional[dict]:
        """Compact columnar accounting; None when nothing vectorized."""
        if self.columnar_chunks == 0 and self.guard_fallbacks == 0:
            return None
        return {
            "layout": self.layout,
            "columnar_chunks": self.columnar_chunks,
            "guard_fallbacks": self.guard_fallbacks,
        }


@dataclass
class _MapOut:
    """What one map task reports back to the driver."""

    chunk_pairs: list[list]
    #: Per fused map stage: [records_in, records_out, bytes_out].
    stage_counts: list[list[int]]
    outgoing_records: int = 0
    shuffled_bytes: int = 0
    #: Chunks the vectorized column path produced / guard-rejected.
    columnar_chunks: int = 0
    guard_fallbacks: int = 0

    def merge(self, other: "_MapOut") -> None:
        self.chunk_pairs.extend(other.chunk_pairs)
        for mine, theirs in zip(self.stage_counts, other.stage_counts):
            for i in range(3):
                mine[i] += theirs[i]
        self.outgoing_records += other.outgoing_records
        self.shuffled_bytes += other.shuffled_bytes
        self.columnar_chunks += other.columnar_chunks
        self.guard_fallbacks += other.guard_fallbacks


def _run_map_chunks(
    map_fns: Sequence[Callable],
    combiner: Optional[Callable[[Any, Any], Any]],
    chunks: list[list],
    shuffle_next: bool,
    account_bytes: bool,
) -> _MapOut:
    """Apply fused map stages (then an optional combine) per chunk.

    Shared by the pool workers and the in-process fallback, so both
    execution modes produce byte-identical results.

    A mapper exposing ``map_chunk`` (the compiled kernels of
    :mod:`repro.codegen.kernels`) is handed the whole chunk at once —
    one call per chunk instead of one per record; per-record mappers
    run the classic inner loop.  Both paths emit identical pairs in
    identical order.

    When the sole map stage also exposes ``map_block`` and the combiner
    is a recognized sum/min/max fold, the chunk stays in column form end
    to end: the vectorized kernel emits a value/key array block and
    :func:`~repro.engine.columnar.grouped_fold` produces the per-chunk
    combine partials with array folds — bit-identical to the dict
    combine (same per-chunk grouping, same first-seen key order, same
    fold sequence), with the pair tuples never materialized.
    """
    out = _MapOut(chunk_pairs=[], stage_counts=[[0, 0, 0] for _ in map_fns])
    fold_fn = (
        map_fns[0]
        if len(map_fns) == 1 and hasattr(map_fns[0], "map_block")
        else None
    )
    fold_op = (
        getattr(combiner, "grouped_op", None) if fold_fn is not None else None
    )
    for chunk in chunks:
        current: list = chunk
        combined = False
        if fold_op is not None:
            counts = out.stage_counts[0]
            block = fold_fn.map_block(current)
            if getattr(fold_fn, "last_chunk_fallback", False):
                out.guard_fallbacks += 1
            if block is not None:
                folded = grouped_fold(block, fold_op)
                out.columnar_chunks += 1
                counts[0] += len(current)
                counts[1] += len(block)
                if account_bytes:
                    counts[2] += block.stage_bytes()
                if folded is not None:
                    current = folded
                    combined = True
                else:
                    current = block.pairs()
            else:
                # Guard trip (or unvectorizable chunk): the compiled row
                # loop reruns this chunk without repeating the rejected
                # vector work.
                counts[0] += len(current)
                emitted = fold_fn.map_rows(current)
                counts[1] += len(emitted)
                if account_bytes:
                    for pair in emitted:
                        counts[2] += sizeof(pair)
                current = emitted
        else:
            for index, fn in enumerate(map_fns):
                counts = out.stage_counts[index]
                chunk_fn = getattr(fn, "map_chunk", None)
                if chunk_fn is not None:
                    counts[0] += len(current)
                    emitted = list(chunk_fn(current))
                    if getattr(fn, "last_chunk_columnar", False):
                        out.columnar_chunks += 1
                    if getattr(fn, "last_chunk_fallback", False):
                        out.guard_fallbacks += 1
                    counts[1] += len(emitted)
                    if account_bytes:
                        for pair in emitted:
                            counts[2] += sizeof(pair)
                    current = emitted
                    continue
                emitted = []
                for record in current:
                    counts[0] += 1
                    for pair in fn(record):
                        emitted.append(pair)
                counts[1] += len(emitted)
                if account_bytes:
                    for pair in emitted:
                        counts[2] += sizeof(pair)
                current = emitted
        if combiner is not None and not combined:
            local: dict[Any, Any] = {}
            for key, value in current:
                if key in local:
                    local[key] = combiner(local[key], value)
                else:
                    local[key] = value
            current = list(local.items())
        out.outgoing_records += len(current)
        if shuffle_next and account_bytes:
            for key, value in current:
                out.shuffled_bytes += sizeof_pair(key, value)
        out.chunk_pairs.append(current)
    return out


def _fold_groups(
    fn: Callable[[Any, Any], Any], groups: list[tuple[Any, list]]
) -> list[tuple]:
    """Ordered fold of each key's values — the reduce-side work."""
    out = []
    for key, values in groups:
        acc = values[0]
        for value in values[1:]:
            acc = fn(acc, value)
        out.append((key, acc))
    return out


def _map_task(payload: Union[bytes, ShmRef]) -> _MapOut:
    """Pool entry point: unpickle one map task and run it."""
    map_fns, combiner, chunks, shuffle_next, account_bytes = load_payload(payload)
    return _run_map_chunks(map_fns, combiner, chunks, shuffle_next, account_bytes)


def _reduce_task(payload: Union[bytes, ShmRef]) -> list[tuple]:
    """Pool entry point: unpickle one bucket of key groups and fold it."""
    fn, groups = load_payload(payload)
    return _fold_groups(fn, groups)


def _run_spill_map(
    map_fns: Sequence[Callable],
    combiner: Optional[Callable[[Any, Any], Any]],
    chunks: Iterable[list],
    writer: SpillWriter,
    account_bytes: bool,
) -> SpillMapOut:
    """Apply fused map stages chunkwise, spilling output through ``writer``.

    The per-chunk work (map stages, then the optional combine) is the
    same :func:`_run_map_chunks` the in-memory engine uses — per-chunk
    combining groups records identically, so spilled results stay
    byte-identical.  Emitted pairs go straight into the spill writer's
    hash-partitioned, budget-bounded buffers instead of accumulating.
    """
    out = SpillMapOut(stage_counts=[[0, 0, 0] for _ in map_fns])
    # With no combiner and a single vectorized map stage, emitted pairs
    # can stay in column form all the way to disk: the block is routed
    # into the writer's partition buffers as value/key sub-arrays
    # (:meth:`SpillWriter.add_block`) and only expanded to pair tuples
    # at merge time.  With a combiner, _run_map_chunks' grouped-fold
    # path already collapses each chunk to a handful of partials.
    block_fn = (
        getattr(map_fns[0], "map_block", None)
        if combiner is None and len(map_fns) == 1
        else None
    )
    for chunk in chunks:
        out.chunks += 1
        out.input_records += len(chunk)
        chunk_bytes = 0
        if account_bytes:
            chunk_bytes = sum(sizeof(r) for r in chunk)
            out.input_bytes += chunk_bytes
        block = block_fn(chunk) if block_fn is not None else None
        if block_fn is not None and getattr(
            map_fns[0], "last_chunk_fallback", False
        ):
            out.guard_fallbacks += 1
        if block is not None:
            out.columnar_chunks += 1
            counts = out.stage_counts[0]
            counts[0] += len(chunk)
            counts[1] += len(block)
            if account_bytes:
                counts[2] += block.stage_bytes()
            writer.add_block(block)
        elif block_fn is not None:
            # Guard trip: rerun this chunk on the compiled row loop
            # without repeating the rejected vector computation.
            counts = out.stage_counts[0]
            counts[0] += len(chunk)
            emitted = map_fns[0].map_rows(chunk)
            counts[1] += len(emitted)
            for key, value in emitted:
                if account_bytes:
                    counts[2] += sizeof((key, value))
                writer.add(key, value)
        else:
            mapped = _run_map_chunks(
                map_fns, combiner, [chunk], False, account_bytes
            )
            out.merge_counts(mapped.stage_counts)
            out.columnar_chunks += mapped.columnar_chunks
            out.guard_fallbacks += mapped.guard_fallbacks
            for key, value in mapped.chunk_pairs[0]:
                writer.add(key, value)
        # The in-flight chunk is resident alongside the shuffle buffers.
        writer.stats.note_resident(writer.resident_bytes + chunk_bytes)
    writer.finish()
    out.run_files = writer.run_files
    out.key_order = writer.key_order
    out.outgoing_records = writer.pairs_in
    out.shuffled_bytes = writer.bytes_in
    out.stats = writer.stats
    return out


def _spill_map_task(payload: Union[bytes, ShmRef]) -> SpillMapOut:
    """Pool entry point: one map task spilling locally to shared disk."""
    (
        map_fns,
        combiner,
        chunks,
        spill_dir,
        partitions,
        budget,
        task_id,
        account_bytes,
    ) = load_payload(payload)
    writer = SpillWriter(spill_dir, partitions, budget, task_id=task_id)
    return _run_spill_map(map_fns, combiner, chunks, writer, account_bytes)


def _spill_reduce_task(payload: Union[bytes, ShmRef]) -> tuple[list[tuple], int]:
    """Pool entry point: merge-reduce one partition's spill runs."""
    fn, run_files = load_payload(payload)
    stats = SpillStats()
    pairs = merge_partition(run_files, fn, stats)
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
    #: engines); None → ``config.default_partitions``.
    partitions: Optional[int] = None
    #: Inputs smaller than this run in-process — pool startup dominates.
    min_parallel_records: int = 2048
    #: Compute byte volumes (sizeof per record) for simulated accounting.
    account_bytes: bool = True
    #: Estimated bytes the shuffle may hold resident before spilling to
    #: disk; None disables the out-of-core streaming path entirely.
    memory_budget: Optional[int] = None
    #: Where spill runs are written; None → a private temp directory,
    #: removed when the job finishes.
    spill_dir: Optional[str] = None
    #: How task payloads reach the pool: "queue" re-pickles through the
    #: executor pipes; "shm" stages each payload once in a
    #: multiprocessing.shared_memory segment and sends only the name;
    #: "auto" uses shm for payloads of at least ``shm_min_bytes`` when
    #: the platform supports it, with transparent per-payload fallback.
    transport: str = "auto"
    #: Below this payload size "auto" stays on the queue — the segment
    #: create/attach syscalls cost more than piping a few kilobytes.
    shm_min_bytes: int = 65536
    #: Chunk layout: "rows" keeps record-list chunks (live columns are
    #: still cached on the chunk after first extraction); "columns"
    #: builds ColumnChunks eagerly at the source boundary when the first
    #: map stage is vectorized.  The planner resolves "auto" before the
    #: engine is constructed.
    layout: str = "rows"

    def run_pipeline(
        self, records: Union[list, Dataset], steps: Sequence[PipelineStep]
    ) -> MultiprocessResult:
        """Run the stage list over the records; returns final pairs.

        ``records`` may be a plain list or a
        :class:`~repro.engine.source.Dataset`.  With a ``memory_budget``
        the out-of-core streaming path executes: input is consumed in
        bounded chunks and the shuffle spills to disk once the budget is
        exceeded, so peak resident memory is O(budget) instead of O(n).
        Without a budget, Dataset inputs are materialized and the
        in-memory path runs unchanged.
        """
        if not steps:
            raise EngineError("multiprocess pipeline needs at least one step")
        if self.transport not in ("auto", "shm", "queue"):
            raise EngineError(
                f"unknown transport {self.transport!r}; "
                "expected 'auto', 'shm' or 'queue'"
            )
        if self.layout not in ("rows", "columns"):
            raise EngineError(
                f"unknown layout {self.layout!r}; expected 'rows' or "
                "'columns' (the planner resolves 'auto' before the engine)"
            )
        if self.memory_budget is not None:
            return self._run_streaming(as_dataset(records), list(steps))
        if isinstance(records, Dataset):
            records = records.materialize()
        metrics = JobMetrics()
        partitions = self.partitions or self.config.default_partitions
        result = MultiprocessResult(pairs=[], metrics=metrics)
        pool = self._start_pool(result, len(records))

        result.layout = self.layout
        started = time.perf_counter()
        try:
            chunks = partition_data(list(records), partitions)
            prepare = self._chunk_preparer(list(steps))
            if prepare is not None:
                chunks = [prepare(chunk) for chunk in chunks]
            self._charge_scan(metrics, records)
            pairs = self._execute_steps(chunks, list(steps), pool, result)
        finally:
            if pool is not None:
                pool.shutdown()
        metrics.add_wall_seconds(time.perf_counter() - started)
        if self.account_bytes:
            self._charge_collect(metrics, pairs)
        result.pairs = pairs
        return result

    # ------------------------------------------------------------------
    # Stage execution

    def _execute_steps(
        self,
        chunks: list[list],
        steps: list[PipelineStep],
        pool: Optional[ProcessPoolExecutor],
        result: MultiprocessResult,
    ) -> list:
        index = 0
        stage_counter = 0
        while index < len(steps):
            if isinstance(steps[index], BridgeStep):
                step = steps[index]
                index += 1
                chunks = self._bridge_phase(chunks, step, result, stage_counter)
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
            out = self._map_phase(
                chunks,
                map_fns,
                combiner,
                shuffle_next=reduce_step is not None,
                pool=pool,
                result=result,
                stage_offset=stage_counter,
                complexities=complexities,
            )
            stage_counter += len(map_fns)
            chunks = out.chunk_pairs
            if reduce_step is not None:
                pairs = self._reduce_phase(
                    out, reduce_step, pool, result, stage_counter
                )
                stage_counter += 1
                chunks = partition_data(
                    pairs, self.partitions or self.config.default_partitions
                )
        return [pair for chunk in chunks for pair in chunk]

    def _map_phase(
        self,
        chunks: list[list],
        map_fns: list[Callable],
        combiner: Optional[Callable],
        shuffle_next: bool,
        pool: Optional[ProcessPoolExecutor],
        result: MultiprocessResult,
        stage_offset: int,
        complexities: list[int],
    ) -> _MapOut:
        started = time.perf_counter()
        out: Optional[_MapOut] = None
        if pool is not None:
            task_count = min(len(chunks), max(1, result.processes_used * 2))
            bounds = self._task_bounds(len(chunks), task_count)
            tasks = [
                (map_fns, combiner, chunks[lo:hi], shuffle_next, self.account_bytes)
                for lo, hi in bounds
            ]
            sent, refs, error = self._send_tasks(tasks, result)
            if error is not None:
                self._record_fallback(result, error, "REP301")
            else:
                try:
                    parts = list(pool.map(_map_task, sent))
                except BrokenProcessPool:
                    self._record_fallback(result, "worker pool broke mid-job")
                    parts = None
                finally:
                    release_segments(refs)
                if parts:
                    out = parts[0]
                    for part in parts[1:]:
                        out.merge(part)
                    result.map_tasks += len(tasks)
        if out is None:
            out = _run_map_chunks(
                map_fns, combiner, chunks, shuffle_next, self.account_bytes
            )
        result.columnar_chunks += out.columnar_chunks
        result.guard_fallbacks += out.guard_fallbacks
        elapsed = time.perf_counter() - started
        self._charge_map_stages(
            result.metrics,
            out,
            len(chunks),
            stage_offset,
            complexities,
            elapsed,
        )
        return out

    def _send_tasks(
        self, tasks: list, result: MultiprocessResult
    ) -> tuple[list[Union[bytes, ShmRef]], list[ShmRef], Optional[str]]:
        """Pickle per-task objects and stage them for the pool.

        Payloads are pickled with protocol 5 and a ``buffer_callback``,
        so ndarray columns inside a task (ColumnChunks, cached column
        arrays, spillable blocks) become out-of-band buffers whose raw
        bytes go straight into the shared segment — the column data is
        copied exactly once, into shared memory, and never flattened
        into an intermediate payload byte string.  Queue transport (or a
        failed segment write) re-pickles the task in-band instead.

        Returns ``(sent, refs, error)``; a non-None ``error`` means the
        payload is unpicklable (sent/refs are empty and any staged
        segments were released) and the caller falls back in-process.
        Only pickling failures report as errors — anything else raised
        while serializing (a buggy ``__reduce__`` in user code) is a
        real bug and propagates.
        """
        use_shm = self.transport != "queue" and SHM_AVAILABLE
        threshold = 0 if self.transport == "shm" else self.shm_min_bytes
        sent: list[Union[bytes, ShmRef]] = []
        refs: list[ShmRef] = []
        try:
            for task in tasks:
                if not use_shm:
                    sent.append(pickle.dumps(task))
                    continue
                buffers: list = []
                head = pickle.dumps(
                    task, protocol=5, buffer_callback=buffers.append
                )
                try:
                    total = len(head) + sum(
                        buffer.raw().nbytes for buffer in buffers
                    )
                except BufferError:
                    total = None  # non-contiguous buffer: in-band it goes
                ref = None
                if total is not None and total >= threshold:
                    ref = write_payload(head, buffers)
                    if ref is None:
                        result.shm_fallbacks += 1
                if ref is not None:
                    refs.append(ref)
                    sent.append(ref)
                    result.transport = "shm"
                    result.shm_segments += 1
                    result.shm_bytes += total
                elif buffers:
                    sent.append(pickle.dumps(task))
                else:
                    sent.append(head)
        except _PICKLE_ERRORS as exc:
            release_segments(refs)
            # Disagreement accounting: the static walker green-lit a
            # payload the runtime dump rejected — measured imprecision.
            if static_unpicklable_reason(tasks) is None:
                result.probe_disagreements += 1
            return [], [], f"payload not picklable: {exc!r}"
        return sent, refs, None

    @staticmethod
    def _record_fallback(
        result: MultiprocessResult, reason: str, code: str = "REP305"
    ) -> None:
        """Report a fallback; when no pool work has run yet, the job was
        effectively single-process, so keep ``processes_used`` honest."""
        result.fallback_reason = reason
        result.fallback_code = code
        if result.map_tasks == 0:
            result.processes_used = 1

    def _chunk_preparer(
        self, steps: Sequence[Any]
    ) -> Optional[Callable[[list], list]]:
        """How to wrap source chunks for the first map stage, if at all.

        Only meaningful when the pipeline opens with a vectorized
        compiled mapper (``columns_spec`` proves live columns): with
        ``layout="columns"`` every source chunk becomes a ColumnChunk
        with its live columns extracted eagerly, once; with
        ``layout="rows"`` chunks get the cache-capable ``Chunk`` wrapper
        so each column is still extracted at most once per chunk even
        when several kernels (or a guard-trip retry) touch it.
        """
        fn = None
        if steps and isinstance(steps[0], MapStep):
            fn = steps[0].fn
        elif steps and callable(steps[0]) and not isinstance(
            steps[0], (ReduceStep, BridgeStep)
        ):
            fn = steps[0]
        if fn is None:
            return None
        specs = getattr(fn, "columns_spec", None)
        if specs is None:
            return None
        if self.layout == "columns":
            return lambda chunk: build_chunk(chunk, specs)
        return Chunk

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
        chunks: list[list],
        step: BridgeStep,
        result: MultiprocessResult,
        stage_index: int,
    ) -> list[list]:
        """Collect pairs to the driver, re-bind, re-partition in memory."""
        started = time.perf_counter()
        pairs = [pair for chunk in chunks for pair in chunk]
        records = step.fn(pairs)
        elapsed = time.perf_counter() - started
        metrics = result.metrics
        stage = metrics.stage(f"{step.name}.{stage_index}")
        stage.records_in = len(pairs)
        stage.records_out = len(records)
        stage.wall_seconds = elapsed
        if self.account_bytes:
            total = sum(sizeof(p) for p in pairs)
            stage.bytes_in = total
            # The handoff pays one driver-side collect over the network;
            # the re-scan + job startup the unfused execution would pay
            # for the downstream job is exactly what fusion saves.
            seconds = (total * self.config.scale) / self.config.cluster.network_bw
            stage.seconds += seconds
            metrics.add_seconds(seconds)
        return partition_data(
            records, self.partitions or self.config.default_partitions
        )

    def _reduce_phase(
        self,
        out: _MapOut,
        reduce_step: ReduceStep,
        pool: Optional[ProcessPoolExecutor],
        result: MultiprocessResult,
        stage_index: int,
    ) -> list[tuple]:
        started = time.perf_counter()
        # Driver-side merge in chunk order: first-seen key ordering and
        # per-key value order match the simulated engines exactly.
        grouped: dict[Any, list] = {}
        for chunk in out.chunk_pairs:
            for key, value in chunk:
                grouped.setdefault(key, []).append(value)
        groups = list(grouped.items())
        total_values = sum(len(values) for _key, values in groups)
        pairs: Optional[list[tuple]] = None
        if (
            pool is not None
            and len(groups) > 1
            and total_values >= self.min_parallel_records
        ):
            task_count = min(len(groups), max(1, result.processes_used * 2))
            bounds = self._task_bounds(len(groups), task_count)
            # An unpicklable reducer folds in-process without recording a
            # fallback — the map phase may still have pooled fine.
            sent, refs, error = self._send_tasks(
                [(reduce_step.fn, groups[lo:hi]) for lo, hi in bounds], result
            )
            if error is None:
                try:
                    folded = list(pool.map(_reduce_task, sent))
                    pairs = [pair for bucket in folded for pair in bucket]
                except BrokenProcessPool:
                    self._record_fallback(result, "worker pool broke during reduce")
                    pairs = None
                finally:
                    release_segments(refs)
        if pairs is None:
            pairs = _fold_groups(reduce_step.fn, groups)
        elapsed = time.perf_counter() - started
        self._charge_reduce_stage(
            result.metrics, out, groups, total_values, stage_index, elapsed
        )
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
            result.fallback_reason = "single process requested"
            result.fallback_code = "REP302"
        elif known is not None and known < self.min_parallel_records:
            result.fallback_reason = (
                f"tiny input ({known} records < "
                f"{self.min_parallel_records}): pool startup would dominate"
            )
            result.fallback_code = "REP303"
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

    def _charge_scan(self, metrics: JobMetrics, records: list) -> None:
        stage = metrics.stage("scan")
        total = sum(sizeof(r) for r in records) if self.account_bytes else 0
        self._charge_scan_totals(metrics, stage, len(records), total)

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
            if self.account_bytes:
                seconds += (bytes_out * self.config.scale) / cluster.emit_bw
            stage.seconds += seconds
            stage.wall_seconds = wall_elapsed / max(1, len(out.stage_counts))
            metrics.add_seconds(seconds)

    def _charge_reduce_stage(
        self,
        metrics: JobMetrics,
        out: _MapOut,
        groups: list[tuple[Any, list]],
        total_values: int,
        stage_index: int,
        wall_elapsed: float,
    ) -> None:
        cluster = self.config.cluster
        stage = metrics.stage(f"shuffle.reduce.{stage_index}")
        stage.records_in = total_values
        stage.records_out = len(groups)
        stage.bytes_shuffled = out.shuffled_bytes
        stage.wall_seconds = wall_elapsed
        scaled = out.shuffled_bytes * self.config.scale
        seconds = scaled / cluster.network_bw + cluster.shuffle_latency_s
        seconds += 2 * scaled / (cluster.worker_disk_bw * cluster.workers)
        stage.seconds += seconds
        metrics.add_seconds(seconds)

    def _charge_collect(self, metrics: JobMetrics, pairs: list) -> None:
        total = sum(sizeof(p) for p in pairs)
        metrics.add_seconds(
            (total * self.config.scale) / self.config.cluster.network_bw
        )

    # ------------------------------------------------------------------
    # Out-of-core streaming execution (spill-to-disk shuffle)

    def _run_streaming(
        self, dataset: Dataset, steps: list[PipelineStep]
    ) -> MultiprocessResult:
        """Execute the pipeline over bounded chunks with an external shuffle.

        Input is consumed chunk by chunk (never fully materialized), map
        output is hash-partitioned into budgeted spill buffers that
        flush to disk runs, and each reduce merges one partition at a
        time — peak resident memory is O(memory_budget + one partition)
        instead of O(input).  Results are byte-identical to the
        in-memory path: chunk layout reproduces ``partition_data``, runs
        preserve arrival order, and the final pairs are restored to
        global first-seen key order.
        """
        if self.memory_budget is None or self.memory_budget <= 0:
            raise SpillError(
                f"memory budget must be a positive byte count, "
                f"got {self.memory_budget!r}"
            )
        metrics = JobMetrics()
        partitions = self.partitions or self.config.default_partitions
        result = MultiprocessResult(
            pairs=[], metrics=metrics, spilled=True, layout=self.layout
        )
        known = dataset.known_length
        if known is None:
            known, partitions = self._probe_unknown_stream(
                dataset, steps, partitions, result
            )
        pool = self._start_pool(result, known)

        spill_root = self._ensure_spill_dir()
        stats = SpillStats(partitions=partitions)
        started = time.perf_counter()
        scan_stage = metrics.stage("scan")
        try:
            pairs = self._execute_stream(
                dataset,
                steps,
                pool,
                result,
                stats,
                spill_root,
                partitions,
                scan_stage,
            )
        finally:
            if pool is not None:
                pool.shutdown()
            # The per-job run directory is always swept — on success,
            # on a mid-job failure, and for broken-pool orphans alike.
            shutil.rmtree(spill_root, ignore_errors=True)
        metrics.add_wall_seconds(time.perf_counter() - started)
        if self.account_bytes:
            self._charge_collect(metrics, pairs)
        result.pairs = pairs
        result.peak_resident_bytes = stats.peak_resident_bytes
        result.spill_stats = stats.as_dict()
        return result

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
        stand.  Either way the measurement is recorded in
        ``result.adaptations`` so the planner's report surfaces what
        the engine learned; the plan is never revised silently.

        Partitions are only adapted when the pipeline has no combining
        reduce: per-chunk combining folds each chunk's records in
        chunk-layout order, so revising the layout mid-job could drift
        float folds away from the plan-time result.  Without combining,
        ``_spill_reduce_phase`` restores global first-seen key order and
        the result is partition-count invariant.
        """
        probe = dataset.probe()
        if not probe.exhausted:
            result.adaptations.append(
                {
                    "kind": "stream_probe",
                    "records": probe.records,
                    "bytes": probe.bytes,
                    "exhausted": False,
                    "note": (
                        f"stream probe: source exceeds {probe.records} "
                        "records — keeping the plan's pessimistic "
                        "large-stream settings"
                    ),
                }
            )
            return None, partitions
        combining = any(
            isinstance(step, ReduceStep) and step.combine for step in steps
        )
        ideal = max(1, math.ceil(probe.records / DEFAULT_CHUNK_RECORDS))
        adaptation = {
            "kind": "stream_partitions",
            "records": probe.records,
            "bytes": probe.bytes,
            "exhausted": True,
            "partitions_before": partitions,
            "partitions_after": partitions,
        }
        if not combining and ideal < partitions:
            adaptation["partitions_after"] = ideal
            adaptation["note"] = (
                f"stream probe: source ended at {probe.records} records "
                f"(~{probe.bytes} B) — shrank the shuffle from "
                f"{partitions} to {ideal} partition(s) mid-job"
            )
            partitions = ideal
        else:
            adaptation["note"] = (
                f"stream probe: source ended at {probe.records} records "
                f"(~{probe.bytes} B); partition count kept at "
                f"{partitions}"
                + (
                    " (map-side combine pins the chunk layout)"
                    if combining and ideal < partitions
                    else ""
                )
            )
        result.adaptations.append(adaptation)
        return probe.records, partitions

    def _ensure_spill_dir(self) -> str:
        """A private per-job run directory, removed when the job ends.

        Even with a caller-provided ``spill_dir``, runs go into a fresh
        subdirectory: concurrent jobs sharing the directory cannot
        collide on run-file names, and sweeping the subdirectory cleans
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

    def _execute_stream(
        self,
        dataset: Dataset,
        steps: list[PipelineStep],
        pool: Optional[ProcessPoolExecutor],
        result: MultiprocessResult,
        stats: SpillStats,
        spill_root: str,
        partitions: int,
        scan_stage,
    ) -> list:
        index = 0
        stage_counter = 0
        current: Dataset = dataset
        pairs: list = []
        scan_done = False
        scan_records = 0
        scan_bytes = 0
        while index < len(steps):
            step = steps[index]
            if isinstance(step, BridgeStep):
                index += 1
                if not scan_done:
                    # A chain starting with a bridge consumes the raw
                    # input on the driver, like the in-memory path.
                    pairs = current.materialize()
                    scan_records = len(pairs)
                    if self.account_bytes:
                        scan_bytes = sum(sizeof(p) for p in pairs)
                    scan_done = True
                pairs = self._stream_bridge(pairs, step, result, stage_counter, stats)
                current = ListSource(pairs)
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
                    raise EngineError(
                        f"unknown pipeline step type {type(nxt).__name__!r}"
                    )
            if not map_fns and reduce_step is None:
                continue  # a BridgeStep is next; handled at the loop top
            pairs, segment = self._stream_segment(
                current,
                map_fns,
                reduce_step,
                pool,
                result,
                stats,
                spill_root,
                partitions,
                stage_counter,
                complexities,
            )
            if not scan_done:
                scan_records = segment.input_records
                scan_bytes = segment.input_bytes
                scan_done = True
            result.columnar_chunks += segment.columnar_chunks
            result.guard_fallbacks += segment.guard_fallbacks
            stage_counter += len(map_fns) + (1 if reduce_step is not None else 0)
            current = ListSource(pairs)
        self._charge_scan_totals(result.metrics, scan_stage, scan_records, scan_bytes)
        return pairs

    def _stream_segment(
        self,
        dataset: Dataset,
        map_fns: list[Callable],
        reduce_step: Optional[ReduceStep],
        pool: Optional[ProcessPoolExecutor],
        result: MultiprocessResult,
        stats: SpillStats,
        spill_root: str,
        partitions: int,
        stage_offset: int,
        complexities: list[int],
    ) -> tuple[list, SpillMapOut]:
        """One map*…reduce? segment of the pipeline, streamed."""
        chunk_size = chunk_records_for(
            dataset, partitions, budget_bytes=self.memory_budget
        )
        if reduce_step is None:
            return self._stream_map_collect(
                dataset,
                map_fns,
                chunk_size,
                result.metrics,
                stage_offset,
                complexities,
                stats,
            )
        combiner = reduce_step.fn if reduce_step.combine else None
        started = time.perf_counter()
        agg = self._stream_map_spill(
            dataset,
            map_fns,
            combiner,
            chunk_size,
            pool,
            result,
            stats,
            spill_root,
            partitions,
        )
        map_elapsed = time.perf_counter() - started
        self._charge_map_stages(
            result.metrics,
            agg,
            max(1, agg.chunks),
            stage_offset,
            complexities,
            map_elapsed,
        )
        started = time.perf_counter()
        pairs = self._spill_reduce_phase(agg, reduce_step, pool, result, stats)
        reduce_elapsed = time.perf_counter() - started
        self._charge_spill_reduce(
            result.metrics,
            agg,
            len(pairs),
            stage_offset + len(map_fns),
            reduce_elapsed,
        )
        return pairs, agg

    def _stream_map_spill(
        self,
        dataset: Dataset,
        map_fns: list[Callable],
        combiner: Optional[Callable],
        chunk_size: int,
        pool: Optional[ProcessPoolExecutor],
        result: MultiprocessResult,
        stats: SpillStats,
        spill_root: str,
        partitions: int,
    ) -> SpillMapOut:
        """Map + combine + hash-partitioned spill over the chunk stream.

        With a pool, chunks are read in bounded rounds and each round's
        task batches spill *locally in the workers* — only run-file
        metadata returns to the driver.  Without one (or after a
        fallback), one driver-side writer consumes the rest of the
        stream.  Either way the per-partition run order equals chunk
        order, which is what keeps reductions byte-identical.
        """
        budget = self.memory_budget or 0
        agg = SpillMapOut(
            stage_counts=[[0, 0, 0] for _ in map_fns],
            run_files=[[] for _ in range(partitions)],
        )
        seen: set = set()

        def absorb(out: SpillMapOut) -> None:
            agg.merge_counts(out.stage_counts)
            for partition, files in enumerate(out.run_files):
                agg.run_files[partition].extend(files)
            for key in out.key_order:
                if key not in seen:
                    seen.add(key)
                    agg.key_order.append(key)
            agg.outgoing_records += out.outgoing_records
            agg.shuffled_bytes += out.shuffled_bytes
            agg.chunks += out.chunks
            agg.input_records += out.input_records
            agg.input_bytes += out.input_bytes
            agg.columnar_chunks += out.columnar_chunks
            agg.guard_fallbacks += out.guard_fallbacks
            agg.stats.merge(out.stats)
            stats.merge(out.stats)

        chunks = dataset.prepared(self._chunk_preparer(map_fns)).iter_chunks(
            chunk_size
        )
        task_id = 0
        if pool is not None:
            verdict = probe_payload((map_fns, combiner))
            if verdict.disagreement:
                result.probe_disagreements += 1
            if verdict.unpicklable:
                self._record_fallback(result, verdict.reason or "", "REP301")
                pool = None
        if pool is not None:
            tasks_per_round = max(1, result.processes_used) * 2
            chunks_per_task = 2
            pooled_ok = True
            for round_chunks in _batched(chunks, chunks_per_task * tasks_per_round):
                batches = [
                    round_chunks[i : i + chunks_per_task]
                    for i in range(0, len(round_chunks), chunks_per_task)
                ]
                tasks = [
                    (
                        map_fns,
                        combiner,
                        batch,
                        spill_root,
                        partitions,
                        budget,
                        task_id + offset,
                        self.account_bytes,
                    )
                    for offset, batch in enumerate(batches)
                ]
                sent, refs, error = self._send_tasks(tasks, result)
                outs: Optional[list[SpillMapOut]] = None
                if error is not None:
                    self._record_fallback(result, error, "REP301")
                else:
                    try:
                        outs = list(pool.map(_spill_map_task, sent))
                    except BrokenProcessPool:
                        self._record_fallback(result, "worker pool broke mid-job")
                    finally:
                        release_segments(refs)
                task_id += len(batches)  # ids consumed even when lost
                if outs is None:
                    # Re-run this round inline (fresh task id keeps its
                    # run files distinct from any the lost tasks wrote —
                    # unregistered orphans are ignored and swept with
                    # the spill dir), then finish the stream inline.
                    writer = SpillWriter(
                        spill_root, partitions, budget, task_id=task_id
                    )
                    task_id += 1
                    absorb(
                        _run_spill_map(
                            map_fns,
                            combiner,
                            round_chunks,
                            writer,
                            self.account_bytes,
                        )
                    )
                    pooled_ok = False
                    break
                for out in outs:
                    absorb(out)
                # The whole round's chunks sat on the driver while its
                # tasks ran — the pooled path's resident contribution.
                stats.note_resident(sum(out.input_bytes for out in outs))
                result.map_tasks += len(batches)
            if pooled_ok:
                return agg
        writer = SpillWriter(spill_root, partitions, budget, task_id=task_id)
        absorb(_run_spill_map(map_fns, combiner, chunks, writer, self.account_bytes))
        return agg

    def _spill_reduce_phase(
        self,
        agg: SpillMapOut,
        reduce_step: ReduceStep,
        pool: Optional[ProcessPoolExecutor],
        result: MultiprocessResult,
        stats: SpillStats,
    ) -> list[tuple]:
        """Merge-reduce partition by partition; restore global key order."""
        parts = [(p, files) for p, files in enumerate(agg.run_files) if files]
        folded: Optional[list[list[tuple]]] = None
        if pool is not None and len(parts) > 1:
            # An unpicklable reducer merges inline, no fallback recorded.
            sent, refs, error = self._send_tasks(
                [(reduce_step.fn, files) for _p, files in parts], result
            )
            if error is None:
                try:
                    outs = list(pool.map(_spill_reduce_task, sent))
                except BrokenProcessPool:
                    self._record_fallback(result, "worker pool broke during reduce")
                else:
                    folded = []
                    for bucket, peak in outs:
                        stats.note_resident(peak)
                        folded.append(bucket)
                finally:
                    release_segments(refs)
        if folded is None:
            folded = [
                merge_partition(files, reduce_step.fn, stats)
                for _p, files in parts
            ]
        cleanup_runs(agg.run_files)
        rank = {key: order for order, key in enumerate(agg.key_order)}
        pairs = [pair for bucket in folded for pair in bucket]
        pairs.sort(key=lambda pair: rank[pair[0]])
        if self.account_bytes:
            stats.note_resident(sum(sizeof_pair(k, v) for k, v in pairs))
        return pairs

    def _stream_map_collect(
        self,
        dataset: Dataset,
        map_fns: list[Callable],
        chunk_size: int,
        metrics: JobMetrics,
        stage_offset: int,
        complexities: list[int],
        stats: SpillStats,
    ) -> tuple[list, SpillMapOut]:
        """A map-only tail segment: stream chunks, collect emitted pairs.

        The output is the job's result, so it is materialized by
        contract; peak memory is the output plus one chunk.
        """
        started = time.perf_counter()
        agg = SpillMapOut(stage_counts=[[0, 0, 0] for _ in map_fns])
        pairs: list = []
        resident = 0
        chunks = dataset.prepared(self._chunk_preparer(map_fns)).iter_chunks(
            chunk_size
        )
        for chunk in chunks:
            agg.chunks += 1
            agg.input_records += len(chunk)
            chunk_bytes = 0
            if self.account_bytes:
                chunk_bytes = sum(sizeof(r) for r in chunk)
                agg.input_bytes += chunk_bytes
            mapped = _run_map_chunks(map_fns, None, [chunk], False, self.account_bytes)
            agg.merge_counts(mapped.stage_counts)
            agg.columnar_chunks += mapped.columnar_chunks
            agg.guard_fallbacks += mapped.guard_fallbacks
            out_chunk = mapped.chunk_pairs[0]
            pairs.extend(out_chunk)
            if self.account_bytes:
                resident += sum(sizeof(p) for p in out_chunk)
                stats.note_resident(resident + chunk_bytes)
        agg.outgoing_records = len(pairs)
        elapsed = time.perf_counter() - started
        self._charge_map_stages(
            metrics, agg, max(1, agg.chunks), stage_offset, complexities, elapsed
        )
        return pairs, agg

    def _stream_bridge(
        self,
        pairs: list,
        step: BridgeStep,
        result: MultiprocessResult,
        stage_index: int,
        stats: SpillStats,
    ) -> list:
        """Driver-side fused handoff between streamed jobs."""
        started = time.perf_counter()
        records = step.fn(pairs)
        elapsed = time.perf_counter() - started
        metrics = result.metrics
        stage = metrics.stage(f"{step.name}.{stage_index}")
        stage.records_in = len(pairs)
        stage.records_out = len(records)
        stage.wall_seconds = elapsed
        if self.account_bytes:
            total = sum(sizeof(p) for p in pairs)
            stage.bytes_in = total
            seconds = (total * self.config.scale) / self.config.cluster.network_bw
            stage.seconds += seconds
            metrics.add_seconds(seconds)
            stats.note_resident(total + sum(sizeof(r) for r in records))
        return records

    def _charge_scan_totals(
        self, metrics: JobMetrics, stage, records: int, total_bytes: int
    ) -> None:
        stage.records_in = records
        stage.records_out = records
        if self.account_bytes:
            stage.bytes_in = total_bytes
            stage.bytes_out = total_bytes
            cluster = self.config.cluster
            seconds = (total_bytes * self.config.scale) / (
                cluster.worker_disk_bw * cluster.workers
            )
            stage.seconds += seconds
            metrics.add_seconds(seconds + self.config.framework.startup_s)

    def _charge_spill_reduce(
        self,
        metrics: JobMetrics,
        agg: SpillMapOut,
        records_out: int,
        stage_index: int,
        wall_elapsed: float,
    ) -> None:
        cluster = self.config.cluster
        stage = metrics.stage(f"shuffle.reduce.{stage_index}")
        stage.records_in = agg.outgoing_records
        stage.records_out = records_out
        stage.bytes_shuffled = agg.shuffled_bytes
        stage.wall_seconds = wall_elapsed
        scaled = agg.shuffled_bytes * self.config.scale
        seconds = scaled / cluster.network_bw + cluster.shuffle_latency_s
        seconds += 2 * scaled / (cluster.worker_disk_bw * cluster.workers)
        # Spilled runs pay one extra write + read-back on local disk.
        spilled_scaled = agg.stats.spilled_bytes * self.config.scale
        seconds += 2 * spilled_scaled / (cluster.worker_disk_bw * cluster.workers)
        stage.seconds += seconds
        metrics.add_seconds(seconds)


def _batched(iterator: Iterator[list], count: int) -> Iterator[list[list]]:
    """Group an iterator's items into lists of at most ``count``."""
    batch: list[list] = []
    for item in iterator:
        batch.append(item)
        if len(batch) >= count:
            yield batch
            batch = []
    if batch:
        yield batch
