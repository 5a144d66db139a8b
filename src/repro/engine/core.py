"""Core executor of the simulated MapReduce substrate.

Time is simulated from record counts, byte volumes, and the
cluster/framework model — the quantities that determine distributed
performance (data movement, parallel waves, startup).  One
:class:`Executor` charges it for two callers: :func:`price`, which
replays a real local run's counters as a Spark, Hadoop or Flink job (a
translated program runs once; no lambda runs again), and the Spark-like
RDD API of the hand-written baselines (:mod:`repro.engine.spark`), whose
``run_*`` operations execute the lambdas over partitioned Python data
and charge what they counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

from ..errors import EngineError
from .config import DEFAULT_PARTITIONS, EngineConfig
from .metrics import JobMetrics, StageMetrics
from .sizes import TUPLE_HEADER, dataset_bytes, pairs_bytes

if TYPE_CHECKING:
    from .multiprocess import MultiprocessResult


def partition_data(data: Sequence[Any], partitions: int) -> list:
    """Split records into roughly equal partitions (block partitioning);
    an empty input is one empty partition."""
    if partitions <= 0:
        raise EngineError("partition count must be positive")
    n = len(data)
    size = max(1, math.ceil(n / partitions)) if n else 1
    chunks = [data[i : i + size] for i in range(0, n, size)]
    return chunks or [[]]


@dataclass
class Executor:
    """Accounts simulated time and metrics for one job."""

    config: EngineConfig
    metrics: JobMetrics = field(default_factory=JobMetrics)
    _started: bool = False

    # ------------------------------------------------------------------
    # Time primitives

    def _ensure_startup(self) -> None:
        if not self._started:
            self._started = True
            self.metrics.add_seconds(self.config.framework.startup_s)

    def _parallel_seconds(self, total_cpu_s: float, num_tasks: int) -> float:
        slots = self.config.cluster.total_slots
        effective = max(1, min(num_tasks, slots))
        waves = math.ceil(max(1, num_tasks) / slots)
        return total_cpu_s / effective + waves * 0.02

    def charge_scan(self, stage: StageMetrics, total_bytes: int) -> None:
        """Reading input from distributed storage."""
        cluster = self.config.cluster
        scaled = total_bytes * self.config.scale
        seconds = scaled / (cluster.worker_disk_bw * cluster.workers)
        stage.seconds += seconds
        self.metrics.add_seconds(seconds)

    def charge_narrow(
        self, stage: StageMetrics, records: int, num_tasks: int, cpu_ns_per_record: float
    ) -> None:
        """A narrow (no-shuffle) transformation."""
        self._ensure_startup()
        profile = self.config.framework
        scaled_records = records * self.config.scale
        total_cpu = (
            scaled_records * cpu_ns_per_record * profile.record_cpu_factor * 1e-9
        )
        seconds = self._parallel_seconds(total_cpu, num_tasks) + profile.per_stage_overhead_s
        stage.seconds += seconds
        self.metrics.add_seconds(seconds)

    def charge_shuffle(self, stage: StageMetrics, shuffled_bytes: int) -> None:
        """Moving bytes across the network (the reduce-side shuffle).

        All frameworks write shuffle files to local disk and re-read them
        on the reduce side; Hadoop additionally materializes the whole
        inter-job dataset to HDFS (its profile adds that on top).
        """
        cluster = self.config.cluster
        scaled = shuffled_bytes * self.config.scale
        seconds = scaled / cluster.network_bw + cluster.shuffle_latency_s
        seconds += 2 * scaled / (cluster.worker_disk_bw * cluster.workers)
        if self.config.framework.materialize_between_stages:
            # Hadoop persists map output to disk and re-reads it.
            seconds += 2 * scaled / (cluster.worker_disk_bw * cluster.workers)
        stage.bytes_shuffled += shuffled_bytes
        stage.seconds += seconds
        self.metrics.add_seconds(seconds)

    def charge_driver_collect(self, total_bytes: int) -> None:
        seconds = (total_bytes * self.config.scale) / self.config.cluster.network_bw
        self.metrics.add_seconds(seconds)

    # ------------------------------------------------------------------
    # Stages from counts

    def scan(self, records: int, total_bytes: int) -> None:
        """The ``scan`` stage: job startup, then reading the input."""
        stage = self.metrics.stage("scan")
        self._ensure_startup()
        stage.records_in = stage.records_out = records
        stage.bytes_in = stage.bytes_out = total_bytes
        self.charge_scan(stage, total_bytes)

    def stage(
        self, name: str, records_in: int, records_out: int, bytes_out: int,
        num_tasks: int, cpu_ns: float,
    ) -> StageMetrics:
        """One stage's counters and the CPU charge of its input records."""
        stage = self.metrics.stage(name)
        stage.records_in = records_in
        stage.records_out = records_out
        stage.bytes_out = bytes_out
        self.charge_narrow(stage, records_in, num_tasks, cpu_ns)
        return stage

    def narrow(
        self, name: str, records_in: int, records_out: int, bytes_out: int,
        num_tasks: int, cpu_ns: float,
    ) -> None:
        """A map stage: :meth:`stage`, then materializing the emitted
        records — allocation + serialization proportional to their volume
        (Appendix E.3's second hypothesis: emitted bytes correlate with
        runtime)."""
        stage = self.stage(name, records_in, records_out, bytes_out, num_tasks, cpu_ns)
        seconds = (bytes_out * self.config.scale) / self.config.cluster.emit_bw
        stage.seconds += seconds
        self.metrics.add_seconds(seconds)

    def shuffle(
        self, name: str, records_in: int, records_out: int, shuffled_bytes: int,
        num_tasks: int,
    ) -> None:
        """Map-side grouping (and combining) of ``records_in`` pairs into
        ``records_out``, then the network move of ``shuffled_bytes``."""
        stage = self.stage(name, records_in, records_out, 0, num_tasks, 60.0)
        self.charge_shuffle(stage, shuffled_bytes)

    # ------------------------------------------------------------------
    # Dataflow operations over partitioned data

    def run_scan(self, data: list, partitions: int) -> list[list]:
        parts = partition_data(data, partitions)
        self.scan(len(data), dataset_bytes(data))
        return parts

    def run_narrow(
        self,
        parts: list[list],
        fn: Callable[[Any], Iterable[Any]],
        stage_name: str,
        cpu_ns: float = 150.0,
    ) -> list[list]:
        """Apply a record→iterable function partitionwise (flatMap-shape)."""
        out_parts: list[list] = []
        records_in = 0
        bytes_out = 0
        records_out = 0
        for part in parts:
            out: list = []
            for record in part:
                records_in += 1
                out.extend(fn(record))
            records_out += len(out)
            bytes_out += dataset_bytes(out)
            out_parts.append(out)
        self.narrow(stage_name, records_in, records_out, bytes_out, len(parts), cpu_ns)
        return out_parts

    def run_shuffle(
        self,
        parts: list[list],
        combiner: Optional[Callable[[Any, Any], Any]],
        stage_name: str = "shuffle",
    ) -> dict[Any, list]:
        """Group key-value pairs by key, optionally combining map-side.

        Returns key → list of values (combined per partition when a
        combiner is given).  Accounts shuffled bytes after combining —
        exactly the quantity Table 4 contrasts (WC 1 vs WC 2).
        """
        use_combiner = combiner is not None and self.config.framework.combiners
        shuffled: dict[Any, list] = {}
        shuffled_bytes = 0
        records = 0
        for part in parts:
            if use_combiner:
                local: dict[Any, Any] = {}
                for key, value in part:
                    records += 1
                    if key in local:
                        local[key] = combiner(local[key], value)
                    else:
                        local[key] = value
                outgoing: Iterable = local.items()
            else:
                records += len(part)
                outgoing = part
            shuffled_bytes += pairs_bytes(outgoing)
            for key, value in outgoing:
                shuffled.setdefault(key, []).append(value)
        records_out = sum(len(v) for v in shuffled.values())
        self.shuffle(stage_name, records, records_out, shuffled_bytes, len(parts))
        return shuffled

    def run_reduce_groups(
        self,
        groups: dict[Any, list],
        fn: Callable[[Any, Any], Any],
        stage_name: str = "reduce",
    ) -> list[tuple[Any, Any]]:
        out: list[tuple[Any, Any]] = []
        records = 0
        for key, values in groups.items():
            records += len(values)
            acc = values[0]
            for value in values[1:]:
                acc = fn(acc, value)
            out.append((key, acc))
        num_tasks = min(len(groups), DEFAULT_PARTITIONS) or 1
        self.stage(stage_name, records, len(out), pairs_bytes(out), num_tasks, 80.0)
        return out


@dataclass(frozen=True)
class JoinSide:
    """The right relation of one join level, as Spark's shuffle join
    reads it: ``records`` scanned (``bytes``), mapped by a stage of
    ``complexity`` to ``pairs`` emitted (``pairs_bytes``)."""

    records: int
    bytes: int
    pairs: int
    pairs_bytes: int
    complexity: int


def price(
    framework: str, config: EngineConfig, steps: Sequence[Any],
    run: "MultiprocessResult",
) -> JobMetrics:
    """The ``framework``'s simulated metrics for a job the real engine ran.

    ``run`` is one sequential run of ``steps`` (``MapStep`` /
    ``ReduceStep``; a :class:`JoinSide` where a join level probed its
    broadcast index) without a budget, over :data:`DEFAULT_PARTITIONS`
    block partitions — so each chunk's map-side combine saw the records
    a framework map task would.  Its ``scan`` / ``map.i`` /
    ``shuffle.reduce.i`` counters are replayed, in order, through the
    framework's stage sequence:

    * Spark: ``scan``; ``map.flatToPair`` per map; per reduce
      ``shuffle`` + ``reduce`` (``reduceByKey``), or ``shuffle`` +
      ``map.values`` when λr may not combine (``groupByKey`` + ordered
      fold); per join level the right side's ``scan`` and
      ``map.flatToPair``, ``shuffle.join.left``, ``shuffle.join.right``
      and ``join``; the driver collect.
    * Hadoop: ``scan``; ``map`` per map before the reduce; ``shuffle``;
      ``reduce``, which runs any later map; ``output`` back to storage.
    * Flink: ``scan``; ``map.flatToPair`` per map; ``shuffle`` +
      ``reduce``; the driver collect.

    Task counts are the block partitions of each stage's input.  A pair
    shuffles as its emitted ``dataset_bytes`` less one tuple header
    (``pairs_bytes``), which prices a join level's shuffles from the
    emitted bytes the run counted.
    """
    from .multiprocess import ReduceStep

    if config.framework.name != framework:
        config = config.with_framework(framework)
    executor = Executor(config)

    def blocks(records: int) -> int:  # the tasks over a stage's input
        return len(partition_data(range(records), DEFAULT_PARTITIONS))

    hadoop = framework == "hadoop"
    final_bytes = dataset_bytes(run.pairs)
    handoffs = iter(run.reduce_bytes)
    upstream, *ran = run.metrics.stages
    executor.scan(upstream.records_in, upstream.bytes_in)
    tasks = blocks(upstream.records_in)
    reduced = False  # Hadoop's reducer runs the maps after it
    for index, (step, real) in enumerate(zip(steps, ran)):
        if isinstance(step, JoinSide):
            executor.scan(step.records, step.bytes)
            right_tasks = blocks(step.records)
            executor.narrow(
                "map.flatToPair", step.records, step.pairs, step.pairs_bytes,
                right_tasks, lambda_cpu_ns(step.complexity),
            )
            for name, pairs, emitted, parts in (
                ("shuffle.join.left", real.records_in, upstream.bytes_out, tasks),
                ("shuffle.join.right", step.pairs, step.pairs_bytes, right_tasks),
            ):
                shuffled = emitted - TUPLE_HEADER * pairs
                executor.shuffle(name, pairs, pairs, shuffled, parts)
            join = executor.metrics.stage("join")
            join.records_out = real.records_out
            join.bytes_out = real.bytes_out - TUPLE_HEADER * real.records_out
            executor.charge_narrow(join, real.records_out, DEFAULT_PARTITIONS, 100.0)
            tasks = blocks(real.records_out)
        elif not isinstance(step, ReduceStep):
            if not reduced:
                executor.narrow(
                    "map" if hadoop else "map.flatToPair", real.records_in,
                    real.records_out, real.bytes_out, tasks,
                    lambda_cpu_ns(step.complexity),
                )
        else:
            executor.shuffle(
                "shuffle", upstream.records_out, real.records_in,
                real.bytes_shuffled, tasks,
            )
            groups = real.records_out
            tasks = blocks(groups)
            last = index == len(steps) - 1  # else a map consumes the output
            if hadoop:
                executor.stage(
                    "reduce", real.records_in, len(run.pairs), 0,
                    DEFAULT_PARTITIONS, 90.0,
                )
                reduced = True
            elif step.combine or framework == "flink":
                out_bytes = pairs_bytes(run.pairs) if last else next(handoffs)
                executor.stage(
                    "reduce", real.records_in, groups, out_bytes,
                    min(groups, DEFAULT_PARTITIONS) or 1, 80.0,
                )
            else:
                emitted = (
                    final_bytes if last else next(handoffs) + TUPLE_HEADER * groups
                )
                executor.narrow(
                    "map.values", groups, groups, emitted, tasks, lambda_cpu_ns(2)
                )
        upstream = real
    if hadoop:
        output = executor.metrics.stage("output")
        output.bytes_out = final_bytes
        executor.charge_scan(output, final_bytes)
    else:
        executor.charge_driver_collect(final_bytes)
    return executor.metrics


def lambda_cpu_ns(complexity: int) -> float:
    """Per-record CPU estimate from a transformer's expression size."""
    return 60.0 + 15.0 * max(1, complexity)
