"""Core executor of the simulated MapReduce substrate.

The executor really runs user lambdas over partitioned Python data (so
results are exact), while *time* is simulated from record counts, byte
volumes, and the cluster/framework model — the quantities that determine
distributed performance (data movement, parallel waves, startup).

All three API flavors (Spark-like RDDs, Hadoop jobs, Flink DataSets) are
thin layers over this executor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from ..errors import EngineError
from .config import EngineConfig
from .metrics import JobMetrics, StageMetrics
from .sizes import dataset_bytes, pairs_bytes


def partition_data(data: list, partitions: int) -> list[list]:
    """Split records into roughly equal partitions (block partitioning).

    Accepts a :class:`~repro.engine.source.Dataset` too (materialized
    here): the simulated engines model a cluster whose aggregate memory
    holds the data, so in-driver materialization is the faithful
    semantics for them — only the real local engine streams
    (``MultiprocessEngine`` with a ``memory_budget``).
    """
    from .source import Dataset

    if partitions <= 0:
        raise EngineError("partition count must be positive")
    if isinstance(data, Dataset):
        data = data.materialize()
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
    # Dataflow operations over partitioned data

    def run_scan(self, data: list, partitions: int) -> list[list]:
        stage = self.metrics.stage("scan")
        self._ensure_startup()
        parts = partition_data(data, partitions)
        total_bytes = dataset_bytes(data)
        stage.records_in = len(data)
        stage.records_out = len(data)
        stage.bytes_in = total_bytes
        stage.bytes_out = total_bytes
        self.charge_scan(stage, total_bytes)
        return parts

    def run_narrow(
        self,
        parts: list[list],
        fn: Callable[[Any], Iterable[Any]],
        stage_name: str,
        cpu_ns: float = 150.0,
    ) -> list[list]:
        """Apply a record→iterable function partitionwise (flatMap-shape)."""
        stage = self.metrics.stage(stage_name)
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
        stage.records_in = records_in
        stage.records_out = records_out
        stage.bytes_out = bytes_out
        self.charge_narrow(stage, records_in, len(parts), cpu_ns)
        # Materializing emitted records costs allocation + serialization
        # proportional to the emitted volume (Appendix E.3's second
        # hypothesis: emitted bytes correlate with runtime).
        emit_seconds = (bytes_out * self.config.scale) / self.config.cluster.emit_bw
        stage.seconds += emit_seconds
        self.metrics.add_seconds(emit_seconds)
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
        stage = self.metrics.stage(stage_name)
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
        stage.records_in = records
        stage.records_out = sum(len(v) for v in shuffled.values())
        self.charge_narrow(stage, records, len(parts), 60.0)
        self.charge_shuffle(stage, shuffled_bytes)
        return shuffled

    def run_reduce_groups(
        self,
        groups: dict[Any, list],
        fn: Callable[[Any, Any], Any],
        stage_name: str = "reduce",
    ) -> list[tuple[Any, Any]]:
        stage = self.metrics.stage(stage_name)
        out: list[tuple[Any, Any]] = []
        records = 0
        for key, values in groups.items():
            records += len(values)
            acc = values[0]
            for value in values[1:]:
                acc = fn(acc, value)
            out.append((key, acc))
        stage.records_in = records
        stage.records_out = len(out)
        stage.bytes_out = pairs_bytes(out)
        num_tasks = min(len(groups), self.config.default_partitions) or 1
        self.charge_narrow(stage, records, num_tasks, 80.0)
        return out


def lambda_cpu_ns(complexity: int) -> float:
    """Per-record CPU estimate from a transformer's expression size."""
    return 60.0 + 15.0 * max(1, complexity)
