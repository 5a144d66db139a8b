"""Spark-flavored RDD API over the simulated executor.

Mirrors the subset of the JavaRDD / JavaPairRDD API that Casper's code
generator targets (paper Appendix C): map, flatMap, mapToPair, filter,
mapValues, reduceByKey, groupByKey, reduce, join, collect, count, plus
broadcast variables and a first-k sample.  The hand-written baselines
are written against it; translated programs are priced as Spark jobs
through the same executor stages instead (:func:`repro.engine.core.price`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from ..errors import EngineError
from .config import DEFAULT_PARTITIONS, EngineConfig
from .core import Executor, lambda_cpu_ns
from .metrics import JobMetrics
from .sizes import dataset_bytes, pairs_bytes


@dataclass
class Broadcast:
    """A broadcast variable (read-only closure capture)."""

    value: Any


class SimRDD:
    """A partitioned dataset; transformations account simulated time."""

    def __init__(self, context: "SimSparkContext", parts: list[list], is_pairs: bool = False):
        self.context = context
        self.parts = parts
        self.is_pairs = is_pairs

    # ------------------------------------------------------------------
    # Narrow transformations

    def map(self, fn: Callable[[Any], Any], complexity: int = 2) -> "SimRDD":
        parts = self.context.executor.run_narrow(
            self.parts, lambda r: (fn(r),), "map", lambda_cpu_ns(complexity)
        )
        return SimRDD(self.context, parts)

    def flat_map(self, fn: Callable[[Any], Iterable[Any]], complexity: int = 3) -> "SimRDD":
        parts = self.context.executor.run_narrow(
            self.parts, fn, "map.flat", lambda_cpu_ns(complexity)
        )
        return SimRDD(self.context, parts)

    def filter(self, fn: Callable[[Any], bool], complexity: int = 2) -> "SimRDD":
        parts = self.context.executor.run_narrow(
            self.parts,
            lambda r: (r,) if fn(r) else (),
            "map.filter",
            lambda_cpu_ns(complexity),
        )
        return SimRDD(self.context, parts, is_pairs=self.is_pairs)

    def map_to_pair(self, fn: Callable[[Any], tuple], complexity: int = 2) -> "SimRDD":
        parts = self.context.executor.run_narrow(
            self.parts, lambda r: (fn(r),), "map.toPair", lambda_cpu_ns(complexity)
        )
        return SimRDD(self.context, parts, is_pairs=True)

    def flat_map_to_pair(
        self, fn: Callable[[Any], Iterable[tuple]], complexity: int = 3
    ) -> "SimRDD":
        parts = self.context.executor.run_narrow(
            self.parts, fn, "map.flatToPair", lambda_cpu_ns(complexity)
        )
        return SimRDD(self.context, parts, is_pairs=True)

    def map_values(self, fn: Callable[[Any], Any], complexity: int = 2) -> "SimRDD":
        self._require_pairs("mapValues")
        parts = self.context.executor.run_narrow(
            self.parts,
            lambda kv: ((kv[0], fn(kv[1])),),
            "map.values",
            lambda_cpu_ns(complexity),
        )
        return SimRDD(self.context, parts, is_pairs=True)

    def zip_with_index(self) -> "SimRDD":
        """(record, index) pairs — the pre-pass MOLD inserts (section 7.2)."""
        indexed: list[list] = []
        counter = 0
        for part in self.parts:
            out = []
            for record in part:
                out.append((record, counter))
                counter += 1
            indexed.append(out)
        # zipWithIndex triggers an extra pass over the data.
        parts = self.context.executor.run_narrow(
            indexed, lambda r: (r,), "map.zipWithIndex", lambda_cpu_ns(1)
        )
        return SimRDD(self.context, parts, is_pairs=True)

    def cache(self) -> "SimRDD":
        """Marks the RDD cached; re-scans become free for iterative jobs."""
        self._cached = True
        return self

    # ------------------------------------------------------------------
    # Shuffle transformations

    def reduce_by_key(self, fn: Callable[[Any, Any], Any], complexity: int = 2) -> "SimRDD":
        """Shuffle with map-side combiners (requires commutative-assoc λr)."""
        self._require_pairs("reduceByKey")
        groups = self.context.executor.run_shuffle(self.parts, combiner=fn)
        reduced = self.context.executor.run_reduce_groups(groups, fn)
        parts = self.context.repartition_pairs(reduced)
        return SimRDD(self.context, parts, is_pairs=True)

    def group_by_key(self) -> "SimRDD":
        """Shuffle without combiners (safe for non-commutative λr)."""
        self._require_pairs("groupByKey")
        groups = self.context.executor.run_shuffle(self.parts, combiner=None)
        grouped = [(k, list(v)) for k, v in groups.items()]
        parts = self.context.repartition_pairs(grouped)
        return SimRDD(self.context, parts, is_pairs=True)

    def join(self, other: "SimRDD") -> "SimRDD":
        """Inner join by key: (k, (v1, v2)) for every matching pair."""
        self._require_pairs("join")
        other._require_pairs("join")
        left = self.context.executor.run_shuffle(self.parts, combiner=None, stage_name="shuffle.join.left")
        right = self.context.executor.run_shuffle(other.parts, combiner=None, stage_name="shuffle.join.right")
        stage = self.context.executor.metrics.stage("join")
        out: list[tuple] = []
        records = 0
        for key, left_values in left.items():
            right_values = right.get(key)
            if not right_values:
                continue
            for lv in left_values:
                for rv in right_values:
                    out.append((key, (lv, rv)))
                    records += 1
        stage.records_out = records
        stage.bytes_out = pairs_bytes(out)
        self.context.executor.charge_narrow(stage, records, DEFAULT_PARTITIONS, 100.0)
        parts = self.context.repartition_pairs(out)
        return SimRDD(self.context, parts, is_pairs=True)

    # ------------------------------------------------------------------
    # Actions

    def reduce(self, fn: Callable[[Any, Any], Any]) -> Any:
        records = self.collect_unaccounted()
        if not records:
            raise EngineError("reduce of an empty RDD")
        stage = self.context.executor.metrics.stage("reduce.action")
        stage.records_in = len(records)
        self.context.executor.charge_narrow(stage, len(records), len(self.parts), 80.0)
        acc = records[0]
        for record in records[1:]:
            acc = fn(acc, record)
        return acc

    def collect(self) -> list:
        records = self.collect_unaccounted()
        self.context.executor.charge_driver_collect(dataset_bytes(records))
        return records

    def collect_as_map(self) -> dict:
        self._require_pairs("collectAsMap")
        return dict(self.collect())

    def count(self) -> int:
        stage = self.context.executor.metrics.stage("count")
        total = sum(len(p) for p in self.parts)
        stage.records_in = total
        self.context.executor.charge_narrow(stage, total, len(self.parts), 10.0)
        return total

    def take(self, k: int) -> list:
        """First-k sample; used by the runtime monitor (section 5.2).

        Reads only the first partition(s) — cheap by construction.
        """
        out: list = []
        for part in self.parts:
            for record in part:
                out.append(record)
                if len(out) >= k:
                    return out
        return out

    def collect_unaccounted(self) -> list:
        return [record for part in self.parts for record in part]

    def _require_pairs(self, op: str) -> None:
        if not self.is_pairs:
            raise EngineError(f"{op} requires a pair RDD (call mapToPair first)")


class SimSparkContext:
    """Entry point mirroring JavaSparkContext for the simulated cluster."""

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
        self.executor = Executor(self.config)

    @property
    def metrics(self) -> JobMetrics:
        return self.executor.metrics

    def parallelize(self, data: list, partitions: Optional[int] = None) -> SimRDD:
        parts = self.executor.run_scan(
            list(data), partitions or DEFAULT_PARTITIONS
        )
        return SimRDD(self, parts)

    def broadcast(self, value: Any) -> Broadcast:
        return Broadcast(value)

    def repartition_pairs(self, pairs: list) -> list[list]:
        from .core import partition_data

        return partition_data(pairs, DEFAULT_PARTITIONS)
