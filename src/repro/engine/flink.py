"""Flink-flavored DataSet API over the simulated executor.

Models the subset of Flink's batch DataSet API that Casper's code
generator targets: map, flatMap, filter, groupBy + reduce, aggregate, and
join.  Flink pipelines operators between stages (no per-job HDFS
materialization), so its translations land between Spark's and Hadoop's
in the paper's measurements (section 7.2).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from ..errors import EngineError
from .config import EngineConfig
from .core import Executor, lambda_cpu_ns
from .metrics import JobMetrics
from .sizes import dataset_bytes


class SimDataSet:
    """A Flink-style DataSet bound to an ExecutionEnvironment."""

    def __init__(self, env: "SimFlinkEnv", parts: list[list], is_pairs: bool = False):
        self.env = env
        self.parts = parts
        self.is_pairs = is_pairs

    def map(self, fn: Callable[[Any], Any], complexity: int = 2) -> "SimDataSet":
        parts = self.env.executor.run_narrow(
            self.parts, lambda r: (fn(r),), "map", lambda_cpu_ns(complexity)
        )
        return SimDataSet(self.env, parts)

    def flat_map(self, fn: Callable[[Any], Iterable[Any]], complexity: int = 3) -> "SimDataSet":
        parts = self.env.executor.run_narrow(
            self.parts, fn, "map.flat", lambda_cpu_ns(complexity)
        )
        return SimDataSet(self.env, parts)

    def filter(self, fn: Callable[[Any], bool], complexity: int = 2) -> "SimDataSet":
        parts = self.env.executor.run_narrow(
            self.parts, lambda r: (r,) if fn(r) else (), "map.filter", lambda_cpu_ns(complexity)
        )
        return SimDataSet(self.env, parts, is_pairs=self.is_pairs)

    def map_to_pair(self, fn: Callable[[Any], tuple], complexity: int = 2) -> "SimDataSet":
        parts = self.env.executor.run_narrow(
            self.parts, lambda r: (fn(r),), "map.toPair", lambda_cpu_ns(complexity)
        )
        return SimDataSet(self.env, parts, is_pairs=True)

    def flat_map_to_pair(
        self, fn: Callable[[Any], Iterable[tuple]], complexity: int = 3
    ) -> "SimDataSet":
        parts = self.env.executor.run_narrow(
            self.parts, fn, "map.flatToPair", lambda_cpu_ns(complexity)
        )
        return SimDataSet(self.env, parts, is_pairs=True)

    def group_by_key_reduce(
        self, fn: Callable[[Any, Any], Any], use_combiner: bool = True
    ) -> "SimDataSet":
        """groupBy(0).reduce(...) — Flink's keyed reduction."""
        if not self.is_pairs:
            raise EngineError("groupBy requires (key, value) tuples")
        groups = self.env.executor.run_shuffle(
            self.parts, combiner=fn if use_combiner else None
        )
        reduced = self.env.executor.run_reduce_groups(groups, fn)
        from .core import partition_data

        parts = partition_data(reduced, self.env.config.default_partitions)
        return SimDataSet(self.env, parts, is_pairs=True)

    def join(self, other: "SimDataSet") -> "SimDataSet":
        if not (self.is_pairs and other.is_pairs):
            raise EngineError("join requires pair DataSets")
        left = self.env.executor.run_shuffle(self.parts, combiner=None, stage_name="shuffle.join.left")
        right = self.env.executor.run_shuffle(other.parts, combiner=None, stage_name="shuffle.join.right")
        stage = self.env.executor.metrics.stage("join")
        out: list[tuple] = []
        for key, left_values in left.items():
            for lv in left_values:
                for rv in right.get(key, ()):
                    out.append((key, (lv, rv)))
        stage.records_out = len(out)
        self.env.executor.charge_narrow(
            stage, len(out), self.env.config.default_partitions, 100.0
        )
        from .core import partition_data

        parts = partition_data(out, self.env.config.default_partitions)
        return SimDataSet(self.env, parts, is_pairs=True)

    def reduce(self, fn: Callable[[Any, Any], Any]) -> Any:
        records = [r for part in self.parts for r in part]
        if not records:
            raise EngineError("reduce of an empty DataSet")
        stage = self.env.executor.metrics.stage("reduce.action")
        stage.records_in = len(records)
        self.env.executor.charge_narrow(stage, len(records), len(self.parts), 80.0)
        acc = records[0]
        for record in records[1:]:
            acc = fn(acc, record)
        return acc

    def collect(self) -> list:
        records = [r for part in self.parts for r in part]
        self.env.executor.charge_driver_collect(dataset_bytes(records))
        return records


class SimFlinkEnv:
    """Mirrors Flink's ExecutionEnvironment."""

    def __init__(self, config: Optional[EngineConfig] = None):
        base = config or EngineConfig()
        if base.framework.name != "flink":
            base = base.with_framework("flink")
        self.config = base
        self.executor = Executor(self.config)

    @property
    def metrics(self) -> JobMetrics:
        return self.executor.metrics

    def from_collection(self, data: list, partitions: Optional[int] = None) -> SimDataSet:
        parts = self.executor.run_scan(
            list(data), partitions or self.config.default_partitions
        )
        return SimDataSet(self, parts)

    def reset_metrics(self) -> None:
        self.executor = Executor(self.config)
