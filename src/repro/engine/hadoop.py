"""Hadoop-flavored MapReduce job API over the simulated executor.

Models the classic ``Mapper`` / ``Combiner`` / ``Reducer`` job structure:
each job reads its input from distributed storage, runs map tasks, spills
and shuffles, runs reduce tasks, and *materializes its output back to
storage* — the chief reason the paper's Hadoop translations average 6.4×
versus Spark's 15.6× (section 7.2).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from .config import EngineConfig
from .core import Executor, lambda_cpu_ns
from .metrics import JobMetrics
from .sizes import dataset_bytes

Mapper = Callable[[Any], Iterable[tuple]]
Reducer = Callable[[Any, list], Iterable[tuple]]
Combiner = Callable[[Any, Any], Any]


class SimHadoopJob:
    """One MapReduce job: mapper, optional combiner, reducer."""

    def __init__(
        self,
        mapper: Mapper,
        reducer: Optional[Reducer] = None,
        combiner: Optional[Combiner] = None,
        mapper_complexity: int = 3,
        config: Optional[EngineConfig] = None,
    ):
        self.mapper = mapper
        self.reducer = reducer
        self.combiner = combiner
        self.mapper_complexity = mapper_complexity
        base = config or EngineConfig()
        if base.framework.name != "hadoop":
            base = base.with_framework("hadoop")
        self.config = base
        self.executor = Executor(self.config)

    @property
    def metrics(self) -> JobMetrics:
        return self.executor.metrics

    def run(self, data: list) -> list[tuple]:
        """Execute the job over input records; returns (key, value) pairs."""
        parts = self.executor.run_scan(
            list(data), self.config.default_partitions
        )
        mapped = self.executor.run_narrow(
            parts, self.mapper, "map", lambda_cpu_ns(self.mapper_complexity)
        )
        if self.reducer is None:
            out = [pair for part in mapped for pair in part]
            self._charge_output(out)
            return out
        groups = self.executor.run_shuffle(mapped, combiner=self.combiner)
        stage = self.executor.metrics.stage("reduce")
        out = []
        records = 0
        for key, values in groups.items():
            records += len(values)
            for pair in self.reducer(key, values):
                out.append(pair)
        stage.records_in = records
        stage.records_out = len(out)
        self.executor.charge_narrow(
            stage, records, self.config.default_partitions, 90.0
        )
        self._charge_output(out)
        return out

    def _charge_output(self, pairs: list[tuple]) -> None:
        """Hadoop writes job output back to HDFS."""
        stage = self.executor.metrics.stage("output")
        total_bytes = dataset_bytes(pairs)
        stage.bytes_out = total_bytes
        self.executor.charge_scan(stage, total_bytes)


class SimHadoopPipeline:
    """A chain of Hadoop jobs (each stage re-reads the previous output)."""

    def __init__(self, jobs: list[SimHadoopJob]):
        self.jobs = jobs
        self.metrics = JobMetrics()

    def run(self, data: list) -> list[tuple]:
        current: list = list(data)
        for job in self.jobs:
            current = job.run(current)
            self.metrics.merge(job.metrics)
        return current
