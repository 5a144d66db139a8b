"""Execution metrics for MapReduce jobs.

These are the quantities the paper's evaluation reports: bytes emitted in
the map stage, bytes shuffled across the network (Table 4 / Appendix E.3),
and simulated wall-clock seconds (Figures 7-9).

The real local engine also records *real* wall-clock seconds
(``wall_seconds``) alongside the simulated-time accounting, so the
execution planner's predictions can be validated against measured
reality.  Priced Spark/Hadoop/Flink jobs (:func:`repro.engine.core.price`)
and the Spark-like RDD API leave ``wall_seconds`` at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class StageMetrics:
    """One pipeline stage's accounting."""

    name: str
    records_in: int = 0
    records_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    bytes_shuffled: int = 0
    seconds: float = 0.0
    wall_seconds: float = 0.0


@dataclass
class JobMetrics:
    """Whole-job accounting, accumulated across stages."""

    stages: list[StageMetrics] = field(default_factory=list)
    simulated_seconds: float = 0.0
    wall_seconds: float = 0.0

    def stage(self, name: str) -> StageMetrics:
        metrics = StageMetrics(name=name)
        self.stages.append(metrics)
        return metrics

    def last_stage(self, name: str) -> StageMetrics:
        """The most recent stage recorded under ``name``; KeyError if none."""
        for metrics in reversed(self.stages):
            if metrics.name == name:
                return metrics
        raise KeyError(name)

    @property
    def bytes_emitted(self) -> int:
        """Total bytes produced by map-side stages (paper Table 4)."""
        return sum(s.bytes_out for s in self.stages if s.name.startswith("map"))

    @property
    def bytes_shuffled(self) -> int:
        return sum(s.bytes_shuffled for s in self.stages)

    def add_seconds(self, seconds: float) -> None:
        self.simulated_seconds += seconds

    def add_wall_seconds(self, seconds: float) -> None:
        self.wall_seconds += seconds

    def merge(self, other: "JobMetrics") -> None:
        self.stages.extend(other.stages)
        self.simulated_seconds += other.simulated_seconds
        self.wall_seconds += other.wall_seconds

    def summary(self) -> dict:
        return {
            "simulated_seconds": round(self.simulated_seconds, 3),
            "wall_seconds": round(self.wall_seconds, 6),
            "bytes_emitted": self.bytes_emitted,
            "bytes_shuffled": self.bytes_shuffled,
            "stages": len(self.stages),
        }
