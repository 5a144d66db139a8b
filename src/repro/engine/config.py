"""Cluster and framework configuration for the simulated MapReduce engine.

The defaults model the paper's testbed: an AWS cluster of 10 m3.2xlarge
instances (1 master + 9 core nodes), each with 8 vCPUs, 30 GB RAM and SSD
storage (section 7).  Time constants are calibrated so that scan-heavy,
embarrassingly-parallel jobs land in the paper's observed 10-50× speedup
band over single-core sequential execution, with shuffle-heavy jobs lower.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class ClusterConfig:
    """Hardware model of the simulated cluster."""

    workers: int = 9
    slots_per_worker: int = 8
    # Sequential baseline: single core reading from local disk.
    seq_disk_bw: float = 100e6  # bytes/s
    seq_op_ns: float = 6.0  # per interpreter operation
    # Distributed: per-worker scan bandwidth (HDFS on SSD) and aggregate
    # cluster shuffle bandwidth.
    worker_disk_bw: float = 300e6  # bytes/s per worker
    network_bw: float = 1.1e9  # bytes/s aggregate
    shuffle_latency_s: float = 0.4
    # Aggregate rate at which map tasks can materialize (allocate +
    # serialize) emitted records; charges jobs whose map stage produces
    # large intermediate volumes (the Table 4 / Appendix E.3 effect).
    emit_bw: float = 12e9  # bytes/s aggregate

    @property
    def total_slots(self) -> int:
        return self.workers * self.slots_per_worker


@dataclass(frozen=True)
class FrameworkProfile:
    """Per-framework execution characteristics."""

    name: str
    startup_s: float
    per_stage_overhead_s: float
    record_cpu_factor: float  # distributed per-record overhead vs sequential
    materialize_between_stages: bool = False  # Hadoop writes HDFS per job
    combiners: bool = True


SPARK = FrameworkProfile(
    name="spark",
    startup_s=2.0,
    per_stage_overhead_s=0.35,
    record_cpu_factor=1.2,
)

HADOOP = FrameworkProfile(
    name="hadoop",
    startup_s=12.0,
    per_stage_overhead_s=3.0,
    record_cpu_factor=2.2,
    materialize_between_stages=True,
)

FLINK = FrameworkProfile(
    name="flink",
    startup_s=2.0,
    per_stage_overhead_s=1.0,
    record_cpu_factor=1.5,
)

# The local multiprocess backend: no cluster startup, negligible per-stage
# overhead — simulated-time accounting stays available so its real
# wall-clock measurements can be compared against the same model the
# cluster profiles use.
MULTIPROCESS = FrameworkProfile(
    name="multiprocess",
    startup_s=0.2,
    per_stage_overhead_s=0.02,
    record_cpu_factor=1.0,
)

PROFILES = {
    "spark": SPARK,
    "hadoop": HADOOP,
    "flink": FLINK,
    "multiprocess": MULTIPROCESS,
}


#: Block partitions of a job's input: the simulated frameworks' task
#: count per stage and the real engine's default chunking.
DEFAULT_PARTITIONS = 72


@dataclass(frozen=True)
class EngineConfig:
    """Full engine configuration: cluster + framework + data scale.

    ``scale`` multiplies record counts and byte volumes when computing
    simulated time — benchmarks run on ~10⁵-record samples standing in for
    the paper's 25-75 GB datasets (DESIGN.md, scaling notes).  Frozen, so
    one instance is shared safely by a session's concurrent jobs.
    """

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    framework: FrameworkProfile = SPARK
    scale: float = 1.0

    def with_framework(self, name: str) -> "EngineConfig":
        return replace(self, framework=PROFILES[name])
