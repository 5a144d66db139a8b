"""Simulated distributed MapReduce substrate.

Replaces the paper's AWS Spark/Hadoop/Flink cluster: lambdas really run
over partitioned Python data (results are exact) while wall time is
simulated from record counts, byte volumes, parallel waves, and the
framework profiles.  See DESIGN.md for the substitution rationale.
"""

from .config import (
    ClusterConfig,
    EngineConfig,
    FLINK,
    FrameworkProfile,
    HADOOP,
    MULTIPROCESS,
    PROFILES,
    SPARK,
)
from .core import Executor, lambda_cpu_ns, partition_data
from .flink import SimDataSet, SimFlinkEnv
from .hadoop import SimHadoopJob, SimHadoopPipeline
from .metrics import JobMetrics, StageMetrics
from .multiprocess import (
    MapStep,
    MultiprocessEngine,
    MultiprocessResult,
    ReduceStep,
    default_process_count,
)
from .sequential import SequentialResult, run_sequential
from .sizes import dataset_bytes, pairs_bytes, sizeof, sizeof_kind, sizeof_pair
from .source import (
    Dataset,
    GeneratorSource,
    JsonlSource,
    ListSource,
    TextSource,
    as_dataset,
)
from .spill import SpillStats, SpillWriter, merge_partition, partition_of
from .spark import Broadcast, SimRDD, SimSparkContext

__all__ = [
    "Broadcast",
    "ClusterConfig",
    "Dataset",
    "EngineConfig",
    "Executor",
    "FLINK",
    "FrameworkProfile",
    "GeneratorSource",
    "HADOOP",
    "JobMetrics",
    "JsonlSource",
    "ListSource",
    "MULTIPROCESS",
    "MapStep",
    "MultiprocessEngine",
    "MultiprocessResult",
    "PROFILES",
    "ReduceStep",
    "SPARK",
    "SequentialResult",
    "SimDataSet",
    "SimFlinkEnv",
    "SimHadoopJob",
    "SimHadoopPipeline",
    "SimRDD",
    "SimSparkContext",
    "SpillStats",
    "SpillWriter",
    "StageMetrics",
    "TextSource",
    "as_dataset",
    "dataset_bytes",
    "default_process_count",
    "lambda_cpu_ns",
    "merge_partition",
    "pairs_bytes",
    "partition_data",
    "partition_of",
    "run_sequential",
    "sizeof",
    "sizeof_kind",
    "sizeof_pair",
]
