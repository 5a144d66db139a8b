"""The MapReduce substrate: one real engine, one cluster cost model.

Replaces the paper's AWS Spark/Hadoop/Flink cluster: translated programs
run on the real local engine (in-process or over a worker pool), whose
counters are priced as each framework's job (:func:`.core.price`); the
Spark-like RDD API of the hand-written baselines charges the same model.
See DESIGN.md for the substitution rationale.
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
