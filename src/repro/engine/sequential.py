"""Sequential-baseline runner: simulated single-core execution time.

The paper compares translated benchmarks against their original
sequential Java implementations.  We run the mini-Java interpreter on the
(scaled-down) dataset, measure the dynamic operation count per record,
and extrapolate single-core wall time from the operation rate and the
single-disk scan bandwidth of the cluster model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..lang import ast_nodes as ast
from ..lang.interpreter import Interpreter
from .config import ClusterConfig
from .sizes import dataset_bytes


@dataclass
class SequentialResult:
    """Outcome of a simulated sequential run."""

    result: Any
    simulated_seconds: float
    operations: int
    records: int
    bytes_read: int


def run_sequential(
    program: ast.Program,
    function: str,
    args: list[Any],
    data_arg_indexes: Optional[list[int]] = None,
    cluster: Optional[ClusterConfig] = None,
    scale: float = 1.0,
) -> SequentialResult:
    """Run a sequential benchmark and simulate its single-core runtime.

    ``data_arg_indexes`` marks which arguments are the input datasets (for
    byte/record accounting); defaults to every list argument.
    """
    cluster = cluster or ClusterConfig()
    interp = Interpreter(program)
    result = interp.call_function(function, args)

    if data_arg_indexes is None:
        data_arg_indexes = [
            i for i, arg in enumerate(args) if isinstance(arg, list)
        ]
    records = 0
    bytes_read = 0
    for index in data_arg_indexes:
        dataset = args[index]
        if isinstance(dataset, list):
            records += len(dataset)
            bytes_read += dataset_bytes(dataset)

    operations = interp.counters.total
    cpu_seconds = operations * scale * cluster.seq_op_ns * 1e-9
    scan_seconds = (bytes_read * scale) / cluster.seq_disk_bw
    return SequentialResult(
        result=result,
        simulated_seconds=cpu_seconds + scan_seconds,
        operations=operations,
        records=records,
        bytes_read=bytes_read,
    )
