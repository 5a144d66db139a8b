"""Benchmark workloads: data generators and the seven evaluation suites."""

from . import datagen
from .registry import (
    Benchmark,
    all_benchmarks,
    get_benchmark,
    register,
    suite_benchmarks,
    suites,
)
from .runner import (
    compile_benchmark,
    run_benchmark,
    run_benchmark_graph,
)

__all__ = [
    "Benchmark",
    "all_benchmarks",
    "compile_benchmark",
    "datagen",
    "get_benchmark",
    "register",
    "run_benchmark",
    "run_benchmark_graph",
    "suite_benchmarks",
    "suites",
]
