"""Code generation from verified summaries to the simulated backends."""

from .base import (
    GeneratedProgram,
    bind_outputs,
    prepare_globals,
    record_env,
    view_records,
)
from .glue import AdaptiveProgram, build_adaptive_program
from .render import (
    generated_loc,
    render,
    render_expr,
    render_flink,
    render_hadoop,
    render_spark,
)

__all__ = [
    "AdaptiveProgram",
    "GeneratedProgram",
    "bind_outputs",
    "build_adaptive_program",
    "generated_loc",
    "prepare_globals",
    "record_env",
    "render",
    "render_expr",
    "render_flink",
    "render_hadoop",
    "render_spark",
    "view_records",
]
