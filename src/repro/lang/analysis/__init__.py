"""Program analyses over the mini-Java AST (Casper's program analyzer).

Fragment identification and analysis, dataset views, joins, liveness,
dataflow, desugaring and the declared types of a function's variables.
"""

from .dataflow import DataflowEdge, ProgramDataflow, analyze_dataflow
from .fragments import (
    CodeFragment,
    FragmentAnalysis,
    FragmentFeatures,
    FragmentFingerprint,
    analyze_fragment,
    fingerprint_fragment,
    identify_fragments,
    live_after_fragment,
)
from .joins import JoinInfo, JoinLevel, JoinSide, extract_join_info
from .liveness import expr_defs, expr_uses, live_before, stmt_defs, stmt_uses
from .loops import DatasetField, DatasetView, extract_dataset_view
from .normalize import (
    desugar_expr,
    desugar_stmt,
    outermost_loops,
)
from .scan import ScanResult, scan_fragment
from .typecheck import TypeEnv, build_type_env

__all__ = [
    "CodeFragment",
    "DataflowEdge",
    "DatasetField",
    "DatasetView",
    "FragmentAnalysis",
    "FragmentFeatures",
    "FragmentFingerprint",
    "JoinInfo",
    "JoinLevel",
    "JoinSide",
    "ProgramDataflow",
    "ScanResult",
    "TypeEnv",
    "analyze_dataflow",
    "extract_join_info",
    "analyze_fragment",
    "build_type_env",
    "desugar_expr",
    "desugar_stmt",
    "expr_defs",
    "expr_uses",
    "extract_dataset_view",
    "fingerprint_fragment",
    "identify_fragments",
    "live_after_fragment",
    "live_before",
    "outermost_loops",
    "scan_fragment",
    "stmt_defs",
    "stmt_uses",
]
