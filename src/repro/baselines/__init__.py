"""Comparator baselines: MOLD-style rules, mini-SparkSQL, manual code."""

from .joins import JoinResult, estimate_join_order, run_three_way_join
from .manual import (
    ManualResult,
    manual_histogram3d,
    manual_linear_regression,
    manual_logistic_regression,
    manual_pagerank,
    manual_string_match,
    manual_wikipedia_pagecount,
    manual_word_count,
)
from .mold import (
    MOLD_OOM,
    MOLD_UNTRANSLATED,
    MoldResult,
    mold_linear_regression,
    mold_string_match,
    mold_word_count,
)
from .sparksql import (
    SqlResult,
    sparksql_q1,
    sparksql_q6,
    sparksql_q15,
    sparksql_q17,
)

__all__ = [
    "JoinResult",
    "MOLD_OOM",
    "MOLD_UNTRANSLATED",
    "ManualResult",
    "MoldResult",
    "SqlResult",
    "estimate_join_order",
    "manual_histogram3d",
    "manual_linear_regression",
    "manual_logistic_regression",
    "manual_pagerank",
    "manual_string_match",
    "manual_wikipedia_pagecount",
    "manual_word_count",
    "mold_linear_regression",
    "mold_string_match",
    "mold_word_count",
    "run_three_way_join",
    "sparksql_q1",
    "sparksql_q6",
    "sparksql_q15",
    "sparksql_q17",
]
