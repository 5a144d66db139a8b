"""Table 3: incremental grammar generation vs exhaustive search.

The paper's ablation: with the grammar-class hierarchy the search stops at
the first class yielding verified summaries (few, cheap ones); without it,
the synthesizer exhaustively enumerates and verifies the whole space,
producing orders of magnitude more redundant summaries (2 vs 827 for
WordCount etc.) and timing out within 90 minutes for every benchmark.
"""

from __future__ import annotations

import pytest

from repro.lang.analysis import analyze_fragment, identify_fragments
from repro.synthesis import SearchConfig, find_summaries
from repro.workloads import get_benchmark

from conftest import print_table

#: The paper's Table 3 benchmark set (the subset our registry covers).
BENCHMARKS = [
    "phoenix_wordcount",
    "phoenix_string_match",
    "phoenix_linear_regression",
    "biglambda_wikipedia_pagecount",
    "stats_covariance",
    "stats_hadamard",
    "biglambda_select",
]


def _first_analysis(name: str):
    benchmark = get_benchmark(name)
    program = benchmark.parse()
    func = program.function(benchmark.function)
    fragment = identify_fragments(func)[0]
    return analyze_fragment(fragment, program)


@pytest.fixture(scope="module")
def table3():
    rows = []
    for name in BENCHMARKS:
        analysis = _first_analysis(name)
        with_incr = find_summaries(
            analysis, SearchConfig(incremental_grammar=True)
        )
        without_incr = find_summaries(
            analysis,
            SearchConfig(
                incremental_grammar=False,
                exhaustive=True,
                timeout_seconds=45.0,
            ),
        )
        rows.append(
            {
                "benchmark": name,
                "with": len(with_incr.summaries),
                "without": len(without_incr.summaries),
                "without_checked": without_incr.candidates_checked,
                "with_checked": with_incr.candidates_checked,
                "timed_out": without_incr.failure_reason == "synthesis timed out",
            }
        )
    return rows


def test_table3_report(table3):
    print_table(
        "Table 3 — summaries produced with vs without incremental grammars "
        "(paper: e.g. WordCount 2 vs 827; all timed out without)",
        ["Benchmark", "With Incr.", "Without Incr.", "Candidates (w/o)"],
        [
            [
                r["benchmark"],
                r["with"],
                f"{r['without']}{' (timeout)' if r['timed_out'] else ''}",
                r["without_checked"],
            ]
            for r in table3
        ],
    )


def test_incremental_produces_fewer_summaries(table3):
    """The headline contrast: exhaustive search yields redundant extras."""
    assert sum(r["without"] for r in table3) > sum(r["with"] for r in table3)
    strictly_more = [r for r in table3 if r["without"] > r["with"]]
    assert len(strictly_more) >= len(table3) // 2


def test_incremental_checks_fewer_candidates(table3):
    for row in table3:
        assert row["with_checked"] <= row["without_checked"]


def test_benchmark_incremental_search(benchmark):
    analysis = _first_analysis("phoenix_wordcount")
    benchmark.pedantic(
        lambda: find_summaries(analysis, SearchConfig(incremental_grammar=True)),
        rounds=1,
        iterations=1,
    )
