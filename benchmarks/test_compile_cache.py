"""Cold-vs-warm compilation with the content-addressed summary cache.

Summary search dominates compile time (paper Table 2: CEGIS candidates +
theorem-prover calls), and it is fully deterministic — recompiling an
unchanged fragment reproduces the same verified summaries.  This module
measures what the cache buys: compile two benchmarks from each of the
seven suites cold, one after another through one shared cache, then
recompile the same batch warm, and require the warm pass to (a) skip the
search entirely (``candidates_checked == 0`` and ``tp_failures == 0`` on
every cached fragment) and (b) use at least 5× less CPU time.  Each
pass is timed in this process's CPU seconds, not wall seconds, and
starts from a collected heap, so neither another process on the host nor
garbage that earlier tests left is charged to a batch.  A third pass
restarts from a fresh cache instance backed by the same on-disk store,
standing in for a new compiler process reusing a previous run's work.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro import SummaryCache, translate
from repro.workloads import suite_benchmarks, suites

#: Benchmarks per suite in the measured batch — enough to exercise every
#: suite's fragment shapes while keeping the cold pass to a few seconds.
PER_SUITE = 2

#: Acceptance threshold: warm batch compilation must beat cold by this.
MIN_SPEEDUP = 5.0


def _batch():
    """Two fully-translatable benchmarks from each suite, in suite order."""
    picks = []
    for suite in suites():
        taken = 0
        for benchmark in suite_benchmarks(suite):
            if benchmark.expected_translatable and taken < PER_SUITE:
                picks.append(benchmark)
                taken += 1
    return picks


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("summary-cache")


def _compile_all(benchmarks, cache):
    """Compile every benchmark in order through one shared cache;
    returns the results and the CPU seconds they took."""
    # Without this, a full collection owed by earlier tests' garbage
    # lands in whichever batch crosses the threshold: inside the Tier-1
    # run (2-CPU host) one took 0.13 s of a 0.17 s warm batch.
    gc.collect()
    started = time.process_time()
    results = [translate(b.source, b.function, cache=cache) for b in benchmarks]
    return results, time.process_time() - started


@pytest.fixture(scope="module")
def measured(cache_dir, table_printer):
    """Compile the batch cold, warm, and warm-from-disk; print the table."""
    benchmarks = _batch()
    cache = SummaryCache(cache_dir=str(cache_dir))
    cold, cold_seconds = _compile_all(benchmarks, cache)
    warm, warm_seconds = _compile_all(benchmarks, cache)
    # A fresh cache instance over the same directory: only the disk tier
    # survives, as it would across compiler processes.
    disk, disk_seconds = _compile_all(
        benchmarks, SummaryCache(cache_dir=str(cache_dir))
    )

    rows = [
        [
            b.suite,
            b.name,
            c.identified,
            c.translated,
            c.candidates_checked,
            w.cache_hits,
            w.candidates_checked,
        ]
        for b, c, w in zip(benchmarks, cold, warm)
    ]
    rows.append(
        [
            "total",
            f"CPU cold {cold_seconds:.2f}s / warm {warm_seconds:.3f}s "
            f"/ disk {disk_seconds:.3f}s",
            sum(c.identified for c in cold),
            sum(c.translated for c in cold),
            sum(c.candidates_checked for c in cold),
            sum(w.cache_hits for w in warm),
            sum(w.candidates_checked for w in warm),
        ]
    )
    table_printer(
        "Compile cache: cold vs warm batch compilation (7 suites)",
        ["suite", "benchmark", "frags", "transl", "cold cand", "hits", "warm cand"],
        rows,
    )
    return {
        "benchmarks": benchmarks,
        "cold": cold,
        "warm": warm,
        "disk": disk,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "disk_seconds": disk_seconds,
        "cache": cache,
    }


def test_batch_covers_all_seven_suites(measured):
    assert {b.suite for b in measured["benchmarks"]} == set(suites())
    assert all(r.translated == r.identified for r in measured["cold"])


def test_cold_pass_actually_searched(measured):
    # A fragment alpha-equivalent to one compiled earlier in the cold
    # pass may hit that entry; every other fragment did a real search.
    assert sum(r.candidates_checked for r in measured["cold"]) > 0
    for result in measured["cold"]:
        for fragment in result.fragments:
            assert fragment.cache_hit or fragment.search.candidates_checked > 0


def test_warm_fragments_skip_cegis_and_prover_entirely(measured):
    """Acceptance: warm hits report candidates_checked == 0, tp_failures == 0."""
    for cold_result, warm_result in zip(measured["cold"], measured["warm"]):
        assert warm_result.cache_hits == cold_result.identified
        assert warm_result.candidates_checked == 0
        assert warm_result.tp_failures == 0


def test_warm_batch_at_least_5x_faster(measured):
    speedup = measured["cold_seconds"] / max(measured["warm_seconds"], 1e-9)
    assert speedup >= MIN_SPEEDUP, (
        f"warm batch only {speedup:.1f}x less CPU time "
        f"({measured['cold_seconds']:.2f}s -> {measured['warm_seconds']:.3f}s)"
    )


def test_disk_tier_survives_cache_restart(measured):
    speedup = measured["cold_seconds"] / max(measured["disk_seconds"], 1e-9)
    assert speedup >= MIN_SPEEDUP
    for warm_result in measured["disk"]:
        assert warm_result.candidates_checked == 0


def test_warm_results_identical_to_cold(measured):
    for cold_result, warm_result in zip(measured["cold"], measured["warm"]):
        assert warm_result.translated == cold_result.translated
        for cold_frag, warm_frag in zip(
            cold_result.fragments, warm_result.fragments
        ):
            assert [vs.summary for vs in warm_frag.search.summaries] == [
                vs.summary for vs in cold_frag.search.summaries
            ]
            warm_proofs = [vs.proof for vs in warm_frag.search.summaries]
            cold_proofs = [vs.proof for vs in cold_frag.search.summaries]
            for wp, cp in zip(warm_proofs, cold_proofs):
                assert wp.status == cp.status
                assert wp.is_commutative == cp.is_commutative
                assert wp.is_associative == cp.is_associative


def test_batch_matches_sequential_translate(measured, table_printer):
    """Acceptance: the batch's compiles through the shared cache ≡ a
    translate without a cache, fragment by fragment."""
    subset = [
        b
        for b in measured["benchmarks"]
        if b.name in ("ariths_sum", "phoenix_wordcount", "tpch_q6")
    ]
    batch_by_name = {
        b.name: r
        for b, r in zip(measured["benchmarks"], measured["cold"])
    }
    for benchmark in subset:
        sequential = translate(benchmark.source, benchmark.function)
        batched = batch_by_name[benchmark.name]
        assert sequential.identified == batched.identified
        assert sequential.translated == batched.translated
        for sf, bf in zip(sequential.fragments, batched.fragments):
            assert [vs.summary for vs in sf.search.summaries] == [
                vs.summary for vs in bf.search.summaries
            ]
