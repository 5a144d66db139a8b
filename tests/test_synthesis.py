"""Tests for synthesis: grammar, classes, enumerator, CEGIS, search."""

import pytest

from repro.synthesis import (
    CandidateEnumerator,
    GrammarBuilder,
    SearchConfig,
    find_summaries,
    generate_classes,
    harvest_paths,
    monolithic_class,
    reduce_lambda_pool,
)
from repro.ir.nodes import MapStage, ReduceStage
from repro.verification.algebra import normalize, term_key
from tests.conftest import analysis_of


class TestGrammarClasses:
    def test_hierarchy_is_monotone(self, sum_analysis):
        classes = generate_classes(sum_analysis)
        for earlier, later in zip(classes, classes[1:]):
            assert later.subsumes(earlier)

    def test_monolithic_subsumes_all(self, sum_analysis):
        big = monolithic_class(sum_analysis)
        for cls in generate_classes(sum_analysis):
            assert big.subsumes(cls)

    def test_first_class_is_map_only(self, sum_analysis):
        classes = generate_classes(sum_analysis)
        assert classes[0].shapes == ("m",)
        assert classes[0].max_emits == 1


class TestGrammarGeneration:
    def test_pools_use_fragment_operators(self, q6_analysis):
        paths = harvest_paths(q6_analysis)
        pools = GrammarBuilder(q6_analysis, generate_classes(q6_analysis)[1], paths).build()
        # The Q6 guard and its value expression are harvested.
        assert pools.harvested_boolean
        value_keys = {term_key(normalize(e)) for e in pools.harvested_numeric}
        from repro.ir.builder import mul, var

        expected = term_key(normalize(mul(var("l_extendedprice"), var("l_discount"))))
        assert expected in value_keys

    def test_pools_include_scan_constants(self, q6_analysis):
        pools = GrammarBuilder(q6_analysis, generate_classes(q6_analysis)[1]).build()
        from repro.ir.nodes import Const

        values = {e.value for e in pools.numeric if isinstance(e, Const)}
        assert 0.05 in values and 0.07 in values

    def test_reduce_pool_follows_operators(self):
        lambdas = reduce_lambda_pool("int", {"+", "<"}, set())
        bodies = {str(l.body) for l in lambdas}
        assert any("+" in b for b in bodies)
        assert any("min" in b for b in bodies)

    def test_boolean_reduce_pool(self):
        lambdas = reduce_lambda_pool("boolean", set(), set())
        assert len(lambdas) == 2  # || and &&

    def test_harvest_paths_for_nested_loop(self, rwm_analysis):
        paths = harvest_paths(rwm_analysis)
        assert paths  # inner fold + finalizer paths


class TestEnumerator:
    def test_scalar_candidates_have_reduce_stage(self, sum_analysis):
        pools = GrammarBuilder(
            sum_analysis, generate_classes(sum_analysis)[1], harvest_paths(sum_analysis)
        ).build()
        enum = CandidateEnumerator(sum_analysis, generate_classes(sum_analysis)[1], pools)
        candidates = list(enum.candidates())[:10]
        assert candidates
        for candidate in candidates:
            kinds = [type(s) for s in candidate.pipeline.stages]
            assert kinds == [MapStage, ReduceStage]

    def test_candidates_are_unique(self, sum_analysis):
        grammar_class = generate_classes(sum_analysis)[1]
        pools = GrammarBuilder(sum_analysis, grammar_class, harvest_paths(sum_analysis)).build()
        enum = CandidateEnumerator(sum_analysis, grammar_class, pools)
        seen = list(enum.candidates())
        assert len({hash(c) for c in seen}) == len(seen)

    def test_part_filter_prunes(self, sum_analysis):
        grammar_class = generate_classes(sum_analysis)[1]
        pools = GrammarBuilder(sum_analysis, grammar_class, harvest_paths(sum_analysis)).build()
        unfiltered = len(list(
            CandidateEnumerator(sum_analysis, grammar_class, pools).candidates()
        ))
        from repro.synthesis.cegis import PartEvaluator
        from repro.verification.bounded import BoundedChecker

        checker = BoundedChecker(sum_analysis)
        part_filter = PartEvaluator(sum_analysis, checker.states[:6])
        filtered = len(list(
            CandidateEnumerator(
                sum_analysis, grammar_class, pools, part_filter
            ).candidates()
        ))
        assert filtered < unfiltered


class TestSearch:
    def test_sum_synthesizes_and_proves(self, sum_search):
        assert sum_search.translated
        assert sum_search.summaries[0].proof.status == "proved"

    def test_rwm_found_in_third_class(self, rwm_search):
        # Row-wise mean needs map→reduce→map: the search reaches G3
        # exactly as Fig. 6 illustrates.
        assert rwm_search.translated
        assert rwm_search.final_class == "G3"
        assert rwm_search.summaries[0].summary.operation_count == 3

    def test_wordcount_summary_shape(self, wordcount_search):
        assert wordcount_search.translated
        s = wordcount_search.summaries[0].summary
        assert s.operation_count == 2
        assert s.outputs[0].container == "map"

    def test_search_blocks_failed_candidates(self, max_analysis):
        result = find_summaries(max_analysis)
        assert result.translated
        # Nothing in Δ may equal anything that was rejected: all summaries
        # verified.
        for vs in result.summaries:
            assert vs.proof.status in ("proved", "unknown")

    def test_incremental_vs_exhaustive_counts(self, sum_analysis):
        incremental = find_summaries(sum_analysis, SearchConfig(incremental_grammar=True))
        exhaustive = find_summaries(
            sum_analysis,
            SearchConfig(
                incremental_grammar=False,
                exhaustive=True,
                timeout_seconds=60,
            ),
        )
        assert incremental.translated and exhaustive.translated
        # The Table 3 contrast appears on richer benchmarks (see
        # benchmarks/test_table3_incremental_grammar.py); for the tiny sum
        # space both modes succeed, with exhaustive searching one big class.
        assert exhaustive.classes_searched == 1
        assert incremental.classes_searched >= 2

    def test_untranslatable_fragment_fails_cleanly(self):
        analysis = analysis_of(
            """
            double median(double[] x, int n) {
              double best = 0;
              for (int i = 0; i < n; i++) {
                int rank = 0;
                for (int j = 0; j < n; j++) {
                  if (x[j] < x[i]) rank = rank + 1;
                }
                if (rank == n / 2) best = x[i];
              }
              return best;
            }
            """
        )
        result = find_summaries(analysis, SearchConfig(timeout_seconds=30))
        assert not result.translated
        assert result.failure_reason

    def test_search_reports_statistics(self, rwm_search):
        assert rwm_search.candidates_checked >= 1
        assert rwm_search.elapsed_seconds > 0
        assert rwm_search.classes_searched >= 3
