"""Tests for the staged pass pipeline, fragment fingerprints, and the
content-addressed summary cache (serialization round-trip, alpha-renamed
hits, one cache shared across compiles)."""

import json
from pathlib import Path

import pytest

import repro
from repro import SearchConfig, Session, SummaryCache, translate
from repro.compiler import CasperCompiler
from repro.errors import AnalysisError
from repro.ir.nodes import (
    rename_summary,
    summary_from_data,
    summary_to_data,
)
from repro.lang.analysis.fragments import (
    analyze_fragment,
    fingerprint_fragment,
    identify_fragments,
)
from repro.lang.interpreter import Interpreter
from repro.lang.parser import parse_program
from repro.lang.values import values_equal
from repro.pipeline import (
    CompilationContext,
    PassPipeline,
    default_passes,
)
from repro.pipeline.cache import search_config_key
from repro.verification.prover import proof_from_data, proof_to_data
from repro.workloads.registry import all_benchmarks
from tests.conftest import (
    BLUR_BINDER_NAMED_SOURCE,
    BLUR_LITERAL_CLASH_SOURCE,
    BLUR_SOURCE,
    Q6_SOURCE,
    RWM_SOURCE,
    SUM_SOURCE,
    WORDCOUNT_SOURCE,
    analysis_of,
)

SUM_ALPHA_SOURCE = """
int total(int[] values, int count) {
  int acc = 0;
  for (int k0 = 0; k0 < count; k0++) acc += values[k0];
  return acc;
}
"""

#: A sum whose array is named like the IR's λr binder ``v1``.
BINDER_NAMED_SUM_SOURCE = """
int sum(int[] v1, int n) {
  int total = 0;
  for (int i = 0; i < n; i++) total += v1[i];
  return total;
}
"""


class TestFingerprint:
    def test_identical_fragments_share_digest(self):
        a = fingerprint_fragment(analysis_of(SUM_SOURCE))
        b = fingerprint_fragment(analysis_of(SUM_SOURCE))
        assert a.digest == b.digest

    def test_alpha_equivalent_fragments_share_digest(self):
        a = fingerprint_fragment(analysis_of(SUM_SOURCE))
        b = fingerprint_fragment(analysis_of(SUM_ALPHA_SOURCE))
        assert a.digest is not None
        assert a.digest == b.digest
        assert a.renaming != b.renaming  # different source names, same shape

    def test_semantic_change_changes_digest(self):
        changed = SUM_SOURCE.replace("total = 0", "total = 1")
        assert changed != SUM_SOURCE
        a = fingerprint_fragment(analysis_of(SUM_SOURCE))
        b = fingerprint_fragment(analysis_of(changed))
        assert a.digest != b.digest

    def test_operator_change_changes_digest(self):
        changed = SUM_SOURCE.replace("total += data[i]", "total *= data[i]")
        a = fingerprint_fragment(analysis_of(SUM_SOURCE))
        b = fingerprint_fragment(analysis_of(changed))
        assert a.digest != b.digest

    def test_type_change_changes_digest(self):
        changed = SUM_SOURCE.replace("int[] data", "double[] data").replace(
            "int total", "double total"
        )
        a = fingerprint_fragment(analysis_of(SUM_SOURCE))
        b = fingerprint_fragment(analysis_of(changed))
        assert a.digest != b.digest

    def test_nested_class_field_change_changes_digest(self):
        # Inner is reachable only through Outer's fields; editing it must
        # still invalidate the fingerprint (transitive class closure).
        template = """
        class Inner {{ {field}; }}
        class Outer {{ Inner p; double w; }}
        double total(List<Outer> items) {{
          double t = 0;
          for (Outer o : items) t += o.w;
          return t;
        }}
        """
        a = fingerprint_fragment(
            analysis_of(template.format(field="int x"), "total")
        )
        b = fingerprint_fragment(
            analysis_of(template.format(field="double x"), "total")
        )
        assert a.digest != b.digest

    def test_reserved_variable_name_is_cacheable_and_literal(self):
        # ``v1`` is spelled like a λr binder.  Binders are never renamed,
        # so neither is the variable: it stays out of the renaming and
        # literal in the digest.
        fp = fingerprint_fragment(analysis_of(BINDER_NAMED_SUM_SOURCE))
        assert fp.cacheable and fp.reason is None
        assert "v1" not in fp.renaming
        assert "v1" not in fp.inverse_renaming.values()
        # Its twin with an ordinary array name is a different fragment as
        # far as the cache is concerned ...
        twin = fingerprint_fragment(
            analysis_of(BINDER_NAMED_SUM_SOURCE.replace("v1", "data"))
        )
        assert twin.cacheable and "data" in twin.renaming
        assert twin.digest != fp.digest
        # ... while renaming its ordinary variables still shares one digest.
        renamed = fingerprint_fragment(
            analysis_of(BINDER_NAMED_SUM_SOURCE.replace("total", "acc"))
        )
        assert renamed.digest == fp.digest
        blur = fingerprint_fragment(analysis_of(BLUR_BINDER_NAMED_SOURCE))
        assert blur.cacheable and "k" not in blur.renaming
        assert blur.digest != fingerprint_fragment(analysis_of(BLUR_SOURCE)).digest

    def test_string_literal_colliding_with_variable_not_cacheable(self):
        source = """
        Map<String, Integer> wc(List<String> words) {
          Map<String, Integer> counts = new HashMap<String, Integer>();
          for (String w : words) {
            counts.put("counts", counts.getOrDefault("counts", 0) + 1);
          }
          return counts;
        }
        """
        fp = fingerprint_fragment(analysis_of(source))
        assert not fp.cacheable

    def test_suite_digests_match_golden(self):
        # Generated before binder-named variables became cacheable: every
        # digest that existed then must be byte-identical now, so persisted
        # caches stay warm.  The fragments it lacks were the uncacheable ones.
        golden = json.loads(
            (Path(__file__).parent / "data" / "fingerprints_golden.json").read_text(
                encoding="utf-8"
            )
        )
        got = {}
        for benchmark in all_benchmarks():
            program = benchmark.parse()
            for fragment in identify_fragments(program.function(benchmark.function)):
                try:
                    analysis = analyze_fragment(fragment, program)
                except AnalysisError:
                    continue
                got[f"{benchmark.name} {fragment.id}"] = fingerprint_fragment(analysis)
        assert {key: got[key].digest for key in golden} == golden
        assert all(fp.cacheable for fp in got.values())
        assert sorted(set(got) - set(golden)) == [
            "biglambda_select_sum selectSum#1",
            "phoenix_kmeans kmeansStep#0",
            "phoenix_kmeans kmeansStep#1",
            "phoenix_matrix_multiply matMul#0",
        ]

    def test_inverse_renaming_round_trips(self):
        fp = fingerprint_fragment(analysis_of(SUM_SOURCE))
        for name, canonical in fp.renaming.items():
            assert fp.inverse_renaming[canonical] == name


class TestSerde:
    def test_summary_json_round_trip(self, sum_search):
        for vs in sum_search.summaries:
            data = json.loads(json.dumps(summary_to_data(vs.summary)))
            assert summary_from_data(data) == vs.summary

    def test_wordcount_summary_round_trip(self, wordcount_search):
        for vs in wordcount_search.summaries:
            data = json.loads(json.dumps(summary_to_data(vs.summary)))
            assert summary_from_data(data) == vs.summary

    def test_rwm_summary_round_trip(self, rwm_search):
        for vs in rwm_search.summaries:
            data = json.loads(json.dumps(summary_to_data(vs.summary)))
            assert summary_from_data(data) == vs.summary

    def test_proof_round_trip(self, sum_search):
        proof = sum_search.summaries[0].proof
        back = proof_from_data(json.loads(json.dumps(proof_to_data(proof))))
        assert back.status == proof.status
        assert back.is_commutative == proof.is_commutative
        assert back.is_associative == proof.is_associative
        assert back.obligations == proof.obligations

    def test_rename_then_inverse_is_identity(self, sum_search):
        summary = sum_search.summaries[0].summary
        mapping = {"total": "α·0", "data": "α·1", "n": "α·2", "i": "α·3"}
        inverse = {v: k for k, v in mapping.items()}
        assert rename_summary(rename_summary(summary, mapping), inverse) == summary


class TestSummaryCache:
    def test_warm_hit_skips_search_entirely(self):
        cache = SummaryCache()
        cold = translate(SUM_SOURCE, cache=cache)
        assert cold.candidates_checked > 0 and cold.cache_hits == 0
        warm = translate(SUM_SOURCE, cache=cache)
        assert warm.cache_hits == 1
        assert warm.candidates_checked == 0
        assert warm.tp_failures == 0
        assert warm.translated == cold.translated

    def test_warm_hit_produces_equivalent_program(self):
        cache = SummaryCache()
        translate(Q6_SOURCE, "query6", cache=cache)
        warm = translate(Q6_SOURCE, "query6", cache=cache)
        assert warm.cache_hits == 1
        from repro.workloads import datagen

        items = datagen.lineitems(300, seed=11)
        outputs = warm.fragments[0].program.run({"lineitem": items}).outputs
        expected = Interpreter(parse_program(Q6_SOURCE)).call_function(
            "query6", [items]
        )
        assert values_equal(outputs["revenue"], expected)

    def test_counterexamples_encode_each_distinct_state_once(self, monkeypatch):
        from repro.pipeline import cache as cache_mod
        from repro.verification.bounded import ProgramState

        fingerprint = fingerprint_fragment(analysis_of(SUM_SOURCE))
        distinct = [ProgramState({"data": [i, -i, 0.5], "n": 3}) for i in range(20)]
        twin = ProgramState({"data": [3, -3, 0.5], "n": 3})  # equal to distinct[3]
        # The join search's shape: one state per refuted candidate, mostly
        # repeats of a few objects, in refutation order.
        handed = [distinct[3], *distinct[:10], distinct[3], twin, *distinct[5:]]
        handed.append(distinct[0])
        already = [distinct[12], ProgramState({"data": [], "n": 0})]

        encoded = []
        original = cache_mod._state_value_to_data

        def counting(value):
            encoded.append(value)
            return original(value)

        monkeypatch.setattr(cache_mod, "_state_value_to_data", counting)

        def stored(states):
            """The stored entry, and how many values encoding ``states`` took."""
            cache = SummaryCache()
            cache.store_counterexamples(fingerprint, already)
            before = len(encoded)
            cache.store_counterexamples(fingerprint, states)
            entry = cache._fetch(cache._cex_key(fingerprint))
            return entry["states"], len(encoded) - before

        # The parent algorithm: encode every state, dedupe by scan, cap.
        want = []
        for state in [*already, *handed]:
            item = {
                fingerprint.renaming.get(name, name): original(value)
                for name, value in state.inputs.items()
            }
            if item not in want:
                want.append(item)
        want = want[-cache_mod._MAX_COUNTEREXAMPLES :]

        entry, calls = stored(handed)
        assert entry == want
        # Encoding work follows the distinct objects, not the refutations.
        assert calls == stored([*distinct, twin])[1]

    def test_alpha_equivalent_hit_is_renamed_correctly(self):
        cache = SummaryCache()
        translate(SUM_SOURCE, cache=cache)
        warm = translate(SUM_ALPHA_SOURCE, cache=cache)
        assert warm.cache_hits == 1
        assert warm.candidates_checked == 0
        # The cached summary must run under the *new* variable names.
        outputs = warm.fragments[0].program.run(
            {"values": [5, 6, 7], "count": 3}
        ).outputs
        assert outputs == {"acc": 18}

    def test_binder_named_fragment_round_trips(self, tmp_path):
        cold = translate(
            BINDER_NAMED_SUM_SOURCE, cache=SummaryCache(cache_dir=str(tmp_path))
        )
        assert cold.searches_run == 1 and cold.translated == 1
        warm = translate(
            BINDER_NAMED_SUM_SOURCE, cache=SummaryCache(cache_dir=str(tmp_path))
        )
        assert warm.searches_run == 0 and warm.cache_hits == 1
        assert warm.candidates_checked == 0
        assert [vs.summary for vs in warm.fragments[0].search.summaries] == [
            vs.summary for vs in cold.fragments[0].search.summaries
        ]
        data = [3, -1, 4, 1, -5, 9, 2]
        expected = Interpreter(parse_program(BINDER_NAMED_SUM_SOURCE)).call_function(
            "sum", [data, len(data)]
        )
        outputs = warm.fragments[0].program.run({"v1": data, "n": len(data)}).outputs
        assert outputs == {"total": expected}

    def test_different_search_configs_do_not_share_entries(self):
        cache = SummaryCache()
        exhaustive = SearchConfig(exhaustive=True)
        default = SearchConfig()
        assert search_config_key(exhaustive) != search_config_key(default)
        translate(SUM_SOURCE, cache=cache, search_config=default)
        result = translate(SUM_SOURCE, cache=cache, search_config=exhaustive)
        assert result.cache_hits == 0  # no cross-config reuse

    def test_verification_strength_is_part_of_the_key(self):
        # With accept_bounded_only, 'unknown' proofs are admitted on
        # bounded/extended-domain evidence alone — weaker domains admit
        # different summaries, so they must not share cache entries.
        from repro.verification.bounded import BoundedCheckConfig

        default = SearchConfig()
        weak_states = SearchConfig(extended_states=4)
        weak_domain = SearchConfig(
            bounded_config=BoundedCheckConfig(max_dataset_size=2, int_range=(0, 1))
        )
        keys = {
            search_config_key(default),
            search_config_key(weak_states),
            search_config_key(weak_domain),
        }
        assert len(keys) == 3

    def test_lru_eviction(self):
        cache = SummaryCache(capacity=1)
        translate(SUM_SOURCE, cache=cache)
        translate(WORDCOUNT_SOURCE, cache=cache)  # evicts the sum entry
        assert len(cache) == 1
        result = translate(SUM_SOURCE, cache=cache)
        assert result.cache_hits == 0
        assert cache.stats.evictions >= 1

    def test_disk_store_survives_new_cache_instance(self, tmp_path):
        first = SummaryCache(cache_dir=str(tmp_path))
        translate(SUM_SOURCE, cache=first)
        assert list(tmp_path.glob("*.json"))
        fresh = SummaryCache(cache_dir=str(tmp_path))
        result = translate(SUM_SOURCE, cache=fresh)
        assert result.cache_hits == 1
        assert result.candidates_checked == 0
        assert fresh.stats.disk_hits == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = SummaryCache(cache_dir=str(tmp_path))
        translate(SUM_SOURCE, cache=cache)
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json", encoding="utf-8")
        fresh = SummaryCache(cache_dir=str(tmp_path))
        result = translate(SUM_SOURCE, cache=fresh)
        assert result.translated == 1  # falls back to a clean search
        assert result.cache_hits == 0

    def test_stale_tmp_files_swept_on_open(self, tmp_path):
        # A crash between writing {path}.tmp.{pid}.{thread} and os.replace leaks
        # the tmp file; opening a cache over the directory must sweep
        # orphans whose writer process is gone.
        import subprocess
        import sys

        probe = subprocess.Popen([sys.executable, "-c", "pass"])
        probe.wait()  # a pid guaranteed dead (and reaped)
        orphan = tmp_path / f"entry.json.tmp.{probe.pid}.140230"
        orphan.write_text("{partial", encoding="utf-8")
        unparsable = tmp_path / "entry.json.tmp.garbage"
        unparsable.write_text("{partial", encoding="utf-8")
        keeper = tmp_path / "entry.json"
        keeper.write_text("{}", encoding="utf-8")
        SummaryCache(cache_dir=str(tmp_path))
        assert not orphan.exists()
        assert not unparsable.exists()
        assert keeper.exists()

    def test_live_writer_tmp_file_not_swept(self, tmp_path):
        import os as _os
        import threading

        mine = tmp_path / f"entry.json.tmp.{_os.getpid()}.{threading.get_ident()}"
        mine.write_text("{mid-write", encoding="utf-8")
        SummaryCache(cache_dir=str(tmp_path))
        assert mine.exists()  # this process may still be mid-write
        mine.unlink()

    def test_open_on_missing_cache_dir_is_fine(self, tmp_path):
        cache = SummaryCache(cache_dir=str(tmp_path / "not-created-yet"))
        assert len(cache) == 0

    def test_untranslatable_fragment_not_cached(self):
        cache = SummaryCache()
        translate(BLUR_SOURCE, cache=cache, search_config=SearchConfig(timeout_seconds=20))
        assert cache.stats.stores == 0
        # ... as a summary; the exhausted verdict is remembered instead.
        assert cache.stats.exhausted_stores == 1


def _codes(result):
    return [d.code for d in result.diagnostics]


class TestExhaustedEntries:
    """``neg:`` entries: an exhausted search is remembered, nothing else is."""

    def test_warm_recall_across_cache_instances(self, tmp_path):
        cold_cache = SummaryCache(cache_dir=str(tmp_path))
        cold = translate(BLUR_SOURCE, cache=cold_cache)
        assert cold.searches_run == 1 and _codes(cold) == ["REP205"]
        assert cold_cache.stats.exhausted_stores == 1
        assert len(list(tmp_path.glob("neg_*.json"))) == 1

        warm_cache = SummaryCache(cache_dir=str(tmp_path))
        warm = translate(BLUR_SOURCE, cache=warm_cache)
        assert warm.searches_run == 0 and warm.cache_hits == 0
        assert warm.candidates_checked == 0 and warm.translated == 0
        assert _codes(warm) == ["REP209", "REP205"]
        assert warm.fragments[0].failure_reason == cold.fragments[0].failure_reason
        search = warm.fragments[0].search
        assert search.exhausted_recall and not search.cache_hit
        assert search.failure_code == "REP205"
        assert (search.classes_searched, search.final_class) == (
            cold.fragments[0].search.classes_searched,
            cold.fragments[0].search.final_class,
        )
        stats = warm_cache.stats
        assert (stats.exhausted_hits, stats.exhausted_stores) == (1, 0)
        assert (stats.hits, stats.stores, stats.misses) == (0, 0, 1)

    def test_alpha_equivalent_fragment_recalls(self):
        cache = SummaryCache()
        translate(BLUR_SOURCE, cache=cache)
        renamed = BLUR_SOURCE.replace("prev", "carry").replace("img", "pixels")
        assert translate(renamed, cache=cache).searches_run == 0

    def test_timed_out_search_stores_nothing(self, tmp_path):
        cache = SummaryCache(cache_dir=str(tmp_path))
        config = SearchConfig(timeout_seconds=0)
        result = translate(BLUR_SOURCE, cache=cache, search_config=config)
        assert _codes(result) == ["REP206"]
        assert cache.stats.exhausted_stores == 0
        assert not list(tmp_path.glob("neg_*.json"))
        # The timeout is not part of the key, so nothing may linger for
        # a later, patient search to trip over.
        assert translate(BLUR_SOURCE, cache=cache).searches_run == 1

    def test_checker_construction_failure_stores_nothing(self, monkeypatch):
        import repro.synthesis.search as search_module

        def refuse(*args, **kwargs):
            raise RuntimeError("no states today")

        monkeypatch.setattr(search_module, "BoundedChecker", refuse)
        cache = SummaryCache()
        result = translate(BLUR_SOURCE, cache=cache)
        assert _codes(result) == ["REP208"]
        assert "bounded checker construction failed" in result.fragments[0].failure_reason
        assert cache.stats.exhausted_stores == 0 and len(cache) == 0

    def test_search_strength_is_part_of_the_key(self):
        cache = SummaryCache()
        translate(BLUR_SOURCE, cache=cache)
        weaker = SearchConfig(extended_states=60)
        assert translate(BLUR_SOURCE, cache=cache, search_config=weaker).searches_run == 1
        assert cache.stats.exhausted_stores == 2
        assert translate(BLUR_SOURCE, cache=cache, search_config=weaker).searches_run == 0

    def test_search_space_tag_is_part_of_the_key(self, tmp_path, monkeypatch):
        import repro.pipeline.cache as cache_module

        cache = SummaryCache(cache_dir=str(tmp_path))
        translate(BLUR_SOURCE, cache=cache)
        tag = cache_module.search_space_tag()
        assert tag == cache_module.search_space_tag() and len(tag) == 16
        assert tag in next(tmp_path.glob("neg_*.json")).name
        # A grammar or verifier edit changes the source digest.
        monkeypatch.setattr(cache_module, "search_space_tag", lambda: "edited-grammar")
        assert translate(BLUR_SOURCE, cache=cache).searches_run == 1
        assert len(list(tmp_path.glob("neg_*.json"))) == 2

    @pytest.mark.parametrize(
        "payload", ["{not json", '{"format": 1, "failure_code": "REP2', '{"format": 1}']
    )
    def test_corrupt_entry_is_a_counted_miss_and_removed(self, tmp_path, payload):
        translate(BLUR_SOURCE, cache=SummaryCache(cache_dir=str(tmp_path)))
        (path,) = tmp_path.glob("neg_*.json")
        path.write_text(payload, encoding="utf-8")
        fresh = SummaryCache(cache_dir=str(tmp_path))
        fingerprint = fingerprint_fragment(analysis_of(BLUR_SOURCE))
        assert fresh.lookup_exhausted(fingerprint, SearchConfig()) is None
        assert fresh.stats.corrupt == 1 and fresh.stats.exhausted_hits == 0
        assert not path.exists()
        # The next compile searches and writes a clean replacement.
        assert translate(BLUR_SOURCE, cache=fresh).searches_run == 1
        assert json.loads(path.read_text(encoding="utf-8"))["failure_code"] == "REP205"

    def test_binder_named_fragment_recalls(self, tmp_path):
        cache = SummaryCache(cache_dir=str(tmp_path))
        # The ``i``-named blur's verdict does not answer for the ``k``-named
        # one: the binder-spelled name is part of the digest.
        translate(BLUR_SOURCE, cache=cache)
        cold = translate(BLUR_BINDER_NAMED_SOURCE, cache=cache)
        assert cold.searches_run == 1 and _codes(cold) == ["REP205"]
        assert cache.stats.exhausted_stores == 2

        warm_cache = SummaryCache(cache_dir=str(tmp_path))
        warm = translate(BLUR_BINDER_NAMED_SOURCE, cache=warm_cache)
        assert warm.searches_run == 0 and warm.cache_hits == 0
        assert _codes(warm) == ["REP209", "REP205"]
        assert warm_cache.stats.exhausted_hits == 1

    def test_uncacheable_fingerprint_is_never_stored(self, tmp_path):
        source = BLUR_LITERAL_CLASH_SOURCE
        assert not fingerprint_fragment(analysis_of(source)).cacheable
        cache = SummaryCache(cache_dir=str(tmp_path))
        for _ in range(2):
            result = translate(source, cache=cache)
            assert result.searches_run == 1 and _codes(result) == ["REP205"]
        assert cache.stats.exhausted_stores == 0 and len(cache) == 0
        assert not list(tmp_path.iterdir())

    def test_lru_eviction_counts_exhausted_entries(self):
        cache = SummaryCache(capacity=1)
        translate(BLUR_SOURCE, cache=cache)
        assert len(cache) == 1
        translate(SUM_SOURCE, cache=cache)
        assert len(cache) == 1 and cache.stats.evictions >= 1
        # Evicted from the only tier: the next compile searches again.
        assert translate(BLUR_SOURCE, cache=cache).searches_run == 1


class TestPassPipeline:
    def test_default_passes_in_order(self):
        names = [p.name for p in default_passes()]
        assert names == [
            "analyze",
            "soundness",
            "synthesize",
            "verify-attach",
            "codegen",
            "plan",
        ]

    def test_pass_timings_recorded(self):
        result = translate(SUM_SOURCE)
        assert set(result.pass_seconds) == {
            "analyze",
            "soundness",
            "synthesize",
            "verify-attach",
            "codegen",
            "plan",
            "graph",
        }
        assert result.pass_seconds["synthesize"] > 0

    def test_context_drives_pipeline_directly(self):
        ctx = CompilationContext(
            program=parse_program(SUM_SOURCE),
            function="sum",
            cache=SummaryCache(),
        )
        PassPipeline().run(ctx)
        assert len(ctx.fragments) == 1
        state = ctx.fragments[0]
        assert state.analysis is not None
        assert state.fingerprint is not None and state.fingerprint.cacheable
        assert state.search is not None and state.search.translated
        assert state.program is not None

    def test_fingerprint_skipped_without_cache(self):
        ctx = CompilationContext(
            program=parse_program(SUM_SOURCE), function="sum"
        )
        PassPipeline().run(ctx)
        assert ctx.fragments[0].program is not None
        assert ctx.fragments[0].fingerprint is None  # no cache, no hashing

    def test_analysis_failure_stops_chain(self):
        # A loop with no observable outputs fails analysis; later passes
        # must not run (no search, no program).
        source = """
        int noop(int[] data, int n) {
          for (int i = 0; i < n; i++) { int x = data[i]; }
          return 0;
        }
        """
        result = translate(source)
        frag = result.fragments[0]
        assert frag.failure_reason is not None
        assert frag.search is None
        assert frag.program is None


class TestSharedCache:
    def test_translate_loop_shares_cache_across_items(self):
        # One thread, one cache: the first SUM searches and stores, the
        # alpha-renamed copy and the second SUM hit that entry.
        cache = SummaryCache()
        results = [
            translate(source, cache=cache)
            for source in (SUM_SOURCE, SUM_ALPHA_SOURCE, SUM_SOURCE)
        ]
        assert all(r.translated == 1 for r in results)
        assert [r.cache_hits for r in results] == [0, 1, 1]
        assert cache.stats.stores == 1
        assert cache.stats.hits == 2

    def test_shared_cache_loop_matches_uncached_translate(self):
        # Compiling a suite through one cache changes how summaries are
        # found, never which: each program matches its own cold compile.
        cache = SummaryCache()
        specs = [
            (SUM_SOURCE, None),
            (WORDCOUNT_SOURCE, None),
            (RWM_SOURCE, None),
            (Q6_SOURCE, "query6"),
        ]
        for source, function in specs:
            shared = translate(source, function, cache=cache)
            alone = translate(source, function)
            assert shared.function == alone.function
            assert shared.identified == alone.identified
            assert shared.translated == alone.translated
            for sf, af in zip(shared.fragments, alone.fragments):
                assert (sf.search is None) == (af.search is None)
                if sf.search and af.search:
                    assert [vs.summary for vs in sf.search.summaries] == [
                        vs.summary for vs in af.search.summaries
                    ]

    def test_compiler_translate_reuses_its_cache(self):
        # A CasperCompiler holds its cache across translate calls: the
        # second compile of the same program skips the search.
        compiler = CasperCompiler(cache=SummaryCache())
        cold = compiler.translate_source(SUM_SOURCE)
        warm = compiler.translate_source(SUM_SOURCE)
        assert cold.translated == warm.translated == 1
        assert (cold.cache_hits, warm.cache_hits) == (0, 1)
        assert warm.candidates_checked == 0

    def test_compile_pool_surface_is_gone(self):
        # Suites compile as a translate loop; no batch or pool entry
        # point is left to reach for.
        from repro import pipeline, workloads
        from repro.pipeline import scheduler

        assert not hasattr(repro, "translate_many")
        assert "translate_many" not in repro.__all__
        assert not hasattr(CasperCompiler, "translate_many")
        assert not hasattr(pipeline.PassPipeline, "run_many")
        assert not hasattr(scheduler, "default_worker_count")
        assert not hasattr(workloads, "compile_suite")
        with pytest.raises(TypeError):
            pipeline.PassPipeline(max_workers=2)
        with pytest.raises(TypeError):
            CasperCompiler(max_workers=2)


class TestFragmentJobs:
    """``Session.run(..., fragment_index=i)``: one fragment as one job."""

    def test_single_translated_fragment_runs(self):
        with Session(max_workers=0) as session:
            job = session.run(translate(SUM_SOURCE), {"data": [1, 2, 3], "n": 3})
        assert job.outputs == {"total": 6}

    def test_explicit_index_runs_that_fragment(self):
        with Session(max_workers=0) as session:
            job = session.run(
                translate(SUM_SOURCE), {"data": [4, 5], "n": 2}, fragment_index=0
            )
        assert job.outputs == {"total": 9}

    def test_untranslated_fragment_error_names_reason(self):
        source = """
        double[] blur(double[] img, int n) {
          double[] out = new double[n];
          double prev = 0;
          for (int i = 0; i < n; i++) {
            prev = 0.5 * prev + 0.5 * img[i];
            out[i] = prev;
          }
          return out;
        }
        """
        result = translate(source, search_config=SearchConfig(timeout_seconds=20))
        with Session(max_workers=0) as session:
            job = session.run(result, {"img": [1.0], "n": 1}, fragment_index=0)
        assert not job.ok
        assert job.error.startswith("AnalysisError: fragment_index 0")
        assert "blur#0" in job.error and "not translated" in job.error

    def test_multiple_fragments_run_whole_or_by_index(self):
        source = """
        int twoLoops(int[] data, int n) {
          int a = 0;
          for (int i = 0; i < n; i++) a += data[i];
          int b = 0;
          for (int j = 0; j < n; j++) b += data[j] * data[j];
          return a + b;
        }
        """
        result = translate(source)
        assert result.identified == 2
        with Session(max_workers=0) as session:
            whole = session.run(result, {"data": [1, 2], "n": 2})
            one = session.run(result, {"data": [1, 2], "n": 2}, fragment_index=1)
        assert (whole.outputs["a"], whole.outputs["b"]) == (3, 5)
        assert one.outputs == {"b": 5}

    def test_index_out_of_range(self):
        with Session(max_workers=0) as session:
            job = session.run(
                translate(SUM_SOURCE), {"data": [1], "n": 1}, fragment_index=5
            )
        assert not job.ok
        assert "AnalysisError: fragment_index 5 out of range" in job.error

