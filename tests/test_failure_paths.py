"""Failure-path coverage: a pass raising mid-compile, corrupt cache entries,
and the multiprocess backend's sequential fallback end-to-end."""

from __future__ import annotations

import json

import pytest

from repro.compiler import translate
from repro.lang.parser import parse_program
from repro.pipeline.cache import SummaryCache
from repro.pipeline.context import CompilationContext
from repro.pipeline.passes import CompilerPass, default_passes
from repro.pipeline.scheduler import PassPipeline
from repro.workloads import get_benchmark

SUM_SOURCE = """
int sum(int[] data, int n) {
  int total = 0;
  for (int i = 0; i < n; i++) total += data[i];
  return total;
}
"""

WORDCOUNT_SOURCE = """
Map<String, Integer> wc(List<String> words) {
  Map<String, Integer> counts = new HashMap<String, Integer>();
  for (String w : words) {
    counts.put(w, counts.getOrDefault(w, 0) + 1);
  }
  return counts;
}
"""


class BombPass(CompilerPass):
    """A pass that blows up mid-compile."""

    name = "bomb"

    def run(self, ctx, state):
        raise RuntimeError("fragment exploded mid-compile")


class TestSchedulerFailures:
    def _context(self):
        return CompilationContext(program=parse_program(SUM_SOURCE), function="sum")

    def test_raising_pass_propagates_sequentially(self):
        pipeline = PassPipeline(passes=[BombPass()])
        with pytest.raises(RuntimeError, match="exploded mid-compile"):
            pipeline.run(self._context())

    def test_partial_failure_leaves_earlier_pass_results(self):
        # The bomb sits after analyze: the state keeps its analysis even
        # though the chain died mid-way.
        pipeline = PassPipeline(passes=[default_passes()[0], BombPass()])
        ctx = self._context()
        with pytest.raises(RuntimeError):
            pipeline.run(ctx)
        assert ctx.fragments[0].analysis is not None

    def test_raising_pass_stops_the_later_fragments(self):
        # Fragments compile one after another: a pass raising on the
        # first leaves the second untouched and builds no job graph.
        benchmark = get_benchmark("fiji_red_to_magenta")
        ctx = CompilationContext(
            program=benchmark.parse(), function=benchmark.function
        )
        pipeline = PassPipeline(passes=[default_passes()[0], BombPass()])
        with pytest.raises(RuntimeError, match="exploded mid-compile"):
            pipeline.run(ctx)
        assert len(ctx.fragments) == 3
        assert ctx.fragments[0].analysis is not None
        assert [state.analysis for state in ctx.fragments[1:]] == [None, None]
        assert ctx.job_graph is None


class TestCorruptDiskCache:
    def _warm(self, tmp_path) -> SummaryCache:
        cache = SummaryCache(cache_dir=str(tmp_path))
        translate(SUM_SOURCE, cache=cache)
        assert list(tmp_path.glob("*.json"))
        return cache

    def test_truncated_json_is_a_miss_and_recompiles(self, tmp_path):
        self._warm(tmp_path)
        for path in tmp_path.glob("*.json"):
            path.write_text('{"format": 1, "summaries": [{"sum', encoding="utf-8")
        fresh = SummaryCache(cache_dir=str(tmp_path))
        result = translate(SUM_SOURCE, cache=fresh)
        assert result.translated == 1
        assert result.cache_hits == 0
        assert fresh.stats.misses >= 1

    def test_wrong_schema_entry_is_dropped_from_disk(self, tmp_path):
        # Valid JSON, right format tag, garbage payload: decoding fails,
        # the poisoned file must be deleted so it cannot re-fail forever.
        self._warm(tmp_path)
        for path in tmp_path.glob("*.json"):
            path.write_text(
                json.dumps({"format": 1, "summaries": [{"bogus": True}]}),
                encoding="utf-8",
            )
        fresh = SummaryCache(cache_dir=str(tmp_path))
        result = translate(SUM_SOURCE, cache=fresh)
        assert result.translated == 1
        assert result.cache_hits == 0
        # The recompile stores a clean replacement entry.
        entries = list(tmp_path.glob("*.json"))
        assert entries
        for path in entries:
            decoded = json.loads(path.read_text(encoding="utf-8"))
            assert decoded["summaries"] and "summary" in decoded["summaries"][0]

    def test_unknown_format_version_is_ignored(self, tmp_path):
        self._warm(tmp_path)
        for path in tmp_path.glob("*.json"):
            entry = json.loads(path.read_text(encoding="utf-8"))
            entry["format"] = 999
            path.write_text(json.dumps(entry), encoding="utf-8")
        fresh = SummaryCache(cache_dir=str(tmp_path))
        result = translate(SUM_SOURCE, cache=fresh)
        assert result.translated == 1
        assert result.cache_hits == 0


class TestMultiprocessFallbackEndToEnd:
    def test_unpicklable_payload_reaches_sequential_fallback(self):
        # Globals that refuse to pickle: the engine must fall back to
        # in-process execution and still produce correct outputs.
        from repro.codegen.base import _stage_complexity
        from repro.engine.multiprocess import MapStep, MultiprocessEngine

        result = translate(WORDCOUNT_SOURCE)
        program = result.fragments[0].program.programs[0]
        stage = program.summary.pipeline.stages[0]

        class Unpicklable:
            def __reduce__(self):
                raise TypeError("deliberately unpicklable")

        poison = Unpicklable()

        class PoisonedMapper:
            """Emits normally but drags an unpicklable global along."""

            def __init__(self, inner):
                self.inner = inner
                self.poison = poison

            def __call__(self, record):
                return self.inner(record)

        from repro.codegen.base import RecordMapper, view_records

        inputs = {"words": [f"w{i % 9}" for i in range(5000)]}
        records = view_records(program.analysis.view, inputs)
        mapper = PoisonedMapper(RecordMapper(stage.lam.emits, {}, program.analysis.view))
        engine = MultiprocessEngine(processes=2, min_parallel_records=10)
        outcome = engine.run_pipeline(
            records, [MapStep(mapper, _stage_complexity(stage))]
        )
        assert outcome.fallback is not None
        assert "not picklable" in outcome.fallback.message
        assert outcome.pairs == [(w, 1) for w in inputs["words"]]
