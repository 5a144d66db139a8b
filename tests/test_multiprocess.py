"""Unit tests for the real multiprocess backend (engine level)."""

from __future__ import annotations

import random

import pytest

from repro.engine.metrics import JobMetrics
from repro.engine.multiprocess import (
    MapStep,
    MultiprocessEngine,
    MultiprocessResult,
    ReduceStep,
    default_process_count,
)


class KeyedEmit:
    """Picklable record → [(key, value)] mapper for tests."""

    def __init__(self, modulo: int = 10):
        self.modulo = modulo

    def __call__(self, record):
        return [(record % self.modulo, record)]


class PassThrough:
    def __call__(self, pair):
        return [pair]


class Add:
    def __call__(self, a, b):
        return a + b


class Subtract:
    """Deliberately non-commutative: fold order must be preserved."""

    def __call__(self, a, b):
        return a - b


def reference_groups(records, modulo):
    grouped = {}
    for r in records:
        grouped.setdefault(r % modulo, []).append(r)
    return grouped


class TestInlineExecution:
    def test_map_only_pipeline(self):
        records = list(range(100))
        result = MultiprocessEngine(processes=0).run_pipeline(
            records, [MapStep(KeyedEmit(7))]
        )
        assert result.pairs == [(r % 7, r) for r in records]
        assert result.fallback_reason == "single process requested"

    def test_map_reduce_sum(self):
        records = list(range(1000))
        result = MultiprocessEngine(processes=0).run_pipeline(
            records, [MapStep(KeyedEmit(10)), ReduceStep(Add())]
        )
        expected = [(k, sum(v)) for k, v in reference_groups(records, 10).items()]
        assert result.pairs == expected

    def test_non_commutative_fold_preserves_order(self):
        records = list(range(50))
        result = MultiprocessEngine(processes=0).run_pipeline(
            records, [MapStep(KeyedEmit(5)), ReduceStep(Subtract(), combine=False)]
        )
        expected = []
        for key, values in reference_groups(records, 5).items():
            acc = values[0]
            for value in values[1:]:
                acc = acc - value
            expected.append((key, acc))
        assert result.pairs == expected

    def test_chained_map_stages(self):
        records = list(range(30))
        result = MultiprocessEngine(processes=0).run_pipeline(
            records, [MapStep(KeyedEmit(3)), MapStep(PassThrough())]
        )
        assert result.pairs == [(r % 3, r) for r in records]

    def test_empty_input(self):
        result = MultiprocessEngine(processes=0).run_pipeline(
            [], [MapStep(KeyedEmit()), ReduceStep(Add())]
        )
        assert result.pairs == []

    def test_empty_steps_rejected(self):
        from repro.errors import EngineError

        with pytest.raises(EngineError):
            MultiprocessEngine(processes=0).run_pipeline([1, 2], [])


class TestPooledExecution:
    def test_pooled_matches_inline_exactly(self):
        records = list(range(4000))
        steps = [MapStep(KeyedEmit(13)), ReduceStep(Add())]
        inline = MultiprocessEngine(processes=0).run_pipeline(records, steps)
        pooled = MultiprocessEngine(
            processes=2, min_parallel_records=100
        ).run_pipeline(records, steps)
        assert pooled.fallback_reason is None
        assert pooled.executed_parallel
        assert pooled.pairs == inline.pairs

    def test_pooled_non_commutative_matches_inline(self):
        records = list(range(3000))
        steps = [MapStep(KeyedEmit(4)), ReduceStep(Subtract(), combine=False)]
        inline = MultiprocessEngine(processes=0).run_pipeline(records, steps)
        pooled = MultiprocessEngine(
            processes=2, min_parallel_records=100
        ).run_pipeline(records, steps)
        assert pooled.fallback_reason is None
        assert pooled.pairs == inline.pairs

    @pytest.mark.parametrize("combine", [True, False])
    @pytest.mark.parametrize("weights", ["count", "float"])
    def test_pooled_resident_reduce_matches_inline_in_order(self, weights, combine):
        # 20 000 Zipf words over 3 000 keys: >= 2 048 pairs leave the map
        # phase either way, the size at which a pool used to gather the
        # pairs per key and fold them in worker buckets.  First-seen key
        # order is the contract; float sums of mixed magnitude make the
        # per-key value order visible too.
        rng = random.Random(23)
        ranks = rng.choices(
            range(3000), weights=[1 / (rank + 1) for rank in range(3000)], k=20_000
        )

        def value():
            if weights == "count":
                return 1
            return rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8)

        records = [(f"w{rank}", value()) for rank in ranks]
        steps = [MapStep(PassThrough()), ReduceStep(Add(), combine=combine)]
        inline = MultiprocessEngine(processes=0).run_pipeline(records, steps)
        pooled = MultiprocessEngine(processes=2).run_pipeline(records, steps)
        assert pooled.executed_parallel and pooled.map_tasks > 0
        assert pooled.metrics.stages[-1].records_in >= 2048
        assert pooled.pairs == inline.pairs
        assert [key for key, _ in pooled.pairs] == list(
            dict.fromkeys(word for word, _ in records)
        )

    def test_counted_wordcount_pools_like_inline(self):
        # phoenix_wordcount's compiled map emits the literal 1 under a
        # ``+`` λr, so each pool worker's combine is the C key count.
        from collections import Counter

        from repro.codegen.base import prepare_globals, view_records
        from suite_cache import compiled

        fragment = next(
            f for f in compiled("phoenix_wordcount").fragments if f.translated
        )
        rng = random.Random(37)
        words = [f"w{rng.randrange(400)}" for _ in range(6000)]
        inputs = {"wordList": words}
        globals_env, _sizes = prepare_globals(fragment.analysis, inputs)
        steps = fragment.program.programs[0].local_steps(globals_env)
        assert steps[0].fn.emit_constant == 1 and steps[-1].fn.grouped_op == "sum"
        records = view_records(fragment.analysis.view, inputs)
        inline = MultiprocessEngine(processes=0).run_pipeline(records, steps)
        pooled = MultiprocessEngine(
            processes=2, min_parallel_records=100
        ).run_pipeline(records, steps)
        assert pooled.fallback_reason is None
        assert pooled.executed_parallel and pooled.map_tasks > 0
        assert pooled.pairs == inline.pairs == list(Counter(words).items())

        def counters(result):
            return [
                (s.name, s.records_in, s.records_out, s.bytes_out, s.bytes_shuffled)
                for s in result.metrics.stages
            ]

        assert counters(pooled) == counters(inline)

    def test_task_bounds_cover_all_chunks_in_order(self):
        bounds = MultiprocessEngine._task_bounds(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]
        flat = [i for lo, hi in bounds for i in range(lo, hi)]
        assert flat == list(range(10))


class TestFallbacks:
    def test_tiny_input_stays_in_process(self):
        result = MultiprocessEngine(
            processes=4, min_parallel_records=1000
        ).run_pipeline(list(range(10)), [MapStep(KeyedEmit())])
        assert result.fallback_reason is not None
        assert "tiny input" in result.fallback_reason
        assert result.pairs == [(r % 10, r) for r in range(10)]

    def test_unpicklable_lambda_falls_back_sequentially(self):
        records = list(range(3000))
        result = MultiprocessEngine(
            processes=2, min_parallel_records=100
        ).run_pipeline(records, [MapStep(lambda r: [(r % 2, r)])])
        assert result.fallback_reason is not None
        assert "not picklable" in result.fallback_reason
        assert result.pairs == [(r % 2, r) for r in records]
        assert not result.executed_parallel

    def test_mapper_exception_propagates(self):
        class Boom:
            def __call__(self, record):
                raise ValueError("boom in mapper")

        with pytest.raises(ValueError, match="boom in mapper"):
            MultiprocessEngine(processes=0).run_pipeline(
                list(range(10)), [MapStep(Boom())]
            )

    def test_pooled_worker_exception_propagates(self):
        """Regression: a bug inside a kernel running in a pool worker must
        reach the caller — never be mistaken for an unpicklable payload
        and silently retried in-process."""

        class Boom:  # picklable, so it genuinely ships to a worker
            def __call__(self, record):
                raise ValueError("boom in worker")

        engine = MultiprocessEngine(processes=2, min_parallel_records=100)
        with pytest.raises(ValueError, match="boom in worker"):
            engine.run_pipeline(list(range(4000)), [MapStep(Boom())])

    def test_pooled_reducer_exception_propagates(self):
        class BoomReduce:
            def __call__(self, a, b):
                raise RuntimeError("boom in reducer")

        engine = MultiprocessEngine(processes=2, min_parallel_records=100)
        with pytest.raises(RuntimeError, match="boom in reducer"):
            engine.run_pipeline(
                list(range(4000)),
                [MapStep(KeyedEmit(8)), ReduceStep(BoomReduce(), combine=False)],
            )

    def test_buggy_serialization_hook_propagates(self):
        """Regression: pickle.dumps used to be wrapped in a blanket
        ``except Exception`` — a __reduce__ raising a *real* error was
        swallowed as "payload not picklable" and the job silently fell
        back in-process.  Only pickling errors may trigger the fallback."""

        class EvilPickle:
            def __call__(self, record):
                return [(record % 2, record)]

            def __reduce__(self):
                raise ValueError("buggy serialization hook")

        engine = MultiprocessEngine(processes=2, min_parallel_records=100)
        with pytest.raises(ValueError, match="buggy serialization hook"):
            engine.run_pipeline(list(range(4000)), [MapStep(EvilPickle())])


class TestMetrics:
    def test_wall_and_simulated_seconds_recorded(self):
        records = list(range(2000))
        result = MultiprocessEngine(processes=0).run_pipeline(
            records, [MapStep(KeyedEmit(10)), ReduceStep(Add())]
        )
        metrics: JobMetrics = result.metrics
        assert metrics.wall_seconds > 0
        assert metrics.simulated_seconds > 0
        names = [s.name for s in metrics.stages]
        assert names[0] == "scan"
        assert any(n.startswith("map") for n in names)
        assert any(n.startswith("shuffle") for n in names)
        assert metrics.bytes_emitted > 0
        assert metrics.bytes_shuffled > 0

    def test_result_shape(self):
        result = MultiprocessEngine(processes=0).run_pipeline(
            [1, 2, 3], [MapStep(KeyedEmit())]
        )
        assert isinstance(result, MultiprocessResult)
        assert result.processes_used == 1

    def test_default_process_count_positive(self):
        assert default_process_count() >= 1
