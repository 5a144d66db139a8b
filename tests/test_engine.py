"""Tests for the MapReduce engine: core, sizes, the Spark API, pricing."""

import cProfile
import dataclasses
import random

import pytest

from repro.engine import (
    EngineConfig,
    MapStep,
    MultiprocessEngine,
    ReduceStep,
    SimSparkContext,
    partition_data,
    run_sequential,
    sizeof,
)
from repro.engine import sizes
from repro.engine.config import DEFAULT_PARTITIONS
from repro.engine.core import price
from repro.engine.sizes import BOOLEAN_SIZE, STRING_SIZE, TUPLE_HEADER, sizeof_pair
from repro.engine.spill import SpillWriter, partition_of, read_run
from repro.errors import EngineError, SpillError
from repro.lang.parser import parse_program
from repro.lang.values import Instance


class TestSizes:
    def test_paper_constants(self):
        """Section 7.4's data-type sizes: String 40, Boolean 10, pair 28."""
        assert sizeof("anything") == STRING_SIZE == 40
        assert sizeof(True) == BOOLEAN_SIZE == 10
        assert sizeof((True, False)) == TUPLE_HEADER + 20 == 28

    def test_numeric_sizes(self):
        assert sizeof(42) == 4
        assert sizeof(3.5) == 8
        assert sizeof(2**40) == 8

    def test_instance_size(self):
        p = Instance("P", {"x": 1, "y": 2.0})
        assert sizeof(p) == 16 + 4 + 8

    def test_collections_use_object_header(self):
        # Collections are objects like Instance (16 B header), not bare
        # tuples (8 B) — charging them the tuple header understated the
        # shuffle-byte accounting and the spill-trigger estimate.
        from repro.engine.sizes import OBJECT_HEADER

        assert OBJECT_HEADER == 16
        assert sizeof([True, False]) == OBJECT_HEADER + 20 == 36
        assert sizeof({1, 2}) == OBJECT_HEADER + 8 == 24
        assert sizeof({"k": 1}) == OBJECT_HEADER + 40 + 4 == 60
        # Tuples keep the paper's 8-byte header (§7.4: (bool, bool) = 28).
        assert sizeof((True, False)) == 28

    def test_run_path_sizes_a_chunk_at_a_time(self):
        """Byte accounting must not walk record by record: the calls the
        local engine makes into ``engine/sizes.py`` are bounded by the
        chunk count, not the input size (several per record before the
        ``dataset_bytes`` kernel)."""
        records = [(i, float(i), "w") for i in range(24_000)]
        steps = [
            MapStep(lambda r: [(r[0] % 50, r[1])]),
            ReduceStep(lambda a, b: a + b),
        ]
        engine = MultiprocessEngine(processes=0)
        profile = cProfile.Profile()
        result = profile.runcall(engine.run_pipeline, records, steps)
        assert len(result.pairs) == 50
        sizing_calls = sum(
            entry.callcount
            for entry in profile.getstats()
            if not isinstance(entry.code, str)
            and entry.code.co_filename == sizes.__file__
        )
        chunks = DEFAULT_PARTITIONS
        assert 0 < sizing_calls <= 32 * chunks


class TestKeyedPathCalls:
    """The keyed row path makes no call per pair: columns out of the map
    kernel, λr inlined into the fold loop, spill routing by batch."""

    @staticmethod
    def wordcount(words):
        from repro.codegen.base import prepare_globals, view_records
        from suite_cache import compiled

        [fragment] = [
            f for f in compiled("phoenix_wordcount").fragments if f.translated
        ]
        inputs = {"wordList": words}
        globals_env, _sizes = prepare_globals(fragment.analysis, inputs)
        steps = fragment.program.programs[0].local_steps(globals_env)
        return view_records(fragment.analysis.view, inputs), steps

    @pytest.mark.parametrize("budget", [None, 64 * 1024])
    def test_calls_follow_chunks_and_keys_not_pairs(self, budget):
        rng = random.Random(5)
        words = [f"w{rng.randrange(1000)}" for _ in range(24_000)]
        records, steps = self.wordcount(words)
        engine = MultiprocessEngine(processes=0, memory_budget=budget)
        profile = cProfile.Profile()
        result = profile.runcall(engine.run_pipeline, records, steps)
        assert dict(result.pairs) == {w: words.count(w) for w in set(words)}
        python_calls = [
            entry for entry in profile.getstats() if not isinstance(entry.code, str)
        ]
        chunks = DEFAULT_PARTITIONS
        keys = len(result.pairs)
        runs = result.spill_stats["spill_runs"] if budget else 0
        assert keys == 1000 and result.metrics.stages[-1].records_in > 20 * keys
        assert bool(runs) == bool(budget)
        # 24 000 pairs mapped, ~20 000 combined pairs shuffled: a call per
        # pair anywhere is several times this bound (the per-pair loops
        # this replaced made 47 566 / 286 157 Python-level calls here).
        per_key = 4 if budget else 1  # routing: hash, encode, final ordering
        bound = 40 * chunks + per_key * keys + 16 * runs
        assert sum(entry.callcount for entry in python_calls) <= bound
        hashed = sum(
            entry.callcount
            for entry in python_calls
            if entry.code.co_name == partition_of.__name__
        )
        assert hashed == (keys if budget else 0)

    #: Batches whose flush falls mid-batch: one fixed-size kind per
    #: column (the arithmetic path), and columns only the walker sizes.
    BATCHES = {
        "str_int": lambda i: (f"k{i % 37}", i),
        "long_float": lambda i: (2**40 + i % 11, i * 0.5),
        "ints_across_2_31": lambda i: (i % 13, 2**31 - 5 + i % 10),
        "mixed_kinds": lambda i: (i % 7 if i % 3 else f"s{i % 7}", (i, "v")),
        "bool_none": lambda i: (i % 2 == 0, None),
    }

    @pytest.mark.parametrize("shape", sorted(BATCHES))
    @pytest.mark.parametrize("budget", [200, 1000, 4096])
    def test_batch_spill_equals_the_per_pair_walk(self, tmp_path, shape, budget):
        """Run-file boundaries, per-run pair counts and every
        ``spill_stats`` field are those of adding pair by pair — the
        reference below is the loop ``add_columns`` replaced."""
        pairs = [self.BATCHES[shape](i) for i in range(500)]
        partitions = 5

        # Reference: size each pair, flush the moment the total passes
        # the budget; per partition, the pair count of each run.
        runs = [[] for _ in range(partitions)]
        buffered = [0] * partitions
        stats = {"spill_runs": 0, "spilled_pairs": 0, "spilled_bytes": 0, "peak": 0}
        resident = flushes = 0

        def flush():
            nonlocal resident, flushes
            flushes += 1
            for partition, count in enumerate(buffered):
                if count:
                    runs[partition].append(count)
                    stats["spill_runs"] += 1
                    stats["spilled_pairs"] += count
                    buffered[partition] = 0
            stats["spilled_bytes"] += resident
            resident = 0

        for key, value in pairs:
            resident += sizeof_pair(key, value)
            buffered[partition_of(key, partitions)] += 1
            stats["peak"] = max(stats["peak"], resident)
            if resident > budget:
                flush()
        flush()

        writer = SpillWriter(str(tmp_path), partitions, budget)
        for start in (0, 3, 170, 171, 400):  # uneven batches, one of a single pair
            stop = {0: 3, 3: 170, 170: 171, 171: 400, 400: 500}[start]
            keys, values = zip(*pairs[start:stop])
            writer.add_columns(list(keys), list(values))
        writer.finish()
        assert [[len(read_run(p)) for p in files] for files in writer.run_files] == runs
        assert writer.stats.as_dict() == {
            "partitions": partitions,
            "spill_runs": stats["spill_runs"],
            "spilled_pairs": stats["spilled_pairs"],
            "spilled_bytes": stats["spilled_bytes"],
            "peak_resident_bytes": stats["peak"],
        }
        assert flushes >= 2  # the budget did trip before finish()
        assert writer.pairs_in == 500
        assert writer.bytes_in == sum(sizeof_pair(k, v) for k, v in pairs)
        replayed = [pair for files in writer.run_files for p in files for pair in read_run(p)]
        assert sorted(map(repr, replayed)) == sorted(map(repr, pairs))
        first_seen = list(dict.fromkeys(key for key, _value in pairs))
        assert list(map(repr, writer.key_order)) == list(map(repr, first_seen))

    def test_batch_smaller_than_one_pair_raises_the_typed_error(self, tmp_path):
        for keys, values in ((["a", "b"], [1, 2]), ([1, "b"], [(1, 2), 3])):
            writer = SpillWriter(str(tmp_path), partitions=2, budget_bytes=6)
            with pytest.raises(SpillError, match="smaller than a single record"):
                writer.add_columns(keys, values)


class TestPartitioning:
    def test_even_partitioning(self):
        parts = partition_data(list(range(100)), 10)
        assert len(parts) == 10
        assert sum(len(p) for p in parts) == 100

    def test_empty_data(self):
        assert partition_data([], 5) == [[]]

    def test_invalid_count_raises(self):
        with pytest.raises(EngineError):
            partition_data([1], 0)

    def test_negative_count_raises(self):
        with pytest.raises(EngineError):
            partition_data([1, 2], -3)

    def test_more_partitions_than_records(self):
        parts = partition_data([1, 2, 3], 10)
        # No padding partitions are invented; every record lands once.
        assert len(parts) == 3
        assert [r for p in parts for r in p] == [1, 2, 3]
        assert all(p for p in parts)

    def test_single_record_many_partitions(self):
        assert partition_data([42], 8) == [[42]]

    def test_empty_data_any_partition_count(self):
        assert partition_data([], 1) == [[]]
        assert partition_data([], 100) == [[]]


class TestExecutorCore:
    """Direct Executor coverage: shuffle modes and metrics invariants."""

    @staticmethod
    def make_executor(combiners: bool = True):
        from repro.engine.core import Executor

        config = EngineConfig()
        config = dataclasses.replace(
            config, framework=dataclasses.replace(config.framework, combiners=combiners)
        )
        return Executor(config=config)

    PAIRS = [("a", 1), ("a", 2), ("b", 3), ("a", 4), ("b", 5)]

    def test_shuffle_with_combiner_collapses_per_partition(self):
        executor = self.make_executor(combiners=True)
        parts = partition_data(self.PAIRS, 2)
        groups = executor.run_shuffle(parts, lambda x, y: x + y)
        # Grouped values are per-partition partial sums, one per partition
        # containing the key; the total is conserved.
        assert sum(groups["a"]) == 7
        assert sum(groups["b"]) == 8
        stage = executor.metrics.last_stage("shuffle")
        assert stage.records_in == len(self.PAIRS)
        assert stage.records_out == sum(len(v) for v in groups.values())
        assert stage.records_out < len(self.PAIRS)

    def test_shuffle_with_combiners_disabled_passes_values_through(self):
        executor = self.make_executor(combiners=False)
        parts = partition_data(self.PAIRS, 2)
        groups = executor.run_shuffle(parts, lambda x, y: x + y)
        # The combiner function is supplied but the framework profile
        # disables it: every value crosses the network unmerged.
        assert sorted(groups["a"]) == [1, 2, 4]
        assert sorted(groups["b"]) == [3, 5]
        stage = executor.metrics.last_stage("shuffle")
        assert stage.records_in == len(self.PAIRS)
        assert stage.records_out == len(self.PAIRS)

    def test_disabled_combiners_shuffle_more_bytes(self):
        with_combiner = self.make_executor(combiners=True)
        without = self.make_executor(combiners=False)
        pairs = [("k%d" % (i % 3), 1) for i in range(600)]
        with_combiner.run_shuffle(partition_data(pairs, 4), lambda x, y: x + y)
        without.run_shuffle(partition_data(pairs, 4), lambda x, y: x + y)
        assert (
            with_combiner.metrics.last_stage("shuffle").bytes_shuffled
            < without.metrics.last_stage("shuffle").bytes_shuffled
        )

    def test_narrow_stage_conserves_record_counts(self):
        executor = self.make_executor()
        parts = partition_data(list(range(50)), 4)
        out = executor.run_narrow(parts, lambda x: [x, x], "double")
        stage = executor.metrics.last_stage("double")
        assert stage.records_in == 50
        assert stage.records_out == 100
        assert stage.records_out == sum(len(p) for p in out)

    def test_narrow_stage_on_empty_partitions(self):
        executor = self.make_executor()
        out = executor.run_narrow([[]], lambda x: [x], "noop")
        stage = executor.metrics.last_stage("noop")
        assert stage.records_in == 0
        assert stage.records_out == 0
        assert out == [[]]

    def test_scan_records_in_equals_records_out(self):
        executor = self.make_executor()
        executor.run_scan(list(range(30)), 4)
        stage = executor.metrics.last_stage("scan")
        assert stage.records_in == stage.records_out == 30
        assert stage.bytes_in == stage.bytes_out > 0

    def test_reduce_groups_conserves_totals(self):
        executor = self.make_executor()
        groups = {"a": [1, 2, 4], "b": [3, 5]}
        out = executor.run_reduce_groups(groups, lambda x, y: x + y)
        stage = executor.metrics.last_stage("reduce")
        assert stage.records_in == 5
        assert stage.records_out == len(out) == 2
        assert dict(out) == {"a": 7, "b": 8}


class TestSparkAPI:
    def make_context(self):
        return SimSparkContext(EngineConfig())

    def test_map_reduce_by_key(self):
        sc = self.make_context()
        counts = (
            sc.parallelize(["a", "b", "a", "c", "a"])
            .map_to_pair(lambda w: (w, 1))
            .reduce_by_key(lambda x, y: x + y)
            .collect_as_map()
        )
        assert counts == {"a": 3, "b": 1, "c": 1}

    def test_filter_and_count(self):
        sc = self.make_context()
        assert sc.parallelize(list(range(10))).filter(lambda x: x % 2 == 0).count() == 5

    def test_flat_map(self):
        sc = self.make_context()
        words = sc.parallelize(["a b", "c"]).flat_map(lambda s: s.split())
        assert sorted(words.collect()) == ["a", "b", "c"]

    def test_reduce_action(self):
        sc = self.make_context()
        assert sc.parallelize([1, 2, 3, 4]).reduce(lambda a, b: a + b) == 10

    def test_reduce_empty_raises(self):
        sc = self.make_context()
        with pytest.raises(EngineError):
            sc.parallelize([]).reduce(lambda a, b: a + b)

    def test_join(self):
        sc = self.make_context()
        left = sc.parallelize([(1, "a"), (2, "b")]).map_to_pair(lambda kv: kv)
        right = sc.parallelize([(1, "x"), (3, "y")]).map_to_pair(lambda kv: kv)
        joined = dict(left.join(right).collect())
        assert joined == {1: ("a", "x")}

    def test_take_is_first_k(self):
        sc = self.make_context()
        rdd = sc.parallelize(list(range(100)))
        assert rdd.take(5) == [0, 1, 2, 3, 4]

    def test_pair_op_requires_pairs(self):
        sc = self.make_context()
        with pytest.raises(EngineError):
            sc.parallelize([1, 2]).reduce_by_key(lambda a, b: a + b)

    def test_group_by_key_preserves_order(self):
        sc = self.make_context()
        pairs = [("k", 3), ("k", 1), ("k", 2)]
        grouped = (
            sc.parallelize(pairs, partitions=1)
            .map_to_pair(lambda kv: kv)
            .group_by_key()
            .collect_as_map()
        )
        assert grouped["k"] == [3, 1, 2]


class TestMetricsAccounting:
    def test_combiner_reduces_shuffled_bytes(self):
        """The Table 4 mechanism: combiners shrink shuffle volume."""
        words = ["w%d" % (i % 10) for i in range(5000)]

        sc1 = SimSparkContext(EngineConfig())
        sc1.parallelize(words).map_to_pair(lambda w: (w, 1)).reduce_by_key(
            lambda a, b: a + b
        ).collect()
        with_combiner = sc1.metrics.bytes_shuffled

        sc2 = SimSparkContext(EngineConfig())
        (
            sc2.parallelize(words)
            .map_to_pair(lambda w: (w, 1))
            .group_by_key()
            .map_values(lambda vs: sum(vs))
            .collect()
        )
        without_combiner = sc2.metrics.bytes_shuffled

        # Combining collapses 5000 word pairs to (distinct × partitions).
        assert with_combiner < without_combiner / 5

    def test_simulated_time_scales_with_data_scale(self):
        words = ["w"] * 1000
        small = SimSparkContext(EngineConfig(scale=1.0))
        small.parallelize(words).map_to_pair(lambda w: (w, 1)).reduce_by_key(
            lambda a, b: a + b
        ).collect()
        big = SimSparkContext(EngineConfig(scale=1000.0))
        big.parallelize(words).map_to_pair(lambda w: (w, 1)).reduce_by_key(
            lambda a, b: a + b
        ).collect()
        assert big.metrics.simulated_seconds > small.metrics.simulated_seconds

    def test_startup_charged_once(self):
        sc = SimSparkContext(EngineConfig())
        rdd = sc.parallelize([1, 2, 3])
        rdd = rdd.map(lambda x: x + 1).map(lambda x: x * 2)
        # Only one startup in total: time < 2 startups + overheads.
        assert sc.metrics.simulated_seconds < 2 * sc.config.framework.startup_s + 2


class TestPricing:
    """Simulated frameworks are priced from one real run, never re-run."""

    WORDS = ["w%d" % (i % 50) for i in range(2000)]
    STEPS = [MapStep(lambda w: [(w, 1)]), ReduceStep(lambda a, b: a + b)]

    def real_run(self):
        return MultiprocessEngine(processes=0).run_pipeline(self.WORDS, self.STEPS)

    def test_one_run_priced_three_ways_orders_the_frameworks(self):
        run = self.real_run()
        config = EngineConfig(scale=2000)
        seconds = {
            name: price(name, config, self.STEPS, run).simulated_seconds
            for name in ("spark", "hadoop", "flink")
        }
        assert seconds["spark"] < seconds["flink"] < seconds["hadoop"]
        assert dict(run.pairs) == {w: 40 for w in set(self.WORDS)}

    def test_spark_price_is_what_the_rdd_api_charges(self):
        """The RDD API runs the lambdas and charges its stages; pricing
        the real run's counters through the same stages gives the same
        numbers, seconds included."""
        config = EngineConfig(scale=1000)
        sc = SimSparkContext(config)
        sc.parallelize(self.WORDS).flat_map_to_pair(lambda w: [(w, 1)]).reduce_by_key(
            lambda a, b: a + b
        ).collect()
        priced = price("spark", config, self.STEPS, self.real_run())

        def rows(metrics):
            return [
                (s.name, s.records_in, s.records_out, s.bytes_in, s.bytes_out,
                 s.bytes_shuffled, s.seconds)
                for s in metrics.stages
            ]

        assert rows(priced) == rows(sc.metrics)
        assert priced.simulated_seconds == sc.metrics.simulated_seconds
        assert [s.name for s in priced.stages] == [
            "scan", "map.flatToPair", "shuffle", "reduce"
        ]

    @pytest.mark.parametrize("backend", ["spark", "hadoop", "flink"])
    def test_simulated_runs_use_compiled_kernels(self, monkeypatch, backend):
        """No per-record IR interpretation: the evaluator is called the
        same number of times at 10 and at 1 000 records."""
        from repro.codegen import base
        from repro.workloads import get_benchmark
        from suite_cache import compiled

        name = "ariths_sum"
        program = compiled(name).fragments[0].program.programs[0]
        evaluate = base.eval_expr
        calls = []

        def counting(expr, env):
            calls.append(expr)
            return evaluate(expr, env)

        monkeypatch.setattr(base, "eval_expr", counting)
        counts = []
        for records in (10, 1000):
            calls.clear()
            inputs = get_benchmark(name).make_inputs(records, 7)
            program.run(inputs, backend)
            counts.append(len(calls))
        assert counts[0] == counts[1]


class TestSequentialBaseline:
    def test_sequential_result_and_time(self):
        program = parse_program(
            "int f(int[] d, int n) { int s = 0; for (int i = 0; i < n; i++) s += d[i]; return s; }"
        )
        result = run_sequential(program, "f", [[1, 2, 3], 3], scale=1000.0)
        assert result.result == 6
        assert result.simulated_seconds > 0
        assert result.records == 3

    def test_scale_increases_time_linearly(self):
        program = parse_program(
            "int f(int[] d, int n) { int s = 0; for (int i = 0; i < n; i++) s += d[i]; return s; }"
        )
        t1 = run_sequential(program, "f", [[1] * 100, 100], scale=1.0).simulated_seconds
        t2 = run_sequential(program, "f", [[1] * 100, 100], scale=100.0).simulated_seconds
        assert abs(t2 / t1 - 100.0) < 1.0
