"""Tests for data generators and the benchmark registry."""

import pytest

from repro.lang.interpreter import Interpreter
from repro.workloads import all_benchmarks, datagen, get_benchmark, suite_benchmarks, suites


class TestDatagen:
    def test_generators_are_seeded(self):
        assert datagen.words(50, seed=1) == datagen.words(50, seed=1)
        assert datagen.words(50, seed=1) != datagen.words(50, seed=2)

    def test_keyword_text_skew(self):
        low = datagen.keyword_text(2000, ["k"], 0.0, seed=1)
        high = datagen.keyword_text(2000, ["k"], 0.95, seed=1)
        assert low.count("k") == 0
        assert high.count("k") / 2000 == pytest.approx(0.95, abs=0.03)

    def test_keyword_text_validates_probability(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            datagen.keyword_text(10, ["k"], 1.5)

    def test_pixels_in_rgb_range(self):
        for p in datagen.pixels(100, seed=3):
            assert 0 <= p.get("r") <= 255
            assert 0 <= p.get("g") <= 255
            assert 0 <= p.get("b") <= 255

    def test_graph_edges_have_outdegree(self):
        edges = datagen.graph_edges(20, 100, seed=4)
        sources = {e.get("src") for e in edges}
        assert sources == set(range(20))

    def test_lineitem_fields(self):
        items = datagen.lineitems(50, seed=5)
        for item in items:
            assert 0.0 <= item.get("l_discount") <= 0.10
            assert item.get("l_returnflag") in ("A", "N", "R")

    def test_zipf_is_skewed(self):
        sample = datagen.zipf_sample(5000, alpha=1.5, universe=100, seed=6)
        head = sample.count(0)
        tail = sample.count(99)
        assert head > tail

    def test_image_frames_shape(self):
        frames = datagen.image_frames(5, 32, seed=7)
        assert len(frames) == 5
        assert all(len(f) == 32 for f in frames)


class TestRegistry:
    def test_eight_suites_registered(self):
        assert set(suites()) == {
            "ariths",
            "biglambda",
            "fiji",
            "iterative",
            "joins",
            "phoenix",
            "stats",
            "tpch",
        }

    def test_suite_counts(self):
        assert len(suite_benchmarks("ariths")) == 11
        assert len(suite_benchmarks("stats")) == 19
        assert len(suite_benchmarks("biglambda")) == 9
        assert len(suite_benchmarks("tpch")) == 4
        assert len(suite_benchmarks("joins")) == 3

    def test_lookup_by_name(self):
        benchmark = get_benchmark("phoenix_wordcount")
        assert benchmark.suite == "phoenix"
        with pytest.raises(KeyError):
            get_benchmark("nope")

    @pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.name)
    def test_benchmark_parses_and_runs_sequentially(self, bench):
        """Every registered program parses and its sequential run succeeds."""
        program = bench.parse()
        inputs = bench.make_inputs(60, seed=13)
        args = bench.args_for(inputs)
        interp = Interpreter(program)
        interp.call_function(bench.function, args)  # must not raise

    def test_args_for_orders_by_signature(self):
        benchmark = get_benchmark("ariths_cond_sum")
        inputs = benchmark.make_inputs(10, seed=1)
        args = benchmark.args_for(inputs)
        assert args[0] == inputs["data"]
        assert args[1] == inputs["n"]
        assert args[2] == inputs["threshold"]


class TestCompileSuite:
    def test_batch_suite_compilation_matches_single(self):
        from repro import SummaryCache
        from repro.compiler import CasperCompiler
        from repro.workloads.runner import compile_benchmark

        compiler = CasperCompiler(cache=SummaryCache())
        for name in ("ariths_sum", "ariths_max"):
            benchmark = get_benchmark(name)
            shared = compile_benchmark(benchmark, compiler=compiler)
            single = compile_benchmark(benchmark)
            assert shared.translated == single.translated
            assert [
                vs.summary
                for f in shared.fragments
                for vs in f.search.summaries
            ] == [
                vs.summary
                for f in single.fragments
                for vs in f.search.summaries
            ]
