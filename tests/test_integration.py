"""Integration and property-based tests across the whole pipeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecOptions
from repro.errors import InterpreterError
from repro.lang.interpreter import Interpreter
from repro.lang.values import values_equal
from repro.workloads import get_benchmark
from repro.workloads.runner import compile_benchmark, run_benchmark


@pytest.fixture(scope="module")
def wordcount_compiled():
    return compile_benchmark(get_benchmark("phoenix_wordcount"))


@pytest.fixture(scope="module")
def stringmatch_compiled():
    return compile_benchmark(get_benchmark("phoenix_string_match"))


class TestBenchmarkRuns:
    def test_run_benchmark_produces_speedup(self, wordcount_compiled):
        benchmark = get_benchmark("phoenix_wordcount")
        run = run_benchmark(
            benchmark, size=4000, compilation=wordcount_compiled
        )
        assert run.translated
        assert run.outputs_match
        assert run.speedup > 3.0  # distributed must beat sequential

    def test_untranslatable_benchmark_reports_zero(self):
        benchmark = get_benchmark("phoenix_matrix_multiply")
        run = run_benchmark(benchmark, size=100)
        assert not run.translated
        assert run.distributed_seconds == 0.0

    def test_unchecked_fragment_is_a_mismatch(
        self, wordcount_compiled, monkeypatch
    ):
        """A fragment whose reference interpretation raises was never
        checked, so the run must not report its outputs as matching."""
        from repro.verification import bounded

        def faulting_reference(analysis, state):
            raise InterpreterError("reference faulted")

        monkeypatch.setattr(bounded, "run_sequential_fragment", faulting_reference)
        run = run_benchmark(
            get_benchmark("phoenix_wordcount"),
            size=400,
            compilation=wordcount_compiled,
        )
        assert run.translated
        assert run.outputs_match is False

    def test_untranslated_fragment_outputs_chain_forward(self):
        """fiji_temporal_median's first fragment stays untranslated; its
        ``est`` output must still reach the translated second fragment."""
        benchmark = get_benchmark("fiji_temporal_median")
        run = run_benchmark(benchmark, size=2000)
        assert (run.fragments_identified, run.fragments_translated) == (2, 1)
        assert run.outputs_match
        assert run.distributed_seconds > 0  # the translated job ran

    def test_shared_compilation_comes_back_unchanged(self):
        """run_benchmark prices the compilation it is handed at its own
        scale, through its own session; a cached, shared one must come
        back as it went in."""
        from benchmarks.counter_dump import RECORDS, SEED, fragment_text
        from repro import ExecOptions
        from suite_cache import compiled

        benchmark = get_benchmark("ariths_sum")
        compilation = compiled("ariths_sum")
        fragment = next(f for f in compilation.fragments if f.translated)
        programs = list(fragment.program.programs)
        env = benchmark.make_inputs(RECORDS, SEED)
        spark = ExecOptions(plan="spark")
        before = fragment_text(fragment.program, env, spark)
        run_benchmark(
            benchmark, size=2500, target_bytes=1e9, compilation=compilation
        )
        assert all(a is b for a, b in zip(fragment.program.programs, programs))
        assert len(fragment.program.programs) == len(programs)
        assert fragment_text(fragment.program, env, spark) == before

    def test_speedup_grows_with_scale(self, wordcount_compiled):
        """Figure 9's shape: larger inputs amortize startup overheads."""
        benchmark = get_benchmark("phoenix_wordcount")
        small = run_benchmark(
            benchmark, size=4000, target_bytes=10e9, compilation=wordcount_compiled
        )
        large = run_benchmark(
            benchmark, size=4000, target_bytes=75e9, compilation=wordcount_compiled
        )
        assert large.speedup > small.speedup


class TestCrossBackendAgreement:
    @pytest.mark.parametrize("backend", ["spark", "hadoop", "flink"])
    def test_wordcount_same_result_every_backend(self, wordcount_compiled, backend):
        benchmark = get_benchmark("phoenix_wordcount")
        fragment = wordcount_compiled.fragments[0]
        inputs = benchmark.make_inputs(500, seed=3)
        outputs = fragment.program.run(dict(inputs), ExecOptions(plan=backend)).outputs
        expected = Interpreter(benchmark.parse()).call_function(
            benchmark.function, benchmark.args_for(inputs)
        )
        assert values_equal(outputs["counts"], expected)


class TestDynamicTuning:
    def test_stringmatch_generates_multiple_implementations(self, stringmatch_compiled):
        fragment = stringmatch_compiled.fragments[0]
        assert fragment.translated
        # Several statically-incomparable encodings survive pruning.
        assert len(fragment.program.programs) >= 1

    def test_adaptive_correct_across_skews(self, stringmatch_compiled):
        from repro.workloads import datagen

        fragment = stringmatch_compiled.fragments[0]
        for probability in (0.0, 0.5, 0.95):
            text = datagen.keyword_text(2000, ["key1", "key2"], probability, seed=5)
            outputs = fragment.program.run(
                {"text": text, "key1": "key1", "key2": "key2"}
            ).outputs
            assert outputs["key1_found"] == ("key1" in text)
            assert outputs["key2_found"] == ("key2" in text)


# ----------------------------------------------------------------------
# Property-based end-to-end checks on pre-compiled translations


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=40))
def test_wordcount_translation_matches_interpreter_on_random_input(words):
    benchmark = get_benchmark("phoenix_wordcount")
    compilation = _cached_wordcount()
    fragment = compilation.fragments[0]
    outputs = fragment.program.run({"wordList": list(words)}).outputs
    expected = Interpreter(benchmark.parse()).call_function(
        benchmark.function, [list(words)]
    )
    assert values_equal(outputs["counts"], expected)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=-1000, max_value=1000), min_size=0, max_size=50)
)
def test_sum_translation_matches_python_sum(data):
    compilation = _cached_sum()
    fragment = compilation.fragments[0]
    outputs = fragment.program.run({"data": list(data), "n": len(data)}).outputs
    assert outputs["total"] == sum(data)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        min_size=1,
        max_size=40,
    )
)
def test_minmax_translation_matches_python(data):
    compilation = _cached_minmax()
    fragment = compilation.fragments[0]
    outputs = fragment.program.run({"x": list(data), "n": len(data)}).outputs
    assert outputs["lo"] == pytest.approx(min(data))
    assert outputs["hi"] == pytest.approx(max(data))


_CACHE = {}


def _cached_wordcount():
    if "wc" not in _CACHE:
        _CACHE["wc"] = compile_benchmark(get_benchmark("phoenix_wordcount"))
    return _CACHE["wc"]


def _cached_sum():
    if "sum" not in _CACHE:
        _CACHE["sum"] = compile_benchmark(get_benchmark("ariths_sum"))
    return _CACHE["sum"]


def _cached_minmax():
    if "minmax" not in _CACHE:
        _CACHE["minmax"] = compile_benchmark(get_benchmark("stats_min_max"))
    return _CACHE["minmax"]
