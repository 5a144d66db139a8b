"""Tests for the cost model (Eqns 2-4) and the runtime monitor."""

from dataclasses import replace

import pytest

from repro import ExecOptions, Session, translate

from repro.baselines.fig8_solutions import (
    string_match_solution_a,
    string_match_solution_b,
    string_match_solution_c,
)
from repro.codegen.base import prepare_globals, record_env, view_records
from repro.codegen.kernels import CompiledSampler, render_sampler
from repro.cost import (
    CostModel,
    CostWeights,
    Implementation,
    RuntimeMonitor,
    estimate_from_sample,
    expr_static_size,
)
from repro.cost.monitor import SampleEstimates
from repro.errors import IRError, KernelUnsupported
from repro.graph.executor import interpret_fragment, run_graph
from repro.ir.builder import (
    add,
    and_,
    const,
    div,
    emit,
    eq,
    lt,
    map_stage,
    or_,
    pipeline,
    proj,
    reduce_stage,
    scalar_output,
    sub,
    summary,
    tup,
    var,
)
from repro.ir.nodes import CallFn, OutputBinding, TupleExpr, Var
from repro.lang.analysis.loops import DatasetField, DatasetView
from repro.lang.types import INT
from repro.planner.planner import ExecutionPlanner
from repro.workloads import all_benchmarks, datagen, get_benchmark
from repro.workloads.runner import compile_benchmark
from suite_cache import compiled


class TestStaticSizes:
    def test_string_and_boolean_pair_sizes(self):
        assert expr_static_size(Var("w", "String")) == 40
        assert expr_static_size(eq(Var("w", "String"), Var("k", "String"))) == 10
        assert expr_static_size(TupleExpr((const(True), const(False)))) == 28


class TestStaticCosts:
    def test_solution_a_matches_paper(self):
        """Fig. 8(d): λm cost 2·(40+10)·N, λr cost 2·2·50·N → 300N."""
        model = CostModel()
        cost = model.summary_cost(string_match_solution_a())
        assert cost.evaluate({}) == pytest.approx(300.0)

    def test_solution_b_matches_paper(self):
        """Fig. 8(d): λm 1·28·N + λr 2·28·N = 84N (constant routing key
        costs nothing — the reduction erases to a global reduce)."""
        model = CostModel()
        cost = model.summary_cost(string_match_solution_b())
        assert cost.evaluate({}) == pytest.approx(84.0)

    def test_solution_c_is_data_dependent(self):
        """Fig. 8(d): 150·(p1+p2)·N — zero at p=0, 150N at p1+p2=1."""
        model = CostModel()
        cost = model.summary_cost(string_match_solution_c())
        assert cost.lower_bound() == 0.0
        p_syms = sorted(cost.unknowns - {s for s in cost.unknowns if s.startswith("k_")})
        full = {s: 1.0 for s in cost.unknowns}
        assert cost.evaluate(full) == pytest.approx(300.0)
        half = {s: (0.25 if s.startswith("p_") else 1.0) for s in cost.unknowns}
        assert cost.evaluate(half) == pytest.approx(150.0 * 0.5 + 0.0, abs=40)

    def test_non_ca_reduce_penalized(self):
        model = CostModel()
        s = summary(
            pipeline(
                "d",
                map_stage(("v",), emit(const("k"), var("v"))),
                reduce_stage(add(var("v1"), var("v2"))),
            ),
            scalar_output("out", default=0),
        )
        ca = model.summary_cost(s, commutative_associative=True)
        non_ca = model.summary_cost(s, commutative_associative=False)
        assert non_ca.evaluate({}) > ca.evaluate({})
        assert non_ca.evaluate({}) / ca.evaluate({}) > 5  # Wcsg dominates

    def test_weights_are_paper_values(self):
        weights = CostWeights()
        assert (weights.wm, weights.wr, weights.wj, weights.wcsg) == (1.0, 2.0, 2.0, 50.0)

    def test_dominance_pruning_drops_solution_a(self):
        """Fig. 8: (a) is disqualified at compile time by (b)."""
        model = CostModel()
        a = string_match_solution_a()
        b = string_match_solution_b()
        costed = [(a, model.summary_cost(a)), (b, model.summary_cost(b))]
        survivors = model.prune_dominated(costed)
        assert [s for s, _ in survivors] == [b]

    def test_incomparable_solutions_both_survive(self):
        """(b) and (c) cannot be compared statically (unknown p1, p2)."""
        model = CostModel()
        b = string_match_solution_b()
        c = string_match_solution_c()
        costed = [(b, model.summary_cost(b)), (c, model.summary_cost(c))]
        survivors = model.prune_dominated(costed)
        assert len(survivors) == 2


class TestSampling:
    def sample(self, match_probability, n=1000):
        matched = int(n * match_probability)
        words = ["key1"] * (matched // 2) + ["key2"] * (matched - matched // 2)
        words += ["filler"] * (n - matched)
        return [{"word": w} for w in words]

    def test_probability_estimation(self):
        s = string_match_solution_c()
        env = {"key1": "key1", "key2": "key2"}
        estimates = estimate_from_sample(s, self.sample(0.5), env)
        total_p = sum(estimates.probabilities.values())
        assert total_p == pytest.approx(0.5, abs=0.01)

    def test_zero_match_probability(self):
        s = string_match_solution_c()
        env = {"key1": "key1", "key2": "key2"}
        estimates = estimate_from_sample(s, self.sample(0.0), env)
        assert all(p == 0.0 for p in estimates.probabilities.values())

    def test_distinct_key_ratio(self):
        s = summary(
            pipeline(
                "d",
                map_stage(("v",), emit(var("v"), const(1))),
                reduce_stage(add(var("v1"), var("v2"))),
            ),
            scalar_output("out", default=0),
        )
        sample = [{"v": i % 5} for i in range(100)]
        estimates = estimate_from_sample(s, sample, {})
        assert list(estimates.key_ratios.values()) == [pytest.approx(0.05)]


class TestRuntimeMonitor:
    def make_monitor(self):
        model = CostModel()
        b = string_match_solution_b()
        c = string_match_solution_c()
        return RuntimeMonitor(
            implementations=[
                Implementation("b", b, model.summary_cost(b)),
                Implementation("c", c, model.summary_cost(c)),
            ]
        )

    def sample(self, match_probability, n=2000):
        matched = int(n * match_probability)
        words = ["key1"] * matched + ["filler"] * (n - matched)
        return [{"word": w} for w in words]

    def choose(self, monitor, match_probability):
        """``choose``'s decision by name, with every cost; the monitor is
        left as it was, so jobs sharing it cannot read each other's."""
        before = dict(vars(monitor))
        env = {"key1": "key1", "key2": "key2"}
        index, costs = monitor.choose(self.sample(match_probability), env)
        assert vars(monitor) == before
        return monitor.implementations[index].name, costs

    def test_low_skew_prefers_guarded_solution(self):
        """Fig. 8(c): 0% and 50% match → solution (c) wins."""
        monitor = self.make_monitor()
        assert self.choose(monitor, 0.0) == ("c", {"b": 84.0, "c": 0.0})
        assert self.choose(monitor, 0.5) == ("c", {"b": 84.0, "c": 75.0})

    def test_high_skew_prefers_tuple_solution(self):
        """Fig. 8(c): 95% match → solution (b) wins."""
        monitor = self.make_monitor()
        assert self.choose(monitor, 0.95) == ("b", {"b": 84.0, "c": 142.5})

    def test_first_lowest_cost_wins_a_tie(self):
        model = CostModel()
        b = string_match_solution_b()
        monitor = RuntimeMonitor(
            implementations=[
                Implementation(name, b, model.summary_cost(b)) for name in "xyz"
            ]
        )
        env = {"key1": "key1", "key2": "key2"}
        index, costs = monitor.choose(self.sample(0.5), env)
        assert index == 0 and len(set(costs.values())) == 1


class TestCostedOnce:
    """§5.1 gives each verified summary one symbolic cost: it is computed
    when the summary's ``GeneratedProgram`` is built, for pruning, and
    pruning, the monitor, the planner and the fused-chain pick all read
    that one expression — no run computes it again.  The count is of
    the summaries the acceptance gate keeps: a fragment with a proved
    summary drops its bounded-only twins before codegen, uncosted."""

    @pytest.mark.parametrize(
        "name, verified",
        [("ariths_average", 1), ("phoenix_string_match", 5), ("joins_q3_revenue", 4)],
    )
    def test_summary_cost_runs_once_per_verified_summary(
        self, monkeypatch, name, verified
    ):
        calls = []
        original = CostModel.summary_cost

        def counting(self, summary, commutative_associative=True):
            calls.append(summary)
            return original(self, summary, commutative_associative)

        monkeypatch.setattr(CostModel, "summary_cost", counting)
        compilation = compile_benchmark(get_benchmark(name))  # no cache: cold
        assert compilation.cache_hits == 0
        searched = sum(
            len(f.search.summaries) for f in compilation.fragments if f.search
        )
        assert len(calls) == searched == verified
        inputs = get_benchmark(name).make_inputs(300, 7)
        env = dict(inputs)
        for fragment in compilation.fragments:
            if fragment.translated:
                for _ in range(3):
                    fragment.program.run(dict(env), ExecOptions(plan="auto"))
            env.update(interpret_fragment(fragment.analysis, env))
        run_graph(compilation.job_graph, dict(inputs))
        assert len(calls) == verified, "a run costed an implementation again"


# ----------------------------------------------------------------------
# The compiled sampler (what every job runs) == the reference estimator


def _same_estimates(got, want) -> bool:
    """Equal keys, values *and* insertion order, dict by dict."""
    return (
        list(got.probabilities.items()) == list(want.probabilities.items())
        and list(got.key_ratios.items()) == list(want.key_ratios.items())
        and got.sample_size == want.sample_size
        and list(got.as_dict().items()) == list(want.as_dict().items())
    )


def _reference(program, head, globals_env, right=None):
    """``estimate_from_sample`` over ``head`` bound the way the parent
    commit's ``sample_elements`` / ``_right_samples`` bound it."""
    view = program.analysis.view
    join = program.analysis.join
    right_envs = None
    if right:
        right_envs = {
            source: [record_env(join.side_for(source).view, r) for r in records]
            for source, records in right.items()
        }
    return estimate_from_sample(
        program.summary,
        [record_env(view, r) for r in head],
        globals_env,
        right_samples=right_envs,
    )


def _scalar_view(var_name="v"):
    return DatasetView(
        kind="foreach",
        sources=["d"],
        element_fields=[DatasetField(var_name, INT)],
        element_var=var_name,
    )


def _sampled(pipe, records, globals_env=None, view=None):
    """A hand-built pipeline through the compiled sampler and through
    the reference, over a scalar ``foreach`` view."""
    view = view or _scalar_view()
    got = SampleEstimates(sample_size=len(records))
    CompiledSampler(pipe, view, {}).run(
        records, globals_env or {}, {}, got.probabilities, got.key_ratios
    )
    want = estimate_from_sample(
        summary(pipe, scalar_output("out", default=0)),
        [record_env(view, r) for r in records],
        globals_env or {},
    )
    return got, want


@pytest.mark.parametrize("name", [b.name for b in all_benchmarks()])
def test_compiled_sampler_equals_reference_on_the_suite(name):
    """Every implementation of every translated suite fragment: the
    estimates are equal, not close — and came from the sampler (a
    fallback would make this comparison the reference with itself)."""
    env = dict(get_benchmark(name).make_inputs(400, 11))
    for fragment in compiled(name).fragments:
        if fragment.analysis is None:
            continue
        if fragment.translated:
            analysis = fragment.analysis
            head = view_records(analysis.view, env)[:5000]
            globals_env, _ = prepare_globals(analysis, env)
            for program in fragment.program.programs:
                got = program.sample_estimates(head, globals_env)
                assert got.diagnostics == []
                assert _same_estimates(got, _reference(program, head, globals_env))
                right = ExecutionPlanner._right_samples(program, env)
                if right is not None:  # the planner's pass over a join
                    got = program.sample_estimates(head, globals_env, right)
                    assert got.diagnostics == []
                    want = _reference(program, head, globals_env, right)
                    assert _same_estimates(got, want)
                    assert any(not k.endswith("_j") for k in want.as_dict())
        env.update(interpret_fragment(fragment.analysis, env))


class TestCompiledSamplerEdges:
    def test_emit_major_order_decides_the_first_value_after_a_reduce(self):
        """Two emits feed one key different values; the reduce keeps the
        first per key, the next map filters on it.  Record-major order
        would keep -1 for key 1 and report p = 0."""
        pipe = pipeline(
            "d",
            map_stage(
                ("v",),
                emit(const(1), var("v"), when=lt(const(5), var("v"))),
                emit(const(1), sub(const(0), var("v"))),
            ),
            reduce_stage(add(var("v1"), var("v2"))),
            map_stage(("k", "v"), emit(var("k"), var("v"), when=lt(const(0), var("v")))),
            reduce_stage(add(var("v1"), var("v2"))),
        )
        got, want = _sampled(pipe, [1, 7, 2])
        assert _same_estimates(got, want)
        assert want.probabilities == {"p_s0_0": 1 / 3, "p_s2_0": 1.0}
        assert want.key_ratios == {"k_s1": 0.25, "k_s3": 1.0}

    def test_first_seen_key_order_and_key_identity_after_a_reduce(self):
        """``True`` / ``1`` / ``1.0`` are one key; the pair map after the
        reduce sees the first-seen key object and first value."""
        pipe = pipeline(
            "d",
            map_stage(("v",), emit(var("v"), var("v"))),
            reduce_stage(add(var("v1"), var("v2"))),
            map_stage(
                ("k", "v"),
                emit(var("k"), var("v"), when=eq(var("v"), const(True))),
            ),
        )
        got, want = _sampled(pipe, [True, 1, 1.0, 0, 0.0, 2])
        assert _same_estimates(got, want)
        assert want.key_ratios == {"k_s1": 0.5}

    def test_pair_map_over_no_pairs_records_no_probability(self):
        pipe = pipeline(
            "d",
            map_stage(("v",), emit(var("v"), var("v"), when=lt(var("v"), const(0)))),
            map_stage(("k", "v"), emit(var("k"), var("v"), when=lt(var("v"), const(0)))),
            reduce_stage(add(var("v1"), var("v2"))),
        )
        got, want = _sampled(pipe, [1, 2, 3])
        assert _same_estimates(got, want)
        assert want.as_dict() == {"p_s0_0": 0.0, "k_s2": 0.0}

    def test_globals_are_shadowed_by_record_atoms(self):
        pipe = pipeline(
            "d", map_stage(("v",), emit(var("v"), var("w"), when=lt(var("v"), var("w"))))
        )
        got, want = _sampled(pipe, [1, 5, 9], {"v": 100, "w": 6})
        assert _same_estimates(got, want)
        assert want.probabilities == {"p_s0_0": 2 / 3}

    def test_empty_head_is_answered_without_a_kernel(self):
        program = _wordcount().programs[0]
        got = program.sample_estimates([], {})
        assert _same_estimates(got, estimate_from_sample(program.summary, [], {}))
        assert got.as_dict() == {} and got.sample_size == 0
        assert program._sampler is None

    def test_head_shorter_than_k_and_a_streaming_head(self):
        adaptive = _wordcount()
        words = datagen.words(37, 5)
        for records in (list(words), datagen.large_scale(37, seed=9, kind="words")):
            head = adaptive.sample_head(records)
            assert isinstance(head, list) and len(head) == 37
            sampled: dict = {}
            adaptive.monitor.choose(head, {}, estimates_out=sampled)
            [program] = adaptive.programs
            assert _same_estimates(sampled["impl_0"], _reference(program, head, {}))
            assert sampled["impl_0"].sample_size == 37

    def test_join_without_right_samples_stops_at_the_join(self):
        fragment = compiled("joins_q3_revenue").fragments[0]
        env = get_benchmark("joins_q3_revenue").make_inputs(200, 3)
        head = view_records(fragment.analysis.view, env)[:5000]
        globals_env, _ = prepare_globals(fragment.analysis, env)
        program = fragment.program.programs[0]
        for right in (None, {}, {"customer": []}):
            got = program.sample_estimates(head, globals_env, right)
            assert got.as_dict() == {"p_s1_j": 1.0} and got.diagnostics == []

    def test_a_pipeline_the_sampler_cannot_open_is_refused(self):
        pipe = pipeline("d", reduce_stage(add(var("v1"), var("v2"))))
        with pytest.raises(KernelUnsupported, match="map stage"):
            render_sampler(pipe, _scalar_view(), {})

    def test_kernels_are_rendered_on_first_run_not_at_compile_time(self):
        result = translate(WORDCOUNT)
        [program] = result.fragments[0].program.programs
        assert program._sampler is None
        result.fragments[0].program.run({"words": ["a", "b", "a"]})
        sampler = program._sampler
        assert "k_s1" in sampler.source
        result.fragments[0].program.run({"words": ["c"]})
        assert program._sampler is sampler


class TestSamplerFallback:
    """Fallback is never silent, and never changes the outcome."""

    def _sum_program(self, new_summary):
        fragment = compiled("ariths_sum").fragments[0]
        [program] = fragment.program.programs[:1]
        return replace(program, summary=new_summary)

    def _division(self):
        return summary(
            pipeline(
                "data",
                map_stage(("i", "data"), emit(const("t"), div(const(100), var("data")))),
                reduce_stage(add(var("v1"), var("v2"))),
            ),
            scalar_output("t", default=0),
        )

    def test_a_summary_the_renderer_refuses(self):
        # The unmodelled call sits behind a filter no sample record
        # passes, so the reference estimator answers without meeting it.
        unmodelled = summary(
            pipeline(
                "data",
                map_stage(
                    ("i", "data"),
                    emit(
                        const("t"),
                        CallFn("frobnicate", (var("data"),)),
                        when=lt(var("data"), const(0)),
                    ),
                ),
                reduce_stage(add(var("v1"), var("v2"))),
            ),
            scalar_output("t", default=0),
        )
        program = self._sum_program(unmodelled)
        head = [(i, i * 3) for i in range(50)]
        got = program.sample_estimates(head, {})
        assert _same_estimates(got, _reference(program, head, {}))
        assert got.as_dict() == {"p_s0_0": 0.0, "k_s1": 0.0}
        [fallback] = got.diagnostics
        assert (fallback.code, fallback.severity) == ("REP309", "info")
        assert "KernelUnsupported: unmodelled IR function" in fallback.message
        assert fallback.fragment == program.analysis.fragment.id

    def test_a_non_finite_constant_samples_compiled(self):
        infinite = summary(
            pipeline(
                "data",
                map_stage(
                    ("i", "data"),
                    emit(const("t"), var("data"), when=lt(var("data"), const(float("inf")))),
                ),
                reduce_stage(add(var("v1"), var("v2"))),
            ),
            scalar_output("t", default=0),
        )
        program = self._sum_program(infinite)
        head = [(i, i * 3) for i in range(50)]
        got = program.sample_estimates(head, {})
        assert _same_estimates(got, _reference(program, head, {}))
        assert got.as_dict() == {"p_s0_0": 1.0, "k_s1": 0.02}
        assert got.diagnostics == []

    def test_third_record_divides_by_zero(self):
        """The sampler trips on the record; the reference estimator then
        raises what it raised at the parent commit."""
        program = self._sum_program(self._division())
        head = [(0, 5), (1, 4), (2, 0), (3, 2)]
        with pytest.raises(IRError, match="division by zero") as compiled_error:
            program.sample_estimates(head, {})
        with pytest.raises(IRError) as reference_error:
            _reference(program, head, {})
        assert str(compiled_error.value) == str(reference_error.value)
        # ... and answers where it answered: the zero sits past the head.
        got = program.sample_estimates(head[:2], {})
        assert got.diagnostics == [] and got.as_dict() == {"k_s1": 0.5}

    def test_sampler_trips_where_the_reference_does_not(self):
        """``compile_kernel`` binds globals eagerly; ``eval_expr`` only
        meets an unbound one if a record gets that far."""
        lazy = summary(
            pipeline(
                "data",
                map_stage(
                    ("i", "data"),
                    emit(
                        const("t"),
                        var("data"),
                        when=and_(lt(var("data"), const(0)), lt(var("missing"), const(1))),
                    ),
                ),
                reduce_stage(add(var("v1"), var("v2"))),
            ),
            scalar_output("t", default=0),
        )
        program = self._sum_program(lazy)
        head = [(i, i + 1) for i in range(10)]
        got = program.sample_estimates(head, {})
        assert _same_estimates(got, _reference(program, head, {}))
        assert got.as_dict() == {"p_s0_0": 0.0, "k_s1": 0.0}
        assert [d.code for d in got.diagnostics] == ["REP309"]
        assert "unbound IR variable 'missing'" in got.diagnostics[0].message

    def test_fallback_lands_on_the_plan_report_with_the_same_decision(self, monkeypatch):
        adaptive = compiled("phoenix_string_match").fragments[0].program
        env = get_benchmark("phoenix_string_match").make_inputs(400, 11)
        head = adaptive.sample_head(view_records(adaptive.analysis.view, env))
        globals_env, _sizes = prepare_globals(adaptive.analysis, env)
        clean = adaptive.run(dict(env), ExecOptions(plan="auto"))
        choice, costs = adaptive.monitor.choose(head, globals_env)
        assert not [d for d in clean.plan_report.diagnostics if d.code == "REP309"]
        assert len(costs) > 1
        assert clean.plan_report.implementation == f"impl_{choice}"

        def refuse(*_args, **_kwargs):
            raise KernelUnsupported("refused for the test")

        monkeypatch.setattr("repro.codegen.kernels.render_sampler", refuse)
        for program in adaptive.programs:
            monkeypatch.setattr(program, "_sampler", None)
        ran = adaptive.run(dict(env), ExecOptions(plan="auto"))
        fallbacks = [d for d in ran.plan_report.diagnostics if d.code == "REP309"]
        assert len(fallbacks) == len(adaptive.programs)
        assert all("refused for the test" in d.message for d in fallbacks)
        assert adaptive.monitor.choose(head, globals_env) == (choice, costs)
        assert ran.outputs == clean.outputs
        assert ran.plan_report.implementation == clean.plan_report.implementation
        assert ran.plan_report.plan.stages == clean.plan_report.plan.stages
        # a run with no plan forces the default framework: same report
        unplanned = adaptive.run(dict(env))
        codes = [d.code for d in unplanned.plan_report.diagnostics]
        assert codes.count("REP309") == len(fallbacks)

    def test_fallbacks_reach_the_job_result_of_every_job_kind(self, monkeypatch):
        compilation = compiled("phoenix_string_match")
        adaptive = compilation.fragments[0].program
        env = get_benchmark("phoenix_string_match").make_inputs(400, 11)

        def refuse(*_args, **_kwargs):
            raise KernelUnsupported("refused for the test")

        monkeypatch.setattr("repro.codegen.kernels.render_sampler", refuse)
        for program in adaptive.programs:
            monkeypatch.setattr(program, "_sampler", None)
        with Session(max_workers=0, observe=False) as session:
            whole = session.run(compilation, dict(env))
            fragment = session.run(compilation, dict(env), fragment_index=0)
        for job in (whole, fragment):
            assert job.ok
            codes = [d.code for d in job.diagnostics]
            assert codes.count("REP309") == len(adaptive.programs)
            # The run's report is the tail of the job's list (compile and
            # admission come first), and it holds every REP3xx.
            run = job.plan_report.diagnostics
            assert job.diagnostics[len(job.diagnostics) - len(run) :] == run
            assert [d.code for d in run if d.code.startswith("REP3")] == [
                code for code in codes if code.startswith("REP3")
            ]


WORDCOUNT = """
Map<String, Integer> wc(List<String> words) {
  Map<String, Integer> counts = new HashMap<String, Integer>();
  for (String w : words) { counts.put(w, counts.getOrDefault(w, 0) + 1); }
  return counts;
}
"""


def _wordcount():
    """A fresh adaptive program (not the shared suite object)."""
    return translate(WORDCOUNT).fragments[0].program
