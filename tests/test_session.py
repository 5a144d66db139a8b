"""The session API: ExecOptions normalization, JobResults, concurrency.

The contract under test: a :class:`Session` is the one way to run a
job, and takes one :class:`repro.ExecOptions` (a bare legacy keyword is
a ``TypeError``); :meth:`Session.submit` returns results that *carry*
their plan reports and admission decisions, stays identical to the
graph executor it calls even under concurrent mixed-budget submissions,
and never writes session state — observation store, engine
configuration — onto the compiled program it runs.
"""

from __future__ import annotations

import sys
import warnings

import pytest

import repro
from repro import ExecOptions, Session
from repro.compiler import translate
from repro.cost.observe import ObservationStore
from repro.engine.config import EngineConfig
from repro.errors import ServeError
from repro.graph import run_graph
from repro.options import check_options

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

DATA = [((i * 37) % 101) - 50 for i in range(3000)]
WORDS = [f"w{i % 17}" for i in range(3000)]

_COMPILED: dict[str, object] = {}


def compiled(source: str):
    if source not in _COMPILED:
        _COMPILED[source] = translate(source)
    return _COMPILED[source]


class TestExecOptions:
    def test_rejects_unknown_plan(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExecOptions(plan="quantum")

    def test_rejects_unknown_kernel(self):
        # No kernel is known: the option is gone, any spelling is stray.
        with pytest.raises(TypeError):
            ExecOptions(kernel="jit")
        with pytest.raises(ValueError, match="unknown ExecOptions field"):
            ExecOptions.from_dict({"kernel": "jit"})

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError, match="memory_budget"):
            ExecOptions(memory_budget=0)

    def test_outputs_normalized_to_tuple(self):
        assert ExecOptions(outputs=["a", "b"]).outputs == ("a", "b")

    def test_merged_replaces_fields(self):
        base = ExecOptions(plan="auto")
        assert base.merged(memory_budget=1 << 20) == ExecOptions(
            plan="auto", memory_budget=1 << 20
        )

    def test_dict_round_trip(self):
        options = ExecOptions(plan="auto", outputs=("x",), strict=False)
        assert ExecOptions.from_dict(options.as_dict()) == options

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown ExecOptions"):
            ExecOptions.from_dict({"plann": "auto"})


class TestNormalizeExecOptions:
    """One spelling: an ``ExecOptions`` or nothing; bare keywords are gone."""

    def test_options_pass_through_silently(self):
        given = ExecOptions(plan="auto")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_options(given, "caller") is given
            assert check_options(None, "caller") == ExecOptions()
        with pytest.raises(TypeError, match="caller: options must be"):
            check_options("auto", "caller")

    def test_options_plus_legacy_raises(self):
        compilation = compiled(SUM_SOURCE)
        inputs = {"data": DATA, "n": len(DATA)}
        with Session(max_workers=0) as session:
            with pytest.raises(TypeError, match="plan"):
                session.run(compilation, dict(inputs), ExecOptions(), plan="auto")

    def test_unknown_legacy_name_raises(self):
        compilation = compiled(SUM_SOURCE)
        inputs = {"data": DATA, "n": len(DATA)}
        with Session(max_workers=0) as session:
            for entry_point in (session.submit, session.run):
                with pytest.raises(TypeError, match="pln"):
                    entry_point(compilation, dict(inputs), pln="auto")
                with pytest.raises(TypeError, match="plan"):
                    entry_point(compilation, dict(inputs), plan="auto")

    def test_fragment_job_accepts_options(self):
        compilation = compiled(SUM_SOURCE)
        inputs = {"data": DATA, "n": len(DATA)}
        with warnings.catch_warnings(), Session(max_workers=0) as session:
            warnings.simplefilter("error", DeprecationWarning)
            job = session.run(
                compilation, dict(inputs), ExecOptions(plan="auto"), fragment_index=0
            )
        assert job.outputs == {"total": sum(DATA)}


class TestSessionInline:
    """max_workers=0: the submit path with no pool, on the caller's thread."""

    def test_identity_with_run_graph(self):
        compilation = compiled(SUM_SOURCE)
        inputs = {"data": DATA, "n": len(DATA)}
        expected = run_graph(compilation.job_graph, dict(inputs)).outputs
        with Session(max_workers=0) as session:
            job = session.run(compilation, dict(inputs))
        assert job.ok
        assert job.outputs == expected

    def test_fragment_index_matches_adaptive_program_run(self):
        compilation = compiled(SUM_SOURCE)
        inputs = {"data": DATA, "n": len(DATA)}
        expected = compilation.fragments[0].program.run(dict(inputs)).outputs
        with Session(max_workers=0) as session:
            job = session.run(compilation, dict(inputs), fragment_index=0)
        assert job.outputs == expected

    def test_jobresult_carries_report_and_admission(self):
        compilation = compiled(SUM_SOURCE)
        inputs = {"data": DATA, "n": len(DATA)}
        with Session(max_workers=0) as session:
            job = session.run(
                compilation, dict(inputs), ExecOptions(memory_budget=1 << 14)
            )
        assert job.ok
        assert job.plan_report is not None
        # The admission decision lands both on the result and inside the
        # report's evidence trail.
        assert job.admission["mode"] in ("concurrent", "exclusive")
        assert job.plan_report.admission == job.admission
        assert job.admission["footprint_bytes"] == 2 * (1 << 14)

    def test_submit_by_program_id(self):
        with Session(max_workers=0) as session:
            prog = session.compile(SUM_SOURCE)
            job = session.run(prog.program_id, {"data": DATA, "n": len(DATA)})
        assert job.outputs == {"total": sum(DATA)}

    def test_unknown_program_id_raises(self):
        with Session(max_workers=0) as session:
            with pytest.raises(ServeError, match="unknown program"):
                session.submit("prog-nope", {})

    def test_finished_jobs_are_evicted_oldest_first(self):
        inputs = {"data": [1, 2, 3], "n": 3}
        with Session(max_workers=0, observe=False) as session:
            prog = session.compile(SUM_SOURCE)
            handles = [
                session.submit(prog, inputs, fragment_index=0) for _ in range(1100)
            ]
            assert session.info()["jobs"] <= 1024
            assert session.result(handles[-1].job_id).outputs == {"total": 6}
            with pytest.raises(ServeError, match="unknown or evicted"):
                session.result(handles[0].job_id)
            # A handle the caller kept still answers.
            assert handles[0].result().outputs == {"total": 6}

    def test_closed_session_rejects_submissions(self):
        session = Session(max_workers=0)
        session.close()
        with pytest.raises(ServeError, match="closed"):
            session.submit(compiled(SUM_SOURCE), {})

    def test_execution_failure_is_delivered_not_raised(self):
        compilation = compiled(SUM_SOURCE)
        with Session(max_workers=0) as session:
            job = session.run(compilation, {})  # missing inputs
        assert not job.ok
        assert job.status == "error"
        assert job.error
        assert job.admission is not None


class TestSessionConcurrent:
    def test_mixed_budget_jobs_identical_to_direct_run(self):
        sum_comp = compiled(SUM_SOURCE)
        wc_comp = compiled(WORDCOUNT_SOURCE)
        sum_inputs = {"data": DATA, "n": len(DATA)}
        wc_inputs = {"words": WORDS}
        expected_sum = run_graph(sum_comp.job_graph, dict(sum_inputs)).outputs
        expected_wc = run_graph(wc_comp.job_graph, dict(wc_inputs)).outputs

        budget = ExecOptions(memory_budget=1 << 14)
        with Session(max_workers=4) as session:
            jobs = []
            for i in range(4):
                options = budget if i % 2 else None
                jobs.append(session.submit(sum_comp, dict(sum_inputs), options))
                jobs.append(session.submit(wc_comp, dict(wc_inputs), options))
            results = [job.result(timeout=300) for job in jobs]

        assert len(results) == 8
        assert all(r.ok for r in results), [r.error for r in results]
        for i, result in enumerate(results):
            expected = expected_wc if i % 2 else expected_sum
            assert result.outputs == expected
            assert result.admission["mode"] in ("concurrent", "exclusive")
        # The budgeted submissions were planned and carry their own
        # reports — no cross-job smearing through shared last-run state.
        budgeted = [r for i, r in enumerate(results) if (i // 2) % 2]
        assert all(r.plan_report is not None for r in budgeted)
        spilled = [
            unit.spill_stats["spilled_bytes"]
            for r in budgeted
            for unit in r.plan_report.unit_reports.values()
            if unit.spill_stats
        ]
        assert spilled and max(spilled) > 0

    def test_same_program_jobs_serialize_but_stay_correct(self):
        compilation = compiled(SUM_SOURCE)
        inputs = {"data": DATA, "n": len(DATA)}
        with Session(max_workers=4) as session:
            jobs = [
                session.submit(
                    compilation,
                    dict(inputs),
                    ExecOptions(memory_budget=1 << (14 + i % 3)),
                )
                for i in range(6)
            ]
            results = [job.result(timeout=300) for job in jobs]
        assert all(r.ok for r in results)
        assert {tuple(r.outputs.items()) for r in results} == {(("total", sum(DATA)),)}
        # Each job's report reflects its *own* budget.
        budgets = sorted(r.admission["footprint_bytes"] // 2 for r in results)
        assert budgets == sorted(1 << (14 + i % 3) for i in range(6))


class TestPublicApi:
    def test_stable_names_exported(self):
        for name in (
            "Session",
            "ExecOptions",
            "JobResult",
            "compile",
            "connect",
            "serve",
            "errors",
        ):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_compile_is_translate(self):
        assert repro.compile is repro.translate

    def test_version_bumped(self):
        assert repro.__version__ == "1.8.0"

    def test_all_is_small_and_dropped_names_stay_importable(self):
        assert len(repro.__all__) <= 20
        from repro.compiler import CasperCompiler  # noqa: F401
        from repro.engine.source import JsonlSource, TextSource  # noqa: F401
        from repro.graph import GraphRunResult, JobGraph  # noqa: F401
        from repro.pipeline import PassPipeline  # noqa: F401
        from repro.planner import (  # noqa: F401
            DagPlanner,
            ExecutionPlan,
            ExecutionPlanner,
            GraphPlanReport,
            PlanReport,
        )

    def test_one_door_to_run_a_job(self):
        import repro.compiler

        for gone in ("run_program", "run_translated"):
            assert not hasattr(repro, gone)
            assert not hasattr(repro.compiler, gone)
        assert not hasattr(repro.compiler, "_run_program")
        assert not hasattr(repro.compiler, "_run_fragment")


class TestNoSharedProgramState:
    """A session hands its observation store to each job; it never writes
    it (or a feedback flag) onto the compiled program, so a program run by
    an observing session and then by a non-observing one is not tuned by
    the first session's store."""

    @pytest.mark.parametrize("fragment_index", [None, 0], ids=["graph", "fragment"])
    def test_observing_session_leaves_the_program_untouched(
        self, monkeypatch, fragment_index
    ):
        compilation = translate(SUM_SOURCE)
        program = compilation.fragments[0].program
        inputs = {"data": DATA, "n": len(DATA)}
        options = ExecOptions(plan="auto")
        recorded = []
        original = ObservationStore.record

        def spy(store, observation):
            recorded.append(store)
            return original(store, observation)

        monkeypatch.setattr(ObservationStore, "record", spy)

        # Warm the program's own lazily built parts (planner, samplers,
        # observation key) with a feedback run of a throwaway session.
        with Session(max_workers=0) as warmup:
            assert warmup.run(compilation, dict(inputs), options, fragment_index).ok
        before = dict(vars(program))
        recorded.clear()

        with Session(max_workers=0, observe=True) as observing:
            first = observing.run(compilation, dict(inputs), options, fragment_index)
        assert first.ok, first.error
        assert recorded == [observing.observations]

        recorded.clear()
        with Session(max_workers=0, observe=False) as independent:
            second = independent.run(compilation, dict(inputs), options, fragment_index)
        assert second.ok, second.error
        assert second.outputs == first.outputs
        assert recorded == []  # no store consulted or refreshed
        assert vars(program).keys() == before.keys()
        changed = [
            name for name, value in before.items() if vars(program)[name] is not value
        ]
        assert changed == []


class TestSessionEngineConfig:
    """The engine configuration belongs to the session and goes down with
    each job: one shared compilation, priced by two sessions at two
    scales, gives every job its own session's price — interleaved or
    concurrent — and comes back unchanged."""

    CONFIGS = (EngineConfig(), EngineConfig(scale=1e4))

    @pytest.fixture(scope="class")
    def shared(self):
        from benchmarks.counter_dump import RECORDS, SEED
        from repro.workloads import get_benchmark
        from suite_cache import compiled as suite_compiled

        compilation = suite_compiled("ariths_sum")
        inputs = get_benchmark("ariths_sum").make_inputs(RECORDS, SEED)
        [index] = [i for i, f in enumerate(compilation.fragments) if f.translated]
        return compilation, inputs, index

    @staticmethod
    def _text(shared):
        from benchmarks.counter_dump import fragment_text

        compilation, inputs, index = shared
        program = compilation.fragments[index].program
        return fragment_text(program, inputs, ExecOptions(plan="spark"))

    @staticmethod
    def _seconds(job):
        result = job.result(timeout=300)
        assert result.ok, result.error
        return result.metrics.simulated_seconds

    def _alone(self, shared):
        compilation, inputs, index = shared
        seconds = []
        for config in self.CONFIGS:
            with Session(max_workers=0, engine_config=config) as session:
                job = session.submit(compilation, dict(inputs), fragment_index=index)
                seconds.append(self._seconds(job))
        assert seconds[0] < seconds[1]
        return seconds

    def test_interleaved_jobs_price_under_their_own_session(self, shared):
        compilation, inputs, index = shared
        before = self._text(shared)
        alone = self._alone(shared)
        sessions = [Session(max_workers=0, engine_config=c) for c in self.CONFIGS]
        for _ in range(3):
            for session, expected in zip(sessions, alone):
                job = session.submit(compilation, dict(inputs), fragment_index=index)
                assert self._seconds(job) == expected
        assert self._text(shared) == before

    def test_concurrent_jobs_price_under_their_own_session(self, shared):
        compilation, inputs, index = shared
        before = self._text(shared)
        alone = self._alone(shared)
        sessions = [Session(max_workers=2, engine_config=c) for c in self.CONFIGS]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the job threads finely
        try:
            jobs = [
                (session.submit(compilation, dict(inputs), fragment_index=index), want)
                for _ in range(3)
                for session, want in zip(sessions, alone)
            ]
            assert [self._seconds(job) for job, _ in jobs] == [w for _, w in jobs]
        finally:
            sys.setswitchinterval(interval)
            for session in sessions:
                session.close()
        assert self._text(shared) == before
