"""The returned-outcome contract: one ``ExecOptions`` down, one ``JobResult`` back.

Every run layer returns what its own call produced, as the one
``repro.JobResult`` — nothing is read back from the shared program or
compilation — so two calls on the *same* object, overlapping in time,
cannot see each other's evidence.
None of these tests can be written against "last run" accessors: the
property is exactly that no such state exists.
"""

from __future__ import annotations

import threading

from repro import ExecOptions, JobResult, Session, translate
from repro.graph import run_graph
from repro.planner import GraphPlanReport, PlanReport

SUM_SOURCE = """
int sum(int[] data, int n) {
  int total = 0;
  for (int i = 0; i < n; i++) total += data[i];
  return total;
}
"""

TWO_BRANCH_SOURCE = """
int both(int[] data, int n) {
  int a = 0;
  for (int i = 0; i < n; i++) a += data[i];
  int b = 0;
  for (int j = 0; j < n; j++) b += data[j] * data[j];
  return a + b;
}
"""


def _run_concurrently(run, datasets: list[list[int]], rounds: int = 8) -> list[list]:
    """``run(data)`` from one thread per dataset, every round started
    together; the results per thread, in order."""
    barrier = threading.Barrier(len(datasets))
    results: list[list] = [[] for _ in datasets]

    def worker(slot: int) -> None:
        for _ in range(rounds):
            barrier.wait(timeout=60)  # start every round together
            results[slot].append(run(datasets[slot]))

    threads = [
        threading.Thread(target=worker, args=(slot,)) for slot in range(len(datasets))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert [len(per_slot) for per_slot in results] == [rounds] * len(datasets)
    return results


def test_concurrent_runs_of_one_program_return_their_own_outcome():
    """No Session, so no ``entry.lock``: the compilation is shared raw —
    by ``AdaptiveProgram.run`` callers and by ``run_graph`` callers."""
    compilation = translate(SUM_SOURCE)
    program = compilation.fragments[0].program
    sizes = (4000, 37)
    datasets = [[(i * 7) % 13 for i in range(size)] for size in sizes]
    options = ExecOptions(plan="sequential")

    fragment_runs = _run_concurrently(
        lambda data: program.run({"data": list(data), "n": len(data)}, options),
        datasets,
    )
    for data, per_slot in zip(datasets, fragment_runs):
        for ran in per_slot:
            assert isinstance(ran, JobResult) and ran.ok
            assert isinstance(ran.plan_report, PlanReport)
            assert ran.outputs == {"total": sum(data)}
            assert ran.plan_report.input_records == len(data)
            assert ran.plan_report.plan.backend == "sequential"
            assert ran.metrics.stages[0].records_in == len(data)
            assert ran.plan_report.implementation is not None

    graph_runs = _run_concurrently(
        lambda data: run_graph(
            compilation.job_graph, {"data": list(data), "n": len(data)}, options
        ),
        datasets,
    )
    for data, per_slot in zip(datasets, graph_runs):
        for ran in per_slot:
            assert isinstance(ran, JobResult) and ran.ok
            assert isinstance(ran.plan_report, GraphPlanReport)
            assert ran.outputs == {"total": sum(data)}
            (unit_report,) = ran.plan_report.unit_reports.values()
            assert unit_report.input_records == len(data)
            assert unit_report.backend_used == "sequential"

    # Distinct calls, distinct objects — nothing is a shared "last" slot.
    for runs in (fragment_runs, graph_runs):
        reports = [ran.plan_report for per_slot in runs for ran in per_slot]
        assert len({id(report) for report in reports}) == len(reports)


def test_every_run_layer_returns_a_job_result():
    compilation = translate(SUM_SOURCE)
    data = list(range(50))
    inputs = {"data": data, "n": len(data)}
    adaptive = compilation.fragments[0].program
    with Session(max_workers=0) as session:
        runs = {
            "GeneratedProgram.run": adaptive.programs[0].run(dict(inputs)),
            "AdaptiveProgram.run": adaptive.run(dict(inputs)),
            "run_graph": run_graph(compilation.job_graph, dict(inputs)),
            "Session.run": session.run(compilation, dict(inputs)),
            "Session.run(fragment_index=0)": session.run(
                compilation, dict(inputs), fragment_index=0
            ),
        }
    for layer, ran in runs.items():
        assert type(ran) is JobResult, layer
        assert ran.ok and ran.outputs == {"total": sum(data)}, layer
        assert ran.plan_report is not None, layer
    # The run layers leave the session's share empty; the session fills it.
    assert runs["AdaptiveProgram.run"].job_id == ""
    assert runs["AdaptiveProgram.run"].admission is None
    assert runs["Session.run"].job_id and runs["Session.run"].admission
    # The engine's account reaches the caller through the report alone.
    bare = runs["GeneratedProgram.run"].plan_report
    assert bare.backend_used == "spark"
    assert not any(d.code.startswith("REP3") for d in bare.diagnostics)


def test_concurrent_wave_units_each_land_their_own_report():
    result = translate(TWO_BRANCH_SOURCE)
    data = list(range(64))
    run = run_graph(
        result.job_graph,
        {"data": data, "n": len(data)},
        ExecOptions(plan="sequential"),
    )
    # Both aggregates are independent: one wave (concurrent on the
    # modelled cluster, run one after the other here).
    assert run.plan_report.plan.waves == [(0, 1)]
    unit_reports = run.plan_report.unit_reports
    assert sorted(unit_reports) == ["both#0", "both#1"]
    first, second = unit_reports["both#0"], unit_reports["both#1"]
    assert first is not second
    for report in (first, second):
        assert report.input_records == len(data)
        assert report.backend_used == "sequential"
    assert run.outputs["a"] == sum(data)
    assert run.outputs["b"] == sum(x * x for x in data)


def test_implied_plan_rule_has_one_definition():
    """``memory_budget`` or ``feedback=True`` with ``plan=None`` ⇒ auto —
    read off ``ExecOptions.effective_plan`` by every entry point."""
    assert ExecOptions().effective_plan is None
    assert ExecOptions(feedback=False).effective_plan is None
    assert ExecOptions(memory_budget=1 << 20).effective_plan == "auto"
    assert ExecOptions(feedback=True).effective_plan == "auto"
    assert ExecOptions(plan="spark", memory_budget=1 << 20).effective_plan == "spark"
    assert ExecOptions(plan="sequential", feedback=True).effective_plan == "sequential"

    compilation = translate(SUM_SOURCE)
    data = list(range(300))
    inputs = {"data": data, "n": len(data)}
    expected = {"total": sum(data)}
    with Session(max_workers=0, observe=False) as session:
        for implied in (ExecOptions(memory_budget=1 << 20), ExecOptions(feedback=True)):
            explicit = implied.merged(plan="auto")
            whole = session.submit(compilation, dict(inputs), implied).result()
            fragment = session.run(compilation, dict(inputs), implied, fragment_index=0)
            for job in (whole, fragment):
                assert job.ok and job.outputs == expected
            # Planned: the whole-program job reports per unit, the
            # fragment job directly — and both were planned by "auto",
            # exactly as if the caller had spelled it.
            (unit_report,) = whole.plan_report.unit_reports.values()
            spelled = session.run(compilation, dict(inputs), explicit, fragment_index=0)
            for report in (unit_report, fragment.plan_report):
                assert report is not None
                assert report.plan.backend == spelled.plan_report.plan.backend
                assert report.plan.spill == spelled.plan_report.plan.spill
                assert not any(
                    d.code == "REP401" and "forced by caller" in d.message
                    for d in report.diagnostics
                )
            graph_run = run_graph(compilation.job_graph, dict(inputs), implied)
            assert graph_run.outputs == expected
            program = compilation.fragments[0].program
            assert program.run(dict(inputs), implied).outputs == expected
        # Nothing implied: the default framework, forced.
        unplanned = session.run(compilation, dict(inputs), fragment_index=0)
        report = unplanned.plan_report
        assert report.plan.backend == report.backend_used == "spark"
        decisions = [
            (d.code, d.message) for d in report.diagnostics if d.code.startswith("REP4")
        ]
        assert decisions == [("REP401", "backend 'spark' forced by caller")]
        assert not any(d.code.startswith("REP3") for d in report.diagnostics)
        assert unplanned.metrics is not None
