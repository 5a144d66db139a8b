"""The returned-outcome contract: one ``ExecOptions`` down, one outcome back.

Every run layer returns what its own call produced — nothing is read
back from the shared program or compilation — so two calls on the
*same* object, overlapping in time, cannot see each other's evidence.
None of these tests can be written against "last run" accessors: the
property is exactly that no such state exists.
"""

from __future__ import annotations

import threading

from repro import ExecOptions, Session, translate
from repro.graph import run_graph

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


def test_concurrent_runs_of_one_program_return_their_own_outcome():
    """No Session, so no ``entry.lock``: the program object is shared raw."""
    program = translate(SUM_SOURCE).fragments[0].program
    sizes = (4000, 37)
    datasets = [[(i * 7) % 13 for i in range(size)] for size in sizes]
    rounds = 8
    barrier = threading.Barrier(len(sizes))
    outcomes: list[list] = [[] for _ in sizes]

    def worker(slot: int) -> None:
        data = datasets[slot]
        for _ in range(rounds):
            barrier.wait(timeout=60)  # start every round together
            outcomes[slot].append(
                program.run(
                    {"data": list(data), "n": len(data)},
                    ExecOptions(plan="sequential"),
                )
            )

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()

    for slot, data in enumerate(datasets):
        assert len(outcomes[slot]) == rounds
        for outcome in outcomes[slot]:
            assert outcome.outputs == {"total": sum(data)}
            assert outcome.report.input_records == len(data)
            assert outcome.report.plan.backend == "sequential"
            assert outcome.metrics.stages[0].records_in == len(data)
            assert outcome.report.implementation is not None
    # Distinct calls, distinct objects — nothing is a shared "last" slot.
    reports = [o.report for per_slot in outcomes for o in per_slot]
    assert len({id(report) for report in reports}) == len(reports)


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
    assert run.report.plan.waves == [(0, 1)]
    unit_reports = run.report.unit_reports
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
                assert not any("forced by caller" in r for r in report.plan.reasons)
            graph_run = run_graph(compilation.job_graph, dict(inputs), implied)
            assert graph_run.outputs == expected
            program = compilation.fragments[0].program
            assert program.run(dict(inputs), implied).outputs == expected
        # Nothing implied: the default framework, forced.
        unplanned = session.run(compilation, dict(inputs), fragment_index=0)
        report = unplanned.plan_report
        assert report.plan.backend == report.backend_used == "spark"
        assert report.plan.reasons == ("backend 'spark' forced by caller",)
        assert report.fallback_reason is None and unplanned.metrics is not None
