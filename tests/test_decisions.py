"""One explanation channel: every decision is one coded diagnostic.

What the execution planner, the job-graph optimizer and admission
control decided — and why — is one ``info`` diagnostic of the
``REP4xx`` family each, in the order it was made, on the report that
already carries diagnostics: a fragment's ``PlanReport``, a whole
program's ``GraphPlanReport`` (optimizer first), and the job's
``JobResult`` (compile, admission, run).  Each job below checks its
decisions word for word and checks that they never escalate under
``strict=True``.
"""

from __future__ import annotations

import pytest

from repro import ExecOptions, Session
from repro.compiler import CasperCompiler
from repro.cost.observe import ObservationStore
from repro.diagnostics import REGISTRY, escalate_strict
from repro.engine.config import DEFAULT_PARTITIONS
from repro.graph.executor import run_graph
from repro.planner import planner as planner_module
from repro.planner.planner import estimate_input_bytes
from repro.serve.admission import SHUFFLE_RESIDENCY_FACTOR
from tests.test_jobgraph import SELECT_SUM_SOURCE, _rows
from tests.test_observe import (
    INT_JOIN_SOURCE,
    MISPRICED,
    join_inputs,
    join_program,
    overflow_switches,
)
from tests.test_planner import WORDCOUNT_SOURCE, WORDS

SUM_SOURCE = """
int sum(int[] data, int n) {
  int total = 0;
  for (int i = 0; i < n; i++) total += data[i];
  return total;
}
"""

#: The engine's pool fallbacks, appended after every decision.
ENGINE_FALLBACKS = ("REP301", "REP302", "REP303", "REP304", "REP305")


def decisions(diagnostics) -> list[tuple[str, str]]:
    """``(code, message)`` of each ``REP4xx``, in order — each checked
    to be a registered ``info`` code — and none after an engine
    fallback."""
    rows = [d if isinstance(d, dict) else d.as_dict() for d in diagnostics]
    out = []
    fell_back = False
    for row in rows:
        code = row["code"]
        fell_back = fell_back or code in ENGINE_FALLBACKS
        if code.startswith("REP4"):
            assert code in REGISTRY and REGISTRY[code].severity == "info", code
            assert row["severity"] == "info", row
            assert not fell_back, f"{code} after the engine's fallback"
            out.append((code, row["message"]))
    return out


def never_escalate(diagnostics) -> None:
    escalate_strict([d for d in diagnostics if d.code.startswith("REP4")], "decisions")


@pytest.fixture(scope="module")
def strict_wc():
    return CasperCompiler(strict=True).translate_source(WORDCOUNT_SOURCE)


def test_auto_job_under_a_budget(strict_wc, monkeypatch):
    # One CPU: nothing is priced, so every message is deterministic.
    monkeypatch.setattr(planner_module, "default_process_count", lambda: 1)
    words = list(WORDS)
    with Session(max_workers=0, observe=False) as session:
        job = session.run(strict_wc, {"words": words}, ExecOptions(memory_budget=2048))
    assert job.ok and job.outputs
    (report,) = job.plan_report.unit_reports.values()
    assert report.plan.spill
    planned = [
        ("REP401", "only 1 CPU(s) available — the pool cannot win, nothing priced"),
        (
            "REP402",
            f"estimated input {report.estimated_input_bytes} B exceeds memory "
            "budget 2048 B — external spill shuffle keeps residency O(budget)",
        ),
        (
            "REP405",
            f"partitions={DEFAULT_PARTITIONS} (engine default, so map-side "
            "combine groups records exactly like the simulated engines)",
        ),
    ]
    assert decisions(report.diagnostics) == planned
    admitted = [
        (
            "REP411",
            "budgeted job: priced at memory_budget 2048 B × "
            f"{SHUFFLE_RESIDENCY_FACTOR} (spill keeps residency O(budget); "
            f"input estimate {estimate_input_bytes(words)} B)",
        ),
        (
            "REP412",
            f"concurrent: footprint {int(2048 * SHUFFLE_RESIDENCY_FACTOR)} B "
            f"fits capacity {job.admission['capacity_bytes']} B",
        ),
    ]
    # The job's one list: compile, admission, run.
    assert decisions(job.diagnostics) == admitted + planned
    compiled = len(strict_wc.diagnostics)
    assert job.diagnostics[:compiled] == strict_wc.diagnostics
    never_escalate(job.diagnostics)


def test_join_reprice_from_an_observation():
    store = ObservationStore()
    inputs = join_inputs(1500)
    cold = join_program().run(dict(inputs), MISPRICED, observations=store)
    warm = join_program().run(dict(inputs), MISPRICED, observations=store)
    cold_report, warm_report = cold.plan_report, warm.plan_report
    assert cold_report.plan.join_strategies == ("reduce_side",)
    assert warm_report.plan.join_strategies == ("broadcast",)
    for report in (cold_report, warm_report):
        (level,) = report.join["levels"]
        joins = [m for c, m in decisions(report.diagnostics) if c == "REP403"]
        assert joins == [f"join part: {level['reason']}"]
    (joined,) = [m for c, m in decisions(warm_report.diagnostics) if c == "REP403"]
    shuffled = warm_report.estimates["join_strategy"]["observed_shuffled_bytes"]
    assert joined.startswith(
        f"join part: re-priced from observation: last run shuffled {shuffled} B"
    )
    never_escalate(warm_report.diagnostics)


def test_fused_chain_forced_to_hadoop():
    compilation = CasperCompiler(strict=True).translate_source(SELECT_SUM_SOURCE)
    run = run_graph(
        compilation.job_graph,
        {"rows": _rows(100), "threshold": 50},
        ExecOptions(plan="hadoop"),
    )
    report = run.plan_report
    optimizer = [
        (
            "REP407",
            "selectSum#0 -> selectSum#1: map→map fused on 'kept' "
            "(intermediate never materialized)",
        ),
        (
            "REP408",
            "selectSum#1: combiner hoisted across fused boundary "
            "(map-side combine now covers selectSum#0's records)",
        ),
    ]
    assert decisions(report.optimizer_diagnostics) == optimizer
    unit = report.unit_reports["selectSum#0"]
    assert unit.plan.backend == unit.backend_used == "sequential"
    chain = [
        ("REP401", "backend 'sequential' forced by caller"),
        ("REP401", "fused chains run locally; 'hadoop' backend degraded to sequential"),
    ]
    assert decisions(unit.diagnostics) == chain
    # The roll-up lists the optimizer's decisions ahead of the units'.
    assert decisions(report.diagnostics) == optimizer + chain
    assert report.summary()["optimizer_diagnostics"] == [
        d.as_dict() for d in report.optimizer_diagnostics
    ]
    never_escalate(report.diagnostics)


def test_forced_spark_job_ignores_its_budget(strict_wc):
    ran = strict_wc.fragments[0].program.run(
        {"words": list(WORDS)}, ExecOptions(plan="spark", memory_budget=1024)
    )
    report = ran.plan_report
    assert not report.plan.spill and report.plan.memory_budget is None
    assert decisions(report.diagnostics) == [
        ("REP401", "backend 'spark' forced by caller"),
        (
            "REP402",
            "memory budget 1024 B ignored: simulated 'spark' backend "
            "materializes in-memory",
        ),
    ]
    never_escalate(report.diagnostics)


def test_daemon_round_trip_carries_the_decisions(tmp_path):
    from repro.serve.client import connect
    from repro.serve.daemon import serve

    data = list(range(100))
    inputs = {"data": data, "n": len(data)}
    options = ExecOptions(plan="spark", memory_budget=1024)
    with Session(max_workers=0, observe=False) as session:
        local = session.run(session.compile(SUM_SOURCE), dict(inputs), options)
    daemon = serve(cache_dir=str(tmp_path), max_workers=1)
    try:
        client = connect(daemon.address)
        remote = client.submit(client.compile(SUM_SOURCE), inputs, options).result(
            timeout=300
        )
    finally:
        daemon.shutdown()
    assert remote.ok and remote.outputs == local.outputs
    said = decisions(remote.diagnostics)
    assert [code for code, _ in said] == ["REP411", "REP412", "REP401", "REP402"]
    assert said[0][1].startswith("budgeted job: priced at memory_budget 1024 B")
    assert said[1][1].startswith("concurrent: footprint 2048 B fits capacity")
    # The run's decisions cross the wire word for word, on the job and
    # on its unit report.
    assert said[2:] == decisions(local.diagnostics)[2:]
    (unit,) = remote.plan_report["unit_reports"].values()
    assert decisions(unit["diagnostics"]) == said[2:]
    assert set(remote.admission) == {
        "mode",
        "footprint_bytes",
        "capacity_bytes",
        "queued_seconds",
    }


def test_a_failed_job_keeps_its_admission_decisions(strict_wc):
    with Session(max_workers=0, observe=False) as session:
        job = session.run(strict_wc, {})  # no words: the run raises
    assert not job.ok and job.plan_report is None
    assert [code for code, _ in decisions(job.diagnostics)] == ["REP411", "REP412"]


def test_an_overflow_switch_is_a_decision_of_the_job(monkeypatch):
    """A broadcast build that overflows mid-job is the job's ``REP403``,
    after the plan's decisions, inline and in the daemon's wire form
    (the join's record inputs cannot cross the wire themselves)."""
    import json

    import repro.codegen.joins as joins_mod
    from repro.serve.daemon import result_from_wire, result_to_wire

    monkeypatch.setattr(joins_mod, "sizeof_pair", lambda key, value: 1 << 40)
    with Session(max_workers=0, observe=False) as session:
        program = session.compile(INT_JOIN_SOURCE)
        local = session.run(program, join_inputs(1500), ExecOptions(plan="auto"))
    assert local.ok, local.error
    (switch,) = overflow_switches(local.diagnostics)
    assert switch.startswith("broadcast build of 'part' overflowed")
    assert decisions(local.diagnostics)[-1] == ("REP403", switch)
    never_escalate(local.diagnostics)
    remote = result_from_wire(json.loads(json.dumps(result_to_wire(local))))
    assert remote.outputs == local.outputs
    assert overflow_switches(remote.diagnostics) == [switch]
    (unit,) = remote.plan_report["unit_reports"].values()
    assert overflow_switches(unit["diagnostics"]) == [switch]
    assert "adaptations" not in unit and "eliminated" not in remote.plan_report


@pytest.mark.parametrize("fragment_index", [None, 0], ids=["graph", "fragment"])
def test_a_failed_observation_write_warns_its_job(
    tmp_path, monkeypatch, fragment_index
):
    """The store returns a failed disk write instead of keeping it: each
    job that met one carries one ``REP311``."""
    from repro.cost import observe

    monkeypatch.setattr(observe, "atomic_write_json", lambda path, payload: False)
    data = list(range(100))
    with Session(max_workers=0, cache_dir=str(tmp_path)) as session:
        program = session.compile(SUM_SOURCE)
        inputs = {"data": data, "n": len(data)}
        options = ExecOptions(plan="auto")
        jobs = [
            session.run(program, dict(inputs), options, fragment_index)
            for _ in range(3)
        ]
    for job in jobs:
        assert job.ok, job.error
        (warned,) = [d for d in job.diagnostics if d.code == "REP311"]
        assert warned.severity == "warning"
        assert warned.message.startswith("observation store: write failed at obs_")
        assert warned.message.endswith("— observation kept in memory only")
    assert not hasattr(session.observations, "notes")  # nothing kept to grow


def test_a_non_strict_skip_warns_the_job():
    """A node whose analysis failed is skipped by a non-strict run, and
    the job says so with one ``REP312`` on the optimizer's list."""
    source = """
int f(int[] data, int n) {
  int a = 0;
  for (int i = 0; i < n; i++) a += data[i];
  int b = 0;
  int j = 0;
  while (j < n) { b += data[j]; j++; }
  return a + b;
}
"""
    data = list(range(20))
    with Session(max_workers=0, observe=False) as session:
        job = session.run(
            session.compile(source),
            {"data": data, "n": len(data)},
            ExecOptions(strict=False),
        )
    assert job.ok, job.error
    assert job.outputs == {"a": sum(data)}
    (skipped,) = [d for d in job.diagnostics if d.code == "REP312"]
    assert skipped.severity == "warning" and skipped.fragment == "f#1"
    assert skipped.message == (
        "skipped: analysis failed (analysis failed: unsupported loop form "
        "While [REP101])"
    )
    assert job.plan_report.optimizer_diagnostics == [skipped]
