"""Borrowed inputs: a job reads its caller's lists in place.

``view_records`` and ``as_dataset`` hand a list input to the engine
without copying it, so a job holds no private container the size of its
input.  These tests check the contract from both sides: every run path
leaves the borrowed list as it found it (same object, length and element
identities) and still matches the interpreter, and no young garbage
collection during a job walks a list as long as the input.
"""

from __future__ import annotations

import gc

import pytest
from suite_cache import compiled

from repro import ExecOptions, Session, translate
from repro.codegen.base import view_records
from repro.engine.source import as_dataset
from repro.graph import interpret_reference
from repro.planner.plan import ExecutionPlan

#: Two loops over one list: two fragments, one ``_RecordsCache`` entry.
TWO_LOOPS_SOURCE = """
int twoLoops(List<int> xs) {
  int a = 0;
  for (int x : xs) a += x;
  int b = 0;
  for (int y : xs) b += y * y;
  return a + b;
}
"""


def _words(n: int) -> list:
    """``n`` words over about 10 000 distinct keys."""
    return [f"w{(i * 7919) % 10007}" for i in range(n)]


class _Snapshot:
    """What a borrowed list looked like before its job."""

    def __init__(self, records: list):
        self.records = records
        self.elements = list(records)  # keeps every element alive

    def assert_untouched(self, inputs: dict, name: str) -> None:
        assert inputs[name] is self.records
        assert len(self.records) == len(self.elements)
        assert all(a is b for a, b in zip(self.records, self.elements))


def test_list_inputs_are_borrowed_other_sequences_copied_once():
    view = compiled("phoenix_wordcount").fragments[0].program.analysis.view
    assert view.kind == "foreach"
    words = _words(100)
    assert view_records(view, {"wordList": words}) is words
    assert as_dataset(words).materialize() is words
    as_tuple = tuple(words)
    assert view_records(view, {"wordList": as_tuple}) == words
    assert as_dataset(as_tuple).materialize() == words
    assert view_records(view, {"wordList": set(words)}) == sorted(set(words))


@pytest.mark.parametrize(
    "options",
    [
        ExecOptions(plan="sequential"),
        ExecOptions(plan="spark"),
        ExecOptions(plan="auto"),
        ExecOptions(plan="sequential", memory_budget=16 * 1024),
    ],
    ids=["sequential", "spark", "auto", "spill"],
)
def test_session_jobs_leave_the_borrowed_list_untouched(options):
    result = compiled("phoenix_wordcount")
    inputs = {"wordList": _words(3000)}
    snapshot = _Snapshot(inputs["wordList"])
    with Session(max_workers=0) as session:
        job = session.run(result, inputs, options)
    assert job.status == "ok", job.error
    snapshot.assert_untouched(inputs, "wordList")
    assert job.outputs == interpret_reference(result.job_graph, dict(inputs))
    if options.memory_budget is not None:
        (unit,) = job.plan_report.unit_reports.values()
        assert unit.spill_stats["spilled_bytes"] > 0


def test_pooled_run_leaves_the_borrowed_list_untouched():
    result = compiled("phoenix_wordcount")
    program = result.fragments[0].program.programs[0]
    # Past the engine's 2 048-record floor, so the forced pool engages.
    inputs = {"wordList": _words(3000)}
    snapshot = _Snapshot(inputs["wordList"])
    run = program.run(
        inputs, "multiprocess", ExecutionPlan(backend="multiprocess", processes=2)
    )
    report = run.plan_report
    assert report.backend_used == "multiprocess"
    assert not [d.code for d in report.diagnostics if d.code.startswith("REP30")]
    snapshot.assert_untouched(inputs, "wordList")
    expected = interpret_reference(result.job_graph, dict(inputs))
    assert run.outputs["counts"] == expected["counts"]


def test_graph_fragments_share_the_borrowed_list_untouched():
    result = translate(TWO_LOOPS_SOURCE)
    inputs = {"xs": list(range(500))}
    snapshot = _Snapshot(inputs["xs"])
    with Session(max_workers=0) as session:
        job = session.run(result, inputs, ExecOptions(plan="sequential"))
    assert job.status == "ok", job.error
    assert job.plan_report.records_cache_hits >= 1
    snapshot.assert_untouched(inputs, "xs")
    assert job.outputs == interpret_reference(result.job_graph, dict(inputs))


@pytest.mark.parametrize("budget", [None, 1 << 21], ids=["inmem", "spill"])
def test_young_collections_walk_no_input_sized_list(budget):
    """A keyed job allocates enough tuples to run young collections; none
    of them may find a list as long as the (already old) input."""
    n = 50_000
    result = compiled("phoenix_wordcount")
    inputs = {"wordList": _words(n)}
    options = ExecOptions(plan="auto", memory_budget=budget)
    found: list = []

    def young_lists(phase: str, info: dict) -> None:
        generation = info["generation"]
        if phase != "start" or generation > 1:
            return
        # A collection of generation g walks every generation up to g.
        for younger in range(generation + 1):
            found.extend(
                (generation, len(obj))
                for obj in gc.get_objects(generation=younger)
                if type(obj) is list and len(obj) >= n
            )

    with Session(max_workers=0) as session:
        session.run(result, inputs, options)  # warm: compile caches, store
        gc.collect()  # the input is in the oldest generation from here
        gc.callbacks.append(young_lists)
        try:
            job = session.run(result, inputs, options)
        finally:
            gc.callbacks.remove(young_lists)
    assert job.status == "ok", job.error
    assert found == []
