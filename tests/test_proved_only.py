"""Run only what is proved.

A fragment whose search proved a summary keeps its proved summaries
only: the bounded-only (Tier-2) twins are dropped before codegen, so no
job builds, samples or dispatches them, and ``strict=True`` fails only a
fragment with nothing proved.  A job that does dispatch a bounded-only
implementation says so with a ``REP310`` naming its evidence.  Every
``REP309`` sits ahead of the decisions its sample fed.
"""

from __future__ import annotations

import json

import pytest

from repro import ExecOptions, Session
from repro.codegen.kernels import KernelUnsupported
from repro.compiler import CasperCompiler
from repro.errors import DiagnosticError
from repro.graph.executor import interpret_reference
from repro.serve.daemon import result_from_wire, result_to_wire
from repro.workloads import get_benchmark
from repro.workloads.registry import all_benchmarks
from suite_cache import compiled

INDEXED_INT_SUM = """
int sum(int[] data, int n) {
  int total = 0;
  for (int i = 0; i < n; i++) total += data[i];
  return total;
}
"""

#: The translated fragments whose search proved nothing: each keeps its
#: bounded-only implementations.
NOTHING_PROVED = {"frameMax#0", "query3#0", "query15#1"}


def codes(diagnostics) -> list[str]:
    return [d["code"] if isinstance(d, dict) else d.code for d in diagnostics]


# ----------------------------------------------------------------------
# The acceptance gate


def _translated_fragments():
    for bench in all_benchmarks():
        for fragment in compiled(bench.name).fragments:
            if fragment.translated:
                yield bench.name, fragment


def test_every_kept_implementation_is_proved_where_the_search_proved_one():
    unproved_kept = set()
    kept = 0
    for name, fragment in _translated_fragments():
        statuses = [p.proof.status for p in fragment.program.programs]
        kept += len(statuses)
        searched = [vs.proof.status for vs in fragment.search.summaries]
        if "proved" in searched:
            assert set(statuses) == {"proved"}, (name, fragment.fragment.id, statuses)
        else:
            unproved_kept.add(fragment.fragment.id)
    assert unproved_kept == NOTHING_PROVED
    assert kept <= 86
    string_match = compiled("phoenix_string_match").fragments[0].program.programs
    assert [p.proof.status for p in string_match] == ["proved"] * 4


def test_dropped_twins_are_one_info_rep210_not_a_rep203():
    (fragment,) = compiled("ariths_sum").fragments
    assert "REP203" not in codes(fragment.diagnostics)
    [dropped] = [d for d in fragment.diagnostics if d.code == "REP210"]
    assert dropped.severity == "info" and dropped.fragment == fragment.fragment.id
    assert dropped.message == (
        "3 of 4 summaries dropped as bounded-only (Tier-2): 1 proved kept"
    )


def test_strict_compile_keeps_the_proved_summary_of_the_indexed_int_sum():
    result = CasperCompiler(strict=True).translate_source(INDEXED_INT_SUM)
    (fragment,) = result.fragments
    assert fragment.translated
    assert [p.proof.status for p in fragment.program.programs] == ["proved"]
    assert "REP210" in codes(fragment.diagnostics)


def test_strict_compile_still_fails_a_fragment_with_nothing_proved():
    with pytest.raises(DiagnosticError) as raised:
        CasperCompiler(strict=True).translate_source(get_benchmark("tpch_q15").source)
    assert [(d.code, d.fragment) for d in raised.value.diagnostics] == [
        ("REP203", "query15#1")
    ]


@pytest.mark.parametrize("options", [None, ExecOptions(plan="auto")])
def test_stats_l1_norm_equals_the_interpreter_on_an_infinite_input(tmp_path, options):
    """A zero-heavy head made an unproved twin (``abs(x) < abs(x) +
    abs(x)``, false on inf) look cheapest; it returned 100.0."""
    bench = get_benchmark("stats_l1_norm")
    x = [0.0] * 20000 + [1.0] * 100 + [float("inf")]
    inputs = {"x": x, "n": len(x)}
    with Session(cache_dir=str(tmp_path), max_workers=0) as session:
        program = session.compile(bench.source)
        job = session.submit(program, dict(inputs), options).result(timeout=120)
    assert job.ok, job.error
    assert job.outputs == interpret_reference(program.compilation.job_graph, inputs)
    assert job.outputs == {"s": float("inf")}
    assert "REP310" not in codes(job.diagnostics)


# ----------------------------------------------------------------------
# REP310: an unproved run says so


@pytest.mark.parametrize("fuse", [True, False])
def test_a_job_that_runs_a_bounded_only_implementation_carries_one_rep310(fuse):
    bench = get_benchmark("tpch_q15")
    compilation = compiled("tpch_q15")
    with Session(max_workers=0, observe=False) as session:
        job = session.run(
            compilation, bench.make_inputs(300, 3), ExecOptions(fuse=fuse)
        )
    assert job.status == "ok"
    [unproved] = [d for d in job.diagnostics if d.code == "REP310"]
    assert unproved.fragment == "query15#1"
    assert unproved.severity == "warning"
    # The evidence: Tier-2, and the state domain it was checked on.
    message = unproved.message
    assert "bounded (Tier-2) evidence only" in message
    assert "120 states of at most 8 records; ints -64..64, doubles {" in message
    assert "strings {" in message and "dates 8000..9200" in message
    # It survives the daemon's wire form, on the job and on its unit report.
    wired = result_from_wire(json.loads(json.dumps(result_to_wire(job))))
    assert wired.status == "ok"
    wired_unproved = [d for d in wired.diagnostics if d["code"] == "REP310"]
    assert wired_unproved == [unproved.as_dict()]
    unit_codes = [
        code
        for unit in wired.plan_report["unit_reports"].values()
        for code in codes(unit["diagnostics"])
    ]
    assert unit_codes.count("REP310") == 1


def test_a_job_that_runs_proved_implementations_carries_no_rep310():
    bench = get_benchmark("ariths_sum")
    inputs = bench.make_inputs(300, 3)
    with Session(max_workers=0, observe=False) as session:
        for options in (None, ExecOptions(plan="auto")):
            whole = session.run(compiled("ariths_sum"), dict(inputs), options)
            assert whole.ok and "REP310" not in codes(whole.diagnostics)


# ----------------------------------------------------------------------
# REP309 in event order


def _refuse_samplers(monkeypatch, adaptive):
    def refuse(*_args, **_kwargs):
        raise KernelUnsupported("refused for the test")

    monkeypatch.setattr("repro.codegen.kernels.render_sampler", refuse)
    for program in adaptive.programs:
        monkeypatch.setattr(program, "_sampler", None)


def _sample_fallbacks_lead(diagnostics) -> int:
    """How many ``REP309``s there are, after checking each precedes the
    first ``REP4xx``."""
    order = codes(diagnostics)
    first_decision = next(i for i, c in enumerate(order) if c.startswith("REP4"))
    fallbacks = [i for i, c in enumerate(order) if c == "REP309"]
    assert fallbacks and max(fallbacks) < first_decision, order
    return len(fallbacks)


@pytest.mark.parametrize("plan", ["sequential", "auto"])
def test_sampler_fallbacks_precede_the_decisions_they_fed(monkeypatch, plan):
    adaptive = compiled("phoenix_string_match").fragments[0].program
    assert len(adaptive.programs) == 4
    _refuse_samplers(monkeypatch, adaptive)
    env = get_benchmark("phoenix_string_match").make_inputs(400, 11)
    ran = adaptive.run(dict(env), ExecOptions(plan=plan))
    assert _sample_fallbacks_lead(ran.plan_report.diagnostics) == 4


def test_the_planners_own_sample_precedes_its_decisions(monkeypatch):
    """A join samples twice on ``plan="auto"``: the monitor without the
    right relations, the planner with them."""
    [fragment] = [f for f in compiled("joins_q3_revenue").fragments if f.translated]
    adaptive = fragment.program
    _refuse_samplers(monkeypatch, adaptive)
    env = get_benchmark("joins_q3_revenue").make_inputs(300, 5)
    ran = adaptive.run(dict(env), ExecOptions(plan="auto"))
    sampled_twice = len(adaptive.programs) + 1
    assert _sample_fallbacks_lead(ran.plan_report.diagnostics) == sampled_twice
