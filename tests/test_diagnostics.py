"""Golden tests for the static diagnostics layer.

Three properties are pinned here:

1. **Every stable code fires** — each REP1xx/REP2xx/REP3xx diagnostic
   and each LNT10x lint code is triggered by a crafted fragment (or a
   crafted Python file, for the lint), so a code silently going dead is
   a test failure, not a doc rot.
2. **The soundness gate is behavior-neutral** — compiling with the gate
   on vs off changes *which diagnostics exist*, never what a translated
   fragment computes: the differential sweep runs representative suites
   both ways on the sequential and multiprocess backends and demands
   byte-identical outputs.
3. **The lint invariant holds locally** — ``repro.diagnostics.lint``
   self-runs clean over ``src/repro`` (the same check CI enforces).
"""

from __future__ import annotations

import pickle
import threading
import types
from pathlib import Path

import pytest

import repro
from repro import ExecOptions
from repro.compiler import CasperCompiler, translate
from repro.diagnostics import (
    REGISTRY,
    SEVERITIES,
    analyze_soundness,
    diagnostic_from_data,
    explain,
    info_for,
    make,
    unpicklable_reason,
    worst_severity,
)
from repro.diagnostics.lint import lint_file, lint_tree, main as lint_main
from repro.engine.multiprocess import MapStep, MultiprocessEngine
from repro.engine.source import GeneratorSource
from repro.errors import AnalysisError, DiagnosticError
from repro.graph.executor import interpret_fragment, run_graph
from repro.lang.values import values_equal
from repro.lang.analysis.fragments import fingerprint_fragment
from repro.pipeline.cache import SummaryCache
from repro.synthesis.search import SearchConfig
from repro.workloads import all_benchmarks, get_benchmark
from repro.workloads.runner import compile_benchmark
from suite_cache import compiled

# ----------------------------------------------------------------------
# Crafted fragments, one per diagnostic family

NOISY_SUM = """
double noisySum(double[] data, int n) {
  double total = 0;
  for (int i = 0; i < n; i++) total += data[i] * Math.random();
  return total;
}
"""

UNMODELLED_STATIC = """
int bits(int[] data, int n) {
  int total = 0;
  for (int i = 0; i < n; i++) total += Integer.bitCount(data[i]);
  return total;
}
"""

SCRATCH_MUTATION = """
int sumWithScratch(List<Integer> data, int n) {
  List<Integer> scratch = new ArrayList<Integer>();
  int sum = 0;
  for (int i = 0; i < n; i++) {
    scratch.add(data.get(i));
    sum = sum + data.get(i);
  }
  return sum;
}
"""

SET_ITERATION = """
int setTotal(Set<Integer> items) {
  int total = 0;
  for (int v : items) {
    total = total + v;
  }
  return total;
}
"""

FLOAT_FOLD = """
double fsum(double[] data, int n) {
  double total = 0;
  for (int i = 0; i < n; i++) total += data[i];
  return total;
}
"""

PRELUDE_FAULT = """
int crash(int[] data, int n) {
  int z = 0;
  int w = 5 / z;
  int total = 0;
  for (int i = 0; i < n; i++) total += data[i] + w;
  return total;
}
"""

ORDER_DEPENDENT = """
int weird(int[] data, int n) {
  int acc = 7;
  for (int i = 0; i < n; i++) {
    acc = acc * acc + data[i];
  }
  return acc;
}
"""


def codes(diagnostics) -> list[str]:
    return [d.code for d in diagnostics]


# ----------------------------------------------------------------------
# Registry and Diagnostic invariants


class TestRegistry:
    def test_codes_are_stable_and_well_formed(self):
        for code, info in REGISTRY.items():
            assert code == info.code
            assert code[:3] in ("REP", "LNT")
            assert info.severity in SEVERITIES
            assert info.title
            assert info.hint

    def test_families_present(self):
        prefixes = {c[:4] for c in REGISTRY if c.startswith("REP")}
        assert prefixes == {"REP1", "REP2", "REP3", "REP4"}
        assert any(c.startswith("LNT") for c in REGISTRY)

    def test_make_fills_registry_defaults(self):
        diag = make("REP103", "boom", line=4, fragment="f#0")
        assert diag.severity == info_for("REP103").severity == "error"
        assert diag.hint == info_for("REP103").hint
        assert "REP103" in diag.render() and "boom" in diag.render()

    def test_make_rejects_unknown_code(self):
        with pytest.raises(Exception):
            make("REP999", "nope")

    def test_explicit_severity_only_escalates(self):
        # REP104 defaults to warning; an explicit error sticks …
        assert make("REP104", "m", severity="error").severity == "error"
        # … but an attempted demotion of an error-level code does not.
        assert make("REP103", "m", severity="info").severity == "error"

    def test_as_dict_round_trip(self):
        diag = make("REP203", "two of three", fragment="g#1")
        clone = diagnostic_from_data(diag.as_dict())
        assert clone == diag

    def test_explain_orders_by_severity(self):
        text = explain(
            [make("REP106", "info one"), make("REP103", "error one")]
        )
        assert text.index("REP103") < text.index("REP106")
        assert worst_severity(
            [make("REP106", "a"), make("REP103", "b")]
        ) == "error"


# ----------------------------------------------------------------------
# REP1xx: the soundness gate


class TestSoundnessGate:
    def test_rep103_nondeterminism_rejected_before_cegis(self):
        result = translate(NOISY_SUM)
        frag = result.fragments[0]
        assert not frag.translated
        assert frag.search is None  # CEGIS never ran
        assert "REP103" in codes(frag.diagnostics)
        assert "REP103" in frag.failure_reason
        assert "REP103" in frag.explain()

    def test_rep102_unmodelled_stdlib_rejected(self):
        result = translate(UNMODELLED_STATIC)
        frag = result.fragments[0]
        assert not frag.translated
        assert frag.search is None
        assert "REP102" in codes(frag.diagnostics)

    def test_rep104_scratch_mutation_warns_but_translates(self):
        result = translate(SCRATCH_MUTATION)
        frag = result.fragments[0]
        assert frag.translated
        assert "REP104" in codes(frag.diagnostics)
        rep104 = next(d for d in frag.diagnostics if d.code == "REP104")
        assert rep104.severity == "warning"

    def test_rep105_unordered_iteration_warns(self):
        result = translate(SET_ITERATION)
        frag = result.fragments[0]
        assert frag.translated
        assert "REP105" in codes(frag.diagnostics)

    def test_rep106_float_fold_noted(self):
        result = translate(FLOAT_FOLD)
        frag = result.fragments[0]
        assert frag.translated
        assert "REP106" in codes(frag.diagnostics)
        assert next(
            d for d in frag.diagnostics if d.code == "REP106"
        ).severity == "info"

    def test_rep107_unpicklable_capture(self):
        result = translate(FLOAT_FOLD)
        analysis = result.fragments[0].analysis
        analysis.prelude_constants["bad"] = lambda x: x
        try:
            diags = analyze_soundness(analysis)
        finally:
            del analysis.prelude_constants["bad"]
        assert "REP107" in codes(diags)

    def test_rep101_analysis_failure(self, monkeypatch):
        import repro.pipeline.passes as passes

        def boom(fragment, program):
            raise AnalysisError("deliberately unanalyzable")

        monkeypatch.setattr(passes, "analyze_fragment", boom)
        result = translate(FLOAT_FOLD)
        frag = result.fragments[0]
        assert not frag.translated
        assert "REP101" in codes(frag.diagnostics)
        assert "REP101" in frag.failure_reason

    def test_soundness_off_skips_the_gate(self):
        compiler = CasperCompiler(soundness=False)
        result = compiler.translate_source(NOISY_SUM)
        frag = result.fragments[0]
        # The gate is off, so CEGIS runs (and fails the slow way):
        # no REP1xx rejection, but the search was attempted.
        assert frag.search is not None
        assert "REP103" not in codes(frag.diagnostics)

    def test_compilation_result_aggregates_diagnostics(self):
        result = translate(SCRATCH_MUTATION)
        assert codes(result.diagnostics) == codes(result.fragments[0].diagnostics)
        assert "REP104" in result.explain()


# ----------------------------------------------------------------------
# REP2xx: synthesis and verification


class TestVerificationCodes:
    def test_rep201_symbolic_side_effect_demotes_to_tier2(self):
        """Satellite regression: a fragment whose loop mutates scratch
        state compiles with a bounded-only (Tier-2) proof instead of the
        symbolic executor's old raw ``VerificationError`` raise."""
        result = translate(SCRATCH_MUTATION)
        frag = result.fragments[0]
        assert frag.translated, frag.failure_reason
        best = frag.program.programs[0]
        assert best.proof.status == "unknown"
        assert "REP201" in codes(best.proof.diagnostics)
        # The demotion surfaces as a structured REP203 acceptance note.
        assert "REP203" in codes(frag.diagnostics)
        outputs = frag.program.run({"data": list(range(40)), "n": 40}).outputs
        assert outputs["sum"] == sum(range(40))

    # A fragment whose search proves nothing keeps its bounded-only
    # summaries (one with a proved summary drops them: REP210).  The
    # per-pixel max over frames is one: its twins guard ``v < v + v``
    # under ``max`` and the prover finds no step for them.

    def test_rep202_unsupported_symbolic_proof(self):
        frag = compiled("fiji_frame_max").fragments[0]
        unknown = [
            p for p in frag.program.programs if p.proof.status == "unknown"
        ]
        assert unknown, "expected at least one bounded-only proof"
        assert any("REP202" in codes(p.proof.diagnostics) for p in unknown)

    def test_rep203_and_rep204_on_bounded_acceptance(self):
        frag = compiled("fiji_frame_max").fragments[0]
        assert "REP203" in codes(frag.diagnostics)
        assert "REP204" in codes(frag.diagnostics)

    def test_rep205_no_summary_found(self):
        result = translate(ORDER_DEPENDENT)
        frag = result.fragments[0]
        assert not frag.translated
        assert "REP205" in codes(frag.diagnostics)
        assert "[REP205]" in frag.failure_reason

    def test_rep206_synthesis_timeout(self):
        result = translate(
            FLOAT_FOLD, search_config=SearchConfig(timeout_seconds=1e-9)
        )
        frag = result.fragments[0]
        assert not frag.translated
        assert "REP206" in codes(frag.diagnostics)
        assert "[REP206]" in frag.failure_reason

    def test_rep208_prelude_fault(self):
        result = translate(PRELUDE_FAULT)
        frag = result.fragments[0]
        assert not frag.translated
        assert "REP208" in codes(frag.diagnostics)

    def test_rep207_no_acceptable_proof(self):
        """Unit-level: the verify-attach gate with nothing acceptable."""
        from repro.pipeline.passes import VerifyAttachPass

        ctx = types.SimpleNamespace(strict=False)
        state = types.SimpleNamespace(
            fragment=types.SimpleNamespace(id="f#0"),
            search=types.SimpleNamespace(summaries=[], failure_reason=None),
            diagnostics=[],
            failure_reason=None,
        )
        VerifyAttachPass().run(ctx, state)
        assert "REP207" in codes(state.diagnostics)
        assert "[REP207]" in state.failure_reason


# ----------------------------------------------------------------------
# Strict mode


class TestStrictMode:
    @pytest.mark.parametrize(
        "source, code", [(SET_ITERATION, "REP105"), (SCRATCH_MUTATION, "REP104")]
    )
    def test_strict_escalates_warnings_to_typed_error(self, source, code):
        compiler = CasperCompiler(strict=True)
        with pytest.raises(DiagnosticError) as excinfo:
            compiler.translate_source(source)
        assert any(d.code == code for d in excinfo.value.diagnostics)


# ----------------------------------------------------------------------
# REP3xx: engine and planner


class TestEngineCodes:
    def test_rep303_tiny_input(self):
        result = MultiprocessEngine(
            processes=4, min_parallel_records=1000
        ).run_pipeline(list(range(10)), [MapStep(_keyed)])
        assert result.fallback.code == "REP303"

    def test_rep302_single_process(self):
        result = MultiprocessEngine(processes=1).run_pipeline(
            list(range(3000)), [MapStep(_keyed)]
        )
        assert result.fallback.code == "REP302"

    def test_rep301_unpicklable_payload(self):
        result = MultiprocessEngine(
            processes=2, min_parallel_records=5
        ).run_pipeline(list(range(3000)), [MapStep(lambda r: [(r % 2, r)])])
        assert result.fallback.code == "REP301"
        assert "not picklable" in result.fallback.message

    def test_fallback_code_reaches_plan_report(self):
        # One report, however the job reached the engine: a single
        # fragment through AdaptiveProgram.run, a fused chain through
        # the graph executor.
        single = translate(SCRATCH_MUTATION).fragments[0].program.run(
            {"data": list(range(50)), "n": 50}, ExecOptions(plan="multiprocess")
        )
        assert single.outputs["sum"] == sum(range(50))
        fused = run_graph(
            compiled("biglambda_select_sum").job_graph,
            get_benchmark("biglambda_select_sum").make_inputs(50, 1),
            ExecOptions(plan="multiprocess"),
        )
        (fused_report,) = fused.plan_report.unit_reports.values()
        assert fused.plan_report.fused_away == ["kept"]
        for report in (single.plan_report, fused_report):
            assert report.backend_used == "sequential"
            fallback = [d for d in report.diagnostics if d.code.startswith("REP3")]
            assert fallback, "engine fallback must carry a structured code"
            assert all(d.code in REGISTRY for d in fallback)
            # The engine's fallback is absorbed last, after the decisions.
            assert report.diagnostics[-1] is fallback[-1]
            assert "REP401" in [d.code for d in report.diagnostics]
            summary = report.summary()
            assert [d["code"] for d in summary["diagnostics"]] == [
                d.code for d in report.diagnostics
            ]

    def test_fused_chain_report_keeps_engine_accounting(self):
        # What the engine reports — columnar counters, spill stats,
        # mid-job decisions — must reach a fused chain's PlanReport like
        # a single fragment's.
        # A keyed sum bridged into a sum: both folded segments vectorize.
        chain = translate(
            "double f(int[] k, double[] v, int n, int m) { double[] r = new double[m];"
            " for (int i = 0; i < n; i++) { r[k[i]] = r[k[i]] + v[i]; }"
            " double t = 0; for (int j = 0; j < m; j++) { t = t + r[j]; } return t; }"
        )
        n = 6000
        keyed = {"k": [i % 3 for i in range(n)], "v": [i % 7 * 0.5 for i in range(n)]}
        run = run_graph(
            chain.job_graph, dict(keyed, n=n, m=3), ExecOptions(plan="multiprocess")
        )
        (report,) = run.plan_report.unit_reports.values()
        assert report.summary()["columnar"]["columnar_chunks"] > 0
        assert report.spill_stats is None
        graph = compiled("biglambda_select_sum").job_graph
        inputs = get_benchmark("biglambda_select_sum").make_inputs(6000, 1)
        run = run_graph(graph, dict(inputs), ExecOptions(plan="multiprocess"))
        hidden = dict(inputs, rows=GeneratorSource(lambda: iter(inputs["rows"])))
        streamed = run_graph(graph, hidden, ExecOptions(memory_budget=1 << 20))
        (report,) = streamed.plan_report.unit_reports.values()
        assert streamed.outputs == run.outputs
        assert report.summary()["spill_stats"]["spill_runs"] >= 1
        (probe,) = [d for d in report.diagnostics if "stream probe" in d.message]
        assert probe.code == "REP406"
        assert "pessimistic large-stream settings" in probe.message

    def test_rep306_from_the_planner_probe(self):
        result = translate(FLOAT_FOLD)
        frag = result.fragments[0]
        planner = frag.program.planner
        assert planner.unpicklable is None
        planner.unpicklable = "payload not picklable: lambda (injected)"
        try:
            report = frag.program.run(
                {"data": [1.0, 2.0, 3.0], "n": 3}, ExecOptions(plan="auto")
            ).plan_report
        finally:
            planner.unpicklable = None
        assert "REP306" in codes(report.diagnostics)

    def test_session_job_result_carries_diagnostics(self):
        session = repro.Session(max_workers=0)
        prog = session.compile(SCRATCH_MUTATION)
        job = session.submit(prog, {"data": list(range(30)), "n": 30})
        result = job.result()
        assert result.ok
        assert "REP104" in codes(result.diagnostics)


def _keyed(record):
    return [(record % 10, record)]


# ----------------------------------------------------------------------
# The one picklability check


class TestPickleProbe:
    def test_flags_definite_unpicklables(self):
        for value in (
            lambda x: x,
            threading.Lock(),
            (i for i in range(3)),
            {"k": [threading.Lock()]},
        ):
            assert "not picklable" in unpicklable_reason(value)

    def test_clears_plain_data(self):
        for value in (None, 1, "s", [1, 2], {"a": (1.5, b"x")}, _keyed):
            assert unpicklable_reason(value) is None

    def test_raising_reduce_is_unpicklable(self):
        class SneakyUnpicklable:
            def __reduce__(self):
                raise pickle.PicklingError("runtime-only failure")

        reason = unpicklable_reason(SneakyUnpicklable())
        assert reason == (
            "payload not picklable: PicklingError('runtime-only failure')"
        )


# ----------------------------------------------------------------------
# Counterexample persistence


class TestCounterexampleCache:
    def test_refutations_persist_and_seed_repeat_searches(self, tmp_path):
        cache = SummaryCache(cache_dir=str(tmp_path))
        # Run 1: timeout after the bounded checker refutes candidates —
        # no summary is cached, but the counterexamples are.
        first = translate(
            FLOAT_FOLD,
            search_config=SearchConfig(timeout_seconds=0.02),
            cache=cache,
        )
        frag = first.fragments[0]
        if frag.search.counterexample_states:
            fingerprint = fingerprint_fragment(frag.analysis)
            assert cache.lookup_counterexamples(fingerprint)
        # Run 2: full search on the same (cold-summary) cache re-checks
        # the cached counterexamples first.
        second = translate(FLOAT_FOLD, cache=cache)
        frag2 = second.fragments[0]
        assert frag2.translated
        assert not frag2.cache_hit
        if frag.search.counterexample_states:
            assert frag2.search.cached_counterexamples_used > 0
        # Seeding Φ never changes the result, only the search path.
        baseline = translate(FLOAT_FOLD)
        outputs_seeded = frag2.program.run({"data": [0.5, 1.5, 2.5], "n": 3}).outputs
        outputs_plain = baseline.fragments[0].program.run(
            {"data": [0.5, 1.5, 2.5], "n": 3}
        ).outputs
        assert values_equal(outputs_seeded["total"], outputs_plain["total"])

    def test_counterexample_entries_round_trip_disk(self, tmp_path):
        cache = SummaryCache(cache_dir=str(tmp_path))
        result = translate(FLOAT_FOLD, cache=cache)
        states = result.fragments[0].search.counterexample_states
        if not states:
            pytest.skip("search found a summary without refutations")
        fingerprint = fingerprint_fragment(result.fragments[0].analysis)
        reloaded = SummaryCache(cache_dir=str(tmp_path))
        recovered = reloaded.lookup_counterexamples(fingerprint)
        assert recovered
        assert {tuple(sorted(s.inputs)) for s in recovered} <= {
            tuple(sorted(s.inputs)) for s in states
        }


# ----------------------------------------------------------------------
# LNT10x: the concurrency lint, on crafted files


def _lint(tmp_path: Path, relative: str, source: str):
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return lint_file(path, tmp_path)


class TestLint:
    def test_lnt101_bare_acquire(self, tmp_path):
        findings = _lint(
            tmp_path,
            "engine/bad_lock.py",
            "def f(lock):\n    lock.acquire()\n    work()\n",
        )
        assert [f.code for f in findings] == ["LNT101"]

    def test_lnt101_sanctioned_patterns_clean(self, tmp_path):
        source = (
            "def f(lock):\n"
            "    with lock.acquire():\n"
            "        work()\n"
            "    lock.acquire()\n"
            "    try:\n"
            "        work()\n"
            "    finally:\n"
            "        lock.release()\n"
        )
        # The manual acquire sits right before its try/finally release —
        # flagged only because it is outside the try body; move it in.
        source_ok = (
            "def f(lock):\n"
            "    with lock.acquire():\n"
            "        work()\n"
            "    try:\n"
            "        lock.acquire()\n"
            "        work()\n"
            "    finally:\n"
            "        lock.release()\n"
        )
        assert _lint(tmp_path, "engine/ok_lock.py", source_ok) == []
        assert [
            f.code for f in _lint(tmp_path, "engine/mixed_lock.py", source)
        ] == ["LNT101"]

    def test_lnt102_swallowed_broad_except_on_worker_path(self, tmp_path):
        source = (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        findings = _lint(tmp_path, "engine/worker.py", source)
        assert [f.code for f in findings] == ["LNT102"]
        # The same swallow outside a worker path is tolerated (except
        # for *bare* excepts, which are flagged everywhere).
        assert _lint(tmp_path, "lang/helper.py", source) == []
        bare = "def f():\n    try:\n        work()\n    except:\n        pass\n"
        assert [f.code for f in _lint(tmp_path, "lang/bare.py", bare)] == [
            "LNT102"
        ]

    def test_lnt102_handled_except_clean(self, tmp_path):
        source = (
            "def f(log):\n"
            "    try:\n"
            "        work()\n"
            "    except Exception as exc:\n"
            "        log.warning('failed: %s', exc)\n"
        )
        assert _lint(tmp_path, "engine/handled.py", source) == []

    def test_lnt103_mutable_class_attribute(self, tmp_path):
        source = "class Kernel:\n    cache = {}\n    slots = []\n"
        findings = _lint(tmp_path, "codegen/kernel.py", source)
        assert [f.code for f in findings] == ["LNT103", "LNT103"]
        # Same class outside a payload path: no finding.
        assert _lint(tmp_path, "lang/other.py", source) == []

    def test_lnt104_wall_clock_in_priced_path(self, tmp_path):
        source = (
            "import random\n"
            "import time\n"
            "def price():\n"
            "    a = time.time()\n"
            "    b = time.perf_counter()  # lint: allow-wall-clock\n"
            "    c = random.random()\n"
            "    return a + b + c\n"
        )
        findings = _lint(tmp_path, "planner/pricing.py", source)
        # The marker comment exempts nothing: all three reads are findings.
        assert [f.code for f in findings] == ["LNT104", "LNT104", "LNT104"]
        assert sorted(f.line for f in findings) == [4, 5, 6]
        assert _lint(tmp_path, "engine/timing.py", source) == []

    def test_lint_self_run_clean(self):
        root = Path(repro.__file__).resolve().parent
        findings = lint_tree(root)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean"
        clean.mkdir()
        (clean / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert lint_main([str(clean)]) == 0
        dirty = tmp_path / "engine"
        dirty.mkdir()
        (dirty / "bad.py").write_text(
            "def f(lock):\n    lock.acquire()\n", encoding="utf-8"
        )
        assert lint_main([str(tmp_path)]) == 1
        assert lint_main([str(tmp_path / "missing")]) == 2
        capsys.readouterr()


# ----------------------------------------------------------------------
# Differential sweep: the gate never changes runtime results

_SWEEP_SUITES = [
    "ariths_sum",
    "stats_variance_sums",
    "phoenix_wordcount",
    "fiji_threshold",
    "tpch_q6",
]

RUN_SIZE = 120


class TestDifferentialSweep:
    @pytest.mark.parametrize("name", _SWEEP_SUITES, ids=lambda n: n)
    def test_soundness_gate_is_behavior_neutral(self, name):
        benchmark = get_benchmark(name)
        gated = compile_benchmark(benchmark)
        ungated = CasperCompiler(soundness=False).translate_source(
            benchmark.source, benchmark.function
        )
        inputs = benchmark.make_inputs(RUN_SIZE, 13)
        assert [f.translated for f in gated.fragments] == [
            f.translated for f in ungated.fragments
        ]
        for on, off in zip(gated.fragments, ungated.fragments):
            if not on.translated:
                continue
            reference = interpret_fragment(on.analysis, dict(inputs))
            for plan in ("sequential", "multiprocess"):
                with_gate = on.program.run(dict(inputs), ExecOptions(plan=plan)).outputs
                without_gate = off.program.run(
                    dict(inputs), ExecOptions(plan=plan)
                ).outputs
                assert with_gate == without_gate, (
                    f"{name}/{plan}: soundness gate changed outputs"
                )
                common = set(with_gate) & set(reference)
                assert common and all(
                    values_equal(with_gate[k], reference[k]) for k in common
                )

    def test_no_suite_fragment_is_rejected_by_the_gate(self):
        """Suite safety: the gate must never produce an error-level
        diagnostic for any benchmark fragment (analysis-only, so the
        whole registry of 70 suites stays cheap to sweep)."""
        from repro.lang.analysis.fragments import (
            analyze_fragment,
            identify_fragments,
        )
        from repro.lang.parser import parse_program

        for benchmark in all_benchmarks():
            program = parse_program(benchmark.source)
            func = program.function(benchmark.function)
            for fragment in identify_fragments(func):
                try:
                    analysis = analyze_fragment(fragment, program)
                except AnalysisError:
                    continue  # analysis rejections are not the gate's
                diags = analyze_soundness(analysis)
                errors = [d for d in diags if d.severity == "error"]
                assert not errors, (
                    f"{benchmark.name}/{fragment.id}: "
                    + "; ".join(d.render() for d in errors)
                )
