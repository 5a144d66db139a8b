"""The summary search returns the verdicts it always did.

Five angles on one contract — the column-wise Φ filter, the
exhausted-search cache, the per-search normal-key memo and the
materialised bounded states change how much work a search does, never
what it decides:

* a golden table of every registered benchmark's search outcome,
  generated on the commit *before* the column filter landed;
* the column evaluator against a straight-line per-part reference (the
  interpretation loop the filter used to run for every combination);
* a CEGIS restart evaluates only the state it added;
* memoised normal keys equal ``term_key(normalize(e))``, per thread,
  and the memo does not outlive its search;
* checking candidates never writes to a bounded state's inputs, and
  states run on demand give the verdicts of states run up front;
* join checks that lead with the last refuting states refute exactly
  the candidates drawn-order checks refute, and the Φ filter's C
  pre-filter yields and computes what the plain loop did.
"""

from __future__ import annotations

import copy
import gc
import itertools
import json
import threading
import weakref
from pathlib import Path

import pytest

from repro import translate
from repro.errors import InterpreterError, IRError
from repro.ir.eval import eval_expr
from repro.ir.nodes import BinOp, CallFn, Cond, Const, ReduceLambda, UnOp, Var
from repro.lang.analysis import analyze_fragment, identify_fragments
from repro.lang.values import values_equal
from repro.pipeline import (
    CompilationContext,
    CompilerPass,
    PassPipeline,
    default_passes,
)
from repro.synthesis import cegis
from repro.synthesis import (
    CandidateEnumerator,
    GrammarBuilder,
    JoinCandidateEnumerator,
    PartEvaluator,
    Synthesizer,
    find_summaries,
    generate_classes,
    harvest_paths,
)
from repro.synthesis.enumerator import ContainerPart, ScalarPart
from repro.synthesis.grammar import NormalKeys
from repro.verification import FullVerifier, bounded
from repro.verification.algebra import normalize, term_key
from repro.verification.bounded import (
    BoundedChecker,
    ProgramState,
    run_sequential_fragment,
    summary_globals,
)
from repro.workloads import get_benchmark
from repro.workloads.registry import all_benchmarks
from tests.conftest import RWM_SOURCE, SUM_SOURCE, analysis_of
from suite_cache import compiled

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "search_golden.json").read_text(encoding="utf-8")
)


# ----------------------------------------------------------------------
# (a) golden table


def test_golden_table_covers_the_registered_suite():
    assert sorted(GOLDEN) == sorted(b.name for b in all_benchmarks())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_search_outcome_matches_golden(name):
    compilation = compiled(name)
    got = {
        "fragments": compilation.identified,
        "translated": compilation.translated,
        "candidates_checked": compilation.candidates_checked,
        "summaries": [
            [str(vs.summary) for vs in (f.search.summaries if f.search else [])]
            for f in compilation.fragments
        ],
    }
    assert got == GOLDEN[name]


PROOFS_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "proofs_golden.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("name", sorted(PROOFS_GOLDEN))
def test_kept_proofs_match_golden(name):
    """The proof tier of every kept summary stays put: status, reason,
    the obligations checked, the λr flags and the Tier-2 domain."""
    got = [
        [
            {
                "status": vs.proof.status,
                "reason": vs.proof.reason,
                "obligations": list(vs.proof.obligations),
                "is_commutative": vs.proof.is_commutative,
                "is_associative": vs.proof.is_associative,
                "domain": vs.proof.domain,
            }
            for vs in (f.search.summaries if f.search else [])
        ]
        for f in compiled(name).fragments
    ]
    assert got == PROOFS_GOLDEN[name]


# ----------------------------------------------------------------------
# (b) column evaluator == per-part reference


class ReferenceState:
    """What one Φ state offers a part: dataset, globals, expected outputs."""

    def __init__(self, analysis, state):
        run = run_sequential_fragment(analysis, state)
        self.elements = analysis.view.materialize(run.globals_env)
        self.globals_env = summary_globals(analysis, run.globals_env)
        self.expected = run.outputs
        self.output_sizes = run.output_sizes


def reference_states(analysis, states):
    kept = []
    for state in states:
        try:
            kept.append(ReferenceState(analysis, state))
        except InterpreterError:
            continue
    return kept


def reference_ok(part, states) -> bool:
    """Interpret one part over every state, the slow obvious way."""
    try:
        return all(_reference_state_ok(part, s) for s in states)
    except IRError:
        return False


def _reference_state_ok(part, s) -> bool:
    scalar = isinstance(part, ScalarPart)
    lam = part.reduce_lam
    bag, keyed, acc = [], {}, None
    for element in s.elements:
        env = {**s.globals_env, **element}
        if part.guard is not None and not eval_expr(part.guard, env):
            continue
        if not scalar and part.container == "set":
            keyed[eval_expr(part.key, env)] = 1
            continue
        key = None if scalar or part.container == "bag" else eval_expr(part.key, env)
        value = eval_expr(part.value, env)
        bag.append(value)
        if scalar:
            fold = {**s.globals_env, lam.params[0]: acc, lam.params[1]: value}
            acc = value if acc is None else eval_expr(lam.body, fold)
        elif lam is not None and key in keyed:
            fold = {**s.globals_env, lam.params[0]: keyed[key], lam.params[1]: value}
            keyed[key] = eval_expr(lam.body, fold)
        else:
            keyed[key] = value
    expected = s.expected.get(part.var)
    if scalar:
        return values_equal(part.default if acc is None else acc, expected)
    if part.container == "bag":
        return values_equal(bag, expected)
    if part.container == "set":
        return values_equal(set(keyed), expected)
    if part.finalizer is not None:
        envs = [{**s.globals_env, "k": k, "v": v} for k, v in keyed.items()]
        keyed = {
            eval_expr(part.finalizer[0], e): eval_expr(part.finalizer[1], e) for e in envs
        }
    if part.container == "map":
        return values_equal(keyed, expected)
    size = s.output_sizes.get(part.var)
    if size is None:
        size = (max(keyed) + 1) if keyed else 0
    return values_equal([keyed.get(i, part.default) for i in range(size)], expected)


class RecordingEvaluator(PartEvaluator):
    """Logs every (part, verdict) the enumerator asks about."""

    def __init__(self, analysis, states):
        super().__init__(analysis, states)
        self.log = []

    def passing(self, var, container, default, lam, fin, guard, key, values):
        passed = list(super().passing(var, container, default, lam, fin, guard, key, values))
        accepted = {id(column) for column in passed}
        for value in values:
            if container is None:
                part = ScalarPart(var, guard.expr, value.expr, lam, default)
            else:
                part = ContainerPart(
                    var, key.expr, value.expr, guard.expr, lam, fin, container, default
                )
            self.log.append((part, id(value) in accepted))
        return iter(passed)


SET_SOURCE = """
Set<String> distinct(List<String> words) {
  Set<String> seen = new HashSet<String>();
  for (String w : words) { seen.add(w); }
  return seen;
}
"""

#: First fragment of suite programs covering scalar (plain, guarded,
#: tuple-packed), map, array and bag outputs; the suite has no
#: map-reduce-map array or set output, so two local sources add those.
SAMPLED_SUITE_FRAGMENTS = (
    "ariths_average",
    "stats_min_max",
    "fiji_gamma_stats",
    "tpch_q6",
    "tpch_q1",
    "phoenix_wordcount",
    "fiji_channel_histogram",
    "fiji_frame_max",
    "biglambda_select_sum",
)
SAMPLED_SOURCES = {"rwm": RWM_SOURCE, "set": SET_SOURCE}


def sampled_analysis(label):
    if label in SAMPLED_SOURCES:
        return analysis_of(SAMPLED_SOURCES[label])
    return analysis_of(get_benchmark(label).source)


#: Reference checks per sampled fragment (it is the slow path by design).
REFERENCE_BUDGET = 4000


@pytest.mark.parametrize("label", [*SAMPLED_SUITE_FRAGMENTS, *SAMPLED_SOURCES])
def test_every_proposed_part_gets_the_reference_verdict(label):
    analysis = sampled_analysis(label)
    checker = BoundedChecker(analysis)
    phi = checker.states[:6]
    states = reference_states(analysis, phi)
    sym_paths = harvest_paths(analysis)
    proposed = 0
    for grammar_class in generate_classes(analysis):
        pools = GrammarBuilder(analysis, grammar_class, sym_paths).build()
        recorder = RecordingEvaluator(analysis, phi)
        list(CandidateEnumerator(analysis, grammar_class, pools, recorder).candidates())
        proposed += len(recorder.log)
        stride = max(1, len(recorder.log) // REFERENCE_BUDGET)
        # Every accepted part, and an even sample of the rejected ones.
        sample = [
            entry
            for index, entry in enumerate(recorder.log)
            if entry[1] or index % stride == 0
        ]
        for part, verdict in sample:
            assert verdict == reference_ok(part, states), part
    assert proposed > 0


GUARDED_DIVISION = """
int f(int[] d, int n) {
  int t = 0;
  for (int i = 0; i < n; i++) { if (d[i] != 0) t += 10 / d[i]; }
  return t;
}
"""

HALVES = """
Map<String, Double> f(List<String> words) {
  Map<String, Double> m = new HashMap<String, Double>();
  for (String w : words) { m.put(w, 0.5); }
  return m;
}
"""

PLUS = ReduceLambda(BinOp("+", Var("v1", "int"), Var("v2", "int")))


def evaluator_ok(evaluator, part) -> bool:
    """One hand-built part through the evaluator's own ``passing``."""
    scalar = isinstance(part, ScalarPart)
    guard, key, value = evaluator.columns(
        [part.guard, None if scalar else part.key, part.value]
    )
    passed = evaluator.passing(
        part.var,
        None if scalar else part.container,
        part.default,
        part.reduce_lam,
        None if scalar else part.finalizer,
        guard,
        key,
        [value],
    )
    return list(passed) == [value]


class TestHandBuiltParts:
    def _both(self, analysis, states, parts, expected=None):
        """(evaluator verdicts, reference verdicts) over one shared evaluator."""
        evaluator = PartEvaluator(analysis, states)
        reference = reference_states(analysis, states)
        if expected is not None:
            for state in (*evaluator.states, *reference):
                state.expected = expected
        return (
            [evaluator_ok(evaluator, p) for p in parts],
            [reference_ok(p, reference) for p in parts],
        )

    def test_guard_masks_a_raising_cell(self):
        analysis = analysis_of(GUARDED_DIVISION)
        d = Var("d", "int")
        quotient = BinOp("/", Const(10, "int"), d)
        nonzero = BinOp("!=", d, Const(0, "int"))
        states = [ProgramState({"d": [2, 0, 5], "n": 3})]
        masked = ScalarPart("t", nonzero, quotient, PLUS, 0)
        unmasked = ScalarPart("t", None, quotient, PLUS, 0)
        got, want = self._both(analysis, states, [masked, unmasked, masked])
        assert got == want == [True, False, True]

    def test_value_raising_under_a_true_guard(self):
        analysis = analysis_of(GUARDED_DIVISION)
        d = Var("d", "int")
        bad = UnOp("-", Const("a", "String"))  # TypeError: not an IRError
        never = BinOp("<", d, Const(-100, "int"))
        always = BinOp(">", d, Const(-100, "int"))
        states = [ProgramState({"d": [2, 0, 5], "n": 3})]
        evaluator = PartEvaluator(analysis, states)
        reference = reference_states(analysis, states)
        guarded_off = ScalarPart("t", never, bad, PLUS, 7)
        assert evaluator_ok(evaluator, guarded_off) is True
        assert reference_ok(guarded_off, reference) is True
        for guard in (always, None):
            part = ScalarPart("t", guard, bad, PLUS, 0)
            with pytest.raises(TypeError):
                reference_ok(part, reference)
            with pytest.raises(TypeError):
                evaluator_ok(evaluator, part)
        # IRError under a true guard is a plain rejection, every time.
        division = ScalarPart("t", always, BinOp("/", Const(10, "int"), d), PLUS, 0)
        assert evaluator_ok(evaluator, division) is False
        assert evaluator_ok(evaluator, division) is False  # memoised, same answer
        assert reference_ok(division, reference) is False

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 2, 0)])
    def test_true_one_and_one_point_zero_are_three_columns(self, order):
        # Halving in the final stage tells them apart: 1 / 2 is Java
        # integer division (0), 1.0 / 2 and True / 2 are 0.5.
        analysis = analysis_of(HALVES)
        halve = (Var("k", "String"), BinOp("/", Var("v", "double"), Const(2, "int")))
        constants = [Const(1, "int"), Const(1.0, "double"), Const(True, "boolean")]
        parts = [
            ContainerPart("m", Var("w", "String"), constants[i], None, None, halve, "map", None)
            for i in order
        ]
        states = [ProgramState({"words": ["a", "b", "a"]})]
        got, want = self._both(analysis, states, parts)
        assert got == want == [i != 0 for i in order]

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_signed_zeros_are_two_columns(self, order):
        analysis = analysis_of(HALVES)
        spell = (
            Var("k", "String"),
            CallFn("str_concat", (Var("v", "double"), Const("", "String"))),
        )
        zeros = [Const(0.0, "double"), Const(-0.0, "double")]
        parts = [
            ContainerPart("m", Var("w", "String"), zeros[i], None, None, spell, "map", None)
            for i in order
        ]
        states = [ProgramState({"words": ["a"]})]
        got, want = self._both(analysis, states, parts, expected={"m": {"a": "-0.0"}})
        assert got == want == [i == 1 for i in order]

    def test_nan_and_nested_tuples_keep_their_verdicts(self):
        analysis = analysis_of(HALVES)
        nan = CallFn("sqrt", (Const(-1.0, "double"),))
        from repro.ir.nodes import TupleExpr

        values = [
            nan,
            Const(0.5, "double"),
            TupleExpr((Const(1, "int"), TupleExpr((Const(0.5, "double"),)))),
            TupleExpr((Const(1.0, "double"), TupleExpr((Const(0.5, "double"),)))),
        ]
        parts = [
            ContainerPart("m", Var("w", "String"), v, None, None, None, "map", None)
            for v in values
        ]
        states = [ProgramState({"words": ["a", "b"]})]
        got, want = self._both(analysis, states, parts)
        assert got == want == [False, True, False, False]


# ----------------------------------------------------------------------
# (c) a restart evaluates only the state it added


class OneRefutation:
    """A bounded checker that refutes the first candidate it is shown."""

    def __init__(self, real, counterexample):
        self.real = real
        self.states = real.states
        self.counterexample = counterexample
        self.checked = 0

    def check(self, summary):
        self.checked += 1
        if self.checked == 1:
            return self.counterexample
        return self.real.check(summary)


def test_restart_evaluates_only_the_new_state(monkeypatch):
    import repro.synthesis.cegis as cegis

    analysis = analysis_of(SUM_SOURCE)
    real = BoundedChecker(analysis)
    checker = OneRefutation(real, real.states[5])
    grammar_class = generate_classes(analysis)[1]
    pools = GrammarBuilder(analysis, grammar_class, harvest_paths(analysis)).build()

    runs = []
    original = cegis.run_sequential_fragment

    def counting(analysis_, state):
        runs.append(state)
        return original(analysis_, state)

    monkeypatch.setattr(cegis, "run_sequential_fragment", counting)
    synthesizer = Synthesizer(analysis, grammar_class, pools, checker)
    first = synthesizer.synthesize(set())
    assert first is not None and synthesizer.stats.restarts == 1
    # Φ's four seed states once, then the counterexample — not all of Φ again.
    assert len(runs) == 5 and runs[-1] is real.states[5]
    second = synthesizer.synthesize({hash(first)})
    assert second is not None and second != first
    assert len(runs) == 5


# ----------------------------------------------------------------------
# (d) normal keys computed once per pool term

#: The programs ``bench``'s ``compile_mix`` compiles.
COMPILE_MIX = (
    "tpch_q6",
    "joins_q3_revenue",
    "ariths_average",
    "fiji_red_to_magenta",
    "phoenix_matrix_multiply",
)


def fragment_analyses(name):
    benchmark = get_benchmark(name)
    program = benchmark.parse()
    return [
        analyze_fragment(fragment, program)
        for fragment in identify_fragments(program.function(benchmark.function))
    ]


def test_memoised_keys_equal_the_oracle_on_every_deduped_pool(monkeypatch):
    deduped = []
    original = NormalKeys.dedupe

    def recording(self, exprs):
        result = original(self, exprs)
        deduped.append((self, list(exprs), result))
        return result

    monkeypatch.setattr(NormalKeys, "dedupe", recording)
    for name in COMPILE_MIX:
        for analysis in fragment_analyses(name):
            find_summaries(analysis)
    assert len(deduped) > 100
    for keys, exprs, result in deduped:
        oracle = [term_key(normalize(expr)) for expr in exprs]
        assert [keys.key(expr) for expr in exprs] == oracle
        # The first term of each normal form survives, in order.
        firsts = [e for i, e in enumerate(exprs) if oracle[i] not in oracle[:i]]
        assert [id(e) for e in result] == [id(e) for e in firsts]


def test_fragments_compile_on_the_calling_thread():
    # Every pass of every fragment runs on the thread that called
    # PassPipeline.run, one fragment after another.
    benchmark = get_benchmark("fiji_red_to_magenta")
    seen = []

    class Probe(CompilerPass):
        def __init__(self, inner):
            self.inner, self.name = inner, inner.name

        def run(self, ctx, state):
            seen.append((state.fragment.id, self.name, threading.get_ident()))
            self.inner.run(ctx, state)

    ctx = CompilationContext(program=benchmark.parse(), function=benchmark.function)
    PassPipeline(passes=[Probe(p) for p in default_passes()]).run(ctx)
    assert len(ctx.fragments) == 3
    assert all(state.search.summaries for state in ctx.fragments)
    assert {ident for _, _, ident in seen} == {threading.get_ident()}
    names = [p.name for p in default_passes()]
    assert [(f, n) for f, n, _ in seen] == [
        (state.fragment.id, name) for state in ctx.fragments for name in names
    ]


def test_the_memo_dies_with_its_search(monkeypatch):
    made = []
    build = GrammarBuilder.build

    def tracked(self):
        pools = build(self)
        made.append(weakref.ref(pools.normal_keys))
        return pools

    monkeypatch.setattr(GrammarBuilder, "build", tracked)
    result = find_summaries(analysis_of(SUM_SOURCE))
    assert result.translated and len(made) == result.classes_searched  # one per class
    gc.collect()
    assert all(ref() is None for ref in made)


# ----------------------------------------------------------------------
# (e) bounded states materialised once, and only when a check reaches them


def accepted_and_proposed(name, analysis):
    """The accepted summaries, and the first 20 candidates the grammar
    classes propose (refuted ones among them)."""
    accepted = [vs.summary for vs in compiled(name).fragments[0].search.summaries]
    enumerator = JoinCandidateEnumerator if analysis.join else CandidateEnumerator
    sym_paths = harvest_paths(analysis)
    proposed = itertools.chain.from_iterable(
        enumerator(
            analysis, grammar_class, GrammarBuilder(analysis, grammar_class, sym_paths).build()
        ).candidates()
        for grammar_class in generate_classes(analysis)
    )
    return accepted, list(itertools.islice(proposed, 20))


@pytest.mark.parametrize("name", ["joins_q3_revenue", "ariths_average"])
def test_checks_leave_the_materialised_states_untouched(name):
    (analysis,) = fragment_analyses(name)
    checker = BoundedChecker(analysis)
    checker.states  # run every state before any check
    before = copy.deepcopy(checker._inputs)
    accepted, proposed = accepted_and_proposed(name, analysis)
    candidates = [*accepted, *proposed]
    verdicts = [checker.check(summary) for summary in candidates]
    assert verdicts[: len(accepted)] == [None] * len(accepted)
    assert any(verdict is not None for verdict in verdicts)
    assert [checker.check(summary) for summary in candidates] == verdicts
    assert checker._inputs == before


@pytest.mark.parametrize("name", ["tpch_q6", "joins_q3_revenue", "ariths_average"])
def test_extended_states_on_demand_give_the_up_front_verdicts(name):
    (analysis,) = fragment_analyses(name)
    accepted, proposed = accepted_and_proposed(name, analysis)
    # Refuted candidates first: their checks stop where they are refuted,
    # so the on-demand checker meets them with only some states run.
    candidates = [*proposed, *accepted]
    on_demand = FullVerifier(analysis).extended_checker
    up_front = FullVerifier(analysis).extended_checker
    up_front.states  # every state run before any check
    verdicts = [on_demand.check(summary) for summary in candidates]
    assert verdicts == [up_front.check(summary) for summary in candidates]
    assert verdicts[-len(accepted) :] == [None] * len(accepted)
    assert any(verdict is not None for verdict in verdicts)
    assert on_demand.states == up_front.states


def test_a_cold_compile_runs_only_the_extended_states_it_reaches(monkeypatch):
    runs = []
    original = bounded.run_sequential_fragment

    def counting(analysis_, state):
        runs.append(state)
        return original(analysis_, state)

    monkeypatch.setattr(bounded, "run_sequential_fragment", counting)
    compilation = translate(get_benchmark("fiji_red_to_magenta").source)
    assert compilation.translated == 3
    assert len(runs) <= 80  # 132 with every extended state run up front


# ----------------------------------------------------------------------
# (f) join checks lead with the last refuting states; the Φ filter drops
#     memoised failures before its loop


@pytest.mark.parametrize("name", ["joins_q3_revenue", "joins_three_way_cost"])
def test_recent_first_join_checks_refute_what_drawn_order_refutes(name):
    (analysis,) = fragment_analyses(name)
    checker = BoundedChecker(analysis)
    sym_paths = harvest_paths(analysis)
    refuters = []  # most recent first, as the join search keeps them
    proposed = 0
    for grammar_class in generate_classes(analysis):
        pools = GrammarBuilder(analysis, grammar_class, sym_paths).build()
        enumerator = JoinCandidateEnumerator(analysis, grammar_class, pools)
        for candidate in enumerator.candidates():
            proposed += 1
            drawn = checker.check(candidate)
            recent = checker.check(candidate, first=refuters)
            assert (recent is None) == (drawn is None), candidate
            if recent is not None:
                # The state that came back refutes the candidate on its own.
                assert checker.check(candidate, first=[recent]) is recent
                refuters = [recent, *(s for s in refuters if s is not recent)]
    assert proposed >= 400 and refuters


def test_a_cold_join_compile_evaluates_few_summaries(monkeypatch):
    calls = []
    original = bounded.evaluate_summary

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(bounded, "evaluate_summary", counting)
    compilation = translate(get_benchmark("joins_q3_revenue").source)
    assert compilation.candidates_checked == 800
    assert len(calls) <= 1600  # 5 124 with every check in drawn order


def reference_passing(evaluator, var, container, default, lam, fin, guard, key, values):
    """The Φ filter's loop before the nested memo and the C pre-filter:
    one flat ``(head, guard, key, value)`` memo per state, every value
    looped."""
    shape = (var, container, default, lam, fin)
    head = evaluator._heads.setdefault(repr(shape), len(evaluator._heads))
    verdict = cegis._scalar_verdict if container is None else cegis._container_verdict
    memos = evaluator.__dict__.setdefault("reference_memos", {})
    rows = [
        (state, memos.setdefault(id(state), {}), g, k)
        for state, g, k in zip(evaluator.states, guard.ids, key.ids)
    ]
    for value in values:
        for (state, verdicts, g, k), v in zip(rows, value.ids):
            memo_key = (head, g, k, v)
            try:
                ok = verdicts[memo_key]
            except KeyError:
                try:
                    ok = verdict(state, shape, g, k, v)
                except IRError:
                    ok = False
                verdicts[memo_key] = ok
            if not ok:
                break
        else:
            yield value


def filter_log(analysis, passing):
    """Every verdict computed and every value yielded, in order, by one
    search whose Φ filter runs ``passing``."""
    log = []
    numbers = {}  # id(state) → (number, state): pins the state, so no id is reused

    def recorded(verdict):
        def computing(state, shape, g, k, v):
            number = numbers.setdefault(id(state), (len(numbers), state))[0]
            log.append(("verdict", number, repr(shape), g, k, v))
            return verdict(state, shape, g, k, v)

        return computing

    def logged(self, *args):
        for value in passing(self, *args):
            log.append(("yield", tuple(value.ids), str(value.expr)))
            yield value

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cegis, "_scalar_verdict", recorded(cegis._scalar_verdict))
        patch.setattr(cegis, "_container_verdict", recorded(cegis._container_verdict))
        patch.setattr(PartEvaluator, "passing", logged)
        result = find_summaries(analysis)
    return log, result.candidates_checked, [str(vs.summary) for vs in result.summaries]


@pytest.mark.parametrize("name", [n for n in COMPILE_MIX if not n.startswith("joins_")])
def test_the_filter_yields_and_computes_what_the_plain_loop_did(name):
    original = PartEvaluator.passing
    verdicts = 0
    for analysis in fragment_analyses(name):
        got = filter_log(analysis, original)
        assert got == filter_log(analysis, reference_passing)
        verdicts += sum(entry[0] == "verdict" for entry in got[0])
    assert verdicts > 0


class TestKnownFailuresDropped:
    """Hand-built parts through ``passing`` and the plain loop."""

    D = Var("d", "int")
    NONZERO = BinOp("!=", D, Const(0, "int"))
    GOOD = BinOp("/", Const(10, "int"), D)
    #: Wrong on the first state (every cell 100); raises a TypeError — not
    #: an IRError — on the second, whose first element is 3.
    WRONG_THEN_RAISING = Cond(
        BinOp(">", D, Const(2, "int")),
        UnOp("-", Const("a", "String")),
        Const(100, "int"),
    )
    #: Raises a TypeError on the first state already.
    RAISING = UnOp("-", Const("a", "String"))
    STATES = [
        ProgramState({"d": [1, 2], "n": 2}),
        ProgramState({"d": [3, 0, 5], "n": 3}),
    ]

    def run(self, passing, evaluator, exprs):
        """(values yielded, the exception type that ended the loop or None)."""
        guard, key, *values = evaluator.columns([self.NONZERO, None, *exprs])
        yielded = []
        try:
            passed = passing(evaluator, "t", None, 0, PLUS, None, guard, key, values)
            for value in passed:
                yielded.append(values.index(value))
        except Exception as exc:  # noqa: BLE001 — which one surfaces is the point
            return yielded, type(exc)
        return yielded, None

    def both(self, exprs, memoise=()):
        """The same calls through ``passing`` and through the plain loop."""
        analysis = analysis_of(GUARDED_DIVISION)
        outcomes = []
        for passing in (PartEvaluator.passing, reference_passing):
            evaluator = PartEvaluator(analysis, self.STATES)
            if memoise:
                assert self.run(passing, evaluator, memoise) == ([], None)
            outcomes.append(self.run(passing, evaluator, exprs))
        return outcomes

    def test_a_memoised_failure_is_skipped_silently(self, monkeypatch):
        computed = []
        verdict = cegis._scalar_verdict

        def counting(state, shape, g, k, v):
            computed.append(v)
            return verdict(state, shape, g, k, v)

        monkeypatch.setattr(cegis, "_scalar_verdict", counting)
        exprs = [self.WRONG_THEN_RAISING, self.GOOD, self.WRONG_THEN_RAISING]
        got, want = self.both(exprs, memoise=[self.WRONG_THEN_RAISING])
        assert got == want == ([1], None)
        # Per side: the failure once on the first state, the good value twice.
        assert len(computed) == 2 * 3

    def test_an_unmemoised_raise_surfaces_where_it_did(self):
        exprs = [self.WRONG_THEN_RAISING, self.GOOD, self.RAISING, self.GOOD]
        got, want = self.both(exprs, memoise=[self.WRONG_THEN_RAISING])
        assert got == want == ([1], TypeError)
        # Without the memo the first value fails on state 0, never raising.
        got, want = self.both(exprs)
        assert got == want == ([1], TypeError)
