"""Tests for verification: symexec, bounded checking, and the prover."""

import pytest

from repro.errors import VerificationError
from repro.ir import builder
from repro.ir.builder import (
    add,
    const,
    div,
    emit,
    map_stage,
    max_,
    min_,
    pipeline,
    reduce_stage,
    scalar_output,
    summary,
    var,
    whole_output,
)
from repro.lang.parser import parse_function, parse_program
from repro.verification import (
    BoundedCheckConfig,
    BoundedChecker,
    FullVerifier,
    StateGenerator,
    SymbolicExecutor,
    check_reduce_properties,
    generate_vcs,
    run_sequential_fragment,
)
from repro.ir.nodes import ReduceLambda, Var
from repro.verification.algebra import normalize, term_key
from tests.conftest import analysis_of


class TestSymbolicExecution:
    def exec_body(self, source, bindings, containers=frozenset()):
        func = parse_function(source)
        executor = SymbolicExecutor(dict(bindings), set(containers))
        return executor.execute(func.body.stmts)

    def test_straight_line_update(self):
        paths = self.exec_body(
            "int f(int v) { acc = acc + v; }",
            {"acc": Var("acc"), "v": Var("v")},
        )
        assert len(paths) == 1
        assert term_key(normalize(paths[0].scalars["acc"])) == term_key(
            normalize(add(var("acc"), var("v")))
        )

    def test_branching_creates_paths(self):
        paths = self.exec_body(
            "int f(int v) { if (v > acc) acc = v; }",
            {"acc": Var("acc"), "v": Var("v")},
        )
        assert len(paths) == 2
        conditions = {p.path[0][1] for p in paths}
        assert conditions == {True, False}

    def test_local_declaration_tracked(self):
        paths = self.exec_body(
            "int f(int v) { int t = v * 2; acc = acc + t; }",
            {"acc": Var("acc"), "v": Var("v")},
        )
        assert term_key(normalize(paths[0].scalars["acc"])) == term_key(
            normalize(add(var("acc"), builder.mul(const(2), var("v"))))
        )

    def test_container_write_recorded(self):
        paths = self.exec_body(
            "int f(int v) { h[v] = h[v] + 1; }",
            {"v": Var("v")},
            containers={"h"},
        )
        writes = paths[0].writes["h"]
        assert len(writes) == 1
        key, value = writes[0]
        assert term_key(normalize(key)) == term_key(normalize(var("v")))

    def test_cell_read_before_write_is_symbolic(self):
        paths = self.exec_body(
            "int f(int v) { h[v] = h[v] + 1; }",
            {"v": Var("v")},
            containers={"h"},
        )
        assert len(paths[0].cell_reads) == 1

    def test_nested_loop_rejected(self):
        with pytest.raises(VerificationError):
            self.exec_body(
                "int f(int v) { for (int i = 0; i < v; i++) acc = acc + 1; }",
                {"acc": Var("acc"), "v": Var("v")},
            )


class TestBoundedChecking:
    def test_counterexample_for_wrong_summary(self, sum_analysis):
        checker = BoundedChecker(sum_analysis)
        wrong = summary(
            pipeline(
                "data",
                map_stage(("i", "data"), emit(const("total"), builder.mul(var("data"), const(2)))),
                reduce_stage(add(var("v1"), var("v2"))),
            ),
            scalar_output("total", default=0),
        )
        assert checker.check(wrong) is not None

    def test_correct_summary_passes(self, sum_analysis):
        checker = BoundedChecker(sum_analysis)
        correct = summary(
            pipeline(
                "data",
                map_stage(("i", "data"), emit(const("total"), var("data"))),
                reduce_stage(add(var("v1"), var("v2"))),
            ),
            scalar_output("total", default=0),
        )
        assert checker.check(correct) is None

    def test_bounded_domain_blind_spot(self, max_analysis):
        """min(4, v) == v inside the bounded domain — must pass here."""
        checker = BoundedChecker(max_analysis, config=BoundedCheckConfig(int_range=(-4, 4)))
        sneaky = summary(
            pipeline(
                "data",
                map_stage(("i", "data"), emit(const("best"), min_(const(4), var("data")))),
                reduce_stage(max_(var("v1"), var("v2"))),
            ),
            scalar_output("best", default=-(2**31)),
        )
        assert checker.check(sneaky) is None  # undetectably wrong here

    def test_states_respect_loop_bounds(self, rwm_analysis):
        generator = StateGenerator(rwm_analysis)
        for _ in range(10):
            state = generator.generate()
            assert state.inputs["rows"] == len(state.inputs["mat"])

    def test_empty_state_has_empty_dataset(self, sum_analysis):
        generator = StateGenerator(sum_analysis)
        state = generator.empty_state()
        assert state.inputs["data"] == []
        assert state.inputs["n"] == 0

    def test_sequential_fragment_run(self, sum_analysis):
        from repro.verification.bounded import ProgramState

        run = run_sequential_fragment(
            sum_analysis, ProgramState({"data": [1, 2, 3], "n": 3})
        )
        assert run.outputs == {"total": 6}


class TestReduceProperties:
    def test_addition_is_ca(self):
        lam = ReduceLambda(add(var("v1"), var("v2")))
        assert check_reduce_properties(lam) == (True, True)

    def test_max_is_ca(self):
        lam = ReduceLambda(max_(var("v1"), var("v2")))
        assert check_reduce_properties(lam) == (True, True)

    def test_keep_first_is_associative_not_commutative(self):
        lam = ReduceLambda(var("v1"))
        commutative, associative = check_reduce_properties(lam)
        assert not commutative
        assert associative

    def test_subtraction_is_neither(self):
        lam = ReduceLambda(builder.sub(var("v1"), var("v2")))
        assert check_reduce_properties(lam) == (False, False)


class TestFullVerifier:
    def test_proves_correct_sum(self, sum_analysis):
        verifier = FullVerifier(sum_analysis)
        correct = summary(
            pipeline(
                "data",
                map_stage(("i", "data"), emit(const("total"), var("data"))),
                reduce_stage(add(var("v1"), var("v2"))),
            ),
            scalar_output("total", default=0),
        )
        result = verifier.verify(correct)
        assert result.status == "proved"
        assert "step" in result.obligations

    def test_refutes_bounded_domain_artifact(self, max_analysis):
        """The paper's §4.1 example: verifier failure caught by phase two."""
        verifier = FullVerifier(max_analysis)
        sneaky = summary(
            pipeline(
                "data",
                map_stage(("i", "data"), emit(const("best"), min_(const(4), var("data")))),
                reduce_stage(max_(var("v1"), var("v2"))),
            ),
            scalar_output("best", default=-(2**31)),
        )
        result = verifier.verify(sneaky)
        assert result.status == "refuted"
        assert result.counterexample is not None

    def test_rejects_wrong_initiation(self, sum_analysis):
        verifier = FullVerifier(sum_analysis)
        wrong_default = summary(
            pipeline(
                "data",
                map_stage(("i", "data"), emit(const("total"), var("data"))),
                reduce_stage(add(var("v1"), var("v2"))),
            ),
            scalar_output("total", default=99),
        )
        result = verifier.verify(wrong_default)
        assert result.status in ("refuted", "unknown")
        assert result.status != "proved"

    def test_proves_nested_rwm(self, rwm_analysis):
        verifier = FullVerifier(rwm_analysis)
        result = verifier.verify(builder.row_wise_mean_summary())
        assert result.status == "proved"
        assert "finalizer" in result.obligations

    def test_rejects_wrong_finalizer(self, rwm_analysis):
        verifier = FullVerifier(rwm_analysis)
        wrong = summary(
            pipeline(
                "mat",
                map_stage(("i", "j", "v"), emit(var("i"), var("v"))),
                reduce_stage(add(var("v1"), var("v2"))),
                map_stage(("k", "v"), emit(var("k"), div(var("v"), var("rows")))),
            ),
            whole_output("m", container="array", default=0),
        )
        assert verifier.verify(wrong).status != "proved"

    def test_a_proof_lists_only_the_obligations_it_checked(self):
        # A flattened nested loop with a map-only summary: no reduce
        # stage, so no identity obligation was checked or is listed.
        analysis = analysis_of(
            """
int[] lastRow(int[][] mat, int rows, int cols) {
  int[] out = new int[cols];
  for (int i = 0; i < rows; i++)
    for (int j = 0; j < cols; j++)
      out[j] = mat[i][j];
  return out;
}
"""
        )
        last_row = summary(
            pipeline("mat", map_stage(("i", "j", "v"), emit(var("j"), var("v")))),
            whole_output("out", container="array", default=0),
        )
        result = FullVerifier(analysis).verify(last_row)
        assert result.status == "proved"
        assert result.reason == "inductive proof complete (flattened)"
        assert result.obligations == ["initiation", "step"]


class TestVCGeneration:
    def test_vcs_have_three_clauses(self, rwm_analysis):
        vcs = generate_vcs(rwm_analysis, builder.row_wise_mean_summary())
        names = [c.name for c in vcs.conditions]
        assert names == ["initiation", "continuation", "termination"]

    def test_nested_loop_gets_two_invariants(self, rwm_analysis):
        vcs = generate_vcs(rwm_analysis, builder.row_wise_mean_summary())
        assert len(vcs.invariants) == 2

    def test_rendering_mentions_prefix(self, rwm_analysis):
        vcs = generate_vcs(rwm_analysis, builder.row_wise_mean_summary())
        text = vcs.render()
        assert "mat[0..i]" in text
        assert "Initiation" in text
