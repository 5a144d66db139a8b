"""Bounded model checking of candidate summaries (paper section 3.4).

The checker verifies a candidate program summary over a *bounded* domain:
small dataset sizes and small value ranges (the paper's example bounds
integer inputs to a maximum value of 4).  It works by co-interpretation —

1. build a concrete program state σ (inputs + prelude),
2. run the sequential fragment with the reference interpreter,
3. evaluate the candidate summary with the IR evaluator,
4. compare outputs structurally.

A state on which the two disagree is the CEGIS counter-example φ.
Deliberately, candidates that are wrong only *outside* the bounded domain
(e.g. ``v`` vs ``min(4, v)``) pass here and are caught by the full
verifier — that mismatch is what exercises two-phase verification.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Iterable, Optional, Sequence

from ..errors import InterpreterError, IRError
from ..lang import ast_nodes as ast
from ..lang.analysis.fragments import FragmentAnalysis
from ..lang.interpreter import Environment, Interpreter
from ..lang.types import (
    ArrayType,
    ClassType,
    JType,
    ListType,
    MapType,
    PrimitiveType,
    SetType,
)
from ..lang.values import Instance, deep_copy_value, make_date, values_equal
from ..ir.nodes import Summary
from ..ir.eval import evaluate_summary


@dataclass
class ProgramState:
    """A concrete binding of the fragment's input variables."""

    inputs: dict[str, Any]

    def copy(self) -> "ProgramState":
        return ProgramState({k: deep_copy_value(v) for k, v in self.inputs.items()})

    def __repr__(self) -> str:
        return f"ProgramState({self.inputs!r})"


@dataclass
class BoundedCheckConfig:
    """Domain bounds for state generation (paper section 3.4)."""

    max_dataset_size: int = 4
    int_range: tuple[int, int] = (-4, 4)
    float_values: tuple[float, ...] = (-2.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.5)
    string_pool: tuple[str, ...] = ("a", "b", "c", "w0", "w1")
    date_range: tuple[int, int] = (8300, 8900)  # epoch days around 1993
    seed: int = 11


class StateGenerator:
    """Generates random bounded program states consistent with a fragment.

    Consistency constraints: loop-bound scalars (e.g. ``rows``/``cols``)
    are set from the generated dataset's dimensions, not drawn randomly.
    """

    def __init__(self, analysis: FragmentAnalysis, config: Optional[BoundedCheckConfig] = None):
        self.analysis = analysis
        self.config = config or BoundedCheckConfig()
        self.rng = random.Random(self.config.seed)
        self._bound_vars = self._find_bound_vars()
        self._build_value_pools()
        self._find_index_constraints()

    def _build_value_pools(self) -> None:
        """Mix the fragment's own constants into the value pools.

        Bounded model checking must be able to discriminate candidates
        around the fragment's decision boundaries (e.g. Q6's 0.05/0.07
        discount band, or its date window) — a SAT-based checker finds
        such witnesses by construction; a random generator has to be
        seeded with them.
        """
        cfg = self.config
        ints = list(range(cfg.int_range[0], cfg.int_range[1] + 1))
        floats = list(cfg.float_values)
        strings = list(cfg.string_pool)
        dates = []
        for value, _jtype in self.analysis.scan.constants:
            if isinstance(value, bool):
                continue
            if isinstance(value, int):
                ints.extend([value - 1, value, value + 1])
                floats.extend([float(value) - 0.5, float(value), float(value) + 0.5])
            elif isinstance(value, float):
                floats.extend([value - 0.01, value, value + 0.01])
            elif isinstance(value, str):
                strings.append(value)
        for value in self.analysis.prelude_constants.values():
            if isinstance(value, Instance) and value.class_name == "Date":
                epoch = value.get("epoch")
                dates.extend([epoch - 30, epoch - 1, epoch, epoch + 1, epoch + 30])
            elif isinstance(value, str):
                strings.append(value)
        # Broadcast string inputs (e.g. search keywords) should sometimes
        # collide with data values: pool them too.
        self._int_pool = ints
        self._float_pool = floats
        self._string_pool = strings
        self._date_pool = dates or list(range(cfg.date_range[0], cfg.date_range[1], 73))

    def _find_bound_vars(self) -> dict[str, int]:
        """Map scalar input names used as loop bounds to dataset dims."""
        bound_vars: dict[str, int] = {}
        view = self.analysis.view
        for dim, bound in enumerate(view.bounds):
            if isinstance(bound, ast.Name) and bound.ident in self.analysis.input_vars:
                bound_vars[bound.ident] = dim
        return bound_vars

    def _find_index_constraints(self) -> None:
        """Detect data-dependent indexing into broadcast/output arrays.

        When the fragment reads or writes ``arr[field]`` where ``field``
        is not a loop counter (PageRank's ``rank[e.src]``, histogram's
        ``h[data[i]]``), random states must keep every such index within
        the arrays' bounds or nearly all states fault and bounded checking
        degenerates.  We pick a common index domain L, size all involved
        arrays to L, pin scalars that size prelude allocations to L, and
        draw int-valued element fields from [0, L).
        """
        self._index_domain: Optional[int] = None
        self._pinned_scalars: set[str] = set()
        self._domain_arrays: set[str] = set()
        if self.analysis.join is not None:
            # Join fragments: int-valued element fields are (potential)
            # join keys.  Drawing them from a small common domain makes
            # key matches — and same-key collisions within a relation —
            # frequent enough that bounded checking discriminates
            # accumulate-vs-overwrite and guarded-vs-unguarded
            # candidates instead of degenerating to empty joins.
            self._index_domain = min(6, max(3, self.config.max_dataset_size))
            return
        counters = set(self.analysis.view.index_vars)
        arrays = set(self.analysis.input_vars) | set(self.analysis.output_vars)
        data_indexed = False
        for stmt in self.analysis.fragment.statements:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Index)
                    and isinstance(node.base, ast.Name)
                    and node.base.ident in arrays
                ):
                    index = node.index
                    if isinstance(index, ast.Name) and index.ident in counters:
                        continue
                    data_indexed = True
                    if node.base.ident in self.analysis.input_vars:
                        self._domain_arrays.add(node.base.ident)
        if not data_indexed:
            return
        self._index_domain = min(6, max(3, self.config.max_dataset_size))
        # Scalars that size prelude array allocations must equal L.
        for stmt in self.analysis.fragment.prelude:
            if isinstance(stmt, ast.VarDecl) and isinstance(stmt.init, ast.NewArray):
                for dim in stmt.init.dims:
                    if isinstance(dim, ast.Name):
                        self._pinned_scalars.add(dim.ident)

    # ------------------------------------------------------------------

    def generate(self, size: Optional[int] = None) -> ProgramState:
        """Generate one random state; ``size`` pins the dataset size."""
        cfg = self.config
        n = size if size is not None else self.rng.randint(0, cfg.max_dataset_size)
        dims = self._pick_dims(n)
        inputs: dict[str, Any] = {}
        view = self.analysis.view
        for source in view.sources:
            source_type = self.analysis.input_vars.get(source)
            inputs[source] = self._random_dataset(source_type, dims)
        for name, jtype in self.analysis.input_vars.items():
            if name in inputs:
                continue
            if name in self._bound_vars:
                inputs[name] = dims[self._bound_vars[name]]
            elif name in self._pinned_scalars:
                inputs[name] = self._index_domain
            elif name in self._domain_arrays and isinstance(
                jtype, (ArrayType, ListType)
            ):
                length = self._index_domain or 4
                inputs[name] = [
                    self._random_value(jtype.element) for _ in range(length)
                ]
            else:
                inputs[name] = self._random_value(jtype)
        return ProgramState(inputs)

    def empty_state(self) -> ProgramState:
        """The state with an empty dataset (the initiation case)."""
        return self.generate(size=0)

    def singleton_state(self) -> ProgramState:
        return self.generate(size=1)

    def _pick_dims(self, n: int) -> tuple[int, int]:
        if self.analysis.view.kind == "array2d":
            if n == 0:
                return (0, self.rng.randint(1, 3))
            cols = self.rng.randint(1, 3)
            return (n, cols)
        return (n, 1)

    # ------------------------------------------------------------------

    def _random_dataset(self, jtype: Optional[JType], dims: tuple[int, int]) -> Any:
        view = self.analysis.view
        rows, cols = dims
        if view.kind == "array2d":
            element_type = view.element_fields[-1].jtype
            return [
                [self._random_value(element_type) for _ in range(cols)]
                for _ in range(rows)
            ]
        if isinstance(jtype, (ArrayType, ListType)):
            return [self._random_value(jtype.element) for _ in range(rows)]
        if isinstance(jtype, SetType):
            values = {self._random_value(jtype.element) for _ in range(rows)}
            return values
        # Unknown container: default to list of ints.
        return [self._random_value(PrimitiveType("int")) for _ in range(rows)]

    def _random_value(self, jtype: Optional[JType]) -> Any:
        cfg = self.config
        if jtype is None:
            return self.rng.choice(self._int_pool)
        if isinstance(jtype, PrimitiveType):
            if jtype.name in ("int", "long", "char"):
                if self._index_domain is not None:
                    return self.rng.randrange(0, self._index_domain)
                return self.rng.choice(self._int_pool)
            if jtype.name in ("double", "float"):
                return self.rng.choice(self._float_pool)
            if jtype.name == "boolean":
                return self.rng.random() < 0.5
            if jtype.name == "String":
                return self.rng.choice(self._string_pool)
        if isinstance(jtype, ClassType):
            if jtype.name == "Date":
                return make_date(self.rng.choice(self._date_pool))
            try:
                decl = self.analysis.program.class_decl(jtype.name)
            except KeyError:
                return None
            fields = {f.name: self._random_value(f.type) for f in decl.fields}
            return Instance(jtype.name, fields)
        if isinstance(jtype, (ArrayType, ListType)):
            n = self.rng.randint(0, cfg.max_dataset_size)
            return [self._random_value(jtype.element) for _ in range(n)]
        if isinstance(jtype, SetType):
            n = self.rng.randint(0, cfg.max_dataset_size)
            return {self._random_value(jtype.element) for _ in range(n)}
        if isinstance(jtype, MapType):
            return {}
        return None


# ----------------------------------------------------------------------


@dataclass
class FragmentRunResult:
    """Sequential execution result of a fragment on one state."""

    outputs: dict[str, Any]
    output_sizes: dict[str, int]
    globals_env: dict[str, Any]


def run_sequential_fragment(
    analysis: FragmentAnalysis, state: ProgramState
) -> FragmentRunResult:
    """Run prelude + loop with the interpreter; return the fragment outputs.

    Raises InterpreterError when the original program itself faults on this
    state (such states are discarded — the original behaviour is undefined).
    """
    interp = Interpreter(analysis.program)
    env = Environment()
    working = state.copy()
    for name, value in working.inputs.items():
        env.define(name, value)
    for stmt in analysis.fragment.prelude:
        interp.exec_stmt(stmt, env)

    # Snapshot the environment the summary sees: inputs + prelude values.
    globals_env = dict(env.flat())
    output_sizes: dict[str, int] = {}
    for name in analysis.output_vars:
        value = globals_env.get(name)
        if isinstance(value, list):
            output_sizes[name] = len(value)

    interp.exec_stmt(analysis.fragment.loop, env)
    final = env.flat()
    outputs = {name: final.get(name) for name in analysis.output_vars}
    return FragmentRunResult(outputs=outputs, output_sizes=output_sizes, globals_env=globals_env)


def evaluate_candidate(
    analysis: FragmentAnalysis,
    summary: Summary,
    state: ProgramState,
    run: Optional[FragmentRunResult] = None,
) -> dict[str, Any]:
    """Evaluate a candidate summary on a state; raises IRError on faults."""
    if run is None:
        run = run_sequential_fragment(analysis, state)
    datasets, globals_env = summary_inputs(analysis, run)
    return evaluate_summary(summary, datasets, globals_env, run.output_sizes)


def summary_inputs(
    analysis: FragmentAnalysis, run: FragmentRunResult
) -> tuple[dict[str, list[dict[str, Any]]], dict[str, Any]]:
    """The materialized datasets and the globals a summary runs on."""
    if analysis.join is not None:
        # Join fragments: each relation materializes through its own
        # per-side foreach view — the sides are independent datasets,
        # not zipped aliases of one another.
        datasets = {
            side.source: side.view.materialize(run.globals_env)
            for side in analysis.join.sides
        }
    else:
        datasets = {
            analysis.view.sources[0]: analysis.view.materialize(run.globals_env)
        }
        # Multi-source (zipped) views share the same materialization.
        for source in analysis.view.sources[1:]:
            datasets[source] = datasets[analysis.view.sources[0]]
    return datasets, summary_globals(analysis, run.globals_env)


def summary_globals(
    analysis: FragmentAnalysis, fragment_env: dict[str, Any]
) -> dict[str, Any]:
    """The environment a summary sees: scalars + broadcast containers.

    Dataset sources and output variables are excluded; every other input
    (including read-only arrays/maps, reachable via the IR ``lookup``
    function) is available to transformer functions.
    """
    excluded = set(analysis.view.sources) | set(analysis.output_vars)
    return {k: v for k, v in fragment_env.items() if k not in excluded}


@dataclass
class BoundedChecker:
    """CEGIS's boundedVerify: check a summary over many bounded states.

    Every state is drawn when the checker is built, so the states and
    their order depend only on the config's seed.  A state is *run* —
    the sequential fragment on it, then :func:`summary_inputs` — only
    when a check first reaches it, and kept for every later candidate,
    so states no check reaches never run.  A state the fragment faults
    on is dropped when it is reached.

    Refutations do not cluster on the first states: every join
    candidate of ``joins_q3_revenue`` passes the empty, singleton and
    first random state, and 600 of its 800 fail on the fourth.
    :meth:`check` therefore takes ``first`` — states to try before the
    rest — so a search can lead with the states that refuted its earlier
    candidates.
    """

    analysis: FragmentAnalysis
    config: BoundedCheckConfig = field(default_factory=BoundedCheckConfig)
    num_states: int = 24

    def __post_init__(self) -> None:
        self.generator = StateGenerator(self.analysis, self.config)
        self._drawn = [self.generator.empty_state(), self.generator.singleton_state()]
        self._drawn += [self.generator.generate() for _ in range(self.num_states - 2)]
        self._next_drawn = 0
        self._states: list[ProgramState] = []
        self._runs: list[FragmentRunResult] = []
        #: Per state run, what :func:`summary_inputs` builds: materialized
        #: once and shared by every candidate (``evaluate_summary`` reads
        #: its inputs, never writes them).
        self._inputs: list[tuple[dict[str, Any], dict[str, Any]]] = []
        #: id(state) → its index in ``_states`` (the list pins the state).
        self._index: dict[int, int] = {}

    def _run_next(self) -> Optional[tuple[ProgramState, FragmentRunResult, tuple]]:
        """Run the next drawn state and keep it; None once all have run."""
        while self._next_drawn < len(self._drawn):
            state = self._drawn[self._next_drawn]
            self._next_drawn += 1
            try:
                run = run_sequential_fragment(self.analysis, state)
            except InterpreterError:
                continue  # original program faults here: state is invalid
            inputs = summary_inputs(self.analysis, run)
            self._index[id(state)] = len(self._states)
            self._states.append(state)
            self._runs.append(run)
            self._inputs.append(inputs)
            return state, run, inputs
        return None

    @property
    def states(self) -> list[ProgramState]:
        """Every valid state; runs the ones no check has reached yet."""
        while self._run_next() is not None:
            pass
        return self._states

    def expected_outputs(self, index: int) -> dict[str, Any]:
        while len(self._runs) <= index and self._run_next() is not None:
            pass
        return self._runs[index].outputs

    def check(
        self, summary: Summary, first: Sequence[ProgramState] = ()
    ) -> Optional[ProgramState]:
        """Return a counter-example state, or None if all states agree.

        ``first`` are states this checker returned before; they are tried
        in the given order, then every other state in drawn order.
        Whether a candidate is refuted does not depend on the order, only
        which counter-example comes back — unless some state makes the
        summary raise something other than ``IRError``, which propagates
        from whichever such state is tried first.
        """
        # The states already run, then the next drawn ones, each run as
        # the loop reaches it (``iter`` calls ``_run_next`` until None).
        rows: Iterable[tuple[ProgramState, FragmentRunResult, tuple]] = chain(
            zip(self._states, self._runs, self._inputs), iter(self._run_next, None)
        )
        if first:
            indices = [self._index[id(state)] for state in first]
            skip = set(map(id, first))
            rows = chain(
                [(self._states[i], self._runs[i], self._inputs[i]) for i in indices],
                (row for row in rows if id(row[0]) not in skip),
            )
        for state, run, (datasets, globals_env) in rows:
            try:
                got = evaluate_summary(summary, datasets, globals_env, run.output_sizes)
            except IRError:
                return state
            if not all(
                values_equal(got.get(name), run.outputs.get(name))
                for name in self.analysis.output_vars
            ):
                return state
        return None

    def check_on_states(
        self, summary: Summary, states: list[ProgramState]
    ) -> Optional[ProgramState]:
        """Check only on an explicit state set (the CEGIS Φ set)."""
        for state in states:
            try:
                run = run_sequential_fragment(self.analysis, state)
            except InterpreterError:
                continue
            try:
                got = evaluate_candidate(self.analysis, summary, state, run)
            except IRError:
                return state
            if not all(
                values_equal(got.get(name), run.outputs.get(name))
                for name in self.analysis.output_vars
            ):
                return state
        return None
