"""The all-suite differential sweep, computed once per benchmark.

Each registered benchmark is compiled once (through the session-wide
``suite_cache``, shared with ``benchmarks/``) and every translated
fragment is run twice on the real sequential engine — the tree-walking
oracle steps and the one production path (compiled kernels over column
chunks) — beside the reference interpreter.  A join pipeline's oracle is
its own step builder with every kernel left on the evaluator callable it
compiles.  ``test_kernels`` asserts the outputs and
``test_layout_sweep`` the per-stage counters, so the sweep costs one
pass however many properties read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from unittest import mock

from repro import ExecOptions
from repro.codegen import base
from repro.codegen.base import (
    bind_outputs,
    prepare_globals,
    run_local_steps,
    view_records,
)
from repro.engine.config import EngineConfig
from repro.engine.metrics import JobMetrics
from repro.graph.executor import interpret_fragment
from repro.lang.values import values_equal
from repro.planner.plan import ExecutionPlan, forced_plan
from repro.workloads import get_benchmark
from suite_cache import compiled

RUN_SIZE = 200

PRODUCTION = ExecOptions(plan="sequential")


def outputs_match(lhs: dict, rhs: dict) -> bool:
    common = set(lhs) & set(rhs)
    return bool(common) and all(values_equal(lhs[k], rhs[k]) for k in common)


def translated_fragments(compilation):
    return [f for f in compilation.fragments if f.translated]


def run_oracle(program, inputs: dict, plan: ExecutionPlan):
    """``program`` (a ``GeneratedProgram``) on the real local engine
    with ``oracle_steps`` — the tree-walking evaluator — in place of
    ``local_steps``; returns ``(outputs, metrics)``.

    A join pipeline's steps come from ``build_join_steps``, which
    compiles each evaluator callable it builds (broadcast index build
    included) through ``base._compiled``: with that the identity, the
    same step list runs on the evaluator."""
    if program.has_join:
        with mock.patch.object(base, "_compiled", lambda fn: fn):
            ran = program.run(inputs, plan.backend, plan)
        return ran.outputs, ran.metrics
    globals_env, output_sizes = prepare_globals(program.analysis, inputs)
    records = view_records(program.analysis.view, inputs)
    steps = program.oracle_steps(globals_env, plan)
    result = run_local_steps(plan, EngineConfig(), plan.backend, records, steps)
    outputs = bind_outputs(
        program.summary.outputs, result.pairs, globals_env, output_sizes
    )
    return outputs, result.metrics


def stage_counters(metrics: JobMetrics) -> list[tuple]:
    """What the byte accounting must keep equal between the two paths."""
    return [
        (s.name, s.records_in, s.records_out, s.bytes_out, s.bytes_shuffled)
        for s in metrics.stages
    ]


@dataclass
class FragmentSweep:
    """One translated fragment's outputs and counters on every path."""

    reference: dict
    oracle: dict
    production: dict
    oracle_counters: list
    production_counters: list


@lru_cache(maxsize=None)
def sweep(name: str) -> tuple[FragmentSweep, ...]:
    """Run benchmark ``name``'s fragments in source order, chaining the
    reference outputs forward (untranslated fragments are interpreted)."""
    compilation = compiled(name)
    env = dict(get_benchmark(name).make_inputs(RUN_SIZE, 7))
    plan = forced_plan("sequential")
    results = []
    for fragment in compilation.fragments:
        if not fragment.translated:
            if fragment.analysis is not None:
                env.update(interpret_fragment(fragment.analysis, env))
            continue
        reference = interpret_fragment(fragment.analysis, env)
        ran = fragment.program.run(dict(env), PRODUCTION)
        implementation = ran.plan_report.implementation
        chosen = fragment.program.programs[int(implementation.split("_")[1])]
        oracle, oracle_metrics = run_oracle(chosen, dict(env), plan)
        results.append(
            FragmentSweep(
                reference=reference,
                oracle=oracle,
                production=ran.outputs,
                oracle_counters=stage_counters(oracle_metrics),
                production_counters=stage_counters(ran.metrics),
            )
        )
        env.update(reference)
    return tuple(results)
