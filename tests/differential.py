"""The all-suite differential sweep, computed once per benchmark.

Each registered benchmark is compiled once (through the session-wide
``suite_cache``, shared with ``benchmarks/``) and every translated
fragment is run once per execution path — eval, compiled over rows,
compiled over columns — beside the reference interpreter.  ``test_kernels`` asserts the kernel
half of the result and ``test_layout_sweep`` the layout half, so the
sweep costs one pass however many properties read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro import ExecOptions
from repro.graph.executor import interpret_fragment
from repro.lang.values import values_equal
from repro.workloads import get_benchmark
from suite_cache import compiled

RUN_SIZE = 200

EVAL = ExecOptions(plan="sequential", kernel="eval")
ROWS = ExecOptions(plan="sequential", kernel="compiled", layout="rows")
COLUMNS = ExecOptions(plan="sequential", kernel="compiled", layout="columns")


def outputs_match(lhs: dict, rhs: dict) -> bool:
    common = set(lhs) & set(rhs)
    return bool(common) and all(values_equal(lhs[k], rhs[k]) for k in common)


def translated_fragments(compilation):
    return [f for f in compilation.fragments if f.translated]


@dataclass
class FragmentSweep:
    """One translated fragment's outputs on every path."""

    reference: dict
    eval: dict
    rows: dict
    columns: dict


@lru_cache(maxsize=None)
def sweep(name: str) -> tuple[FragmentSweep, ...]:
    """Run benchmark ``name``'s fragments in source order, chaining the
    reference outputs forward (untranslated fragments are interpreted)."""
    compilation = compiled(name)
    env = dict(get_benchmark(name).make_inputs(RUN_SIZE, 7))
    results = []
    for fragment in compilation.fragments:
        if not fragment.translated:
            if fragment.analysis is not None:
                env.update(interpret_fragment(fragment.analysis, env))
            continue
        reference = interpret_fragment(fragment.analysis, env)
        results.append(
            FragmentSweep(
                reference=reference,
                eval=fragment.program.run(dict(env), EVAL).outputs,
                rows=fragment.program.run(dict(env), ROWS).outputs,
                columns=fragment.program.run(dict(env), COLUMNS).outputs,
            )
        )
        env.update(reference)
    return tuple(results)
