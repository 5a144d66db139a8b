"""Counter dump: every number a run reports, one SHA-256 per entry.

A perf PR on the engine promises "results and counters unchanged".  This
is the instrument for that promise: every translated fragment of the 70
registered benchmarks runs at 300 records on ``sequential``,
``sequential`` under a 4 KiB budget, ``spark``, ``hadoop`` and ``flink``,
and every whole program runs through ``run_graph`` fused, spilled and
unfused.  Each run's outputs, every ``StageMetrics`` counter,
``repr(seconds)``, ``simulated_seconds``, ``peak_resident_bytes`` and
``spill_stats`` are rendered to one canonical text (wall-clock fields
left out; sets sorted, so nothing depends on ``PYTHONHASHSEED``) and
digested.  One more entry per fragment, ``@monitor``, holds what the
runtime monitor decided on that input: every implementation's
``SampleEstimates.as_dict()`` (insertion order included), the costs and
the choice ``RuntimeMonitor.choose`` returned, and what the planner
derived from its own estimate — stage plans, join strategies, the
simulated-cluster ranking.
``tests/data/counters_golden.json`` holds the digests of the commit
*before* the change under test; ``tests/test_counter_dump.py`` names
every fragment × backend whose digest moved.

    PYTHONPATH=src python benchmarks/counter_dump.py            # compare, exit 1 on drift
    PYTHONPATH=src python benchmarks/counter_dump.py --write    # regenerate the golden
    PYTHONPATH=src python benchmarks/counter_dump.py --text DIR # one text file per entry

Regenerate only when a counter is *meant* to move, from a ``git clone``
of the parent commit with this file copied in, and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from repro import ExecOptions
from repro.errors import ReproError
from repro.graph.executor import interpret_fragment, run_graph
from repro.lang.values import Instance
from repro.workloads import all_benchmarks, get_benchmark
from repro.workloads.runner import compile_benchmark

RECORDS = 300
SEED = 7
BUDGET = 4096
GOLDEN_PATH = Path(__file__).parent.parent / "tests" / "data" / "counters_golden.json"

FRAGMENT_RUNS: tuple[tuple[str, ExecOptions], ...] = (
    ("sequential", ExecOptions(plan="sequential")),
    ("sequential+4k", ExecOptions(plan="sequential", memory_budget=BUDGET)),
    ("spark", ExecOptions(plan="spark")),
    ("hadoop", ExecOptions(plan="hadoop")),
    ("flink", ExecOptions(plan="flink")),
)
GRAPH_RUNS: tuple[tuple[str, ExecOptions], ...] = (
    ("graph.fused", ExecOptions(plan="sequential", strict=False)),
    (
        "graph.spilled",
        ExecOptions(plan="sequential", strict=False, memory_budget=BUDGET),
    ),
    ("graph.unfused", ExecOptions(plan="sequential", strict=False, fuse=False)),
)


def canonical(value: Any) -> str:
    """A text form equal exactly when two values are indistinguishable:
    exact type names on numbers (``True`` is not ``1``), ``repr`` floats,
    dicts in insertion order (first-seen key order is part of the
    contract), sets sorted."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return f"{type(value).__name__}:{value!r}"
    if isinstance(value, (list, tuple)):
        return f"{type(value).__name__}[{','.join(map(canonical, value))}]"
    if isinstance(value, (set, frozenset)):
        return f"set{{{','.join(sorted(map(canonical, value)))}}}"
    if isinstance(value, dict):
        inner = ",".join(f"{canonical(k)}={canonical(v)}" for k, v in value.items())
        return f"dict{{{inner}}}"
    if isinstance(value, Instance):
        return f"{value.class_name}{canonical(value.fields)}"
    return f"{type(value).__name__}:{value!r}"


def _stages_text(metrics: Any) -> list[str]:
    return [
        f"stage {s.name} in={s.records_in} out={s.records_out} bytes_in={s.bytes_in} "
        f"bytes_out={s.bytes_out} shuffled={s.bytes_shuffled} seconds={s.seconds!r}"
        for s in metrics.stages
    ]


def fragment_text(program: Any, env: dict, options: ExecOptions) -> str:
    """One fragment run on one backend, as canonical text."""
    try:
        ran = program.run(dict(env), options)
    except ReproError as exc:  # hadoop / flink reject join pipelines loudly
        return f"error {type(exc).__name__}: {exc}"
    engine = ran.engine_result
    lines = [
        f"outputs {canonical(ran.outputs)}",
        f"implementation {ran.implementation}",
        *_stages_text(ran.metrics),
        f"simulated_seconds {ran.metrics.simulated_seconds!r}",
        f"peak_resident_bytes {engine.peak_resident_bytes if engine else None}",
        f"spill_stats {canonical(engine.spill_stats if engine else None)}",
    ]
    return "\n".join(lines)


def monitor_text(program: Any, env: dict) -> str:
    """What the monitor sampled and chose on one ``plan="auto"`` run.

    The estimates, costs and choice are read where
    ``AdaptiveProgram.run`` itself gets them — ``RuntimeMonitor.choose``'s
    ``estimates_out`` and return value — through an instance-level
    recorder, so the row covers the sample the run really built.
    """
    monitor = program.monitor
    sampled: dict[str, Any] = {}
    decided: list[tuple[int, dict[str, float]]] = []

    def recording(sample, globals_env=None, estimates_out=None):
        out = {} if estimates_out is None else estimates_out
        decision = type(monitor).choose(monitor, sample, globals_env, out)
        sampled.update(out)
        decided.append(decision)
        return decision

    monitor.choose = recording
    try:
        ran = program.run(dict(env), ExecOptions(plan="auto"))
    except ReproError as exc:
        return f"error {type(exc).__name__}: {exc}"
    finally:
        del monitor.choose
    plan = ran.report.plan
    [(index, costs)] = decided
    lines = [
        *(
            f"estimates {name} n={est.sample_size} {canonical(est.as_dict())}"
            for name, est in sampled.items()
        ),
        f"costs {canonical(costs)}",
        f"choice {monitor.implementations[index].name}",
        f"implementation {ran.implementation}",
        f"stages {[(s.index, s.kind, s.combiner) for s in plan.stages]}",
        f"join_strategies {plan.join_strategies}",
        f"cluster_seconds {canonical(ran.report.cluster_seconds)}",
    ]
    return "\n".join(lines)


def graph_text(compilation: Any, inputs: dict, options: ExecOptions) -> str:
    """One whole-program run, as canonical text."""
    try:
        ran = run_graph(compilation.job_graph, dict(inputs), options)
    except ReproError as exc:
        return f"error {type(exc).__name__}: {exc}"
    report = ran.report
    lines = [
        f"outputs {canonical(ran.outputs)}",
        f"simulated_seconds {report.simulated_seconds!r}",
        f"simulated_seconds_serial {report.simulated_seconds_serial!r}",
        f"fused_away {report.fused_away}",
        f"interpreted {report.interpreted_nodes}",
    ]
    for head, unit in report.unit_reports.items():
        lines.append(
            f"unit {head} backend={unit.backend_used} "
            f"spill_stats={canonical(unit.spill_stats)} columnar={canonical(unit.columnar)}"
        )
    return "\n".join(lines)


def entries(
    name: str, compile_fn: Callable[[str], Any]
) -> Iterator[tuple[str, str]]:
    """``(entry id, canonical text)`` for one benchmark, fragments in
    source order with the reference outputs chained forward (the
    ``tests/differential.py`` convention)."""
    compilation = compile_fn(name)
    inputs = get_benchmark(name).make_inputs(RECORDS, SEED)
    env = dict(inputs)
    for index, fragment in enumerate(compilation.fragments):
        if fragment.analysis is None:
            continue
        if fragment.translated:
            for label, options in FRAGMENT_RUNS:
                yield (
                    f"{name}#{index}@{label}",
                    fragment_text(fragment.program, env, options),
                )
            yield f"{name}#{index}@monitor", monitor_text(fragment.program, env)
        env.update(interpret_fragment(fragment.analysis, env))
    if compilation.job_graph is not None:
        for label, options in GRAPH_RUNS:
            yield f"{name}@{label}", graph_text(compilation, inputs, options)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dump(
    compile_fn: Optional[Callable[[str], Any]] = None,
    names: Optional[list[str]] = None,
) -> dict[str, str]:
    """Entry id → canonical text, for ``names`` (default: every benchmark)."""
    compile_fn = compile_fn or (lambda name: compile_benchmark(get_benchmark(name)))
    names = names or [b.name for b in all_benchmarks()]
    return {
        entry: text for name in names for entry, text in entries(name, compile_fn)
    }


def main(argv: list[str]) -> int:
    texts = dump()
    digests = {entry: digest(text) for entry, text in texts.items()}
    if argv[:1] == ["--text"]:
        out = Path(argv[1])
        out.mkdir(parents=True, exist_ok=True)
        for entry, text in texts.items():
            (out / (entry.replace("/", "_") + ".txt")).write_text(text + "\n")
        print(f"wrote {len(texts)} entries under {out}")
        return 0
    if argv[:1] == ["--write"]:
        GOLDEN_PATH.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
        return 0
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    moved = sorted(
        entry
        for entry in golden.keys() | digests.keys()
        if golden.get(entry) != digests.get(entry)
    )
    for entry in moved:
        print(f"MOVED {entry}")
    print(f"{len(digests)} entries, {len(moved)} moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
