"""Which entry points the traced run wraps, and how they are swapped in.

Layers are the ``src/repro`` packages.  Every row of :data:`TARGETS` is
one public entry point of a layer and the ledger row (``<span>_self_s``)
its time is charged to.  Wrappers replace the attribute on the class, or
the binding in every loaded ``repro`` module that holds the function,
for the traced stretch only and are removed afterwards.  Per-record and
per-pair helpers (``engine.sizes.sizeof*``, ``SpillWriter.add``) are
deliberately absent — a span would cost as much as the call (wrapping
``add`` alone put 54 000 spans and +40 % on a ``keyed_spill`` op); their
time stays in the caller's row and the counting child counts the calls.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from contextlib import contextmanager
from typing import Any, Iterator, NamedTuple

from .trace import Tracer


class Target(NamedTuple):
    span: str
    module: str
    #: ``function`` or ``Class.method``; ``*.method`` means every class
    #: of the module that defines the method itself.
    attr: str
    #: The call blocks on threads it (or its peer) started, so spans on
    #: those threads are adopted under it (see :func:`bench.trace.ledger`).
    waits: bool = False


TARGETS: tuple[Target, ...] = (
    # compile side
    Target("lang.parse", "repro.lang.parser", "parse_program"),
    Target("lang.analyze", "repro.pipeline.passes", "AnalyzePass.run"),
    Target("diagnostics.soundness", "repro.pipeline.passes", "SoundnessPass.run"),
    Target("synthesis.search", "repro.pipeline.passes", "SynthesizePass.run"),
    Target("verification.bounded", "repro.verification.bounded", "BoundedChecker.check"),
    Target("verification.bounded", "repro.verification.bounded", "BoundedChecker.check_on_states"),
    Target("verification.prover", "repro.verification.prover", "FullVerifier.verify"),
    Target("verification.attach", "repro.pipeline.passes", "VerifyAttachPass.run"),
    Target("codegen.emit", "repro.pipeline.passes", "CodegenPass.run"),
    Target("codegen.kernel_compile", "repro.codegen.kernels", "compile_kernel"),
    Target("pipeline.cache", "repro.pipeline.cache", "SummaryCache.lookup"),
    Target("pipeline.cache", "repro.pipeline.cache", "SummaryCache.store"),
    Target("pipeline.cache", "repro.pipeline.cache", "SummaryCache.lookup_counterexamples"),
    Target("pipeline.cache", "repro.pipeline.cache", "SummaryCache.store_counterexamples"),
    Target("pipeline.passes", "repro.pipeline.passes", "run_passes"),
    Target("pipeline.passes", "repro.pipeline.scheduler", "PassPipeline.run", waits=True),
    Target("planner.plan_pass", "repro.pipeline.passes", "PlanPass.run"),
    # run side
    Target("planner.plan", "repro.planner.planner", "ExecutionPlanner.plan"),
    Target("planner.plan", "repro.planner.dag", "DagPlanner.plan"),
    Target("cost.monitor", "repro.cost.monitor", "RuntimeMonitor.choose"),
    Target("cost.observe", "repro.cost.observe", "ObservationStore.lookup"),
    Target("cost.observe", "repro.cost.observe", "ObservationStore.record"),
    Target("cost.observe", "repro.cost.observe", "harvest_observation"),
    Target("graph.run", "repro.graph.executor", "run_graph", waits=True),
    Target("codegen.adaptive_run", "repro.codegen.glue", "AdaptiveProgram.run"),
    Target("engine.run", "repro.engine.multiprocess", "MultiprocessEngine.run_pipeline"),
    Target("engine.source", "repro.engine.source", "*.iter_chunks"),
    Target("engine.source", "repro.engine.source", "*.materialize"),
    Target("engine.extract", "repro.engine.columnar", "build_chunk"),
    Target("engine.extract", "repro.engine.columnar", "resolve_columns"),
    Target("engine.kernel", "repro.codegen.kernels", "VectorKernel.run_block"),
    Target("engine.kernel", "repro.codegen.kernels", "CompiledRecordMapper.map_block"),
    Target("engine.kernel", "repro.codegen.kernels", "CompiledRecordMapper.map_rows"),
    Target("engine.kernel", "repro.codegen.kernels", "CompiledRecordMapper.map_chunk"),
    Target("engine.kernel", "repro.codegen.kernels", "CompiledRecordMapper.__call__"),
    Target("engine.kernel", "repro.codegen.kernels", "CompiledPairMapper.map_chunk"),
    Target("engine.fold", "repro.engine.columnar", "grouped_fold"),
    Target("engine.spill_write", "repro.engine.spill", "SpillWriter.add_block"),
    Target("engine.spill_write", "repro.engine.spill", "SpillWriter.spill"),
    Target("engine.spill_write", "repro.engine.spill", "SpillWriter.finish"),
    Target("engine.spill_merge", "repro.engine.spill", "merge_partition"),
    Target("engine.spill_merge", "repro.engine.spill", "read_run"),
    # session and serve
    Target("session.submit", "repro.session", "Session.submit"),
    Target("session.submit", "repro.session", "JobHandle.result", waits=True),
    Target("serve.admit", "repro.serve.admission", "AdmissionController.price"),
    Target("serve.admit", "repro.serve.admission", "AdmissionController.admit"),
    Target("serve.admit", "repro.serve.admission", "AdmissionController.release"),
    Target("serve.registry", "repro.serve.registry", "ProgramRegistry.register"),
    Target("serve.registry", "repro.serve.registry", "ProgramRegistry.get"),
    Target("serve.handler", "repro.serve.daemon", "_Handler.do_POST"),
    Target("serve.handler", "repro.serve.daemon", "_Handler.do_GET"),
    Target("serve.client", "repro.serve.client", "DaemonClient.submit", waits=True),
    Target("serve.client", "repro.serve.client", "DaemonClient.result", waits=True),
    Target("serve.wire_encode", "repro.serve.wire", "encode_value"),
    Target("serve.wire_decode", "repro.serve.wire", "decode_value"),
)

#: Ledger rows, in reporting order (``bench.op`` is the root's own time).
SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(t.span for t in TARGETS))


def _wrapped(tracer: Tracer, target: Target, original: Any) -> Any:
    if inspect.isgeneratorfunction(original):
        return tracer.wrap_generator(target.span, original)
    return tracer.wrap(target.span, original, waits=target.waits)


def _holders(target: Target) -> Iterator[tuple[Any, str]]:
    """Every ``(namespace object, attribute)`` bound to the target."""
    module = importlib.import_module(target.module)
    owner, _, method = target.attr.rpartition(".")
    if not owner:
        original = getattr(module, target.attr)
        for name, loaded in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and loaded is not None:
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        yield loaded, attr
    elif owner == "*":
        for value in list(vars(module).values()):
            if inspect.isclass(value) and value.__module__ == module.__name__:
                if method in vars(value):
                    yield value, method
    else:
        yield getattr(module, owner), method


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Swap every target for its traced wrapper; restore on exit."""
    undo: list[tuple[Any, str, Any]] = []
    try:
        for target in TARGETS:
            for holder, attr in _holders(target):
                original = vars(holder)[attr]
                undo.append((holder, attr, original))
                setattr(holder, attr, _wrapped(tracer, target, original))
        yield
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)
