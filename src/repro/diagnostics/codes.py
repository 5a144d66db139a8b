"""The stable diagnostic-code registry.

Every machine-readable reason the pipeline can give for demoting,
rejecting, falling back or deciding carries one of these codes:

* ``REP1xx`` — static analysis (the soundness pass, pre-CEGIS);
* ``REP2xx`` — verification (symbolic execution, bounded checking,
  the synthesis search, the proof-acceptance gate);
* ``REP3xx`` — engine and planner (pool fallbacks, pickle probes,
  evaluator-fallback stages, reference-estimator samples, runs on
  bounded-only evidence, observation writes that failed, graph nodes a
  non-strict run skipped);
* ``REP4xx`` — decisions: what the execution planner, the job-graph
  optimizer and admission control chose, and why — before the run or
  mid-job (all ``info``; one code per kind of decision, the message
  says which way it went);
* ``LNT1xx`` — the repo-invariant lint of :mod:`repro.diagnostics.lint`.

Codes are append-only: a released code never changes meaning, so logs,
bench payloads, and tests can match on them across versions.
"""

from __future__ import annotations

from typing import Final

#: Severity names, mildest first.  ``warning`` escalates to a typed
#: :class:`~repro.errors.DiagnosticError` under ``strict=True``; ``info``
#: never does.
SEVERITIES: Final[tuple[str, str, str]] = ("info", "warning", "error")


class CodeInfo:
    """One registry entry: default severity, message template, fix hint."""

    __slots__ = ("code", "severity", "title", "hint")

    def __init__(self, code: str, severity: str, title: str, hint: str) -> None:
        if severity not in SEVERITIES:
            raise ValueError(f"unknown severity {severity!r}")
        self.code = code
        self.severity = severity
        self.title = title
        self.hint = hint


def _entry(code: str, severity: str, title: str, hint: str) -> tuple[str, CodeInfo]:
    return code, CodeInfo(code, severity, title, hint)


#: The hint of every ``REP4xx``: a decision reports a choice, not a fault.
_DECIDED: Final[str] = "a decision, not a fault: the message says which way and why"

#: The registry.  ``title`` is the one-line meaning (the README table is
#: generated from the same wording); ``hint`` is the default fix hint.
REGISTRY: Final[dict[str, CodeInfo]] = dict(
    (
        # ---- REP1xx: static analysis ---------------------------------
        _entry(
            "REP101",
            "error",
            "fragment analysis failed",
            "rewrite the loop in the supported mini-Java subset "
            "(single foreach/for over a dataset view)",
        ),
        _entry(
            "REP102",
            "error",
            "call to a library method outside the modelled stdlib",
            "use only modelled Math/Integer/Double/String/List/Set/Map "
            "methods; unmodelled calls cannot be interpreted, so neither "
            "bounded checking nor proof is possible",
        ),
        _entry(
            "REP103",
            "error",
            "nondeterministic call (RNG or clock) in the fragment",
            "hoist randomness/timestamps out of the loop into an input "
            "variable; a nondeterministic fragment has no checkable "
            "translation",
        ),
        _entry(
            "REP104",
            "warning",
            "side-effecting call the symbolic executor cannot model",
            "drop scratch-state mutations or accumulate through the "
            "fragment's outputs; Tier-1 inductive proof is impossible "
            "with the mutation present",
        ),
        _entry(
            "REP105",
            "warning",
            "loop iterates an unordered collection (iteration-order "
            "dependence)",
            "iterate a List, or make the fold order-insensitive "
            "(commutative + associative)",
        ),
        _entry(
            "REP106",
            "info",
            "floating-point accumulation is re-association sensitive",
            "parallel schedules may re-associate the fold; comparisons "
            "should be float-tolerant",
        ),
        _entry(
            "REP107",
            "warning",
            "captured value cannot ship to a process pool",
            "pass the value as a plain data input; pooled backends fall "
            "back in-process while the capture is unpicklable",
        ),
        # ---- REP2xx: verification ------------------------------------
        _entry(
            "REP201",
            "warning",
            "side-effecting call reached the symbolic executor",
            "Tier-1 inductive proof unavailable; the summary is demoted "
            "to bounded (Tier-2) evidence",
        ),
        _entry(
            "REP202",
            "warning",
            "construct outside the symbolic executor's model",
            "nested loops, early exits, and unmodelled calls demote the "
            "proof to bounded (Tier-2) evidence",
        ),
        _entry(
            "REP203",
            "warning",
            "summary accepted on bounded evidence only",
            "nothing of the fragment was proved, so its bounded-only "
            "summaries run; compile with strict=True to fail instead",
        ),
        _entry(
            "REP204",
            "info",
            "bounded checker refuted candidate summaries",
            "counterexample states are recorded and cached by fragment "
            "fingerprint, so repeat searches re-check them first",
        ),
        _entry(
            "REP205",
            "error",
            "no valid summary found in the search space",
            "the fragment's loop body is outside the summary grammar; "
            "simplify the loop or extend the grammar classes",
        ),
        _entry(
            "REP206",
            "error",
            "synthesis timed out",
            "raise SearchConfig.timeout_seconds or simplify the fragment",
        ),
        _entry(
            "REP207",
            "error",
            "no summary carries an acceptable proof",
            "no summary is proved or bounded-only (e.g. a cache entry "
            "written by another library version); clear the cache entry "
            "or simplify the fragment",
        ),
        _entry(
            "REP208",
            "error",
            "bounded checker could not build valid program states",
            "the fragment faults on (nearly) every generated input, so "
            "candidates cannot be checked; fix the fault or widen the "
            "bounded domain",
        ),
        _entry(
            "REP209",
            "info",
            "exhausted verdict recalled from cache",
            "an earlier search of this fragment ran out of grammar classes "
            "under the same configuration and search-space source, so no "
            "search ran; clear the cache_dir's neg_* files to force one",
        ),
        _entry(
            "REP210",
            "info",
            "bounded-only summaries dropped: a proved summary exists",
            "only proved summaries are code-generated when the fragment "
            "has one, so no job samples or dispatches an unproved twin; "
            "the search and its cache entry are unchanged",
        ),
        # ---- REP3xx: engine / planner --------------------------------
        _entry(
            "REP301",
            "warning",
            "pool payload is not picklable; stage ran in-process",
            "avoid closures/locks/open handles in captured state so the "
            "payload can ship to worker processes",
        ),
        _entry(
            "REP302",
            "info",
            "single process requested; pool not used",
            "raise processes= (or leave it to the planner) to engage the "
            "pool",
        ),
        _entry(
            "REP303",
            "info",
            "input too small for the pool; startup would dominate",
            "tiny inputs run in-process by design; no action needed",
        ),
        _entry(
            "REP304",
            "warning",
            "worker pool could not start",
            "process or semaphore limits blocked pool startup; the job "
            "ran in-process",
        ),
        _entry(
            "REP305",
            "warning",
            "worker pool broke mid-job",
            "a worker died; the remainder ran in-process — results are "
            "unaffected",
        ),
        _entry(
            "REP306",
            "error",
            "summary payload unpicklable at compile time; pooled "
            "backends priced out",
            "remove unpicklable captured state from the fragment so the "
            "planner may consider process pools",
        ),
        _entry(
            "REP307",
            "warning",
            "pickle-probe disagreement: static analysis said OK, the "
            "runtime probe failed",
            "no longer emitted: pickle.dumps is the only picklability "
            "check, so there is no second verdict to disagree with "
            "(codes are append-only, so this one stays registered)",
        ),
        _entry(
            "REP308",
            "info",
            "stage runs on the tree-walking evaluator",
            "no longer emitted: every real-engine stage runs a compiled "
            "kernel, and IR the renderer cannot express raises "
            "KernelUnsupported at plan time (codes are append-only, so "
            "this one stays registered)",
        ),
        _entry(
            "REP309",
            "info",
            "runtime monitor sampled on the reference estimator",
            "an implementation's compiled sampler could not be rendered "
            "or raised on a sample record (the message carries the "
            "failure), so the interpreter estimated that sample; the "
            "estimates and the chosen implementation are identical, only "
            "slower",
        ),
        _entry(
            "REP310",
            "warning",
            "job dispatched an implementation proved on bounded evidence only",
            "the fragment has no proved summary; the implementation that "
            "ran passed the bounded (Tier-2) check on the state domain the "
            "message names, not an inductive proof — values outside that "
            "domain are unchecked",
        ),
        _entry(
            "REP311",
            "warning",
            "observation store could not write its disk tier",
            "the observation is kept in memory only, so a restarted "
            "process plans this dataset cold; check that the cache_dir "
            "is writable and has space",
        ),
        _entry(
            "REP312",
            "warning",
            "node skipped: its analysis failed (non-strict run)",
            "that region of the program did not run and its outputs are "
            "missing; rewrite the loop in the supported subset, or run "
            "strict to fail instead",
        ),
        # ---- REP4xx: planner / graph-optimizer / admission decisions -
        _entry("REP401", "info", "backend decision", _DECIDED),
        _entry(
            "REP402", "info", "shuffle store decision: spill or in-memory", _DECIDED
        ),
        _entry("REP403", "info", "join strategy decision for one join level", _DECIDED),
        _entry("REP404", "info", "combiner off for a reduce stage", _DECIDED),
        _entry("REP405", "info", "partition count decision", _DECIDED),
        _entry("REP406", "info", "estimate source", _DECIDED),
        _entry("REP407", "info", "graph optimizer fused a chain link", _DECIDED),
        _entry("REP408", "info", "combiner hoisted across a fused boundary", _DECIDED),
        _entry("REP409", "info", "fused node's implementation pinned", _DECIDED),
        _entry("REP410", "info", "dead stage eliminated", _DECIDED),
        _entry("REP411", "info", "admission priced the job's footprint", _DECIDED),
        _entry("REP412", "info", "admission mode: concurrent or exclusive", _DECIDED),
        _entry("REP413", "info", "job queued for admission", _DECIDED),
        _entry(
            "REP414",
            "info",
            "function ran whole on the reference interpreter (non-strict run)",
            _DECIDED,
        ),
        # ---- LNT1xx: repo-invariant lint -----------------------------
        _entry(
            "LNT101",
            "error",
            "lock acquired outside a with-statement",
            "use 'with lock:' (or try/finally with release()) so the "
            "lock cannot leak on an exception path",
        ),
        _entry(
            "LNT102",
            "error",
            "broad except swallows exceptions on a worker/daemon path",
            "catch a typed exception, or record/re-raise; a silent "
            "'except Exception: pass' hides worker failures",
        ),
        _entry(
            "LNT103",
            "error",
            "mutable default state shared by a picklable callable",
            "mutable class attributes are shared across instances and "
            "pickled payloads; initialize per-instance state in "
            "__init__ or use default_factory",
        ),
        _entry(
            "LNT104",
            "error",
            "direct wall-clock/random use in a planner-priced path",
            "cost estimates must be deterministic; price from counts "
            "and constants, never from a clock",
        ),
    )
)


def info_for(code: str) -> CodeInfo:
    """Registry entry for ``code``; raises ``KeyError`` for unknown codes."""
    return REGISTRY[code]


__all__ = ["SEVERITIES", "CodeInfo", "REGISTRY", "info_for"]
