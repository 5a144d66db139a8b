"""The stable diagnostic-code registry.

Every machine-readable reason the pipeline can give for demoting,
rejecting, or falling back carries one of these codes:

* ``REP1xx`` — static analysis (the soundness pass, pre-CEGIS);
* ``REP2xx`` — verification (symbolic execution, bounded checking,
  the synthesis search, the proof-acceptance gate);
* ``REP3xx`` — engine and planner (pool fallbacks, pickle probes,
  evaluator-fallback stages, reference-estimator samples);
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
            "the proof status is 'unknown'; rerun with "
            "accept_bounded_only=False to require a full proof",
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
            "every synthesized summary was rejected by the acceptance "
            "gate; allow bounded-only proofs or simplify the fragment",
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
