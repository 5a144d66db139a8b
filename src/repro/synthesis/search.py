"""Casper's summary search: findSummary (paper Fig. 5, lines 10-24).

Iterates the incremental grammar-class hierarchy Γ; within each class,
runs CEGIS to propose candidates, verifies each with the full verifier
(theorem-prover substitute), blocks failures (Ω) and successes (Δ) from
regeneration, and stops at the first class that yields verified
summaries.  The result carries the statistics the evaluation reports
(compile time, candidates proposed, theorem-prover failures, grammar
class reached).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from ..ir.nodes import Summary
from ..lang.analysis.fragments import (
    FragmentAnalysis,
    FragmentFingerprint,
    fingerprint_fragment,
)

from ..diagnostics.diagnostic import Diagnostic, make

if TYPE_CHECKING:
    from ..pipeline.cache import SummaryCache
from ..verification.bounded import BoundedCheckConfig, BoundedChecker, ProgramState
from ..verification.prover import FullVerifier, ProofResult
from .cegis import Synthesizer
from .classes import generate_classes, monolithic_class
from .grammar import GrammarBuilder, harvest_paths


@dataclass
class VerifiedSummary:
    """A summary that survived full verification, with proof metadata."""

    summary: Summary
    proof: ProofResult

    @property
    def operation_count(self) -> int:
        return self.summary.operation_count


@dataclass
class SearchResult:
    """Outcome of findSummary for one code fragment."""

    fragment_id: str
    summaries: list[VerifiedSummary] = field(default_factory=list)
    tp_failures: int = 0  # candidates rejected by the theorem prover
    candidates_checked: int = 0
    counterexamples: int = 0
    classes_searched: int = 0
    final_class: Optional[str] = None
    elapsed_seconds: float = 0.0
    failure_reason: Optional[str] = None
    #: The stable diagnostic code of ``failure_reason`` (REP205 class list
    #: exhausted / REP206 timed out / REP208 no bounded states), set
    #: wherever the reason is.
    failure_code: Optional[str] = None
    #: True when the summaries came from the content-addressed cache —
    #: no candidates were generated or sent to the theorem prover.
    cache_hit: bool = False
    #: True when a cached exhausted-search verdict answered instead of a
    #: search (``cache_hit`` stays False: there are no summaries).
    exhausted_recall: bool = False
    #: Structured diagnostics produced during the search (REP2xx codes).
    diagnostics: list["Diagnostic"] = field(default_factory=list)
    #: Bounded-refutation states discovered by this run (persisted to the
    #: summary cache so repeat searches re-check them first).
    counterexample_states: list[ProgramState] = field(default_factory=list)
    #: How many cached counterexamples seeded Φ for this run.
    cached_counterexamples_used: int = 0

    @property
    def translated(self) -> bool:
        return bool(self.summaries)

    @property
    def searched(self) -> bool:
        """Whether a search actually ran (neither kind of cache answer)."""
        return not (self.cache_hit or self.exhausted_recall)

    def fail(self, code: str, reason: str) -> None:
        self.failure_code = code
        self.failure_reason = reason


#: The code of a search whose grammar-class list ran out.  The only
#: failure the summary cache remembers (``neg:`` entries): it depends on
#: the fragment, the configuration and the search space, never on the
#: clock or the host.
_EXHAUSTED_CODE = "REP205"

#: A grammar class's search stops once Δ holds this many summaries; an
#: ``exhaustive`` search (Table 3) collects every one.
MAX_SUMMARIES_PER_CLASS = 8


@dataclass
class SearchConfig:
    """Knobs for the summary search."""

    incremental_grammar: bool = True  # Table 3 ablation switch
    timeout_seconds: float = 90.0
    bounded_config: BoundedCheckConfig = field(default_factory=BoundedCheckConfig)
    extended_states: int = 120
    exhaustive: bool = False  # collect every valid summary (Table 3 mode)


def find_summaries_cached(
    analysis: FragmentAnalysis,
    config: Optional[SearchConfig] = None,
    cache: Optional["SummaryCache"] = None,
    fingerprint: Optional[FragmentFingerprint] = None,
) -> SearchResult:
    """Cache-aware summary search.

    Looks the fragment's content-addressed fingerprint up in ``cache``
    before searching: a warm hit returns the cached verified summaries —
    renamed to this fragment's variables — with ``candidates_checked == 0``
    and ``tp_failures == 0``, since neither CEGIS nor the theorem prover
    ran.  A fragment whose search was exhausted before is answered with
    the same failure (plus an info-level ``REP209``) and ``cache_hit``
    False.  A miss falls through to :func:`find_summaries` and stores
    what is a property of the fragment: clean, non-timed-out successes
    and exhausted class lists — never a timeout, never a fragment the
    bounded checker could not build states for.
    """
    config = config or SearchConfig()
    if cache is None:
        return find_summaries(analysis, config)

    started = time.monotonic()
    if fingerprint is None:
        fingerprint = fingerprint_fragment(analysis)
    hit = cache.lookup(fingerprint, config)
    if hit is not None:
        return SearchResult(
            fragment_id=analysis.fragment.id,
            summaries=hit.summaries,
            final_class=hit.final_class,
            classes_searched=hit.classes_searched,
            cache_hit=True,
            elapsed_seconds=time.monotonic() - started,
        )
    recalled = cache.lookup_exhausted(fingerprint, config)
    if recalled is not None:
        return SearchResult(
            fragment_id=analysis.fragment.id,
            final_class=recalled.final_class,
            classes_searched=recalled.classes_searched,
            failure_reason=recalled.failure_reason,
            failure_code=recalled.failure_code,
            exhausted_recall=True,
            elapsed_seconds=time.monotonic() - started,
            diagnostics=[
                make(
                    "REP209",
                    f"exhausted verdict recalled from cache: "
                    f"{recalled.classes_searched} grammar class(es) searched "
                    f"in {recalled.elapsed_seconds:.2f}s when it was recorded",
                    fragment=analysis.fragment.id,
                )
            ],
        )

    # Near-miss warm start: counterexamples cached from earlier runs on
    # an alpha-equivalent fragment seed Φ, so already-refuted candidate
    # shapes are filtered before the bounded checker prices them.
    seed_states = cache.lookup_counterexamples(fingerprint)
    result = find_summaries(analysis, config, seed_states=seed_states)
    result.cached_counterexamples_used = len(seed_states)
    if result.counterexample_states:
        cache.store_counterexamples(fingerprint, result.counterexample_states)
    if result.translated and result.failure_reason is None:
        cache.store(
            fingerprint,
            config,
            result.summaries,
            final_class=result.final_class,
            classes_searched=result.classes_searched,
        )
    elif result.failure_code == _EXHAUSTED_CODE:
        cache.store_exhausted(fingerprint, config, result)
    return result


def find_summaries(
    analysis: FragmentAnalysis,
    config: Optional[SearchConfig] = None,
    seed_states: Optional[list[ProgramState]] = None,
) -> SearchResult:
    """Search for verified program summaries of a fragment (Fig. 5).

    ``seed_states`` are cached counterexamples from previous searches on
    an equivalent fragment; they pre-populate the CEGIS example set Φ
    (behavior-preserving: Φ only ever *filters* candidates the bounded
    checker would refute anyway, it never admits one).
    """
    config = config or SearchConfig()
    started = time.monotonic()
    result = SearchResult(fragment_id=analysis.fragment.id)

    try:
        checker = BoundedChecker(analysis, config=config.bounded_config)
    except Exception as exc:  # fragment not checkable at all
        result.fail("REP208", f"bounded checker construction failed: {exc}")
        result.elapsed_seconds = time.monotonic() - started
        return result
    if len(checker.states) < 2:
        result.fail("REP208", "could not build bounded program states")
        result.elapsed_seconds = time.monotonic() - started
        return result

    verifier = FullVerifier(analysis, extended_states=config.extended_states)
    sym_paths = harvest_paths(analysis)

    if config.incremental_grammar:
        classes = generate_classes(analysis)
    else:
        classes = [monolithic_class(analysis)]

    omega: set[int] = set()  # failed verification (Ω)
    delta: list[VerifiedSummary] = []  # verified summaries (Δ)
    delta_hashes: set[int] = set()

    for grammar_class in classes:
        result.classes_searched += 1
        result.final_class = grammar_class.name
        pools = GrammarBuilder(analysis, grammar_class, sym_paths).build()
        synthesizer = Synthesizer(
            analysis,
            grammar_class,
            pools,
            checker,
            seed_states=list(seed_states or []),
        )

        while True:
            if time.monotonic() - started > config.timeout_seconds:
                result.fail("REP206", "synthesis timed out")
                result.summaries = delta
                result.candidates_checked += synthesizer.stats.candidates_checked
                result.counterexamples += synthesizer.stats.counterexamples
                result.counterexample_states.extend(synthesizer.new_counterexamples)
                result.elapsed_seconds = time.monotonic() - started
                return result

            blocked = omega | delta_hashes
            candidate = synthesizer.synthesize(blocked)
            if candidate is None and not delta:
                break  # class exhausted, no solution: next grammar class
            if candidate is None:
                break  # class exhausted with solutions in hand
            proof = verifier.verify(candidate)
            if proof.status != "refuted":
                # Proved or bounded-only: both enter Δ, and the pipeline's
                # verify-attach gate decides what runs.
                delta.append(VerifiedSummary(candidate, proof))
                delta_hashes.add(hash(candidate))
                if not config.exhaustive and len(delta) >= MAX_SUMMARIES_PER_CLASS:
                    break
            else:
                omega.add(hash(candidate))
                result.tp_failures += 1

        result.candidates_checked += synthesizer.stats.candidates_checked
        result.counterexamples += synthesizer.stats.counterexamples
        result.counterexample_states.extend(synthesizer.new_counterexamples)
        if delta and not config.exhaustive:
            break  # search complete (Fig. 5 line 21)

    result.summaries = delta
    if not delta and result.failure_reason is None:
        result.fail(_EXHAUSTED_CODE, "no valid summary found in the search space")
    result.elapsed_seconds = time.monotonic() - started
    return result
