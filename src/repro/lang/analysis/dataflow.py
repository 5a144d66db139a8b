"""Inter-fragment dataflow: producer→consumer edges between fragments.

The per-fragment analyses (:mod:`repro.lang.analysis.fragments`) compute
each candidate fragment's liveness *in* set (``input_vars``) and *out*
set (``output_vars``) in isolation.  This module stitches those sets
together across a whole function: fragment B *consumes* variable ``v``
from fragment A when ``v`` is in B's in set, in A's out set, and A is
the nearest preceding fragment that defines ``v``.  The resulting edge
list is the dataflow skeleton of the whole-program job graph
(:mod:`repro.graph`) — which fragments can run concurrently, which form
producer→consumer pipelines, and which outputs the rest of the function
actually observes.

Edges are classified by *how* the consumer reads the variable:

* ``"dataset"`` — the variable is a source of the consumer's dataset
  view: the producer's output **is** the consumer's input data, so the
  pair is a candidate for stage fusion (the intermediate dataset can be
  handed over partitioned instead of rebuilt);
* ``"broadcast"`` — the consumer reads the variable inside its λs as a
  broadcast value (e.g. PageRank's ``outdeg`` lookup), so the producer
  must fully materialize before the consumer starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .. import ast_nodes as ast
from .fragments import FragmentAnalysis, live_after_fragment


@dataclass(frozen=True)
class DataflowEdge:
    """One producer→consumer dependency, labelled with its variable."""

    producer: int  # fragment index within the function
    consumer: int
    var: str
    kind: str  # "dataset" | "broadcast"


@dataclass
class ProgramDataflow:
    """The inter-fragment dataflow of one function.

    ``analyses`` is positionally aligned with the function's identified
    fragments; entries are ``None`` for fragments whose per-fragment
    analysis failed (they cannot produce or consume edges, but keep
    their index so graph layers can still report them).
    """

    analyses: list[Optional[FragmentAnalysis]]
    edges: list[DataflowEdge] = field(default_factory=list)
    #: Fragment outputs observable after the last fragment (read by the
    #: function's tail: returns, interstitial statements, ...).
    final_vars: frozenset[str] = frozenset()
    #: Variables consumed from outside any fragment (program inputs).
    source_vars: frozenset[str] = frozenset()


def analyze_dataflow(
    analyses: list[Optional[FragmentAnalysis]],
    func: Optional[ast.FuncDecl] = None,
) -> ProgramDataflow:
    """Turn per-fragment liveness in/out sets into producer→consumer edges.

    Fragments are in source order (the order ``identify_fragments``
    returns); the producer of a variable is the *nearest preceding*
    fragment whose out set defines it, so a later redefinition shadows an
    earlier one exactly as sequential execution would.
    """
    edges: list[DataflowEdge] = []
    sources: set[str] = set()
    for index, analysis in enumerate(analyses):
        if analysis is None:
            continue
        view_sources = set(analysis.view.sources)
        for var in analysis.input_vars:
            producer = _nearest_producer(analyses, index, var)
            if producer is None:
                sources.add(var)
                continue
            kind = "dataset" if var in view_sources else "broadcast"
            edges.append(DataflowEdge(producer, index, var, kind))

    final: set[str] = set()
    last = _last_analyzed(analyses)
    if last is not None and func is not None:
        live = live_after_fragment(func, last.fragment)
        for analysis in analyses:
            if analysis is not None:
                final |= set(analysis.output_vars) & live
    return ProgramDataflow(
        analyses=list(analyses),
        edges=edges,
        final_vars=frozenset(final),
        source_vars=frozenset(sources),
    )


def _nearest_producer(
    analyses: list[Optional[FragmentAnalysis]], consumer: int, var: str
) -> Optional[int]:
    for index in range(consumer - 1, -1, -1):
        analysis = analyses[index]
        if analysis is not None and var in analysis.output_vars:
            return index
    return None


def _last_analyzed(
    analyses: list[Optional[FragmentAnalysis]],
) -> Optional[FragmentAnalysis]:
    for analysis in reversed(analyses):
        if analysis is not None:
            return analysis
    return None
