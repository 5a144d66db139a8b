"""The incremental grammar-class hierarchy (paper section 4.2, Fig. 6).

``generate_classes`` partitions the search space into classes ordered by
syntactic features — number of MapReduce operations, emits per map stage,
key/value sizes, and expression length — such that every summary
expressible in class Gᵢ is also expressible in Gⱼ for j > i.  Searching
classes in order biases toward computationally cheaper summaries and lets
the search stop early (Table 3 measures the effect of disabling this).
"""

from __future__ import annotations

from ..lang.analysis.fragments import FragmentAnalysis
from .grammar import GrammarClass


def generate_classes(analysis: FragmentAnalysis) -> list[GrammarClass]:
    """Build the Γ hierarchy for a fragment (Fig. 5 line 12).

    Join-shaped fragments (two/three-dataset nests recognized by the
    analyzer) search a dedicated JOIN branch of the hierarchy: the stage
    shapes carry a ``j`` (tagged-pair join) between map stages, tuple
    widths must cover whole-relation value tuples, and the classes are
    still ordered cheap-first (unguarded post-join emits before guarded
    ones, shallower expressions before deeper) so the incremental search
    keeps its early-stop bias.
    """
    if analysis.join is not None:
        return [
            GrammarClass(
                name="GJ1",
                shapes=("mjm", "mjmr"),
                max_emits=4,
                max_tuple=8,
                max_depth=2,
                allow_guards=False,
            ),
            GrammarClass(
                name="GJ2",
                shapes=("mjm", "mjmr"),
                max_emits=6,
                max_tuple=12,
                max_depth=3,
                allow_guards=True,
            ),
        ]
    classes = [
        GrammarClass(
            name="G1",
            shapes=("m",),
            max_emits=1,
            max_tuple=1,
            max_depth=2,
            allow_guards=False,
        ),
        GrammarClass(
            name="G2",
            shapes=("m", "mr"),
            max_emits=1,
            max_tuple=1,
            max_depth=2,
            allow_guards=True,
        ),
        GrammarClass(
            name="G3",
            shapes=("m", "mr", "mrm"),
            max_emits=2,
            max_tuple=2,
            max_depth=2,
            allow_guards=True,
        ),
        GrammarClass(
            name="G4",
            shapes=("m", "mr", "mrm"),
            max_emits=2,
            max_tuple=4,
            max_depth=3,
            allow_guards=True,
        ),
        GrammarClass(
            name="G5",
            shapes=("m", "mr", "mrm"),
            max_emits=6,
            max_tuple=6,
            max_depth=3,
            allow_guards=True,
        ),
    ]
    return classes


def monolithic_class(analysis: FragmentAnalysis) -> GrammarClass:
    """The union of the hierarchy as one class — the Table 3 ablation.

    Searching this single class exhaustively enumerates (and verifies)
    every valid summary in the whole space instead of stopping at the
    first class that yields one.
    """
    if analysis.join is not None:
        return GrammarClass(
            name="GJ_all",
            shapes=("mjm", "mjmr"),
            max_emits=6,
            max_tuple=12,
            max_depth=3,
            allow_guards=True,
        )
    return GrammarClass(
        name="G_all",
        shapes=("m", "mr", "mrm"),
        max_emits=6,
        max_tuple=6,
        max_depth=3,
        allow_guards=True,
    )
