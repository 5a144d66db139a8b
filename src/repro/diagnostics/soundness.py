"""Static fragment soundness analysis — the pre-CEGIS gate.

Runs over an analyzed fragment *before* synthesis and answers two
questions the pipeline used to discover late and expensively:

1. **Can this fragment be checked at all?**  The bounded checker works
   by interpreting the original fragment on generated inputs; a call the
   reference interpreter cannot execute (an unmodelled stdlib method, a
   nondeterministic RNG/clock read) makes every interpretation attempt
   fault, so candidate summaries would only ever be "checked" against
   the few states the fragment happens not to fault on — a vacuous check
   that has produced real mistranslations.  Such fragments are rejected
   here with an error-level diagnostic instead of burning CEGIS time.

2. **What will go wrong later, and why?**  Scratch-state mutation the
   symbolic executor cannot model (predicts Tier-2 demotion),
   iteration-order dependence, float re-association sensitivity, and
   unpicklable captured state (predicts in-process pool fallback) are
   reported as warning/info diagnostics with fix hints, so every later
   demotion has an up-front, machine-readable account.
"""

from __future__ import annotations

from typing import Iterator

from repro.diagnostics.diagnostic import Diagnostic, make
from repro.diagnostics.pickling import unpicklable_reason
from repro.lang import ast_nodes as ast
from repro.lang.analysis import FragmentAnalysis
from repro.lang.stdlib import (
    DATE_METHODS,
    LIST_METHODS,
    MAP_METHODS,
    SET_METHODS,
    STATIC_METHODS,
    STATIC_NAMESPACES,
    STRING_METHODS,
)
from repro.lang.types import DOUBLE, MapType, SetType

#: Static calls whose value depends on RNG or the clock.  These are not
#: merely unmodelled — no deterministic summary can be equivalent to a
#: fragment that reads them, so they get their own code (REP103).
_NONDETERMINISTIC_STATICS = frozenset(
    {
        ("Math", "random"),
        ("System", "currentTimeMillis"),
        ("System", "nanoTime"),
    }
)

#: Instance-method names that only ever appear on RNG objects.
_NONDETERMINISTIC_METHODS = frozenset(
    {"nextInt", "nextDouble", "nextLong", "nextBoolean", "nextGaussian", "shuffle"}
)

#: Every instance-method name the interpreter can dispatch, on any
#: receiver type.  A name absent from all tables always faults.
_KNOWN_INSTANCE_METHODS = frozenset(
    set(STRING_METHODS)
    | set(LIST_METHODS)
    | set(SET_METHODS)
    | set(MAP_METHODS)
    | set(DATE_METHODS)
)

#: Container methods that mutate their receiver.  The symbolic executor
#: models ``add``/``put`` on *output* containers only; any other use is
#: a side effect it cannot express.
_MUTATOR_METHODS = frozenset({"add", "put", "remove", "clear", "set", "addAll"})


def _calls(node: ast.Node) -> Iterator[ast.MethodCall]:
    for child in ast.walk(node):
        if isinstance(child, ast.MethodCall):
            yield child


def _is_static_receiver(call: ast.MethodCall) -> bool:
    return (
        isinstance(call.receiver, ast.Name)
        and call.receiver.ident in STATIC_NAMESPACES
    )


def analyze_soundness(analysis: FragmentAnalysis) -> list[Diagnostic]:
    """Static soundness diagnostics for one analyzed fragment.

    Error-level diagnostics mean the fragment provably cannot pass the
    bounded checker / prover and must be rejected before CEGIS; warnings
    and infos predict demotions and fallbacks without blocking.
    """
    diags: list[Diagnostic] = []
    fragment_id = analysis.fragment.id
    loop_calls = list(_calls(analysis.fragment.loop))
    all_calls = [
        call for stmt in analysis.fragment.statements for call in _calls(stmt)
    ]

    # --- nondeterminism / unmodelled stdlib (errors: reject pre-CEGIS)
    for call in all_calls:
        if _is_static_receiver(call):
            assert isinstance(call.receiver, ast.Name)
            key = (call.receiver.ident, call.method)
            qualified = f"{key[0]}.{key[1]}"
            if key in _NONDETERMINISTIC_STATICS:
                diags.append(
                    make(
                        "REP103",
                        f"call to nondeterministic {qualified}() — no "
                        "deterministic summary can match this fragment",
                        line=call.line,
                        fragment=fragment_id,
                    )
                )
            elif key not in STATIC_METHODS:
                diags.append(
                    make(
                        "REP102",
                        f"static method {qualified}() is outside the modelled "
                        "stdlib; the reference interpreter cannot execute it, "
                        "so candidate summaries cannot be checked against it",
                        line=call.line,
                        fragment=fragment_id,
                    )
                )
        else:
            if call.method in _NONDETERMINISTIC_METHODS:
                diags.append(
                    make(
                        "REP103",
                        f"call to RNG method {call.method}() — no deterministic "
                        "summary can match this fragment",
                        line=call.line,
                        fragment=fragment_id,
                    )
                )
            elif call.method not in _KNOWN_INSTANCE_METHODS:
                diags.append(
                    make(
                        "REP102",
                        f"instance method {call.method}() is outside the "
                        "modelled stdlib; the reference interpreter cannot "
                        "execute it, so candidate summaries cannot be checked "
                        "against it",
                        line=call.line,
                        fragment=fragment_id,
                    )
                )

    for node in ast.walk(analysis.fragment.loop):
        if isinstance(node, ast.NewObject) and "Random" in str(node.type):
            diags.append(
                make(
                    "REP103",
                    "fragment constructs an RNG (new Random) inside the loop",
                    line=node.line,
                    fragment=fragment_id,
                )
            )

    # --- side-effecting mutation of non-output state (Tier-1 killer)
    for call in loop_calls:
        if _is_static_receiver(call) or call.method not in _MUTATOR_METHODS:
            continue
        receiver = call.receiver
        if isinstance(receiver, ast.Name) and receiver.ident in analysis.output_vars:
            continue  # output-container add/put is the modelled emit form
        target = (
            receiver.ident if isinstance(receiver, ast.Name) else "an expression"
        )
        diags.append(
            make(
                "REP104",
                f"loop mutates non-output state via {target}.{call.method}(); "
                "the symbolic executor cannot model this, so only bounded "
                "(Tier-2) evidence is possible",
                line=call.line,
                fragment=fragment_id,
            )
        )

    # --- iteration-order dependence
    loop = analysis.fragment.loop
    if isinstance(loop, ast.ForEach):
        iterable_type = None
        if isinstance(loop.iterable, ast.Name):
            iterable_type = analysis.type_env.lookup(loop.iterable.ident)
        if isinstance(iterable_type, (SetType, MapType)):
            diags.append(
                make(
                    "REP105",
                    "loop iterates an unordered collection "
                    f"({iterable_type}); parallel schedules may observe a "
                    "different element order",
                    line=loop.line,
                    fragment=fragment_id,
                )
            )

    # --- float re-association sensitivity
    double_accumulators = sorted(
        name for name, jtype in analysis.output_vars.items() if jtype == DOUBLE
    )
    if double_accumulators and _has_float_fold(
        analysis.fragment.loop, set(double_accumulators)
    ):
        diags.append(
            make(
                "REP106",
                "floating-point accumulator(s) "
                f"{', '.join(double_accumulators)} fold across iterations; "
                "parallel schedules re-associate the sum",
                line=analysis.fragment.loop.line,
                fragment=fragment_id,
            )
        )

    # --- picklability of captured state (what codegen ships to pools)
    for name, value in sorted(analysis.prelude_constants.items()):
        reason = unpicklable_reason(value)
        if reason is not None:
            diags.append(
                make(
                    "REP107",
                    f"captured constant {name!r} cannot ship to a process "
                    f"pool: {reason}",
                    fragment=fragment_id,
                )
            )

    return diags


def _has_float_fold(loop: ast.Stmt, accumulators: set[str]) -> bool:
    """Does the loop compound-update one of the named double outputs?"""
    for node in ast.walk(loop):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.target, ast.Name)
            and node.target.ident in accumulators
        ):
            if node.op != "=":
                return True
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Name) and sub.ident == node.target.ident:
                    return True
    return False


def has_rejections(diagnostics: list[Diagnostic]) -> bool:
    """True when any diagnostic is error-level (fragment must be rejected)."""
    return any(d.severity == "error" for d in diagnostics)


__all__ = ["analyze_soundness", "has_rejections"]
