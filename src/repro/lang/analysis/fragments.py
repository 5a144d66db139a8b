"""Code-fragment identification and per-fragment analysis.

Implements the paper's *program analyzer* module (Fig. 2, sections 3.2,
6.1, 6.2): identify loops that iterate data structures, then compute —

1. input variables (live at entry, read within),
2. output variables (modified within, observable after),
3. the operators, constants and library methods used,
4. the dataset view (how elements are presented to λm),
5. a syntactic feature census (Appendix E.1).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Optional

from ...errors import AnalysisError, InterpreterError
from .. import ast_nodes as ast
from ..interpreter import Environment, Interpreter
from ..stdlib import STATIC_NAMESPACES
from ..types import ArrayType, ClassType, JType, ListType, MapType, SetType
from .joins import JoinInfo, extract_join_info
from .liveness import live_before, stmt_declared, stmt_defs, stmt_uses
from .loops import DatasetView, extract_dataset_view
from .normalize import outermost_loops
from .scan import ScanResult, scan_fragment
from .typecheck import TypeEnv, build_type_env


@dataclass
class FragmentFeatures:
    """Syntactic feature census of a fragment (paper Appendix E.1)."""

    conditionals: bool = False
    user_defined_types: bool = False
    nested_loops: bool = False
    multiple_datasets: bool = False
    multidimensional: bool = False


@dataclass
class CodeFragment:
    """A candidate translation unit: a loop plus its accumulator prelude."""

    id: str
    function: ast.FuncDecl
    loop: ast.Stmt
    prelude: list[ast.Stmt] = field(default_factory=list)

    @property
    def statements(self) -> list[ast.Stmt]:
        return [*self.prelude, self.loop]


@dataclass
class FragmentAnalysis:
    """Everything the summary generator needs about one code fragment."""

    fragment: CodeFragment
    input_vars: dict[str, JType]
    output_vars: dict[str, JType]
    scan: ScanResult
    view: DatasetView
    type_env: TypeEnv
    program: ast.Program
    prelude_constants: dict[str, Any] = field(default_factory=dict)
    features: FragmentFeatures = field(default_factory=FragmentFeatures)
    #: Join structure when the fragment is a recognized equi-join nest
    #: (``view.kind == "join"``); None for single-dataset fragments.
    join: Optional[JoinInfo] = None

    @property
    def loc(self) -> int:
        from ..pretty import count_loc

        return sum(count_loc(s) for s in self.fragment.statements)


def identify_fragments(func: ast.FuncDecl) -> list[CodeFragment]:
    """Find candidate code fragments in a function (paper section 6.2).

    A candidate is an outermost loop that iterates one or more data
    structures.  Selection is deliberately lenient ("to avoid false
    negatives"); later analysis may still reject a fragment.
    """
    fragments: list[CodeFragment] = []
    body = func.body.stmts
    loops = outermost_loops(body)
    for number, loop in enumerate(loops):
        if not _iterates_data(loop):
            continue
        prelude = _collect_prelude(body, loop)
        fragments.append(
            CodeFragment(
                id=f"{func.name}#{number}",
                function=func,
                loop=loop,
                prelude=prelude,
            )
        )
    return fragments


def _iterates_data(loop: ast.Stmt) -> bool:
    """Heuristic: does the loop walk an array/list/collection?"""
    if isinstance(loop, ast.ForEach):
        return True
    for node in ast.walk(loop):
        if isinstance(node, ast.Index):
            return True
        if isinstance(node, ast.ForEach):
            return True
        if isinstance(node, ast.MethodCall) and node.method in ("get", "size"):
            return True
    return False


def _collect_prelude(body: list[ast.Stmt], loop: ast.Stmt) -> list[ast.Stmt]:
    """Straight-line statements before the loop that set up its state.

    We take the contiguous run of declarations/assignments immediately
    preceding the loop in the same statement list.  These typically
    initialize accumulators (``double revenue = 0;``) or loop-invariant
    locals (``Date dt1 = Util.parseDate(...);``).
    """
    container = _enclosing_list(body, loop)
    if container is None:
        return []
    index = container.index(loop)
    prelude: list[ast.Stmt] = []
    cursor = index - 1
    while cursor >= 0:
        stmt = container[cursor]
        if isinstance(stmt, (ast.VarDecl,)) or (
            isinstance(stmt, ast.ExprStmt) and isinstance(stmt.expr, ast.Assign)
        ):
            prelude.append(stmt)
            cursor -= 1
        else:
            break
    prelude.reverse()
    return prelude


def _enclosing_list(
    stmts: list[ast.Stmt], target: ast.Stmt
) -> Optional[list[ast.Stmt]]:
    if target in stmts:
        return stmts
    for stmt in stmts:
        for value in vars(stmt).values():
            if isinstance(value, ast.Block):
                found = _enclosing_list(value.stmts, target)
                if found is not None:
                    return found
            elif isinstance(value, list):
                found = _enclosing_list(
                    [s for s in value if isinstance(s, ast.Stmt)], target
                )
                if found is not None:
                    return found
            elif isinstance(value, ast.Stmt):
                found = _enclosing_list([value], target)
                if found is not None:
                    return found
    return None


def analyze_fragment(
    fragment: CodeFragment, program: ast.Program
) -> FragmentAnalysis:
    """Run the full per-fragment analysis; raises AnalysisError on failure."""
    func = fragment.function
    env = build_type_env(func, program)

    scan = scan_fragment(fragment.statements)
    join: Optional[JoinInfo] = None
    joined = extract_join_info(fragment.loop, env, program)
    if joined is not None:
        view, join = joined
    else:
        view = extract_dataset_view(fragment.loop, env, program)

    declared_inside = set()
    for stmt in fragment.statements:
        declared_inside |= stmt_declared(stmt)

    uses: set[str] = set()
    defs: set[str] = set()
    for stmt in fragment.statements:
        uses |= stmt_uses(stmt)
        defs |= stmt_defs(stmt)
    uses -= STATIC_NAMESPACES
    defs -= STATIC_NAMESPACES

    # Variables observable after the fragment: live in the remainder of the
    # function.  The fragment's own declarations can still be outputs (an
    # accumulator declared in the prelude and returned later).
    after = live_after_fragment(func, fragment)

    input_vars: dict[str, JType] = {}
    for name in sorted(uses):
        if name in declared_inside:
            continue
        jtype = env.lookup(name)
        if jtype is None:
            continue
        input_vars[name] = jtype

    output_vars: dict[str, JType] = {}
    for name in sorted(defs):
        if name not in after:
            continue
        jtype = env.lookup(name)
        if jtype is None:
            continue
        output_vars[name] = jtype
    if not output_vars:
        raise AnalysisError(f"fragment {fragment.id} has no observable outputs")

    prelude_constants = _evaluate_prelude_constants(fragment, program, input_vars)

    features = FragmentFeatures(
        conditionals=scan.has_conditionals,
        user_defined_types=_uses_user_types(input_vars, output_vars, view),
        nested_loops=scan.has_nested_loops,
        multiple_datasets=len(view.sources) > 1,
        multidimensional=view.kind == "array2d",
    )

    return FragmentAnalysis(
        fragment=fragment,
        input_vars=input_vars,
        output_vars=output_vars,
        scan=scan,
        view=view,
        type_env=env,
        program=program,
        prelude_constants=prelude_constants,
        features=features,
        join=join,
    )


def live_after_fragment(func: ast.FuncDecl, fragment: CodeFragment) -> set[str]:
    """Variables live immediately after the fragment's loop.

    Public because the inter-fragment dataflow analysis
    (:mod:`repro.lang.analysis.dataflow`) uses the last fragment's
    live-after set to decide which fragment outputs the rest of the
    function actually observes.
    """
    body = func.body.stmts
    container = _enclosing_list(body, fragment.loop)
    if container is None:
        return set()
    index = container.index(fragment.loop)
    tail = container[index + 1 :]
    # Anything read later in the function (or returned) is observable.
    return live_before(tail, set())


def _evaluate_prelude_constants(
    fragment: CodeFragment, program: ast.Program, input_vars: dict[str, JType]
) -> dict[str, Any]:
    """Concretely evaluate prelude statements that don't depend on inputs.

    These become named constants available to the grammar (e.g. ``dt1``
    bound to the parsed date, ``revenue`` bound to ``0.0``).
    """
    interp = Interpreter(program)
    env = Environment()
    constants: dict[str, Any] = {}
    for stmt in fragment.prelude:
        try:
            interp.exec_stmt(stmt, env)
        except InterpreterError:
            continue
    for name, value in env.flat().items():
        if isinstance(value, (int, float, bool, str)) or value is None:
            constants[name] = value
        else:
            constants[name] = value  # Dates / fresh arrays are fine too
    return constants


def _uses_user_types(
    inputs: dict[str, JType], outputs: dict[str, JType], view: DatasetView
) -> bool:
    if view.element_class is not None:
        return True
    for jtype in [*inputs.values(), *outputs.values()]:
        base = jtype
        while isinstance(base, (ArrayType, ListType, SetType)):
            base = base.element
        if isinstance(base, MapType):
            base = base.value
        if isinstance(base, ClassType) and base.name != "Date":
            return True
    return False


# ----------------------------------------------------------------------
# Content-addressed fragment fingerprints (summary-cache keys)

#: Canonical variable names.  The middle dot cannot appear inside a
#: mini-Java identifier, so canonical names can never collide with
#: source-program identifiers.
CANONICAL_PREFIX = "α·"

#: Names the IR reserves for transformer-internal binders (and every name
#: starting ``__``).  A source variable spelled like one is never renamed:
#: it stays literal in the digest and out of ``renaming``, exactly as the
#: binders themselves are never renamed, so fragments share a digest only
#: if they spell such names identically.
_RESERVED_SUMMARY_NAMES = frozenset({"k", "v", "v1", "v2", "__t", "__element"})

#: Fingerprint format version — bump to invalidate persisted caches.
#: fpv2: join views (kind "join", multi-relation sources) entered the
#: view serialization, so joins-unaware caches must not serve them.
_FINGERPRINT_VERSION = "fpv2"


@dataclass
class FragmentFingerprint:
    """Content address of a code fragment, up to alpha-renaming.

    ``digest`` hashes the canonically-renamed fragment AST together with
    its operator set and type signature, so two fragments that differ only
    in local variable names share a digest.  ``renaming`` maps each source
    variable name to its canonical name (``α·0``, ``α·1``, ... in order of
    first occurrence); the summary cache uses it to store summaries in
    canonical variable space and to rename them back on a hit.

    A variable named like an IR binder keeps its own name in the digest
    text and is left out of ``renaming``.

    ``digest is None`` marks the fragment non-cacheable (``reason`` says
    why): renaming would be ambiguous (a string literal collides with a
    variable name) or the fragment's semantics reach outside its own text
    (calls a user-defined function).
    """

    digest: Optional[str]
    renaming: dict[str, str] = field(default_factory=dict)
    reason: Optional[str] = None

    @property
    def cacheable(self) -> bool:
        return self.digest is not None

    @property
    def inverse_renaming(self) -> dict[str, str]:
        return {canonical: name for name, canonical in self.renaming.items()}


class _Canonicalizer:
    """Serializes fragment ASTs with occurrence-ordered alpha renaming."""

    def __init__(self) -> None:
        self.mapping: dict[str, str] = {}
        self.string_literals: set[str] = set()
        self.called_functions: set[str] = set()

    def canon(self, name: str) -> str:
        if (
            name in STATIC_NAMESPACES
            or name in _RESERVED_SUMMARY_NAMES
            or name.startswith("__")
        ):
            return name
        if name not in self.mapping:
            self.mapping[name] = f"{CANONICAL_PREFIX}{len(self.mapping)}"
        return self.mapping[name]

    def serialize(self, node: ast.Node) -> str:
        parts = [type(node).__name__]
        for key, value in vars(node).items():
            if key == "line":
                continue
            parts.append(self._serialize_field(node, key, value))
        return "(" + " ".join(parts) + ")"

    def _serialize_field(self, node: ast.Node, key: str, value: Any) -> str:
        if (
            (isinstance(node, ast.Name) and key == "ident")
            or (isinstance(node, ast.VarDecl) and key == "name")
            or (isinstance(node, ast.ForEach) and key == "var_name")
        ):
            return self.canon(value)
        if isinstance(node, ast.StringLit) and key == "value":
            self.string_literals.add(value)
            return repr(value)
        if isinstance(node, ast.Call) and key == "func":
            self.called_functions.add(value)
            return value
        if isinstance(value, ast.Node):
            return self.serialize(value)
        if isinstance(value, list):
            inner = " ".join(
                self.serialize(item) if isinstance(item, ast.Node) else repr(item)
                for item in value
            )
            return f"[{inner}]"
        if isinstance(value, JType):
            return str(value)
        if value is None:
            return "∅"
        return repr(value)


def fingerprint_fragment(analysis: FragmentAnalysis) -> FragmentFingerprint:
    """Compute the content-addressed fingerprint of an analyzed fragment.

    The digest covers, in order: the alpha-renamed prelude + loop AST, the
    input/output type signature, the dataset view layout, the declarations
    of every user class the fragment touches, and the operator/method
    census — everything the summary search depends on.  Fragments whose
    summaries could not be safely renamed are marked non-cacheable.
    """
    canonicalizer = _Canonicalizer()
    body_text = " ".join(
        canonicalizer.serialize(stmt) for stmt in analysis.fragment.statements
    )
    mapping = canonicalizer.mapping

    for literal in canonicalizer.string_literals:
        if literal in mapping or literal.startswith(CANONICAL_PREFIX):
            return FragmentFingerprint(
                None,
                dict(mapping),
                f"string literal {literal!r} collides with a variable name",
            )
    for called in canonicalizer.called_functions:
        try:
            analysis.program.function(called)
        except KeyError:
            continue
        return FragmentFingerprint(
            None, dict(mapping), f"fragment calls user function {called!r}"
        )

    canon = canonicalizer.canon
    type_strings: list[str] = []

    def typed(names: dict[str, JType]) -> str:
        pairs = sorted((canon(name), str(jtype)) for name, jtype in names.items())
        type_strings.extend(text for _, text in pairs)
        return " ".join(f"{name}:{text}" for name, text in pairs)

    view = analysis.view
    parts = [
        _FINGERPRINT_VERSION,
        body_text,
        "inputs " + typed(analysis.input_vars),
        "outputs " + typed(analysis.output_vars),
        "view "
        + " ".join(
            [
                view.kind,
                "[" + " ".join(canon(s) for s in view.sources) + "]",
                "[" + " ".join(canon(i) for i in view.index_vars) + "]",
                canon(view.element_var) if view.element_var else "∅",
                view.element_class or "∅",
            ]
        ),
        "ops " + " ".join(sorted(analysis.scan.operators)),
        "methods " + " ".join(sorted(analysis.scan.methods)),
    ]
    if view.element_class is not None:
        type_strings.append(view.element_class)
    # Every user class the fragment can reach shapes its semantics —
    # including classes reachable only through another class's fields —
    # so close over field types transitively before hashing.
    referenced: dict[str, ast.ClassDecl] = {}
    frontier = list(type_strings)
    while frontier:
        texts, frontier = frontier, []
        for cls in analysis.program.classes:
            if cls.name in referenced:
                continue
            if any(cls.name in text for text in texts):
                referenced[cls.name] = cls
                frontier.extend(str(f.type) for f in cls.fields)
    for name in sorted(referenced):
        cls = referenced[name]
        fields = " ".join(f"{f.name}:{f.type}" for f in cls.fields)
        parts.append(f"class {cls.name} {fields}")

    digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
    return FragmentFingerprint(digest, dict(mapping))


def analyze_function(
    func_name: str, program: ast.Program
) -> list[FragmentAnalysis]:
    """Identify and analyze every fragment of a named function.

    Fragments whose analysis fails are skipped here; use
    :func:`identify_fragments` + :func:`analyze_fragment` to observe
    failures individually (the feasibility experiment does).
    """
    func = program.function(func_name)
    analyses = []
    for fragment in identify_fragments(func):
        try:
            analyses.append(analyze_fragment(fragment, program))
        except AnalysisError:
            continue
    return analyses
