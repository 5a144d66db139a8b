"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish frontend, synthesis, verification, and
engine failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class LexError(ReproError):
    """Raised when the lexer encounters an invalid character sequence."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(ReproError):
    """Raised when the parser encounters an unexpected token."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class TypeCheckError(ReproError):
    """Raised when the mini-language type checker rejects a program."""


class InterpreterError(ReproError):
    """Raised when the reference interpreter encounters a runtime fault."""


class AnalysisError(ReproError):
    """Raised when program analysis cannot process a code fragment."""


class IRError(ReproError):
    """Raised for malformed IR nodes or evaluation failures in the IR."""


class SynthesisError(ReproError):
    """Raised when the synthesizer cannot proceed (not mere search failure)."""


class VerificationError(ReproError):
    """Raised when verification infrastructure (not a candidate) fails."""


class SymbolicUnsupported(VerificationError):
    """Raised by the symbolic executor for source constructs outside its
    model (side-effecting calls, nested loops, path explosion).  Carries
    the matching structured :class:`~repro.diagnostics.Diagnostic` so the
    prover can demote the fragment to Tier-2 with a machine-readable
    reason instead of a free-text string."""

    def __init__(self, message: str, diagnostic: object = None):
        super().__init__(message)
        #: A :class:`repro.diagnostics.Diagnostic` (typed as object to
        #: keep this module import-free at the bottom of the hierarchy).
        self.diagnostic = diagnostic


class DiagnosticError(ReproError):
    """A diagnostic escalated to a typed error under ``strict=True``.

    Carries the full list of :class:`~repro.diagnostics.Diagnostic`
    objects that triggered the escalation in :attr:`diagnostics`."""

    def __init__(self, message: str, diagnostics: list | None = None) -> None:
        super().__init__(message)
        self.diagnostics: list = list(diagnostics) if diagnostics else []


class CostModelError(ReproError):
    """Raised for invalid cost-model inputs."""


class EngineError(ReproError):
    """Raised by the simulated MapReduce execution engine."""


class SpillError(EngineError):
    """Raised by the out-of-core spill layer: unwritable spill
    directories, corrupt spill files discovered mid-merge, or memory
    budgets too small to buffer even a single record."""


class CodegenError(ReproError):
    """Raised when code generation from a summary fails."""


class KernelUnsupported(CodegenError):
    """Raised at plan time when the source renderer cannot express a
    stage: IR the evaluator rejects too (an unknown operator, function
    or expression type), which synthesis never produces."""


class WorkloadError(ReproError):
    """Raised by workload/data generators for invalid parameters."""


class GraphError(ReproError):
    """Raised by the whole-program job-graph layer (cycles, failed
    producers, unsatisfiable dataflow)."""


class ServeError(ReproError):
    """Raised by the compile-and-serve layer: unknown program or job
    ids, daemon protocol violations, submissions the admission
    controller must reject outright."""
