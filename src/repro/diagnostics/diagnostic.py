"""The structured :class:`Diagnostic` object and its renderers.

A diagnostic is one machine-readable observation made by any layer of
the pipeline: a stable registry code (see :mod:`repro.diagnostics.codes`),
a severity, a human message, an optional source line, and a fix hint.
Diagnostics ride on ``CompilationResult``, ``PlanReport``, and
``JobResult`` and replace the free-text ``reason`` strings those objects
used to carry alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.diagnostics.codes import REGISTRY, SEVERITIES, info_for
from repro.errors import DiagnosticError

_SEVERITY_RANK: dict[str, int] = {name: rank for rank, name in enumerate(SEVERITIES)}


@dataclass(frozen=True)
class Diagnostic:
    """One structured pipeline observation.

    ``code`` must exist in the registry; ``severity`` defaults to the
    registry's default for that code but call sites may escalate it
    (never silently demote — :func:`make` enforces the registry floor).
    """

    code: str
    severity: str
    message: str
    line: int = 0
    hint: str = ""
    fragment: str = ""

    def __post_init__(self) -> None:
        if self.code not in REGISTRY:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        if self.severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {self.severity!r}")

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready representation (used by serve/wire and the cache)."""
        out: dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.line:
            out["line"] = self.line
        if self.hint:
            out["hint"] = self.hint
        if self.fragment:
            out["fragment"] = self.fragment
        return out

    def render(self) -> str:
        """One-line human rendering: ``REP103 error: ... (line 4)``."""
        where = f" (line {self.line})" if self.line else ""
        frag = f" [{self.fragment}]" if self.fragment else ""
        text = f"{self.code} {self.severity}{frag}: {self.message}{where}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


def make(
    code: str,
    message: str,
    *,
    line: int = 0,
    hint: str | None = None,
    fragment: str = "",
    severity: str | None = None,
) -> Diagnostic:
    """Build a :class:`Diagnostic`, filling severity/hint from the registry.

    An explicit ``severity`` may escalate above the registry default but
    never demote below it.
    """
    entry = info_for(code)
    sev = entry.severity
    if severity is not None and _SEVERITY_RANK[severity] > _SEVERITY_RANK[sev]:
        sev = severity
    return Diagnostic(
        code=code,
        severity=sev,
        message=message,
        line=line,
        hint=entry.hint if hint is None else hint,
        fragment=fragment,
    )


def diagnostic_from_data(data: dict[str, Any]) -> Diagnostic:
    """Inverse of :meth:`Diagnostic.as_dict`."""
    return Diagnostic(
        code=str(data["code"]),
        severity=str(data["severity"]),
        message=str(data["message"]),
        line=int(data.get("line", 0)),
        hint=str(data.get("hint", "")),
        fragment=str(data.get("fragment", "")),
    )


def explain(diagnostics: Iterable[Diagnostic]) -> str:
    """Render a list of diagnostics as a readable multi-line report."""
    items = sorted(
        diagnostics,
        key=lambda d: (-_SEVERITY_RANK[d.severity], d.code, d.line),
    )
    if not items:
        return "no diagnostics"
    return "\n".join(d.render() for d in items)


def worst_severity(diagnostics: Iterable[Diagnostic]) -> str | None:
    """The highest severity present, or ``None`` for an empty list."""
    worst: str | None = None
    for diag in diagnostics:
        if worst is None or _SEVERITY_RANK[diag.severity] > _SEVERITY_RANK[worst]:
            worst = diag.severity
    return worst


def escalate_strict(diagnostics: Iterable[Diagnostic], context: str) -> None:
    """Raise :class:`DiagnosticError` if any warning/error is present.

    This implements the ``strict=`` knob: under strict compilation a
    warning-level diagnostic is a typed error instead of advice.
    """
    offenders = [
        d
        for d in diagnostics
        if _SEVERITY_RANK[d.severity] >= _SEVERITY_RANK["warning"]
    ]
    if offenders:
        raise DiagnosticError(
            f"{context}: {len(offenders)} diagnostic(s) at warning level or "
            f"above under strict mode:\n{explain(offenders)}",
            diagnostics=offenders,
        )


__all__ = [
    "Diagnostic",
    "diagnostic_from_data",
    "escalate_strict",
    "explain",
    "make",
    "worst_severity",
]
