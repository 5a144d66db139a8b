"""Execution options: the one object every run entry point accepts.

A caller's frozen :class:`ExecOptions` travels *whole* from
``Session.submit`` / ``DaemonClient.submit`` — the one way to run a
job — through ``run_graph`` and ``AdaptiveProgram.run`` to the
planner, which folds it into the
:class:`~repro.planner.plan.ExecutionPlan` that alone carries the
physical choices into the engines.  Names are validated here, once; the
"budget or feedback implies the planner" rule is :attr:`ExecOptions
.effective_plan`, once.

There is no kernel or chunk-layout option: every backend runs the
compiled kernels over column chunks (:mod:`repro.codegen.kernels`) on
the real local engine — a simulated one once, then prices the run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Optional

#: Valid ``plan`` values besides ``None`` and a concrete backend name.
_PLAN_AUTO = "auto"


@dataclass(frozen=True)
class ExecOptions:
    """How to execute a compiled job — shared by every entry point.

    * ``plan`` — a backend name forces one, ``"auto"`` engages the
      execution planner, ``None`` forces the default framework
      (:data:`~repro.planner.plan.DEFAULT_BACKEND`, the paper's Spark).
      The choice is made per job: a compiled program carries none.
    * ``memory_budget`` — bytes; engages out-of-core execution (chunked
      scans, spill-to-disk shuffle) when the input cannot fit.  A budget
      with ``plan=None`` implies ``plan="auto"``.
    * ``fuse`` — stitch producer→consumer chains into single engine
      invocations (whole-program runs only).
    * ``strict`` — fail on untranslated fragments instead of falling
      back to the reference interpreter (whole-program runs only).
    * ``outputs`` — variables the caller needs; enables dead-stage
      elimination (whole-program runs only).
    * ``feedback`` — planned runs resolve estimates against the
      observation recorded by the last run over the same (fragment,
      dataset) in the session's store and record a fresh one
      afterwards.  ``None`` defers to the session's ``observe`` flag;
      ``True`` with no plan implies ``plan="auto"``.  Results are
      byte-identical either way — feedback changes plans, not answers.
    """

    plan: Optional[str] = None
    memory_budget: Optional[int] = None
    fuse: bool = True
    strict: bool = True
    outputs: Optional[tuple[str, ...]] = None
    feedback: Optional[bool] = None

    def __post_init__(self) -> None:
        from .planner.plan import BACKENDS

        if (
            self.plan is not None
            and self.plan != _PLAN_AUTO
            and self.plan not in BACKENDS
        ):
            raise ValueError(
                f"plan: unknown backend {self.plan!r}; expected one of "
                f"{BACKENDS}, 'auto', or None"
            )
        if self.memory_budget is not None and self.memory_budget <= 0:
            raise ValueError(
                f"memory_budget must be positive, got {self.memory_budget!r}"
            )
        if self.feedback is not None and not isinstance(self.feedback, bool):
            raise ValueError(
                f"feedback must be True, False or None, got {self.feedback!r}"
            )
        # Normalize list-ish outputs to a tuple so the dataclass stays
        # hashable-by-value and safe to share across threads.
        if self.outputs is not None and not isinstance(self.outputs, tuple):
            object.__setattr__(self, "outputs", tuple(self.outputs))

    # ------------------------------------------------------------------

    @property
    def effective_plan(self) -> Optional[str]:
        """The plan in force: ``plan``, or ``"auto"`` when a budget or
        ``feedback=True`` was given without one (both only bind on
        planner-chosen real local backends)."""
        if self.plan is None and (self.memory_budget is not None or self.feedback):
            return _PLAN_AUTO
        return self.plan

    def merged(self, **overrides: Any) -> "ExecOptions":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly form (the daemon wire format)."""
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "outputs" and value is not None:
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExecOptions":
        """Inverse of :meth:`as_dict`; unknown keys are rejected."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown ExecOptions field(s): {unknown}")
        return cls(**data)


def check_options(options: Optional[ExecOptions], caller: str) -> ExecOptions:
    """``options`` itself, or the defaults for ``None``; anything else is a
    ``TypeError`` naming the entry point that received it."""
    if options is None:
        return ExecOptions()
    if not isinstance(options, ExecOptions):
        raise TypeError(
            f"{caller}: options must be an ExecOptions, "
            f"got {type(options).__name__}"
        )
    return options


__all__ = ["ExecOptions"]
