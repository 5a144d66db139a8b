"""Unified picklability analysis: one static walker, one runtime probe.

Three call sites used to run their own ad-hoc ``pickle.dumps`` probes —
the planner's ``static_unpicklable`` precompute, the multiprocess
engine's payload probe, and shared-memory task staging.  All
three now route through this module: the *static* walker flags values
that provably cannot pickle (so the expensive dump can be skipped), and
the *runtime* probe stays as the backstop.  When the two disagree —
static said OK, runtime failed — the disagreement is surfaced so the
analyzer's precision stays measurable (``PlanReport.pickle_probe``).
"""

from __future__ import annotations

import io
import pickle
import types
from dataclasses import dataclass
from typing import Any

#: Types that can never pickle, by construction.
_UNPICKLABLE_TYPES: tuple[type, ...] = (
    types.GeneratorType,
    types.CoroutineType,
    types.AsyncGeneratorType,
    types.FrameType,
    types.TracebackType,
    types.ModuleType,
    memoryview,
)

#: Type *names* for C-level objects we must not import just to test for
#: (lock objects live in ``_thread``; sockets may not be loaded at all).
_UNPICKLABLE_TYPE_NAMES = frozenset(
    {
        "lock",
        "RLock",
        "_thread.lock",
        "_thread.RLock",
        "Condition",
        "Event",
        "Semaphore",
        "BoundedSemaphore",
        "socket",
        "SharedMemory",
    }
)

_MAX_DEPTH = 6
_MAX_ITEMS = 256


def static_unpicklable_reason(obj: Any, depth: int = 0) -> str | None:
    """Why ``obj`` *provably* cannot pickle, or None if it plausibly can.

    This is a sound-for-skipping check: a non-None answer means the
    runtime ``pickle.dumps`` would certainly raise, so callers may skip
    the dump.  A None answer promises nothing — the runtime probe
    remains the backstop (reduce/reconstruct failures, recursion the
    walker did not reach, exotic ``__reduce__`` implementations).
    """
    if depth > _MAX_DEPTH:
        return None
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return None
    # Reasons keep the engine's historical "not picklable" message shape
    # so logs and substring assertions stay stable across the static and
    # runtime probes.
    if isinstance(obj, _UNPICKLABLE_TYPES):
        return f"payload not picklable: {type(obj).__name__} object"
    if type(obj).__name__ in _UNPICKLABLE_TYPE_NAMES:
        return f"payload not picklable: {type(obj).__name__} object"
    if isinstance(obj, io.IOBase):
        return "payload not picklable: open file/stream handle"
    if isinstance(obj, types.FunctionType):
        qualname = getattr(obj, "__qualname__", "")
        if "<lambda>" in qualname:
            return f"payload not picklable: lambda {qualname!r}"
        if "<locals>" in qualname:
            return f"payload not picklable: locally-defined function {qualname!r}"
        return None
    if isinstance(obj, types.MethodType):
        return static_unpicklable_reason(obj.__self__, depth + 1)
    if isinstance(obj, dict):
        for index, (key, value) in enumerate(obj.items()):
            if index >= _MAX_ITEMS:
                break
            reason = static_unpicklable_reason(key, depth + 1)
            if reason is None:
                reason = static_unpicklable_reason(value, depth + 1)
            if reason is not None:
                return reason
        return None
    if isinstance(obj, (list, tuple, set, frozenset)):
        for index, item in enumerate(obj):
            if index >= _MAX_ITEMS:
                break
            reason = static_unpicklable_reason(item, depth + 1)
            if reason is not None:
                return reason
        return None
    # For arbitrary objects, walk the instance dict; custom __reduce__
    # could still save an unpicklable-looking field, so only recurse —
    # never flag the object for its type alone.
    instance_dict = getattr(obj, "__dict__", None)
    if (
        isinstance(instance_dict, dict)
        and type(obj).__reduce_ex__ is object.__reduce_ex__
    ):
        for index, value in enumerate(instance_dict.values()):
            if index >= _MAX_ITEMS:
                break
            reason = static_unpicklable_reason(value, depth + 1)
            if reason is not None:
                return reason
    return None


def runtime_pickle_probe(payload: Any) -> str | None:
    """The classic backstop: actually pickle; return the failure reason.

    Preserves the engine's historical message shape
    (``payload not picklable: {exc!r}``) so logs and tests stay stable.
    """
    try:
        pickle.dumps(payload)
    except Exception as exc:  # pickle raises many types (incl. RecursionError)
        return f"payload not picklable: {exc!r}"
    return None


@dataclass(frozen=True)
class PickleVerdict:
    """Combined static + runtime picklability verdict for one payload."""

    static_reason: str | None
    runtime_reason: str | None

    @property
    def unpicklable(self) -> bool:
        return self.static_reason is not None or self.runtime_reason is not None

    @property
    def reason(self) -> str | None:
        return self.static_reason or self.runtime_reason

    @property
    def disagreement(self) -> bool:
        """Static analysis said OK but the runtime probe failed."""
        return self.static_reason is None and self.runtime_reason is not None


def probe_payload(payload: Any, *, runtime_backstop: bool = True) -> PickleVerdict:
    """Static walk first; runtime ``pickle.dumps`` backstop second.

    When the static walker already proves the payload unpicklable the
    runtime dump is skipped (that is the point of the static pass).
    """
    static_reason = static_unpicklable_reason(payload)
    if static_reason is not None:
        return PickleVerdict(static_reason=static_reason, runtime_reason=None)
    runtime_reason = runtime_pickle_probe(payload) if runtime_backstop else None
    return PickleVerdict(static_reason=None, runtime_reason=runtime_reason)


__all__ = [
    "PickleVerdict",
    "probe_payload",
    "runtime_pickle_probe",
    "static_unpicklable_reason",
]
