"""The one picklability check: ``pickle.dumps`` decides.

Three callers ask whether a value can ship to a process pool — the
planner's compile-time probe of the summary payload (``REP306``), its
run-time probe of the record sample, and the soundness gate's probe of
each captured prelude constant (``REP107``).  All three ask here, and
the answer is the real dump's: a value is picklable exactly when
``pickle.dumps`` accepts it.
"""

from __future__ import annotations

import pickle
from typing import Any


def unpicklable_reason(obj: Any) -> str | None:
    """Why ``pickle.dumps(obj)`` fails, or None when it succeeds.

    The reason keeps the engine's message shape
    (``payload not picklable: {exc!r}``) so logs and tests stay stable.
    """
    try:
        pickle.dumps(obj)
    except Exception as exc:  # pickle raises many types (incl. RecursionError)
        return f"payload not picklable: {exc!r}"
    return None


__all__ = ["unpicklable_reason"]
