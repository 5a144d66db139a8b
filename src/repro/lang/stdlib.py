"""Models of Java library methods for the mini-language.

The paper (section 6.1, "External Library Methods") models common methods
from the Java standard library explicitly.  This module provides those
models as plain Python callables, shared by the sequential interpreter and
the IR evaluator so both sides agree on semantics exactly.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from ..errors import InterpreterError
from .values import Instance, parse_date

# ----------------------------------------------------------------------
# Static (namespace) methods: Math.*, Integer.*, Double.*, Util.*


STATIC_METHODS: dict[tuple[str, str], Callable[..., Any]] = {
    ("Math", "abs"): lambda x: abs(x),
    ("Math", "min"): lambda a, b: min(a, b),
    ("Math", "max"): lambda a, b: max(a, b),
    # Java returns NaN (not an exception) outside the real domain.
    ("Math", "sqrt"): lambda x: math.sqrt(x) if x >= 0 else float("nan"),
    ("Math", "pow"): lambda a, b: float(a) ** float(b),
    ("Math", "exp"): lambda x: math.exp(x),
    ("Math", "log"): lambda x: (
        math.log(x) if x > 0 else (float("-inf") if x == 0 else float("nan"))
    ),
    ("Math", "log10"): lambda x: (
        math.log10(x) if x > 0 else (float("-inf") if x == 0 else float("nan"))
    ),
    ("Math", "floor"): lambda x: float(math.floor(x)),
    ("Math", "ceil"): lambda x: float(math.ceil(x)),
    ("Math", "round"): lambda x: int(math.floor(x + 0.5)),
    ("Math", "signum"): lambda x: float((x > 0) - (x < 0)),
    ("Integer", "parseInt"): lambda s: int(s),
    ("Integer", "valueOf"): lambda s: int(s),
    ("Integer", "compare"): lambda a, b: (a > b) - (a < b),
    ("Long", "parseLong"): lambda s: int(s),
    ("Double", "parseDouble"): lambda s: float(s),
    ("Double", "valueOf"): lambda s: float(s),
    ("Double", "compare"): lambda a, b: (a > b) - (a < b),
    ("Boolean", "parseBoolean"): lambda s: s == "true",
    ("String", "valueOf"): lambda x: _java_str(x),
    ("Util", "parseDate"): lambda s: parse_date(s),
}

STATIC_FIELDS: dict[tuple[str, str], Any] = {
    ("Integer", "MAX_VALUE"): 2**31 - 1,
    ("Integer", "MIN_VALUE"): -(2**31),
    ("Long", "MAX_VALUE"): 2**63 - 1,
    ("Long", "MIN_VALUE"): -(2**63),
    ("Double", "MAX_VALUE"): 1.7976931348623157e308,
    ("Double", "MIN_VALUE"): 4.9e-324,
    ("Math", "PI"): math.pi,
    ("Math", "E"): math.e,
}

#: Namespaces whose members resolve statically (not through a value).
STATIC_NAMESPACES = frozenset(
    {"Math", "Integer", "Long", "Double", "Boolean", "String", "Util", "System"}
)


def _java_str(x: Any) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float) and x == int(x) and abs(x) < 1e15:
        return f"{x:.1f}"
    return str(x)


# ----------------------------------------------------------------------
# Instance methods, dispatched on the runtime type of the receiver


def _string_split(s: str, sep: str) -> list[str]:
    # Java's split with a regex like "\\s+" or " " — model the common cases.
    if sep in ("\\s+", " +"):
        return [w for w in s.split() if w]
    parts = s.split(sep)
    # Java drops trailing empty strings.
    while parts and parts[-1] == "":
        parts.pop()
    return parts


STRING_METHODS: dict[str, Callable[..., Any]] = {
    "length": lambda s: len(s),
    "charAt": lambda s, i: s[i],
    "isEmpty": lambda s: len(s) == 0,
    "equals": lambda s, o: s == o,
    "equalsIgnoreCase": lambda s, o: s.lower() == o.lower(),
    "compareTo": lambda s, o: (s > o) - (s < o),
    "contains": lambda s, sub: sub in s,
    "startsWith": lambda s, p: s.startswith(p),
    "endsWith": lambda s, p: s.endswith(p),
    "indexOf": lambda s, sub: s.find(sub),
    "substring": lambda s, a, b=None: s[a:b] if b is not None else s[a:],
    "toLowerCase": lambda s: s.lower(),
    "toUpperCase": lambda s: s.upper(),
    "trim": lambda s: s.strip(),
    "split": _string_split,
    "concat": lambda s, o: s + o,
    "hashCode": lambda s: _java_string_hash(s),
    "replace": lambda s, a, b: s.replace(a, b),
}


def _java_string_hash(s: str) -> int:
    h = 0
    for ch in s:
        h = (31 * h + ord(ch)) & 0xFFFFFFFF
    if h >= 0x80000000:
        h -= 0x100000000
    return h


def _list_remove(lst: list, arg: Any) -> Any:
    # Java List.remove(int index) removes by position.
    if isinstance(arg, int) and not isinstance(arg, bool):
        return lst.pop(arg)
    lst.remove(arg)
    return True


LIST_METHODS: dict[str, Callable[..., Any]] = {
    "add": lambda lst, x: (lst.append(x), True)[1],
    "get": lambda lst, i: lst[i],
    "set": lambda lst, i, x: lst.__setitem__(i, x),
    "size": lambda lst: len(lst),
    "isEmpty": lambda lst: len(lst) == 0,
    "contains": lambda lst, x: x in lst,
    "indexOf": lambda lst, x: lst.index(x) if x in lst else -1,
    "remove": _list_remove,
    "clear": lambda lst: lst.clear(),
    "addAll": lambda lst, other: (lst.extend(other), True)[1],
}

SET_METHODS: dict[str, Callable[..., Any]] = {
    "add": lambda s, x: (x not in s, s.add(x))[0],
    "contains": lambda s, x: x in s,
    "size": lambda s: len(s),
    "isEmpty": lambda s: len(s) == 0,
    "remove": lambda s, x: (x in s, s.discard(x))[0],
    "clear": lambda s: s.clear(),
}

MAP_METHODS: dict[str, Callable[..., Any]] = {
    "put": lambda m, k, v: m.__setitem__(k, v),
    "get": lambda m, k: m.get(k),
    "getOrDefault": lambda m, k, d: m.get(k, d),
    "containsKey": lambda m, k: k in m,
    "containsValue": lambda m, v: v in m.values(),
    "keySet": lambda m: set(m.keys()),
    "values": lambda m: list(m.values()),
    "size": lambda m: len(m),
    "isEmpty": lambda m: len(m) == 0,
    "remove": lambda m, k: m.pop(k, None),
    "clear": lambda m: m.clear(),
}

DATE_METHODS: dict[str, Callable[..., Any]] = {
    "before": lambda d, other: d.get("epoch") < other.get("epoch"),
    "after": lambda d, other: d.get("epoch") > other.get("epoch"),
    "equals": lambda d, other: d.get("epoch") == other.get("epoch"),
    "getTime": lambda d: d.get("epoch") * 86400000,
    "compareTo": lambda d, o: (d.get("epoch") > o.get("epoch"))
    - (d.get("epoch") < o.get("epoch")),
}


def call_instance_method(receiver: Any, method: str, args: list[Any]) -> Any:
    """Dispatch an instance method on a runtime value."""
    if isinstance(receiver, str):
        table = STRING_METHODS
    elif isinstance(receiver, list):
        table = LIST_METHODS
    elif isinstance(receiver, set):
        table = SET_METHODS
    elif isinstance(receiver, dict):
        table = MAP_METHODS
    elif isinstance(receiver, Instance) and receiver.class_name == "Date":
        table = DATE_METHODS
    elif isinstance(receiver, Instance):
        raise InterpreterError(
            f"no method {method!r} modelled for class {receiver.class_name}"
        )
    else:
        raise InterpreterError(f"cannot call method {method!r} on {type(receiver).__name__}")
    if method not in table:
        raise InterpreterError(f"unmodelled method {method!r} on {type(receiver).__name__}")
    return table[method](receiver, *args)


def call_static_method(namespace: str, method: str, args: list[Any]) -> Any:
    """Dispatch a static library method, e.g. ``Math.abs``."""
    key = (namespace, method)
    if key not in STATIC_METHODS:
        raise InterpreterError(f"unmodelled static method {namespace}.{method}")
    return STATIC_METHODS[key](*args)


def static_field(namespace: str, name: str) -> Any:
    """Read a static library field, e.g. ``Integer.MAX_VALUE``."""
    key = (namespace, name)
    if key not in STATIC_FIELDS:
        raise InterpreterError(f"unmodelled static field {namespace}.{name}")
    return STATIC_FIELDS[key]


def has_static_field(namespace: str, name: str) -> bool:
    return (namespace, name) in STATIC_FIELDS
