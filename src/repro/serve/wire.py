"""Tagged-JSON wire codec for daemon inputs and outputs.

The acceptance bar for the serving layer is *byte-identity*: outputs
fetched over the socket must equal what an in-process
``Session.run`` returns.  Plain JSON cannot clear that bar — translated
programs traffic in tuples (grouped keys), dicts keyed by ints and
tuples (histograms, join results), and the reference comparisons are
exact.  So values cross the wire as JSON with explicit type tags:

* scalars (``None``, ``bool``, ``int``, ``str``) pass through; floats
  pass through too (Python's JSON encoder emits ``repr``, which
  round-trips every finite float exactly);
* a ``list`` is a JSON array; a ``tuple``/``set``/``frozenset`` is
  ``{"__t__": tag, "v": [...]}``;
* every ``dict`` becomes ``{"__t__": "dict", "v": [[k, v], ...]}`` —
  pair lists, so non-string keys survive (and a user dict containing a
  literal ``"__t__"`` key can never be mistaken for a tag).

A list whose items are all *exactly* ``None``/``bool``/``int``/
``float``/``str`` — a 5 000-number input — is its own encoding and its
own decoding: one C-level type scan finds that out and the list passes
through as is, with no call per element.  Both functions' results are
for immediate use (serialise the encoding, consume the decoding of a
fresh parse), which is what makes handing back the same list sound.
"""

from __future__ import annotations

import base64
from typing import Any

_TAG = "__t__"
#: Exact types that cross the wire untouched (a subclass — an ``IntEnum``
#: — is not in here and takes the per-element path).
_SCALARS = frozenset({type(None), bool, int, float, str})


def encode_value(value: Any) -> Any:
    """Recursively tag ``value`` into JSON-serializable form."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        if _SCALARS.issuperset(map(type, value)):
            return value
        return [encode_value(v) for v in value]
    if isinstance(value, tuple):
        return {_TAG: "tuple", "v": [encode_value(v) for v in value]}
    if isinstance(value, dict):
        return {
            _TAG: "dict",
            "v": [[encode_value(k), encode_value(v)] for k, v in value.items()],
        }
    if isinstance(value, (set, frozenset)):
        tag = "set" if isinstance(value, set) else "frozenset"
        return {_TAG: tag, "v": [encode_value(v) for v in value]}
    if isinstance(value, bytes):
        return {_TAG: "bytes", "v": base64.b64encode(value).decode("ascii")}
    raise TypeError(f"cannot encode {type(value).__name__} for the serve wire format")


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, list):
        if _SCALARS.issuperset(map(type, value)):
            return value
        return [decode_value(v) for v in value]
    if isinstance(value, dict):
        tag = value.get(_TAG)
        if tag == "tuple":
            return tuple(decode_value(v) for v in value["v"])
        if tag == "dict":
            return {decode_value(k): decode_value(v) for k, v in value["v"]}
        if tag == "set":
            return {decode_value(v) for v in value["v"]}
        if tag == "frozenset":
            return frozenset(decode_value(v) for v in value["v"])
        if tag == "bytes":
            return base64.b64decode(value["v"])
        raise TypeError(f"malformed wire value: unknown tag {tag!r}")
    return value


__all__ = ["encode_value", "decode_value"]
