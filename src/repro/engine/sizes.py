"""Serialized-size model for the cost model and shuffle accounting.

Uses the data-type sizes the paper states for its cost computations
(section 7.4): 40 bytes for a String, 10 bytes for a boxed Boolean, and a
tuple of two Booleans at 28 bytes — i.e. an 8-byte tuple header plus the
sizes of its components.  Numeric primitives use their natural widths.

Two entry points, one set of numbers:

* :func:`sizeof` — the **walker**: one value, recursively, with a
  visited-id set.  It defines the model.  Its direct callers price a
  *single* value, or need the size pair by pair because it decides
  something there: a spilled batch whose key or value column is *not*
  one fixed-size scalar kind (:meth:`SpillWriter.add_columns
  <repro.engine.spill.SpillWriter.add_columns>` — each pair's own size
  places the flush), the broadcast-index overflow guard in
  ``codegen/joins.py`` (the size trips the switch) and ``ColumnBlock``'s
  constant key.
* :func:`dataset_bytes` / :func:`pairs_bytes` / :func:`pair_columns_bytes`
  — the **kernel**: a whole chunk of records (or pairs, or the key and
  value columns of a compiled map stage) at once.  It returns exactly
  ``sum(sizeof(r) for r in records)`` but prices a type-homogeneous
  chunk column-wise at C speed and hands anything it cannot *prove* it
  prices identically back to the walker.  Callers are everything that
  accounts bytes for a collection: every engine's scan / stage /
  shuffle / collect counters, the residency proxy, the planner's and
  the feedback store's head samples.  :func:`uniform_size` is the same
  proof turned into one number per pair, which lets the spilled store
  place its flushes by arithmetic.  Neither shuffle store walks a
  uniform column pair by pair.
* :func:`row_fields` / :func:`split_bytes` — the kernel's container
  split and its sum, exposed for ``columnar.build_chunk``: a vector
  segment takes its live columns from the same field lists its exact
  ``dataset_bytes`` is priced from (validated fields from their
  arrays), so its rows are read once and the local engine's scan
  charge walks nothing more.

This module never imports numpy.  The walker prices an ``ndarray`` as a
flat buffer, but it looks the type up in ``sys.modules`` only after
every scalar and container check has failed: if nothing has imported
numpy yet, no value can be an array.
"""

from __future__ import annotations

import sys
from itertools import repeat
from operator import is_, itemgetter
from typing import Any, Iterable, Optional, Sequence

from ..lang.values import Instance

STRING_SIZE = 40
BOOLEAN_SIZE = 10
INT_SIZE = 4
LONG_SIZE = 8
DOUBLE_SIZE = 8
TUPLE_HEADER = 8
OBJECT_HEADER = 16
NULL_SIZE = 4


def sizeof(value: Any) -> int:
    """Serialized size in bytes of a runtime value.

    Containers are walked with a visited-id set, so self-referential
    structures (``x = []; x.append(x)``) terminate instead of raising
    ``RecursionError``, and a shared substructure (diamond sharing —
    the same list reachable twice) is charged once, the way a
    reference-aware serializer would store it.  Scalars are never
    identity-tracked: Python interns small ints/strings, and equal
    scalars are genuinely re-serialized per occurrence.
    """
    return _sizeof(value, None)


def _sizeof(value: Any, seen: Any) -> int:
    if value is None:
        return NULL_SIZE
    if isinstance(value, bool):
        return BOOLEAN_SIZE
    if isinstance(value, int):
        return INT_SIZE if -(2**31) <= value < 2**31 else LONG_SIZE
    if isinstance(value, float):
        return DOUBLE_SIZE
    if isinstance(value, str):
        return STRING_SIZE
    if isinstance(value, (tuple, list, set, dict, Instance)):
        if seen is None:
            seen = set()
        marker = id(value)
        if marker in seen:
            return 0  # cyclic or shared: charged at first visit
        seen.add(marker)
        if isinstance(value, tuple):
            return TUPLE_HEADER + sum(_sizeof(item, seen) for item in value)
        if isinstance(value, Instance):
            return OBJECT_HEADER + sum(
                _sizeof(v, seen) for v in value.fields.values()
            )
        if isinstance(value, (list, set)):
            # Collections are full objects (like Instance), not bare
            # tuples: charging them the 8-byte tuple header understated
            # shuffle-byte accounting and the spill-trigger estimate
            # relative to sizeof_kind, which already uses OBJECT_HEADER.
            return OBJECT_HEADER + sum(_sizeof(item, seen) for item in value)
        return OBJECT_HEADER + sum(
            _sizeof(k, seen) + _sizeof(v, seen) for k, v in value.items()
        )
    # Never imports numpy: until something else has, no value is an array.
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, np.ndarray):
        # Numeric arrays are flat buffers: itemsize × length + header.
        # Walking them per element (or worse, falling through to the
        # bare OBJECT_HEADER) would wildly misprice array inputs in
        # budget planning and serve-layer admission.
        if value.dtype.kind in ("b", "i", "u", "f"):
            return OBJECT_HEADER + int(value.nbytes)
        return OBJECT_HEADER + sum(
            _sizeof(item, seen) for item in value.tolist()
        )
    return OBJECT_HEADER


def sizeof_kind(kind: str) -> int:
    """Static size of an IR value kind (for the static cost model)."""
    if kind == "String":
        return STRING_SIZE
    if kind == "boolean":
        return BOOLEAN_SIZE
    if kind == "double":
        return DOUBLE_SIZE
    if kind in ("int", "char"):
        return INT_SIZE
    if kind == "long":
        return LONG_SIZE
    return OBJECT_HEADER


def sizeof_pair(key: Any, value: Any) -> int:
    """Size of one emitted key-value pair."""
    return sizeof(key) + sizeof(value)


#: Exact scalar types the kernel prices without looking at the value
#: (``int`` needs the value: 4 or 8 bytes).  Subclasses — ``IntEnum``,
#: ``str`` subclasses, numpy scalars — are the walker's business.
_FIXED_SIZES = {
    str: STRING_SIZE,
    float: DOUBLE_SIZE,
    bool: BOOLEAN_SIZE,
    type(None): NULL_SIZE,
}
_SCALAR_TYPES = frozenset(_FIXED_SIZES) | {int}
#: Container levels the kernel opens: the records themselves and one
#: nested level, whose fields must be scalars (``LineItem.l_shipdate``).
_CONTAINER_LEVELS = 2


def dataset_bytes(records: Iterable[Any]) -> int:
    """Total serialized size of a record collection.

    Exactly ``sum(sizeof(record) for record in records)`` — each record
    walked with its own visited set — computed a chunk at a time:
    homogeneous chunks are priced column by column (:func:`_column_bytes`),
    anything else record by record by the walker.  ``records`` may be
    any iterable of rows; empty is 0.
    """
    rows = records if type(records) in (list, tuple) else list(records)
    if not rows:
        return 0
    total = _column_bytes(rows, _CONTAINER_LEVELS)
    return _walk_each(rows) if total is None else total


def pairs_bytes(pairs: Iterable[Any]) -> int:
    """Exactly ``sum(sizeof_pair(k, v) for k, v in pairs)``.

    Keys and values are priced as two columns because ``sizeof_pair``
    walks them with separate visited sets: a pair whose key and value
    are the same object is charged twice, unlike ``sizeof((k, v))``.
    """
    rows = pairs if type(pairs) is list else list(pairs)
    return sum(dataset_bytes(map(itemgetter(side), rows)) for side in (0, 1))


def pair_columns_bytes(
    keys: Sequence[Any], values: Sequence[Any], value_size: Optional[int] = None
) -> int:
    """Exactly ``dataset_bytes(list(zip(keys, values)))`` — what a map
    stage's emitted pair tuples cost — from the two columns.

    The pairs are only materialized (one at a time, for the walker) when
    a column is not provably priced column-wise or a row's key *is* its
    value container, which one pair's walk charges once.

    ``value_size`` is ``sizeof(c)`` when every value is the one int ``c``
    (a constant emit): the value column is then priced as
    ``value_size·n``, not read, and whenever the keys price column-wise
    the total is ``TUPLE_HEADER·n + dataset_bytes(keys) + value_size·n``
    — a scalar is not identity-tracked, so it cannot alias its key.
    """
    if not keys:
        return 0
    n = len(keys)
    known = (None, None if value_size is None else value_size * n)
    fields = _fields_bytes((keys, values), _CONTAINER_LEVELS - 1, known)
    if fields is None:
        return _walk_each(zip(keys, values))
    return TUPLE_HEADER * n + fields


def uniform_size(values: Sequence[Any], kinds: Optional[set] = None) -> Optional[int]:
    """The one ``sizeof`` every value of a non-empty column has, or None.

    Exactly one fixed-size scalar kind qualifies: all ``str`` / ``float``
    / ``bool`` / ``None``, or ``int``s on one side of 2³¹ (``kinds`` is
    ``set(map(type, values))`` when the caller already has it).
    """
    kinds = kinds or set(map(type, values))
    if len(kinds) != 1:
        return None
    (kind,) = kinds
    if kind is not int:
        return _FIXED_SIZES.get(kind)
    low, high = min(values), max(values)
    if -(2**31) <= low and high < 2**31:
        return INT_SIZE
    return LONG_SIZE if high < -(2**31) or low >= 2**31 else None


def _walk_each(values: Iterable[Any]) -> int:
    """The walker over every value in turn, a fresh visited set each."""
    return sum(map(_sizeof, values, repeat(None)))


def _column_bytes(values: Sequence[Any], levels: int) -> Optional[int]:
    """``sum(sizeof(v) for v in values)`` for a non-empty column, or None
    when that cannot be proved without walking.

    ``levels`` is how many container levels may still open at and below
    this column (0: scalars only).  A container column is priced only
    when :func:`row_fields` splits it and its fields add up
    (:func:`_fields_bytes`).  Scalars are never identity-tracked, so a
    scalar column :func:`uniform_size` does not cover (mixed kinds, ints
    on both sides of 2³¹) is walked on its own.
    """
    kinds = set(map(type, values))
    if kinds <= _SCALAR_TYPES:
        size = uniform_size(values, kinds)
        return _walk_each(values) if size is None else size * len(values)
    if levels == 0:
        return None
    split = row_fields(values, kinds)
    if split is None:
        return None
    row_type, fields = split
    total = _fields_bytes(fields.values(), levels - 1)
    return None if total is None else _ROW_HEADERS[row_type] * len(values) + total


#: Per-row header of each row type :func:`row_fields` reports (None:
#: scalar rows, which are their own one field).
_ROW_HEADERS = {None: 0, tuple: TUPLE_HEADER, Instance: OBJECT_HEADER}


def row_fields(
    rows: Sequence[Any], kinds: set
) -> Optional[tuple[Optional[type], dict[Any, list]]]:
    """A non-empty homogeneous chunk split into one list per field, or
    None when the rows are not that.

    ``kinds`` is ``set(map(type, rows))``.  Returns ``(row_type,
    fields)``: scalar rows (any mix of the kernel's scalar types) are
    their own one column, under the key None, with ``row_type`` None;
    rows that are all *exactly* tuples of one arity come back by
    position; rows that are all *exactly* ``Instance`` s over plain
    dicts of one set of field names come back by field name, in the
    first row's field order.  Anything else — mixed or other types,
    ragged arity, other field names — is None.
    """
    if kinds <= _SCALAR_TYPES:
        return None, {None: rows}
    if len(kinds) > 1:
        return None
    (kind,) = kinds
    if kind is tuple:
        tables = rows
    elif kind is Instance:
        tables = [row.fields for row in rows]
        if set(map(type, tables)) != {dict}:
            return None
    else:
        return None
    if len(set(map(len, tables))) != 1:
        return None  # ragged
    names = range(len(tables[0])) if kind is tuple else tables[0]
    try:
        # One list per field; zip(*rows) would build an iterator per row.
        return kind, {name: list(map(itemgetter(name), tables)) for name in names}
    except KeyError:
        return None  # same arity, other field names


def _fields_bytes(
    columns: Iterable[Sequence[Any]],
    levels: int,
    known: Iterable[Optional[int]] = repeat(None),
) -> Optional[int]:
    """Summed sizes of aligned field columns — row *i* is the *i*-th
    value of each — or None when a field cannot be proved or some row
    holds the same child container in two fields: one record's walk
    charges a shared child once, so only alias-free rows add up
    column-wise.  ``known`` gives, column by column, a size the caller
    has already proved (a validated scalar array's), or None to price
    the column here."""
    total = 0
    containers: list[Sequence[Any]] = []
    for column, size in zip(columns, known):
        if size is None:
            size = _column_bytes(column, levels)
            if size is None:
                return None
        total += size
        if type(column[0]) not in _SCALAR_TYPES:
            for other in containers:
                if any(map(is_, column, other)):
                    return None  # a row aliases two of its fields
            containers.append(column)
    return total


def split_bytes(
    rows: Sequence[Any],
    row_type: Optional[type],
    fields: dict[Any, list],
    known: dict[Any, int],
) -> int:
    """Exactly ``dataset_bytes(rows)`` for rows :func:`row_fields` split
    into ``fields``, reusing the sizes in ``known`` (field → bytes the
    caller proved); the rows are walked only when a field cannot be
    proved or a row aliases two of its fields."""
    total = _fields_bytes(
        fields.values(), _CONTAINER_LEVELS - 1, map(known.get, fields)
    )
    if total is None:
        return _walk_each(rows)
    return _ROW_HEADERS[row_type] * len(rows) + total


def physical_memory_bytes() -> int:
    """Best-effort physical memory of this box, in bytes.

    The serve layer's admission controller needs a box capacity to
    weigh job footprints against; ``sysconf`` covers Linux/macOS, and
    hosts where it is unavailable fall back to a conservative 1 GiB so
    admission control degrades to "serialize anything big" rather than
    disabling itself.
    """
    try:
        import os

        pages = os.sysconf("SC_PHYS_PAGES")
        page_size = os.sysconf("SC_PAGE_SIZE")
        if pages > 0 and page_size > 0:
            return pages * page_size
    except (ValueError, OSError, AttributeError):
        pass
    return 1 << 30
