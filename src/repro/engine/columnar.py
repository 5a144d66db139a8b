"""Column arrays for the one vectorized shape: a folded map segment.

The vector tier runs exactly one shape — a sole vectorized map stage
whose output is folded by a sum/min/max combiner.  The engine maps such
a segment of chunks in one columnar pass; every other stage runs the
compiled row loop over plain record lists and never comes here except
for the ordered fold and the key count below.

* :class:`ColumnSpec` — where a live atom lives in a record (the record
  itself, a struct field, or a parallel-array tuple position) and the
  numpy dtype the typechecker's exactness proof licenses (``int`` →
  int64, ``float`` → float64, ``bool`` → bool).
* :func:`build_segment` — a segment's live columns end to end and its
  rows' exact byte count, built slice by slice (:func:`build_chunk`)
  from the projection liveness set.
* :class:`ColumnBlock` — the vectorized map stage's output: a value
  array plus either a key array or one constant key, priced from the
  arrays exactly as the row engine prices the pairs.
* :func:`grouped_fold` — every chunk's combine partials of a block in
  one sort-free pass, for proved sum/min/max reducers, restricted to
  cases that are bit-identical to the ordered dict fold and guarded
  against int64 overflow / NaN.
* :func:`fold_columns` — that ordered dict fold itself, over a key
  column and a value column of any Python objects: the one keyed fold
  the map-side combine and both shuffle stores' reduces run, and
  :func:`count_keys` / :class:`KeyCount`, the map-side combine of a
  constant-int emit under a ``+`` λr, counted in C once per map task
  (once per budget window when the task spills).

Why only one shape: a scratch A/B of every suite stage that vectorized
chunk by chunk (element maps, filters, projections) found the vector
path within 1.1× of the compiled row loop or slower — column extraction
costs what the kernel saves — while a folded segment ran 2.4× ahead
(DESIGN.md, "One vector path").

Exactness discipline: a column is only materialized as a numpy array
when every element is *exactly* the Python type the static type
promised (``type(v) is int`` — bools excluded — for integral columns,
``type(v) is float`` for floating ones, ``type(v) is bool`` for
booleans) and, for ints, every value fits int64.  Anything else marks
the column invalid and the caller falls back to the compiled row loop —
never silently wrong.

numpy is imported by the functions that build or fold arrays
(:func:`build_column`, :func:`grouped_fold`), never at module load: a
job whose stages are not vectorizable does not load it.  Without numpy
every column is invalid and the row loop runs.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Iterable, Optional

from ..lang.values import Instance
from .sizes import (
    BOOLEAN_SIZE,
    DOUBLE_SIZE,
    INT_SIZE,
    LONG_SIZE,
    TUPLE_HEADER,
    dataset_bytes,
    row_fields,
    sizeof,
    sizeof_pair,
    split_bytes,
)

#: int64 magnitude bound used by every overflow guard.
I64_MAX = 2**63 - 1


@dataclass(frozen=True)
class ColumnSpec:
    """One live atom's location in a record and its proved element kind.

    ``access`` is ``"self"`` (the record *is* the value — plain foreach
    over scalars), ``"field"`` (an ``Instance`` struct field), or
    ``"index"`` (a position in a parallel-array record tuple).
    ``kind`` ∈ {"int", "float", "bool"} names the exactness class the
    typechecker proved; it decides the numpy dtype and the runtime
    validation predicate.
    """

    name: str
    kind: str
    access: str
    field: Optional[str] = None
    position: Optional[int] = None


_KIND_CHECKS = {"int": int, "float": float, "bool": bool}
_DTYPES = {"int": "int64", "float": "float64", "bool": "bool"}
#: The row type each access path reads (see ``sizes.row_fields``).
_ACCESS_ROWS = {"self": None, "field": Instance}


def _field_key(spec: ColumnSpec) -> Any:
    """The key of ``spec``'s atom among a row's fields: None for the
    record itself, a field name, or a tuple position."""
    if spec.access == "self":
        return None
    if spec.access == "field":
        return spec.field if spec.field is not None else spec.name
    return spec.position or 0


def _extract_data(rows: list, spec: ColumnSpec) -> list:
    """Pull one atom's raw values out of the rows (pre-validation)."""
    if spec.access == "self":
        return list(rows)
    key = _field_key(spec)
    if spec.access == "field":
        return [row.fields[key] for row in rows]
    return [row[key] for row in rows]


def build_column(rows: list, spec: ColumnSpec) -> Optional[Any]:
    """One validated column array, or None when the data breaks the
    type promise (mixed types, bools in int columns, out-of-int64
    values) — the caller then runs the row loop for this chunk."""
    try:
        data = _extract_data(rows, spec)
    except (AttributeError, KeyError, IndexError, TypeError):
        return None
    return _column_array(data, spec.kind)


def _column_array(
    data: list, kind: str, kinds: Optional[set] = None
) -> Optional[Any]:
    """``data`` as a validated array of ``kind``, or None.

    ``kinds`` is ``set(map(type, data))`` when the caller already has
    it.  numpy is imported here, by the first column a vector kernel
    asks for; without numpy every column is None and the row loop runs."""
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is present in the toolchain image
        return None
    # set(map(type, ...)) runs at C speed; an exact-type check is what
    # keeps e.g. True out of int columns (eval emits True, int64 would
    # emit 1 — equal under ==, not byte-identical).
    if (kinds or set(map(type, data))) - {_KIND_CHECKS[kind]}:
        return None
    try:
        return np.fromiter(data, _DTYPES[kind], len(data))
    except OverflowError:
        return None  # a value outside int64 — row loop keeps bignums


def resolve_columns(
    rows: list, specs: tuple[ColumnSpec, ...]
) -> Optional[dict[str, Any]]:
    """The rows' arrays for ``specs``, or None when any column fails
    validation."""
    columns = {spec.name: build_column(rows, spec) for spec in specs}
    return None if any(a is None for a in columns.values()) else columns


def build_chunk(
    records: Any, specs: tuple[ColumnSpec, ...]
) -> tuple[dict[str, Any], int]:
    """Columnar form of one slice of rows: every live column (None where
    validation failed) and the rows' exact ``dataset_bytes``, from one
    read of the rows.

    A homogeneous slice is split into its field lists once
    (:func:`~repro.engine.sizes.row_fields`): each spec validates its
    field's list, and the byte count prices the validated fields from
    their arrays and every other field column-wise.  An irregular slice
    extracts spec by spec and is priced by ``dataset_bytes``.
    """
    rows = records if isinstance(records, list) else list(records)
    kinds = set(map(type, rows))
    split = row_fields(rows, kinds) if rows else None
    if split is None:
        columns = {spec.name: build_column(rows, spec) for spec in specs}
        return columns, dataset_bytes(rows)
    row_type, fields = split
    columns = {}
    known: dict[Any, int] = {}
    for spec in specs:
        data = None
        if _ACCESS_ROWS.get(spec.access, tuple) is row_type:
            key = _field_key(spec)
            if row_type is tuple and key < 0:
                key += len(fields)  # row[-1] reads the last position
            data = fields.get(key)
        array = None
        if data is not None:
            array = _column_array(data, spec.kind, kinds if row_type is None else None)
            if array is not None:
                known[key] = _scalar_bytes(array)
        columns[spec.name] = array
    return columns, split_bytes(rows, row_type, fields, known)


#: Records per :func:`build_chunk` call of :func:`build_segment` (one
#: 80 000-row read was slower than 72 chunks' reads).
SEGMENT_SLICE = 2048


def build_segment(
    chunks: list, specs: tuple[ColumnSpec, ...]
) -> tuple[Optional[dict[str, Any]], int]:
    """A run of chunks' live columns end to end (None when a slice fails
    validation) and its rows' exact ``dataset_bytes``: :func:`build_chunk`
    over :data:`SEGMENT_SLICE`-record slices that ignore chunk boundaries,
    copied into preallocated arrays; the bytes are the slices' sum."""
    import numpy as np

    n = sum(map(len, chunks))
    columns: Optional[dict] = {
        spec.name: np.empty(n, _DTYPES[spec.kind]) for spec in specs
    }
    rows = itertools.chain.from_iterable(chunks)
    total = 0
    for low in range(0, n, SEGMENT_SLICE):
        piece, size = build_chunk(list(itertools.islice(rows, SEGMENT_SLICE)), specs)
        total += size
        if columns is not None and any(a is None for a in piece.values()):
            columns = None
        elif columns is not None:
            for name, array in piece.items():
                columns[name][low : low + array.shape[0]] = array
    return columns, total


# ----------------------------------------------------------------------
# Vectorized map output blocks


@dataclass
class ColumnBlock:
    """A vectorized map stage's emitted pairs in column form.

    ``keys`` is an array aligned with ``values``, or None when every
    pair shares ``key_const`` (the constant-key emit shape).  Values
    (and array keys) are validated int64/float64/bool arrays, so
    ``tolist`` reconstruction yields exactly the Python scalars the row
    loop would have emitted.
    """

    values: Any
    keys: Any = None
    key_const: Any = None
    #: The kernel's filter over its input rows (None: every row emitted).
    kept: Any = None

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def key_list(self) -> list:
        if self.keys is None:
            return [self.key_const] * len(self)
        return self.keys.tolist()

    def pairs(self) -> list[tuple]:
        """The exact pair list the row loop would have produced."""
        values = self.values.tolist()
        if self.keys is None:
            key = self.key_const
            return [(key, value) for value in values]
        return list(zip(self.keys.tolist(), values))

    def stage_bytes(self) -> int:
        """What ``dataset_bytes(self.pairs())`` charges: pair tuple headers too."""
        return self.shuffle_bytes() + TUPLE_HEADER * len(self)

    def shuffle_bytes(self) -> int:
        """What ``pairs_bytes(self.pairs())`` charges, from the arrays."""
        if self.keys is None:
            keys = sizeof(self.key_const) * len(self)
        else:
            keys = _scalar_bytes(self.keys)
        return keys + _scalar_bytes(self.values)


def _scalar_bytes(array: Any) -> int:
    """``sizeof`` summed over the array's elements: one count of the
    int64 elements inside [−2³¹, 2³¹), no per-element walk."""
    import numpy as np

    n = int(array.shape[0])
    if array.dtype == np.bool_:
        return BOOLEAN_SIZE * n
    if array.dtype.kind == "f":
        return DOUBLE_SIZE * n
    small = int(np.count_nonzero((array >= -(2**31)) & (array < 2**31)))
    return INT_SIZE * small + LONG_SIZE * (n - small)


# ----------------------------------------------------------------------
# Array-based partial aggregation (proved-commutative λr only)


def _int_bound(array: Any) -> int:
    """Max |value| as a Python int (never wraps, unlike np.abs)."""
    if array.shape[0] == 0:
        return 0
    return max(abs(int(array.max())), abs(int(array.min())))


def _dense_ids(labels: Any) -> tuple[Any, int]:
    """``labels`` renumbered onto ``range(width)``, equal labels alike:
    by offset when they span few values, else by first appearance (one
    dict over the labels — no sort either way)."""
    import numpy as np

    n = labels.shape[0]
    if labels.dtype.kind != "f" and n:
        low = int(labels.min())
        width = int(labels.max()) - low + 1
        if width <= 4 * n + 1024:
            labels = labels.astype(np.int64, copy=False)
            return (labels - low if low else labels), width
    items = labels.tolist()
    index = {label: i for i, label in enumerate(dict.fromkeys(items))}
    return np.fromiter(map(index.__getitem__, items), np.int64, n), len(index)


def grouped_fold(
    block: ColumnBlock, op: str, chunk_rows: Optional[list[int]] = None
) -> Optional[tuple[ColumnBlock, list[int]]]:
    """Every chunk's combine partials of a block in one sort-free pass —
    or None to combine the chunks' pairs the classic way.

    The block is the kernel's output over ``chunk_rows`` input rows per
    chunk (None: one chunk; ``block.kept`` maps input rows to block rows).
    Rows ``bounds[c]:bounds[c + 1]`` of the returned ``(partials,
    bounds)`` are chunk *c*'s keys in first-seen order (its slots' first
    rows, ascending) and their folds, bit for bit that chunk's dict fold.
    A slot is a (chunk, key) pair (:func:`_dense_ids`).  Float sums are
    one in-order ``add.at`` from ``-0.0``; int sums one ``add.at``,
    refused if a chunk's partial could wrap int64; min/max refuse NaN and
    ``-0.0`` values (a tie's face depends on λr's form); NaN and ``-0.0``
    keys are refused (a dict groups them by identity, keeps one face).
    """
    if op not in ("sum", "min", "max"):
        return None
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is present in the toolchain image
        return None
    values, keys = block.values, block.keys
    if not isinstance(values, np.ndarray) or values.dtype == np.bool_:
        return None
    n = values.shape[0]
    floats = values.dtype.kind == "f"
    if keys is not None and keys.dtype.kind == "f" and bool(
        (np.isnan(keys) | ((keys == 0.0) & np.signbit(keys))).any()
    ):
        return None  # NaN keys group by object identity; -0.0 == 0.0
    if op != "sum" and floats and bool(
        (np.isnan(values) | ((values == 0.0) & np.signbit(values))).any()
    ):
        return None
    if chunk_rows is None:
        chunk_rows = [n if block.kept is None else block.kept.shape[0]]
    # Row indices in int32 where they fit: the pass's temporaries are
    # what a resident segment adds to peak memory.
    index = np.int32 if n < 2**31 else np.int64
    chunk = np.repeat(np.arange(len(chunk_rows), dtype=index), chunk_rows)
    if block.kept is not None:
        chunk = chunk[block.kept]
    ids, width = (0, 1) if keys is None else _dense_ids(keys)
    slots, width = _dense_ids(chunk * np.int64(width) + ids)
    if op == "sum" and floats:
        acc = np.full(width, -0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.at(acc, slots, values)
    elif op == "sum":
        if n and int(np.bincount(chunk).max()) * _int_bound(values) > I64_MAX:
            return None  # a chunk's partial sum could wrap int64
        acc = np.zeros(width, np.int64)
        np.add.at(acc, slots, values)
    else:
        acc = np.empty(width, values.dtype)
        acc[slots] = values  # any member seeds its slot's min / max
        (np.minimum if op == "min" else np.maximum).at(acc, slots, values)
    first = np.full(width, n, dtype=index)
    np.minimum.at(first, slots, np.arange(n, dtype=index))
    is_first = np.zeros(n + 1, np.bool_)
    is_first[first] = True  # an empty slot's "first row" is n
    rows = np.flatnonzero(is_first[:n])
    bounds = np.searchsorted(chunk[rows], np.arange(len(chunk_rows) + 1)).tolist()
    partials = ColumnBlock(
        values=acc[slots[rows]],
        keys=None if keys is None else keys[rows],
        key_const=block.key_const,
    )
    return partials, bounds


# ----------------------------------------------------------------------
# The ordered keyed fold (any λr, any keys)


def fold_columns(
    fn: Callable[[Any, Any], Any], keys: Iterable, values: Iterable, acc: dict
) -> None:
    """Fold one batch of pairs into ``acc``: per key, the left fold of
    its values in arrival order, keys kept in first-seen order.

    A reducer that carries its own ``fold`` kernel (the compiled λr of
    :class:`~repro.codegen.kernels.CompiledReduce`, inlined into this
    very loop) runs the batch in one call; any other callable — a plain
    function, a join's ``JoinFold``, the evaluator oracle — is applied
    pair by pair.  Both are the same fold, so callers never need to know
    which.  The one batch that skips it is a map-side combine of a
    constant-int emit under a ``+`` λr, which :func:`count_keys` folds
    in C.
    """
    fold = getattr(fn, "fold", None)
    if fold is not None:
        fold(keys, values, acc)
        return
    for key, value in zip(keys, values):
        if key in acc:
            acc[key] = fn(acc[key], value)
        else:
            acc[key] = value


def count_keys(keys: Iterable, constant: int) -> tuple[list, list]:
    """The combined key and value columns of a batch whose every value
    is the int ``constant``, folded by an int ``+`` λr.

    Exactly what :func:`fold_columns` leaves in a fresh dict for the
    values ``[constant] * n``: ``Counter`` keeps first-seen key order and
    dict key identity, and a key seen ``n`` times sums to ``n *
    constant`` — Python ints do not overflow — so keys, values and their
    types all match.  The count is ``collections``' C loop, not a
    Python-level one per pair.  A map task counts all of its chunks into
    one :class:`KeyCount` instead, which calls this only to price a
    chunk whose own count could reach 2³¹.
    """
    counts = Counter(keys)
    if constant == 1:
        return list(counts), list(counts.values())
    return list(counts), [n * constant for n in counts.values()]


class KeyCount:
    """A map task's counted keys: one :func:`count_keys` partial for
    many chunks instead of one per chunk.

    Each chunk's keys go into one ``Counter`` (its C update loop);
    :meth:`columns` is the ``(keys, values)`` partial.  That is exactly
    what folding the chunks' own partials with the int ``+`` λr gives:
    int addition regroups exactly, and both keep each key class's
    first-seen object in first-seen order.  A resident task keeps one
    count for all of its chunks; a spilled task's count is *bounded*
    (``bounded=True``): it also prices what it holds
    (:attr:`resident_bytes`), so the task can hand it to its writer as
    one window once it passes the budget, and count on afresh.

    :meth:`add` still reports what the chunk's own partial would have
    shuffled, without building it: its records are the chunk's distinct
    keys (a ``set`` matches keys as a dict does — identity, then ``==`` —
    and keeps the same first-seen object of each class, so NaN objects
    and ±0.0 count, and price, as ``Counter`` counts them), its bytes
    those keys' ``dataset_bytes`` plus ``INT_SIZE`` per key, since no
    count times the constant can reach 2³¹ when ``len(keys)·|c|`` does
    not.  A chunk where it could is priced from its own count.
    """

    __slots__ = ("constant", "counts", "key_bytes", "pairs")

    def __init__(self, constant: int, bounded: bool = False) -> None:
        self.constant = constant
        self.counts: Counter = Counter()
        #: A bounded count's keys' ``dataset_bytes`` and pairs counted
        #: (None on a resident count, which prices nothing it holds).
        self.key_bytes: Optional[int] = 0 if bounded else None
        self.pairs = 0

    def add(self, keys: list) -> tuple[int, int]:
        """Count one chunk's keys in; return the records and bytes the
        chunk's own :func:`count_keys` partial would shuffle."""
        counts = self.counts
        if self.key_bytes is None:
            counts.update(keys)  # an unhashable key raises as count_keys does
        else:
            known = len(counts)
            counts.update(keys)
            # The keys new to the count are the last ones it inserted (a set
            # difference against a Counter, a dict subclass, walks all of it).
            fresh = list(itertools.islice(reversed(counts), len(counts) - known))
            self.key_bytes += dataset_bytes(fresh)
            self.pairs += len(keys)
        if len(keys) * abs(self.constant) >= 2**31:
            own_keys, own_values = count_keys(keys, self.constant)
            return len(own_keys), dataset_bytes(own_keys) + dataset_bytes(own_values)
        distinct = list(set(keys))
        return len(distinct), dataset_bytes(distinct) + INT_SIZE * len(distinct)

    @property
    def resident_bytes(self) -> int:
        """A bounded count's priced bytes: exactly what its
        :meth:`columns` cost as pairs (``INT_SIZE`` a count while no
        count times the constant can reach 2³¹, else each count's own)."""
        if self.pairs * abs(self.constant) < 2**31:
            return self.key_bytes + INT_SIZE * len(self.counts)
        return self.key_bytes + dataset_bytes(self.columns()[1])

    def columns(self) -> tuple[list, list]:
        """The combined key and value columns, keys first-seen (what
        :func:`count_keys` returns for all of the counted chunks' keys)."""
        counts, constant = self.counts, self.constant
        if constant == 1:
            return list(counts), list(counts.values())
        return list(counts), [n * constant for n in counts.values()]


def split_pairs(pairs: list) -> tuple[list, list]:
    """The key column and the value column of a pair list."""
    if set(map(len, pairs)) - {2}:
        raise ValueError("a keyed stage takes (key, value) pairs")
    return list(map(itemgetter(0), pairs)), list(map(itemgetter(1), pairs))


__all__ = [
    "ColumnBlock",
    "ColumnSpec",
    "KeyCount",
    "build_chunk",
    "build_column",
    "build_segment",
    "count_keys",
    "fold_columns",
    "grouped_fold",
    "resolve_columns",
    "sizeof_pair",
    "split_pairs",
]
