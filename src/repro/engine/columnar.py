"""Columnar chunk layout: persistent typed column arrays per chunk.

The column-major representation the vectorized kernels operate on — the
one chunk layout of the real local engine (a pipeline whose first map
stage is not vectorizable reads plain record lists and never comes
here):

* :class:`ColumnSpec` — where a live atom lives in a record (the record
  itself, a struct field, or a parallel-array tuple position) and the
  numpy dtype the typechecker's exactness proof licenses (``int`` →
  int64, ``float`` → float64, ``bool`` → bool).
* :class:`ColumnChunk` — one chunk's rows plus its extracted columns,
  built **once** at the dataset source boundary from the projection
  liveness set, so every kernel that touches the chunk reuses the same
  arrays.
* :class:`ColumnBlock` — a vectorized map stage's output: a value
  array plus either a key array or one constant key, convertible to
  the exact pair list the row engine would have emitted.
* :func:`grouped_fold` — array-based partial aggregation for proved
  sum/min/max reducers (``reduceat`` over stably argsorted keys),
  restricted to cases that are bit-identical to the ordered dict fold
  and guarded against int64 overflow / NaN.
* :func:`fold_columns` — that ordered dict fold itself, over a key
  column and a value column of any Python objects: the one keyed fold
  the map-side combine and both shuffle stores' reduces run, and
  :func:`count_keys`, the map-side combine of a constant-int emit
  under a ``+`` λr, counted in C.

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
    OBJECT_HEADER,
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


class ColumnChunk:
    """One chunk in columnar layout: the rows plus their live columns.

    Built once at the dataset source boundary (`build_chunk`) from the
    projection-pushdown liveness set.  The rows are kept: they are the
    exact fallback surface for guard trips and for any stage that does
    not understand columns, and object-valued atoms (strings, structs)
    only exist row-side.  Iteration and ``len`` see the rows, so every
    row-oriented consumer works unchanged.  ``row_bytes`` is the rows'
    exact ``dataset_bytes``, priced where the chunk is built (the
    constructor prices ``rows`` itself when not given it) and pickled
    with the chunk, so the scan charge never walks the rows again.
    """

    __slots__ = ("rows", "columns", "row_bytes")

    def __init__(self, rows: list, row_bytes: Optional[int] = None) -> None:
        self.rows = rows
        #: spec name → ndarray, or None when validation failed (cached
        #: so a failed column is probed once per chunk, not per kernel).
        self.columns: dict[str, Any] = {}
        self.row_bytes = dataset_bytes(rows) if row_bytes is None else row_bytes

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, index):
        return self.rows[index]

    def __getstate__(self):
        return (self.rows, self.columns, self.row_bytes)

    def __setstate__(self, state):
        self.rows, self.columns, self.row_bytes = state

    def sizeof_model(self, seen: Any) -> int:
        """Price for :func:`repro.engine.sizes.sizeof`: the rows (the
        real payload) plus the array headers — numeric arrays are flat
        buffers, not per-element boxed walks."""
        total = OBJECT_HEADER + self.row_bytes
        for array in self.columns.values():
            if array is not None:
                total += OBJECT_HEADER + int(array.nbytes)
        return total


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
    chunk: Any, specs: tuple[ColumnSpec, ...]
) -> Optional[dict[str, Any]]:
    """The chunk's arrays for ``specs``, building (and caching) misses.

    Returns None when any required column fails validation; the failure
    itself is cached on caching chunk types so repeated kernels skip
    the re-probe.
    """
    cache = getattr(chunk, "columns", None)
    rows = chunk.rows if isinstance(chunk, ColumnChunk) else chunk
    out: dict[str, Any] = {}
    invalid = False
    for spec in specs:
        if cache is not None and spec.name in cache:
            array = cache[spec.name]
        else:
            array = build_column(rows, spec)
            if cache is not None:
                cache[spec.name] = array
        if array is None:
            invalid = True
        else:
            out[spec.name] = array
    return None if invalid else out


def build_chunk(records: Any, specs: tuple[ColumnSpec, ...]) -> ColumnChunk:
    """Columnar form of one chunk: every live column, and the rows'
    exact ``dataset_bytes``, from one read of the rows.

    A homogeneous chunk is split into its field lists once
    (:func:`~repro.engine.sizes.row_fields`): each spec validates its
    field's list, and the byte count prices the validated fields from
    their arrays and every other field column-wise.  An irregular chunk
    extracts spec by spec and is priced by ``dataset_bytes``.
    """
    rows = records if isinstance(records, list) else list(records)
    kinds = set(map(type, rows))
    split = row_fields(rows, kinds) if rows else None
    if split is None:
        chunk = ColumnChunk(rows)
        for spec in specs:
            chunk.columns[spec.name] = build_column(rows, spec)
        return chunk
    row_type, fields = split
    columns: dict[str, Any] = {}
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
    chunk = ColumnChunk(rows, split_bytes(rows, row_type, fields, known))
    chunk.columns = columns
    return chunk


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

    # -- sizeof-model accounting (vectorized, byte-for-byte identical
    # -- to summing sizeof_pair over .pairs())

    def pair_sizes(self) -> list[int]:
        """Per-pair ``sizeof_pair`` without materializing the pairs."""
        n = len(self)
        value_sizes = _scalar_sizes(self.values)
        if self.keys is None:
            key_size = sizeof(self.key_const)
            return [key_size + v for v in value_sizes]
        key_sizes = _scalar_sizes(self.keys)
        return [k + v for k, v in zip(key_sizes, value_sizes)]

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


def _scalar_sizes(array: Any) -> list[int]:
    """sizeof() of each element, computed on the array."""
    import numpy as np

    if array.dtype == np.bool_:
        return [BOOLEAN_SIZE] * int(array.shape[0])
    if array.dtype.kind == "f":
        return [DOUBLE_SIZE] * int(array.shape[0])
    small = (array >= -(2**31)) & (array < 2**31)
    return np.where(small, INT_SIZE, LONG_SIZE).tolist()


def _scalar_bytes(array: Any) -> int:
    """``sum(_scalar_sizes(array))`` with one count of the int64
    elements inside [−2³¹, 2³¹) instead of a per-element list."""
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


def _fold_whole(values: Any, op: str) -> Optional[Any]:
    """Fold one key's whole value array; None when not provably exact."""
    import numpy as np

    if values.shape[0] == 0:
        return None
    if op == "sum":
        if values.dtype.kind == "f":
            # accumulate is the strict sequential left fold — the same
            # rounding sequence as the ordered Python fold (reduce may
            # use pairwise summation, which reassociates).
            return float(np.add.accumulate(values)[-1])
        if values.shape[0] * _int_bound(values) > I64_MAX:
            return None  # a partial sum could wrap int64
        return int(values.sum(dtype=np.int64))
    if op in ("min", "max"):
        if values.dtype.kind == "f" and bool(np.isnan(values).any()):
            return None  # NaN ordering differs between min() and minimum
        result = values.min() if op == "min" else values.max()
        return result.item()
    return None


def grouped_fold(block: ColumnBlock, op: str) -> Optional[list[tuple]]:
    """Per-key array fold of a block — or None to use the dict combine.

    Output is bit-identical to the first-seen-ordered dict fold: keys
    come back in first-occurrence order, int sums are overflow-guarded,
    float sums use the strict sequential ``accumulate`` fold, and
    min/max refuse NaNs.  Any unsupported shape returns None and the
    caller combines the block's pairs the classic way.
    """
    if op not in ("sum", "min", "max"):
        return None
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is present in the toolchain image
        return None
    values = block.values
    if not isinstance(values, np.ndarray) or values.dtype == np.bool_:
        return None
    if block.keys is None:
        folded = _fold_whole(values, op)
        if folded is None:
            return [] if values.shape[0] == 0 else None
        return [(block.key_const, folded)]
    keys = block.keys
    if keys.shape[0] == 0:
        return []
    if keys.dtype.kind == "f":
        if bool(np.isnan(keys).any()):
            return None  # NaN keys group by object identity in dicts
        if bool(((keys == 0.0) & np.signbit(keys)).any()):
            return None  # -0.0 == 0.0: unique() may pick the wrong face
    uniq, first_index, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)
    order = np.argsort(inverse, kind="stable")  # arrival order per group
    bounds = np.searchsorted(inverse[order], np.arange(uniq.shape[0]))
    sorted_values = values[order]
    if op == "sum":
        if values.dtype.kind == "f":
            if uniq.shape[0] * 4 > keys.shape[0]:
                return None  # mostly-distinct keys: per-group loop loses
            starts = bounds.tolist()
            stops = starts[1:] + [int(keys.shape[0])]
            aggregated = [
                float(np.add.accumulate(sorted_values[lo:hi])[-1])
                for lo, hi in zip(starts, stops)
            ]
        else:
            if keys.shape[0] * _int_bound(values) > I64_MAX:
                return None
            aggregated = np.add.reduceat(sorted_values, bounds).tolist()
    else:
        if values.dtype.kind == "f" and bool(np.isnan(values).any()):
            return None
        ufunc = np.minimum if op == "min" else np.maximum
        aggregated = ufunc.reduceat(sorted_values, bounds).tolist()
    # Restore first-seen key order (what the dict combine produces).
    seen_order = np.argsort(first_index, kind="stable")
    out_keys = uniq[seen_order].tolist()
    return [(key, aggregated[group]) for key, group in zip(out_keys, seen_order.tolist())]


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
    Python-level one per pair.
    """
    counts = Counter(keys)
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
    "ColumnChunk",
    "ColumnSpec",
    "build_chunk",
    "build_column",
    "count_keys",
    "fold_columns",
    "grouped_fold",
    "resolve_columns",
    "sizeof_pair",
    "split_pairs",
]
