"""External (spill-to-disk) shuffle: bounded-memory grouping.

Classic MapReduce runtimes scale past RAM by writing hash-partitioned
map output to local disk and merge-reducing it partition by partition;
this module gives the real local engine the same capability.

A :class:`SpillWriter` (one per map task — "workers spill locally")
buffers emitted ``(key, value)`` pairs per hash partition, a chunk's
combined key and value columns at a time, estimating resident bytes
with the :mod:`repro.engine.sizes` model; at the pair that takes the
buffers past the configured memory budget, every non-empty partition
buffer is flushed as one pickled *run* file.  Runs preserve arrival
order, so a later per-partition merge (:func:`merge_partition`) that
reads runs chronologically folds each key's values in exactly the order
the in-memory engines would — identical results while peak memory stays
O(budget) on the map side and O(run + partition's keys) on the reduce
side.

Keys are routed with a *stable* hash (:func:`partition_of`): Python's
builtin ``hash`` is salted per process for strings, which would scatter
the same key to different partitions across pool workers.  A writer
hashes each distinct key once and remembers its partition.

All failure modes raise the typed :class:`repro.errors.SpillError` —
an unwritable spill directory, a corrupt run file discovered mid-merge,
or a budget too small to buffer even one pair.  Partial results are
never returned.
"""

from __future__ import annotations

import os
import pickle
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Any, Callable, Iterable, Iterator, Optional

from ..errors import SpillError
from ..lang.values import Instance
from .columnar import ColumnBlock, fold_columns, split_pairs
from .sizes import dataset_bytes, sizeof_pair, uniform_size


def _stable_bytes(key: Any) -> bytes:
    """A deterministic byte encoding of a shuffle key.

    Covers every key type the emit grammar can produce (ints, floats,
    bools, strings, tuples, model Instances).  The encoding must be
    stable across processes **and canonical over Python equality
    classes**: the in-memory shuffle groups with ``dict``, under which
    ``True == 1 == 1.0`` and ``0.0 == -0.0 == 0 == False`` share one
    group — so equal keys of different numeric types must encode (and
    therefore hash-partition) identically, or spilled results diverge
    from in-memory on mixed-numeric keys.  Numerics are normalized to
    ``n:<int>`` when integral (bools are ints are integral floats) and
    ``n:<repr(float)>`` otherwise; NaNs collapse to one encoding (dict
    grouping treats NaN keys by identity — routing them to one partition
    is the conservative, order-preserving choice).
    """
    if isinstance(key, tuple):
        return b"(" + b",".join(_stable_bytes(item) for item in key) + b")"
    if isinstance(key, Instance):
        inner = ",".join(
            f"{name}:{_stable_bytes(value).decode('utf-8', 'replace')}"
            for name, value in sorted(key.fields.items())
        )
        return f"I{key.class_name}{{{inner}}}".encode("utf-8")
    if isinstance(key, (bool, int, float)):
        if isinstance(key, (bool, int)):
            return b"n:%d" % int(key)
        if key != key:  # NaN
            return b"n:nan"
        if key in (float("inf"), float("-inf")):
            return b"n:inf" if key > 0 else b"n:-inf"
        if key == int(key):
            return b"n:%d" % int(key)
        return f"n:{key!r}".encode("utf-8")
    if isinstance(key, str) or key is None:
        return f"{type(key).__name__}:{key!r}".encode("utf-8")
    return repr(key).encode("utf-8")


def partition_of(key: Any, partitions: int) -> int:
    """Stable hash partition of a key (same in every worker process)."""
    return zlib.crc32(_stable_bytes(key)) % max(1, partitions)


@dataclass
class SpillStats:
    """Spill accounting, merged across tasks into the run's report."""

    partitions: int = 0
    spill_runs: int = 0
    spilled_pairs: int = 0
    #: Estimated (sizeof-model) bytes written to spill files.
    spilled_bytes: int = 0
    #: High-water mark of estimated resident bytes in shuffle buffers.
    peak_resident_bytes: int = 0

    def merge(self, other: "SpillStats") -> None:
        self.partitions = max(self.partitions, other.partitions)
        self.spill_runs += other.spill_runs
        self.spilled_pairs += other.spilled_pairs
        self.spilled_bytes += other.spilled_bytes
        self.peak_resident_bytes = max(
            self.peak_resident_bytes, other.peak_resident_bytes
        )

    def note_resident(self, resident_bytes: int) -> None:
        if resident_bytes > self.peak_resident_bytes:
            self.peak_resident_bytes = resident_bytes

    def as_dict(self) -> dict:
        return {
            "partitions": self.partitions,
            "spill_runs": self.spill_runs,
            "spilled_pairs": self.spilled_pairs,
            "spilled_bytes": self.spilled_bytes,
            "peak_resident_bytes": self.peak_resident_bytes,
        }


class SpillWriter:
    """Hash-partitions one map task's output into budgeted spill runs.

    Output arrives a batch at a time — :meth:`add_columns` takes a
    chunk's (combined) key and value columns, :meth:`add_block` a
    vectorized stage's arrays — and is accounted exactly as if it had
    arrived pair by pair: the flush fires at the pair whose estimated
    size takes the buffers past the budget, so run boundaries and every
    :class:`SpillStats` field are those of the per-pair walk.  When both
    columns are one fixed-size scalar kind (:func:`uniform_size`) that
    pair is found by arithmetic; any other column is sized pair by pair
    by the walker (``sizeof_pair``), the one per-pair sizing left.

    A key is hashed (:func:`partition_of`) the first time this writer
    sees it; ``_route`` remembers ``key → partition`` and, being a dict,
    the first-seen key order.  That is sound because ``_stable_bytes``
    is canonical over exactly the equality classes a dict lookup
    conflates; a NaN that misses by identity recomputes the same
    partition.
    """

    def __init__(
        self,
        spill_dir: str,
        partitions: int,
        budget_bytes: int,
        task_id: int = 0,
    ):
        if budget_bytes <= 0:
            raise SpillError(
                f"memory budget must be positive, got {budget_bytes}"
            )
        self.spill_dir = spill_dir
        self.partitions = max(1, partitions)
        self.budget_bytes = budget_bytes
        self.task_id = task_id
        #: Per partition, the buffered entries in arrival order: pair
        #: tuples and (from :meth:`add_block`) ``ColumnBlock`` pieces.
        self._buffers: list[list] = [[] for _ in range(self.partitions)]
        #: Estimated bytes / pairs currently buffered, all partitions.
        self._resident = 0
        self._buffered_pairs = 0
        self._run_index = 0
        #: Per partition, run-file paths in chronological (spill) order.
        self.run_files: list[list[str]] = [[] for _ in range(self.partitions)]
        self._route: dict[Any, int] = {}
        self.pairs_in = 0
        self.bytes_in = 0
        self.stats = SpillStats(partitions=self.partitions)

    @property
    def resident_bytes(self) -> int:
        """Estimated bytes currently buffered (pre-spill high water)."""
        return self._resident

    @property
    def key_order(self) -> list:
        """Keys in first-seen order within this task's input slice."""
        return list(self._route)

    def _partitions_of(self, keys: Iterable) -> Iterator[int]:
        """Each key's partition, hashing only keys not seen before."""
        route = self._route
        for key in keys:
            if key not in route:
                route[key] = partition_of(key, self.partitions)
        return map(route.__getitem__, keys)

    def _check_fits(self, biggest: int) -> None:
        if biggest > self.budget_bytes:
            raise SpillError(
                f"memory budget {self.budget_bytes} B is smaller than a "
                f"single record ({biggest} B estimated) — cannot buffer even "
                "one pair; raise the budget"
            )

    def _buffered(self, pairs: int, size: int) -> None:
        """Account ``pairs`` more buffered pairs of ``size`` bytes in
        all; flush when that took the buffers past the budget."""
        self._resident += size
        self._buffered_pairs += pairs
        self.pairs_in += pairs
        self.bytes_in += size
        self.stats.note_resident(self._resident)
        if self._resident > self.budget_bytes:
            self.spill()

    def add(self, key: Any, value: Any) -> None:
        self.add_columns((key,), (value,))

    def add_columns(self, keys: list, values: list) -> None:
        """Buffer one batch of pairs, given as aligned columns."""
        count = len(keys)
        if count == 0:
            return
        key_size, value_size = uniform_size(keys), uniform_size(values)
        if key_size is not None and value_size is not None:
            size = key_size + value_size
            totals = None
        else:
            # A column of mixed or nested values: every pair has its own
            # size, and their running total places the flush.
            sizes = list(map(sizeof_pair, keys, values))
            size = max(sizes)
            totals = list(accumulate(sizes))
        self._check_fits(size)
        buffers = self._buffers
        routed = zip(self._partitions_of(keys), zip(keys, values))
        start = 0
        while start < count:
            # Buffer up to and including the pair that takes the buffers
            # past the budget (or the rest of the batch), then account.
            room = self.budget_bytes - self._resident
            if totals is None:
                stop = min(count, start + room // size + 1)
                taken = (stop - start) * size
            else:
                before = totals[start - 1] if start else 0
                stop = min(count, bisect_right(totals, before + room, start) + 1)
                taken = totals[stop - 1] - before
            for partition, pair in islice(routed, stop - start):
                buffers[partition].append(pair)
            self._buffered(stop - start, taken)
            start = stop

    def add_block(self, block: ColumnBlock) -> None:
        """Route a vectorized map stage's output block into the buffers.

        The block's pairs stay in column form: each partition's slice is
        buffered (and later pickled) as a :class:`ColumnBlock` holding
        the value/key sub-arrays — one flat buffer instead of thousands
        of pair tuples — and :func:`read_run` expands it back to the
        exact pair list at merge time.  Oversized blocks are cut into
        pieces bounded by a quarter of the budget so residency stays
        budget-shaped even when one chunk emits more than the budget.
        """
        n = len(block)
        if n == 0:
            return
        sizes = block.pair_sizes()
        biggest = max(sizes)
        self._check_fits(biggest)
        if block.keys is None:
            (partition,) = self._partitions_of((block.key_const,))
            routes = [(partition, None)]
        else:
            by_partition: dict[int, list[int]] = {}
            for index, partition in enumerate(self._partitions_of(block.key_list())):
                by_partition.setdefault(partition, []).append(index)
            routes = list(by_partition.items())
        step = max(1, (self.budget_bytes // 4) // max(1, biggest))
        for partition, indices in routes:
            if indices is None:
                values = block.values
                keys = None
                picked_sizes = sizes
            else:
                values = block.values[indices]
                keys = block.keys[indices]
                picked_sizes = [sizes[i] for i in indices]
            count = int(values.shape[0])
            for start in range(0, count, step):
                stop = min(start + step, count)
                piece = ColumnBlock(
                    values=values[start:stop],
                    keys=None if keys is None else keys[start:stop],
                    key_const=block.key_const,
                )
                self._buffers[partition].append(piece)
                self._buffered(stop - start, sum(picked_sizes[start:stop]))

    def spill(self) -> None:
        """Flush every non-empty partition buffer as one run file each."""
        for partition, buffer in enumerate(self._buffers):
            if not buffer:
                continue
            path = os.path.join(
                self.spill_dir,
                f"p{partition:04d}-t{self.task_id:04d}-r{self._run_index:04d}.spill",
            )
            try:
                with open(path, "wb") as handle:
                    pickle.dump(buffer, handle, protocol=pickle.HIGHEST_PROTOCOL)
            except OSError as exc:
                raise SpillError(
                    f"cannot write spill run {path!r}: {exc}"
                ) from exc
            self.run_files[partition].append(path)
            self.stats.spill_runs += 1
            self._buffers[partition] = []
        if self._buffered_pairs:
            self._run_index += 1
        self.stats.spilled_pairs += self._buffered_pairs
        self.stats.spilled_bytes += self._resident
        self._buffered_pairs = 0
        self._resident = 0

    def finish(self) -> None:
        """Flush the residue so the merge phase reads files only."""
        self.spill()


def read_run(path: str) -> list[tuple]:
    """Load one spill run; corruption raises the typed error.

    Column-block entries (from :meth:`SpillWriter.add_block`) are
    expanded back to their exact pair lists here, in arrival order, so
    every consumer keeps seeing a flat pair stream.
    """
    try:
        with open(path, "rb") as handle:
            pairs = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, ValueError) as exc:
        raise SpillError(f"corrupt spill run {path!r}: {exc}") from exc
    if not isinstance(pairs, list):
        raise SpillError(
            f"corrupt spill run {path!r}: expected a pair list, "
            f"got {type(pairs).__name__}"
        )
    if ColumnBlock not in set(map(type, pairs)):
        return pairs
    out: list[tuple] = []
    for entry in pairs:
        if type(entry) is ColumnBlock:
            out.extend(entry.pairs())
        else:
            out.append(entry)
    return out


def merge_partition(
    run_files: list[str],
    reduce_fn: Callable[[Any, Any], Any],
    stats: Optional[SpillStats] = None,
) -> list[tuple]:
    """Merge-reduce one partition: fold its runs in order, key by key.

    Reads this partition's runs chronologically and folds each into one
    accumulator dict (:func:`~repro.engine.columnar.fold_columns`), so
    each key's values meet ``reduce_fn`` in the order the in-memory
    engines would have folded them and the reductions are identical.
    Output pairs come back in the partition-local first-seen key order
    (the caller restores the global order).  ``stats`` is charged the
    partition's whole pair stream, as when it was grouped before folding.
    """
    acc: dict[Any, Any] = {}
    resident = 0
    for path in run_files:
        keys, values = split_pairs(read_run(path))
        resident += dataset_bytes(keys) + dataset_bytes(values)
        fold_columns(reduce_fn, keys, values, acc)
    if stats is not None:
        stats.note_resident(resident)
    return list(acc.items())


def cleanup_runs(run_files_per_partition: list[list[str]]) -> None:
    """Best-effort removal of consumed run files."""
    for paths in run_files_per_partition:
        for path in paths:
            try:
                os.remove(path)
            except OSError:
                pass
