"""External (spill-to-disk) shuffle: bounded-memory grouping.

Classic MapReduce runtimes scale past RAM by writing hash-partitioned
map output to local disk and merge-reducing it partition by partition;
this module gives the real local engine the same capability.

A :class:`SpillWriter` (one per map task — "workers spill locally")
buffers emitted ``(key, value)`` pairs per hash partition as three
aligned columns — keys, values and each key's *writer rank* (its
first-seen index in this writer) — a chunk's combined columns at a
time, estimating resident bytes with the :mod:`repro.engine.sizes`
model.  At the pair that takes the buffers past the configured memory
budget the writer *flushes*: it writes **one file** holding every
non-empty partition's buffer, each pickled as one *run* at its own
offset (a :class:`RunRef` says where).  A counted map task's *window* —
its key count, handed over once it passed the budget — is flushed whole,
one file per window.
Runs preserve arrival order, so a later per-partition merge
(:func:`merge_partition`) that reads runs chronologically folds each
key's values in exactly the order the in-memory engines would —
identical results while peak memory stays O(budget) on the map side and
O(run + partition's keys) on the reduce side.

The merge groups a partition's values by rank, never by looking an
unpickled key up by equality: a NaN key (equal to nothing, itself
included) comes back from each run as a new object, and only its rank
says which group it belongs to.  Ranks of several writers are mapped to
the job's first-seen ranks by tables the driver builds
(:func:`merge_partition`'s ``ranks``).

Keys are routed with a *stable* hash (:func:`partition_of`): Python's
builtin ``hash`` is salted per process for strings, which would scatter
the same key to different partitions across pool workers.  A writer
hashes each distinct key once and remembers its rank and partition.

All failure modes raise the typed :class:`repro.errors.SpillError` —
an unwritable spill directory, a corrupt, truncated or misplaced run
discovered mid-merge, or a budget too small to buffer even one pair.
Partial results are never returned.
"""

from __future__ import annotations

import os
import pickle
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, filterfalse, groupby, repeat
from operator import itemgetter
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence, Union

from ..errors import SpillError
from ..lang.values import Instance
from .columnar import ColumnBlock, fold_columns
from .sizes import sizeof_pair, uniform_size


def _stable_bytes(key: Any) -> bytes:
    """A deterministic byte encoding of a shuffle key.

    The exact ``str`` and ``int`` keys almost every job shuffles take a
    fast path with the bytes :func:`_canonical_bytes` gives them; every
    other key is encoded there.
    """
    kind = type(key)
    if kind is str:
        return f"str:{key!r}".encode("utf-8")
    if kind is int:
        return b"n:%d" % key
    return _canonical_bytes(key)


def _canonical_bytes(key: Any) -> bytes:
    """The general encoding behind :func:`_stable_bytes`.

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
    return zlib.crc32(_stable_bytes(key)) % (partitions if partitions > 1 else 1)


class RunRef(NamedTuple):
    """Where one spill run lives in its flush file ``path``.

    At ``offset`` sit ``length`` bytes holding the run's value and rank
    columns, then ``key_length`` bytes holding its key column — the
    merge reads only the first part.  ``pair_bytes`` is the run's
    estimated (sizeof-model) size and ``task`` the map task that wrote
    it.  A path-like (``open(run)`` opens the flush file), so a run is
    handled like the file it sits in.
    """

    path: str
    offset: int
    length: int
    key_length: int
    pair_bytes: int
    task: int

    def __fspath__(self) -> str:
        return self.path


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
    chunk's (combined) key and value columns — and is accounted exactly
    as if it had arrived pair by pair: the flush fires at the pair whose
    estimated size takes the buffers past the budget, so run boundaries
    and every :class:`SpillStats` field are those of the per-pair walk.
    The one batch not cut there is a counted task's *window*
    (:meth:`add_window`), flushed whole as one file.  When both
    columns are one fixed-size scalar kind (:func:`uniform_size`) that
    pair is found by arithmetic; any other column is sized pair by pair
    by the walker (``sizeof_pair``), the one per-pair sizing left.

    A key is hashed (:func:`partition_of`) the first time this writer
    sees it; ``_ranks`` remembers ``key → rank`` (its first-seen index)
    and ``_parts`` each rank's partition.  That is sound because
    ``_stable_bytes`` is canonical over exactly the equality classes a
    dict lookup conflates.  A batch is cut by partition with a stable
    sort of its pairs' partitions — arrival order kept within each —
    and appended to that partition's key, value and rank columns.
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
        #: Per partition, the buffered run: its key, value and rank
        #: columns and its estimated bytes.
        self._buffers: list[list] = [_empty_run() for _ in range(self.partitions)]
        #: Estimated bytes / pairs currently buffered, all partitions.
        self._resident = 0
        self._buffered_pairs = 0
        self._flush_index = 0
        #: Per partition, its runs in chronological (spill) order.
        self.run_files: list[list[RunRef]] = [[] for _ in range(self.partitions)]
        self._ranks: dict[Any, int] = {}
        self._parts: list[int] = []
        self.pairs_in = 0
        self.bytes_in = 0
        self.stats = SpillStats(partitions=self.partitions)

    @property
    def resident_bytes(self) -> int:
        """Estimated bytes currently buffered (pre-spill high water)."""
        return self._resident

    @property
    def key_order(self) -> list:
        """Keys in first-seen order within this task's input slice: the
        key of each writer rank."""
        return list(self._ranks)

    @property
    def key_partitions(self) -> list[int]:
        """The partition of each writer rank's key."""
        return list(self._parts)

    def _ranks_of(self, keys: list) -> list[int]:
        """Each key's writer rank, hashing only keys not seen before."""
        ranks, parts = self._ranks, self._parts
        fresh = list(dict.fromkeys(filterfalse(ranks.__contains__, keys)))
        if fresh:
            ranks.update(zip(fresh, range(len(parts), len(parts) + len(fresh))))
            parts.extend(map(partition_of, fresh, repeat(self.partitions)))
        return list(map(ranks.__getitem__, keys))

    def _check_fits(self, biggest: int) -> None:
        if biggest > self.budget_bytes:
            raise SpillError(
                f"memory budget {self.budget_bytes} B is smaller than a "
                f"single record ({biggest} B estimated) — cannot buffer even "
                "one pair; raise the budget"
            )

    def _buffer(
        self,
        keys: list,
        values: list,
        ranks: list,
        where: list,
        sizes: Union[int, list],
        indices: Sequence[int],
    ) -> None:
        """Append the pairs at ``indices`` to their partitions' runs, each
        partition's in arrival order: one stable sort by partition, then
        one slice per partition of each reordered column.  ``sizes`` is
        the one size every pair has, or each pair's."""
        buffers = self._buffers
        if len(indices) == 1:
            (index,) = indices
            run = buffers[where[index]]
            run[0].append(keys[index])
            run[1].append(values[index])
            run[2].append(ranks[index])
            run[3] += sizes if type(sizes) is int else sizes[index]
            return
        pick = itemgetter(*sorted(indices, key=where.__getitem__))
        placed = pick(where)
        sorted_keys, sorted_values, sorted_ranks = pick(keys), pick(values), pick(ranks)
        sorted_sizes = None if type(sizes) is int else pick(sizes)
        start, total = 0, len(placed)
        while start < total:
            partition = placed[start]
            stop = bisect_right(placed, partition, start)
            run = buffers[partition]
            run[0].extend(sorted_keys[start:stop])
            run[1].extend(sorted_values[start:stop])
            run[2].extend(sorted_ranks[start:stop])
            run[3] += (
                (stop - start) * sizes
                if sorted_sizes is None
                else sum(sorted_sizes[start:stop])
            )
            start = stop

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

    def _sized(self, keys: list, values: list) -> tuple:
        """``(size, sizes, totals)`` of a non-empty batch: the one size
        every pair has, twice, and None — or, when a column is of mixed
        or nested values, the biggest pair's, each pair's and their
        running total; a pair over the budget raises."""
        key_size, value_size = uniform_size(keys), uniform_size(values)
        if key_size is not None and value_size is not None:
            size = key_size + value_size
            self._check_fits(size)
            return size, size, None
        sizes = list(map(sizeof_pair, keys, values))
        self._check_fits(max(sizes))
        return max(sizes), sizes, list(accumulate(sizes))

    def add(self, key: Any, value: Any) -> None:
        self.add_columns((key,), (value,))

    def add_columns(self, keys: list, values: list) -> None:
        """Buffer one batch of pairs, given as aligned columns."""
        count = len(keys)
        if count == 0:
            return
        size, sizes, totals = self._sized(keys, values)
        ranks = self._ranks_of(keys)
        where = list(map(self._parts.__getitem__, ranks))
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
            self._buffer(keys, values, ranks, where, sizes, range(start, stop))
            self._buffered(stop - start, taken)
            start = stop

    def add_window(self, keys: list, values: list) -> None:
        """Buffer one *window* whole and flush it as one file.

        A window is a map task's counted partial that took the task past
        the budget (a bounded :class:`~repro.engine.columnar.KeyCount`):
        it was already resident as a count, so its pairs are not cut at
        the budget — all of them are buffered before the flush, beside
        whatever the buffers held.
        """
        if keys:
            size, sizes, totals = self._sized(keys, values)
            ranks = self._ranks_of(keys)
            where = list(map(self._parts.__getitem__, ranks))
            self._buffer(keys, values, ranks, where, sizes, range(len(keys)))
            total = len(keys) * size if totals is None else totals[-1]
            self._buffered(len(keys), total)
        self.spill()

    def add_block(self, block: ColumnBlock) -> None:
        """A column block's pairs through :meth:`add_columns` (no engine
        path writes a block: a vectorized stage is always folded first)."""
        self.add_columns(block.key_list(), block.values.tolist())

    def spill(self) -> None:
        """Flush the buffers as one file: each non-empty partition's run
        at its own offset — its value and rank columns pickled, then its
        key column."""
        if not self._buffered_pairs:
            return
        path = os.path.join(
            self.spill_dir, f"t{self.task_id:04d}-f{self._flush_index:04d}.spill"
        )
        runs: list[tuple[int, RunRef]] = []
        try:
            with open(path, "wb") as handle:
                offset = 0
                for partition, (keys, values, ranks, pair_bytes) in enumerate(
                    self._buffers
                ):
                    if not keys:
                        continue
                    head = pickle.dumps((values, ranks), pickle.HIGHEST_PROTOCOL)
                    tail = pickle.dumps(keys, pickle.HIGHEST_PROTOCOL)
                    handle.write(head)
                    handle.write(tail)
                    run = RunRef(
                        path, offset, len(head), len(tail), pair_bytes, self.task_id
                    )
                    runs.append((partition, run))
                    offset += len(head) + len(tail)
        except OSError as exc:
            raise SpillError(f"cannot write spill run {path!r}: {exc}") from exc
        for partition, run in runs:
            self.run_files[partition].append(run)
            self._buffers[partition] = _empty_run()
        self._flush_index += 1
        self.stats.spill_runs += len(runs)
        self.stats.spilled_pairs += self._buffered_pairs
        self.stats.spilled_bytes += self._resident
        self._buffered_pairs = 0
        self._resident = 0

    def finish(self) -> None:
        """Flush the residue so the merge phase reads files only."""
        self.spill()


def _empty_run() -> list:
    """A partition's buffer: key, value and rank columns, and bytes."""
    return [[], [], [], 0]


def _load(run: RunRef, offset: int, size: int) -> Any:
    """Unpickle ``size`` bytes of ``run``'s flush file at ``offset``;
    a short read or an undecodable payload raises the typed error."""
    try:
        with open(run.path, "rb") as handle:
            handle.seek(offset)
            data = handle.read(size)
    except OSError as exc:
        raise SpillError(f"corrupt spill run {run!r}: {exc}") from exc
    if len(data) != size:
        raise SpillError(f"corrupt spill run {run!r}: read {len(data)} of {size} bytes")
    try:
        return pickle.loads(data)
    except Exception as exc:  # any decoding failure is damage
        raise SpillError(f"corrupt spill run {run!r}: {exc}") from exc


def _read_values(run: RunRef) -> tuple[list, list]:
    """One run's value and rank columns; any damage — a short read, an
    undecodable or misshapen payload — raises the typed error."""
    columns = _load(run, run.offset, run.length)
    if (
        type(columns) is not tuple
        or len(columns) != 2
        or type(columns[0]) is not list
        or type(columns[1]) is not list
        or len(columns[0]) != len(columns[1])
    ):
        raise SpillError(f"corrupt spill run {run!r}: expected value and rank columns")
    return columns


def read_run(run: RunRef) -> list[tuple]:
    """Load one spill run as its pair list, in arrival order;
    corruption raises the typed error."""
    values, _ranks = _read_values(run)
    keys = _load(run, run.offset + run.length, run.key_length)
    if type(keys) is not list or len(keys) != len(values):
        raise SpillError(f"corrupt spill run {run!r}: expected a key column")
    return list(zip(keys, values))


def merge_partition(
    run_files: list[RunRef],
    reduce_fn: Callable[[Any, Any], Any],
    stats: Optional[SpillStats] = None,
    ranks: Optional[Mapping[int, Mapping[int, int]]] = None,
) -> list[tuple]:
    """Merge-reduce one partition: fold its runs in order, rank by rank.

    Reads this partition's runs chronologically and folds each into one
    accumulator dict (:func:`~repro.engine.columnar.fold_columns`), so
    each key's values meet ``reduce_fn`` in the order the in-memory
    engines would have folded them and the reductions are identical.
    Values are grouped by rank, never by looking an unpickled key up:
    ``ranks[task]`` maps a writer's ranks to the job's first-seen ranks;
    without it the runs must all come from one writer, whose ranks are
    the job's.  Returns ``(rank, value)`` pairs in first-seen order
    (ascending rank) — the caller holds each rank's key (the writer's
    ``key_order``).  ``stats`` is charged the partition's whole pair
    stream, as when it was grouped before folding.
    """
    if ranks is None and len({run.task for run in run_files}) > 1:
        raise ValueError("runs of several writers need their rank tables")
    acc: dict[int, Any] = {}
    resident = 0
    for run in run_files:
        values, grouped = _read_values(run)
        if ranks is not None:
            try:
                grouped = list(map(ranks[run.task].__getitem__, grouped))
            except (KeyError, IndexError, TypeError) as exc:
                raise SpillError(
                    f"corrupt spill run {run!r}: rank {exc} outside its writer's table"
                ) from exc
        resident += run.pair_bytes
        fold_columns(reduce_fn, grouped, values, acc)
    if stats is not None:
        stats.note_resident(resident)
    return list(acc.items())


def rank_tables(
    key_order: dict, task_keys: Mapping[int, tuple[list, list]], partitions: int
) -> Optional[list[dict]]:
    """Per partition, per map task: writer rank → job rank, for that
    partition's keys — :func:`merge_partition`'s ``ranks``; None when
    one writer's ranks are the job's.

    ``task_keys`` gives each task's keys and their partitions by writer
    rank; ``key_order`` is every key in job-wide first-seen order, built
    from those very lists, so every lookup hits — a NaN (equal to
    nothing) by identity.
    """
    if len(task_keys) <= 1:
        return None
    rank_of = dict(zip(key_order, range(len(key_order))))
    tables: list[dict] = [{} for _ in range(partitions)]
    for task, (keys, parts) in task_keys.items():
        job = list(map(rank_of.__getitem__, keys))
        for partition, mine in groupby(
            sorted(range(len(job)), key=parts.__getitem__), parts.__getitem__
        ):
            mine = list(mine)
            tables[partition][task] = dict(zip(mine, map(job.__getitem__, mine)))
    return tables


def cleanup_runs(run_files_per_partition: list[list[RunRef]]) -> None:
    """Best-effort removal of consumed runs' files, each file once."""
    for path in {run.path for runs in run_files_per_partition for run in runs}:
        try:
            os.remove(path)
        except OSError:
            pass
