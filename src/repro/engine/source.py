"""Bounded-memory dataset sources for out-of-core execution.

The engines historically took ``list`` inputs — every record resident at
once, bounding the largest runnable dataset by driver RAM.  A
:class:`Dataset` instead feeds records as *chunk iterators*: the engine
asks for chunks of at most ``chunk_records`` records and never holds
more than a chunk (plus its bounded shuffle buffers) in memory.

Three concrete sources cover the common cases:

* :class:`ListSource` — an in-memory list, chunked by slicing.  This is
  how plain-list inputs enter the streaming engine; its chunk layout
  reproduces :func:`repro.engine.core.partition_data` exactly (see
  :func:`chunk_records_for`), which is what keeps spilled results
  byte-identical to the in-memory engines.
* :class:`GeneratorSource` — a *factory* of iterators, so the stream can
  be replayed (the planner samples a prefix, then the engine runs the
  full pass).  Records are produced lazily; nothing is materialized.
* :class:`JsonlSource` / :class:`TextSource` — newline-delimited files:
  one JSON document (or one raw line) per record, read incrementally.

Every source is re-iterable: each :meth:`Dataset.iter_chunks` call
starts a fresh pass over the data.  A chunk is always a plain list of
records: the engine builds column arrays only for the one vectorized
shape, a whole folded map segment at a time
(:func:`repro.engine.columnar.build_segment`), never per chunk here.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

from ..errors import EngineError
from .sizes import dataset_bytes

#: Chunk size used when a source's length is unknown and no plan says
#: otherwise — small enough that a chunk of ordinary records stays far
#: below any realistic memory budget.
DEFAULT_CHUNK_RECORDS = 4096


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a bounded first-chunk probe of a dataset.

    ``exhausted`` means the probe reached the end of the stream within
    its record bound — the source's *exact* length is ``records``, and
    the probing dataset caches it (``known_length`` reports it from then
    on).  Otherwise the stream is longer than the bound and only the
    sampled per-record size is meaningful.
    """

    records: int
    bytes: int
    exhausted: bool


class Dataset:
    """A replayable source of records, consumed in bounded chunks."""

    #: Exact length learned by an exhausting :meth:`probe`; sources with
    #: a declared length never consult it.
    _probed_length: Optional[int] = None

    def iter_chunks(self, chunk_records: int) -> Iterator[list]:
        """Yield lists of at most ``chunk_records`` records, in order."""
        raise NotImplementedError

    @property
    def known_length(self) -> Optional[int]:
        """Record count when knowable without a full pass, else None."""
        return self._probed_length

    def probe(self, max_records: int = DEFAULT_CHUNK_RECORDS) -> ProbeResult:
        """Measure a bounded prefix: record count, sampled bytes, EOF.

        Reads at most ``max_records`` records (one bounded pass — the
        source is re-iterable, so nothing is consumed).  When the stream
        ends within the bound the exact length is now known and cached:
        the planner prices the source from the measured sample instead
        of pessimistically assuming a large stream, and the engine gets
        the partition-matched chunk layout.
        """
        sampled: list = []
        exhausted = True
        bound = max(1, max_records)
        for chunk in self.iter_chunks(min(bound, DEFAULT_CHUNK_RECORDS)):
            sampled.extend(chunk)
            if len(sampled) > bound:
                exhausted = False
                sampled = sampled[:bound]
                break
        result = ProbeResult(
            records=len(sampled),
            bytes=dataset_bytes(sampled),
            exhausted=exhausted,
        )
        if exhausted and self.known_length is None:
            self._probed_length = result.records
        return result

    def __iter__(self) -> Iterator[Any]:
        for chunk in self.iter_chunks(DEFAULT_CHUNK_RECORDS):
            yield from chunk

    def head(self, n: int) -> list:
        """The first ``n`` records (fewer when the source is shorter)."""
        if n <= 0:
            return []
        out: list = []
        for chunk in self.iter_chunks(min(n, DEFAULT_CHUNK_RECORDS)):
            out.extend(chunk)
            if len(out) >= n:
                return out[:n]
        return out

    def materialize(self) -> list:
        """Every record as one list — the in-memory escape hatch."""
        return [
            record
            for chunk in self.iter_chunks(DEFAULT_CHUNK_RECORDS)
            for record in chunk
        ]

    def estimated_bytes(self, sample_records: int = 64) -> Optional[int]:
        """Serialized-size estimate from a head sample × known length.

        None when the length is unknown — the caller must then assume
        the stream is large (that is the point of a streaming source).
        """
        length = self.known_length
        if length is None:
            return None
        if length == 0:
            return 0
        sample = self.head(min(sample_records, length))
        if not sample:
            return 0
        per_record = dataset_bytes(sample) / len(sample)
        return int(per_record * length)


class ListSource(Dataset):
    """An in-memory record list exposed through the Dataset protocol.

    The list is borrowed, not copied: chunks and heads are slices of it,
    and :meth:`materialize` returns the list itself.  Readers must not
    mutate what they are handed, and whoever owns the list must not
    mutate it while a job reads it.
    """

    def __init__(self, records: list):
        self._records = records

    def iter_chunks(self, chunk_records: int) -> Iterator[list]:
        size = max(1, chunk_records)
        for start in range(0, len(self._records), size):
            yield self._records[start : start + size]

    @property
    def known_length(self) -> int:
        return len(self._records)

    def head(self, n: int) -> list:
        return self._records[:n] if n > 0 else []

    def materialize(self) -> list:
        return self._records


class GeneratorSource(Dataset):
    """Records produced lazily by a replayable iterator factory.

    ``factory`` is called once per pass and must yield the same record
    sequence every time (seeded generators do; see
    ``workloads.datagen.large_scale``).  ``length`` may be given when
    the factory's record count is known a priori — it enables the
    partition-matched chunk layout and size estimates without a pass.
    """

    def __init__(
        self, factory: Callable[[], Iterable[Any]], length: Optional[int] = None
    ):
        self._factory = factory
        self._length = length

    def iter_chunks(self, chunk_records: int) -> Iterator[list]:
        size = max(1, chunk_records)
        chunk: list = []
        for record in self._factory():
            chunk.append(record)
            if len(chunk) >= size:
                yield chunk
                chunk = []
        if chunk:
            yield chunk

    @property
    def known_length(self) -> Optional[int]:
        return self._length if self._length is not None else self._probed_length


class _FileSource(Dataset):
    """Shared machinery of the newline-delimited file sources."""

    def __init__(self, path: str):
        self.path = path

    def _lines(self) -> Iterator[str]:
        if not os.path.exists(self.path):
            raise EngineError(f"dataset file does not exist: {self.path!r}")
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.rstrip("\n")
                if line:
                    yield line

    def _parse(self, line: str) -> Any:
        raise NotImplementedError

    def iter_chunks(self, chunk_records: int) -> Iterator[list]:
        size = max(1, chunk_records)
        chunk: list = []
        for line in self._lines():
            chunk.append(self._parse(line))
            if len(chunk) >= size:
                yield chunk
                chunk = []
        if chunk:
            yield chunk


class JsonlSource(_FileSource):
    """One JSON document per line; each document is one record."""

    def _parse(self, line: str) -> Any:
        try:
            return json.loads(line)
        except json.JSONDecodeError as exc:
            raise EngineError(
                f"invalid JSONL record in {self.path!r}: {exc}"
            ) from exc


class TextSource(_FileSource):
    """One raw text line per record."""

    def _parse(self, line: str) -> str:
        return line


def as_dataset(records: Any) -> Dataset:
    """Coerce an engine input into a Dataset (Datasets pass, a list is
    wrapped without a copy — borrowed for the job — and a tuple is copied
    once)."""
    if isinstance(records, Dataset):
        return records
    if isinstance(records, list):
        return ListSource(records)
    if isinstance(records, tuple):
        return ListSource(list(records))
    raise EngineError(
        f"cannot stream records of type {type(records).__name__!r}; "
        "pass a list or a repro.engine.source.Dataset"
    )


def chunk_records_for(
    dataset: Dataset, partitions: int, budget_bytes: Optional[int] = None
) -> int:
    """Chunk size reproducing ``partition_data``'s block layout.

    When the length is known, chunks are ``ceil(n / partitions)`` records
    — exactly the contiguous blocks the in-memory engines map (and
    combine) over, so per-chunk combining groups records identically and
    spilled results stay byte-for-byte equal to in-memory execution.
    Unknown-length streams use the bounded default.

    With a ``budget_bytes``, a chunk whose estimated size would exceed
    *twice the budget* is capped so one chunk fits within the budget
    (estimated from a head sample) — without the cap, a huge
    known-length input would materialize O(n / partitions) records per
    chunk and defeat the out-of-core guarantee.  Below the 2× line the
    partition-matched layout is preserved even when a chunk somewhat
    exceeds the budget: residency stays within the engine's documented
    ~2×-budget envelope, and the layout is what keeps float folds
    byte-identical to the in-memory engines.  Beyond it (inputs that
    dwarf the budget by ≫ the partition count — a scale the in-memory
    engines cannot run) boundedness wins and float reductions may drift
    in the last ulp relative to a hypothetical in-memory run.
    """
    n = dataset.known_length
    if n is None:
        base = DEFAULT_CHUNK_RECORDS
    elif n == 0:
        return 1
    else:
        base = max(1, math.ceil(n / max(1, partitions)))
    if budget_bytes is None or budget_bytes <= 0:
        return base
    sample = dataset.head(min(base, 32))
    if not sample:
        return base
    per_record = max(1, dataset_bytes(sample) // len(sample))
    if base * per_record <= 2 * budget_bytes:
        return base
    return max(1, budget_bytes // per_record)
