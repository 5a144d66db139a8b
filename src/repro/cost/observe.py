"""Observation store: measured execution statistics fed back into plans.

The §5 planner prices every decision from one-shot sizeof samples and
static Eqn-4 estimates, and that can be badly wrong (BENCH_pr5: the
budget rule forced a reduce-side join that ran 6.6× slower than
broadcast; unknown-length streams pessimistically "assume large").
This module closes the MANIMAL-style feedback loop: after a planned run
the engine's measured statistics — per-stage cardinalities, observed
key-distinctness ratios, join selectivities, exact input bytes, spill
peaks — are *harvested* into an :class:`Observation` keyed by
``(fragment fingerprint, dataset fingerprint)`` and stored.  The next
planned run of the same fragment over the same data resolves its
estimates against the observation instead of the sample, and the
:class:`~repro.planner.plan.PlanReport` records the provenance of every
estimate it used (static vs observed, with the static estimate's error
against the measured value).

Persistence goes through the same disk tier as the summary cache
(:mod:`repro.pipeline.diskio`): one JSON file per key, schema-versioned
via ``_OBS_FORMAT``, written atomically so concurrent writers race
benignly.  A key's file is rewritten only when a run's evidence differs
from what the store last wrote there (see
:meth:`ObservationStore.record`), so a steady-state re-run does no disk
I/O.  A file that fails to load —
truncated write, corruption, format from a different schema version —
is a *loud* miss: the lookup returns why, and the planner makes it the
job's ``REP406`` decision before falling back to static estimates.
Correctness never depends on the store; only plan quality does.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from operator import attrgetter
from typing import Any, Optional

from ..engine.metrics import JobMetrics
from ..engine.sizes import dataset_bytes
from ..pipeline.diskio import (
    atomic_write_json,
    load_json_entry,
    safe_filename,
    sweep_stale_tmp,
)

__all__ = [
    "Observation",
    "ObservationStore",
    "dataset_fingerprint",
    "fragment_observation_key",
    "harvest_observation",
]

#: Schema version of stored observations; files carrying any other
#: version are rejected loudly (the miss reason names both versions).
_OBS_FORMAT = 1

#: Records sampled per input when fingerprinting a dataset.
_FINGERPRINT_SAMPLE = 8


# ----------------------------------------------------------------------
# Keys


def _digest_parts(parts: list[str]) -> str:
    return hashlib.sha256("\x1e".join(parts).encode("utf-8")).hexdigest()[:20]


def _value_signature(value: Any) -> str:
    """A cheap, deterministic signature of one input value.

    Collections contribute their length plus a bounded head/tail record
    sample; a :class:`~repro.engine.source.Dataset` contributes its
    class, declared length, and a bounded head sample (no full pass).
    The signature changes whenever the data the planner would price
    changes, which is exactly the freshness test: an observation is
    *fresh* iff the dataset fingerprint still matches.
    """
    from ..engine.source import Dataset

    def reprs(records: list) -> str:
        return "|".join(repr(r)[:120] for r in records)

    if isinstance(value, Dataset):
        head = value.head(_FINGERPRINT_SAMPLE)
        return (
            f"dataset:{type(value).__name__}:{value.known_length}:"
            f"{len(head)}:{reprs(head)}"
        )
    if isinstance(value, (list, tuple)):
        return (
            f"seq:{len(value)}:{reprs(value[:_FINGERPRINT_SAMPLE])}:"
            f"{reprs(value[-_FINGERPRINT_SAMPLE:])}"
        )
    if isinstance(value, (set, frozenset)):
        try:
            head = sorted(value, key=repr)[:_FINGERPRINT_SAMPLE]
        except TypeError:
            head = list(value)[:_FINGERPRINT_SAMPLE]
        return f"set:{len(value)}:{reprs(head)}"
    if isinstance(value, dict):
        items = list(value.items())[:_FINGERPRINT_SAMPLE]
        return f"dict:{len(value)}:{reprs(items)}"
    return f"scalar:{repr(value)[:200]}"


def dataset_fingerprint(inputs: dict[str, Any]) -> str:
    """Content key of one job's inputs, stable across runs."""
    parts = [
        f"{name}={_value_signature(inputs[name])}" for name in sorted(inputs)
    ]
    return _digest_parts(parts)


def fragment_observation_key(analysis: Any, summary: Any = None) -> str:
    """Content key of a compiled fragment.

    Prefers the alpha-renaming fingerprint the summary cache keys by;
    fragments that fingerprinting declines (`digest is None`) fall back
    to a digest of the verified summary itself, so every program gets a
    stable key.
    """
    from ..lang.analysis.fragments import fingerprint_fragment

    try:
        fingerprint = fingerprint_fragment(analysis)
        if fingerprint.digest is not None:
            return fingerprint.digest[:20]
    except Exception:
        pass
    if summary is not None:
        try:
            from ..ir.nodes import summary_to_data

            import json

            rendered = json.dumps(
                summary_to_data(summary), sort_keys=True, default=repr
            )
            return _digest_parts(["summary", rendered])
        except Exception:
            pass
    return _digest_parts(["repr", repr(analysis)[:2000]])


# ----------------------------------------------------------------------
# Observations


@dataclass
class Observation:
    """Measured statistics of one (fragment, dataset) execution."""

    fragment_key: str
    dataset_key: str
    #: Exact record count of the scanned input (what the sample guessed).
    input_records: Optional[int] = None
    #: Estimated serialized bytes of the scanned input, from the run's
    #: own accounting (exact count × sampled per-record size).
    input_bytes: Optional[int] = None
    output_records: Optional[int] = None
    wall_seconds: Optional[float] = None
    backend: Optional[str] = None
    partitions: Optional[int] = None
    #: Per-stage observed cardinalities from the engine's metrics:
    #: ``[{"name", "records_in", "records_out", "bytes_out",
    #: "bytes_shuffled"}, ...]`` in stage order.
    stages: list = field(default_factory=list)
    #: Observed distinct-key ratio (groups out / values in) per shuffle
    #: stage name — the measured version of the sampled key ratio the
    #: combiner decision uses.
    key_ratios: dict = field(default_factory=dict)
    #: Join evidence per level: relation, strategy actually run, exact
    #: small-side records/bytes, as recorded in the plan report.
    join_levels: list = field(default_factory=list)
    #: Observed selectivity of the first join level — joined pairs over
    #: (left × right) — the measured replacement for Eqn 4's default.
    join_selectivity: Optional[float] = None
    #: Peak resident bytes of a spilled run (the engine's sizeof proxy).
    peak_resident_bytes: Optional[int] = None
    spilled: bool = False
    #: How many runs have been folded into this observation.
    runs: int = 1

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Observation":
        names = {f.name for f in cls.__dataclass_fields__.values()}
        kwargs = {k: v for k, v in data.items() if k in names}
        if "fragment_key" not in kwargs or "dataset_key" not in kwargs:
            raise ValueError("observation entry missing its keys")
        return cls(**kwargs)


#: Every field of an observation except how many runs it folds and how
#: long the last one took: what decides whether the disk tier is stale.
_evidence = attrgetter(
    *(
        name
        for name in Observation.__dataclass_fields__
        if name not in ("runs", "wall_seconds")
    )
)


def _stage_rows(metrics: Optional[JobMetrics]) -> list[dict]:
    rows = []
    for stage in metrics.stages if metrics is not None else ():
        rows.append(
            {
                "name": stage.name,
                "records_in": stage.records_in,
                "records_out": stage.records_out,
                "bytes_out": stage.bytes_out,
                "bytes_shuffled": stage.bytes_shuffled,
            }
        )
    return rows


def _derive_join_selectivity(
    stages: list[dict], join_levels: list[dict]
) -> Optional[float]:
    """Observed joined/(left×right) for single-level joins, else None."""
    if len(join_levels) != 1:
        return None
    level = join_levels[0]
    right = level.get("right_records") or 0
    if not right:
        return None
    by_name = {row["name"]: row for row in stages}
    if level.get("strategy") == "reduce_side":
        # Steps: tagged map ("map.0"), JoinFold shuffle, JoinExpand ("map.2").
        tagged, expand = by_name.get("map.0"), by_name.get("map.2")
        if tagged is None or expand is None:
            return None
        left = max(0, tagged["records_in"] - right)
        joined = expand["records_out"]
    else:
        # Steps: left map ("map.0"), BroadcastLookup probe ("map.1").
        probe, scan = by_name.get("map.1"), by_name.get("map.0")
        if probe is None or scan is None:
            return None
        left = scan["records_in"]
        joined = probe["records_out"]
    denominator = left * right
    if not denominator:
        return None
    return joined / denominator


def harvest_observation(
    fragment_key: str,
    dataset_key: str,
    report: Any,
    metrics: Optional[JobMetrics],
    records: Any = None,
) -> Observation:
    """Build an :class:`Observation` from one planned run's evidence.

    ``report`` is the run's :class:`~repro.planner.plan.PlanReport`,
    ``metrics`` its :class:`~repro.engine.metrics.JobMetrics`;
    ``records`` (when given) supplies the exact input count and a
    sampled per-record size for inputs whose length the planner could
    not know up front.
    """
    stages = _stage_rows(metrics)

    input_records = None
    input_bytes = None
    if records is not None:
        from ..engine.source import Dataset

        if isinstance(records, Dataset):
            input_records = records.known_length
            input_bytes = records.estimated_bytes()
        else:
            input_records = len(records)
            head = records[:64]
            if head:
                per_record = dataset_bytes(head) / len(head)
                input_bytes = int(per_record * input_records)
    if input_records is None:
        for row in stages:
            if row["name"] == "scan":
                input_records = row["records_in"]
                break
    if input_records is None and getattr(report, "input_records", 0):
        input_records = report.input_records
    if input_bytes is None:
        input_bytes = getattr(report, "estimated_input_bytes", None)

    key_ratios = {}
    for row in stages:
        if row["name"].startswith("shuffle.") and row["records_in"]:
            key_ratios[row["name"]] = row["records_out"] / row["records_in"]

    join_levels = []
    join = getattr(report, "join", None) or {}
    for level in join.get("levels", []) or []:
        join_levels.append(
            {
                "relation": level.get("relation"),
                "strategy": level.get("strategy"),
                "right_records": level.get("right_records"),
                "right_bytes": level.get("right_bytes"),
            }
        )

    spill_stats = getattr(report, "spill_stats", None) or {}
    output_records = None
    if stages:
        output_records = stages[-1]["records_out"]

    return Observation(
        fragment_key=fragment_key,
        dataset_key=dataset_key,
        input_records=input_records,
        input_bytes=input_bytes,
        output_records=output_records,
        wall_seconds=getattr(report, "wall_seconds", None),
        backend=getattr(report, "backend_used", None)
        or getattr(getattr(report, "plan", None), "backend", None),
        partitions=getattr(getattr(report, "plan", None), "partitions", None),
        stages=stages,
        key_ratios=key_ratios,
        join_levels=join_levels,
        join_selectivity=_derive_join_selectivity(stages, join_levels),
        peak_resident_bytes=spill_stats.get("peak_resident_bytes"),
        spilled=bool(spill_stats),
    )


# ----------------------------------------------------------------------
# The store


class ObservationStore:
    """Thread-safe LRU of observations, optionally disk-backed.

    ``lookup`` misses come in two flavours: *silent* (nothing was ever
    recorded for the key) and *loud* (a disk entry exists but failed to
    load — corrupt JSON, truncated write, schema-version mismatch).  A
    loud miss returns its reason beside the None, and a failed disk
    write is returned by ``record``: the store keeps no note, so jobs
    sharing it cannot read each other's, and the job that met the
    failure reports it (``REP406`` / ``REP311``), never silently.
    """

    def __init__(self, cache_dir: Optional[str] = None, capacity: int = 256):
        self.cache_dir = cache_dir
        self.capacity = capacity
        self._entries: "OrderedDict[tuple[str, str], Observation]" = OrderedDict()
        self._lock = threading.Lock()
        #: The evidence each key's disk file holds, as far as this store
        #: knows it (oldest first, at most ``capacity`` keys).
        self._written: dict[tuple[str, str], tuple] = {}
        #: Per key being written: [writes in flight, did two overlap].
        self._writing: dict[tuple[str, str], list] = {}
        if cache_dir is not None:
            sweep_stale_tmp(cache_dir)

    # -- paths ----------------------------------------------------------

    def _disk_path(self, fragment_key: str, dataset_key: str) -> Optional[str]:
        if self.cache_dir is None:
            return None
        name = safe_filename(f"obs_{fragment_key}_{dataset_key}")
        return os.path.join(self.cache_dir, f"{name}.json")

    # -- lookup / record ------------------------------------------------

    def lookup(
        self, fragment_key: str, dataset_key: str
    ) -> tuple[Optional[Observation], Optional[str]]:
        """``(observation, note)`` for the key: the stored observation or
        None, and why a loud miss missed (None otherwise; see class
        docs)."""
        key = (fragment_key, dataset_key)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                return cached, None
        path = self._disk_path(fragment_key, dataset_key)
        if path is None:
            return None, None
        entry, error = load_json_entry(path, _OBS_FORMAT)
        if error is not None:
            return None, f"observation store: {error} at {os.path.basename(path)}"
        if entry is None:
            return None, None
        try:
            observation = Observation.from_dict(entry.get("observation") or {})
        except (TypeError, ValueError) as exc:
            return None, f"observation store: malformed entry ({exc})"
        with self._lock:
            self._insert(key, observation)
        return observation, None

    def record(self, observation: Observation) -> Optional[str]:
        """Fold one run's observation into the store (and disk tier);
        returns why the disk write failed, or None.

        The in-memory entry is always replaced.  The disk file is
        rewritten only when the evidence (every field but ``runs`` and
        ``wall_seconds``) differs from what the file holds, so its
        ``runs`` and ``wall_seconds`` are those of its last write.  The
        store knows what the file holds after a write that succeeded and
        overlapped no other write of the key; otherwise (a failed write,
        two racing writes whose last ``os.replace`` is unknown) the next
        record writes again.
        """
        key = (observation.fragment_key, observation.dataset_key)
        path = self._disk_path(*key)
        with self._lock:
            previous = self._entries.get(key)
            if previous is not None:
                observation.runs = previous.runs + 1
            self._insert(key, observation)
            if path is None:
                return None
            evidence = _evidence(observation)
            if self._written.get(key) == evidence:
                return None
            self._written.pop(key, None)  # the file is about to change
            writing = self._writing.setdefault(key, [0, False])
            writing[1] = writing[1] or writing[0] > 0
            writing[0] += 1
        ok = atomic_write_json(
            path, {"format": _OBS_FORMAT, "observation": observation.as_dict()}
        )
        with self._lock:
            writing[0] -= 1
            if writing[0] == 0:
                del self._writing[key]
                if ok and not writing[1]:
                    self._written[key] = evidence
                    if len(self._written) > self.capacity:
                        del self._written[next(iter(self._written))]
        if ok:
            return None
        return (
            "observation store: write failed at "
            f"{os.path.basename(path)} — observation kept in memory only"
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- internals ------------------------------------------------------

    def _insert(self, key: tuple[str, str], observation: Observation) -> None:
        """Caller holds the lock."""
        self._entries[key] = observation
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
