"""Content-addressed summary cache: fingerprints → verified summaries.

Recompiling an identical — or merely alpha-equivalent — code fragment is
pure waste: the CEGIS search and theorem-prover calls dominate compile
time (paper Table 2) yet deterministically reproduce the same verified
summaries.  This cache keys serialized :class:`VerifiedSummary` lists by
the fragment fingerprint of :func:`repro.lang.analysis.fragments
.fingerprint_fragment` plus the search-configuration knobs that affect
the result, so a warm hit skips synthesis and verification entirely.

Entries are stored in *canonical* variable space (the fingerprint's alpha
renaming applied), and renamed back to the requesting fragment's own
variable names on a hit — two workloads that differ only in identifier
choice share cache entries.

Three kinds of entry share the tiers: verified summaries (keyed by
fingerprint + search configuration), ``cex:`` counterexample states
(fingerprint only) and ``neg:`` exhausted-search verdicts (fingerprint +
search configuration + :func:`search_space_tag`), so a fragment the
grammar cannot express is searched once, not on every compile.

The in-memory tier is a thread-safe LRU; an optional on-disk tier stores
one JSON file per entry under ``cache_dir`` so caches survive processes.
Serialization failures (a summary carrying a non-JSON value) silently
decline to cache — correctness never depends on the cache.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Any, Optional

from ..errors import ReproError
from ..ir.nodes import rename_summary, summary_from_data, summary_to_data
from ..lang.analysis.fragments import FragmentFingerprint
from ..lang.values import Instance
from ..synthesis.search import SearchConfig, SearchResult, VerifiedSummary
from ..verification.bounded import ProgramState
from ..verification.prover import proof_from_data, proof_to_data
from .diskio import (
    atomic_write_json,
    load_json_entry,
    safe_filename,
    sweep_stale_tmp,
)

#: Disk-format version; a mismatching file is dropped like a corrupt one.
_DISK_FORMAT = 1

#: Most counterexample states persisted per fragment fingerprint.
_MAX_COUNTEREXAMPLES = 16


def _state_value_to_data(value: Any) -> Any:
    """JSON-encode one program-state value (tagged where JSON is lossy)."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return {"__t__": "float", "v": repr(value)}
    if isinstance(value, Instance):
        return {
            "__t__": "instance",
            "class": value.class_name,
            "fields": {
                name: _state_value_to_data(field_value)
                for name, field_value in value.fields.items()
            },
        }
    if isinstance(value, list):
        return [_state_value_to_data(item) for item in value]
    if isinstance(value, tuple):
        return {"__t__": "tuple", "v": [_state_value_to_data(i) for i in value]}
    if isinstance(value, (set, frozenset)):
        return {"__t__": "set", "v": [_state_value_to_data(i) for i in value]}
    if isinstance(value, dict):
        return {
            "__t__": "dict",
            "v": [
                [_state_value_to_data(k), _state_value_to_data(v)]
                for k, v in value.items()
            ],
        }
    raise ReproError(f"unserializable program-state value: {type(value).__name__}")


def _state_value_from_data(data: Any) -> Any:
    if isinstance(data, list):
        return [_state_value_from_data(item) for item in data]
    if isinstance(data, dict):
        tag = data.get("__t__")
        if tag == "float":
            return float(data["v"])
        if tag == "instance":
            return Instance(
                data["class"],
                {
                    name: _state_value_from_data(field_value)
                    for name, field_value in data["fields"].items()
                },
            )
        if tag == "tuple":
            return tuple(_state_value_from_data(i) for i in data["v"])
        if tag == "set":
            return set(_state_value_from_data(i) for i in data["v"])
        if tag == "dict":
            return {
                _state_value_from_data(k): _state_value_from_data(v)
                for k, v in data["v"]
            }
        raise ReproError(f"unknown state-value tag {tag!r}")
    return data


def search_config_key(config: SearchConfig) -> str:
    """The part of the cache key contributed by search configuration.

    Every knob that changes *which* summaries come out is included —
    that's the grammar/acceptance switches plus the verification
    strength: with ``accept_bounded_only`` a candidate whose proof is
    ``unknown`` is admitted on bounded/extended-domain evidence alone, so
    weaker domains genuinely admit different summaries.  Only the search
    timeout is excluded: a timed-out result is never cached, and neither
    verified summaries nor an exhausted class list depend on it.
    """
    bc = config.bounded_config
    strength = "|".join(
        str(part)
        for part in (
            config.extended_states,
            bc.max_dataset_size,
            bc.int_range,
            bc.float_values,
            bc.string_pool,
            bc.date_range,
            bc.seed,
        )
    )
    strength_tag = hashlib.sha256(strength.encode("utf-8")).hexdigest()[:12]
    return (
        f"ig={int(config.incremental_grammar)}"
        f",max={config.max_summaries_per_class}"
        f",abo={int(config.accept_bounded_only)}"
        f",ex={int(config.exhaustive)}"
        f",vs={strength_tag}"
    )


#: Packages whose source defines the search space and its acceptance:
#: the grammar and enumeration, the IR and its evaluator, the fragment
#: analysis and reference interpreter, the bounded checker and prover.
_SEARCH_SPACE_PACKAGES = (
    "repro.synthesis",
    "repro.ir",
    "repro.lang",
    "repro.verification",
)


@functools.cache
def search_space_tag() -> str:
    """Digest of the source that decides what a search can find.

    Part of every ``neg:`` key.  "No summary exists" is a statement about
    the grammar and the verifier, not only about the fragment, so an
    exhausted verdict must die with the code that produced it; hashing the
    source bytes means a grammar or verifier edit can never be masked by
    a stale entry and nobody has to remember a version bump.  Computed on
    first use, once per process.
    """
    digest = hashlib.sha256()
    for package in _SEARCH_SPACE_PACKAGES:
        for root in importlib.import_module(package).__path__:
            for directory, subdirs, files in os.walk(root):
                subdirs.sort()
                for name in sorted(files):
                    if not name.endswith(".py"):
                        continue
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, root).encode("utf-8"))
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


@dataclass
class CacheHit:
    """A successful lookup: summaries rebound to the caller's names."""

    summaries: list[VerifiedSummary]
    final_class: Optional[str] = None
    classes_searched: int = 0


@dataclass
class ExhaustedVerdict:
    """A recalled ``neg:`` entry: the search that found nothing, in brief."""

    failure_code: str
    failure_reason: str
    classes_searched: int
    final_class: Optional[str]
    #: What the original search cost (the recall itself costs ~nothing).
    elapsed_seconds: float


@dataclass
class CacheStats:
    """``hits`` / ``misses`` / ``stores`` count verified-summary entries only."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    disk_hits: int = 0
    evictions: int = 0
    exhausted_hits: int = 0
    exhausted_stores: int = 0
    #: Entry files dropped because they would not parse or decode.
    corrupt: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass
class SummaryCache:
    """Thread-safe LRU of serialized verified summaries, optionally disk-backed."""

    capacity: int = 512
    cache_dir: Optional[str] = None
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: "OrderedDict[str, dict[str, Any]]" = field(
        default_factory=OrderedDict, repr=False
    )
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self) -> None:
        # A crash between writing `{path}.tmp.{pid}` and the os.replace
        # leaks the tmp file; left alone they accumulate forever in a
        # long-lived cache dir, so each cache open sweeps the orphans.
        if self.cache_dir is not None:
            self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> None:
        sweep_stale_tmp(self.cache_dir)

    # ------------------------------------------------------------------

    def lookup(
        self, fingerprint: FragmentFingerprint, config: SearchConfig
    ) -> Optional[CacheHit]:
        """Return cached summaries renamed to the fragment's variables."""
        if not fingerprint.cacheable:
            return None
        key = self._key(fingerprint, config)
        entry = self._fetch(key, count_disk_hit=True)
        if entry is None:
            with self._lock:
                self.stats.misses += 1
            return None
        try:
            hit = self._decode(entry, fingerprint)
        except (ReproError, KeyError, TypeError, ValueError):
            # Corrupt or stale entry: drop it (disk copy too, or every
            # future lookup would reload and re-fail it) — treat as miss.
            self._drop_corrupt(key)
            with self._lock:
                self.stats.misses += 1
            return None
        with self._lock:
            self.stats.hits += 1
        return hit

    def store(
        self,
        fingerprint: FragmentFingerprint,
        config: SearchConfig,
        summaries: list[VerifiedSummary],
        final_class: Optional[str] = None,
        classes_searched: int = 0,
    ) -> bool:
        """Serialize and cache a completed search result; False if declined."""
        if not fingerprint.cacheable or not summaries:
            return False
        try:
            entry = self._encode(
                fingerprint, summaries, final_class, classes_searched
            )
        except ReproError:
            return False  # unserializable summary — skip, never fail
        key = self._key(fingerprint, config)
        with self._lock:
            self._insert(key, entry)
            self.stats.stores += 1
        self._write_disk(key, entry)
        return True

    # -- bounded-refutation counterexamples -----------------------------
    #
    # Keyed by fragment *fingerprint only* (no config): a counterexample
    # is just a concrete input binding, valid evidence under any search
    # configuration.  Repeat CEGIS runs on near-miss fragments seed their
    # Φ example set from these, so candidates already refuted once are
    # filtered before the bounded checker ever runs.

    @staticmethod
    def _cex_key(fingerprint: FragmentFingerprint) -> str:
        return f"cex:{fingerprint.digest}"

    def lookup_counterexamples(
        self, fingerprint: FragmentFingerprint
    ) -> list[ProgramState]:
        """Cached refutation states, renamed to the fragment's variables."""
        if not fingerprint.cacheable:
            return []
        key = self._cex_key(fingerprint)
        entry = self._fetch(key)
        if entry is None:
            return []
        from_canonical = fingerprint.inverse_renaming
        states: list[ProgramState] = []
        try:
            for inputs in entry["states"]:
                states.append(
                    ProgramState(
                        {
                            from_canonical.get(name, name): _state_value_from_data(
                                value
                            )
                            for name, value in inputs.items()
                        }
                    )
                )
        except (ReproError, KeyError, TypeError, ValueError):
            self._drop_corrupt(key)
            return []
        return states

    def store_counterexamples(
        self, fingerprint: FragmentFingerprint, states: list[ProgramState]
    ) -> bool:
        """Persist refutation states (canonical names), merging and capping.

        A search hands over one state per refuted candidate — mostly the
        same few objects — so each distinct object is encoded once, at
        its first position.
        """
        if not fingerprint.cacheable or not states:
            return False
        to_canonical = fingerprint.renaming
        encoded: list[dict[str, Any]] = []
        for state in {id(state): state for state in states}.values():
            try:
                encoded.append(
                    {
                        to_canonical.get(name, name): _state_value_to_data(value)
                        for name, value in state.inputs.items()
                    }
                )
            except ReproError:
                continue  # best-effort: skip unserializable states
        if not encoded:
            return False
        key = self._cex_key(fingerprint)
        with self._lock:
            existing = self._entries.get(key)
        if existing is None:
            existing = self._load_disk(key)
        merged: list[dict[str, Any]] = list(
            existing.get("states", []) if existing else []
        )
        for item in encoded:
            if item not in merged:
                merged.append(item)
        merged = merged[-_MAX_COUNTEREXAMPLES:]
        entry = {"format": _DISK_FORMAT, "states": merged}
        with self._lock:
            self._insert(key, entry)
        self._write_disk(key, entry)
        return True

    # -- exhausted searches ----------------------------------------------
    #
    # Keyed by fingerprint, search configuration *and* the search-space
    # tag: the verdict "the class list ran out" holds for one grammar and
    # one verifier.  Only that verdict is stored — never a timeout, never
    # a fragment the bounded checker could not even build states for.

    @staticmethod
    def _neg_key(fingerprint: FragmentFingerprint, config: SearchConfig) -> str:
        return (
            f"neg:{fingerprint.digest}:{search_config_key(config)}"
            f":{search_space_tag()}"
        )

    def lookup_exhausted(
        self, fingerprint: FragmentFingerprint, config: SearchConfig
    ) -> Optional[ExhaustedVerdict]:
        """The remembered verdict of an exhausted search, if any."""
        if not fingerprint.cacheable:
            return None
        key = self._neg_key(fingerprint, config)
        entry = self._fetch(key)
        if entry is None:
            return None
        try:
            verdict = ExhaustedVerdict(
                failure_code=str(entry["failure_code"]),
                failure_reason=str(entry["failure_reason"]),
                classes_searched=int(entry["classes_searched"]),
                final_class=entry["final_class"],
                elapsed_seconds=float(entry["elapsed_seconds"]),
            )
        except (KeyError, TypeError, ValueError):
            self._drop_corrupt(key)
            return None
        with self._lock:
            self.stats.exhausted_hits += 1
        return verdict

    def store_exhausted(
        self,
        fingerprint: FragmentFingerprint,
        config: SearchConfig,
        result: SearchResult,
    ) -> bool:
        """Remember that ``result``'s search ran out of grammar classes."""
        if not fingerprint.cacheable:
            return False
        entry = {
            "format": _DISK_FORMAT,
            "failure_code": result.failure_code,
            "failure_reason": result.failure_reason,
            "classes_searched": result.classes_searched,
            "final_class": result.final_class,
            "elapsed_seconds": result.elapsed_seconds,
        }
        key = self._neg_key(fingerprint, config)
        with self._lock:
            self._insert(key, entry)
            self.stats.exhausted_stores += 1
        self._write_disk(key, entry)
        return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------

    @staticmethod
    def _key(fingerprint: FragmentFingerprint, config: SearchConfig) -> str:
        return f"{fingerprint.digest}:{search_config_key(config)}"

    def _fetch(self, key: str, count_disk_hit: bool = False) -> Optional[dict[str, Any]]:
        """One entry of any kind: memory tier first, then disk (promoted)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry
        entry = self._load_disk(key)
        if entry is not None:
            with self._lock:
                if count_disk_hit:
                    self.stats.disk_hits += 1
                self._insert(key, entry)
        return entry

    def _drop_corrupt(self, key: str) -> None:
        """Forget an entry that will not decode — disk copy too, or every
        future lookup would reload and re-fail it — and count it."""
        with self._lock:
            self._entries.pop(key, None)
            self.stats.corrupt += 1
        self._remove_disk(key)

    def _insert(self, key: str, entry: dict[str, Any]) -> None:
        """Caller holds the lock."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    @staticmethod
    def _encode(
        fingerprint: FragmentFingerprint,
        summaries: list[VerifiedSummary],
        final_class: Optional[str],
        classes_searched: int,
    ) -> dict[str, Any]:
        to_canonical = fingerprint.renaming
        return {
            "format": _DISK_FORMAT,
            "final_class": final_class,
            "classes_searched": classes_searched,
            "summaries": [
                {
                    "summary": summary_to_data(
                        rename_summary(vs.summary, to_canonical)
                    ),
                    "proof": proof_to_data(vs.proof),
                }
                for vs in summaries
            ],
        }

    @staticmethod
    def _decode(
        entry: dict[str, Any], fingerprint: FragmentFingerprint
    ) -> CacheHit:
        from_canonical = fingerprint.inverse_renaming
        summaries = [
            VerifiedSummary(
                summary=rename_summary(
                    summary_from_data(item["summary"]), from_canonical
                ),
                proof=proof_from_data(item["proof"]),
            )
            for item in entry["summaries"]
        ]
        return CacheHit(
            summaries=summaries,
            final_class=entry.get("final_class"),
            classes_searched=entry.get("classes_searched", 0),
        )

    # -- disk tier ------------------------------------------------------

    def _disk_path(self, key: str) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, f"{safe_filename(key)}.json")

    def _load_disk(self, key: str) -> Optional[dict[str, Any]]:
        path = self._disk_path(key)
        if path is None:
            return None
        entry, error = load_json_entry(path, _DISK_FORMAT)
        if error is not None:
            self._drop_corrupt(key)
        return entry

    def _write_disk(self, key: str, entry: dict[str, Any]) -> None:
        path = self._disk_path(key)
        if path is not None:
            atomic_write_json(path, entry)

    def _remove_disk(self, key: str) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        try:
            os.remove(path)
        except OSError:
            pass
