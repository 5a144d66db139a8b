"""The persistent program registry: compile once, serve forever.

A resident daemon's compile path must be idempotent: users registering
the same source text a thousand times should pay for CEGIS exactly
once.  The registry provides two tiers of that guarantee:

* **process tier** — programs are keyed by a content digest of
  ``(source, function, search-config)``; re-registering a known key
  returns the live entry without touching the compiler.  The framework
  a job runs on is no part of the key: it is chosen per job
  (``ExecOptions.plan``), so one entry serves every framework;
* **disk tier** — compilation always runs against a shared
  :class:`~repro.pipeline.cache.SummaryCache` (optionally disk-backed
  via ``cache_dir``), so even a *restarted* daemon re-registers warm:
  every fragment's summaries come back from the content-addressed
  cache and the search reports ``candidates_checked == 0``.

Entries also carry the per-program execution lock the session layer
uses.  A run keeps nothing of its own on the
:class:`~repro.codegen.glue.AdaptiveProgram` (the monitor returns its
choice, the report comes back on the returned ``JobResult``), but the
program still builds some state lazily on first use — each
implementation's compiled sampler and kernels, the execution planner —
so two jobs of the *same* program serialize on the entry lock while
jobs of different programs run fully concurrently.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from ..compiler import CasperCompiler, CompilationResult
from ..errors import ServeError
from ..lang.parser import parse_program
from ..pipeline.cache import SummaryCache, search_config_key
from ..synthesis.search import SearchConfig


def program_key(
    source: str,
    function: str,
    search_config: SearchConfig,
) -> str:
    """Content digest identifying one registered program.

    Textual, deliberately: alpha-equivalent sources get *different*
    program ids (each is its own registration) but still share verified
    summaries through the fragment-fingerprint cache underneath, so the
    second registration is warm even though its id is new.
    """
    digest = hashlib.sha256()
    digest.update(source.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(function.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(search_config_key(search_config).encode("utf-8"))
    return f"prog-{digest.hexdigest()[:16]}"


@dataclass
class RegisteredProgram:
    """One program resident in the registry."""

    program_id: str
    source: str
    function: str
    compilation: CompilationResult
    #: Whether the *latest* registration ran no summary search — True
    #: for a repeat register() and for a cold register() whose searched
    #: fragments were all answered by the (disk) summary cache, with
    #: summaries or with a remembered exhausted verdict.  A search that
    #: ran and checked zero candidates is still a search.
    warm: bool = False
    #: CEGIS candidates checked by the latest registration (0 when warm).
    candidates_checked: int = 0
    #: Fragments served from the summary cache at compile time.
    cache_hits: int = 0
    compile_seconds: float = 0.0
    registered_at: float = field(default_factory=time.time)
    registrations: int = 1
    #: Completed job executions of this program.
    runs: int = 0
    #: Serializes executions of this program: it guards what the adaptive
    #: program builds lazily (samplers, kernels, planner).
    lock: threading.RLock = field(default_factory=threading.RLock, repr=False)

    @property
    def translated(self) -> int:
        return self.compilation.translated

    @property
    def fragments(self) -> int:
        return self.compilation.identified

    def info(self) -> dict:
        """JSON-friendly registration facts (the daemon's wire answer)."""
        return {
            "program_id": self.program_id,
            "function": self.function,
            "fragments": self.fragments,
            "translated": self.translated,
            "warm": self.warm,
            "candidates_checked": self.candidates_checked,
            "cache_hits": self.cache_hits,
            "compile_seconds": round(self.compile_seconds, 6),
            "registrations": self.registrations,
            "runs": self.runs,
        }


class ProgramRegistry:
    """Thread-safe registry of compiled programs over a shared cache."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        search_config: Optional[SearchConfig] = None,
    ) -> None:
        self.search_config = search_config or SearchConfig()
        self.cache = SummaryCache(cache_dir=cache_dir)
        self._compiler = CasperCompiler(
            search_config=self.search_config, cache=self.cache
        )
        self._programs: dict[str, RegisteredProgram] = {}
        self._adopted: dict[int, RegisteredProgram] = {}
        self._lock = threading.Lock()
        self._adhoc_counter = 0

    # ------------------------------------------------------------------

    def register(
        self, source: str, function: Optional[str] = None
    ) -> RegisteredProgram:
        """Compile-or-recall: the registry's whole point.

        A repeat registration of the same ``(source, function)`` under
        the same configuration returns the resident entry with
        ``warm=True`` and ``candidates_checked == 0`` — no parsing, no
        synthesis, no verification.  A cold registration compiles
        through the shared summary cache, so with a disk tier even a
        fresh process usually reports zero candidates checked.
        """
        function = self._resolve_function(source, function)
        key = program_key(source, function, self.search_config)
        with self._lock:
            entry = self._programs.get(key)
            if entry is not None:
                entry.registrations += 1
                entry.warm = True
                entry.candidates_checked = 0
                entry.compile_seconds = 0.0
                return entry
        started = time.perf_counter()
        compilation = self._compiler.translate_source(source, function)
        elapsed = time.perf_counter() - started
        entry = RegisteredProgram(
            program_id=key,
            source=source,
            function=function,
            compilation=compilation,
            warm=(compilation.searches_run == 0),
            candidates_checked=compilation.candidates_checked,
            cache_hits=compilation.cache_hits,
            compile_seconds=elapsed,
        )
        with self._lock:
            # A concurrent register() of the same source may have won the
            # race; keep the resident entry so per-program locks stay
            # unique per program id.
            existing = self._programs.get(key)
            if existing is not None:
                existing.registrations += 1
                existing.warm = True
                existing.candidates_checked = 0
                return existing
            self._programs[key] = entry
        return entry

    def adopt(self, compilation: CompilationResult) -> RegisteredProgram:
        """Wrap an already-compiled result (in-process submissions).

        Keyed by object identity: submitting the same
        :class:`CompilationResult` twice reuses one entry, so its
        execution lock really serializes that program's jobs.
        """
        with self._lock:
            entry = self._adopted.get(id(compilation))
            if entry is not None:
                return entry
            self._adhoc_counter += 1
            entry = RegisteredProgram(
                program_id=f"prog-adhoc-{self._adhoc_counter}",
                source="",
                function=compilation.function,
                compilation=compilation,
                warm=False,
                candidates_checked=compilation.candidates_checked,
                cache_hits=compilation.cache_hits,
            )
            self._adopted[id(compilation)] = entry
            self._programs[entry.program_id] = entry
            return entry

    def get(self, program_id: str) -> RegisteredProgram:
        with self._lock:
            entry = self._programs.get(program_id)
        if entry is None:
            raise ServeError(
                f"unknown program {program_id!r}; registered: "
                f"{sorted(self._programs) or '(none)'}"
            )
        return entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._programs)

    def info(self) -> dict:
        """Registry-wide stats (the daemon's /health payload)."""
        with self._lock:
            programs = list(self._programs.values())
        return {
            "programs": len(programs),
            "runs": sum(p.runs for p in programs),
            "registrations": sum(p.registrations for p in programs),
            "cache": self.cache.stats.as_dict(),
        }

    # ------------------------------------------------------------------

    @staticmethod
    def _resolve_function(source: str, function: Optional[str]) -> str:
        if function is not None:
            return function
        program = parse_program(source)
        if len(program.functions) != 1:
            raise ServeError("source defines multiple functions; name one explicitly")
        return program.functions[0].name
