"""Planner-priced admission control for concurrent job submissions.

A resident daemon cannot just run everything it is handed: one 10 GB
job next to thirty 10 MB jobs either thrashes the box or starves the
small jobs.  Admission control prices every submission *before* it
runs, with the same §5 sizeof machinery the execution planner uses for
its spill decision (:func:`repro.planner.planner.estimate_input_bytes`):

* the **footprint** of a job is its estimated input bytes times a
  shuffle-residency factor — input records plus the shuffled pairs both
  live in memory at the reduce barrier;
* a job submitted with a ``memory_budget`` is priced at its budget
  instead: the spill engine keeps residency O(budget) regardless of
  input size — this is what makes per-job budget isolation *mean*
  something at admission time;
* jobs whose footprint fits the box capacity run **concurrently**,
  sharing a byte ledger; a job that would overrun the box (or whose
  size is unknowable and unbudgeted) runs **exclusively** — admission
  drains running jobs first and blocks new ones until it finishes.

Every decision is recorded: mode, footprint, capacity and queueing time
on the job's ``JobResult.admission``, and why — the footprint's pricing
(``REP411``), the mode (``REP412``), a wait (``REP413``) — as ``info``
diagnostics on its ``JobResult.diagnostics``, extending the planner's
evidence-trail discipline to the serving layer.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from ..diagnostics import Diagnostic, make as make_diagnostic
from ..engine.sizes import physical_memory_bytes
from ..engine.source import Dataset
from ..options import ExecOptions
from ..planner.planner import estimate_input_bytes


def default_capacity_bytes() -> int:
    """Default box capacity: half of physical memory.

    Half, not all: the compiled programs, the registry, the summary
    cache, and the interpreter's own working set live in the same
    process, and an estimator that *under*-prices a job by 2× should
    still not take the box down.
    """
    return physical_memory_bytes() // 2


#: Residency multiplier over the raw input estimate: the reduce barrier
#: holds the scanned records and the shuffled pairs simultaneously.
SHUFFLE_RESIDENCY_FACTOR = 2.0


@dataclass
class AdmissionDecision:
    """One admitted job's pricing and scheduling outcome."""

    mode: str  # "concurrent" | "exclusive"
    footprint_bytes: Optional[int]
    capacity_bytes: int
    queued_seconds: float = 0.0
    #: The pricing, mode and queueing decisions (``REP411``–``REP413``),
    #: in the order they were made; the session puts them on the job's
    #: ``JobResult.diagnostics``.
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "footprint_bytes": self.footprint_bytes,
            "capacity_bytes": self.capacity_bytes,
            "queued_seconds": round(self.queued_seconds, 6),
        }


class AdmissionController:
    """Prices jobs and schedules their admission onto one box.

    ``capacity_bytes`` is the concurrent-resident budget;
    ``exclusive_fraction`` is the share of it one job may claim before
    it is classified exclusive and serialized.  The controller is a
    condition-variable ledger, not a queue: worker threads call
    :meth:`admit` (which blocks until the job may start) and
    :meth:`release` when done.  A waiting exclusive job gates new
    concurrent admissions, so a stream of small jobs cannot starve a
    big one forever.
    """

    def __init__(
        self,
        capacity_bytes: Optional[int] = None,
        exclusive_fraction: float = 0.5,
    ) -> None:
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if not 0.0 < exclusive_fraction <= 1.0:
            raise ValueError("exclusive_fraction must be in (0, 1]")
        self.capacity_bytes = (
            capacity_bytes
            if capacity_bytes is not None
            else default_capacity_bytes()
        )
        self.exclusive_fraction = exclusive_fraction
        self._cv = threading.Condition()
        self._resident_bytes = 0
        self._running = 0
        self._exclusive_running = False
        self._exclusive_waiting = 0
        # Trajectory counters for /health and the serve benchmarks.
        self.admitted = {"concurrent": 0, "exclusive": 0}

    # ------------------------------------------------------------------
    # Pricing

    def price(
        self,
        inputs: dict[str, Any],
        options: Optional[ExecOptions] = None,
    ) -> tuple[Optional[int], Diagnostic]:
        """Estimate a job's resident footprint in bytes.

        Returns ``(footprint, priced)``, ``priced`` the pricing's
        ``REP411`` diagnostic; ``footprint`` is ``None`` when the size
        is unknowable (an unbudgeted streaming source), which admission
        treats as "assume the worst" — the planner's own rule for
        unknown-length inputs.
        """
        total = 0
        unknown: list[str] = []
        for name, value in inputs.items():
            if not isinstance(value, (Dataset, list, tuple)):
                continue  # scalars are noise next to the datasets
            # Priced in place: the estimate reads a length and a head sample.
            estimate = estimate_input_bytes(value)
            if estimate is None:
                unknown.append(name)
            else:
                total += estimate

        budget = options.memory_budget if options is not None else None
        if budget is not None:
            # The spill engine bounds residency near the budget no matter
            # how large the input is; price the job at its budget (with
            # the same shuffle-residency factor) instead of its data.
            footprint: Optional[int] = int(budget * SHUFFLE_RESIDENCY_FACTOR)
            note = (
                f"budgeted job: priced at memory_budget {budget} B × "
                f"{SHUFFLE_RESIDENCY_FACTOR} (spill keeps residency "
                "O(budget); input estimate "
                f"{'unknown' if unknown else f'{total} B'})"
            )
        elif unknown:
            footprint = None
            note = (
                f"unknown-length streaming input(s) {sorted(unknown)} with "
                "no memory budget: footprint unknowable, assuming the worst"
            )
        else:
            footprint = int(total * SHUFFLE_RESIDENCY_FACTOR)
            note = (
                f"estimated inputs {total} B × {SHUFFLE_RESIDENCY_FACTOR} "
                "shuffle residency (§5 sizeof-sample estimate)"
            )
        return footprint, make_diagnostic("REP411", note)

    # ------------------------------------------------------------------
    # Scheduling

    def admit(
        self,
        inputs: dict[str, Any],
        options: Optional[ExecOptions] = None,
    ) -> AdmissionDecision:
        """Price the job and block until it may start."""
        footprint, priced = self.price(inputs, options)
        return self.admit_footprint(footprint, priced)

    def admit_footprint(
        self,
        footprint: Optional[int],
        priced: Optional[Diagnostic] = None,
    ) -> AdmissionDecision:
        """Admission with an already-priced footprint (unit-test seam);
        ``priced`` is the pricing's diagnostic, when there was one."""
        threshold = int(self.capacity_bytes * self.exclusive_fraction)
        exclusive = footprint is None or footprint > threshold
        if exclusive:
            note = (
                "exclusive: footprint "
                + ("unknown" if footprint is None else f"{footprint} B")
                + f" exceeds {threshold} B "
                f"({self.exclusive_fraction:.0%} of capacity "
                f"{self.capacity_bytes} B) — serialized against all jobs"
            )
        else:
            note = (
                f"concurrent: footprint {footprint} B fits capacity "
                f"{self.capacity_bytes} B"
            )
        decision = AdmissionDecision(
            mode="exclusive" if exclusive else "concurrent",
            footprint_bytes=footprint,
            capacity_bytes=self.capacity_bytes,
            diagnostics=[] if priced is None else [priced],
        )
        decision.diagnostics.append(make_diagnostic("REP412", note))

        def may_start() -> bool:
            if exclusive:
                return not self._exclusive_running and self._running == 0
            # An already-admitted ledger drains before the next
            # over-capacity concurrent job starts (running == 0 keeps a
            # single job larger than the free ledger from deadlocking
            # itself), and a *waiting* exclusive job gates newcomers.
            return (
                not self._exclusive_running
                and self._exclusive_waiting == 0
                and (
                    self._resident_bytes + footprint <= self.capacity_bytes
                    or self._running == 0
                )
            )

        started = time.perf_counter()
        with self._cv:
            # Whether the job waits is decided here, under the lock — not
            # by how long taking the lock and pricing took on a busy host.
            waited = not may_start()
            if waited and exclusive:
                self._exclusive_waiting += 1
                try:
                    self._cv.wait_for(may_start)
                finally:
                    self._exclusive_waiting -= 1
            elif waited:
                self._cv.wait_for(may_start)
            if exclusive:
                self._exclusive_running = True
            else:
                self._resident_bytes += footprint
            self._running += 1
            self.admitted[decision.mode] += 1
        decision.queued_seconds = time.perf_counter() - started
        if waited:
            note = f"queued {decision.queued_seconds:.3f}s for admission"
            decision.diagnostics.append(make_diagnostic("REP413", note))
        return decision

    def release(self, decision: AdmissionDecision) -> None:
        """Return an admitted job's claim to the ledger."""
        with self._cv:
            self._running -= 1
            if decision.mode == "exclusive":
                self._exclusive_running = False
            elif decision.footprint_bytes is not None:
                self._resident_bytes -= decision.footprint_bytes
            self._cv.notify_all()

    def info(self) -> dict:
        with self._cv:
            return {
                "capacity_bytes": self.capacity_bytes,
                "resident_bytes": self._resident_bytes,
                "running": self._running,
                "exclusive_running": self._exclusive_running,
                "admitted": dict(self.admitted),
            }
