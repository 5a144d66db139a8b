"""The session façade: compile once, submit jobs, read results.

This is the redesigned front door of the repository (ROADMAP item 1).
Every layer under it *returns* what one call produced
(:class:`~repro.codegen.base.ExecutionOutcome`,
:class:`~repro.graph.executor.GraphRunResult`), so a job's evidence is
never read back from shared state.  A :class:`Session` owns the pieces
explicitly:

* a :class:`~repro.serve.registry.ProgramRegistry` (compile-or-recall
  over the summary cache's disk tier),
* an :class:`~repro.serve.admission.AdmissionController` (planner-priced
  scheduling: small jobs concurrent, box-overrunning jobs serialized),
* a worker pool executing submissions, each job returning a
  :class:`JobResult` that *carries* its plan report and admission
  decision instead of leaving them behind in shared state.

Quick start::

    import repro

    with repro.Session() as session:
        prog = session.compile(SOURCE)
        job = session.submit(prog, {"data": data, "n": len(data)},
                             repro.ExecOptions(memory_budget=1 << 20))
        result = job.result()
        result.outputs, result.plan_report, result.admission

``Session(max_workers=0)`` executes submissions inline on the caller's
thread — same API, no pool — which is what the benchmark runner uses.
:func:`repro.connect` hands back the same API shape over a daemon
socket (see :mod:`repro.serve`).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from .compiler import CompilationResult, _run_fragment, _run_program
from .cost.observe import ObservationStore
from .errors import ServeError
from .options import ExecOptions, check_options
from .serve.admission import AdmissionController
from .serve.registry import ProgramRegistry, RegisteredProgram
from .synthesis.search import SearchConfig

#: What :meth:`Session.submit` accepts as the program designator.
ProgramRef = Union[RegisteredProgram, CompilationResult, str]

#: Finished jobs a session keeps readable by id; past this the
#: oldest-finished handle is dropped (a retained ``JobResult`` is about
#: 0.25 MiB, and a resident daemon never stops submitting).
MAX_FINISHED_JOBS = 1024


@dataclass
class JobResult:
    """Everything one submitted job produced — reports included.

    The point of this type is that it is *owned by the job*: under
    concurrent submissions, ``plan_report`` and ``metrics`` here are
    those of this execution, not of whatever ran last.
    """

    job_id: str
    program_id: str
    status: str  # "ok" | "error"
    outputs: dict[str, Any] = field(default_factory=dict)
    #: The :class:`~repro.planner.dag.GraphPlanReport` of a whole-program
    #: run, the :class:`~repro.planner.plan.PlanReport` of a planned
    #: fragment run, ``None`` for unplanned fragment runs — and the
    #: report's ``summary()`` dict when fetched from a daemon.
    plan_report: Any = None
    #: Engine accounting of a fragment run
    #: (:class:`~repro.engine.metrics.JobMetrics`: simulated seconds,
    #: bytes emitted/shuffled, wall seconds) — its ``summary()`` dict
    #: when fetched from a daemon; ``None`` for whole-program runs,
    #: whose totals are on the ``GraphPlanReport``.
    metrics: Any = None
    #: The admission controller's decision for this job, as a dict
    #: (mode, footprint, capacity, queueing, reasons).
    admission: Optional[dict] = None
    error: Optional[str] = None
    wall_seconds: float = 0.0
    queued_seconds: float = 0.0
    #: Structured diagnostics for this job (:mod:`repro.diagnostics`):
    #: the compilation's REP1xx/REP2xx trail plus the execution report's
    #: REP3xx engine/planner codes.  Dicts when fetched from a daemon.
    diagnostics: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class JobHandle:
    """A submitted job: poll :meth:`done`, block on :meth:`result`."""

    def __init__(
        self,
        job_id: str,
        program_id: str,
        future: Optional[Any] = None,
        completed: Optional[JobResult] = None,
    ) -> None:
        self.job_id = job_id
        self.program_id = program_id
        self._future = future
        self._completed = completed

    def done(self) -> bool:
        if self._completed is not None:
            return True
        return self._future.done()

    def result(self, timeout: Optional[float] = None) -> JobResult:
        """The job's :class:`JobResult` (blocking until finished).

        Execution failures do not raise here: they come back as a
        ``status == "error"`` result with the exception rendered in
        ``error`` — the daemon cannot throw across a socket, and the
        in-process session matches its contract.
        """
        if self._completed is None:
            self._completed = self._future.result(timeout=timeout)
        return self._completed


class Session:
    """An in-process compile-and-serve session.

    Parameters
    ----------
    cache_dir:
        Disk tier for the summary cache.  With one, a *new* session (or
        a restarted daemon) re-registers previously-compiled sources
        warm: zero CEGIS candidates checked.
    max_workers:
        Job-execution pool size.  ``0`` executes submissions inline on
        the calling thread (no pool, no threads) — submit still returns
        a :class:`JobHandle`, already completed.
    capacity_bytes / exclusive_fraction:
        Admission-control knobs; see
        :class:`~repro.serve.admission.AdmissionController`.
    defaults:
        Session-wide :class:`ExecOptions` applied to submissions that
        pass none.
    observe:
        Accumulate observations (measured cardinalities, key ratios,
        join selectivities) across jobs, so *planned* submissions of a
        program the session has run before re-resolve their estimates
        against what actually happened — a resident service self-tunes
        run-over-run.  With a ``cache_dir`` the observation store gets a
        disk tier next to the summary cache, so tuning survives a
        restart.  ``observe=False`` keeps every run's planning
        independent.  Submissions can override per job via
        ``ExecOptions(feedback=...)``.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        search_config: Optional[SearchConfig] = None,
        backend: str = "spark",
        max_workers: int = 4,
        capacity_bytes: Optional[int] = None,
        exclusive_fraction: float = 0.5,
        compile_workers: Optional[int] = None,
        defaults: Optional[ExecOptions] = None,
        observe: bool = True,
    ) -> None:
        if max_workers < 0:
            raise ValueError("max_workers must be >= 0")
        self.observe = observe
        self.observations: Optional[ObservationStore] = (
            ObservationStore(
                cache_dir=(
                    os.path.join(cache_dir, "observations")
                    if cache_dir is not None
                    else None
                )
            )
            if observe
            else None
        )
        self.registry = ProgramRegistry(
            cache_dir=cache_dir,
            search_config=search_config,
            backend=backend,
            max_workers=compile_workers,
        )
        self.admission = AdmissionController(
            capacity_bytes=capacity_bytes,
            exclusive_fraction=exclusive_fraction,
        )
        self.defaults = defaults if defaults is not None else ExecOptions()
        self._pool = (
            ThreadPoolExecutor(
                max_workers=max_workers, thread_name_prefix="repro-job"
            )
            if max_workers > 0
            else None
        )
        self._jobs: dict[str, JobHandle] = {}
        #: Ids of finished jobs still in ``_jobs``, oldest-finished first.
        self._finished: deque[str] = deque()
        self._job_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle

    def close(self) -> None:
        """Drain the pool and refuse further submissions."""
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Compile

    def compile(self, source: str, function: Optional[str] = None) -> RegisteredProgram:
        """Register (compile-or-recall) a source text.

        Repeat registrations — and, with a ``cache_dir``, registrations
        of sources compiled by *earlier* sessions — are warm: the entry
        reports ``candidates_checked == 0`` and no synthesis runs.
        """
        return self.registry.register(source, function)

    # ------------------------------------------------------------------
    # Submit / result

    def submit(
        self,
        program: ProgramRef,
        inputs: dict[str, Any],
        options: Optional[ExecOptions] = None,
        fragment_index: Optional[int] = None,
    ) -> JobHandle:
        """Queue one job; returns immediately with a :class:`JobHandle`.

        ``program`` may be a :class:`RegisteredProgram` from
        :meth:`compile`, a ``program_id`` string, or a raw
        :class:`~repro.compiler.CompilationResult` (adopted into the
        registry on first submission).  ``options=None`` applies the
        session ``defaults``.  ``fragment_index`` runs one fragment
        through its adaptive program; the default runs the whole job
        graph.
        """
        if self._closed:
            raise ServeError("session is closed")
        options = (
            self.defaults
            if options is None
            else check_options(options, "Session.submit")
        )
        entry = self._resolve(program)
        with self._lock:
            job_id = f"job-{next(self._job_ids)}"
        submitted = time.perf_counter()
        if self._pool is None:
            result = self._execute(
                job_id, entry, inputs, options, fragment_index, submitted
            )
            handle = JobHandle(job_id, entry.program_id, completed=result)
        else:
            future = self._pool.submit(
                self._execute,
                job_id,
                entry,
                inputs,
                options,
                fragment_index,
                submitted,
            )
            handle = JobHandle(job_id, entry.program_id, future=future)
        with self._lock:
            self._jobs[job_id] = handle
        if self._pool is None:
            self._retire(job_id)
        else:
            # Runs at once when the job has already finished.
            future.add_done_callback(lambda _future: self._retire(job_id))
        return handle

    def _retire(self, job_id: str) -> None:
        """Note ``job_id`` as finished and evict past ``MAX_FINISHED_JOBS``;
        pending jobs are never in the queue, so never evicted."""
        with self._lock:
            self._finished.append(job_id)
            while len(self._finished) > MAX_FINISHED_JOBS:
                del self._jobs[self._finished.popleft()]

    def result(
        self, job: Union[str, JobHandle], timeout: Optional[float] = None
    ) -> JobResult:
        """Block for a job's :class:`JobResult` (by handle or id)."""
        if isinstance(job, JobHandle):
            return job.result(timeout=timeout)
        with self._lock:
            handle = self._jobs.get(job)
        if handle is None:
            raise ServeError(f"unknown or evicted job {job!r}")
        return handle.result(timeout=timeout)

    def run(
        self,
        program: ProgramRef,
        inputs: dict[str, Any],
        options: Optional[ExecOptions] = None,
        fragment_index: Optional[int] = None,
    ) -> JobResult:
        """Submit-and-wait convenience."""
        return self.submit(program, inputs, options, fragment_index).result()

    def info(self) -> dict:
        """Session-wide stats (registry + admission + jobs)."""
        with self._lock:
            jobs = len(self._jobs)
        return {
            "registry": self.registry.info(),
            "admission": self.admission.info(),
            "jobs": jobs,
            "inline": self._pool is None,
        }

    # ------------------------------------------------------------------
    # Execution

    def _resolve(self, program: ProgramRef) -> RegisteredProgram:
        if isinstance(program, RegisteredProgram):
            return program
        if isinstance(program, CompilationResult):
            return self.registry.adopt(program)
        if isinstance(program, str):
            return self.registry.get(program)
        raise TypeError(
            "submit() takes a RegisteredProgram, CompilationResult, or "
            f"program-id string, got {type(program).__name__}"
        )

    def _attach_observations(self, entry: RegisteredProgram) -> None:
        """Point the entry's adaptive programs at the shared store.

        Caller holds the entry lock.  The store is shared session-wide
        (observations are keyed by fragment/dataset fingerprints, so
        programs cannot read each other's entries) and
        ``feedback_default`` makes every *planned* run of this program
        consult and refresh it — unless the submission's options say
        ``feedback=False``.
        """
        for fragment in entry.compilation.fragments:
            program = getattr(fragment, "program", None)
            if program is None:
                continue
            if getattr(program, "observations", None) is not self.observations:
                program.observations = self.observations
                program.feedback_default = True

    def _execute(
        self,
        job_id: str,
        entry: RegisteredProgram,
        inputs: dict[str, Any],
        options: ExecOptions,
        fragment_index: Optional[int],
        submitted: float,
    ) -> JobResult:
        decision = self.admission.admit(inputs, options)
        started = time.perf_counter()
        metrics = None
        try:
            # Two jobs of the *same* program serialize on the entry
            # lock (the lazily built samplers, kernels and planner and
            # the attached observation store are per-program); jobs of
            # different programs run concurrently.
            with entry.lock:
                if self.observations is not None:
                    self._attach_observations(entry)
                if fragment_index is not None:
                    outcome = _run_fragment(
                        entry.compilation, inputs, fragment_index, options
                    )
                    outputs, report = outcome.outputs, outcome.report
                    metrics = outcome.metrics
                else:
                    run = _run_program(entry.compilation, inputs, options)
                    outputs, report = run.outputs, run.report
                entry.runs += 1
        except Exception as exc:  # delivered, not raised: daemon contract
            self.admission.release(decision)
            return JobResult(
                job_id=job_id,
                program_id=entry.program_id,
                status="error",
                admission=decision.as_dict(),
                error=f"{type(exc).__name__}: {exc}",
                wall_seconds=time.perf_counter() - started,
                queued_seconds=started - submitted,
            )
        self.admission.release(decision)
        if report is not None:
            # The admission decision is part of the job's evidence trail.
            report.admission = decision.as_dict()
        diagnostics = list(getattr(entry.compilation, "diagnostics", []))
        diagnostics.extend(getattr(report, "diagnostics", None) or [])
        return JobResult(
            job_id=job_id,
            program_id=entry.program_id,
            status="ok",
            outputs=outputs,
            plan_report=report,
            metrics=metrics,
            admission=decision.as_dict(),
            wall_seconds=time.perf_counter() - started,
            queued_seconds=started - submitted,
            diagnostics=diagnostics,
        )

__all__ = ["ExecOptions", "JobHandle", "JobResult", "Session"]
