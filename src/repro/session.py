"""The session façade: compile once, submit jobs, read results.

This is the one way to run a compiled job: a whole program (its job
graph, through :func:`~repro.graph.executor.run_graph`) or one
translated fragment (``fragment_index``, through its
:class:`~repro.codegen.glue.AdaptiveProgram`).  Every layer under it
*returns* what one call produced as the one
:class:`~repro.options.JobResult`, so a job's evidence is never read
back from shared state.  The framework is chosen per job,
too: ``ExecOptions(plan=...)`` names it, ``plan=None`` forces
:data:`~repro.planner.plan.DEFAULT_BACKEND`, and a compiled program
carries no execution choice — every ok job's ``plan_report`` says how
it ran.  A :class:`Session` owns the pieces explicitly:

* a :class:`~repro.serve.registry.ProgramRegistry` (compile-or-recall
  over the summary cache's disk tier),
* an :class:`~repro.serve.admission.AdmissionController` (planner-priced
  scheduling: small jobs concurrent, box-overrunning jobs serialized),
* a worker pool executing submissions, each job returning the
  :class:`JobResult` its run layer returned, with the session's ids,
  admission decision and timings added, and its diagnostics in one
  list — the compilation's, admission's ``REP411``–``REP413``, then the
  run's — carried, not left behind in shared state.

Quick start::

    import repro

    with repro.Session() as session:
        prog = session.compile(SOURCE)
        job = session.submit(prog, {"data": data, "n": len(data)},
                             repro.ExecOptions(memory_budget=1 << 20))
        result = job.result()
        result.outputs, result.plan_report, result.admission

``Session(max_workers=0)`` executes submissions inline on the caller's
thread — same API, no pool — which is what scripts and the benchmark
runner use.
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
from dataclasses import replace
from typing import Any, Optional, Union

from .compiler import CompilationResult, FragmentTranslation
from .cost.observe import ObservationStore
from .engine.config import EngineConfig
from .errors import AnalysisError, ServeError
from .graph.executor import run_graph
from .options import ExecOptions, JobResult, check_options
from .serve.admission import AdmissionController
from .serve.registry import ProgramRegistry, RegisteredProgram
from .synthesis.search import SearchConfig

#: What :meth:`Session.submit` accepts as the program designator.
ProgramRef = Union[RegisteredProgram, CompilationResult, str]

#: Finished jobs a session keeps readable by id; past this the
#: oldest-finished handle is dropped (a retained ``JobResult`` is about
#: 0.25 MiB, and a resident daemon never stops submitting).
MAX_FINISHED_JOBS = 1024


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
    observe:
        Accumulate observations (measured cardinalities, key ratios,
        join selectivities) across jobs, so *planned* submissions of a
        program the session has run before re-resolve their estimates
        against what actually happened — a resident service self-tunes
        run-over-run.  With a ``cache_dir`` the observation store gets a
        disk tier next to the summary cache, so tuning survives a
        restart.  ``observe=False`` keeps every run's planning
        independent.  Submissions can override per job via
        ``ExecOptions(feedback=...)``.  The store belongs to the
        session and is handed to each job's run; no compiled program
        holds it, so a program shared between sessions never sees
        another session's observations.
    engine_config:
        The :class:`~repro.engine.config.EngineConfig` (cluster, data
        ``scale``) every job runs and is priced under; ``None`` means
        ``EngineConfig()``.  Like the store it is handed to each job's
        run, never held by a program, so one compilation can be priced
        at many scales by many sessions at once.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        search_config: Optional[SearchConfig] = None,
        max_workers: int = 4,
        capacity_bytes: Optional[int] = None,
        exclusive_fraction: float = 0.5,
        observe: bool = True,
        engine_config: Optional[EngineConfig] = None,
    ) -> None:
        if max_workers < 0:
            raise ValueError("max_workers must be >= 0")
        self.observe = observe
        self._engine_config = engine_config or EngineConfig()
        self.observations = ObservationStore(
            cache_dir=(
                os.path.join(cache_dir, "observations")
                if cache_dir is not None
                else None
            )
        )
        self.registry = ProgramRegistry(
            cache_dir=cache_dir, search_config=search_config
        )
        self.admission = AdmissionController(
            capacity_bytes=capacity_bytes,
            exclusive_fraction=exclusive_fraction,
        )
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
        registry on first submission).  ``options=None`` means
        ``ExecOptions()``.  ``fragment_index`` runs one fragment
        through its adaptive program; the default runs the whole job
        graph.

        List inputs are borrowed, not copied: the job reads each list in
        place for its whole duration (until :meth:`JobHandle.result`
        returns) and never writes it.  Do not mutate a list while its
        job runs.  The elements are not copied either: a job and its
        caller share them.
        """
        if self._closed:
            raise ServeError("session is closed")
        options = check_options(options, "Session.submit")
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
        # Compile, then admission, then (for a job that ran) run.
        diagnostics = [
            *getattr(entry.compilation, "diagnostics", []),
            *decision.diagnostics,
        ]
        # Planned runs consult and refresh the session's store when the
        # job's options say so, else when the session observes.
        feedback = self.observe if options.feedback is None else options.feedback
        observations = self.observations if feedback else None
        try:
            # Two jobs of the *same* program serialize on the entry
            # lock (the lazily built samplers, kernels and planner are
            # per-program); jobs of different programs run concurrently.
            with entry.lock:
                if fragment_index is not None:
                    program = _pick_fragment(entry.compilation, fragment_index).program
                    ran = program.run(
                        inputs,
                        options,
                        observations=observations,
                        config=self._engine_config,
                    )
                else:
                    ran = run_graph(
                        entry.compilation.job_graph,
                        inputs,
                        options,
                        observations=observations,
                        config=self._engine_config,
                    )
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
                diagnostics=diagnostics,
            )
        self.admission.release(decision)
        diagnostics.extend(ran.plan_report.diagnostics)
        return replace(
            ran,
            job_id=job_id,
            program_id=entry.program_id,
            admission=decision.as_dict(),
            wall_seconds=time.perf_counter() - started,
            queued_seconds=started - submitted,
            diagnostics=diagnostics,
        )


def _pick_fragment(
    result: CompilationResult, fragment_index: int
) -> FragmentTranslation:
    """The translated fragment a ``fragment_index`` job runs."""
    try:
        fragment = result.fragments[fragment_index]
    except IndexError:
        raise AnalysisError(
            f"fragment_index {fragment_index} out of range: "
            f"{result.function!r} has {len(result.fragments)} fragment(s)"
        ) from None
    if not fragment.translated:
        raise AnalysisError(
            f"fragment_index {fragment_index}: fragment "
            f"{fragment.fragment.id!r} was not translated: "
            f"{fragment.failure_reason or 'unknown reason'}"
        )
    return fragment


__all__ = ["ExecOptions", "JobHandle", "JobResult", "Session"]
