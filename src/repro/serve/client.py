"""Client half of the serve layer: :func:`connect` and its session shape.

``connect(address)`` returns a :class:`DaemonClient` whose surface
mirrors :class:`repro.session.Session` — ``compile`` / ``submit`` /
``result`` — with the work happening in the daemon process.  Results
come back as the same :class:`~repro.options.JobResult` records the
in-process session returns (outputs decoded through the tagged wire
codec, so tuples, sets, and non-string dict keys survive round-trip);
``plan_report`` and ``metrics`` arrive as their ``summary()`` dicts
rather than the live dataclasses.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Any, Optional, Union

from ..errors import ServeError
from ..options import ExecOptions, check_options
from ..session import JobResult
from .daemon import result_from_wire
from .wire import encode_value


@dataclass
class RemoteProgram:
    """A program registered with the daemon (the /register answer)."""

    program_id: str
    function: str
    fragments: int
    translated: int
    warm: bool
    candidates_checked: int
    cache_hits: int
    compile_seconds: float
    registrations: int
    runs: int

    @classmethod
    def from_info(cls, info: dict) -> "RemoteProgram":
        return cls(**{k: info[k] for k in cls.__dataclass_fields__})


class RemoteJob:
    """A job submitted to the daemon; :meth:`result` blocks for it."""

    def __init__(self, client: "DaemonClient", job_id: str, program_id: str):
        self._client = client
        self.job_id = job_id
        self.program_id = program_id

    def result(self, timeout: Optional[float] = None) -> JobResult:
        return self._client.result(self.job_id, timeout=timeout)


class DaemonClient:
    """Session-shaped HTTP client for a :class:`ServeDaemon`."""

    def __init__(self, address: str, timeout: float = 300.0) -> None:
        self.address = address.rstrip("/")
        if "://" not in self.address:
            self.address = f"http://{self.address}"
        self.timeout = timeout

    # ------------------------------------------------------------------

    def _request(
        self, path: str, body: Optional[dict] = None, timeout: Optional[float] = None
    ) -> dict:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        request = urllib.request.Request(
            self.address + path,
            data=data,
            headers={"Content-Type": "application/json"} if data else {},
            method="POST" if data is not None else "GET",
        )
        try:
            with urllib.request.urlopen(
                request, timeout=timeout or self.timeout
            ) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode("utf-8")).get("error")
            except Exception:
                detail = None
            raise ServeError(
                f"{path} failed ({exc.code}): {detail or exc.reason}"
            ) from None
        except urllib.error.URLError as exc:
            raise ServeError(
                f"cannot reach daemon at {self.address}: {exc.reason}"
            ) from None

    # ------------------------------------------------------------------

    def health(self) -> dict:
        return self._request("/health")

    def compile(self, source: str, function: Optional[str] = None) -> RemoteProgram:
        """Register a source with the daemon (compile-or-recall)."""
        info = self._request("/register", {"source": source, "function": function})
        return RemoteProgram.from_info(info)

    def submit(
        self,
        program: Union[RemoteProgram, str],
        inputs: dict[str, Any],
        options: Optional[ExecOptions] = None,
        fragment_index: Optional[int] = None,
    ) -> RemoteJob:
        """Queue a job on the daemon; returns a :class:`RemoteJob`."""
        options = check_options(options, "DaemonClient.submit")
        program_id = (
            program.program_id
            if isinstance(program, RemoteProgram)
            else program
        )
        answer = self._request(
            "/submit",
            {
                "program_id": program_id,
                "inputs": encode_value(inputs),
                "options": options.as_dict(),
                "fragment_index": fragment_index,
            },
        )
        return RemoteJob(self, answer["job_id"], answer["program_id"])

    def result(
        self, job: Union[RemoteJob, str], timeout: Optional[float] = None
    ) -> JobResult:
        """Block until the job finishes; returns its :class:`JobResult`."""
        job_id = job.job_id if isinstance(job, RemoteJob) else job
        path = f"/result?job={job_id}"
        if timeout is not None:
            path += f"&timeout={timeout}"
        # The HTTP read must outlive the job wait, not race it.
        http_timeout = self.timeout if timeout is None else timeout + 30.0
        return result_from_wire(self._request(path, timeout=http_timeout))

    def run(
        self,
        program: Union[RemoteProgram, str],
        inputs: dict[str, Any],
        options: Optional[ExecOptions] = None,
        fragment_index: Optional[int] = None,
    ) -> JobResult:
        """Submit-and-wait convenience."""
        return self.submit(
            program, inputs, options, fragment_index=fragment_index
        ).result()

    def shutdown(self) -> dict:
        """Ask the daemon to stop accepting requests and drain."""
        return self._request("/shutdown", {})


def connect(address: str, timeout: float = 300.0) -> DaemonClient:
    """Connect to a running daemon: ``repro.connect("127.0.0.1:8642")``."""
    client = DaemonClient(address, timeout=timeout)
    client.health()  # fail fast on a bad address
    return client


__all__ = ["DaemonClient", "RemoteJob", "RemoteProgram", "connect"]
