"""Client half of the serve layer: :func:`connect` and its session shape.

``connect(address)`` returns a :class:`DaemonClient` whose surface
mirrors :class:`repro.session.Session` — ``compile`` / ``submit`` /
``result`` — with the work happening in the daemon process.  Results
come back as the same :class:`~repro.options.JobResult` records the
in-process session returns (outputs decoded through the tagged wire
codec, so tuples, sets, and non-string dict keys survive round-trip);
``plan_report`` and ``metrics`` arrive as their ``summary()`` dicts
rather than the live dataclasses.

Requests go over kept-alive HTTP/1.1 connections from a small idle pool:
a request takes the most recently returned connection (or opens one)
and gives it back once the reply is read, so a client used by one
thread at a time keeps one connection (the daemon closes a connection
left idle for ``daemon.IDLE_TIMEOUT_S``).  A reused connection the
daemon has closed is reconnected once, transparently; the request is
sent again only then, because the daemon answers every request it
reads — a connection it closed without a status line carried no request
it processed.  No other failure is retried.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException, HTTPResponse
from typing import Any, Optional, Union
from urllib.parse import urlsplit

from ..errors import ServeError
from ..options import ExecOptions, check_options
from ..session import JobResult
from .daemon import result_from_wire
from .wire import encode_value

_JSON_HEADERS = {"Content-Type": "application/json"}


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
    """Session-shaped HTTP client for a :class:`ServeDaemon`.

    One instance may be shared by many threads: a request in flight owns
    its connection, an idle one goes back to the pool.  :meth:`close`
    (or leaving a ``with`` block) closes the idle connections; call it
    when no request is in flight.
    """

    def __init__(self, address: str, timeout: float = 300.0) -> None:
        self.address = address.rstrip("/")
        if "://" not in self.address:
            self.address = f"http://{self.address}"
        url = urlsplit(self.address)
        self._host, self._port = url.hostname, url.port
        self.timeout = timeout
        self._lock = threading.Lock()
        #: Connections no request is using, the most recently used last.
        self._idle: list[HTTPConnection] = []

    # ------------------------------------------------------------------

    @staticmethod
    def _exchange(
        connection: HTTPConnection,
        method: str,
        path: str,
        data: Optional[bytes],
        timeout: float,
    ) -> HTTPResponse:
        """Send one request and read its status line and headers."""
        headers = _JSON_HEADERS if data is not None else {}
        connection.timeout = timeout
        reused = connection.sock is not None
        if reused:
            connection.sock.settimeout(timeout)
        try:
            connection.request(method, path, data, headers)
            return connection.getresponse()
        except (BrokenPipeError, ConnectionResetError):
            # RemoteDisconnected is a ConnectionResetError: the daemon
            # closed the connection without answering, so it read no
            # request on it (most likely its idle timeout fired).
            if not reused:
                raise
        connection.close()
        connection.request(method, path, data, headers)
        return connection.getresponse()

    def _request(
        self, path: str, body: Optional[dict] = None, timeout: Optional[float] = None
    ) -> dict:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        if connection is None:
            connection = HTTPConnection(self._host, self._port)
        try:
            response = self._exchange(
                connection,
                "POST" if data is not None else "GET",
                path,
                data,
                timeout or self.timeout,
            )
            payload = response.read()
        except (OSError, HTTPException) as exc:
            connection.close()
            raise ServeError(f"cannot reach daemon at {self.address}: {exc}") from None
        with self._lock:
            self._idle.append(connection)
        if response.status != 200:
            try:
                detail = json.loads(payload.decode("utf-8")).get("error")
            except Exception:
                detail = None
            raise ServeError(
                f"{path} failed ({response.status}): {detail or response.reason}"
            )
        return json.loads(payload.decode("utf-8"))

    def close(self) -> None:
        """Close the idle connections; a later request opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

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
        """Ask the daemon to stop accepting requests and drain.

        The client's connections are closed once the daemon has answered.
        """
        answer = self._request("/shutdown", {})
        self.close()
        return answer


def connect(address: str, timeout: float = 300.0) -> DaemonClient:
    """Connect to a running daemon: ``repro.connect("127.0.0.1:8642")``."""
    client = DaemonClient(address, timeout=timeout)
    client.health()  # fail fast on a bad address
    return client


__all__ = ["DaemonClient", "RemoteJob", "RemoteProgram", "connect"]
