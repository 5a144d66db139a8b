"""The resident compile-and-serve daemon: a :class:`Session` on a socket.

``ServeDaemon`` wraps one in-process :class:`~repro.session.Session`
behind a threaded local HTTP endpoint (stdlib only — the repository
adds no dependencies).  Each request thread hands submissions to the
session's worker pool, so concurrent clients get exactly the session's
semantics: registry warm hits, per-program serialization, and
planner-priced admission control.

Routes (JSON bodies, tagged values via :mod:`repro.serve.wire`):

==================  ====================================================
``GET  /health``    registry / admission / job statistics
``POST /register``  ``{source, function?}`` → registration info
``POST /submit``    ``{program_id, inputs, options?, fragment_index?}``
                    → ``{job_id}`` (returns immediately)
``GET  /result``    ``?job=<id>&timeout=<s>`` → the job's result record
``POST /shutdown``  stop accepting requests and drain
==================  ====================================================

Run programmatically (``serve()`` picks an ephemeral port) or as
``python -m repro.serve --port 8642``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional
from urllib.parse import parse_qs, urlparse

from ..errors import ServeError
from ..options import ExecOptions
from ..session import JobResult, Session
from .wire import decode_value, encode_value


def result_to_wire(result: JobResult) -> dict:
    """Flatten a :class:`JobResult` into the JSON answer of /result."""
    report = result.plan_report
    if report is not None and hasattr(report, "summary"):
        report = report.summary()
    return {
        "job_id": result.job_id,
        "program_id": result.program_id,
        "status": result.status,
        "outputs": encode_value(result.outputs),
        "plan_report": encode_value(report),
        "metrics": result.metrics.summary() if result.metrics is not None else None,
        "admission": encode_value(result.admission),
        "error": result.error,
        "wall_seconds": result.wall_seconds,
        "queued_seconds": result.queued_seconds,
        "diagnostics": [
            diag.as_dict() if hasattr(diag, "as_dict") else diag
            for diag in result.diagnostics
        ],
    }


def result_from_wire(payload: dict) -> JobResult:
    """Rebuild the client-side :class:`JobResult` from /result's answer."""
    return JobResult(
        job_id=payload["job_id"],
        program_id=payload["program_id"],
        status=payload["status"],
        outputs=decode_value(payload["outputs"]),
        plan_report=decode_value(payload["plan_report"]),
        metrics=payload.get("metrics"),
        admission=decode_value(payload["admission"]),
        error=payload.get("error"),
        wall_seconds=payload.get("wall_seconds", 0.0),
        queued_seconds=payload.get("queued_seconds", 0.0),
        diagnostics=list(payload.get("diagnostics", [])),
    )


class _Handler(BaseHTTPRequestHandler):
    """One request; the daemon instance rides on the server object."""

    server_version = "repro-serve/1.6"
    protocol_version = "HTTP/1.1"
    #: Headers and body go out as two writes; with Nagle on, the body of
    #: a reply on a kept-alive connection waits for the client's delayed
    #: ACK (≈ 40 ms on Linux).
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------

    @property
    def daemon(self) -> "ServeDaemon":
        return self.server.repro_daemon  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if self.daemon.verbose:
            super().log_message(format, *args)

    def _reply(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        return json.loads(self.rfile.read(length).decode("utf-8"))

    def _fail(self, exc: Exception, status: int = 400) -> None:
        self._reply({"error": f"{type(exc).__name__}: {exc}"}, status=status)

    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        url = urlparse(self.path)
        try:
            if url.path == "/health":
                self._reply(self.daemon.health())
            elif url.path == "/result":
                query = parse_qs(url.query)
                job_id = (query.get("job") or [""])[0]
                timeout = (query.get("timeout") or [None])[0]
                result = self.daemon.session.result(
                    job_id, timeout=float(timeout) if timeout else None
                )
                self._reply(result_to_wire(result))
            else:
                self._reply({"error": f"unknown path {url.path}"}, status=404)
        except ServeError as exc:
            self._fail(exc, status=404)
        except Exception as exc:  # protocol errors must answer, not hang
            self._fail(exc, status=500)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        url = urlparse(self.path)
        try:
            body = self._body()
            if url.path == "/register":
                entry = self.daemon.session.compile(
                    body["source"], body.get("function")
                )
                self._reply(entry.info())
            elif url.path == "/submit":
                options = body.get("options")
                handle = self.daemon.session.submit(
                    body["program_id"],
                    decode_value(body["inputs"]),
                    ExecOptions.from_dict(options) if options else None,
                    fragment_index=body.get("fragment_index"),
                )
                self._reply({"job_id": handle.job_id, "program_id": handle.program_id})
            elif url.path == "/shutdown":
                self._reply({"ok": True})
                self.daemon._request_shutdown()
            else:
                self._reply({"error": f"unknown path {url.path}"}, status=404)
        except ServeError as exc:
            self._fail(exc, status=404)
        except Exception as exc:
            self._fail(exc, status=500)


class ServeDaemon:
    """A compile-and-serve daemon bound to a local port.

    The constructor binds the socket (``port=0`` → ephemeral) and spins
    up the request loop on a background thread; :attr:`address` is ready
    immediately.  Use as a context manager or call :meth:`shutdown`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        session: Optional[Session] = None,
        cache_dir: Optional[str] = None,
        max_workers: int = 4,
        verbose: bool = False,
        observe: bool = True,
    ) -> None:
        self.session = session or Session(
            cache_dir=cache_dir, max_workers=max_workers, observe=observe
        )
        self.verbose = verbose
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.repro_daemon = self  # type: ignore[attr-defined]
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()

    # ------------------------------------------------------------------

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def health(self) -> dict:
        info = self.session.info()
        info["ok"] = True
        info["address"] = self.address
        return info

    def _request_shutdown(self) -> None:
        # Called from a request thread: serve_forever() must be stopped
        # from outside its own loop iteration or shutdown() deadlocks.
        threading.Thread(target=self.shutdown, daemon=True).start()

    def shutdown(self) -> None:
        """Stop the request loop, close the socket, drain the session."""
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
        self.session.close()

    def __enter__(self) -> "ServeDaemon":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    cache_dir: Optional[str] = None,
    max_workers: int = 4,
    verbose: bool = False,
) -> ServeDaemon:
    """Boot a daemon (ephemeral port by default) and return it."""
    return ServeDaemon(
        host=host,
        port=port,
        cache_dir=cache_dir,
        max_workers=max_workers,
        verbose=verbose,
    )


__all__ = ["ServeDaemon", "result_from_wire", "result_to_wire", "serve"]
