"""``python -m repro.serve``: run the daemon, or its CI smoke check.

Daemon mode binds the given host/port and serves until interrupted::

    python -m repro.serve --port 8642 --cache-dir .repro-cache

``--smoke`` is the self-contained health check CI runs: boot an
ephemeral daemon, register a program twice (the second registration
must be warm with zero CEGIS candidates checked), push concurrent jobs
through it — one under a deliberately small memory budget — verify the
outputs are identical to the reference interpreter's
(:func:`~repro.graph.executor.interpret_reference`, which shares no code
with the compiled path), time a few ``GET /health`` requests on one
kept-alive connection, and shut down cleanly.  Exit code 0 on success.
"""

from __future__ import annotations

import argparse
import http.client
import sys
import tempfile
import time
from urllib.parse import urlparse

SMOKE_SUM = """
int sum(int[] data, int n) {
  int total = 0;
  for (int i = 0; i < n; i++) total += data[i];
  return total;
}
"""

SMOKE_WC = """
Map<String, Integer> wc(List<String> words) {
  Map<String, Integer> counts = new HashMap<String, Integer>();
  for (String w : words) {
    counts.put(w, counts.getOrDefault(w, 0) + 1);
  }
  return counts;
}
"""

#: A reply on a reused connection slower than this is stalled (Nagle's
#: algorithm waiting for a delayed ACK costs ≈ 40 ms).
KEEPALIVE_MEDIAN_MS = 20.0


def _keepalive_median_ms(address: str) -> float:
    """Median wall time of five ``GET /health`` on one HTTP/1.1 connection."""
    url = urlparse(address)
    connection = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
    try:
        times = []
        for _ in range(5):
            started = time.perf_counter()
            connection.request("GET", "/health")
            response = connection.getresponse()
            response.read()
            times.append((time.perf_counter() - started) * 1000.0)
            if response.status != 200:
                raise RuntimeError(f"GET /health answered {response.status}")
    finally:
        connection.close()
    return sorted(times)[2]


def _smoke() -> int:
    from ..compiler import translate
    from ..graph.executor import interpret_reference
    from ..options import ExecOptions
    from .client import connect
    from .daemon import serve

    data = [((i * 37) % 101) - 50 for i in range(4000)]
    words = [f"w{i % 23}" for i in range(4000)]
    budget = ExecOptions(memory_budget=1 << 14)

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as cache_dir:
        daemon = serve(cache_dir=cache_dir, max_workers=4)
        try:
            client = connect(daemon.address)
            print(f"smoke: daemon up at {daemon.address}")

            cold = client.compile(SMOKE_SUM)
            warm = client.compile(SMOKE_SUM)
            print(
                f"smoke: register cold translated={cold.translated} "
                f"candidates={cold.candidates_checked}; "
                f"warm={warm.warm} candidates={warm.candidates_checked}"
            )
            if not warm.warm or warm.candidates_checked != 0:
                print("smoke: FAIL warm re-registration ran synthesis")
                return 1

            wc = client.compile(SMOKE_WC)
            jobs = [
                client.submit(cold, {"data": data, "n": len(data)}),
                client.submit(cold, {"data": data, "n": len(data)}, budget),
                client.submit(wc, {"words": words}),
                client.submit(wc, {"words": words}, budget),
            ]
            results = [job.result(timeout=120) for job in jobs]
            failed = [r for r in results if not r.ok]
            if failed:
                for r in failed:
                    print(f"smoke: FAIL job {r.job_id}: {r.error}")
                return 1

            expect_sum = interpret_reference(
                translate(SMOKE_SUM).job_graph, {"data": data, "n": len(data)}
            )
            expect_wc = interpret_reference(
                translate(SMOKE_WC).job_graph, {"words": words}
            )
            expected = [expect_sum, expect_sum, expect_wc, expect_wc]
            for result, reference in zip(results, expected):
                if result.outputs != reference:
                    print(
                        f"smoke: FAIL job {result.job_id} outputs differ: "
                        f"{result.outputs!r} != {reference!r}"
                    )
                    return 1
                if not result.admission or "mode" not in result.admission:
                    print(
                        f"smoke: FAIL job {result.job_id} has no "
                        "admission decision"
                    )
                    return 1
            modes = [r.admission["mode"] for r in results]
            print(
                f"smoke: {len(results)} concurrent jobs ok, "
                f"admission modes={modes}, outputs identical to the interpreter"
            )
            median_ms = _keepalive_median_ms(daemon.address)
            print(f"smoke: GET /health on one connection, median {median_ms:.1f} ms")
            if median_ms > KEEPALIVE_MEDIAN_MS:
                print(
                    f"smoke: FAIL replies on a reused connection take "
                    f"{median_ms:.1f} ms (limit {KEEPALIVE_MEDIAN_MS:.0f} ms)"
                )
                return 1
            client.shutdown()
        finally:
            daemon.shutdown()
    print("smoke: clean shutdown — PASS")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.serve", description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642)
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="disk tier for the summary cache (warm restarts)",
    )
    parser.add_argument("--max-workers", type=int, default=4)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the CI smoke check against an ephemeral daemon and exit",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        return _smoke()

    from .daemon import serve

    daemon = serve(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        max_workers=args.max_workers,
        verbose=True,
    )
    print(f"repro serve daemon listening at {daemon.address}")
    try:
        daemon._thread.join()
    except KeyboardInterrupt:
        print("shutting down")
        daemon.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
