"""The serve layer: registry warmth, admission control, the daemon.

Acceptance properties of PR 7's tentpole:

* re-registering a program performs **zero synthesis** — in-process via
  the resident entry, across a daemon restart via the summary cache's
  disk tier (``candidates_checked == 0`` both ways);
* admission control prices jobs with the planner's §5 estimator: small
  jobs run concurrently, box-overrunning or unknowable jobs serialize,
  and every decision is recorded on the job's result;
* a daemon serving ≥8 concurrent mixed-size jobs (some spilling under a
  small ``memory_budget``) returns outputs identical to the reference
  interpreter's, then shuts down cleanly.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.compiler import translate
from repro.diagnostics import make
from repro.graph import interpret_reference
from repro.errors import ServeError
from repro.options import ExecOptions
from repro.serve import admission as admission_mod
from repro.serve.admission import AdmissionController
from repro.serve.registry import ProgramRegistry, program_key
from repro.serve.wire import decode_value, encode_value
from repro.synthesis.search import SearchConfig
from tests.conftest import BLUR_LITERAL_CLASH_SOURCE, BLUR_SOURCE

SUM_SOURCE = """
int sum(int[] data, int n) {
  int total = 0;
  for (int i = 0; i < n; i++) total += data[i];
  return total;
}
"""

WORDCOUNT_SOURCE = """
Map<String, Integer> wc(List<String> words) {
  Map<String, Integer> counts = new HashMap<String, Integer>();
  for (String w : words) {
    counts.put(w, counts.getOrDefault(w, 0) + 1);
  }
  return counts;
}
"""

DATA = [((i * 37) % 101) - 50 for i in range(3000)]
WORDS = [f"w{i % 17}" for i in range(3000)]


class TestProgramKey:
    def test_key_is_content_addressed(self):
        config = SearchConfig()
        key = program_key(SUM_SOURCE, "sum", config)
        assert key == program_key(SUM_SOURCE, "sum", config)
        assert key != program_key(WORDCOUNT_SOURCE, "wc", config)


class TestRegistry:
    def test_warm_rehit_skips_synthesis(self):
        registry = ProgramRegistry()
        cold = registry.register(SUM_SOURCE)
        assert cold.translated == 1
        assert cold.candidates_checked > 0
        warm = registry.register(SUM_SOURCE)
        assert warm is cold
        assert warm.warm
        assert warm.candidates_checked == 0
        assert warm.registrations == 2
        assert len(registry) == 1

    def test_disk_tier_warms_a_fresh_registry(self, tmp_path):
        first = ProgramRegistry(cache_dir=str(tmp_path))
        cold = first.register(SUM_SOURCE)
        assert cold.candidates_checked > 0
        # A brand-new registry (a restarted daemon) over the same disk
        # tier: same program id, summaries from cache, zero CEGIS work.
        second = ProgramRegistry(cache_dir=str(tmp_path))
        warm = second.register(SUM_SOURCE)
        assert warm.program_id == cold.program_id
        assert warm.warm
        assert warm.candidates_checked == 0
        assert warm.translated == 1

    def test_failed_search_is_not_warm(self, tmp_path):
        # Regression: warm was `candidates_checked == 0`, which a cold,
        # exhausted search also reports (nothing passed the Φ filter).
        first = ProgramRegistry(cache_dir=str(tmp_path))
        cold = first.register(BLUR_SOURCE)
        assert (cold.translated, cold.candidates_checked) == (0, 0)
        assert not cold.warm
        assert first.register(BLUR_SOURCE).warm  # resident entry
        # A fresh registry recalls the exhausted verdict: no search ran.
        second = ProgramRegistry(cache_dir=str(tmp_path))
        recalled = second.register(BLUR_SOURCE)
        assert recalled.warm and recalled.cache_hits == 0
        assert recalled.compilation.searches_run == 0
        # An uncacheable fragment is searched again by every new registry.
        assert not first.register(BLUR_LITERAL_CLASH_SOURCE).warm
        again = second.register(BLUR_LITERAL_CLASH_SOURCE)
        assert not again.warm and again.compilation.searches_run == 1

    def test_unknown_program_raises(self):
        with pytest.raises(ServeError, match="unknown program"):
            ProgramRegistry().get("prog-missing")

    def test_adopt_is_identity_keyed(self):
        registry = ProgramRegistry()
        compilation = translate(SUM_SOURCE)
        entry = registry.adopt(compilation)
        assert registry.adopt(compilation) is entry
        assert registry.get(entry.program_id) is entry


class TestAdmission:
    def test_budgeted_job_priced_at_its_budget(self):
        controller = AdmissionController(capacity_bytes=1 << 30)
        footprint, priced = controller.price(
            {"data": DATA, "n": len(DATA)},
            ExecOptions(memory_budget=1 << 20),
        )
        assert footprint == 2 * (1 << 20)
        assert priced.code == "REP411" and "memory_budget" in priced.message

    def test_unbudgeted_job_priced_by_estimator(self, monkeypatch):
        monkeypatch.setattr(
            admission_mod, "estimate_input_bytes", lambda records, n=None: 5000
        )
        controller = AdmissionController(capacity_bytes=1 << 30)
        footprint, _ = controller.price({"data": [1, 2, 3]})
        assert footprint == 10000  # 5000 × shuffle residency factor 2

    def test_unknowable_footprint_goes_exclusive(self, monkeypatch):
        monkeypatch.setattr(
            admission_mod, "estimate_input_bytes", lambda records, n=None: None
        )
        controller = AdmissionController(capacity_bytes=1 << 30)
        footprint, priced = controller.price({"data": [1]})
        assert footprint is None
        decision = controller.admit_footprint(footprint, priced)
        assert decision.mode == "exclusive"
        assert decision.diagnostics[0] is priced
        controller.release(decision)

    def test_inputs_are_priced_in_place(self, monkeypatch):
        from repro.engine.source import ListSource

        records = [(f"k{i % 31}", i * 0.5) for i in range(2000)]
        controller = AdmissionController(capacity_bytes=1 << 30)
        prices = [
            controller.price({"data": value, "n": len(records)})
            for value in (records, tuple(records), ListSource(records))
        ]
        assert len({footprint for footprint, _ in prices}) == 1
        assert prices[0][0] > 0
        assert all(priced.code == "REP411" for _, priced in prices)
        assert len({priced.message for _, priced in prices}) == 1

        seen = []
        estimate = admission_mod.estimate_input_bytes
        monkeypatch.setattr(
            admission_mod,
            "estimate_input_bytes",
            lambda value: (seen.append(value), estimate(value))[1],
        )
        controller.price({"data": records})
        assert seen[0] is records  # not a copy

    def test_small_concurrent_large_exclusive(self):
        controller = AdmissionController(capacity_bytes=1000, exclusive_fraction=0.5)
        small = controller.admit_footprint(100)
        assert small.mode == "concurrent"
        controller.release(small)
        large = controller.admit_footprint(600)  # > 50% of capacity
        assert large.mode == "exclusive"
        controller.release(large)

    def test_exclusive_drains_running_jobs_first(self):
        controller = AdmissionController(capacity_bytes=1000, exclusive_fraction=0.5)
        running = controller.admit_footprint(100)
        admitted = threading.Event()

        def big_job():
            decision = controller.admit_footprint(900)
            admitted.set()
            controller.release(decision)

        thread = threading.Thread(target=big_job)
        thread.start()
        time.sleep(0.05)
        assert not admitted.is_set()  # blocked behind the running job
        controller.release(running)
        thread.join(timeout=5)
        assert admitted.is_set()
        assert controller.admitted["exclusive"] == 1

    def test_ledger_blocks_past_capacity(self):
        controller = AdmissionController(capacity_bytes=1000, exclusive_fraction=1.0)
        first = controller.admit_footprint(600)
        admitted = threading.Event()

        def second_job():
            decision = controller.admit_footprint(600)
            admitted.set()
            controller.release(decision)

        thread = threading.Thread(target=second_job)
        thread.start()
        time.sleep(0.05)
        assert not admitted.is_set()  # 600 + 600 > 1000
        controller.release(first)
        thread.join(timeout=5)
        assert admitted.is_set()

    def test_decision_records_queueing_and_reasons(self):
        controller = AdmissionController(capacity_bytes=1000)
        decision = controller.admit_footprint(10, make("REP411", "priced somehow"))
        controller.release(decision)
        as_dict = decision.as_dict()
        assert as_dict["mode"] == "concurrent"
        assert as_dict["footprint_bytes"] == 10
        assert as_dict["capacity_bytes"] == 1000
        assert set(as_dict) == {
            "mode",
            "footprint_bytes",
            "capacity_bytes",
            "queued_seconds",
        }
        said = [(d.code, d.message) for d in decision.diagnostics]
        assert ("REP411", "priced somehow") in said
        assert said[-1][0] == "REP412" and "concurrent" in said[-1][1]

    def test_slow_admission_with_nothing_running_is_no_wait(self, monkeypatch):
        # A clock that advances 1 s per reading: admission "takes" a
        # second, as on a loaded host, but nothing made the job wait.
        ticks = iter(range(100))
        clock = type("Clock", (), {"perf_counter": staticmethod(lambda: next(ticks))})
        monkeypatch.setattr(admission_mod, "time", clock)
        controller = AdmissionController(capacity_bytes=1000)
        decision = controller.admit_footprint(10)
        controller.release(decision)
        assert decision.queued_seconds == 1
        assert "REP413" not in [d.code for d in decision.diagnostics]

    def test_a_job_that_waits_on_the_ledger_says_so_once(self):
        controller = AdmissionController(capacity_bytes=1000, exclusive_fraction=0.5)
        running = controller.admit_footprint(100)
        decisions = []

        def big_job():
            decisions.append(controller.admit_footprint(900))
            controller.release(decisions[0])

        thread = threading.Thread(target=big_job)
        thread.start()
        deadline = time.monotonic() + 5
        while not controller._exclusive_waiting and time.monotonic() < deadline:
            time.sleep(0.005)  # until the big job is parked on the ledger
        controller.release(running)
        thread.join(timeout=5)
        [decision] = decisions
        assert decision.mode == "exclusive"
        assert [d.code for d in decision.diagnostics].count("REP413") == 1
        assert "REP413" not in [d.code for d in running.diagnostics]

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(capacity_bytes=0)
        with pytest.raises(ValueError):
            AdmissionController(exclusive_fraction=0.0)


class TestWireCodec:
    def test_round_trips_python_shapes(self):
        value = {
            ("k", 1): [1, 2, (3, 4)],
            7: {"nested": {frozenset({1, 2})}},
            "floats": [0.1, 2.5e-8, -1.0],
            "bytes": b"\x00\xff",
            "none": None,
        }
        assert decode_value(encode_value(value)) == value

    def test_tuple_vs_list_distinction_survives(self):
        encoded = encode_value({"t": (1, 2), "l": [1, 2]})
        decoded = decode_value(encoded)
        assert isinstance(decoded["t"], tuple)
        assert isinstance(decoded["l"], list)

    def test_user_tag_key_cannot_be_mistaken(self):
        value = {"__t__": "not-a-tag"}
        assert decode_value(encode_value(value)) == value

    @pytest.mark.parametrize(
        "value",
        [
            [],
            [1, 2.5, "w", True, None],
            [[1, 2], [], [[3.0, None], ["x"]]],
            [1, (2, 3), 4],
            [True, 1, 1.0, False, 0],
            [None, None],
            {"__t__": "tuple", "v": [1, 2]},
            [{"__t__": "dict"}, 1],
            {"data": list(range(50)), "n": 50},
        ],
        ids=[
            "empty",
            "scalars",
            "nested",
            "tuple-inside",
            "bool-vs-int",
            "nones",
            "literal-tag-key",
            "tag-key-in-list",
            "request-shape",
        ],
    )
    def test_scalar_lists_pass_through_and_everything_round_trips(self, value):
        """A list of exact scalars is its own wire form; anything else
        recurses.  Either way a JSON round trip gives back an equal value
        with equal types all the way down (``True`` stays ``True``)."""
        import json

        def typed(v):
            if isinstance(v, (list, tuple)):
                return (type(v).__name__, [typed(x) for x in v])
            if isinstance(v, dict):
                return ("dict", [(typed(k), typed(x)) for k, x in v.items()])
            return (type(v).__name__, v)

        encoded = encode_value(value)
        decoded = decode_value(json.loads(json.dumps(encoded)))
        assert typed(decoded) == typed(value)

    def test_scalar_list_costs_no_call_per_element(self):
        import cProfile

        numbers = list(range(5000))
        profile = cProfile.Profile()
        encoded = profile.runcall(encode_value, {"data": numbers, "n": 5000})
        decoded = profile.runcall(decode_value, encoded)
        assert decoded == {"data": numbers, "n": 5000}
        calls = sum(entry.callcount for entry in profile.getstats())
        assert calls < 60, calls

    def test_unencodable_type_raises(self):
        with pytest.raises(TypeError, match="cannot encode"):
            encode_value(object())


class TestDaemon:
    """End-to-end acceptance: the daemon over a real socket."""

    def test_concurrent_mixed_jobs_identical_to_the_interpreter(self, tmp_path):
        from repro.serve.client import connect
        from repro.serve.daemon import serve

        sum_inputs = {"data": DATA, "n": len(DATA)}
        wc_inputs = {"words": WORDS}
        expected_sum = interpret_reference(
            translate(SUM_SOURCE).job_graph, dict(sum_inputs)
        )
        expected_wc = interpret_reference(
            translate(WORDCOUNT_SOURCE).job_graph, dict(wc_inputs)
        )
        budget = ExecOptions(memory_budget=1 << 14)

        daemon = serve(cache_dir=str(tmp_path), max_workers=4)
        try:
            client = connect(daemon.address)
            assert client.health()["ok"]

            sum_prog = client.compile(SUM_SOURCE)
            wc_prog = client.compile(WORDCOUNT_SOURCE)
            rehit = client.compile(SUM_SOURCE)
            assert rehit.warm and rehit.candidates_checked == 0

            jobs = []
            for i in range(4):
                options = budget if i % 2 else None
                jobs.append(client.submit(sum_prog, sum_inputs, options))
                jobs.append(client.submit(wc_prog, wc_inputs, options))
            results = [job.result(timeout=300) for job in jobs]

            assert len(results) == 8
            assert all(r.ok for r in results), [r.error for r in results]
            for i, result in enumerate(results):
                expected = expected_wc if i % 2 else expected_sum
                assert result.outputs == expected
                assert result.admission["mode"] in (
                    "concurrent",
                    "exclusive",
                )
            # Budgeted jobs carry their (wire-flattened) reports, and at
            # least one spilled.
            budgeted = [r for i, r in enumerate(results) if (i // 2) % 2]
            assert all(isinstance(r.plan_report, dict) for r in budgeted)
            spilled = [
                unit["spill_stats"]["spilled_bytes"]
                for r in budgeted
                for unit in r.plan_report["unit_reports"].values()
                if unit["spill_stats"]
            ]
            assert spilled and max(spilled) > 0

            client.shutdown()
        finally:
            daemon.shutdown()

    def test_restarted_daemon_registers_warm_from_disk(self, tmp_path):
        from repro.serve.client import connect
        from repro.serve.daemon import serve

        with serve(cache_dir=str(tmp_path)) as daemon:
            with connect(daemon.address) as client:
                cold = client.compile(SUM_SOURCE)
            assert cold.candidates_checked > 0
        with serve(cache_dir=str(tmp_path)) as daemon:
            with connect(daemon.address) as client:
                warm = client.compile(SUM_SOURCE)
            assert warm.warm
            assert warm.candidates_checked == 0

    def test_replies_on_a_kept_alive_connection_do_not_stall(self):
        # Headers and body are two writes: with Nagle's algorithm on, the
        # body waits for the client's delayed ACK, ≈ 40 ms per request.
        import http.client
        import statistics
        from urllib.parse import urlparse

        from repro.serve.daemon import serve

        with serve() as daemon:
            url = urlparse(daemon.address)
            connection = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
            times = []
            try:
                for _ in range(5):
                    started = time.perf_counter()
                    connection.request("GET", "/health")
                    response = connection.getresponse()
                    response.read()
                    times.append(time.perf_counter() - started)
                    assert response.status == 200
            finally:
                connection.close()
        assert statistics.median(times) < 0.020, times

    def test_idle_connection_reconnects_transparently(self, monkeypatch):
        from repro.serve import daemon as daemon_mod
        from repro.serve.client import connect

        assert daemon_mod._Handler.timeout == daemon_mod.IDLE_TIMEOUT_S > 0
        monkeypatch.setattr(daemon_mod._Handler, "timeout", 0.2)
        with daemon_mod.serve() as daemon, connect(daemon.address) as client:
            program = client.compile(SUM_SOURCE)
            [connection] = client._idle
            first = connection.sock
            time.sleep(0.6)  # the daemon closes the idle connection
            result = client.run(program, {"data": DATA, "n": len(DATA)})
            assert result.ok, result.error
            assert result.outputs == {"total": sum(DATA)}
            assert client._idle == [connection]  # reconnected, not replaced
            assert connection.sock is not first
            assert client.health()["ok"]

    def test_shared_client_across_threads_matches_inline_session(self):
        import gc
        import warnings

        from repro.serve.client import connect
        from repro.serve.daemon import serve
        from repro.session import Session

        inputs = [{"data": DATA[: 500 + 100 * i], "n": 500 + 100 * i} for i in range(4)]
        with Session(max_workers=0) as session:
            program = session.compile(SUM_SOURCE)
            expected = [session.run(program, dict(i)).outputs for i in inputs]

        outputs: dict[int, list] = {}
        errors: list[BaseException] = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with serve() as daemon:
                client = connect(daemon.address)
                remote = client.compile(SUM_SOURCE)

                def round_trips(worker: int) -> None:
                    try:
                        outputs[worker] = [
                            client.submit(remote, inputs[worker]).result().outputs
                            for _ in range(10)
                        ]
                    except BaseException as exc:  # pragma: no cover - the assert
                        errors.append(exc)

                threads = [
                    threading.Thread(target=round_trips, args=(worker,))
                    for worker in range(4)
                ]
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-5)
                try:
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=120)
                finally:
                    sys.setswitchinterval(interval)
                assert not any(thread.is_alive() for thread in threads)
                assert 1 <= len(client._idle) <= 4  # one per request in flight
                client.close()
                del client, threads
                gc.collect()
        assert not errors, errors
        for worker in range(4):
            assert outputs[worker] == [expected[worker]] * 10
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_an_unclosed_client_is_what_the_warning_check_sees(self):
        import gc
        import warnings

        from repro.serve.client import connect
        from repro.serve.daemon import serve

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with serve() as daemon:
                client = connect(daemon.address)
                assert client.health()["ok"]
                del client
                gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_shutdown_closes_the_clients_connections(self):
        from repro.serve.client import connect
        from repro.serve.daemon import serve

        daemon = serve()
        try:
            client = connect(daemon.address)
            assert client.health()["ok"]
            [connection] = client._idle
            assert client.shutdown() == {"ok": True}
            assert client._idle == [] and connection.sock is None
        finally:
            daemon.shutdown()
        with pytest.raises(ServeError, match="cannot reach"):
            client.health()

    def test_a_stopped_daemon_answers_no_kept_alive_connection(self):
        """50 rounds: a handler blocked reading the kept-alive connection
        when the shutdown starts is not reliably woken by it, so the
        request it then reads must be refused, not answered."""
        from repro.serve.client import connect
        from repro.serve.daemon import serve

        for _round in range(50):
            daemon = serve()
            with connect(daemon.address) as client:
                assert client.health()["ok"]
                daemon.shutdown()
                with pytest.raises(ServeError, match="cannot reach"):
                    client.health()

    def test_a_request_the_daemon_may_have_processed_is_not_resent(self):
        """A reply cut short or a reply that never comes is an error, not
        a retry: the daemon saw the request and may have acted on it."""
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        from repro.serve.client import DaemonClient

        seen: list[str] = []

        class Misbehaving(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args):
                pass

            def do_GET(self):  # noqa: N802 (http.server API)
                seen.append(self.path)
                if self.path == "/slow":
                    time.sleep(1.0)
                if self.path == "/drop":
                    self.close_connection = True
                    return
                body = b'{"ok": true}'
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                if self.path == "/cut":
                    self.wfile.write(body[:4])
                    self.close_connection = True
                else:
                    self.wfile.write(body)

        server = ThreadingHTTPServer(("127.0.0.1", 0), Misbehaving)
        server.daemon_threads = True
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            host, port = server.server_address[:2]
            with DaemonClient(f"{host}:{port}", timeout=0.3) as client:
                assert client._request("/ok") == {"ok": True}
                with pytest.raises(ServeError, match="cannot reach"):
                    client._request("/cut")  # on the reused connection
                assert client._request("/ok") == {"ok": True}
                with pytest.raises(ServeError, match="timed out"):
                    client._request("/slow")
                # Closed unanswered, but on a fresh connection: not resent.
                with pytest.raises(ServeError, match="cannot reach"):
                    client._request("/drop")
                time.sleep(1.0)
            assert seen == ["/ok", "/cut", "/ok", "/slow", "/drop"]
        finally:
            server.shutdown()
            server.server_close()

    def test_protocol_errors_surface_as_serve_errors(self):
        from repro.serve.client import DaemonClient, connect
        from repro.serve.daemon import serve

        with serve() as daemon, connect(daemon.address) as client:
            with pytest.raises(ServeError, match="unknown program"):
                client.submit("prog-nope", {"data": [1]})
            with pytest.raises(ServeError, match="unknown or evicted job"):
                client.result("job-999")
        with pytest.raises(ServeError, match="cannot reach"):
            DaemonClient("127.0.0.1:1").health()
