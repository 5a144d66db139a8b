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

import threading
import time

import pytest

from repro.compiler import translate
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
        footprint, reasons = controller.price(
            {"data": DATA, "n": len(DATA)},
            ExecOptions(memory_budget=1 << 20),
        )
        assert footprint == 2 * (1 << 20)
        assert any("memory_budget" in r for r in reasons)

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
        footprint, reasons = controller.price({"data": [1]})
        assert footprint is None
        decision = controller.admit_footprint(footprint, reasons)
        assert decision.mode == "exclusive"
        controller.release(decision)

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
        decision = controller.admit_footprint(10, ["priced somehow"])
        controller.release(decision)
        as_dict = decision.as_dict()
        assert as_dict["mode"] == "concurrent"
        assert as_dict["footprint_bytes"] == 10
        assert as_dict["capacity_bytes"] == 1000
        assert "priced somehow" in as_dict["reasons"]

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
            # Budgeted jobs carry their (wire-flattened) reports, with
            # the admission decision embedded, and at least one spilled.
            budgeted = [r for i, r in enumerate(results) if (i // 2) % 2]
            assert all(isinstance(r.plan_report, dict) for r in budgeted)
            assert all(
                r.plan_report["admission"]["mode"] == r.admission["mode"]
                for r in budgeted
            )
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
            cold = connect(daemon.address).compile(SUM_SOURCE)
            assert cold.candidates_checked > 0
        with serve(cache_dir=str(tmp_path)) as daemon:
            warm = connect(daemon.address).compile(SUM_SOURCE)
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

    def test_protocol_errors_surface_as_serve_errors(self):
        from repro.serve.client import DaemonClient, connect
        from repro.serve.daemon import serve

        with serve() as daemon:
            client = connect(daemon.address)
            with pytest.raises(ServeError, match="unknown program"):
                client.submit("prog-nope", {"data": [1]})
            with pytest.raises(ServeError, match="unknown or evicted job"):
                client.result("job-999")
        with pytest.raises(ServeError, match="cannot reach"):
            DaemonClient("127.0.0.1:1").health()
