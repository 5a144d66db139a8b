"""Tests of the benchmark harness itself: ``python3 -m pytest bench -q``.

Not part of Tier-1 (``pyproject.toml`` collects ``tests`` and
``benchmarks`` only): these check the instrument, not the program.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import pytest

from bench import compare, measure, run
from bench.instrument import TARGETS, installed
from bench.trace import ROOT_NAME, Tracer, ledger
from bench.workloads import ROOT, WORKLOADS, JobFacts, OpRecord, verify_vectorized


def _row(name, start, end, thread=1, parent=None, waits=False):
    return (name, float(start), float(end), thread, parent, waits)


# ----------------------------------------------------------------------
# Ledger


def test_ledger_self_times_sum_to_the_root_span():
    rows = [
        _row(ROOT_NAME, 0, 10, waits=True),
        _row("a", 1, 4, parent=0),
        _row("b", 2, 3, parent=1),
        _row("c", 6, 9, parent=0),
    ]
    got = ledger(rows)
    assert got == {ROOT_NAME: 4.0, "a": 2.0, "b": 1.0, "c": 3.0}
    assert sum(got.values()) == pytest.approx(10.0)


def test_overlapping_children_are_not_subtracted_twice():
    # Two workers overlap for 2 s inside a waiting parent: the parent's
    # self time is its span minus their *union* (6 s), not minus 8 s.
    rows = [
        _row(ROOT_NAME, 0, 10, waits=True),
        _row("wait", 1, 9, parent=0, waits=True),
        _row("w1", 2, 6, thread=2),
        _row("w2", 4, 8, thread=3),
    ]
    got = ledger(rows)
    assert got["wait"] == pytest.approx(2.0)
    assert got["w1"] == pytest.approx(3.0) and got["w2"] == pytest.approx(3.0)
    assert sum(got.values()) == pytest.approx(10.0)


def test_thread_root_is_adopted_by_the_span_that_consumes_it():
    # A job starts on a pool thread during submit() and is consumed by a
    # later result(): it is clipped to the waiting span that contains its
    # end, and workers are never adopted by each other.
    rows = [
        _row(ROOT_NAME, 0, 10, waits=True),
        _row("submit", 0, 2, parent=0, waits=True),
        _row("result", 3, 9, parent=0, waits=True),
        _row("job", 1, 8, thread=2),
        _row("job.inner", 4, 6, thread=2, parent=3),
    ]
    got = ledger(rows)
    assert got["job"] == pytest.approx(3.0)  # 3..8 minus the inner 2 s
    assert got["job.inner"] == pytest.approx(2.0)
    assert got["result"] == pytest.approx(1.0)
    assert sum(got.values()) == pytest.approx(10.0)


def test_tracer_records_clips_and_restores():
    tracer = Tracer()
    calls = []

    def leaf(n):
        calls.append(n)
        return leaf(n - 1) if n else 0

    def chunks():
        yield from (1, 2, 3)

    traced_leaf = tracer.wrap("leaf", leaf)
    leaf = traced_leaf  # recursion re-enters the wrapper: still one span
    traced_chunks = tracer.wrap_generator("chunks", chunks)
    release = threading.Event()
    worker = threading.Thread(target=tracer.wrap("late", release.wait))
    with tracer.op() as rows:
        traced_leaf(3)
        assert list(traced_chunks()) == [1, 2, 3]
        worker.start()  # still open when the op returns: clipped
    release.set()
    worker.join(timeout=10)
    assert not worker.is_alive()
    names = [row[0] for row in rows]
    assert names.count("leaf") == 1 and calls == [3, 2, 1, 0]
    assert names.count("chunks") == 4  # three items and the exhausting resume
    late = rows[names.index("late")]
    assert late[2] == rows[0][2]
    assert sum(ledger(rows).values()) == pytest.approx(rows[0][2] - rows[0][1])


def test_install_wraps_every_target_and_removes_the_wrappers():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro.codegen.glue as glue
    import repro.cost.observe as observe
    from repro.session import Session

    before = (Session.submit, observe.harvest_observation, glue.harvest_observation)
    with installed(Tracer()):
        assert Session.submit is not before[0]
        # the binding is replaced in every module that holds it
        assert glue.harvest_observation is not before[2]
        assert observe.harvest_observation.__wrapped__ is before[1]
    assert (Session.submit, observe.harvest_observation, glue.harvest_observation) == before
    assert {t.span.split(".")[0] for t in TARGETS} >= {
        "lang", "diagnostics", "synthesis", "verification", "codegen", "pipeline",
        "planner", "cost", "graph", "engine", "session", "serve",
    }


# ----------------------------------------------------------------------
# Estimator


def test_estimate_is_invariant_when_the_host_is_uniformly_slower():
    walls = [0.50, 0.52, 0.47, 0.61, 0.49]
    kernels = [0.011, 0.012, 0.011, 0.013, 0.012, 0.011]
    samples = [(k, k * 1.02, k * 1.4) for k in kernels]  # one disturbed execution each

    def scaled(sample, scale):
        return tuple(k * scale for k in sample)

    def estimate(scale):
        ratios = [
            measure.paired_ratio(w * scale, scaled(samples[i], scale), scaled(samples[i + 1], scale))
            for i, w in enumerate(walls)
        ]
        return measure.normalised_seconds([ratios])

    assert estimate(1.3) == pytest.approx(estimate(1.0), rel=1e-12)
    # and a slow phase in the middle of the run moves op and kernel together
    drifting = [
        measure.paired_ratio(w * k, scaled(samples[i], k), scaled(samples[i + 1], k))
        for i, (w, k) in enumerate(zip(walls, (1.0, 1.0, 1.6, 1.6, 1.0)))
    ]
    assert measure.normalised_seconds([drifting]) == pytest.approx(estimate(1.0))


def test_host_speed_ignores_one_disturbed_kernel_execution():
    quiet = (0.011, 0.011, 0.011)
    assert measure.paired_ratio(0.33, quiet, (0.011, 0.030, 0.011)) == pytest.approx(30.0)


def test_segment_medians_are_summed():
    assert measure.normalised_seconds([[1.0, 2.0, 9.0], [10.0, 10.0, 40.0]]) == pytest.approx(
        12.0 * measure.CALIB_REF_S
    )


def test_timed_keeps_the_collector_outside_the_clock(monkeypatch):
    order = []
    monkeypatch.setattr(measure.gc, "collect", lambda: order.append("gc"))
    monkeypatch.setattr(measure.time, "perf_counter", lambda: order.append("clock") or 0.0)
    measure.timed(lambda: order.append("op"))
    assert order == ["gc", "clock", "op", "clock"]


# ----------------------------------------------------------------------
# BENCHMARK.json and compare


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_names_what_the_run_prints():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert spec["command"] == ["python3", "-m", "bench.run"]


def _result(path, workload, trace, **values):
    units = run.PER_LAYER if trace else run.END_TO_END
    payload = {
        "workload": workload,
        "seed": 1,
        "trace": trace,
        "correct": True,
        "attempted": 1,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    path.write_text(json.dumps(payload))
    return str(path)


def _set(tmp_path, tag, op_values, trace=0, metric="op_s"):
    return [
        _result(tmp_path / f"{tag}{i}.json", "scan_vector", trace, **{metric: v})
        for i, v in enumerate(op_values)
    ]


def test_compare_exit_codes(tmp_path, capsys):
    # sized for any op_s bound between 0.02 and 0.25 (BENCHMARK.json decides)
    base = _set(tmp_path, "a", [1.00, 1.01, 0.99, 1.00])
    same = _set(tmp_path, "b", [1.01, 1.00, 1.02, 0.99])
    worse = _set(tmp_path, "c", [1.30, 1.31, 1.29, 1.30])
    assert compare.main(base + same) == 0
    assert "1 rows: 0 regressed, 0 unresolved" in capsys.readouterr().out
    assert compare.main(base + worse) == 1
    assert "REGRESSED" in capsys.readouterr().out

    noisy = _set(tmp_path, "d", [0.70, 1.00, 1.20, 1.50])
    assert compare.main(noisy + same) == 0  # not resolved is not regressed...
    assert "1 unresolved" in capsys.readouterr().out  # ...and not unchanged either
    faster = _set(tmp_path, "e", [0.50, 0.51, 0.52, 0.50])
    assert compare.main(noisy + faster) == 0  # every new run beats every base run
    assert "0 unresolved" in capsys.readouterr().out

    with pytest.raises(SystemExit):
        compare.main(base + same[:3])


def test_compare_refuses_a_failed_run(tmp_path):
    base = _set(tmp_path, "a", [1.00, 1.01, 0.99, 1.00])
    new = _set(tmp_path, "b", [1.01, 1.00, 1.02, 0.0])  # nothing measured reads as a gain
    broken = json.loads(open(new[-1]).read())
    broken.update(correct=False, failed=3, attempted=3)
    open(new[-1], "w").write(json.dumps(broken))
    with pytest.raises(SystemExit, match="failed run"):
        compare.main(base + new)


def test_compare_layers_average_ratios_by_geometric_mean(tmp_path, capsys):
    files = []
    for tag, scale in (("a", 1.0), ("b", 1.0)):
        for workload, seconds in (("scan_vector", 2.0), ("keyed_inmem", 8.0)):
            if tag == "b":
                seconds *= 0.5 if workload == "scan_vector" else 2.0
            files.append(
                _result(tmp_path / f"{tag}-{workload}.json", workload, 1, **{"engine.run_self_s": seconds})
            )
    assert compare.main(["--layers", *files]) == 0
    geomean = [l for l in capsys.readouterr().out.splitlines() if l.startswith("(geomean)")]
    assert len(geomean) == 1 and geomean[0].split()[-1] == "1.000"


def test_an_op_that_left_the_vector_kernel_is_a_failed_op():
    def record(columnar):
        unit = {"kernel": "compiled", "layout": "columns", "columnar": columnar}
        return OpRecord(jobs=[("job", JobFacts("ok", None, {}, [unit]))])

    assert verify_vectorized(record({"columnar_chunks": 72, "guard_fallbacks": 0})) == []
    assert verify_vectorized(record(None))  # the row loop ran every chunk
    assert verify_vectorized(record({"columnar_chunks": 72, "guard_fallbacks": 3}))


# ----------------------------------------------------------------------
# The whole thing, small


def _smoke(workload):
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--smoke", "--workload", workload],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = [json.loads(l) for l in done.stdout.splitlines() if l.startswith("{")]
    assert len(lines) == 2 and all(l["correct"] and l["failed"] == 0 for l in lines)
    assert set(lines[0]["metrics"]) == set(run.END_TO_END)
    assert set(lines[1]["metrics"]) == set(run.PER_LAYER)
    return lines


@pytest.mark.parametrize("workload", ["scan_vector", "keyed_spill", "serve_small"])
def test_call_counts_of_two_smoke_runs_agree(workload):
    first, second = _smoke(workload), _smoke(workload)
    a = first[0]["metrics"]["op_calls_k"]["value"]
    b = second[0]["metrics"]["op_calls_k"]["value"]
    assert a > 0 and abs(a - b) / a <= 0.005
    layers = first[1]["metrics"]
    by_package = sum(v["value"] for k, v in layers.items() if k.startswith("calls."))
    # The per-package rows sum to their own run's total, which is another
    # counting child than the --trace 0 run's: equal within the same 0.5 %.
    assert by_package == pytest.approx(a, rel=0.005)
    self_rows = sum(v["value"] for k, v in layers.items() if k.endswith("_self_s"))
    assert self_rows > 0
    if workload == "keyed_spill":
        assert layers["engine.spill_runs"]["value"] > 0
        assert layers["engine.spill_write_self_s"]["value"] > 0
    else:
        assert layers["engine.spill_runs"]["value"] == 0
    if workload == "serve_small":
        assert layers["serve.handler_self_s"]["value"] > 0
    if workload == "scan_vector":  # the vectorized columnar path, and only there
        assert layers["engine.extract_self_s"]["value"] > 0
        assert layers["engine.fold_self_s"]["value"] > 0
    else:
        assert layers["engine.fold_self_s"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    (bare / "bench").mkdir(parents=True)
    for name in os.listdir(os.path.join(ROOT, "bench")):
        if name.endswith(".py"):
            (bare / "bench" / name).write_text(open(os.path.join(ROOT, "bench", name)).read())
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", "scan_vector", "--seed", "1",
         "--seconds", "5", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0 and not done.stdout.strip()


def test_the_supervisor_outlives_whatever_a_run_leaves_behind(tmp_path):
    pid_file = tmp_path / "straggler.pid"
    script = (
        "import subprocess\n"
        "from bench import run\n"
        "run._adopt_orphans()\n"
        # as a finished run leaves a pool's resource tracker: the parent ends first
        f"subprocess.call(['sh', '-c', 'sleep 60 & echo $! > {pid_file}'])\n"
        "print(run._wait_for_descendants(0.2))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["1"]  # one process killed, and waited for
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)
