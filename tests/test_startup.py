"""Start-up pays for what the job uses: numpy loads with the first
vector kernel, not with ``import repro``.

Module loading is process state, so every fact here is read in a fresh
interpreter: one subprocess imports the package, runs a word count (no
vector kernel), then a ``tpch_q15`` scan (the vector kernel), and
reports what was loaded after each step.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

PROBE = r"""
import json, sys
import repro

facts = {"import": "numpy" in sys.modules}
facts["unresolved"] = [name for name in repro.__all__ if not hasattr(repro, name)]

from repro import ExecOptions, Session
from repro.workloads import get_benchmark


def columnar_chunks(report):
    summary = report.summary()
    units = summary["unit_reports"].values() if "unit_reports" in summary else [summary]
    return sum((unit.get("columnar") or {}).get("columnar_chunks", 0) for unit in units)


with Session(max_workers=0) as session:
    for name in ("phoenix_wordcount", "tpch_q15"):
        benchmark = get_benchmark(name)
        program = session.compile(benchmark.source)
        result = session.submit(
            program, benchmark.make_inputs(2000, 3), ExecOptions(plan="auto")
        ).result()
        facts[name] = {
            "status": result.status,
            "numpy": "numpy" in sys.modules,
            "columnar_chunks": columnar_chunks(result.plan_report),
        }

import numpy
from repro.engine import sizes

facts["sizeof_arange"] = sizes.sizeof(numpy.arange(3))
print(json.dumps(facts))
"""


@pytest.fixture(scope="module")
def facts():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_repro_leaves_numpy_unloaded(facts):
    assert facts["import"] is False


def test_every_public_name_resolves(facts):
    assert facts["unresolved"] == []


def test_a_row_path_job_leaves_numpy_unloaded(facts):
    wordcount = facts["phoenix_wordcount"]
    assert wordcount["status"] == "ok"
    assert wordcount["numpy"] is False and wordcount["columnar_chunks"] == 0


def test_the_first_vector_kernel_loads_numpy(facts):
    scan = facts["tpch_q15"]
    assert scan["status"] == "ok"
    assert scan["numpy"] is True and scan["columnar_chunks"] > 0


def test_sizeof_prices_an_array_once_numpy_is_loaded(facts):
    from repro.engine.sizes import OBJECT_HEADER

    assert facts["sizeof_arange"] == OBJECT_HEADER + 24
