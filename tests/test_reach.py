"""The line reach collector (benchmarks/reach/reach.py) counts what forked
children run, names exactly what no process ran, and leaves no error
behind at interpreter teardown."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
REACH = REPO / "benchmarks" / "reach" / "reach.py"
FIXTURE = REPO / "tests" / "data" / "reach_fixture"


def _reach_module():
    spec = importlib.util.spec_from_file_location("reach_under_test", REACH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line_of(text: str) -> int:
    source = (FIXTURE / "forked.py").read_text(encoding="utf-8").splitlines()
    [number] = [i for i, line in enumerate(source, 1) if text in line]
    return number


def test_forked_child_lines_count_and_the_unrun_line_is_named(tmp_path):
    dumps = tmp_path / "dumps"
    env = dict(os.environ, REPRO_REACH_ROOT=str(FIXTURE))
    env.pop("REPRO_REACH_DIR", None)
    command = [sys.executable, str(FIXTURE / "forked.py")]
    proc = subprocess.run(
        [sys.executable, str(REACH), "run", str(dumps), "--", *command],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # Nothing printed at exit: no tracer error during interpreter teardown.
    assert proc.stderr == ""
    # The parent, the Process child and the pool worker each dumped.
    assert len(list(dumps.glob("reach-*.json"))) == 3

    reach = _reach_module()
    blocks, count = reach.collect_blocks([str(dumps)], FIXTURE)
    never = _line_of('return "never"')
    assert count == 3
    assert [(b.qualname, b.first, b.last, b.whole) for b in blocks] == [
        ("in_child", never, never, False)
    ]

    # The report fails on that block until a row names it with its count.
    rel = str(FIXTURE.relative_to(REPO) / "forked.py")
    reasons = tmp_path / "reasons.tsv"

    def verdict(*rows: str) -> int:
        reasons.write_text("# file\tqualname\tlines\tgroup\treason\n" + "".join(rows))
        return reach.report([str(dumps)], str(reasons), FIXTURE)

    row = f"{rel}\tin_child\t1\tkept\tthe fixture's unrun line\n"
    assert verdict() == 1
    assert verdict(row) == 0
    # A listed function that gains an unreached line fails like an
    # unlisted one; a count above the function's unreached lines passes.
    assert verdict(row.replace("\t1\t", "\t0\t")) == 1
    assert verdict(row.replace("\t1\t", "\t2\t")) == 0
    # A row that names nothing unreached is stale and fails.
    assert verdict(row, f"{rel}\t<module>\t1\tkept\tnothing here\n") == 1
