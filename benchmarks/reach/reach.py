"""Line reach of ``src/repro``: which lines does a suite run, and which not?

A standard-library line collector (``coverage`` is not a dependency) and
the report that holds ``src/`` to one rule: every line is reached by a
test or a CI command, deleted, or kept with a reason recorded in
``reasons.tsv`` beside this file.

Collect, then report::

    python benchmarks/reach/reach.py run DIR -- python -m pytest -q
    python benchmarks/reach/reach.py run DIR -- python -m repro.serve --smoke
    python benchmarks/reach/reach.py report DIR [DIR ...] \
        --reasons benchmarks/reach/reasons.tsv

``run`` starts the command with this directory and ``src`` on
``PYTHONPATH`` and ``REPRO_REACH_DIR=DIR``; the ``sitecustomize`` module
here then calls :func:`start` in every Python process the command starts
(pool workers forked by ``multiprocessing``, a daemon subprocess).  Each
process writes one JSON dump into ``DIR``: at exit, or — a forked
``multiprocessing`` child leaves through ``os._exit`` — from a
``multiprocessing.util.Finalize`` registered after the fork.

``report`` takes the union of every dump under the given directories
(several runs: the Hypothesis tests draw differently each time), maps
each unreached line to its function through ``co_lines()`` and prints
two kinds of block: a function never entered, and a run of unreached
lines inside a function that was.  With ``--reasons`` it exits 1 when

* an unreached block's ``(file, qualified name)`` has no row in the table;
* a function has more unreached lines than its row allows (a new
  untested branch in a listed function needs a test, a deletion or a
  larger count, the same as one in an unlisted function);
* a row names a function with no unreached line left (a stale row: the
  table shrinks as code gets reached or deleted).

A row whose function now has fewer unreached lines than it allows is
printed, so its count can be lowered.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import subprocess
import sys
import threading
import types
from pathlib import Path
from typing import Iterator, NamedTuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
ROOT_ENV = "REPRO_REACH_ROOT"
DIR_ENV = "REPRO_REACH_DIR"


# -- collecting ---------------------------------------------------------------


def start(out_dir: str, root: str) -> None:
    """Trace every frame whose file lies under ``root`` in this process,
    its threads and its forked children; dump into ``out_dir`` at exit."""
    import multiprocessing.util

    prefix = os.path.join(os.path.abspath(root), "")
    lines: dict[str, set[int]] = {}
    entered: dict[str, set[int]] = {}
    tracers: dict[str, tuple] = {}  # co_filename -> (local tracer, entered.add)

    def tracers_for(path: str) -> tuple:
        hit = lines.setdefault(path, set()).add

        def local(frame, event, arg):
            if event == "line":
                hit(frame.f_lineno)
            return local

        return local, entered.setdefault(path, set()).add

    # Every name the tracers touch is bound here, not looked up as a
    # module global: at interpreter teardown globals are cleared to None
    # while the tracer is still installed.
    def global_(frame, event, arg, prefix=prefix, tracers=tracers):
        code = frame.f_code
        entry = tracers.get(code.co_filename)
        if entry is None:
            if not code.co_filename.startswith(prefix):
                return None
            entry = tracers_for(code.co_filename[len(prefix) :])
            tracers[code.co_filename] = entry
        entry[1](code.co_firstlineno)
        return entry[0]

    def dump() -> None:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
        record = {
            "pid": os.getpid(),
            "argv": sys.argv,
            "files": {
                path: {
                    "lines": sorted(lines.get(path, ())),
                    "entered": sorted(entered.get(path, ())),
                }
                for path in set(lines) | set(entered)
            },
        }
        name = os.path.join(out_dir, f"reach-{os.getpid()}-{id(record):x}.json")
        with open(name, "w", encoding="utf-8") as handle:
            json.dump(record, handle)

    def forked() -> None:
        # The child keeps its parent's tracer (settrace survives fork) but
        # counts only what it runs itself; the parent dumps the rest.
        lines.clear()
        entered.clear()
        tracers.clear()

    def after_fork(fn) -> None:
        # Process._bootstrap clears the finalizer registry and then runs
        # the after-fork hooks, so this Finalize survives into the child's
        # _exit_function, which a pool worker runs before os._exit.
        multiprocessing.util.Finalize(None, fn, exitpriority=-100)

    os.makedirs(out_dir, exist_ok=True)
    os.register_at_fork(after_in_child=forked)
    atexit.register(dump)  # also keeps ``dump`` alive for the weak registry
    multiprocessing.util.register_after_fork(dump, after_fork)
    threading.settrace(global_)
    sys.settrace(global_)


def start_from_env() -> None:
    out_dir = os.environ.get(DIR_ENV)
    if out_dir:
        start(out_dir, os.environ.get(ROOT_ENV) or str(REPO / "src" / "repro"))


def run(out_dir: str, command: list[str]) -> int:
    """Run ``command`` traced; return its exit status."""
    env = dict(os.environ)
    env[DIR_ENV] = os.path.abspath(out_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE), str(REPO / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    os.makedirs(out_dir, exist_ok=True)
    return subprocess.call(command, env=env)


# -- reporting ----------------------------------------------------------------


class Block(NamedTuple):
    path: str  # relative to the repository root
    qualname: str
    first: int
    last: int
    lines: int  # unreached executable lines in the block
    whole: bool  # the function was never entered


def load(dirs: list[str]) -> tuple[dict[str, set[int]], dict[str, set[int]], int]:
    """Union of every dump under ``dirs``: ``(lines, entered, dumps)``."""
    lines: dict[str, set[int]] = {}
    entered: dict[str, set[int]] = {}
    count = 0
    for directory in dirs:
        for name in sorted(Path(directory).glob("reach-*.json")):
            try:
                record = json.loads(name.read_text(encoding="utf-8"))
            except ValueError:  # a dump cut short by a killed process
                continue
            count += 1
            for path, seen in record["files"].items():
                lines.setdefault(path, set()).update(seen["lines"])
                entered.setdefault(path, set()).update(seen["entered"])
    return lines, entered, count


def _code_lines(code: types.CodeType) -> list[int]:
    return sorted({line for _, _, line in code.co_lines() if line})


def _children(code: types.CodeType) -> Iterator[types.CodeType]:
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield const


def _all(code: types.CodeType) -> Iterator[types.CodeType]:
    """``code`` and every code object nested in it."""
    yield code
    for child in _children(code):
        yield from _all(child)


def _span(code: types.CodeType) -> int:
    """Last line of ``code`` and everything nested in it."""
    return max(line for inner in _all(code) for line in _code_lines(inner))


def _runs(missing: list[int], executable: list[int]) -> Iterator[list[int]]:
    """Split ``missing`` into runs with no reached executable line between."""
    position = {line: index for index, line in enumerate(executable)}
    run: list[int] = []
    for line in missing:
        if run and position[line] != position[run[-1]] + 1:
            yield run
            run = []
        run.append(line)
    if run:
        yield run


def blocks_of(
    path: Path, rel: str, reached: set[int], entered: set[int] | None
) -> Iterator[Block]:
    """Unreached blocks of one source file (``entered`` None: never imported)."""
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    if entered is None:
        executable = _code_lines(module)
        yield Block(rel, "<module>", 1, _span(module), len(executable), True)
        return

    def walk(code: types.CodeType, qualname: str) -> Iterator[Block]:
        executable = _code_lines(code)
        is_module = code is module
        if not is_module and code.co_firstlineno not in entered:
            # A one-line lambda or comprehension shares its only line with
            # the enclosing code, so a reached line says nothing more.
            count = sum(len(_code_lines(c)) for c in _all(code)) - 1
            if count:
                first = code.co_firstlineno
                yield Block(rel, qualname, first, _span(code), count, True)
            return
        own = set(executable)
        if not is_module:
            own.discard(code.co_firstlineno)
        missing = sorted(own - reached)
        for run in _runs(missing, executable):
            yield Block(rel, qualname, run[0], run[-1], len(run), False)
        for child in _children(code):
            yield from walk(child, child.co_qualname)

    yield from walk(module, "<module>")


def collect_blocks(dirs: list[str], root: Path) -> tuple[list[Block], int]:
    lines, entered, dumps = load(dirs)
    blocks: list[Block] = []
    for path in sorted(root.rglob("*.py")):
        key = str(path.relative_to(root))
        rel = str(path.relative_to(REPO)) if path.is_relative_to(REPO) else str(path)
        # A module that ran recorded its own entry; None: never imported.
        blocks.extend(blocks_of(path, rel, lines.get(key, set()), entered.get(key)))
    return blocks, dumps


class Reason(NamedTuple):
    lines: int  # unreached lines the function may have at most
    group: str  # one of GROUPS
    why: str


#: ``kept``: stays unreached on purpose (a name ``bench/instrument.py``
#: resolves, CI-only code, a typing-only import, an optional dependency's
#: fallback).  ``to-test``: safety code, error handling or a refusal that
#: a test should drive and none does yet.  ``to-delete``: a branch for a
#: shape no suite program and no test has, not yet deleted.
GROUPS = ("kept", "to-test", "to-delete")


def read_reasons(path: str) -> dict[tuple[str, str], Reason]:
    """``(file, qualified name) -> Reason`` from a tab-separated table of
    ``file, qualname, lines, group, reason`` rows."""
    reasons: dict[tuple[str, str], Reason] = {}
    rows = Path(path).read_text(encoding="utf-8").splitlines()
    for number, raw in enumerate(rows, 1):
        if not raw.strip() or raw.startswith("#"):
            continue
        fields = raw.split("\t")
        if (
            len(fields) != 5
            or not fields[2].isdigit()
            or fields[3] not in GROUPS
            or not fields[4].strip()
        ):
            raise SystemExit(
                f"{path}:{number}: want file<TAB>qualname<TAB>lines"
                f"<TAB>{'|'.join(GROUPS)}<TAB>reason"
            )
        key = (fields[0], fields[1])
        if key in reasons:
            raise SystemExit(f"{path}:{number}: second row for {key}")
        reasons[key] = Reason(int(fields[2]), fields[3], fields[4].strip())
    return reasons


def report(dirs: list[str], reasons_path: str | None, root: Path) -> int:
    blocks, dumps = collect_blocks(dirs, root)
    reasons = read_reasons(reasons_path) if reasons_path else {}
    unreached: dict[tuple[str, str], int] = {}
    for b in blocks:
        key = (b.path, b.qualname)
        unreached[key] = unreached.get(key, 0) + b.lines
    print(f"{dumps} process dumps read")
    for title, group in (
        ("functions never entered", [b for b in blocks if b.whole]),
        ("unreached lines", [b for b in blocks if not b.whole]),
    ):
        print(f"\n{title}: {len(group)} blocks, {sum(b.lines for b in group)} lines")
        for b in group:
            row = reasons.get((b.path, b.qualname))
            why = f"[{row.group}] {row.why}" if row else "NO REASON"
            print(f"  {b.path}:{b.first}-{b.last} {b.qualname} ({b.lines}) — {why}")
    print("\nrows by group:")
    for name in GROUPS:
        keys = [key for key, row in reasons.items() if row.group == name]
        lines = sum(unreached.get(key, 0) for key in keys)
        print(f"  {name}: {len(keys)} functions, {lines} unreached lines")
    failures: list[str] = []
    for key, count in sorted(unreached.items()):
        row = reasons.get(key)
        if row is None:
            failures.append(f"{key[0]}\t{key[1]}\t{count}\tno row")
        elif count > row.lines:
            failures.append(f"{key[0]}\t{key[1]}\t{count}\trow allows {row.lines}")
        elif count < row.lines:
            print(f"  lower: {key[0]} {key[1]} to {count} (row allows {row.lines})")
    for key in sorted(set(reasons) - set(unreached)):
        failures.append(f"{key[0]}\t{key[1]}\t0\tstale row: nothing unreached")
    if not dumps:
        print("FAIL: no process dump found: was the command run under `reach.py run`?")
        return 1
    if reasons_path and failures:
        print(f"\nFAIL: {len(failures)} functions disagree with the reasons table:")
        for line in failures:
            print(f"  {line}")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run_p = sub.add_parser("run", help="run a command with the collector loaded")
    run_p.add_argument("dir")
    run_p.add_argument("command", nargs=argparse.REMAINDER)
    rep_p = sub.add_parser("report", help="print unreached blocks")
    rep_p.add_argument("dirs", nargs="+")
    rep_p.add_argument("--reasons")
    rep_p.add_argument("--root", default=str(REPO / "src" / "repro"))
    args = parser.parse_args(argv)
    if args.cmd == "run":
        command = args.command[1:] if args.command[:1] == ["--"] else args.command
        status = run(args.dir, command)
        # Printed, not returned: the verdict is the report's (timing gates
        # read slow under the tracer, so a traced test run may fail).
        print(f"reach: {' '.join(command)} exited {status}")
        return 0
    return report(args.dirs, args.reasons, Path(args.root).resolve())


if __name__ == "__main__":
    sys.exit(main())
