"""Shared infrastructure for the experiment benchmarks.

Each ``test_*`` module regenerates one table or figure of the paper's
evaluation (see DESIGN.md's experiment index).  Compilations are cached
session-wide; measured rows are printed so `pytest benchmarks/
--benchmark-only -s` reproduces the paper-style output, and the numbers
are also written to EXPERIMENTS-measured reference output.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# One compiled suite per session: the cache lives beside the unit tests
# (tests/suite_cache.py) and both directories import the same module.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))

from suite_cache import compiled  # noqa: E402,F401


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Render a paper-style table to the terminal."""
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


@pytest.fixture(scope="session")
def table_printer():
    return print_table
