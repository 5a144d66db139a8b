"""Every script under ``examples/`` runs to completion.

The examples are the first code a reader copies, so each one runs in a
fresh interpreter (as ``python examples/<name>.py`` would) and must exit
0.  Each asserts its own results against the sequential semantics.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "script", sorted(EXAMPLES.glob("*.py")), ids=lambda path: path.stem
)
def test_example_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, str(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
