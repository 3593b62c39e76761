"""Every script under ``examples/`` runs to completion.

The examples are the README's entry points and nothing else imports them, so
an API change can break them silently.  Each runs as its own process from a
temporary working directory (they write artifacts and the TPC-H cache into
the cwd; nothing may land in the repository).
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def test_every_example_exits_zero(tmp_path):
    assert EXAMPLES, "no example scripts found"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    root_before = sorted(p.name for p in REPO.iterdir())
    failures = []
    for script in EXAMPLES:
        done = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=300)
        if done.returncode != 0:
            failures.append(f"{script.name}: exit {done.returncode}\n"
                            f"{done.stderr[-2000:]}")
    assert not failures, "\n".join(failures)
    assert (tmp_path / "profiling_output" / "q6_trace.json").exists()
    assert sorted(p.name for p in REPO.iterdir()) == root_before
