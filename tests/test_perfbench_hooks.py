"""The traced benchmark's layer hooks must resolve against the program.

``perfbench/spans.py`` wraps public methods by name.  Installing the
hooks in a fresh interpreter (they patch classes process-wide) turns a
renamed or deleted hooked method into a test failure here, instead of a
broken traced benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_spans_install_resolves_every_hook():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         "import spans; spans.install(spans.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
