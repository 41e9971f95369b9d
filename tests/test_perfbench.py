"""The benchmark runs against this checkout's package.

``perfbench/`` calls the package by name and signature; a change in
``src/`` that it does not follow fails its self-check while every other
test stays green.  The test reads ``perfbench/`` and edits nothing in it.
"""

import subprocess
import sys
from pathlib import Path

from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent


def test_self_check_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-check"],
        cwd=ROOT, capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "self-check ok"
