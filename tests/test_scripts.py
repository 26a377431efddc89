"""Smoke tests for the scripts under scripts/, run as a user would run them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_extremal_table_rows():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "scripts/extremal_table.py",
         "--binary-max", "3", "--mod", "3:1", "--capset-max", "2"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert rows == [
        ["setting", "n", "max", "optimal", "nodes", "bound"],
        ["binary", "1", "2", "True", "3", "6"],
        ["binary", "2", "3", "True", "7", "9"],
        ["binary", "3", "5", "True", "17", "48"],
        ["mod-3", "1", "2", "True", "3", "3"],
        ["capset", "1", "2", "True", "3", "3"],
        ["capset", "2", "4", "True", "9", "9"],
    ]
