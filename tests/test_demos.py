"""Each demo script runs to completion against the package's exports."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
ARGS = {"blowup_growth.py": ["4"]}  # a shorter table than the default n_max = 5


@pytest.mark.parametrize(
    "script", sorted(name for name in os.listdir(DEMOS) if name.endswith(".py")))
def test_demo_exits_0(script):
    path = os.environ.get("PYTHONPATH")
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, script), *ARGS.get(script, [])],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
