"""Every demo script runs to completion against the source tree."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, src_env):
    # Under ``python -O`` the demo runs without asserts too.
    flags = ["-O"] * sys.flags.optimize
    proc = subprocess.run([sys.executable, *flags, str(script)], capture_output=True,
                          text=True, env=src_env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
