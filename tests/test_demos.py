"""Every demo script runs cleanly against this checkout's package."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import modwick

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    src = os.path.dirname(os.path.dirname(modwick.__file__))
    proc = subprocess.run([sys.executable, str(demo)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
