"""Smoke tests of the demos: each runs to the end without a traceback."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")


def _env(tmp=None):
    """The environment with src importable; with `tmp`, that directory also
    leads PATH and holds the temporary files."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    if tmp:
        env["PATH"] = os.pathsep.join((tmp, env.get("PATH", "")))
        env["TMPDIR"] = tmp
    return env


def _ran_cleanly(proc):
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("demo", ["globalization_walkthrough.py", "smash_and_corner.py"])
def test_python_demo_runs(demo):
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, demo)],
                          capture_output=True, text=True, env=_env(), timeout=120)
    _ran_cleanly(proc)


def test_cli_tour_runs(tmp_path):
    # the tour calls `phopf`; a shim on PATH runs this interpreter's module
    shim = tmp_path / "phopf"
    shim.write_text('#!/bin/sh\nexec "%s" -m phopf "$@"\n' % sys.executable)
    shim.chmod(0o755)
    proc = subprocess.run(["sh", os.path.join(DEMOS, "cli_tour.sh")],
                          capture_output=True, text=True, env=_env(str(tmp_path)),
                          timeout=300)
    _ran_cleanly(proc)
    assert "associative: True" in proc.stdout
