"""Settings and fixtures shared by every test module."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# Every property test draws the same examples on every run and keeps no
# example database; a test sets only its own `max_examples`.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def run_demo():
    """Run demos/<name> in a fresh interpreter on this checkout's src; return its stdout."""
    def run(name):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout
    return run
