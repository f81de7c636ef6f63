import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))


@pytest.fixture
def kbounds_cli():
    """Run the kbounds CLI of this source tree; returns its stdout."""

    def run(*args: str, expect: int = 0) -> str:
        proc = subprocess.run(
            [sys.executable, "-m", "kbounds", *args],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == expect, proc.stderr
        return proc.stdout

    return run
