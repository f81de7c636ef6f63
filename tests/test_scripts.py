import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_reproduce_examples_edges_match_closed_form():
    result = run_script("reproduce_examples.py")
    assert result.returncode == 0, result.stderr
    regimes = re.findall(r"t in \[\s*([\d.]+),\s*([\d.]+)\]", result.stdout)
    edges = [hi for _, hi in regimes[:-1]]
    closed = re.search(r"closed-form curve crossings: ([\d.]+), ([\d.]+)", result.stdout)
    assert closed is not None
    assert edges == list(closed.groups())

