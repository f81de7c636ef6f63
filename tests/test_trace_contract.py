"""The benchmark's traced launcher still sees every layer function it reports.

``perfbench/launcher.py`` wraps the public functions each layer module
defines, and ``perfbench/run.py`` leaves out a per-layer metric whose function
was not wrapped.  So a function that ``run.SPAN_METRICS`` names must stay
defined in its layer module, and every counter the launcher writes must be a
finite JSON number.  Each case runs a command through the launcher, as
``perfbench/tests/test_spans.py`` does, and once untraced.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

COMMANDS = {
    "verify scenario": ["verify", "fixtures/example5.json", "--samples", "1000"],
    "verify random": ["verify", "--random", "--pmfs", "5", "--samples", "1000"],
}


def span_functions() -> set[str]:
    """The functions ``perfbench/run.py``'s per-layer metrics read."""
    sys.path.insert(0, str(BENCH))  # run.py imports its sibling modules by name
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = run  # its dataclasses look their module up
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(BENCH))
    return {fn for _, fn, _ in run.SPAN_METRICS if fn is not None}


def kbounds(argv, tmp_path=None):
    """The command's process, through the launcher when ``tmp_path`` is given."""
    if tmp_path is None:
        prefix = [sys.executable, "-m", "kbounds"]
    else:
        prefix = [sys.executable, str(BENCH / "launcher.py"), str(tmp_path / "trace"), "--"]
    return subprocess.run([*prefix, *argv], cwd=ROOT, env=ENV, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("name", list(COMMANDS))
def test_traced_run_keeps_output_and_every_span_metric(tmp_path, name):
    argv = COMMANDS[name]
    traced = kbounds(argv, tmp_path)
    assert traced.returncode == 0, traced.stderr[-500:]
    assert traced.stdout == kbounds(argv).stdout
    meta = json.loads((tmp_path / "trace.json").read_text())
    assert span_functions() <= set(meta["names"])
    json.dumps(meta["counts"], allow_nan=False)  # NaN or Infinity is not JSON
