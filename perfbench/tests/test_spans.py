"""Span accounting and the traced launcher."""

import os
import subprocess
import sys
import types

import numpy as np
import pytest

import launcher
import run
import spans
from conftest import BENCH, ROOT

LAYERS = ["cli", "bounds", "tails", "selection"]  # function id -> layer


def _cols(rows):
    """rows of (fn, parent, start, end), parents as table indices."""
    fn, parent, start, end = (np.array(c) for c in zip(*rows))
    return {"fn": fn, "parent": parent,
            "start": start.astype(np.int64), "end": end.astype(np.int64)}


def test_concurrent_threads_share_wall_time():
    # main thread: entry [0, 100]; thread 1: bounds [10, 50] with a tails
    # child [20, 30]; thread 2: selection [40, 60].  [40, 50] has two active
    # threads, so each gets half of it.
    cols = _cols([
        (0, -1, 0, 100),
        (1, -1, 10, 50),  # thread 1
        (2, 1, 20, 30),  # thread 1
        (3, -1, 40, 60),  # thread 2
    ])
    per_fn, cli_self, entry = spans.self_times(LAYERS, cols)
    scale = 1e9  # columns are nanoseconds
    assert per_fn * scale == pytest.approx([0.0, 25.0, 10.0, 15.0])
    assert cli_self * scale == pytest.approx(50.0)
    assert (per_fn.sum() + cli_self) * scale == pytest.approx(entry * scale)


def test_nested_spans_in_one_thread():
    cols = _cols([
        (0, -1, 0, 100),
        (1, 0, 10, 90),
        (2, 1, 20, 40),
        (1, 2, 25, 35),
    ])
    per_fn, cli_self, _ = spans.self_times(LAYERS, cols)
    assert per_fn * 1e9 == pytest.approx([0.0, 60.0 + 10.0, 10.0, 0.0])
    assert cli_self * 1e9 == pytest.approx(20.0)


def _trace(tmp_path, *args):
    prefix = tmp_path / "t"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "launcher.py"), str(prefix), "--", *args],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    return proc, spans.summarize(prefix)


def test_launcher_traces_a_threaded_command(tmp_path):
    proc, summary = _trace(tmp_path, "tail", "fixtures/example5.json", "--t", "2", "6",
                           "8", "--side", "two_sided", "--threads", "2")
    assert proc.returncode == 0
    assert proc.stdout.startswith("t,log_bound,s_star,ks,ks_mirror\n")
    assert summary["calls"]["selection.optimize_exact"] == 6
    assert summary["counts"]["selection.lattice_vectors"] == 6 * 8 ** 4
    assert summary["counts"]["tails.certificates"] == 3
    total = sum(summary["layer_self_s"].values())
    assert total == pytest.approx(summary["entry_s"], rel=1e-9)
    assert summary["layer_self_s"]["selection"] > 0.5 * summary["entry_s"]


def test_launcher_keeps_the_exit_code(tmp_path):
    proc, summary = _trace(tmp_path, "verify", "--random", "--a=-1e6", "--b", "3e6")
    assert proc.returncode == 2
    assert "not zero" in proc.stderr
    assert summary["calls"]["oracle.extremal_two_point"] == 1


def test_missing_functions_are_skipped_not_fatal():
    def optimize_exact(variables, t):  # k_max argument renamed away
        return None

    modules = {name: types.SimpleNamespace() for name in ("bounds", "oracle", "tails")}
    modules["selection"] = types.SimpleNamespace(optimize_exact=optimize_exact)
    assert launcher.Tracer()._hooks(modules) == {}


def test_absent_function_metrics_are_left_out():
    summary = {
        "calls": {"bounds.mgf_bound": 4, "cli.main": 1},
        "self_s": {"bounds.mgf_bound": 0.5, "cli.main": 0.0},
        "counts": {},
        "distinct": {"bounds.mgf_bound": 2},
        "layer_self_s": {layer: 0.25 for layer in spans.LAYERS},
        "entry_s": 1.5,
        "entry_ns": 2_000_000_000,
        "import_s": 0.1,
    }
    op = types.SimpleNamespace(kind="tail")
    traced = run.Execution(op, 2.0, 0, "t\n", False, None, 1_000_000_000, "", summary)
    plain = run.Execution(op, 1.0, 0, "t\n", False, None, 0, "")
    metrics = run._per_round_layers([plain], [traced])
    assert "selection.optimize_exact.calls" not in metrics
    assert "oracle.validity_gap.self_s" not in metrics
    assert metrics["bounds.mgf_bound.distinct_ratio"] == (0.5, "ratio")
    assert metrics["trace.overhead_s"] == (1.0, "s")
    assert metrics["trace.coverage"] == (1.5, "ratio")
