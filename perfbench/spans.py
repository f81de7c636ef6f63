"""Reading the launcher's span files and turning them into per-layer times.

Self time is apportioned across threads: at each instant, the threads whose
innermost span is a layer function share that instant equally, and it goes
to the innermost function of each.  The `cli` layer gets the rest of the
entry span, i.e. the entry point's time minus the time inside wrapped calls.
So the six layers' self times add up to the entry span's wall time even when
the CLI's thread pool runs rows concurrently.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

LAYERS = ("scenario", "bounds", "tails", "selection", "oracle", "cli")
_DTYPES = (("fn", np.int32), ("parent", np.int32), ("start", np.int64), ("end", np.int64))


def load(prefix: Path) -> tuple[dict, dict]:
    """The metadata and span columns one traced command wrote.

    Parents come back as indices into the whole table.
    """
    meta = json.loads(Path(f"{prefix}.json").read_text())
    per_thread = np.asarray(meta["thread_spans"], dtype=np.int64)
    n = int(per_thread.sum())
    cols = {}
    with open(f"{prefix}.bin", "rb") as handle:
        for name, dtype in _DTYPES:
            cols[name] = np.fromfile(handle, dtype=dtype, count=n)
    thread = np.repeat(np.arange(per_thread.size), per_thread)
    base = np.concatenate([[0], np.cumsum(per_thread)[:-1]])
    parent = cols["parent"].astype(np.int64)
    cols["parent"] = np.where(parent >= 0, parent + base[thread], -1)
    return meta, cols


def self_times(layers: list[str], cols: dict) -> tuple[np.ndarray, float, float]:
    """Apportioned self seconds per function id, cli self seconds, entry seconds."""
    fn, parent = cols["fn"], cols["parent"]
    start = cols["start"].astype(np.float64) * 1e-9
    end = cols["end"].astype(np.float64) * 1e-9
    is_cli = np.array([layer == "cli" for layer in layers], dtype=bool)[fn]
    parent_cli = np.where(parent >= 0, is_cli[np.maximum(parent, 0)], True)
    top = ~is_cli & parent_cli  # outermost layer spans of each thread
    # active(u): threads inside a layer span; W(u) integrates 1/active
    times = np.concatenate([start[top], end[top]])
    steps = np.concatenate([np.ones(top.sum()), -np.ones(top.sum())])
    order = np.argsort(times, kind="stable")
    times, steps = times[order], steps[order]
    active = np.cumsum(steps)
    rate = np.where(active > 0, 1.0 / np.maximum(active, 1), 0.0)
    gaps = np.diff(times)
    w_at = np.concatenate([[0.0], np.cumsum(rate[:-1] * gaps)]) if times.size else times
    covered = float(np.sum(gaps[active[:-1] > 0])) if times.size else 0.0

    def w(x):
        if times.size == 0:
            return np.zeros_like(x)
        i = np.searchsorted(times, x, side="right") - 1
        inside = i >= 0
        i = np.maximum(i, 0)
        return np.where(inside, w_at[i] + (x - times[i]) * rate[i], 0.0)

    total = np.where(is_cli, 0.0, w(end) - w(start))
    child = np.bincount(parent[parent >= 0], weights=total[parent >= 0],
                        minlength=fn.size)
    own = np.where(is_cli, 0.0, total - child)
    per_fn = np.bincount(fn, weights=own, minlength=len(layers))
    entry = float(np.sum((end - start)[is_cli & (parent < 0)]))
    return per_fn, entry - covered, entry


def summarize(prefix: Path) -> dict:
    """Per-command figures: calls and self time per function, per layer."""
    meta, cols = load(prefix)
    names, layers = meta["names"], meta["layers"]
    per_fn, cli_self, entry = self_times(layers, cols)
    calls = np.bincount(cols["fn"], minlength=len(names))
    layer_self = {layer: 0.0 for layer in LAYERS}
    for layer, s in zip(layers, per_fn):
        if layer != "cli":
            layer_self[layer] += float(s)
    layer_self["cli"] = cli_self
    is_entry = np.array(layers)[cols["fn"]] == "cli"
    return {
        "calls": {name: int(c) for name, c in zip(names, calls)},
        "self_s": {name: float(s) for name, s in zip(names, per_fn)},
        "layer_self_s": layer_self,
        "entry_s": entry,
        "entry_ns": int(cols["start"][is_entry].min()),
        "import_s": meta["import_ns"] * 1e-9,
        "counts": meta["counts"],
        "distinct": meta["distinct"],
    }
