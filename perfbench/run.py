"""kbounds benchmark: run one workload's CLI commands, check them, print metrics.

    python3 perfbench/run.py --workload fixture-cli --seed 1 --seconds 30 --trace 0

Run it from the root of a kbounds source tree; commands run against that
tree's `src/`.  One operation is one `python -m kbounds ...` invocation in a
fresh child process, one at a time, with the CLI's default thread count.  A
run repeats whole rounds of the workload's operations for about `--seconds`:
it starts another round only while that round would end less than half a
round past `--seconds`, so short workloads repeat and long ones run once.  Every output is checked against the independent reference
(`reference.py`).  An operation fails when it exits with another code than a
correct run would, or when its output fails a check; a failed check also
makes the run incorrect.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates an
untraced round with a round launched through `launcher.py`, which records
spans around every layer function, and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_EVERY = 4  # operations per set-up sample
COMMAND_TIMEOUT_S = 150


@dataclass
class Execution:
    op: workloads.Op
    wall_s: float
    code: int
    stdout: str
    failed: bool
    wrong: str | None  # why the output failed its check
    spawn_ns: int
    stderr_tail: str
    trace: dict | None = None  # spans.summarize() of a traced execution


class Bench:
    def __init__(self, root: Path, tmp: Path):
        self.root = root
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.verified: set[tuple[str, str]] = set()
        self.traced_count = 0
        self.setup: list[float] = []

    def spawn(self, argv: list[str]) -> tuple[float, int, str, str, int]:
        spawn_ns = time.perf_counter_ns()
        try:
            proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, stdin=subprocess.DEVNULL,
                                  timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            wall = (time.perf_counter_ns() - spawn_ns) * 1e-9
            return wall, -9, "", f"timed out after {exc.timeout} s", spawn_ns
        wall = (time.perf_counter_ns() - spawn_ns) * 1e-9
        return wall, proc.returncode, proc.stdout, proc.stderr, spawn_ns

    def probe(self) -> str | None:
        """Why kbounds cannot be benchmarked from this tree, or None."""
        if not (self.root / "src" / "kbounds" / "cli.py").is_file():
            return "no src/kbounds/cli.py under the current directory"
        if not (self.root / "fixtures").is_dir():
            return "no fixtures/ directory under the current directory"
        _, code, out, err, _ = self.spawn(
            [sys.executable, "-c", "import kbounds; print(kbounds.__file__)"])
        if code != 0:
            return f"importing kbounds failed: {err.strip()[-300:]}"
        where = Path(out.strip()).resolve()
        if (self.root / "src") not in where.parents:
            return f"kbounds resolves to {where}, not to this tree's src/"
        return None

    def sample_setup(self) -> None:
        """Time a fresh interpreter that imports kbounds and prints --help."""
        wall, code, out, err, _ = self.spawn([sys.executable, "-m", "kbounds", "--help"])
        if code != 0 or "usage" not in out:
            raise RuntimeError(f"kbounds --help failed: {err.strip()[-300:]}")
        self.setup.append(wall)

    def execute(self, op: workloads.Op, traced: bool) -> Execution:
        if traced:
            self.traced_count += 1
            prefix = self.tmp / f"trace{self.traced_count}"
            argv = [sys.executable, str(HERE / "launcher.py"), str(prefix), "--", *op.argv]
        else:
            argv = [sys.executable, "-m", "kbounds", *op.argv]
        wall, code, out, err, spawn_ns = self.spawn(argv)
        failed, wrong = False, None
        if code != 0:  # every operation is one a correct program completes
            failed = True
        else:
            # Each round repeats the same inputs; identical bytes need one check.
            key = (op.label, hashlib.sha256(out.encode()).hexdigest())
            if key not in self.verified:
                try:
                    op.check(out)
                    self.verified.add(key)
                except checks.CheckError as exc:
                    failed, wrong = True, str(exc)
        run = Execution(op, wall, code, out, failed, wrong, spawn_ns, err.strip()[-200:])
        if traced:
            run.trace = spans.summarize(prefix)
            for suffix in (".bin", ".json"):
                Path(f"{prefix}{suffix}").unlink(missing_ok=True)
        return run

    def round(self, ops, traced: bool) -> list[Execution]:
        # Set-up samples are spread over the run like the operations, so
        # that the machine's drifting speed weighs on both alike.
        runs = []
        for i, op in enumerate(ops):
            if i % SETUP_EVERY == 0:
                self.sample_setup()
            runs.append(self.execute(op, traced))
        return runs


def _emitted(run: Execution) -> int:
    """Certificate rows (tail) or (t, group) values (sweep) the command printed."""
    lines = run.stdout.splitlines()[1:]
    if run.op.kind == "tail":
        return len(lines)
    groups = len(run.stdout.split("\n", 1)[0].split(",")) - 1
    return groups * sum(1 for line in lines if not line.startswith("crossover,"))


def walls_by_op(runs: list[Execution]) -> dict[str, list[float]]:
    """Wall times of each distinct operation, in workload order."""
    walls: dict[str, list[float]] = {}
    for r in runs:
        walls.setdefault(r.op.label, []).append(r.wall_s)
    return walls


def end_to_end(rounds: list[list[Execution]], setup: list[float]) -> dict:
    runs = [r for rnd in rounds for r in rnd]
    per_op = walls_by_op(runs).values()

    def kind(k):
        return [r for r in runs if r.op.kind == k]

    tails, sweeps, verifies = kind("tail"), kind("sweep"), kind("verify")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "cmd_p50_s": (statistics.median(r.wall_s for r in runs), "s"),
        "cmd_max_s": (max(statistics.median(w) for w in per_op), "s"),
        "certs_per_s": (sum(map(_emitted, tails)) / sum(r.wall_s for r in tails), "1/s"),
        "curve_points_per_s": (sum(map(_emitted, sweeps)) / sum(r.wall_s for r in sweeps),
                               "1/s"),
        "pmfs_per_s": (sum(r.op.pmfs for r in verifies if not r.failed)
                       / sum(r.wall_s for r in verifies), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
                        "MB"),
    }


# Per-layer metrics read from the spans: (metric, function it needs, figure).
# A "count" figure is the launcher counter of the metric's own name.
SPAN_METRICS = (
    ("selection.optimize_exact.calls", "selection.optimize_exact", "calls"),
    ("selection.optimize_exact.self_s", "selection.optimize_exact", "self_s"),
    ("selection.lattice_vectors", "selection.optimize_exact", "count"),
    ("selection.distinct_ratio", "selection.optimize_exact", "ratio"),
    ("bounds.mgf_bound.calls", "bounds.mgf_bound", "calls"),
    ("bounds.mgf_bound.self_s", "bounds.mgf_bound", "self_s"),
    ("bounds.mgf_bound.distinct_ratio", "bounds.mgf_bound", "ratio"),
    ("bounds.multiplier_log.calls", "bounds.multiplier_log", "calls"),
    ("tails.certificates", None, "count"),
    ("oracle.validity_gap.calls", "oracle.validity_gap", "calls"),
    ("oracle.validity_gap.self_s", "oracle.validity_gap", "self_s"),
    ("oracle.s_points", "oracle.validity_gap", "count"),
    ("oracle.exact_log_mgf.calls", "oracle.exact_log_mgf", "calls"),
    ("oracle.random_mean_zero_pmf.self_s", "oracle.random_mean_zero_pmf", "self_s"),
    ("oracle.moment_matched_pmf.calls", "oracle.moment_matched_pmf", "calls"),
    ("oracle.mc_sum_tail.samples", "oracle.mc_sum_tail", "count"),
    ("oracle.mc_sum_tail.self_s", "oracle.mc_sum_tail", "self_s"),
    ("scenario.load_scenario.self_s", "scenario.load_scenario", "self_s"),
)
UNITS = {"calls": "count", "self_s": "s", "count": "count", "ratio": "ratio"}


def _per_round_layers(plain: list[Execution], traced: list[Execution]) -> dict:
    """Per-layer figures of one traced round; absent functions are left out."""
    summaries = [r.trace for r in traced]
    present = set().union(*(s["calls"] for s in summaries))

    def total(field, key):
        return sum(s[field].get(key, 0) for s in summaries)

    def figure(metric, fn, kind):
        if kind == "count":
            return total("counts", metric)
        if kind == "ratio":
            calls = total("calls", fn)
            return total("distinct", fn) / calls if calls else 0.0
        return total(kind, fn)

    out = {metric: (figure(metric, fn, kind), UNITS[kind])
           for metric, fn, kind in SPAN_METRICS if fn is None or fn in present}
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = (total("layer_self_s", layer), "s")
    traced_wall = sum(r.wall_s for r in traced)
    startup = sum((r.trace["entry_ns"] - r.spawn_ns) * 1e-9 for r in traced)
    out["startup.import_s"] = (sum(s["import_s"] for s in summaries), "s")
    out["cli.csv_bytes"] = (sum(len(r.stdout.encode()) for r in traced), "bytes")
    out["trace.overhead_s"] = (traced_wall - sum(r.wall_s for r in plain), "s")
    out["trace.coverage"] = (sum(s["entry_s"] for s in summaries) / (traced_wall - startup),
                             "ratio")
    return out


def per_layer(pairs) -> dict:
    figures = [_per_round_layers(plain, traced) for plain, traced in pairs]
    names = set().union(*figures)
    return {name: (statistics.median(f[name][0] for f in figures if name in f),
                   next(f[name][1] for f in figures if name in f))
            for name in sorted(names)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # On SIGTERM, unwind: the running child is killed and reaped, and the
    # temporary directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    bench = Bench(root, Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root)))
    try:
        problem = bench.probe()
        if problem:
            print(f"error: {problem}", file=sys.stderr)
            return 2
        bench.sample_setup()  # warms the byte-code cache; not counted
        bench.setup.clear()
        ops = workloads.WORKLOADS[args.workload](args.seed, root, bench.tmp)
        rounds = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            if args.trace:
                rounds.append((bench.round(ops, False), bench.round(ops, True)))
            else:
                rounds.append(bench.round(ops, False))
            now = time.perf_counter()
            # another round only if it would end less than half a round late
            if now - start + (now - began) / 2 >= args.seconds:
                break
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)

    runs = [r for rnd in rounds for r in (rnd[0] + rnd[1] if args.trace else rnd)]
    metrics = per_layer(rounds) if args.trace else end_to_end(rounds, bench.setup)
    reported = set()
    for r in runs:
        if r.failed and r.op.label not in reported:
            reported.add(r.op.label)
            why = r.wrong or f"exit {r.code}: {r.stderr_tail}"
            print(f"FAILED {r.op.label}: {why}")
    plain = [r for rnd in rounds for r in (rnd[0] if args.trace else rnd)]
    for label, walls in walls_by_op(plain).items():
        print(f"op {label:28s} {statistics.median(walls):9.4f} s  x{len(walls)}")
    print(f"rounds {len(rounds)}, setup runs {len(bench.setup)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not any(r.wrong for r in runs),
        "attempted": len(runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
