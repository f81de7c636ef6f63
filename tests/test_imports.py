"""Which commands load numpy, read from `python -X importtime -m kbounds`.

The bounds, scenarios, selection and tails are plain Python, `t_range` grids,
`sweep`'s (group x t) table and ``optimize_relaxed`` included, and so is a
scenario `verify`: its laws, gaps and exact sum tails.  numpy loads only
where pmf stacks are drawn or used: `verify --random` with random pmfs, and
the stack functions of ``kbounds.oracle`` (its ``S_GRID`` too).  The package
exports the pure-Python names alone, so an oracle name is reached through
``kbounds.oracle`` and never through ``kbounds`` itself.  No command loads
``dataclasses``, and none without numpy loads ``inspect`` (numpy does).
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kbounds

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(path for path in (SRC / "kbounds").glob("*.py") if path.name != "__init__.py")
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
EXAMPLE5 = str(FIXTURES / "example5.json")
# a fixed-choice scenario, written by the test as fixed.json
FIXED = {
    "format_version": 1,
    "variables": [{"a": -1, "b": 2}, {"a": -2, "b": 2, "m2": 1}],
    "choices": [{"family": "hertz"}, {"family": "order2_moment"}],
}

# (python arguments, exit code); each runs with importtime on
WITHOUT_NUMPY = {
    "--help": (["-m", "kbounds", "--help"], 0),
    "bound": (["-m", "kbounds", "bound", "--a=-2", "--b", "1", "--compare", "--s", "3"], 0),
    "select": (["-m", "kbounds", "select", EXAMPLE5, "--t", "6.5"], 0),
    "tail auto": (["-m", "kbounds", "tail", EXAMPLE5, "--t", "3", "6.5", "--side",
                   "two_sided"], 0),
    "tail fixed": (["-m", "kbounds", "tail", "fixed.json", "--t", "0.5", "1", "2",
                    "--side", "two_sided"], 0),
    "tail t <= 0": (["-m", "kbounds", "tail", EXAMPLE5, "--t", "-1"], 2),
    "import kbounds": (["-c", "import kbounds"], 0),
    "sweep": (["-m", "kbounds", "sweep", EXAMPLE5, "--t-range", "1", "2", "3",
               "--group", "1,1,1,1"], 0),
    "sweep fixed": (["-m", "kbounds", "sweep", "fixed.json", "--t-range", "0.5", "4",
                     "20"], 0),
    "tail t_range": (["-m", "kbounds", "tail", EXAMPLE5, "--t-range", "1", "2", "3"], 0),
    "tail file t_range": (["-m", "kbounds", "tail", EXAMPLE5], 0),
    "optimize_relaxed": (["-c", "from kbounds import BoundedSupport, optimize_relaxed; "
                          "optimize_relaxed([BoundedSupport(-1, 2), BoundedSupport(-5, 1)], 3)"],
                         0),
    "verify scenario": (["-m", "kbounds", "verify", EXAMPLE5], 0),
    "verify fixed": (["-m", "kbounds", "verify", "fixed.json"], 0),
    "verify random laws": (["-m", "kbounds", "verify", "--random", "--pmfs", "0"], 0),
    "oracle name": (["-c", "from kbounds.oracle import FinitePmf"], 0),
}
WITH_NUMPY = {
    "verify": (["-m", "kbounds", "verify", "--random", "--pmfs", "5", "--samples",
                "1000"], 0),
    "oracle grid": (["-c", "from kbounds.oracle import S_GRID"], 0),
}

# every name kbounds/__init__.py exports
EXPORTED = """
    CLASSIC HERTZ ORDER2_MOMENT ORDER4_MOMENT SYMMETRIC_ORDER4 BoundedSupport
    Family FamilyTag MgfBound catalog endpoint_ratio eval_log_mgf_bound mgf_bound
    moment_caps multiplier_log order_k phi psi reads_moments upsilon_log
    Query Scenario ScenarioError load_scenario parse_scenario
    KSelection ParetoFront RelaxedSolution best_k_single
    best_region_partition crossover_table crossover_threshold optimize_exact
    optimize_relaxed pareto_front
    Side SumScenario TailCertificate lower_tail mirror
    one_sided_tail order_k_scenario two_sided_tail
    __version__ bounds scenario selection tails
""".split()


def imported_modules(tmp_path, args, code):
    """The top-level names of every module the run imported."""
    (tmp_path / "fixed.json").write_text(json.dumps(FIXED))
    args = [str(tmp_path / arg) if arg == "fixed.json" else arg for arg in args]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    result = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == code, result.stderr[-500:]
    return {
        line.rsplit("|", 1)[1].strip().split(".")[0]
        for line in result.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


@pytest.mark.parametrize("name", list(WITHOUT_NUMPY))
def test_starts_without_numpy(tmp_path, name):
    modules = imported_modules(tmp_path, *WITHOUT_NUMPY[name])
    assert "kbounds" in modules
    assert not modules & {"numpy", "dataclasses", "inspect"}


@pytest.mark.parametrize("name", list(WITH_NUMPY))
def test_array_paths_load_numpy(tmp_path, name):
    modules = imported_modules(tmp_path, *WITH_NUMPY[name])
    assert "numpy" in modules
    assert "dataclasses" not in modules


def test_exported_names_resolve():
    listed = dir(kbounds)
    for name in EXPORTED:
        namespace = {}
        exec(f"from kbounds import {name}", namespace)
        assert namespace[name] is getattr(kbounds, name), name
        assert name in listed, name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        kbounds.no_such_name


def test_oracle_names_are_not_exported():
    with pytest.raises(ImportError, match="FinitePmf"):
        from kbounds import FinitePmf  # noqa: F401


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads (``__future__`` aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unread_import_is_found():
    source = "import math\nfrom .tails import Side, one_side\n\none_side(math.pi)\n"
    assert unused_imports(source) == ["line 2: Side"]
