"""The checker accepts real kbounds output and rejects each negative control."""

import ast
import math

import numpy as np
import pytest

import checks
import reference as ref
from conftest import BENCH, ROOT
from reference import Support
from workloads import CANONICAL_SUPPORTS, EXAMPLE5_GROUPS, _fixture, _groups

EXAMPLE5 = [Support(-1, 1), Support(-5, 5, m2=5.0), Support(-1, 5), Support(-5, 1)]
TS = [0.5, 2.0, 4.0, 6.0, 8.0, 11.0]


def _replace_cell(text: str, line: int, column: int, value: str) -> str:
    lines = text.split("\n")
    cells = lines[line].split(",")
    cells[column] = value
    lines[line] = ",".join(cells)
    return "\n".join(lines)


def test_reference_imports_nothing_from_kbounds():
    tree = ast.parse((BENCH / "reference.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(not a.name.startswith("kbounds") for a in node.names)
        if isinstance(node, ast.ImportFrom):
            assert not (node.module or "").startswith("kbounds")


def test_reference_reproduces_the_paper_crossovers():
    totals = [ref.totals(EXAMPLE5, g) for g in _groups(EXAMPLE5_GROUPS, 4)]
    assert ref.crossover(*totals[0], *totals[1]) == pytest.approx(5.6647, abs=1e-4)
    assert ref.crossover(*totals[1], *totals[2]) == pytest.approx(10.0138, abs=1e-4)


def test_reference_multipliers():
    sup = Support(-2.0, 1.0)
    assert ref.log_a(sup, 3) == pytest.approx(math.log(5.0))  # r = 1: 2^3 - 3
    assert ref.log_a(Support(-5.0, 5.0, m2=5.0), 2) == pytest.approx(math.log(1.2))
    # k = 4 takes the smaller of the generic and fourth-moment multipliers
    sym = Support(-1.0, 1.0, m2=0.1, m4=0.01, odd=True)
    assert ref.log_a(sym, 4) == pytest.approx(math.log(1.0 + 0.6 + 0.01))
    # log space agrees with the direct form where both are finite
    big = Support(-1.0, 3.0)
    assert ref._log_generic(big, 200) == pytest.approx(200 * math.log(4.0))


def test_lattice_min_matches_enumeration():
    ts = np.array([1.0, 6.0, 9.0])
    best = ref.lattice_min(EXAMPLE5[:3], 3, ts)
    for t, b in zip(ts, best):
        values = [
            ref.log_bound(*ref.order_k_totals(EXAMPLE5[:3], (k1, k2, k3)), t)
            for k1 in (1, 2, 3) for k2 in (1, 2, 3) for k3 in (1, 2, 3)
        ]
        assert b == min(values)


@pytest.fixture
def tail_two_sided(kbounds_cli):
    args = ["tail", "fixtures/example5.json", "--side", "two_sided", "--t"]
    return kbounds_cli(*args, *map(str, TS))


def _check_tail(text):
    checks.check_tail(text, EXAMPLE5, TS, "two_sided")


def test_tail_accepted(tail_two_sided):
    _check_tail(tail_two_sided)


def test_tail_nudged_log_bound_rejected(tail_two_sided):
    value = float(tail_two_sided.split("\n")[3].split(",")[1])
    bad = _replace_cell(tail_two_sided, 3, 1, repr(value * (1.0 + 1e-6)))
    with pytest.raises(checks.CheckError, match="log_bound"):
        _check_tail(bad)


def test_tail_non_optimal_orders_rejected(tail_two_sided):
    # at t = 8 the upper side's optimum is (1, 2, 1, 1); print (1, 1, 1, 1)
    # with the log_bound and s_star that vector really has, so that only the
    # optimality check can object
    line = 1 + TS.index(8.0)
    row = tail_two_sided.split("\n")[line].split(",")
    assert row[3] != "1|1|1|1"
    mirrored = [ref.mirror(s) for s in EXAMPLE5]
    up = ref.order_k_totals(EXAMPLE5, (1, 1, 1, 1))
    dn = ref.order_k_totals(mirrored, checks._ks(row[4], 4, "test"))
    log_bound = np.logaddexp(ref.log_bound(*up, 8.0), ref.log_bound(*dn, 8.0))
    bad = _replace_cell(tail_two_sided, line, 3, "1|1|1|1")
    bad = _replace_cell(bad, line, 1, repr(float(log_bound)))
    bad = _replace_cell(bad, line, 2, repr(ref.s_star(up[1], 8.0)))
    with pytest.raises(checks.CheckError, match="lattice minimum"):
        _check_tail(bad)


def test_fixed_choice_tail(kbounds_cli, tmp_path):
    import random

    from workloads import _write, fixed_scenario

    doc, supports, choices = fixed_scenario(random.Random(7), 1)
    path = _write(tmp_path, "s.json", doc)
    for side in ("upper", "lower", "two_sided"):
        out = kbounds_cli("tail", path, "--side", side, "--t", *map(str, TS))
        checks.check_tail(out, supports, TS, side, choices=choices)
        bad = _replace_cell(out, 2, 3, "1|" + out.split("\n")[2].split(",")[3])
        with pytest.raises(checks.CheckError):
            checks.check_tail(bad, supports, TS, side, choices=choices)


@pytest.fixture
def sweep_example5(kbounds_cli):
    args = ["sweep", "fixtures/example5.json"]
    for group in EXAMPLE5_GROUPS:
        args += ["--group", group]
    return kbounds_cli(*args)


def _check_sweep(text):
    supports, ts = _fixture(ROOT, "example5")
    checks.check_sweep(text, supports, _groups(EXAMPLE5_GROUPS, 4), ts)


def test_sweep_accepted(sweep_example5):
    _check_sweep(sweep_example5)
    assert "crossover,group1->group2,5.6646" in sweep_example5


def test_sweep_moved_crossover_rejected(sweep_example5):
    lines = sweep_example5.split("\n")
    line = next(i for i, text in enumerate(lines) if text.startswith("crossover,"))
    moved = float(lines[line].split(",")[2]) + 1e-3
    with pytest.raises(checks.CheckError, match="closed form"):
        _check_sweep(_replace_cell(sweep_example5, line, 2, repr(moved)))


def test_sweep_nudged_curve_rejected(sweep_example5):
    value = float(sweep_example5.split("\n")[500].split(",")[2])
    with pytest.raises(checks.CheckError):
        _check_sweep(_replace_cell(sweep_example5, 500, 2, repr(value * (1 + 1e-6))))


@pytest.fixture
def verify_random(kbounds_cli):
    return kbounds_cli("verify", "--random", "--pmfs", "20", "--seed", "3",
                       "--samples", "100000")


def _check_verify(text):
    supports = [Support(a, b) for a, b in CANONICAL_SUPPORTS]
    checks.check_verify(text, random_supports=supports, samples=100000)


def test_verify_random_accepted(verify_random):
    _check_verify(verify_random)


def test_verify_estimate_outside_exact_tail_rejected(verify_random):
    lines = verify_random.split("\n")
    line = next(i for i, text in enumerate(lines) if text.startswith("mc,"))
    cells = lines[line].split(",")
    se = float(cells[4])
    t = float(cells[1])
    low, high = ref.sum_tail([ref.extremal_two_point(Support(a, b))
                              for a, b in CANONICAL_SUPPORTS], t)
    # below the exact tail by 6 se; still under the certificate, so only the
    # exact-tail check can object
    moved = low - 6.0 * max(se, math.sqrt(low * (1 - low) / 100000))
    assert moved > 0.0
    with pytest.raises(checks.CheckError, match="5 se"):
        _check_verify(_replace_cell(verify_random, line, 3, repr(moved)))


def test_verify_gap_above_tolerance_rejected(verify_random):
    with pytest.raises(checks.CheckError):
        _check_verify(_replace_cell(verify_random, 1, 1, "1e-6"))


def test_verify_scenario_accepted(kbounds_cli):
    checks.check_verify(kbounds_cli("verify", "fixtures/example4.json", "--samples", "10000"))


def test_select_accepted_and_wrong_t_star_rejected(kbounds_cli):
    out = kbounds_cli("select", "fixtures/example5.json", "--t", "8")
    checks.check_select(out, EXAMPLE5, 8.0)
    assert out.startswith("k,1|2|1|1\n")
    value = float(out.split("\n")[5].split(",")[3])
    with pytest.raises(checks.CheckError, match="t_star"):
        checks.check_select(_replace_cell(out, 5, 3, repr(value * 1.001)), EXAMPLE5, 8.0)
    with pytest.raises(checks.CheckError, match="nan"):
        checks.check_select(_replace_cell(out, 5, 3, "nan"), EXAMPLE5, 8.0)


def test_t_star_nan_only_where_multiplier_dips():
    # fourth moment far below its cap: A_4 from moments undercuts A_3
    sup = Support(-1.0, 1.0, m2=0.01, m4=0.0001, odd=True)
    assert ref.log_a(sup, 4) < ref.log_a(sup, 3)
    assert ref.t_star(sup, 3) is None
    assert ref.t_star(sup, 2) is not None


def test_bound_compare(kbounds_cli):
    out = kbounds_cli("bound", "--a=-2", "--b", "1", "--compare", "--s", "3")
    checks.check_bound_compare(out, Support(-2.0, 1.0), 3.0)
    lines = out.split("\n")
    lines[1], lines[2] = lines[2], lines[1]
    with pytest.raises(checks.CheckError, match="sorted"):
        checks.check_bound_compare("\n".join(lines), Support(-2.0, 1.0), 3.0)
