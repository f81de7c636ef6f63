import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kbounds import cli, oracle, selection, verify
from kbounds.bounds import MAX_K_MAX, BoundedSupport, Family, MgfBound, mgf_bound
from kbounds.cli import g12, main
from kbounds.oracle import S_GRID, FinitePmf, moments, random_mean_zero_stack
from kbounds.scenario import MAX_SAMPLES, MAX_T_COUNT, MIN_SAMPLES, Query, grid, load_scenario
from kbounds.selection import pareto_front, regimes
from kbounds.tails import (
    Side,
    SumScenario,
    log_bound,
    lower_tail,
    mirror,
    one_side,
    one_sided_tail,
    order_k_scenario,
    totals,
    two_sided,
    two_sided_tail,
)
from test_bounds import reference_catalog
from test_golden import FIXED
from test_oracle import list_validity_gap, mixed_pmfs, stack_of
from test_scenario import t_ranges
from test_selection import staircase_front


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows(out):
    return [line.split(",") for line in out.strip().splitlines()]


class TestBound:
    def test_hertz_record(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--a", "-1", "--b", "1", "--family", "hertz", "--s", "2"],
            capsys,
        )
        assert code == 0
        header, record = rows(out)
        assert header == ["family", "log_multiplier", "rate", "eval_at_s"]
        assert record == ["hertz", "0", "0.5", "2"]

    def test_classic_equals_hertz_on_symmetric_interval(self, capsys):
        _, hertz, _ = run_cli(
            ["bound", "--a", "-1", "--b", "1", "--family", "hertz", "--s", "2"],
            capsys,
        )
        _, classic, _ = run_cli(
            ["bound", "--a", "-1", "--b", "1", "--family", "classic", "--s", "2"],
            capsys,
        )
        assert rows(hertz)[1][1:] == rows(classic)[1][1:]

    def test_compare_orders_hertz_before_classic(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--a", "-2", "--b", "1", "--compare", "--s", "3"], capsys
        )
        assert code == 0
        table = rows(out)[1:]
        by_family = {row[0]: float(row[3]) for row in table}
        assert by_family["hertz"] == pytest.approx(9.0)
        assert by_family["classic"] == pytest.approx(10.125)
        labels = [row[0] for row in table]
        assert labels.index("hertz") < labels.index("classic")
        evals = [float(row[3]) for row in table]
        assert evals == sorted(evals)

    def test_compare_rejects_k_max_zero(self, capsys):
        code, out, err = run_cli(
            ["bound", "--a=-2", "--b", "1", "--compare", "--s", "3", "--k-max", "0"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "k_max" in err

    def test_invalid_support_exits_2(self, capsys):
        code, _, err = run_cli(
            ["bound", "--a", "1", "--b", "2", "--family", "hertz", "--s", "1"], capsys
        )
        assert code == 2
        assert "a < 0 < b" in err

    def test_missing_moment_exits_2(self, capsys):
        code, _, err = run_cli(
            ["bound", "--a", "-1", "--b", "1", "--family", "order2_moment", "--s", "1"],
            capsys,
        )
        assert code == 2
        assert "m2" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--compare", "--family", "hertz"],
            [],
            ["--compare", "--k", "3"],
            ["--family", "hertz", "--k-max", "3"],
            ["--family", "order_k", "--k", "3", "--k-max", "3"],
        ],
        ids=["family-and-compare", "neither", "k-with-compare", "k-max-with-family",
             "k-max-with-order-k"],
    )
    def test_flags_it_would_ignore_exit_2(self, capsys, flags):
        assert exit_code(["bound", "--a=-2", "--b", "1", "--s", "3", *flags]) == 2
        assert capsys.readouterr().out == ""

    def test_k_max_is_read_under_compare(self, capsys):
        _, out, _ = run_cli(
            ["bound", "--a=-2", "--b", "1", "--s", "3", "--compare", "--k-max", "2"], capsys
        )
        labels = {row[0] for row in rows(out)[1:]}
        assert "order_k[2]" in labels and "order_k[3]" not in labels

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--a=-1e-100", "--b", "1e-100", "--compare", "--s", "1"],
            ["verify", "--random", "--a=-1e-100", "--b", "1e-100", "--pmfs", "10",
             "--samples", "1000"],
        ],
    )
    def test_narrow_interval_with_normal_caps_works(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert "inf" not in out and "nan" not in out


class TestTail:
    def test_group_one_at_t6(self, fixtures_dir, capsys):
        scenario = str(fixtures_dir / "example5.json")
        # pin the group explicitly via a temp scenario? choices live in the
        # file; here auto at t=6 already selects group two, so check sweep
        # semantics through the fixed-choice path instead.
        code, out, _ = run_cli(
            ["tail", scenario, "--t", "6", "--k-max", "1"], capsys
        )
        assert code == 0
        record = rows(out)[1]
        assert float(record[1]) == pytest.approx(-0.45, rel=1e-12)
        assert record[3] == "1|1|1|1"

    def test_auto_at_t8_bumps_second_variable(self, fixtures_dir, capsys):
        scenario = str(fixtures_dir / "example5.json")
        code, out, _ = run_cli(["tail", scenario, "--t", "8", "--k-max", "3"], capsys)
        assert code == 0
        assert rows(out)[1][3] == "1|2|1|1"

    def test_range_is_monotone_for_fixed_group(self, tmp_path, capsys):
        doc = {
            "format_version": 1,
            "variables": [{"a": -1, "b": 1}, {"a": -5, "b": 5, "m2": 5}],
            "choices": [{"family": "order_k", "k": 1}, {"family": "order_k", "k": 2}],
        }
        path = tmp_path / "fixed.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            ["tail", str(path), "--t-range", "0.5", "8", "40"], capsys
        )
        assert code == 0
        bounds = [float(r[1]) for r in rows(out)[1:]]
        assert all(hi < lo for lo, hi in zip(bounds, bounds[1:]))

    def test_two_sided_has_mirror_column(self, fixtures_dir, capsys):
        scenario = str(fixtures_dir / "example2.json")
        code, out, _ = run_cli(
            ["tail", scenario, "--t", "0.8", "--side", "two_sided", "--k-max", "2"],
            capsys,
        )
        assert code == 0
        header, record = rows(out)
        assert header[-1] == "ks_mirror"
        assert len(record) == 5

    def test_bad_scenario_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 1, "variables": [], "x": 1}))
        code, _, err = run_cli(["tail", str(path), "--t", "1"], capsys)
        assert code == 2
        assert "error" in err

    def test_nine_variables_select_exactly(self, fixtures_dir, tmp_path, capsys):
        # 8^9 lattice vectors, once behind a size guard: `tail` and `select`
        # print the exact optimum, checked against the reference front
        doc = json.loads((fixtures_dir / "example5.json").read_text())
        doc["variables"] += [{"a": -1, "b": 1}, {"a": -2, "b": 3, "m2": 1.5}] * 2
        doc["variables"].append({"a": -3, "b": 1})
        path = tmp_path / "nine.json"
        path.write_text(json.dumps(doc))
        variables = load_scenario(str(path)).variables
        want = staircase_front(variables, [range(1, 9)] * 9)
        for t in (6.0, 18.0, 25.0, 32.0):
            ks = "|".join(map(str, want.best(t).ks))
            code, out, _ = run_cli(["tail", str(path), "--t", str(t)], capsys)
            assert code == 0
            assert rows(out)[1][3] == ks
            code, out, _ = run_cli(["select", str(path), "--t", str(t)], capsys)
            assert code == 0
            assert rows(out)[0] == ["k", ks]

    def test_fixed_choices_reject_k_max(self, tmp_path, capsys):
        doc = {
            "format_version": 1,
            "variables": [{"a": -1, "b": 1}],
            "choices": [{"family": "order_k", "k": 3}],
            "query": {"t": 2},
        }
        path = tmp_path / "fixed.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["tail", str(path)], capsys)
        assert code == 0
        assert rows(out)[1][3] == "3"
        code, out, err = run_cli(["tail", str(path), "--k-max", "1"], capsys)
        assert code == 2
        assert out == ""
        assert "--k-max" in err

    def test_dropped_flags_are_rejected(self, fixtures_dir):
        scenario = str(fixtures_dir / "example5.json")
        for command in ("tail", "sweep"):
            for flag in ("--seed", "--samples"):
                with pytest.raises(SystemExit):
                    main([command, scenario, flag, "1"])
        for command in ("tail", "verify", "sweep"):
            with pytest.raises(SystemExit):
                main([command, scenario, "--threads", "1"])
        with pytest.raises(SystemExit):
            main(["tail", scenario, "--relaxed"])

    def test_fractional_range_count_exits_2(self, fixtures_dir, capsys):
        scenario = str(fixtures_dir / "example1.json")
        code, out, err = run_cli(["tail", scenario, "--t-range", "0.5", "2", "4.7"], capsys)
        assert code == 2
        assert out == ""
        assert "integer" in err

    def test_range_count_above_the_cap_exits_2(self, fixtures_dir, tmp_path, capsys, monkeypatch):
        # rejected before any t value is made: the grid is never built
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built")

        monkeypatch.setattr("kbounds.scenario.grid", no_grid)
        over = str(MAX_T_COUNT + 1)
        scenario = str(fixtures_dir / "example1.json")
        for argv in (
            ["tail", scenario, "--t-range", "0.5", "2", over],
            ["sweep", scenario, "--t-range", "0.5", "2", over, "--group", "1"],
        ):
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, "")
            assert f"at most {MAX_T_COUNT}" in err
        doc = json.loads((fixtures_dir / "example1.json").read_text())
        doc["query"] = {"t_range": {"min": 0.5, "max": 2, "count": MAX_T_COUNT + 1}}
        path = tmp_path / "over.json"
        path.write_text(json.dumps(doc))
        for command in ("tail", "verify"):
            code, out, err = run_cli([command, str(path)], capsys)
            assert (code, out) == (2, "")
            assert f"at most {MAX_T_COUNT}" in err

    def test_missing_t_exits_2(self, tmp_path, capsys):
        path = tmp_path / "no_t.json"
        path.write_text(
            json.dumps({"format_version": 1, "variables": [{"a": -1, "b": 1}]})
        )
        code, _, err = run_cli(["tail", str(path)], capsys)
        assert code == 2

    @pytest.mark.parametrize("choices", ["auto", [{"family": "hertz"}, {"family": "classic"}]])
    @pytest.mark.parametrize(
        "variable, refusal",
        [({"a": -1e10, "b": 1e-300}, "support [-1e-300, 10000000000.0] is too lopsided"),
         ({"a": -1, "b": 1e-170, "m2": 1e-171}, "support [-1e-170, 1.0] is too narrow for m2")],
    )
    def test_a_refused_mirror_names_the_variable(self, tmp_path, capsys, choices, variable,
                                                 refusal):
        # the upper tail never mirrors; a lower side names the file's variable
        path = tmp_path / "mirror.json"
        path.write_text(json.dumps({"format_version": 1, "choices": choices,
                                    "variables": [{"a": -1, "b": 1}, variable],
                                    "query": {"t": [1, 2]}}))
        code, out, _ = run_cli(["tail", str(path), "--side", "upper"], capsys)
        assert code == 0 and len(rows(out)) == 3
        for side in ("lower", "two_sided"):
            code, out, err = run_cli(["tail", str(path), "--side", side], capsys)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: variables[1] mirrored for the lower tail: {refusal}")


def per_row_tail(argv) -> str:
    """``cmd_tail``'s stdout as it was before its auto rows read the fronts,
    kept as the reference: each row builds its scenario, from ``best``'s orders
    under auto choices, and runs it through the tails functions; the lower
    side selects its own orders on the mirrored supports."""
    args = cli.build_parser().parse_args(argv)
    scenario = load_scenario(args.scenario)
    query = cli._resolve_query(scenario, args)
    variables = scenario.variables
    if scenario.auto:
        k_max = 8 if args.k_max is None else args.k_max
        up = pareto_front(variables, k_max)
        down = pareto_front(tuple(mirror(v) for v in variables), k_max)
    lines = ["t,log_bound,s_star,ks" + (",ks_mirror" if query.side is Side.TWO_SIDED else "")]
    for t in query.resolve_ts():
        if scenario.auto:
            upper = order_k_scenario(variables, up.best(t).ks)
            lower = order_k_scenario(variables, down.best(t).ks)
        else:
            upper = lower = SumScenario(scenario.variables, scenario.choices)
        if query.side is Side.UPPER:
            cert, used = one_sided_tail(upper, t), [upper]
        elif query.side is Side.LOWER:
            cert, used = lower_tail(lower, t), [lower]
        elif scenario.auto:
            cert, used = two_sided(one_sided_tail(upper, t), lower_tail(lower, t)), [upper, lower]
        else:
            cert, used = two_sided_tail(upper, t), [upper, upper]
        cells = [selection._choice_cell(s.choices) for s in used]
        lines.append(f"{g12(t)},{g12(cert.log_bound)},{g12(cert.s_star)}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def cli_stdout(argv) -> str:
    """``main``'s stdout for a command that succeeds, without capsys."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(argv) == 0
    return buffer.getvalue()


SIDES = [side.value for side in Side]
# the file's t, an unsorted list that repeats values, and a range
TAIL_TS = {"query": [], "unsorted": ["--t", "11", "2", "8", "2", "0.3", "11", "5.5"],
           "range": ["--t-range", "0.1", "12", "300"]}


class TestTailRows:
    """`tail`'s rows against the per-row reference, byte for byte."""

    @pytest.mark.parametrize("ts", list(TAIL_TS))
    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("name", [f"example{i}.json" for i in range(1, 6)] + ["fixed.json"])
    def test_match_the_per_row_reference(self, fixtures_dir, tmp_path, name, side, ts):
        (tmp_path / "fixed.json").write_text(json.dumps(FIXED))
        path = (tmp_path if name == "fixed.json" else fixtures_dir) / name
        argv = ["tail", str(path), "--side", side, *TAIL_TS[ts]]
        assert cli_stdout(argv) == per_row_tail(argv)

    @pytest.mark.parametrize("k_max", ["2", "8"])
    @pytest.mark.parametrize("name", [f"example{i}.json" for i in range(1, 6)])
    def test_match_at_every_regime_edge(self, fixtures_dir, name, k_max):
        # each side's winner changes at its regimes' edges, where two vectors
        # tie: probe each edge and the floats either side of it
        path = str(fixtures_dir / name)
        variables = load_scenario(path).variables
        ts = []
        for supports in (variables, tuple(mirror(v) for v in variables)):
            front = pareto_front(supports, int(k_max))
            for _, edge, _ in regimes(front.L, front.R, 1e-3, 4.0 * sum(v.b for v in supports))[:-1]:
                ts += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
        assert ts
        for side in SIDES:
            argv = ["tail", path, "--side", side, "--k-max", k_max, "--t", *map(repr, ts)]
            assert cli_stdout(argv) == per_row_tail(argv)

    @given(
        st.lists(st.tuples(st.floats(-5.0, -0.2), st.floats(0.2, 5.0), st.floats(0.0, 1.0)),
                 min_size=1, max_size=4),
        st.floats(-6.0, 6.0),
        st.lists(st.floats(0.01, 1.5), min_size=1, max_size=5),
        st.lists(st.integers(1, 6), min_size=4, max_size=4) | st.just("auto"),
    )
    @settings(max_examples=60, deadline=None)
    def test_match_at_every_scale(self, tmp_path_factory, variables, exponent, t_fracs, choices):
        # supports scaled by 10^-6 to 10^6, with an m2 on some
        scale = 10.0 ** exponent
        doc_vars = []
        for a, b, f in variables:
            var = {"a": scale * a, "b": scale * b}
            if f > 0.5:
                var["m2"] = f * (scale * -a) * (scale * b)
            doc_vars.append(var)
        if choices != "auto":
            choices = [{"family": "order_k", "k": k} for k in choices[:len(variables)]]
        ts = [frac * sum(v["b"] for v in doc_vars) for frac in t_fracs]
        path = tmp_path_factory.mktemp("scaled") / "scaled.json"
        path.write_text(json.dumps({"format_version": 1, "variables": doc_vars,
                                    "choices": choices, "query": {"t": ts}}))
        for side in SIDES:
            argv = ["tail", str(path), "--side", side]
            assert cli_stdout(argv) == per_row_tail(argv)


def exit_code(argv) -> int:
    """main's exit code, including argparse's exit on a bad option."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestNonFiniteInput:
    def test_scenario_bound_exits_2(self, tmp_path, capsys):
        path = tmp_path / "inf.json"
        path.write_text(
            json.dumps({"format_version": 1, "variables": [{"a": -math.inf, "b": 1}]})
        )
        assert "-Infinity" in path.read_text()
        assert exit_code(["tail", str(path), "--t", "1"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_infinite_support_option_exits_2(self, capsys):
        assert exit_code(["bound", "--a=-1", "--b", "inf", "--compare", "--s", "1"]) == 2
        assert capsys.readouterr().out == ""

    def test_infinite_t_exits_2(self, fixtures_dir, capsys):
        scenario = str(fixtures_dir / "example1.json")
        assert exit_code(["tail", scenario, "--t", "inf"]) == 2
        assert capsys.readouterr().out == ""

    def test_infinite_s_exits_2(self, capsys):
        argv = ["bound", "--a", "-1", "--b", "1", "--family", "hertz", "--s", "inf"]
        assert exit_code(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("text", ["nan", "1e400"])
    def test_every_float_option_is_finite(self, fixtures_dir, text):
        scenario = str(fixtures_dir / "example1.json")
        for argv in (
            ["bound", "--a", text, "--b", "1", "--compare", "--s", "1"],
            ["bound", "--a", "-1", "--b", "1", "--m2", text, "--compare", "--s", "1"],
            ["bound", "--a", "-1", "--b", "1", "--m4", text, "--compare", "--s", "1"],
            ["tail", scenario, "--t-range", "0.5", text, "4"],
            ["select", scenario, "--t", text],
            ["verify", "--random", "--a", text, "--b", "1"],
            ["verify", "--random", "--a", "-1", "--b", text],
            ["verify", "--random", "--poison-rate", text],
            ["sweep", scenario, "--t-range", text, "2", "4", "--group", "1"],
        ):
            assert exit_code(argv) == 2, argv

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["tail", "example5.json", "--t", "1e170", "--side", "two_sided"], "t=1e+170"),
            (["tail", "example1.json", "--t", "1e200"], "t=1e+200"),
            (["select", "example5.json", "--t", "1e200"], "t=1e+200"),
            (["sweep", "example5.json", "--group", "1,1,1,1", "--group", "2,2,2,2",
              "--t-range", "1e200", "1e201", "2"], "t=1e+200"),
            (["bound", "--a=-2", "--b", "1", "--compare", "--s", "1e200"], "s=1e+200"),
            (["bound", "--a=-1e200", "--b", "1e200", "--family", "classic", "--s", "1"],
             "[-1e+200, 1e+200]"),
            (["verify", "--random", "--a=-1e200", "--b", "1e200"], "[-1e+200, 1e+200]"),
            (["bound", "--a=-1e-200", "--b", "1e-200", "--compare", "--s", "1"],
             "[-1e-200, 1e-200] is too narrow"),
            (["verify", "--random", "--a=-1e-170", "--b", "1e-170", "--pmfs", "10",
              "--samples", "1000"], "[-1e-170, 1e-170] is too narrow"),
            # a^2 underflows under a declared m2, here each pmf's measured one
            (["verify", "--random", "--a=-1e-170", "--b", "1e-130", "--pmfs", "10",
              "--samples", "1000"], "[-1e-170, 1e-130] is too narrow for m2"),
            (["bound", "--a=-1e-90", "--b", "1e-90", "--m2", "1e-181", "--m4", "1e-362",
              "--odd-moments-zero", "--compare", "--s", "1"], "[-1e-90, 1e-90] is too narrow"),
            (["bound", "--a=-1e-300", "--b", "1e10", "--compare", "--s", "1"],
             "[-1e-300, 10000000000.0] is too lopsided"),
            (["bound", "--a=-1e-300", "--b", "1e10", "--family", "classic", "--s", "1"],
             "[-1e-300, 10000000000.0] is too lopsided"),
            (["verify", "--random", "--a=-1e-300", "--b", "1e10", "--pmfs", "10",
              "--samples", "1000"], "[-1e-300, 10000000000.0] is too lopsided"),
        ],
    )
    def test_non_finite_output_exits_2(self, fixtures_dir, capsys, argv, names):
        argv = [str(fixtures_dir / arg) if arg.endswith(".json") else arg for arg in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy overflow warning either
            code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert names in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--a=-1e-153", "--b", "1e-153", "--compare", "--s", "1"],
            ["verify", "--random", "--a=-1e-153", "--b", "1e-153", "--pmfs", "20",
             "--samples", "1000"],
            ["verify", "--random", "--a=-1e-90", "--b", "1e-90", "--pmfs", "20",
             "--samples", "1000"],
        ],
    )
    def test_narrow_supports_with_normal_squares_still_run(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert "nan" not in out and "inf" not in out


class TestSelect:
    @pytest.mark.parametrize("k_max", ["0", "-3"])
    @pytest.mark.parametrize("choices", ["auto", [{"family": "hertz"}, {"family": "classic"}]])
    def test_k_max_below_one_exits_2(self, tmp_path, capsys, choices, k_max):
        # a fixed-choice file once printed an empty crossover table with exit 0
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"format_version": 1, "choices": choices,
                                    "variables": [{"a": -1, "b": 5}, {"a": -2, "b": 2}]}))
        code, out, err = run_cli(["select", str(path), "--t", "2", "--k-max", k_max], capsys)
        assert (code, out, err) == (2, "", "error: k_max must be >= 1\n")

    def test_example1_thresholds(self, fixtures_dir, capsys):
        scenario = str(fixtures_dir / "example1.json")
        code, out, _ = run_cli(["select", scenario, "--t", "1.0", "--k-max", "2"], capsys)
        assert code == 0
        lines = rows(out)
        assert lines[0] == ["k", "1"]
        table = {(r[0], r[1]): float(r[3]) for r in lines[3:]}
        assert table[("1", "1")] == pytest.approx(1.1774, abs=1e-3)
        assert table[("1", "2")] == pytest.approx(1.3537, abs=1e-3)

    def test_example2_first_threshold(self, fixtures_dir, capsys):
        scenario = str(fixtures_dir / "example2.json")
        code, out, _ = run_cli(["select", scenario, "--t", "1.0", "--k-max", "1"], capsys)
        assert code == 0
        t_star = float(rows(out)[-1][3])
        assert t_star == pytest.approx(3 * math.sqrt(2 * math.log(6)), rel=1e-9)
        assert t_star == pytest.approx(5.679, abs=1e-3)

    def test_dipping_ladder_prints_nan(self, tmp_path, capsys):
        # the k = 4 moment form undercuts A_3: no finite 3 -> 4 crossover
        path = tmp_path / "dip.json"
        path.write_text(json.dumps({
            "format_version": 1,
            "variables": [{"a": -1, "b": 1, "m2": 0.01, "m4": 0.0001,
                           "odd_moments_zero": True}],
            "choices": "auto",
        }))
        code, out, _ = run_cli(["select", str(path), "--t", "1", "--k-max", "5"], capsys)
        assert code == 0
        table = rows(out)[3:]
        assert [r[:3] for r in table] == [["1", str(k), str(k + 1)] for k in range(1, 6)]
        assert table[2] == ["1", "3", "4", "nan"]
        assert all(math.isfinite(float(r[3])) for r in table if r[1] != "3")

    def test_example4_thresholds(self, fixtures_dir, capsys):
        scenario = str(fixtures_dir / "example4.json")
        code, out, _ = run_cli(["select", scenario, "--t", "4.0", "--k-max", "2"], capsys)
        assert code == 0
        lines = rows(out)
        assert lines[0] == ["k", "2"]  # the documented best order at t=4
        table = {(r[0], r[1]): float(r[3]) for r in lines[3:]}
        assert table[("1", "1")] == pytest.approx(3.019, abs=1e-3)
        assert table[("1", "2")] == pytest.approx(8.447, abs=1e-3)


def sweep_one_pmf(pmf, k_max, poison):
    """Max (exact - bound) gap per family label for one pmf: the per-pmf loop
    the batched sweep replaced, kept as its reference."""
    a, b = pmf.support.a, pmf.support.b
    measured = BoundedSupport(a, b, m2=moments(pmf, 2), m4=moments(pmf, 4))
    gaps = {}
    for bound in reference_catalog(measured, k_max):
        tag = bound.family_tag
        bound = MgfBound(bound.log_multiplier, bound.rate * poison, tag)
        label = "order_k" if tag.family is Family.ORDER_K else tag.label()
        gap = list_validity_gap(pmf, bound, S_GRID)
        if label not in gaps or gap > gaps[label]:
            gaps[label] = gap
    return gaps


def batched_max_gaps(pmfs, k_max, poison):
    """``verify._family_max_gaps`` of the pmfs, one call per support with one
    stack per atom count, each raising one table as in ``verify.run``."""
    by_support = {}
    for pmf in pmfs:
        by_support.setdefault(pmf.support, {}).setdefault(len(pmf.xs), []).append(pmf)
    max_gap = {}
    for support, by_count in by_support.items():
        stacks = [stack_of(group) for group in by_count.values()]
        verify._family_max_gaps(max_gap, support, stacks, k_max, poison)
    return max_gap


def per_pmf_max_gaps(pmfs, k_max, poison):
    max_gap = {}
    for pmf in pmfs:
        for label, gap in sweep_one_pmf(pmf, k_max, poison).items():
            if label not in max_gap or gap > max_gap[label]:
                max_gap[label] = gap
    return max_gap


def reference_mc_thresholds(query, reach):
    """``verify._mc_thresholds`` as it was before it bisected a range: the
    whole grid resolved, then the t the sum can reach, at most 8 by index."""
    ts = tuple(f * reach for f in (0.25, 0.5, 0.75))
    if query.ts or query.t_range:
        ts = tuple(t for t in query.resolve_ts() if t <= reach) or ts
        if len(ts) > 8:
            ts = tuple(ts[int(i)] for i in grid(0, len(ts) - 1, 8))
    return ts


@st.composite
def ranges_and_reaches(draw):
    """A t range and a reach that cuts it anywhere: at any of its t or one ulp
    either side, so below its first t and above its last too."""
    lo, hi, count = draw(t_ranges())
    t = grid(lo, hi, count, [draw(st.integers(0, count - 1))])[0]
    reach = math.nextafter(t, draw(st.sampled_from([-math.inf, t, math.inf])))
    return Query(t_range=(lo, hi, count)), reach


# Eleven three-atom laws whose sum takes 3^11 distinct values, past
# oracle.MAX_SUMS, so `verify` samples it; the first ten stay under the cap.
SAMPLED_VARIABLES = [{"a": -round(1 + math.sqrt(i + 2) / 10, 9),
                      "b": round(1 + math.sqrt(i + 13) / 10, 9), "m2": 0.5} for i in range(11)]


@st.composite
def odd_moment_supports(draw):
    """A support that asserts odd_moments_zero, scaled by 2^j with |j| <= 20:
    symmetric or not, declaring no moments, m2 alone, or the m2 and m4 of a
    law on -c, 0, c."""
    a = -draw(st.floats(0.1, 10.0))
    b = -a if draw(st.booleans()) else draw(st.floats(0.1, 10.0))
    c = min(-a, b) * draw(st.floats(0.01, 1.0))
    mass = draw(st.floats(0.01, 1.0))  # on -c and c
    declared = draw(st.sampled_from([(None, None), (c * c, None), (mass * c * c, mass * c ** 4)]))
    scale = 2.0 ** draw(st.integers(-20, 20))
    m2, m4 = (None if m is None else m * scale ** p for m, p in zip(declared, (2, 4)))
    return BoundedSupport(a * scale, b * scale, m2, m4, odd_moments_zero=True)


class TestVerify:
    @settings(max_examples=300, deadline=None)
    @given(support=odd_moment_supports(), k_max=st.integers(1, 8))
    def test_law_gaps_hold_for_every_family_of_an_odd_moment_law(self, support, k_max):
        # the law is symmetric, so its measured support keeps odd_moments_zero
        # and the fourth-order families are checked too
        gaps = {}
        verify._law_gaps(gaps, support, oracle.moment_matched_pmf(support), k_max, 1.0)
        families = {"classic", "hertz", "order_k", "order2_moment", "order4_moment"}
        assert set(gaps) == families | ({"symmetric_order4"} if -support.a == support.b else set())
        assert max(gaps.values()) <= verify.GAP_TOL, gaps

    @pytest.mark.parametrize("poison", [1.0, 0.5])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_batched_gaps_match_per_pmf_reference(self, scale, poison):
        # atom counts 2..8 interleaved in one call, plus a zero-probability atom
        sparse = FinitePmf(
            (-scale, 0.5 * scale, 0.0, scale), (0.25, 0.0, 0.5, 0.25),
            BoundedSupport(-scale, scale),
        )
        pmfs = mixed_pmfs(scale) + [sparse]
        for k_max in (1, 8):
            batched = batched_max_gaps(pmfs, k_max, poison)
            assert batched == per_pmf_max_gaps(pmfs, k_max, poison)
            assert {"classic", "hertz", "order_k", "order2_moment"} <= set(batched)

    def test_fourth_order_families_are_not_probed_per_pmf(self, monkeypatch, capsys):
        # no measured support asserts odd_moments_zero, so order4_moment and
        # symmetric_order4 are tried once per support, never once per pmf:
        # per pmf only the measured m2 rows are read, with no bound built
        failed = []

        def counting_mgf_bound(support, tag):
            try:
                return mgf_bound(support, tag)
            except ValueError:
                failed.append(tag)
                raise

        monkeypatch.setattr("kbounds.bounds.mgf_bound", counting_mgf_bound)
        code, _, _ = run_cli(
            ["verify", "--random", "--pmfs", "50", "--samples", "1000"], capsys
        )
        assert code == 0
        assert len(failed) <= 2 * len(verify.CANONICAL_SUPPORTS)

    @pytest.mark.parametrize("m2", [12.5, math.nan], ids=["m2 above its cap", "m2 nan"])
    def test_corrupt_measured_moments_exit_2_as_a_support_would(self, capsys, monkeypatch,
                                                                 m2):
        # the first pmf's measured m2 is corrupted: `verify` fails with the
        # message a support with that m2 gives, before any row is printed
        def corrupted_rows(xs, ps, k):
            values = oracle.moment_rows(xs, ps, k)
            values[0] = m2
            return values

        monkeypatch.setattr(verify, "moment_rows", corrupted_rows)
        code, out, err = run_cli(
            ["verify", "--random", "--a=-2", "--b", "3", "--pmfs", "20", "--samples", "1000"],
            capsys,
        )
        with pytest.raises(ValueError) as support_error:
            BoundedSupport(-2.0, 3.0, m2)
        assert (code, out, err) == (2, "", f"error: {support_error.value}\n")

    def test_random_pmfs_and_their_laws_measure_m2_alone(self, capsys, monkeypatch):
        # no canonical support asserts odd moments, so no bound reads an m4
        # and none is measured, on a law or on a stack
        orders = []

        def recording(measure):
            def measured(*args):
                orders.append(args[-1])
                return measure(*args)
            return measured

        monkeypatch.setattr(verify, "moment_rows", recording(oracle.moment_rows))
        monkeypatch.setattr(verify, "moments", recording(oracle.moments))
        code, _, _ = run_cli(["verify", "--random", "--pmfs", "50", "--samples", "1000"],
                             capsys)
        assert code == 0
        assert orders and set(orders) == {2}

    def test_random_sweep_is_clean(self, capsys):
        code, out, _ = run_cli(
            [
                "verify",
                "--random",
                "--a",
                "-5",
                "--b",
                "1",
                "--pmfs",
                "100",
                "--samples",
                "20000",
                "--seed",
                "1",
            ],
            capsys,
        )
        assert code == 0
        assert out.strip().endswith("verdict,ok")
        for row in rows(out)[1:]:
            if row[0] in ("kind", "mc", "verdict"):
                continue
            assert float(row[1]) <= 1e-9  # max observed gap per family

    def test_poisoned_rates_are_caught(self, capsys):
        code, out, _ = run_cli(
            [
                "verify",
                "--random",
                "--a",
                "-5",
                "--b",
                "1",
                "--pmfs",
                "20",
                "--samples",
                "20000",
                "--poison-rate",
                "0.9",
            ],
            capsys,
        )
        assert code == 4
        assert out.strip().endswith("verdict,violation")

    def test_scenario_mode(self, fixtures_dir, capsys):
        code, out, _ = run_cli(
            [
                "verify",
                str(fixtures_dir / "example5.json"),
                "--samples",
                "20000",
            ],
            capsys,
        )
        assert code == 0
        assert "verdict,ok" in out

    def test_wide_support_is_clean(self, capsys):
        # the oracle's mean tolerance follows the scale of [a, b]
        code, out, _ = run_cli(
            ["verify", "--random", "--a=-1e6", "--b", "3e6", "--pmfs", "20",
             "--samples", "20000"],
            capsys,
        )
        assert code == 0
        assert out.strip().endswith("verdict,ok")

    def test_scenario_query_sets_seed_and_samples(self, fixtures_dir, tmp_path, capsys):
        # past the distinct-sum cap the laws' sum is sampled with these
        doc = {"format_version": 1, "variables": SAMPLED_VARIABLES}
        doc["query"] = {"t": [4.0, 8.0], "seed": 3, "samples": 5000}
        path = tmp_path / "seeded.json"
        path.write_text(json.dumps(doc))
        _, from_query, _ = run_cli(["verify", str(path)], capsys)
        _, from_flags, _ = run_cli(
            ["verify", str(path), "--seed", "3", "--samples", "5000"], capsys
        )
        assert from_query == from_flags
        # given flags still win over the query
        _, overridden, _ = run_cli(
            ["verify", str(path), "--seed", "4", "--samples", "2000"], capsys
        )
        del doc["query"]["seed"], doc["query"]["samples"]
        path.write_text(json.dumps(doc))
        _, defaulted, _ = run_cli(
            ["verify", str(path), "--seed", "4", "--samples", "2000"], capsys
        )
        assert overridden == defaulted != from_query

    def test_checks_the_vector_tail_prints(self, fixtures_dir, tmp_path, capsys):
        # 8^6 lattice vectors: above the old 10^5 limit
        doc = json.loads((fixtures_dir / "example5.json").read_text())
        doc["variables"] += [{"a": -1, "b": 1}] * 2
        doc["query"] = {"t": 9}
        path = tmp_path / "six.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["tail", str(path)], capsys)
        assert code == 0
        ks = rows(out)[1][3]
        assert ks == "1|2|1|1|1|1"
        code, out, _ = run_cli(["verify", str(path), "--samples", "5000"], capsys)
        assert code == 0
        assert ks in [row[2] for row in rows(out) if row[0] == "mc"]

    @given(ranges_and_reaches())
    @settings(max_examples=300, deadline=None)
    @example((Query(t_range=(0.1, 12.0, 10 ** 5)), 6.0))
    @example((Query(t_range=(1e-320, 2e-320, 10 ** 5)), 1.5e-320))  # the step underflows
    # the last-but-one t, 3.5e-321, lies above the last, hi
    @example((Query(t_range=(5e-324, 3.493e-321, 709)), 3.493e-321))
    def test_mc_thresholds_match_the_resolved_range(self, case):
        query, reach = case
        assert verify._mc_thresholds(query, reach) == reference_mc_thresholds(query, reach)

    @pytest.mark.parametrize(
        "ts", [None, (3.0,), (11.0, 2.0, 8.0, 2.0, 50.0), tuple(map(float, range(1, 30))),
               (50.0,)]
    )
    def test_mc_thresholds_of_a_t_list(self, ts):
        query = Query(ts=ts)
        assert verify._mc_thresholds(query, 10.5) == reference_mc_thresholds(query, 10.5)

    def test_a_range_at_the_cap_is_never_resolved(self, fixtures_dir, tmp_path, capsys,
                                                  monkeypatch):
        # verify builds only the t it samples at, and select rejects a range
        # before it makes any t
        def no_resolve(query):
            raise AssertionError("resolved a t_range")

        monkeypatch.setattr(Query, "resolve_ts", no_resolve)
        doc = json.loads((fixtures_dir / "example5.json").read_text())
        doc["query"] = {"t_range": {"min": 0.1, "max": 12, "count": MAX_T_COUNT}}
        path = tmp_path / "capped.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["verify", str(path), "--samples", "1000"], capsys)
        assert code == 0
        assert len({row[1] for row in rows(out) if row[0] == "mc"}) == 8
        code, out, err = run_cli(["select", str(path)], capsys)
        assert (code, out) == (2, "")
        assert "select needs a single t" in err

    def test_m4_without_odd_moments_zero_is_checked_on_m2(self, tmp_path, capsys):
        # tail accepts this variable, and so does verify: no bound reads m4
        # unless the odd moments vanish, so its law matches m2 alone
        doc = {"format_version": 1, "variables": [{"a": -1, "b": 5, "m2": 3, "m4": 9.5}],
               "query": {"t": [1.0, 3.0]}}
        path = tmp_path / "m4.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["tail", str(path)], capsys)[0] == 0
        code, out, _ = run_cli(["verify", str(path), "--samples", "20000"], capsys)
        assert code == 0
        assert out.endswith("verdict,ok\n")

    @pytest.mark.parametrize(
        "flags", [["--a=-3", "--b", "7"], ["--a=-3"], ["--pmfs", "5"], ["--pmfs", "1000"]]
    )
    def test_scenario_mode_rejects_random_flags(self, fixtures_dir, capsys, flags):
        scenario = str(fixtures_dir / "example1.json")
        code, out, err = run_cli(["verify", scenario, "--samples", "2000", *flags], capsys)
        assert code == 2
        assert out == ""
        assert "--random" in err

    @pytest.mark.parametrize("count", ["-1", "-2"])
    def test_negative_pmfs_exits_2(self, capsys, count):
        code, out, err = run_cli(
            ["verify", "--random", "--pmfs", count, "--samples", "2000"], capsys
        )
        assert code == 2
        assert out == ""
        assert "--pmfs" in err

    def test_k_max_zero_exits_2_before_the_sweep(self, capsys, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("swept gaps under --k-max 0")

        monkeypatch.setattr(verify, "exact_log_mgf_rows", no_sweep)
        code, out, err = run_cli(
            ["verify", "--random", "--pmfs", "5", "--samples", "2000", "--k-max", "0"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "k_max" in err

    @pytest.mark.parametrize(
        "flags, message",
        [(["--samples", "10"], "samples"), (["--samples", "999"], "samples"),
         (["--k-max", "0"], "k_max"), (["--k-max", "-3"], "k_max"),
         (["--poison-rate", "0"], "--poison-rate"), (["--poison-rate", "-1"], "--poison-rate"),
         (["--seed", "-1"], "seed")],
    )
    def test_bad_input_exits_2_before_any_pmf_is_drawn(self, capsys, monkeypatch,
                                                       fixtures_dir, flags, message):
        def no_pmfs(*args, **kwargs):
            raise AssertionError("drew pmfs for a rejected command")

        monkeypatch.setattr(verify, "random_mean_zero_stack", no_pmfs)
        monkeypatch.setattr(verify, "moment_matched_pmf", no_pmfs)
        for source in (["--random"], [str(fixtures_dir / "example5.json")]):
            code, out, err = run_cli(["verify", *source, *flags], capsys)
            assert code == 2
            assert out == ""
            assert message in err

    def test_pmfs_above_the_cap_exit_2_before_any_pmf_is_drawn(self, capsys, monkeypatch):
        def no_pmfs(*args, **kwargs):
            raise AssertionError("drew pmfs for a rejected command")

        monkeypatch.setattr(verify, "random_mean_zero_stack", no_pmfs)
        monkeypatch.setattr(verify, "moment_matched_pmf", no_pmfs)
        for count in (verify.MAX_PMFS + 1, 10 ** 13):
            code, out, err = run_cli(
                ["verify", "--random", "--pmfs", str(count), "--samples", "1000"], capsys
            )
            assert (code, out) == (2, "")
            assert err == f"error: --pmfs must be at most {verify.MAX_PMFS}, got {count}\n"

    def test_pmfs_at_the_cap_are_drawn(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "MAX_PMFS", 5)
        argv = ["verify", "--random", "--samples", "1000", "--pmfs"]
        assert run_cli([*argv, "5"], capsys)[0] == 0
        assert run_cli([*argv, "6"], capsys)[0] == 2

    def test_mc_candidates_respect_k_max(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--random", "--pmfs", "1", "--samples", "2000", "--k-max", "1"],
            capsys,
        )
        assert code == 0
        mc = [row for row in rows(out) if row[0] == "mc"]
        assert len(mc) == 3
        assert {row[2] for row in mc} == {"1|1|1|1"}

    def test_random_stdout_is_a_function_of_the_seed(self, capsys):
        argv = ["verify", "--random", "--pmfs", "100", "--samples", "2000", "--seed"]
        outs = [run_cli([*argv, seed], capsys)[1] for seed in ("5", "5", "6")]
        assert outs[0] == outs[1] != outs[2]

    def test_one_stack_per_atom_count_per_support(self, capsys, monkeypatch):
        calls = []

        def recording_stack(support, atom_count, rows, rng):
            calls.append((support, atom_count, rows, rng))
            return random_mean_zero_stack(support, atom_count, rows, rng)

        monkeypatch.setattr(verify, "random_mean_zero_stack", recording_stack)
        code, _, _ = run_cli(["verify", "--random", "--pmfs", "300", "--samples", "2000"],
                             capsys)
        assert code == 0
        assert len({(support, atoms) for support, atoms, _, _ in calls}) == len(calls)
        assert len({id(rng) for *_, rng in calls}) == 1  # one generator for every stack
        for a, b in verify.CANONICAL_SUPPORTS:
            drawn = [rows for support, _, rows, _ in calls if support == BoundedSupport(a, b)]
            assert sum(drawn) == 300

    @pytest.mark.parametrize("seed, samples", [("0", "1000"), ("11", "3000")])
    @pytest.mark.parametrize("flags", [[], ["--a=-1", "--b", "5"]])
    def test_random_is_the_scenario_of_its_supports(self, tmp_path, capsys, flags, seed,
                                                    samples):
        # with no random pmfs, --random prints what a file of its supports
        # (auto choices, no query) prints
        intervals = [(-1.0, 5.0)] if flags else verify.CANONICAL_SUPPORTS
        path = tmp_path / "supports.json"
        path.write_text(json.dumps({"format_version": 1,
                                    "variables": [{"a": a, "b": b} for a, b in intervals]}))
        seeded = ["--seed", seed, "--samples", samples]
        from_flags = run_cli(["verify", "--random", "--pmfs", "0", *flags, *seeded], capsys)
        assert from_flags == run_cli(["verify", str(path), *seeded], capsys)
        assert from_flags[0] == 0

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run_cli(["verify"], capsys)
        assert code == 2


# A rule the scenario file and a CLI flag share, broken both ways: the
# scenario fields that break it, and the flags that break it.
SHARED_RULES = {
    "t <= 0": ({"query": {"t": [0.0]}}, ["--t", "0"]),
    "min >= max": (
        {"query": {"t_range": {"min": 2, "max": 2, "count": 5}}}, ["--t-range", "2", "2", "5"]
    ),
    "count 1": ({"query": {"t_range": {"min": 1, "max": 2, "count": 1}}},
                ["--t-range", "1", "2", "1"]),
    "count > MAX_T_COUNT": (
        {"query": {"t_range": {"min": 1, "max": 2, "count": MAX_T_COUNT + 1}}},
        ["--t-range", "1", "2", str(MAX_T_COUNT + 1)],
    ),
    "unknown family": ({"choices": [{"family": "bernstein"}]}, ["--family", "bernstein"]),
    "k on hertz": ({"choices": [{"family": "hertz", "k": 2}]}, ["--family", "hertz", "--k", "2"]),
    "order_k without k": ({"choices": [{"family": "order_k"}]}, ["--family", "order_k"]),
    "t and t_range": (
        {"query": {"t": [1], "t_range": {"min": 1, "max": 2, "count": 3}}},
        ["--t", "1", "--t-range", "1", "2", "3"],
    ),
    "seed < 0": ({"query": {"t": [1], "seed": -1}}, ["--seed", "-1"]),
    "samples < 1000": ({"query": {"t": [1], "samples": 999}}, ["--samples", "999"]),
    "k too large for a float": ({"choices": [{"family": "order_k", "k": 10 ** 400}]},
                                ["--family", "order_k", "--k", str(10 ** 400)]),
}


@pytest.mark.parametrize("fields, flags", SHARED_RULES.values(), ids=SHARED_RULES)
def test_file_and_flag_break_a_rule_alike(fixtures_dir, tmp_path, capsys, fields, flags):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 1, "variables": [{"a": -1, "b": 1}], **fields}))
    from_file = run_cli(["tail", str(path)], capsys)
    if "--family" in flags:
        argv = ["bound", "--a=-1", "--b", "1", "--s", "1", *flags]
    elif flags[0] in ("--seed", "--samples"):
        argv = ["verify", str(fixtures_dir / "example1.json"), *flags]
    else:
        argv = ["tail", str(fixtures_dir / "example1.json"), *flags]
    assert run_cli(argv, capsys) == from_file
    code, out, err = from_file
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "fields, where",
    [({"variables": [{"a": -1, "b": 10 ** 400}]}, "variables[0].b"),
     ({"variables": [{"a": -10 ** 400, "b": 1}]}, "variables[0].a"),
     ({"variables": [{"a": -1, "b": 1, "m2": 10 ** 400}]}, "variables[0].m2"),
     ({"variables": [{"a": -1, "b": 1, "m4": 10 ** 400}]}, "variables[0].m4"),
     ({"query": {"t": 10 ** 400}}, "query.t"),
     ({"query": {"t_range": {"min": 1, "max": 10 ** 400, "count": 3}}}, "t_range.max")],
    ids=["b", "a", "m2", "m4", "t", "t_range"],
)
def test_a_number_too_large_for_a_float_exits_2(tmp_path, capsys, fields, where):
    # a JSON integer past float's range is refused, not a traceback
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"format_version": 1, "variables": [{"a": -1, "b": 1}],
                                **fields}))
    for argv in (["tail", str(path), "--t", "1"], ["verify", str(path)]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{where} is too large for a float" in err


ZERO_M2 = "m2 = 0 with m4 = 0.5 > 0: no distribution has these moments"


@pytest.mark.parametrize("m4, code", [(0, 0), (0.5, 2)], ids=["m4 0", "m4 above 0"])
def test_verify_of_zero_m2_exits_without_a_traceback(tmp_path, m4, code):
    # m2 = m4 = 0 is the point mass at 0; no law has m2 = 0 < m4
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"format_version": 1, "variables": [
        {"a": -1, "b": 1, "m2": 0, "m4": m4, "odd_moments_zero": True}]}))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run([sys.executable, "-m", "kbounds", "verify", str(path)],
                            capture_output=True, text=True, env=env)
    assert result.returncode == code
    if code:
        assert (result.stdout, result.stderr) == ("", f"error: variables[0]: {ZERO_M2}\n")
    else:
        assert result.stdout.endswith("verdict,ok\n") and result.stderr == ""


def test_zero_m2_under_positive_m4_exits_2_on_every_command(tmp_path, capsys):
    # one rule for every command: the support refuses moments no law has
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"format_version": 1, "variables": [
        {"a": -1, "b": 1, "m2": 0, "m4": 0.5, "odd_moments_zero": True}]}))
    refusal = (2, "", f"error: variables[0]: {ZERO_M2}\n")
    for argv in (["tail", "--t", "0.5"], ["select", "--t", "0.5"],
                 ["sweep", "--group", "1", "--t-range", "0.5", "1", "2"], ["verify"]):
        assert run_cli([argv[0], str(path), *argv[1:]], capsys) == refusal
    for rest in (["--compare"], ["--family", "order4_moment"]):
        argv = ["bound", "--a=-1", "--b", "1", "--m2", "0", "--m4", "0.5",
                "--odd-moments-zero", "--s", "1", *rest]
        assert run_cli(argv, capsys) == (2, "", f"error: {ZERO_M2}\n")


def test_verify_refuses_a_support_too_narrow_for_its_laws_m4(tmp_path, capsys):
    # the symmetric law's measured m4 makes a^4 underflow; tail reads no m4
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps({"format_version": 1, "variables": [
        {"a": -1e-80, "b": 1e-80, "odd_moments_zero": True}], "query": {"t": [1e-80]}}))
    assert run_cli(["tail", str(path)], capsys)[0] == 0
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run([sys.executable, "-m", "kbounds", "verify", str(path)],
                            capture_output=True, text=True, env=env)
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", "error: support [-1e-80, 1e-80] is too narrow for m4: a^4 underflows\n")


# intervals `tail` certifies on which `verify` once measured an m4 that no
# bound reads and exited 2: its max(|a|, b)^4 overflowed, or, in subnormal
# rounding, the m4 failed its cap or Jensen's inequality
UNREAD_M4 = {"wide": (-1.0, 2e77, "1000"), "tiny": (-1e-78, 1e-78, "0"),
             "tinier": (-1e-80, 1e-80, "200")}


@pytest.mark.parametrize("source", ["flags", "scenario"])
@pytest.mark.parametrize("name", UNREAD_M4)
def test_verify_measures_no_unread_m4(tmp_path, capsys, name, source):
    a, b, pmfs = UNREAD_M4[name]
    if source == "flags":
        argv = ["verify", "--random", f"--a={a!r}", "--b", repr(b), "--pmfs", pmfs]
    else:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"format_version": 1, "variables": [{"a": a, "b": b}]}))
        assert run_cli(["tail", str(path), "--t", repr(b / 2)], capsys)[0] == 0
        argv = ["verify", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy under- or overflow warning either
        code, out, err = run_cli([*argv, "--samples", "1000"], capsys)
    assert (code, err) == (0, "")
    assert out.endswith("verdict,ok\n")


@st.composite
def wide_scale_files(draw):
    """Two variables with no odd_moments_zero at a scale from 2^-500 to
    2^500, each endpoint up to 2^60 away from it (so some intervals are
    lopsided), kept where ``BoundedSupport`` accepts both."""
    scale = draw(st.integers(-500, 500))
    variables = []
    for _ in range(2):
        a, b = (math.ldexp(draw(st.floats(0.5, 1.0)), scale + draw(st.integers(-60, 60)))
                for _ in range(2))
        try:
            BoundedSupport(-a, b)
        except ValueError:
            assume(False)
        variables.append({"a": -a, "b": b})
    return {"format_version": 1, "variables": variables}


def outcome(argv) -> tuple[int, str, str]:
    """``main``'s exit code, stdout and stderr, without capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def m2_refusal(variables) -> str | None:
    """The error a support with m2 declared gives for the first of the
    variables it refuses (an a^2 that underflows), else None."""
    for variable in variables:
        try:
            BoundedSupport(variable["a"], variable["b"], m2=0.0)
        except ValueError as exc:
            return f"error: {exc}\n"
    return None


@given(wide_scale_files())
@example({"format_version": 1, "variables": [  # lopsided: b1 + a2 = 0 lies far below t
    {"a": -2.3523082617124555e-07, "b": 1.2751888638521224e-26},
    {"a": -1.2751888638521224e-26, "b": 6.586228897255622e-22}]})
@settings(max_examples=60, deadline=None)
def test_verify_at_any_scale_gives_a_verdict_or_refuses_an_underflowing_a2(
        tmp_path_factory, doc):
    # a law's or a pmf's measured support declares its m2, so an a^2 that
    # underflows is refused with that support's own message; nothing else is.
    # The exact tail's window scales with each sum, so every tail row holds
    path = tmp_path_factory.mktemp("scale") / "scale.json"
    path.write_text(json.dumps(doc))
    first = doc["variables"][0]
    random = ["--random", f"--a={first['a']!r}", "--b", repr(first["b"]), "--pmfs", "20"]
    for source, variables in (([str(path)], doc["variables"]), (random, [first])):
        code, out, err = outcome(["verify", *source, "--samples", "1000"])
        refusal = m2_refusal(variables)
        if refusal is not None:
            assert (code, out, err) == (2, "", refusal)
        else:
            assert code in (0, 4) and err == ""
            assert out.endswith(("verdict,ok\n", "verdict,violation\n"))
            mc = [line for line in out.splitlines() if line.startswith("mc,")]
            assert mc and all(line.endswith(",1") for line in mc), out


@pytest.mark.parametrize("m2, m4, code, err", [
    # m2^2 underflows: the law's mass m2^2/m4 is 0 / 0 or 0, so verify refuses
    (1e-170, 0.0, 2, "error: m2=1e-170 is too small for m4: m2^2 underflows\n"),
    (1e-170, 1e-300, 2, "error: m2=1e-170 is too small for m4: m2^2 underflows\n"),
    # m2^2 = 1e-300 is normal: the law is all its mass on +-1e-75
    (1e-150, 1e-300, 0, ""),
], ids=["m4=0", "m4=1e-300", "normal-square"])
def test_verify_refuses_a_declared_m2_whose_square_underflows(tmp_path, capsys, m2, m4, code, err):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"format_version": 1, "variables": [
        {"a": -1, "b": 1, "m2": m2, "m4": m4, "odd_moments_zero": True}], "query": {"t": [0.5]}}))
    assert run_cli(["tail", str(path)], capsys)[0] == 0
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run([sys.executable, "-m", "kbounds", "verify", str(path)],
                            capture_output=True, text=True, env=env)
    assert (result.returncode, result.stderr) == (code, err)
    if code:
        assert result.stdout == ""
    else:
        assert result.stdout.endswith("verdict,ok\n")


def test_one_sample_floor_for_every_subcommand(fixtures_dir, tmp_path, capsys):
    # a file's samples are checked on load, so every subcommand refuses them
    doc = json.loads((fixtures_dir / "example5.json").read_text())
    doc["query"] = {"t": [6.0], "samples": MIN_SAMPLES - 1}
    path = tmp_path / "few.json"
    path.write_text(json.dumps(doc))
    refusal = (2, "", f"error: samples must be >= {MIN_SAMPLES}, got {MIN_SAMPLES - 1}\n")
    for argv in (["tail"], ["select"], ["sweep", "--group", "1,1,1,1"], ["verify"]):
        assert run_cli([argv[0], str(path), *argv[1:]], capsys) == refusal
    # a flag gets the same rule and message, whatever its value below the floor
    for samples in (0, 1, MIN_SAMPLES - 1):
        code, out, err = run_cli(["verify", "--random", "--samples", str(samples)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: samples must be >= {MIN_SAMPLES}, got {samples}\n"
    doc["query"]["samples"] = MIN_SAMPLES
    path.write_text(json.dumps(doc))
    assert run_cli(["tail", str(path)], capsys)[0] == 0
    with pytest.raises(ValueError, match=f"at least {MIN_SAMPLES} samples"):
        oracle.mc_sum_tail([FinitePmf((-1.0, 1.0), (0.5, 0.5), BoundedSupport(-1, 1))],
                           [0.5], MIN_SAMPLES - 1, seed=0)


def bisection_crossovers(scenarios, ts):
    """The earlier sweep's crossovers: grid winners, refined by bisection.

    Kept as the reference for the closed-form edges, with its 1e-6 tolerance.
    """

    def winner(t):
        values = [one_sided_tail(s, t).log_bound for s in scenarios]
        return min(range(len(values)), key=lambda i: (values[i], i))

    found = []
    for lo, hi in zip(ts, ts[1:]):
        before, after = winner(lo), winner(hi)
        if before == after:
            continue
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            if winner(mid) == before:
                lo = mid
            else:
                hi = mid
        found.append((f"group{before + 1}->group{after + 1}", 0.5 * (lo + hi)))
    return found


def numpy_sweep(args) -> int:
    """``cmd_sweep`` on a numpy (group x t) table, as it was before the table
    moved to floats, kept as its reference: the grid is ``np.linspace``, the
    curves one broadcast ``log_bound`` and the first non-finite t its argmax."""
    scenario = load_scenario(args.scenario)
    query = cli._resolve_query(scenario, args)
    ts = np.asarray(np.linspace(*query.t_range) if query.t_range else query.resolve_ts())
    variables = scenario.variables
    if args.group:
        groups = [cli._parse_group(g, len(variables)) for g in args.group]
        scenarios = [order_k_scenario(variables, ks) for ks in groups]
    elif not scenario.auto:
        scenarios = [SumScenario(scenario.variables, scenario.choices)]
    else:
        raise ValueError("sweep needs --group selections (or explicit choices)")

    big_l, big_r = np.array([totals(s) for s in scenarios]).T
    with np.errstate(over="ignore"):
        curves = log_bound(big_l[:, None], big_r[:, None], ts)
    bad = ~np.isfinite(curves).all(axis=0)
    if bad.any():
        raise ValueError(f"t={g12(ts[bad.argmax()])}: the log bound is not finite")
    names = [f"group{i + 1}" for i in range(len(scenarios))]
    lines = ["t," + ",".join(names)]
    for t, column in zip(ts.tolist(), curves.T.tolist()):
        lines.append(g12(t) + "," + ",".join(g12(c) for c in column))
    runs = regimes(big_l, big_r, ts.min(), ts.max())
    for (_, edge, before), (_, _, after) in zip(runs, runs[1:]):
        lines.append(f"crossover,{names[before]}->{names[after]},{g12(edge)}")
    cli._emit(args, lines)
    return 0


def run_numpy_sweep(argv, capsys):
    """``run_cli`` with ``numpy_sweep`` in place of ``cmd_sweep``."""
    try:
        code = numpy_sweep(cli.build_parser().parse_args(argv))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    captured = capsys.readouterr()
    return code, captured.out, captured.err


EXAMPLE5_GROUPS = ["--group", "1,1,1,1", "--group", "1,2,1,1", "--group", "1,2,1,2"]
# (scenario: a fixture or "fixed", the golden fixed-choice one with its own
# t_range; a query that replaces the file's or None; flags; exit code)
SWEEP_CASES = {
    "file t_range": ("example5.json", None, EXAMPLE5_GROUPS, 0),
    "flag t_range": ("example5.json", None,
                     ["--t-range", "0.05", "25", "1000", "--group", "1,2,1,1",
                      "--group", "1,1,1,1", "--group", "1,2,1,1", "--group", "2,2,2,2"], 0),
    "fixed choices": ("fixed", None, [], 0),
    "fixed dense": ("fixed", None, ["--t-range", "0.01", "60", "4000"], 0),
    "unsorted repeats": ("example5.json", {"t": [11, 2, 8, 2, 0.5, 11, 5.66467951395]},
                         EXAMPLE5_GROUPS, 0),
    "fixed unsorted": ("fixed", {"t": [3, 0.25, 3, 40, 1]}, [], 0),
    "subnormal range": ("example5.json", None,
                        ["--t-range", "1e-320", "2e-320", "1000", *EXAMPLE5_GROUPS], 0),
    "overflow": ("example5.json", None,
                 ["--t-range", "1e150", "1e156", "50", *EXAMPLE5_GROUPS], 2),
    "fixed overflow": ("fixed", {"t": [1, 1e200, 1e300]}, [], 2),
}


class TestSweep:
    GROUPS = EXAMPLE5_GROUPS
    # a duplicate group ties with its first copy everywhere
    TIED = ["1,2,1,1", "1,1,1,1", "1,2,1,1", "2,2,2,2", "1,2,1,2", "1,3,1,3"]

    @pytest.mark.parametrize(
        "groups, t_range",
        [
            (GROUPS[1::2], ("0.1", "12", "400")),
            (TIED, ("0.3", "40", "157")),
            (TIED[::-1], ("0.05", "25", "1000")),
        ],
    )
    def test_matches_bisection_reference(self, fixtures_dir, capsys, groups, t_range):
        path = fixtures_dir / "example5.json"
        argv = ["sweep", str(path), "--t-range", *t_range]
        for group in groups:
            argv += ["--group", group]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        variables = load_scenario(path).variables
        scenarios = [
            order_k_scenario(variables, [int(k) for k in g.split(",")]) for g in groups
        ]
        lo, hi, count = t_range
        ts = np.linspace(float(lo), float(hi), int(count)).tolist()
        table = rows(out)
        body = table[1 : 1 + len(ts)]
        assert [float(r[0]) for r in body] == [float(g12(t)) for t in ts]
        for record, t in zip(body, ts):
            assert record[1:] == [g12(one_sided_tail(s, t).log_bound) for s in scenarios]
        crossings = table[1 + len(ts) :]
        want = bisection_crossovers(scenarios, ts)
        assert [r[1] for r in crossings] == [label for label, _ in want]
        assert all(r[0] == "crossover" for r in crossings)
        for record, (_, t_cross) in zip(crossings, want):
            assert float(record[2]) == pytest.approx(t_cross, rel=0, abs=1e-6)
        assert len(want) >= 2

    def test_crossings_do_not_depend_on_the_grid(self, fixtures_dir, capsys):
        scenario = str(fixtures_dir / "example5.json")
        outs = []
        for count in ("400", "1000"):
            _, out, _ = run_cli(
                ["sweep", scenario, "--t-range", "0.1", "12", count, *self.GROUPS],
                capsys,
            )
            outs.append([r for r in rows(out) if r[0] == "crossover"])
        assert outs[0] == outs[1]
        # the closed forms, to the CSV's 12 significant digits
        first = math.sqrt(math.log(6 / 5) / (1 / 55 - 1 / 80))
        second = math.sqrt(math.log(6 / 5) / (1 / 50 - 1 / 55))
        assert [r[2] for r in outs[0]] == [g12(first), g12(second)]

    def test_crossings_do_not_depend_on_the_t_order(self, fixtures_dir, tmp_path, capsys):
        # the crossovers span the smallest to the largest t, in any order
        doc = json.loads((fixtures_dir / "example5.json").read_text())
        doc["query"] = {"t": [11, 2, 8]}
        path = tmp_path / "unordered.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["sweep", str(path), *self.GROUPS], capsys)
        assert code == 0
        table = rows(out)
        assert [r[0] for r in table[1:4]] == ["11", "2", "8"]
        assert table[4:] == [
            ["crossover", "group1->group2", "5.66467951395"],
            ["crossover", "group2->group3", "10.0138332439"],
        ]

    @pytest.mark.parametrize("case", list(SWEEP_CASES))
    def test_matches_numpy_table(self, fixtures_dir, tmp_path, capsys, case):
        name, query, flags, expected = SWEEP_CASES[case]
        if name == "fixed":
            doc = json.loads(json.dumps(FIXED))
        else:
            doc = json.loads((fixtures_dir / name).read_text())
        if query is not None:
            doc["query"] = query
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        argv = ["sweep", str(path), *flags]
        got = run_cli(argv, capsys)
        assert got == run_numpy_sweep(argv, capsys)
        code, out, err = got
        assert code == expected
        if code == 2:
            assert out == "" and err.endswith(": the log bound is not finite\n")

    def test_fractional_range_count_exits_2(self, fixtures_dir, capsys):
        scenario = str(fixtures_dir / "example5.json")
        code, out, err = run_cli(
            ["sweep", scenario, "--t-range", "0.1", "12", "40.5", *self.GROUPS], capsys
        )
        assert code == 2
        assert out == ""
        assert "integer" in err

    def test_figure_reproduction(self, fixtures_dir, capsys):
        scenario = str(fixtures_dir / "example5.json")
        code, out, _ = run_cli(
            ["sweep", scenario, "--t-range", "0.1", "12", "400", *self.GROUPS], capsys
        )
        assert code == 0
        crossings = [r for r in rows(out) if r[0] == "crossover"]
        assert [c[1] for c in crossings] == ["group1->group2", "group2->group3"]
        assert float(crossings[0][2]) == pytest.approx(5.6647, abs=1e-3)
        assert float(crossings[1][2]) == pytest.approx(10.0138, abs=1e-3)

    def test_crossings_match_closed_form(self, fixtures_dir, capsys):
        # equating the group curves: t^2 = ln(6/5) / (1/55 - 1/80) and
        # t^2 = ln(6/5) / (1/50 - 1/55)
        scenario = str(fixtures_dir / "example5.json")
        _, out, _ = run_cli(
            ["sweep", scenario, "--t-range", "0.1", "12", "400", *self.GROUPS], capsys
        )
        crossings = [float(r[2]) for r in rows(out) if r[0] == "crossover"]
        first = math.sqrt(math.log(6 / 5) / (1 / 55 - 1 / 80))
        second = math.sqrt(math.log(6 / 5) / (1 / 50 - 1 / 55))
        assert crossings[0] == pytest.approx(first, abs=1e-4)
        assert crossings[1] == pytest.approx(second, abs=1e-4)

    def test_single_group_has_no_crossover_rows(self, fixtures_dir, capsys):
        scenario = str(fixtures_dir / "example5.json")
        code, out, _ = run_cli(
            ["sweep", scenario, "--t-range", "0.1", "12", "50", "--group", "1,1,1,1"],
            capsys,
        )
        assert code == 0
        assert not any(r[0] == "crossover" for r in rows(out))

    def test_byte_stable(self, fixtures_dir, capsys):
        scenario = str(fixtures_dir / "example1.json")
        args = ["sweep", scenario, "--t-range", "0.5", "2", "20", "--group", "1"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

    def test_out_file_gets_lf_endings(self, fixtures_dir, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            [
                "sweep",
                str(fixtures_dir / "example1.json"),
                "--t-range",
                "0.5",
                "2",
                "5",
                "--group",
                "1",
                "--out",
                str(target),
            ],
            capsys,
        )
        assert code == 0
        raw = target.read_bytes()
        assert b"\r" not in raw
        assert raw.decode().count("\n") == 6

    def test_group_must_match_variable_count(self, fixtures_dir, capsys):
        code, _, err = run_cli(
            [
                "sweep",
                str(fixtures_dir / "example5.json"),
                "--t-range",
                "1",
                "2",
                "5",
                "--group",
                "1,1",
            ],
            capsys,
        )
        assert code == 2


def mirrored_by_hand(variable: dict) -> dict:
    """A scenario variable on [-b, -a], with its other keys as they were."""
    return dict(variable, a=-variable["b"], b=-variable["a"])


# (variables, choices, t): the first two are the lopsided two-variable cases
# whose lower side `select` and `sweep` once answered with the upper side's
LOPSIDED = {
    "auto": ([{"a": -1, "b": 5}] * 2, "auto", [3.0]),
    "order_k 3": ([{"a": -1, "b": 5}] * 2, [{"family": "order_k", "k": 3}] * 2, [3.0]),
    "moments auto": ([{"a": -1, "b": 5}, {"a": -2, "b": 3, "m2": 1.5}, {"a": -4, "b": 1},
                      {"a": -2, "b": 2, "m2": 1, "m4": 2, "odd_moments_zero": True}],
                     "auto", [0.7, 2.5, 5.0]),
    "moments fixed": ([{"a": -1, "b": 5}, {"a": -2, "b": 3, "m2": 1.5}, {"a": -4, "b": 1},
                       {"a": -2, "b": 2, "m2": 1, "m4": 2, "odd_moments_zero": True}],
                      [{"family": "order_k", "k": 2}, {"family": "order2_moment"},
                       {"family": "hertz"}, {"family": "order4_moment"}],
                      [0.7, 2.5, 5.0]),
}


class TestQuerySide:
    """Every command answers the file's side: the lower side is the upper
    side of the variables mirrored by hand, byte for byte."""

    def write(self, tmp_path, name, variables, choices, ts, side=None):
        query = {"t": ts} if side is None else {"t": ts, "side": side}
        path = tmp_path / name
        path.write_text(json.dumps({"format_version": 1, "variables": variables,
                                    "choices": choices, "query": query}))
        return str(path)

    @staticmethod
    def argv(command, choices, ts, n):
        """The command and its flags; the scenario path goes after the command."""
        groups = ["--group", ",".join("2" * n), "--group", ",".join("1" * n)]
        return {
            "tail": ["tail"],
            "select": ["select", "--t", repr(ts[-1])],
            "sweep": ["sweep", "--t-range", repr(ts[0]), repr(ts[-1] + 0.1), "7",
                      *(groups if choices == "auto" else [])],
            "verify": ["verify", "--samples", "1000"],
        }[command]

    @pytest.mark.parametrize("command", ["tail", "select", "sweep", "verify"])
    @pytest.mark.parametrize("case", list(LOPSIDED))
    def test_lower_is_the_mirrored_upper(self, tmp_path, case, command):
        variables, choices, ts = LOPSIDED[case]
        lower = self.write(tmp_path, "lower.json", variables, choices, ts, "lower")
        by_hand = self.write(tmp_path, "by_hand.json", [mirrored_by_hand(v) for v in variables],
                             choices, ts)
        upper = self.write(tmp_path, "upper.json", variables, choices, ts)
        argv = self.argv(command, choices, ts, len(variables))
        want = cli_stdout([argv[0], by_hand, *argv[1:]])
        assert cli_stdout([argv[0], lower, *argv[1:]]) == want
        assert cli_stdout([argv[0], upper, *argv[1:]]) != want

    def test_the_reproduced_cases(self, tmp_path):
        variables, choices, ts = LOPSIDED["auto"]
        path = self.write(tmp_path, "auto.json", variables, choices, ts, "lower")
        assert rows(cli_stdout(["tail", path]))[1] == ["3", "-0.535356886412", "0.6", "2|2"]
        assert rows(cli_stdout(["select", path]))[:2] == [["k", "2|2"],
                                                          ["log_bound", "-0.535356886412"]]
        variables, choices, ts = LOPSIDED["order_k 3"]
        path = self.write(tmp_path, "fixed.json", variables, choices, ts, "lower")
        assert rows(cli_stdout(["tail", path]))[1][1] == "1.86887582487"
        out = cli_stdout(["sweep", path, "--t-range", "3", "3.1", "2"])
        assert rows(out)[1] == ["3", "1.86887582487"]

    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize("case", ["order_k 3", "moments fixed"])
    def test_select_prints_the_fixed_choices_tail_prints(self, tmp_path, case, side):
        # select once ran the order search on a fixed-choice file: 1|1 for
        # order_k 3 where tail printed 3|3
        variables, choices, ts = LOPSIDED[case]
        path = self.write(tmp_path, "fixed.json", variables, choices, ts, side)
        for t in ts:
            _, log_bound, _, ks = rows(cli_stdout(["tail", path, "--t", repr(t)]))[1]
            assert ks in ("3|3", "2|order2_moment|hertz|order4_moment")
            selected = rows(cli_stdout(["select", path, "--t", repr(t)]))
            assert selected[:2] == [["k", ks], ["log_bound", log_bound]]
            assert len(selected) == 3 + 8 * len(variables)  # the crossover table stays

    @pytest.mark.parametrize("command", ["select", "sweep", "verify"])
    @pytest.mark.parametrize("case", ["auto", "order_k 3"])
    def test_two_sided_exits_2(self, tmp_path, capsys, case, command):
        variables, choices, ts = LOPSIDED[case]
        path = self.write(tmp_path, "two.json", variables, choices, ts, "two_sided")
        argv = self.argv(command, choices, ts, len(variables))
        code, out, err = run_cli([argv[0], path, *argv[1:]], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: query.side two_sided has two answers and only tail prints "
                       "both; give side upper or lower\n")

    @pytest.mark.parametrize("command", ["select", "sweep", "verify"])
    @pytest.mark.parametrize("choices", ["auto", [{"family": "hertz"}, {"family": "classic"}]])
    def test_a_refused_mirror_names_the_variable(self, tmp_path, capsys, choices, command):
        variables = [{"a": -1, "b": 1}, {"a": -1e10, "b": 1e-300}]
        argv = self.argv(command, choices, [1.0, 2.0], len(variables))
        path = self.write(tmp_path, "mirror.json", variables, choices, [1.0, 2.0], "lower")
        code, out, err = run_cli([argv[0], path, *argv[1:]], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: variables[1] mirrored for the lower tail: support "
                              "[-1e-300, 10000000000.0] is too lopsided")
        assert err.count("\n") == 1


# the fixed-choice file whose certificate `verify` once never sampled: `tail`
# printed hertz|order2_moment while `verify` sampled 1|1 and 2|2
HERTZ_M2 = ([{"a": -1, "b": 5}, {"a": -2, "b": 2, "m2": 1}],
            [{"family": "hertz"}, {"family": "order2_moment"}], [1.0, 2.5, 4.0])


class TestVerifyChecksTail:
    """Each of `verify`'s Monte Carlo rows is `tail`'s row at its t: the same
    ks cell, and the certificate exp(min(log_bound, 0))."""

    @staticmethod
    def check(verify_argv, tail_argv, query, supports):
        mc = [row for row in rows(cli_stdout(verify_argv)) if row[0] == "mc"]
        ts = verify._mc_thresholds(query, sum(s.b for s in supports))
        tail = rows(cli_stdout([*tail_argv, "--t", *map(repr, ts)]))[1:]
        assert len(mc) == len(ts) == len(tail)
        for (_, t, ks, _, _, cert, _), (t_tail, log_bound, _, ks_tail) in zip(mc, tail):
            assert (t, ks) == (t_tail, ks_tail)
            assert math.isclose(float(cert), math.exp(min(float(log_bound), 0.0)),
                                rel_tol=1e-10)

    def check_file(self, path):
        scenario = load_scenario(path)
        supports = one_side(scenario.variables, scenario.query.side)
        self.check(["verify", path, "--samples", "1000"], ["tail", path], scenario.query,
                   supports)

    @pytest.mark.parametrize("name", [f"example{i}.json" for i in range(1, 6)] + ["fixed.json"])
    def test_scenario_rows(self, fixtures_dir, tmp_path, name):
        (tmp_path / "fixed.json").write_text(json.dumps(FIXED))
        self.check_file(str((tmp_path if name == "fixed.json" else fixtures_dir) / name))

    @pytest.mark.parametrize("side", ["upper", "lower"])
    @pytest.mark.parametrize("case", [*LOPSIDED, "hertz order2_moment"])
    def test_sided_file_rows(self, tmp_path, case, side):
        variables, choices, ts = HERTZ_M2 if case == "hertz order2_moment" else LOPSIDED[case]
        path = str(tmp_path / "sided.json")
        Path(path).write_text(json.dumps({"format_version": 1, "variables": variables,
                                          "choices": choices,
                                          "query": {"t": ts, "side": side}}))
        self.check_file(path)

    @pytest.mark.parametrize("flags", [[], ["--a=-1", "--b", "5"], ["--k-max", "1"]])
    def test_random_rows(self, tmp_path, flags):
        # --random's rows are those of an auto upper-side file of its supports
        intervals = [(-1.0, 5.0)] if "--a=-1" in flags else verify.CANONICAL_SUPPORTS
        path = tmp_path / "random.json"
        path.write_text(json.dumps({"format_version": 1, "choices": "auto",
                                    "variables": [{"a": a, "b": b} for a, b in intervals]}))
        k_max = flags if "--k-max" in flags else []
        self.check(["verify", "--random", "--pmfs", "5", "--samples", "1000", *flags],
                   ["tail", str(path), *k_max], Query(),
                   [BoundedSupport(a, b) for a, b in intervals])


@st.composite
def law_files(draw):
    """A one-sided scenario of 1 to 4 variables at one scale from 1e-6 to
    1e6: plain, with an m2, or symmetric with odd moments zero; auto or fixed
    choices; the file's t or none."""
    scale = draw(st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]))
    variables, choices = [], []
    for _ in range(draw(st.integers(1, 4))):
        a, b = -draw(st.floats(0.2, 5.0)) * scale, draw(st.floats(0.2, 5.0)) * scale
        kind = draw(st.sampled_from(["plain", "m2", "symmetric"]))
        families = [{"family": "classic"}, {"family": "hertz"},
                    {"family": "order_k", "k": draw(st.integers(1, 8))}]
        if kind == "m2":
            variables.append({"a": a, "b": b, "m2": draw(st.floats(0.05, 1.0)) * -a * b})
            families.append({"family": "order2_moment"})
        elif kind == "symmetric":
            variables.append({"a": a, "b": -a, "odd_moments_zero": True})
            families.append({"family": "symmetric_order4"})
        else:
            variables.append({"a": a, "b": b})
        choices.append(draw(st.sampled_from(families)))
    query = {"side": draw(st.sampled_from(["upper", "lower"]))}
    ts = draw(st.lists(st.floats(0.01, 8.0), max_size=10))
    if ts:
        query["t"] = [t * scale for t in ts]
    return {"format_version": 1, "variables": variables,
            "choices": draw(st.sampled_from(["auto", choices])), "query": query}


class TestVerifyTailRows:
    """`verify`'s tail rows: the exact tail of the laws' sum, else a sample."""

    @given(law_files())
    @settings(max_examples=80, deadline=None)
    def test_exact_tail_is_at_most_every_certificate_tail_prints(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("laws") / "laws.json"
        path.write_text(json.dumps(doc))
        scenario = load_scenario(path)
        supports = one_side(scenario.variables, scenario.query.side)
        laws = [oracle.moment_matched_pmf(s) for s in supports]
        ts = verify._mc_thresholds(scenario.query, sum(law.support.b for law in laws))
        tail = rows(cli_stdout(["tail", str(path), "--t", *map(repr, ts)]))[1:]
        for p, (_, log_bound, *_) in zip(oracle.exact_sum_tail(laws, ts), tail, strict=True):
            assert p <= math.exp(min(float(log_bound), 0.0))

    def test_a_sum_past_the_cap_is_sampled(self, tmp_path, capsys, monkeypatch):
        sampled = []

        def recording_mc_sum_tail(pmfs, ts, samples, seed):
            sampled.append((len(pmfs), samples, seed))
            return oracle.mc_sum_tail(pmfs, ts, samples, seed)

        monkeypatch.setattr(verify, "mc_sum_tail", recording_mc_sum_tail)
        path = tmp_path / "laws.json"
        for count in (10, 11):
            path.write_text(json.dumps({"format_version": 1,
                                        "variables": SAMPLED_VARIABLES[:count]}))
            code, out, _ = run_cli(["verify", str(path), "--samples", "2000", "--seed", "7"],
                                   capsys)
            assert (code, out[-11:]) == (0, "verdict,ok\n")
            mc = [row for row in rows(out) if row[0] == "mc"]
            assert len(mc) == 3
            if count == 10:  # exact: no std error, and nothing sampled
                assert {row[4] for row in mc} == {"0"} and sampled == []
        assert sampled == [(11, 2000, 7)]
        assert any(float(row[4]) > 0.0 for row in mc)

    @pytest.mark.parametrize("source", [["fixtures/example5.json"], ["--random", "--pmfs", "0"]])
    def test_exact_rows_read_no_samples_or_seed(self, capsys, source):
        outs = {run_cli(["verify", *source, *flags], capsys)
                for flags in ([], ["--samples", "1000", "--seed", "3"],
                              ["--samples", str(MAX_SAMPLES), "--seed", "2"])}
        [(code, out, _)] = outs
        assert code == 0 and ",0," in out

    def test_samples_help_says_when_they_are_drawn(self, capsys):
        assert oracle.MAX_SUMS == 2 ** 16
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "drawn only for a sum of laws with more than 2^16 distinct values" in text


@pytest.mark.parametrize("k_max", [MAX_K_MAX + 1, 10 ** 11])
@pytest.mark.parametrize("command", ["bound", "tail", "select", "verify file", "verify random"])
def test_k_max_above_the_ceiling_exits_2(fixtures_dir, capsys, command, k_max):
    # refused before any catalog or front is built, from a flag with a file
    # or with flags alone
    example1 = str(fixtures_dir / "example1.json")
    argv = {
        "bound": ["bound", "--a=-2", "--b", "1", "--compare", "--s", "3"],
        "tail": ["tail", example1, "--t", "1"],
        "select": ["select", example1, "--t", "1"],
        "verify file": ["verify", example1],
        "verify random": ["verify", "--random", "--pmfs", "5"],
    }[command]
    refusal = (2, "", f"error: k_max must be at most {MAX_K_MAX}, got {k_max}\n")
    assert run_cli([*argv, "--k-max", str(k_max)], capsys) == refusal


def test_k_max_at_the_ceiling_runs(capsys):
    code, out, _ = run_cli(["bound", "--a=-2", "--b", "1", "--compare", "--s", "0.01",
                            "--k-max", str(MAX_K_MAX)], capsys)
    assert code == 0
    assert len(rows(out)) == 1 + 2 + MAX_K_MAX


def test_samples_above_the_ceiling_exit_2_from_a_file_and_a_flag(fixtures_dir, tmp_path,
                                                                 capsys):
    doc = json.loads((fixtures_dir / "example1.json").read_text())
    doc["query"]["samples"] = MAX_SAMPLES + 1
    path = tmp_path / "many.json"
    path.write_text(json.dumps(doc))
    refusal = (2, "", f"error: samples must be at most {MAX_SAMPLES}, got {MAX_SAMPLES + 1}\n")
    assert run_cli(["verify", str(path)], capsys) == refusal
    assert run_cli(["tail", str(path)], capsys) == refusal
    for argv in (["verify", str(fixtures_dir / "example1.json")], ["verify", "--random"]):
        assert run_cli([*argv, "--samples", str(MAX_SAMPLES + 1)], capsys) == refusal
    huge = run_cli(["verify", "--random", "--pmfs", "0", "--samples", str(10 ** 15)], capsys)
    assert huge == (2, "", f"error: samples must be at most {MAX_SAMPLES}, got {10 ** 15}\n")
    with pytest.raises(ValueError, match=f"at most {MAX_SAMPLES} samples"):
        oracle.mc_sum_tail([FinitePmf((-1.0, 1.0), (0.5, 0.5), BoundedSupport(-1, 1))],
                           [0.5], MAX_SAMPLES + 1, seed=0)


def test_cli_option_count_is_pinned():
    # every flag is a knob a user must learn: a new one updates this pin and
    # says why in CHANGES.md
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    counts = {
        name: sum(bool(a.option_strings) and not isinstance(a, argparse._HelpAction)
                  for a in sub._actions)
        for name, sub in subparsers.choices.items()
    }
    assert counts == {"bound": 11, "tail": 5, "select": 3, "verify": 9, "sweep": 3}
    assert sum(counts.values()) == 31


# one small run of each subcommand; a path inside the fixtures directory is
# a file name there
SUBCOMMANDS = {
    "bound": ["bound", "--a", "-1", "--b", "1", "--family", "hertz", "--s", "2"],
    "tail": ["tail", "example1.json", "--t", "1"],
    "select": ["select", "example5.json", "--t", "6.5"],
    "verify": ["verify", "--random", "--pmfs", "5", "--samples", "1000"],
    "sweep": ["sweep", "example5.json", "--t-range", "1", "2", "3", "--group", "1,1,1,1"],
}


def in_fixtures(fixtures_dir, argv):
    return [str(fixtures_dir / arg) if arg.endswith(".json") else arg for arg in argv]


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@pytest.mark.parametrize("where", ["missing directory", "a directory"])
def test_unwritable_out_exits_2(fixtures_dir, tmp_path, capsys, command, where):
    out = tmp_path / "missing" / "x.csv" if where == "missing directory" else tmp_path
    argv = in_fixtures(fixtures_dir, SUBCOMMANDS[command]) + ["--out", str(out)]
    code, stdout, err = run_cli(argv, capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: cannot write --out {out}: ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# the module entry point loads numpy only for verify and the in-process front
# end has it loaded already: each path must print what the front end prints
ENTRY_POINT_COMMANDS = {
    "bound": SUBCOMMANDS["bound"],
    "select": SUBCOMMANDS["select"],
    "tail-t": ["tail", "example5.json", "--t", "3", "6.5", "9", "--side", "two_sided"],
    "tail-t_range": ["tail", "example5.json"],
    "sweep": ["sweep", "example5.json", "--group", "1,1,1,1", "--group", "1,2,1,2"],
    "verify": ["verify", "--random", "--pmfs", "50", "--samples", "1000", "--seed", "3"],
}


@pytest.mark.parametrize("name", list(ENTRY_POINT_COMMANDS))
def test_module_entry_point(fixtures_dir, capsys, name):
    argv = in_fixtures(fixtures_dir, ENTRY_POINT_COMMANDS[name])
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    result = subprocess.run(
        [sys.executable, "-m", "kbounds", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    code, out, err = run_cli(argv, capsys)
    assert (result.returncode, result.stdout, result.stderr) == (code, out, err)
    assert code == 0 and out
