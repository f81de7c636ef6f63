import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kbounds import cli
from kbounds.bounds import BoundedSupport, Family, MgfBound, mgf_bound
from kbounds.cli import g12, main
from kbounds.oracle import S_GRID, FinitePmf, moments, random_mean_zero_stack
from kbounds.scenario import MAX_T_COUNT, load_scenario
from kbounds.tails import one_sided_tail, order_k_scenario
from test_oracle import list_validity_gap, mixed_pmfs, stack_of
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
        # rejected before any t value is made: linspace is never reached
        def no_linspace(*args, **kwargs):
            raise AssertionError("linspace called")

        monkeypatch.setattr(np, "linspace", no_linspace)
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


class TestSelect:
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
    for tag, bound in cli._applicable_bounds(measured, cli._catalog_tags(k_max)):
        bound = MgfBound(bound.log_multiplier, bound.rate * poison, tag)
        label = "order_k" if tag.family is Family.ORDER_K else tag.label()
        gap = list_validity_gap(pmf, bound, S_GRID)
        if label not in gaps or gap > gaps[label]:
            gaps[label] = gap
    return gaps


def batches_of(pmfs):
    """The pmfs as ``_family_max_gaps`` takes them: per support, one stack per atom count."""
    by_support = {}
    for pmf in pmfs:
        by_support.setdefault(pmf.support, {}).setdefault(len(pmf.xs), []).append(pmf)
    return [
        (support, [stack_of(group) for group in by_count.values()])
        for support, by_count in by_support.items()
    ]


def per_pmf_max_gaps(pmfs, k_max, poison):
    max_gap = {}
    for pmf in pmfs:
        for label, gap in sweep_one_pmf(pmf, k_max, poison).items():
            if label not in max_gap or gap > max_gap[label]:
                max_gap[label] = gap
    return max_gap


class TestVerify:
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
            batched = cli._family_max_gaps(batches_of(pmfs), k_max, poison)
            assert batched == per_pmf_max_gaps(pmfs, k_max, poison)
            assert {"classic", "hertz", "order_k", "order2_moment"} <= set(batched)

    def test_fourth_order_families_are_not_probed_per_pmf(self, monkeypatch, capsys):
        # no measured support asserts odd_moments_zero, so order4_moment and
        # symmetric_order4 are tried once per support, never once per pmf
        failed = []

        def counting_mgf_bound(support, tag):
            try:
                return mgf_bound(support, tag)
            except ValueError:
                failed.append(tag)
                raise

        monkeypatch.setattr(cli, "mgf_bound", counting_mgf_bound)
        code, _, _ = run_cli(
            ["verify", "--random", "--pmfs", "50", "--samples", "1000"], capsys
        )
        assert code == 0
        assert len(failed) <= 2 * len(cli.CANONICAL_SUPPORTS)

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
        doc = json.loads((fixtures_dir / "example5.json").read_text())
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

        monkeypatch.setattr(cli, "exact_log_mgf_rows", no_sweep)
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
         (["--poison-rate", "0"], "--poison-rate"), (["--poison-rate", "-1"], "--poison-rate")],
    )
    def test_bad_input_exits_2_before_any_pmf_is_drawn(self, capsys, monkeypatch,
                                                       fixtures_dir, flags, message):
        def no_pmfs(*args, **kwargs):
            raise AssertionError("drew pmfs for a rejected command")

        monkeypatch.setattr(cli, "random_mean_zero_stack", no_pmfs)
        monkeypatch.setattr(cli, "moment_matched_pmf", no_pmfs)
        for source in (["--random"], [str(fixtures_dir / "example5.json")]):
            code, out, err = run_cli(["verify", *source, *flags], capsys)
            assert code == 2
            assert out == ""
            assert message in err

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

        monkeypatch.setattr(cli, "random_mean_zero_stack", recording_stack)
        code, _, _ = run_cli(["verify", "--random", "--pmfs", "300", "--samples", "2000"],
                             capsys)
        assert code == 0
        assert len({(support, atoms) for support, atoms, _, _ in calls}) == len(calls)
        assert len({id(rng) for *_, rng in calls}) == 1  # one generator for every stack
        for a, b in cli.CANONICAL_SUPPORTS:
            drawn = [rows for support, _, rows, _ in calls if support == BoundedSupport(a, b)]
            assert sum(drawn) == 300

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
}


@pytest.mark.parametrize("fields, flags", SHARED_RULES.values(), ids=SHARED_RULES)
def test_file_and_flag_break_a_rule_alike(fixtures_dir, tmp_path, capsys, fields, flags):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 1, "variables": [{"a": -1, "b": 1}], **fields}))
    from_file = run_cli(["tail", str(path)], capsys)
    if "--family" in flags:
        argv = ["bound", "--a=-1", "--b", "1", "--s", "1", *flags]
    else:
        argv = ["tail", str(fixtures_dir / "example1.json"), *flags]
    assert run_cli(argv, capsys) == from_file
    code, out, err = from_file
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


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


class TestSweep:
    GROUPS = ["--group", "1,1,1,1", "--group", "1,2,1,1", "--group", "1,2,1,2"]
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


def test_module_entry_point(fixtures_dir):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "kbounds",
            "bound",
            "--a",
            "-1",
            "--b",
            "1",
            "--family",
            "hertz",
            "--s",
            "2",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[1] == "hertz,0,0.5,2"
