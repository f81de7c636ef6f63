import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kbounds.bounds import Family
from kbounds.scenario import MAX_T_COUNT, Query, ScenarioError, load_scenario, parse_scenario
from kbounds.tails import Side


def minimal(**extra):
    doc = {
        "format_version": 1,
        "variables": [{"a": -1, "b": 1}],
    }
    doc.update(extra)
    return doc


class TestParsing:
    def test_minimal_document(self):
        scenario = parse_scenario(minimal())
        assert scenario.auto
        assert scenario.variables[0].a == -1.0
        assert scenario.query.side is Side.UPPER

    def test_explicit_choices(self):
        doc = minimal(choices=[{"family": "order_k", "k": 2}])
        scenario = parse_scenario(doc)
        assert not scenario.auto
        assert scenario.choices[0].family is Family.ORDER_K
        assert scenario.choices[0].k == 2
        scenario.sum_scenario()

    def test_full_query(self):
        doc = minimal(
            query={"t": [1.0, 2.0], "side": "two_sided", "samples": 5000, "seed": 3}
        )
        q = parse_scenario(doc).query
        assert q.ts == (1.0, 2.0)
        assert q.side is Side.TWO_SIDED
        assert (q.samples, q.seed) == (5000, 3)

    def test_missing_query_keys_take_the_query_defaults(self, monkeypatch):
        # the parser passes only the keys the file gives, so a changed
        # default of ``Query`` reaches every file that omits the key
        monkeypatch.setattr(Query.__init__, "__defaults__", (None, None, Side.LOWER, 2000, 7))
        query = parse_scenario(minimal(query={"t": 1.0})).query
        assert (query.ts, query.side, query.samples, query.seed) == ((1.0,), Side.LOWER, 2000, 7)
        query = parse_scenario(minimal(query={"t": 1.0, "side": "upper", "samples": 1000,
                                              "seed": 0})).query
        assert (query.side, query.samples, query.seed) == (Side.UPPER, 1000, 0)

    def test_t_range(self):
        doc = minimal(query={"t_range": {"min": 0.5, "max": 2.0, "count": 4}})
        ts = parse_scenario(doc).query.resolve_ts()
        assert ts == (0.5, 1.0, 1.5, 2.0)

    def test_moment_fields(self):
        doc = minimal(
            variables=[{"a": -5, "b": 5, "m2": 5, "m4": 60, "odd_moments_zero": True}]
        )
        v = parse_scenario(doc).variables[0]
        assert (v.m2, v.m4, v.odd_moments_zero) == (5.0, 60.0, True)


@st.composite
def t_ranges(draw):
    """(lo, hi, count): lo from the least subnormal to 1e7, hi from one ulp
    above lo to lo * 10^3, counts from 2 to 5000."""
    lo = draw(st.floats(5e-324, 1e7))
    hi = draw(st.floats(math.nextafter(lo, math.inf), lo * 1e3))
    return lo, hi, draw(st.integers(2, 5000))


class TestGrid:
    @given(t_ranges())
    @settings(max_examples=300, deadline=None)
    @example((0.1, 12.0, 10 ** 5))
    @example((1e-320, 2e-320, 10 ** 5))  # the step underflows to 0.0
    def test_matches_numpy_linspace(self, t_range):
        ts = Query(t_range=t_range).resolve_ts()
        expected = np.linspace(*t_range).tolist()
        assert [t.hex() for t in ts] == [t.hex() for t in expected]
        assert all(type(t) is float for t in ts)


class TestStrictSchema:
    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            parse_scenario(minimal(notes="hello"))

    def test_unknown_variable_key(self):
        doc = minimal(variables=[{"a": -1, "b": 1, "m3": 0.0}])
        with pytest.raises(ScenarioError, match="m3"):
            parse_scenario(doc)

    def test_unknown_query_key(self):
        with pytest.raises(ScenarioError, match="tmax"):
            parse_scenario(minimal(query={"tmax": 2.0}))

    def test_missing_format_version(self):
        with pytest.raises(ScenarioError, match="format_version"):
            parse_scenario({"variables": [{"a": -1, "b": 1}]})

    def test_wrong_format_version(self):
        doc = minimal()
        doc["format_version"] = 2
        with pytest.raises(ScenarioError, match="format_version"):
            parse_scenario(doc)

    def test_bad_interval_reported_with_location(self):
        doc = minimal(variables=[{"a": 1, "b": 2}])
        with pytest.raises(ScenarioError, match=r"variables\[0\]"):
            parse_scenario(doc)

    def test_choices_length_mismatch(self):
        doc = minimal(
            variables=[{"a": -1, "b": 1}, {"a": -2, "b": 2}],
            choices=[{"family": "hertz"}],
        )
        with pytest.raises(ScenarioError, match="choices"):
            parse_scenario(doc)

    def test_unknown_family(self):
        doc = minimal(choices=[{"family": "bernstein"}])
        with pytest.raises(ScenarioError, match="family"):
            parse_scenario(doc)

    def test_choice_precondition_failure_is_input_error(self):
        doc = minimal(choices=[{"family": "order2_moment"}])
        with pytest.raises(ScenarioError, match="m2"):
            parse_scenario(doc)

    def test_both_t_and_t_range(self):
        doc = minimal(query={"t": 1.0, "t_range": {"min": 1, "max": 2, "count": 3}})
        with pytest.raises(ScenarioError, match="both"):
            parse_scenario(doc)

    def test_t_range_count_above_the_cap(self):
        doc = minimal(query={"t_range": {"min": 1, "max": 2, "count": MAX_T_COUNT + 1}})
        with pytest.raises(ScenarioError, match=f"at most {MAX_T_COUNT}"):
            parse_scenario(doc)

    def test_nonpositive_t(self):
        with pytest.raises(ScenarioError, match="positive"):
            parse_scenario(minimal(query={"t": [-1.0]}))

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_number(self, bad):
        for doc in (
            minimal(variables=[{"a": bad, "b": 1}]),
            minimal(query={"t": [bad]}),
        ):
            with pytest.raises(ScenarioError, match="finite"):
                parse_scenario(doc)

    def test_boolean_is_not_a_number(self):
        doc = minimal(variables=[{"a": True, "b": 1}])
        with pytest.raises(ScenarioError):
            parse_scenario(doc)


class TestFixtures:
    @pytest.mark.parametrize("name", [f"example{i}.json" for i in range(1, 6)])
    def test_shipped_fixtures_parse(self, fixtures_dir, name):
        scenario = load_scenario(fixtures_dir / name)
        assert scenario.auto
        assert scenario.query.t_range is not None

    def test_example5_contents(self, fixtures_dir):
        scenario = load_scenario(fixtures_dir / "example5.json")
        assert len(scenario.variables) == 4
        assert scenario.variables[1].m2 == 5.0
        assert scenario.query.samples == 10 ** 6

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "nope.json")

    def test_non_utf8_file_is_named(self, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b"\xff" + json.dumps(minimal()).encode())
        with pytest.raises(ScenarioError) as caught:
            load_scenario(bad)
        assert str(caught.value) == (
            f"cannot read scenario file {bad}: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte"
        )

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ScenarioError, match="JSON"):
            load_scenario(bad)

    def test_round_trip_through_disk(self, tmp_path):
        doc = minimal(query={"t": 2.0})
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert load_scenario(path).query.ts == (2.0,)
