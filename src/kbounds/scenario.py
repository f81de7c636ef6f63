"""Scenario files: the JSON documents the CLI consumes.

Strict schema, version-gated by ``format_version: 1``.  Unknown keys are
rejected everywhere so that a typo ("m3", "tmax") fails loudly instead of
being silently ignored.

Example::

    {
      "format_version": 1,
      "variables": [
        {"a": -1, "b": 1},
        {"a": -5, "b": 5, "m2": 5}
      ],
      "choices": "auto",
      "query": {"t_range": {"min": 0.1, "max": 12, "count": 1000}, "seed": 0}
    }

``choices`` is either the string "auto" or a list of per-variable objects
{"family": ..., "k": ...} with family one of classic, hertz, order_k,
order2_moment, order4_moment, symmetric_order4 (order_k requires "k").

The rules a CLI flag shares with a scenario file live here once: ``Query``
checks the t values, t range, sample count (from ``MIN_SAMPLES`` to
``MAX_SAMPLES``) and seed of ``query`` and of the flags that replace them,
and ``parse_family_tag`` reads a choice or `bound`'s `--family`/`--k`.  The
parsers below check only JSON types and shapes.

Files are read as UTF-8.  A t_range is resolved by ``grid``, numpy's
``linspace`` in plain Python, so nothing here imports numpy; ``grid`` also
gives single points of a range without building the rest.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from .bounds import BoundedSupport, Family, FamilyTag, Frozen
from .tails import Side, SumScenario


# most t values a t_range may ask for: each one is a row held in memory
MAX_T_COUNT = 10 ** 7

# fewest and most Monte Carlo samples a query may ask for, from a file or a
# flag; at the most, a sum of many variables samples for seconds
MIN_SAMPLES = 10 ** 3
MAX_SAMPLES = 10 ** 8


class ScenarioError(ValueError):
    """Malformed or schema-violating scenario document."""


_VARIABLE_KEYS = {"a", "b", "m2", "m4", "odd_moments_zero"}
_QUERY_KEYS = {"t", "t_range", "side", "samples", "seed"}
_RANGE_KEYS = {"min", "max", "count"}
_TOP_KEYS = {"format_version", "variables", "choices", "query"}


class Query(Frozen):
    """The t values or t range, side, sample count and seed of a scenario;
    its rules hold alike for a file's ``query`` and the flags that replace it.
    A file's ``query`` passes only the keys it gives, so the defaults here are
    the only ones, and ``replace`` checks the changed query again."""

    __slots__ = ("ts", "t_range", "side", "samples", "seed")

    def __init__(self, ts: tuple[float, ...] | None = None,
                 t_range: tuple[float, float, int] | None = None, side: Side = Side.UPPER,
                 samples: int = 10 ** 6, seed: int = 0) -> None:
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "t_range", t_range)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", seed)
        if samples < MIN_SAMPLES:
            raise ScenarioError(f"samples must be >= {MIN_SAMPLES}, got {samples}")
        if samples > MAX_SAMPLES:
            raise ScenarioError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
        if seed < 0:
            raise ScenarioError(f"seed must be >= 0, got {seed}")
        if ts is not None and t_range is not None:
            raise ScenarioError("query has both t and t_range; give one")
        if ts is not None and (not ts or any(not t > 0.0 for t in ts)):
            raise ScenarioError("t values must be positive")
        if t_range is not None:
            lo, hi, count = t_range
            if not 0.0 < lo < hi:
                raise ScenarioError("t_range requires 0 < min < max")
            if not 2 <= count <= MAX_T_COUNT:
                raise ScenarioError(f"t_range count must be >= 2 and at most {MAX_T_COUNT}")

    def resolve_ts(self) -> tuple[float, ...]:
        if self.ts is not None:
            return self.ts
        if self.t_range is not None:
            return tuple(grid(*self.t_range))
        raise ScenarioError("no t values: give query.t, query.t_range or --t")


def grid(lo: float, hi: float, count: int, indices=None) -> list[float]:
    """``count`` >= 2 evenly spaced floats from lo to hi, both included, or
    only those at ``indices``.

    The same floats as numpy's ``linspace``, by its own expressions: i * step
    + lo with step = (hi - lo) / (count - 1), then hi.  Where the step
    underflows to 0.0 numpy takes i / (count - 1) * (hi - lo) + lo instead,
    and so does this; without that branch subnormal ranges would differ.
    """
    div = count - 1
    delta = hi - lo
    step = delta / div
    if indices is None:
        indices = range(count)
    if step == 0.0:
        return [hi if i == div else i / div * delta + lo for i in indices]
    return [hi if i == div else i * step + lo for i in indices]


class Scenario(Frozen):
    """A scenario file's variables, choices (None means "auto") and query.
    Fixed choices are checked against the variables when it is made, from a
    file or in code, by ``SumScenario``'s rule, and raise ``ScenarioError``."""

    __slots__ = ("variables", "choices", "query")

    def __init__(self, variables: tuple[BoundedSupport, ...],
                 choices: tuple[FamilyTag, ...] | None, query: Query) -> None:
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "choices", choices)
        object.__setattr__(self, "query", query)
        if choices is not None:
            try:
                SumScenario(variables, choices)
            except ValueError as exc:
                raise ScenarioError(str(exc)) from exc

    @property
    def auto(self) -> bool:
        return self.choices is None


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"unknown key(s) {sorted(unknown)} in {where}")


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where} must be a number, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ScenarioError(f"{where} is too large for a float")
    if not math.isfinite(value):
        raise ScenarioError(f"{where} must be finite, got {value!r}")
    return float(value)


def _parse_variable(obj, index: int) -> BoundedSupport:
    where = f"variables[{index}]"
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be an object")
    _reject_unknown(obj, _VARIABLE_KEYS, where)
    for req in ("a", "b"):
        if req not in obj:
            raise ScenarioError(f"{where} missing required key '{req}'")
    odd = obj.get("odd_moments_zero", False)
    if not isinstance(odd, bool):
        raise ScenarioError(f"{where}.odd_moments_zero must be a boolean")
    try:
        return BoundedSupport(
            a=_number(obj["a"], f"{where}.a"),
            b=_number(obj["b"], f"{where}.b"),
            m2=None if "m2" not in obj else _number(obj["m2"], f"{where}.m2"),
            m4=None if "m4" not in obj else _number(obj["m4"], f"{where}.m4"),
            odd_moments_zero=odd,
        )
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def parse_family_tag(obj) -> FamilyTag:
    """The tag of a {"family": ..., "k": ...} choice, from a file or from flags."""
    if not isinstance(obj, dict):
        raise ScenarioError("a choice must be an object with a 'family' key")
    _reject_unknown(obj, {"family", "k"}, "a choice")
    name = obj.get("family")
    try:
        family = Family(name)
    except ValueError:
        valid = ", ".join(f.value for f in Family)
        raise ScenarioError(f"family must be one of: {valid}; got {name!r}") from None
    k = obj.get("k")
    if k is not None and (isinstance(k, bool) or not isinstance(k, int)):
        raise ScenarioError("k must be an integer")
    try:
        return FamilyTag(family, k)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def _parse_query(obj) -> Query:
    if obj is None:
        return Query()
    if not isinstance(obj, dict):
        raise ScenarioError("query must be an object")
    _reject_unknown(obj, _QUERY_KEYS, "query")
    fields = {}
    if "t" in obj:
        raw = obj["t"] if isinstance(obj["t"], list) else [obj["t"]]
        fields["ts"] = tuple(_number(v, "query.t") for v in raw)
    if "t_range" in obj:
        rng = obj["t_range"]
        if not isinstance(rng, dict):
            raise ScenarioError("query.t_range must be an object {min,max,count}")
        _reject_unknown(rng, _RANGE_KEYS, "query.t_range")
        for req in _RANGE_KEYS:
            if req not in rng:
                raise ScenarioError(f"query.t_range missing '{req}'")
        lo = _number(rng["min"], "t_range.min")
        hi = _number(rng["max"], "t_range.max")
        count = rng["count"]
        if isinstance(count, bool) or not isinstance(count, int):
            raise ScenarioError("t_range.count must be an integer")
        fields["t_range"] = (lo, hi, count)
    if "side" in obj:
        try:
            fields["side"] = Side(obj["side"])
        except ValueError:
            valid = ", ".join(s.value for s in Side)
            raise ScenarioError(f"query.side must be one of: {valid}") from None
    for key in ("samples", "seed"):
        if key in obj:
            value = obj[key]
            if isinstance(value, bool) or not isinstance(value, int):
                raise ScenarioError(f"query.{key} must be an integer")
            fields[key] = value
    return Query(**fields)


def parse_scenario(doc) -> Scenario:
    """The ``Scenario`` of a JSON document: its shape and types are checked
    here, and one choice per variable before any is read; ``Scenario`` checks
    the choices against the variables."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "scenario")
    if doc.get("format_version") != 1:
        raise ScenarioError("scenario requires format_version: 1")
    raw_vars = doc.get("variables")
    if not isinstance(raw_vars, list) or not raw_vars:
        raise ScenarioError("variables must be a non-empty list")
    variables = tuple(_parse_variable(v, i) for i, v in enumerate(raw_vars))

    raw_choices = doc.get("choices", "auto")
    if raw_choices == "auto":
        choices = None
    elif isinstance(raw_choices, list):
        if len(raw_choices) != len(variables):
            raise ScenarioError(
                f"{len(raw_choices)} choices for {len(variables)} variables"
            )
        choices = tuple(parse_family_tag(c) for c in raw_choices)
    else:
        raise ScenarioError("choices must be \"auto\" or a list of choice objects")

    return Scenario(variables, choices, _parse_query(doc.get("query")))


def load_scenario(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc
    return parse_scenario(doc)
