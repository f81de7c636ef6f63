"""The contract of kbounds' immutable value types, all built on ``bounds.Frozen``.

Each type keeps its constructor (parameter order and defaults), its checks,
value equality and hash (sets of ``(support, tag)`` pairs rely on them),
identity equality for ``ParetoFront``, frozen fields, the
``Name(field=value, ...)`` repr, copying and pickling.  ``replace`` builds
through the constructor, so it runs the checks again.
"""

import copy
import pickle

import pytest

from kbounds.bounds import (
    CLASSIC,
    HERTZ,
    ORDER2_MOMENT,
    BoundedSupport,
    Family,
    FamilyTag,
    Frozen,
    MgfBound,
)
from kbounds.oracle import FinitePmf
from kbounds.scenario import Query, Scenario, ScenarioError
from kbounds.selection import KSelection, ParetoFront, RelaxedSolution
from kbounds.tails import Side, SumScenario, TailCertificate

S = BoundedSupport(-1.0, 2.0)

# class -> (every field in constructor order, the fields a caller may omit
# with the value they then take, one field changed to another valid value)
CASES = {
    FamilyTag: ({"family": Family.HERTZ, "k": None}, {"k": None}, {"family": Family.CLASSIC}),
    BoundedSupport: ({"a": -1.0, "b": 2.0, "m2": 0.5, "m4": 1.0, "odd_moments_zero": True},
                     {"m2": None, "m4": None, "odd_moments_zero": False}, {"b": 3.0}),
    MgfBound: ({"log_multiplier": 0.5, "rate": 1.25, "family_tag": HERTZ}, {}, {"rate": 2.0}),
    SumScenario: ({"variables": (S,), "choices": (HERTZ,)}, {}, {"choices": (CLASSIC,)}),
    TailCertificate: ({"log_bound": -1.5, "s_star": 0.25}, {}, {"s_star": 0.5}),
    Query: ({"ts": (1.0, 2.0), "t_range": None, "side": Side.LOWER, "samples": 2000,
             "seed": 3},
            {"ts": None, "t_range": None, "side": Side.UPPER, "samples": 10 ** 6, "seed": 0},
            {"seed": 4}),
    Scenario: ({"variables": (S,), "choices": None, "query": Query()}, {},
               {"choices": (HERTZ,)}),
    KSelection: ({"ks": (1, 2), "log_bound": -0.5}, {}, {"ks": (2, 1)}),
    RelaxedSolution: ({"fractional": (1.5, 2.5), "rounded": KSelection((1, 2), -0.5)}, {},
                      {"fractional": (1.0, 2.0)}),
    ParetoFront: ({"ks": ((1,), (2,)), "L": (0.0, 0.5), "R": (1.0, 0.5)}, {},
                  {"L": (0.0, 0.25)}),
    FinitePmf: ({"xs": (-1.0, 1.0), "ps": (0.5, 0.5), "support": BoundedSupport(-1.0, 1.0)},
                {}, {"support": BoundedSupport(-2.0, 1.0)}),
}
CLASSES = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


def fields_of(obj) -> dict:
    return {name: getattr(obj, name) for name in obj.__slots__}


def test_every_value_type_is_covered():
    assert set(Frozen.__subclasses__()) == set(CASES)


@CLASSES
def test_positional_and_keyword_construction(cls):
    fields, defaults, _ = CASES[cls]
    for obj in (cls(*fields.values()), cls(**fields)):
        assert fields_of(obj) == fields
        assert list(obj.__slots__) == list(fields)
        assert not hasattr(obj, "__dict__")
    required = {name: value for name, value in fields.items() if name not in defaults}
    assert fields_of(cls(**required)) == {**fields, **defaults}


@CLASSES
def test_equality_and_hash(cls):
    fields, _, change = CASES[cls]
    one, two = cls(**fields), cls(**fields)
    assert one == one and one != fields and one != tuple(fields.values())
    assert one != one.replace(**change)
    if cls is ParetoFront:  # equal only to itself
        assert one != two and len({one, two}) == 2
    else:
        assert one == two and hash(one) == hash(two) and len({one, two}) == 1


def test_supports_and_tags_key_a_set():
    # the benchmark's launcher counts distinct (support, tag) pairs this way
    pairs = {(BoundedSupport(-1.0, 2.0), FamilyTag(Family.HERTZ)), (S, HERTZ),
             (BoundedSupport(-1.0, 2.0, m2=0.5), HERTZ), (S, FamilyTag(Family.ORDER_K, 1))}
    assert len(pairs) == 3
    assert BoundedSupport(-1.0, 2.0) != BoundedSupport(-1.0, 2.0, m2=0.5)


@CLASSES
def test_fields_cannot_be_assigned_or_deleted(cls):
    fields, _, _ = CASES[cls]
    obj = cls(**fields)
    name, value = next(iter(fields.items()))
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(obj, name, value)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.no_such_field = 1
    assert fields_of(obj) == fields


@CLASSES
def test_repr_names_every_field(cls):
    fields, _, _ = CASES[cls]
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({body})"


def test_repr_as_a_dataclass_printed_it():
    assert repr(BoundedSupport(-1, 2)) == (
        "BoundedSupport(a=-1, b=2, m2=None, m4=None, odd_moments_zero=False)")
    assert repr(FamilyTag(Family.ORDER_K, 3)) == (
        "FamilyTag(family=<Family.ORDER_K: 'order_k'>, k=3)")


@CLASSES
def test_copy_and_pickle_rebuild_the_fields(cls):
    fields, _, _ = CASES[cls]
    obj = cls(**fields)
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is cls and fields_of(twin) == fields


@CLASSES
def test_replace_changes_only_the_named_fields(cls):
    fields, _, change = CASES[cls]
    obj = cls(**fields)
    assert type(obj.replace()) is cls and fields_of(obj.replace()) == fields
    assert fields_of(obj.replace(**change)) == {**fields, **change}
    assert fields_of(obj) == fields
    with pytest.raises(TypeError):
        obj.replace(no_such_field=1)


def test_query_replace_runs_the_checks_again():
    query = Query(ts=(1.0,), seed=3)
    moved = query.replace(seed=4, side=Side.LOWER)
    assert (moved.ts, moved.seed, moved.side, moved.samples) == ((1.0,), 4, Side.LOWER, 10 ** 6)
    assert query.seed == 3 and query.side is Side.UPPER
    with pytest.raises(ScenarioError, match="query has both t and t_range"):
        query.replace(t_range=(0.1, 1.0, 5))
    with pytest.raises(ScenarioError, match="samples must be >= 1000, got 10"):
        query.replace(samples=10)
    with pytest.raises(ScenarioError, match="seed must be >= 0, got -1"):
        query.replace(seed=-1)
    with pytest.raises(ScenarioError, match="t values must be positive"):
        query.replace(ts=(0.0,))
    assert query.replace(ts=None, t_range=(0.1, 1.0, 5)).t_range == (0.1, 1.0, 5)


def test_checks_run_at_construction():
    with pytest.raises(ValueError, match="support requires a < 0 < b"):
        BoundedSupport(-1.0, 2.0).replace(a=1.0)
    with pytest.raises(ValueError, match="order_k requires an integer k >= 1"):
        FamilyTag(Family.ORDER_K)
    with pytest.raises(ValueError, match="rate must be positive"):
        MgfBound(0.0, 1.0, HERTZ).replace(rate=0.0)
    with pytest.raises(ValueError, match="1 variables but 2 choices"):
        SumScenario((S,), (HERTZ, HERTZ))
    with pytest.raises(ScenarioError, match="order2_moment requires a known m2"):
        Scenario((S,), (ORDER2_MOMENT,), Query())
    with pytest.raises(ScenarioError, match="order2_moment requires a known m2"):
        Scenario((S,), None, Query()).replace(choices=(ORDER2_MOMENT,))
    with pytest.raises(ValueError, match="probabilities sum to"):
        FinitePmf((-1.0, 1.0), (0.5, 0.6), BoundedSupport(-1.0, 1.0))
