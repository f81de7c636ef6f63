"""Chernoff tail certificates for sums of independent bounded zero-mean variables.

A scenario pairs each variable with a bound family; the per-variable
(log multiplier, rate) pairs add, and the optimal Chernoff parameter for the
combined bound  L + R s^2 - s t  is s* = t / (2R), giving

    log P(S_n >= t) <= L - t^2 / (4R).

``totals`` forms a scenario's (L, R), ``log_bound`` is that exponent for every
caller, and ``certificate`` makes the certificate of any summed (L, R).

The lower tail is the upper tail of the mirrored variables (X -> -X on
[-b, -a]).  ``sides`` owns that rule: it gives each side's supports, upper
first, mirroring every variable once, and every command reads a query's side
through it.  ``one_side`` is the same for a command that answers one side
only, and refuses a two-sided query.  ``two_sided`` is the one log-sum-exp of
an upper and a lower certificate, each side with its own per-variable orders.
A certificate holds no t or side.
"""

from __future__ import annotations

import math
from enum import Enum

from .bounds import BoundedSupport, FamilyTag, Frozen, mgf_bound, order_k


class Side(Enum):
    UPPER = "upper"
    LOWER = "lower"
    TWO_SIDED = "two_sided"


class SumScenario(Frozen):
    """Independent variables plus one bound choice per variable."""

    __slots__ = ("variables", "choices")

    def __init__(self, variables: tuple[BoundedSupport, ...],
                 choices: tuple[FamilyTag, ...]) -> None:
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "choices", choices)
        if len(variables) < 1:
            raise ValueError("scenario needs at least one variable")
        if len(variables) != len(choices):
            raise ValueError(f"{len(variables)} variables but {len(choices)} choices")
        for support, tag in zip(variables, choices):
            mgf_bound(support, tag)  # raises when a precondition is unsatisfied


class TailCertificate(Frozen):
    """A certified log P(tail event at the caller's t) and its s* = t / (2R),
    the upper side's for a two-sided certificate."""

    __slots__ = ("log_bound", "s_star")

    def __init__(self, log_bound: float, s_star: float) -> None:
        object.__setattr__(self, "log_bound", log_bound)
        object.__setattr__(self, "s_star", s_star)


def order_k_scenario(
    variables: tuple[BoundedSupport, ...] | list[BoundedSupport], ks
) -> SumScenario:
    """Scenario using the order-k family with the given k per variable."""
    return SumScenario(tuple(variables), tuple(order_k(k) for k in ks))


def mirror(support: BoundedSupport) -> BoundedSupport:
    """Support of -X: the interval [-b, -a]; even moments are unchanged."""
    return BoundedSupport(
        a=-support.b,
        b=-support.a,
        m2=support.m2,
        m4=support.m4,
        odd_moments_zero=support.odd_moments_zero,
    )


def sides(variables, side: Side) -> dict[Side, tuple[BoundedSupport, ...]]:
    """Each side's supports, upper first: the lower side's are the variables
    mirrored, each once; a refused mirror names its ``variables[i]``."""
    found = {}
    if side is not Side.LOWER:
        found[Side.UPPER] = tuple(variables)
    if side is not Side.UPPER:
        mirrored = []
        for i, support in enumerate(variables):
            try:
                mirrored.append(mirror(support))
            except ValueError as exc:
                raise ValueError(f"variables[{i}] mirrored for the lower tail: {exc}") from exc
        found[Side.LOWER] = tuple(mirrored)
    return found


def one_side(variables, side: Side) -> tuple[BoundedSupport, ...]:
    """The supports of a one-sided query's side, as ``sides`` gives them."""
    if side is Side.TWO_SIDED:
        raise ValueError("query.side two_sided has two answers and only tail prints "
                         "both; give side upper or lower")
    (supports,) = sides(variables, side).values()
    return supports


def totals(scenario: SumScenario) -> tuple[float, float]:
    """Combined (log multiplier L, rate R) of the per-variable bounds."""
    log_mult = 0.0
    rate = 0.0
    for support, tag in zip(scenario.variables, scenario.choices):
        bound = mgf_bound(support, tag)
        log_mult += bound.log_multiplier
        rate += bound.rate
    return log_mult, rate


def log_bound(L, R, t):
    """The optimized exponent L - t^2/(4R), elementwise on floats or arrays."""
    return L - t * t / (4.0 * R)


def certificate(L: float, R: float, t: float) -> TailCertificate:
    """Certificate for log P(S_n >= t), t > 0, from the summed (L, R)."""
    if not t > 0.0:
        raise ValueError("threshold t must be positive")
    return TailCertificate(log_bound(L, R, t), t / (2.0 * R))


def two_sided(upper: TailCertificate, lower: TailCertificate) -> TailCertificate:
    """Certificate for log P(|S_n| >= t) from the two one-sided ones at t:
    their log-sum-exp, with the upper side's s*."""
    hi = max(upper.log_bound, lower.log_bound)
    log_bound = hi  # both sides -inf: their difference would be nan
    if hi > -math.inf:
        log_bound += math.log(math.exp(upper.log_bound - hi) + math.exp(lower.log_bound - hi))
    return TailCertificate(log_bound, upper.s_star)


def one_sided_tail(scenario: SumScenario, t: float) -> TailCertificate:
    """Certificate for log P(S_n >= t), t > 0."""
    return certificate(*totals(scenario), t)


def lower_tail(scenario: SumScenario, t: float) -> TailCertificate:
    """Certificate for log P(S_n <= -t): the upper tail of the ``sides``
    mirror of the supports, each keeping its bound choice."""
    return one_sided_tail(SumScenario(one_side(scenario.variables, Side.LOWER),
                                      scenario.choices), t)


def two_sided_tail(scenario: SumScenario, t: float) -> TailCertificate:
    """Certificate for log P(|S_n| >= t), each choice kept on both sides."""
    return two_sided(one_sided_tail(scenario, t), lower_tail(scenario, t))
