"""Chernoff tail certificates for sums of independent bounded zero-mean variables.

A scenario pairs each variable with a bound family; the per-variable
(log multiplier, rate) pairs add, and the optimal Chernoff parameter for the
combined bound  L + R s^2 - s t  is s* = t / (2R), giving

    log P(S_n >= t) <= L - t^2 / (4R).

``totals`` forms a scenario's (L, R), ``log_bound`` is that exponent for every
caller, and ``certificate`` makes the certificate of any summed (L, R).

Mirroring the supports (X -> -X) expresses the lower tail.  ``two_sided`` is
the one log-sum-exp of an upper and a lower certificate, each side with its
own per-variable orders.  A certificate holds no t or side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .bounds import BoundedSupport, FamilyTag, mgf_bound, order_k


class Side(Enum):
    UPPER = "upper"
    LOWER = "lower"
    TWO_SIDED = "two_sided"


@dataclass(frozen=True)
class SumScenario:
    """Independent variables plus one bound choice per variable."""

    variables: tuple[BoundedSupport, ...]
    choices: tuple[FamilyTag, ...]

    def __post_init__(self) -> None:
        if len(self.variables) < 1:
            raise ValueError("scenario needs at least one variable")
        if len(self.variables) != len(self.choices):
            raise ValueError(
                f"{len(self.variables)} variables but {len(self.choices)} choices"
            )
        for support, tag in zip(self.variables, self.choices):
            mgf_bound(support, tag)  # raises when a precondition is unsatisfied


@dataclass(frozen=True)
class TailCertificate:
    """A certified log P(tail event at the caller's t) and its s* = t / (2R),
    the upper side's for a two-sided certificate."""

    log_bound: float
    s_star: float


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


def mirror_scenario(scenario: SumScenario) -> SumScenario:
    """Scenario for -S_n: each variable mirrored, keeping its bound choice."""
    return SumScenario(tuple(mirror(v) for v in scenario.variables), scenario.choices)


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
    """Certificate for log P(S_n <= -t) via the mirrored supports."""
    return one_sided_tail(mirror_scenario(scenario), t)


def two_sided_tail(scenario: SumScenario, t: float) -> TailCertificate:
    """Certificate for log P(|S_n| >= t), each choice kept on both sides."""
    return two_sided(one_sided_tail(scenario, t), lower_tail(scenario, t))
