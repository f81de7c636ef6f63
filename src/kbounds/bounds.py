"""Single-variable sub-Gaussian MGF bounds for zero-mean X supported on [a, b].

Every bound here has the shape  E[exp(sX)] <= A * exp(rho * s^2)  for s > 0 and
is stored as the pair (log A, rho).  The catalog covers the classic quadratic
bound with rate (b-a)^2/8, the geometric-mean refinement with rate Phi^2/2, and
the order-k family that trades a larger multiplier A_k for a rate divided by k,
optionally sharpened by known even moments m2 = E[X^2] and m4 = E[X^4].

All multiplier arithmetic is done on logarithms: (1+r)^k overflows quickly and
k is caller-selectable.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

# Relative slack when validating user-supplied moments against the hard caps
# |a|b and |a|b(a^2+ab+b^2); absorbs round-off only.
MOMENT_SLACK = 1e-12

# Switch point for the stable large-u evaluation of psi (exp(u) would start
# to dominate all other terms long before overflow at ~709).
_PSI_LARGE_U = 30.0


class Family(Enum):
    """Bound families, keyed by where the (multiplier, rate) pair comes from."""

    CLASSIC = "classic"
    HERTZ = "hertz"
    ORDER_K = "order_k"
    ORDER2_MOMENT = "order2_moment"
    ORDER4_MOMENT = "order4_moment"
    SYMMETRIC_ORDER4 = "symmetric_order4"


@dataclass(frozen=True)
class FamilyTag:
    """A family selection; ORDER_K additionally carries its integer order k."""

    family: Family
    k: int | None = None

    def __post_init__(self) -> None:
        if self.family is Family.ORDER_K:
            if self.k is None or self.k < 1:
                raise ValueError("order_k requires an integer k >= 1")
        elif self.k is not None:
            raise ValueError(f"family {self.family.value} takes no k")

    def label(self) -> str:
        if self.family is Family.ORDER_K:
            return f"order_k[{self.k}]"
        return self.family.value


CLASSIC = FamilyTag(Family.CLASSIC)
HERTZ = FamilyTag(Family.HERTZ)
ORDER2_MOMENT = FamilyTag(Family.ORDER2_MOMENT)
ORDER4_MOMENT = FamilyTag(Family.ORDER4_MOMENT)
SYMMETRIC_ORDER4 = FamilyTag(Family.SYMMETRIC_ORDER4)


def order_k(k: int) -> FamilyTag:
    return FamilyTag(Family.ORDER_K, k)


@dataclass(frozen=True)
class BoundedSupport:
    """Interval [a, b] with a < 0 < b, plus optionally known even moments.

    ``odd_moments_zero`` asserts E[X^3] = 0 in addition to the standing
    assumption E[X] = 0; it is a precondition of the fourth-order moment
    bounds, not something that can be checked from (a, b, m2, m4).
    """

    a: float
    b: float
    m2: float | None = None
    m4: float | None = None
    odd_moments_zero: bool = False

    def __post_init__(self) -> None:
        for name in ("a", "b", "m2", "m4"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (self.a < 0.0 < self.b):
            raise ValueError(f"support requires a < 0 < b, got [{self.a}, {self.b}]")
        cap2, cap4 = moment_caps(self)
        if not math.isfinite(cap4):  # also inf or nan whenever cap2 is inf
            raise ValueError(
                f"support [{self.a}, {self.b}] is too wide: its moment caps overflow"
            )
        if cap2 < sys.float_info.min:  # rates, caps and moments lose their digits
            raise ValueError(
                f"support [{self.a}, {self.b}] is too narrow: |a|b underflows"
            )
        if self.m2 is not None:
            if not 0.0 <= self.m2 <= cap2 * (1.0 + MOMENT_SLACK):
                raise ValueError(f"m2={self.m2} outside [0, |a|b={cap2}]")
        if self.m4 is not None:
            if not 0.0 <= self.m4 <= cap4 * (1.0 + MOMENT_SLACK):
                raise ValueError(f"m4={self.m4} outside [0, |a|b(a^2+ab+b^2)={cap4}]")
        if self.m2 is not None and self.m4 is not None:
            if self.m4 < self.m2 ** 2 * (1.0 - MOMENT_SLACK):
                raise ValueError(f"m4={self.m4} < m2^2={self.m2 ** 2} violates Jensen")


@dataclass(frozen=True)
class MgfBound:
    """Certified bound log E[exp(sX)] <= log_multiplier + rate * s^2 (s > 0)."""

    log_multiplier: float
    rate: float
    family_tag: FamilyTag

    def __post_init__(self) -> None:
        if not self.log_multiplier >= 0.0:
            raise ValueError("log multiplier must be >= 0 (every multiplier is >= 1)")
        if not self.rate > 0.0:
            raise ValueError("rate must be positive")


def moment_caps(support: BoundedSupport) -> tuple[float, float]:
    """Hard caps (|a|b, |a|b(a^2+ab+b^2)) on E[X^2] and E[X^4].

    Both are attained by the two-point distribution with mass b/(b-a) at a
    and -a/(b-a) at b.
    """
    a, b = support.a, support.b
    cap2 = -a * b
    cap4 = -a * b * (a * a + a * b + b * b)
    return cap2, cap4


def phi(support: BoundedSupport) -> float:
    """Interval scale: (|a|+b)/2 when b > |a|, sqrt(|a|b) when b <= |a|.

    Continuous at b = |a| where both branches equal |a|.
    """
    a, b = support.a, support.b
    if b > -a:
        return (-a + b) / 2.0
    return math.sqrt(-a * b)


def endpoint_ratio(support: BoundedSupport) -> float:
    """r = max{|a|, b} / |a|, the quantity the order-k multiplier is built from."""
    return max(-support.a, support.b) / -support.a


def upsilon_log(support: BoundedSupport, k: int) -> float:
    """log[(1+r)^k - k*r] with r = max{|a|,b}/|a|, evaluated in log space.

    The direct product overflows around k*log(1+r) ~ 709; here only logs are
    formed, so any k >= 1 is fine.  Returns exactly 0.0 for k = 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return 0.0
    r = endpoint_ratio(support)
    power = k * math.log1p(r)  # log (1+r)^k
    linear = math.log(k) + math.log(r)  # log k*r, always < power for k >= 1
    return power + math.log1p(-math.exp(linear - power))


def multiplier_log(support: BoundedSupport, k: int) -> float:
    """log A_k, the order-k multiplier, sharpened by known moments.

    k = 1 costs nothing (A_1 = 1).  k = 2 uses 1 + m2/a^2 when m2 is known and
    the relaxation 1 + b/|a| otherwise.  k >= 3 pays the generic multiplier
    (1+r)^k - k*r; for k = 4 with m2, m4 known and odd moments vanishing, the
    moment form 1 + 6 m2/a^2 + m4/a^4 is also valid and the smaller of the two
    is returned.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return 0.0
    a = support.a
    if k == 2:
        if support.m2 is not None:
            return math.log1p(support.m2 / (a * a))
        return math.log1p(support.b / -a)
    log_a_k = upsilon_log(support, k)
    if (
        k == 4
        and support.m2 is not None
        and support.m4 is not None
        and support.odd_moments_zero
    ):
        log_a_k = min(log_a_k, _order4_moment_log(support))
    return log_a_k


def _order4_moment_log(support: BoundedSupport) -> float:
    """log(1 + 6 m2/a^2 + m4/a^4), the k = 4 multiplier that reads moments.

    Powers are products, not ``**`` (libm's pow, not always correctly
    rounded), so scaling a, m2 and m4 by powers of two leaves it unchanged.
    """
    a2 = support.a * support.a
    return math.log1p(6.0 * support.m2 / a2 + support.m4 / (a2 * a2))


def reads_moments(support: BoundedSupport, tag: FamilyTag) -> bool:
    """Whether the family's bound on the support may use m2, m4 or odd_moments_zero.

    Every other family's bound depends on [a, b] alone: ``mgf_bound`` gives
    the same pair on every support with that interval, so one bound serves
    every distribution on it.  Those are classic, hertz and order_k, except
    k = 2 (sharpened by m2) and k = 4 under odd_moments_zero (by m2 and m4).
    """
    if tag.family is Family.ORDER_K:
        return tag.k == 2 or (tag.k == 4 and support.odd_moments_zero)
    return tag.family not in (Family.CLASSIC, Family.HERTZ)


def mgf_bound(support: BoundedSupport, tag: FamilyTag) -> MgfBound:
    """Build the (log multiplier, rate) pair for one family on one support.

    Raises ValueError when the family's moment or symmetry preconditions are
    not met by the support.
    """
    a, b = support.a, support.b
    h = phi(support)
    fam = tag.family
    if fam is Family.CLASSIC:
        return MgfBound(0.0, (b - a) * (b - a) / 8.0, tag)
    if fam is Family.HERTZ:
        return MgfBound(0.0, h * h / 2.0, tag)
    if fam is Family.ORDER_K:
        k = tag.k
        return MgfBound(multiplier_log(support, k), h * h / (2.0 * k), tag)
    if fam is Family.ORDER2_MOMENT:
        if support.m2 is None:
            raise ValueError("order2_moment requires a known m2")
        return MgfBound(math.log1p(support.m2 / (a * a)), h * h / 4.0, tag)
    if fam is Family.ORDER4_MOMENT:
        if support.m2 is None or support.m4 is None:
            raise ValueError("order4_moment requires known m2 and m4")
        if not support.odd_moments_zero:
            raise ValueError("order4_moment requires odd_moments_zero")
        return MgfBound(_order4_moment_log(support), h * h / 8.0, tag)
    if fam is Family.SYMMETRIC_ORDER4:
        if -a != b:
            raise ValueError("symmetric_order4 requires |a| = b")
        if not support.odd_moments_zero:
            raise ValueError("symmetric_order4 requires odd_moments_zero")
        return MgfBound(math.log(8.0), a * a / 8.0, tag)
    raise ValueError(f"unknown family {fam}")


def eval_log_mgf_bound(bound: MgfBound, s: float) -> float:
    """Certified upper bound on log E[exp(sX)] at a given s > 0."""
    if not s > 0.0:
        raise ValueError("bounds are stated for s > 0 only")
    return bound.log_multiplier + bound.rate * s * s


def psi(lam: float, u: float) -> float:
    """psi(u) = -lam*u + log(1 - lam + lam*e^u), the two-point log-MGF kernel.

    Capped by u^2/8 for lam <= 1/2 and by lam(1-lam)u^2/2 for lam > 1/2.
    For large u the direct form loses 1-lam to rounding, so it is rewritten
    as (1-lam)*u + log(lam + (1-lam)e^{-u}).
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie strictly inside (0, 1)")
    if u > _PSI_LARGE_U:
        return (1.0 - lam) * u + math.log(lam + (1.0 - lam) * math.exp(-u))
    return -lam * u + math.log1p(lam * math.expm1(u))
