"""Single-variable sub-Gaussian MGF bounds for zero-mean X supported on [a, b].

Every bound here has the shape  E[exp(sX)] <= A * exp(rho * s^2)  for s > 0 and
is stored as the pair (log A, rho).  The catalog covers the classic quadratic
bound with rate (b-a)^2/8, the geometric-mean refinement with rate Phi^2/2, and
the order-k family that trades a larger multiplier A_k for a rate divided by k,
optionally sharpened by known even moments m2 = E[X^2] and m4 = E[X^4].

``catalog(support, k_max)`` alone decides which families apply to a support:
the moment families need m2, m4 or symmetry, and ``mgf_bound`` raises the
reason ``catalog`` leaves a family out for.

All multiplier arithmetic is done on logarithms: (1+r)^k overflows quickly and
k is caller-selectable.
"""

from __future__ import annotations

import math
import sys
from enum import Enum

# Relative slack when validating user-supplied moments against the hard caps
# |a|b and |a|b(a^2+ab+b^2); absorbs round-off only.
MOMENT_SLACK = 1e-12

# Largest order a search may run to (--k-max): each order is a catalog entry,
# and a front point per variable, held in memory.  ``check_k_max`` is the rule.
MAX_K_MAX = 10 ** 4

# Switch point for the stable large-u evaluation of psi (exp(u) would start
# to dominate all other terms long before overflow at ~709).
_PSI_LARGE_U = 30.0


class Frozen:
    """Base of the immutable value types; a subclass's ``__slots__`` are its
    fields, in its ``__init__``'s order.

    ``__init__`` sets each field with ``object.__setattr__``, then checks the
    values; after that, assigning or deleting a field raises AttributeError.
    Equality, hash and the ``Name(field=value, ...)`` repr go over the fields,
    and ``replace`` builds a copy with some fields changed, checked again.
    That is what ``dataclass(frozen=True)`` gave, without loading the
    standard library's dataclass module (and ``inspect``) at start-up.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return self.__class__, self._values()

    def replace(self, **changes):
        """A copy with the given fields changed, through ``__init__``'s checks."""
        return self.__class__(**dict(zip(self.__slots__, self._values()), **changes))


class Family(Enum):
    """Bound families, keyed by where the (multiplier, rate) pair comes from."""

    CLASSIC = "classic"
    HERTZ = "hertz"
    ORDER_K = "order_k"
    ORDER2_MOMENT = "order2_moment"
    ORDER4_MOMENT = "order4_moment"
    SYMMETRIC_ORDER4 = "symmetric_order4"


class FamilyTag(Frozen):
    """A family selection; ORDER_K additionally carries its integer order k."""

    __slots__ = ("family", "k")

    def __init__(self, family: Family, k: int | None = None) -> None:
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "k", k)
        if family is Family.ORDER_K:
            if k is None or k < 1:
                raise ValueError("order_k requires an integer k >= 1")
            if k > sys.float_info.max:
                raise ValueError("order_k's k is too large for a float")
        elif k is not None:
            raise ValueError(f"family {family.value} takes no k")

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


class BoundedSupport(Frozen):
    """Interval [a, b] with a < 0 < b, plus optionally known even moments.

    ``odd_moments_zero`` asserts E[X^3] = 0 in addition to the standing
    assumption E[X] = 0; it is a precondition of the fourth-order moment
    bounds, not something that can be checked from (a, b, m2, m4).
    """

    __slots__ = ("a", "b", "m2", "m4", "odd_moments_zero")

    def __init__(self, a: float, b: float, m2: float | None = None, m4: float | None = None,
                 odd_moments_zero: bool = False) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "m2", m2)
        object.__setattr__(self, "m4", m4)
        object.__setattr__(self, "odd_moments_zero", odd_moments_zero)
        for name, value in (("a", a), ("b", b), ("m2", m2), ("m4", m4)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (a < 0.0 < b):
            raise ValueError(f"support requires a < 0 < b, got [{a}, {b}]")
        cap2, cap4 = moment_caps(self)
        if not math.isfinite(cap4):  # also inf or nan whenever cap2 is inf
            raise ValueError(f"support [{a}, {b}] is too wide: its moment caps overflow")
        # rates and caps lose their digits, and so do a declared m2 divided by
        # a^2 and a declared m4 under odd_moments_zero divided by a^4
        if cap2 < sys.float_info.min:
            raise ValueError(f"support [{a}, {b}] is too narrow: |a|b underflows")
        a2 = a * a
        if m2 is not None and a2 < sys.float_info.min:
            raise ValueError(f"support [{a}, {b}] is too narrow for m2: a^2 underflows")
        if m4 is not None and odd_moments_zero and a2 * a2 < sys.float_info.min:
            raise ValueError(f"support [{a}, {b}] is too narrow for m4: a^4 underflows")
        if b / -a > sys.float_info.max:  # exactly when endpoint_ratio overflows
            raise ValueError(f"support [{a}, {b}] is too lopsided: max(|a|, b)/|a| overflows")
        _check_moments(m2, m4, cap2, cap4)


def _check_moments(m2: float | None, m4: float | None, cap2: float, cap4: float) -> None:
    """Declared (finite) m2 and m4 within their caps and Jensen's m4 >= m2^2."""
    if m2 is not None:
        if not 0.0 <= m2 <= cap2 * (1.0 + MOMENT_SLACK):
            raise ValueError(f"m2={m2} outside [0, |a|b={cap2}]")
    if m4 is not None:
        if not 0.0 <= m4 <= cap4 * (1.0 + MOMENT_SLACK):
            raise ValueError(f"m4={m4} outside [0, |a|b(a^2+ab+b^2)={cap4}]")
    if m2 is not None and m4 is not None:
        if m4 < m2 ** 2 * (1.0 - MOMENT_SLACK):
            raise ValueError(f"m4={m4} < m2^2={m2 ** 2} violates Jensen")


class MgfBound(Frozen):
    """Certified bound log E[exp(sX)] <= log_multiplier + rate * s^2 (s > 0)."""

    __slots__ = ("log_multiplier", "rate", "family_tag")

    def __init__(self, log_multiplier: float, rate: float, family_tag: FamilyTag) -> None:
        object.__setattr__(self, "log_multiplier", log_multiplier)
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "family_tag", family_tag)
        if not log_multiplier >= 0.0:
            raise ValueError("log multiplier must be >= 0 (every multiplier is >= 1)")
        if not rate > 0.0:
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
            return m2_log_multipliers(a, [support.m2])[0]
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


def m2_log_multipliers(a: float, m2s) -> list[float]:
    """log(1 + m2/a^2) for each m2: the log multiplier of order2_moment and of
    order_k[2] with a known m2."""
    a2 = a * a
    return [math.log1p(m2 / a2) for m2 in m2s]


def measured_m2_log_multipliers(a: float, b: float, m2s, m4s) -> list[float]:
    """``m2_log_multipliers`` of (m2, m4) rows measured on [a, b]: without
    odd_moments_zero, the log multiplier of every family that reads moments.

    Each row gets the checks and messages of ``BoundedSupport(a, b, m2, m4)``
    with no support built per row: the interval's once, with m2 and m4
    declared, then per row finiteness, the caps and Jensen.
    """
    cap2, cap4 = moment_caps(BoundedSupport(a, b, m2=0.0, m4=0.0))
    for m2, m4 in zip(m2s, m4s):
        for name, value in (("m2", m2), ("m4", m4)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        _check_moments(m2, m4, cap2, cap4)
    return m2_log_multipliers(a, m2s)


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


def _unmet(support: BoundedSupport, tag: FamilyTag) -> str | None:
    """Why the support does not meet the family's preconditions; None if it does."""
    fam = tag.family
    if fam is Family.ORDER2_MOMENT and support.m2 is None:
        return "order2_moment requires a known m2"
    if fam is Family.ORDER4_MOMENT and (support.m2 is None or support.m4 is None):
        return "order4_moment requires known m2 and m4"
    if fam is Family.SYMMETRIC_ORDER4 and -support.a != support.b:
        return "symmetric_order4 requires |a| = b"
    if fam in (Family.ORDER4_MOMENT, Family.SYMMETRIC_ORDER4) and not support.odd_moments_zero:
        return f"{fam.value} requires odd_moments_zero"
    return None


def check_k_max(k_max: int) -> None:
    """The one rule for a largest order k_max, wherever orders are searched:
    1 <= k_max <= ``MAX_K_MAX``."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if k_max > MAX_K_MAX:
        raise ValueError(f"k_max must be at most {MAX_K_MAX}, got {k_max}")


def catalog(support: BoundedSupport, k_max: int) -> list[MgfBound]:
    """Every bound whose preconditions the support meets, each built once.

    In catalog order: classic, hertz, order_k for k = 1..k_max, order2_moment,
    order4_moment, symmetric_order4.
    """
    check_k_max(k_max)
    orders = map(order_k, range(1, k_max + 1))
    tags = [CLASSIC, HERTZ, *orders, ORDER2_MOMENT, ORDER4_MOMENT, SYMMETRIC_ORDER4]
    return [mgf_bound(support, tag) for tag in tags if _unmet(support, tag) is None]


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
    unmet = _unmet(support, tag)  # the families below read moments or symmetry
    if unmet is not None:
        raise ValueError(unmet)
    if fam is Family.ORDER2_MOMENT:
        return MgfBound(multiplier_log(support, 2), h * h / 4.0, tag)
    if fam is Family.ORDER4_MOMENT:
        return MgfBound(_order4_moment_log(support), h * h / 8.0, tag)
    if fam is Family.SYMMETRIC_ORDER4:
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
