"""Independent reference the benchmark checks kbounds output against.

Nothing here imports kbounds.  The formulas are written out again from the
statement of the method (PAPER.md), so that a fault in the library cannot hide
inside its own checker:

    E[exp(sX)] <= A * exp(rho * s^2),     log P(S_n >= t) <= L - t^2 / (4 R)

with L = sum log A_i and R = sum rho_i over the variables of the sum.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# A validity gap above this counts as a violated bound (the CLI's own limit).
GAP_TOL = 1e-9
# Largest relative error accepted on a recomputed value.
REL_TOL = 1e-9
# s grid of the validity sweep: 40 log-spaced points on [1e-3, 50].
S_GRID = np.geomspace(1e-3, 50.0, 40)
# `sweep` bisects each crossover until the bracket is at most this wide.
BISECT_TOL = 1e-6

FAMILIES = (
    "classic",
    "hertz",
    "order_k",
    "order2_moment",
    "order4_moment",
    "symmetric_order4",
)


class Support(NamedTuple):
    """Zero-mean variable on [a, b], a < 0 < b, with optional even moments."""

    a: float
    b: float
    m2: float | None = None
    m4: float | None = None
    odd: bool = False


def mirror(sup: Support) -> Support:
    """Support of -X."""
    return Support(-sup.b, -sup.a, sup.m2, sup.m4, sup.odd)


def phi(sup: Support) -> float:
    """(|a| + b)/2 when b > |a|, else sqrt(|a| b)."""
    if sup.b > -sup.a:
        return (sup.b - sup.a) / 2.0
    return math.sqrt(-sup.a * sup.b)


def _log_generic(sup: Support, k: int) -> float:
    """log((1 + r)^k - k r) with r = max(|a|, b) / |a|."""
    r = max(-sup.a, sup.b) / -sup.a
    if k * math.log(1.0 + r) < 700.0:
        return math.log((1.0 + r) ** k - k * r)
    return k * math.log(1.0 + r) + math.log(1.0 - k * r * (1.0 + r) ** -k)


def _log_moment4(sup: Support) -> float:
    a2 = sup.a * sup.a
    return math.log(1.0 + 6.0 * sup.m2 / a2 + sup.m4 / (a2 * a2))


def log_a(sup: Support, k: int) -> float:
    """log A_k with the k = 2 and k = 4 moment refinements."""
    if k == 1:
        return 0.0
    if k == 2:
        if sup.m2 is not None:
            return math.log(1.0 + sup.m2 / (sup.a * sup.a))
        return math.log(1.0 + sup.b / -sup.a)
    generic = _log_generic(sup, k)
    if k == 4 and sup.m2 is not None and sup.m4 is not None and sup.odd:
        return min(generic, _log_moment4(sup))
    return generic


def pair(sup: Support, family: str, k: int | None = None) -> tuple[float, float]:
    """(log A, rho) of one family on one support."""
    if family == "classic":
        return 0.0, (sup.b - sup.a) ** 2 / 8.0
    if family == "hertz":
        return 0.0, phi(sup) ** 2 / 2.0
    if family == "order_k":
        return log_a(sup, k), phi(sup) ** 2 / (2.0 * k)
    if family == "order2_moment":
        return math.log(1.0 + sup.m2 / (sup.a * sup.a)), phi(sup) ** 2 / 4.0
    if family == "order4_moment":
        return _log_moment4(sup), phi(sup) ** 2 / 8.0
    if family == "symmetric_order4":
        return math.log(8.0), sup.a * sup.a / 8.0
    raise ValueError(f"unknown family {family!r}")


def applicable(sup: Support, k_max: int) -> list[tuple[str, int | None]]:
    """Every (family, k) whose preconditions the support meets."""
    out: list[tuple[str, int | None]] = [("classic", None), ("hertz", None)]
    out += [("order_k", k) for k in range(1, k_max + 1)]
    if sup.m2 is not None:
        out.append(("order2_moment", None))
        if sup.m4 is not None and sup.odd:
            out.append(("order4_moment", None))
    if sup.odd and -sup.a == sup.b:
        out.append(("symmetric_order4", None))
    return out


def totals(supports, choices) -> tuple[float, float]:
    """Summed (L, R) for one (family, k) choice per variable."""
    big_l = 0.0
    big_r = 0.0
    for sup, (family, k) in zip(supports, choices):
        log_mult, rate = pair(sup, family, k)
        big_l += log_mult
        big_r += rate
    return big_l, big_r


def order_k_totals(supports, ks) -> tuple[float, float]:
    return totals(supports, [("order_k", k) for k in ks])


def log_bound(big_l: float, big_r: float, t: float) -> float:
    return big_l - t * t / (4.0 * big_r)


def s_star(big_r: float, t: float) -> float:
    return t / (2.0 * big_r)


def scale(big_l: float, big_r: float, t: float) -> float:
    """Magnitude of the two terms whose difference is the log bound."""
    return abs(big_l) + t * t / (4.0 * big_r)


def close(got: float, ref: float, mag: float = 0.0) -> bool:
    """Relative agreement; `mag` bounds the size of cancelled terms."""
    return abs(got - ref) <= REL_TOL * abs(ref) + 1e-12 * mag + 1e-300


def lattice(supports, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(L, R) of every vector of {1..k_max}^n, in lexicographic order."""
    big_l = np.zeros(1)
    big_r = np.zeros(1)
    for sup in supports:
        logs = np.array([log_a(sup, k) for k in range(1, k_max + 1)])
        rates = phi(sup) ** 2 / (2.0 * np.arange(1, k_max + 1))
        big_l = np.add.outer(big_l, logs).ravel()
        big_r = np.add.outer(big_r, rates).ravel()
    return big_l, big_r


def lattice_min(supports, k_max: int, ts) -> np.ndarray:
    """Brute-force minimum of the one-sided log bound over {1..k_max}^n, per t."""
    big_l, big_r = lattice(supports, k_max)
    ts = np.asarray(ts, dtype=float)
    return np.min(big_l[None, :] - (ts * ts)[:, None] / (4.0 * big_r[None, :]), axis=1)


def crossover(l1: float, r1: float, l2: float, r2: float) -> float | None:
    """Closed-form t where L1 - t^2/(4R1) = L2 - t^2/(4R2), if there is one."""
    denominator = 1.0 / r1 - 1.0 / r2
    if denominator == 0.0:
        return None
    t2 = 4.0 * (l1 - l2) / denominator
    return math.sqrt(t2) if t2 > 0.0 else None


def t_star(sup: Support, k: int) -> float | None:
    """Threshold above which order k+1 beats order k; None if A_{k+1} < A_k."""
    gap = log_a(sup, k + 1) - log_a(sup, k)
    if gap < 0.0:
        return None
    return phi(sup) * math.sqrt(2.0 * gap)


def extremal_two_point(sup: Support) -> tuple[np.ndarray, np.ndarray]:
    """Mass b/(b-a) at a and -a/(b-a) at b."""
    a, b = sup.a, sup.b
    return np.array([a, b]), np.array([b / (b - a), -a / (b - a)])


def exact_log_mgf(xs: np.ndarray, ps: np.ndarray, s: np.ndarray) -> np.ndarray:
    terms = np.log(ps)[None, :] + np.outer(s, xs)
    peak = terms.max(axis=1)
    return peak + np.log(np.exp(terms - peak[:, None]).sum(axis=1))


def validity_gap(xs, ps, log_mult: float, rate: float, s=S_GRID) -> float:
    """max over s of (exact log MGF - bound); <= 0 when the bound holds."""
    s = np.asarray(s, dtype=float)
    return float(np.max(exact_log_mgf(xs, ps, s) - (log_mult + rate * s * s)))


def extremal_moments(sup: Support) -> Support:
    """The support with the moments the extremal two-point law measures."""
    a, b = sup.a, sup.b
    return Support(a, b, m2=-a * b, m4=-a * b * (a * a + a * b + b * b))


def sum_tail(laws, t: float) -> tuple[float, float]:
    """Exact P(X_1 + ... + X_n >= t) for finite laws, by convolution.

    Sums within a relative 1e-9 of t are ambiguous under rounding, so the
    result is an interval: (P(S > t + eps), P(S >= t - eps)).
    """
    atoms = {0.0: 1.0}
    width = 0.0
    for xs, ps in laws:
        width += float(np.max(np.abs(xs)))
        nxt: dict[float, float] = {}
        for total, p in atoms.items():
            for x, q in zip(xs, ps):
                key = total + float(x)
                nxt[key] = nxt.get(key, 0.0) + p * float(q)
        atoms = nxt
    eps = 1e-9 * max(width, abs(t))
    low = sum(p for total, p in atoms.items() if total > t + eps)
    high = sum(p for total, p in atoms.items() if total >= t - eps)
    return low, high
