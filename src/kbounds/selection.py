"""Choosing the integer order k per variable.

Raising a variable's order from k to k+1 pays log(A_{k+1}/A_k) in multiplier
and buys a smaller rate, so it wins exactly for thresholds above

    t* = Phi * sqrt(2 * (log A_{k+1} - log A_k)).

For a sum the orders couple through the shared exponent t^2 / (2 sum Phi_i^2/k_i),
so the per-variable rule is only a heuristic.  The sum objective is
``tails.log_bound``, L - t^2/(4R) with L = sum log A_{k_i} and
R = sum Phi_i^2/(2 k_i) taken from ``bounds.mgf_bound``, and neither
L nor R depends on t, so the exact optimum at every t lies on the (L, R)
Pareto front of {1..k_max}^n.  The front is built once, one variable at a time
(the Nemhauser-Ullmann method for multi-objective knapsack), and each t is a
minimum over its few points.  A continuous relaxation gives the cheap
near-optimal profile  k_j  proportional to  Phi_j / sqrt(2 log(1 + r_j)),
rounded by a front over each variable's floor and ceiling.  Two vectors tie
where t^2 = 4 (L1 - L2) / (1/R1 - 1/R2), which places every ``regimes`` edge.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundedSupport, endpoint_ratio, mgf_bound, multiplier_log, order_k, phi
from .tails import log_bound

# Hard ceiling on the number of assignments any lattice search may visit.
ENUMERATION_GUARD = 10 ** 7


class SizeGuardError(ValueError):
    """Enumeration would exceed the lattice-size guard; use the relaxation."""


@dataclass(frozen=True)
class CrossoverTable:
    """Per-support thresholds t* above which order k+1 beats order k."""

    support: BoundedSupport
    thresholds: tuple[tuple[int, int, float], ...]  # (k, k+1, t_star)


@dataclass(frozen=True)
class KSelection:
    """An order assignment and the one-sided log bound it achieves at t."""

    ks: tuple[int, ...]
    log_bound: float


@dataclass(frozen=True)
class RelaxedSolution:
    """Fractional stationary profile plus its best integer lattice neighbor."""

    fractional: tuple[float, ...]
    rounded: KSelection


def crossover_threshold(support: BoundedSupport, k: int) -> float:
    """Threshold above which order k+1 gives a strictly tighter tail bound."""
    if k < 1:
        raise ValueError("k must be >= 1")
    gap = multiplier_log(support, k + 1) - multiplier_log(support, k)
    if gap < 0.0:
        # Cannot happen for the plain multiplier ladder; only the k=4 moment
        # refinement can dip below A_3, and then no finite crossover exists.
        raise RuntimeError(
            f"multiplier decreased from k={k} to {k + 1}; order {k + 1} dominates"
        )
    return phi(support) * math.sqrt(2.0 * gap)


def crossover_table(support: BoundedSupport, k_max: int = 8) -> CrossoverTable:
    rows = tuple(
        (k, k + 1, crossover_threshold(support, k)) for k in range(1, k_max + 1)
    )
    return CrossoverTable(support, rows)


def best_k_single(support: BoundedSupport, t: float, k_max: int = 8) -> int:
    """argmin over k of log A_k - t^2 k / (2 Phi^2), ties to the smaller k."""
    if not t > 0.0:
        raise ValueError("threshold t must be positive")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    phi2 = phi(support) ** 2
    best_k, best_obj = 1, math.inf
    for k in range(1, k_max + 1):
        obj = multiplier_log(support, k) - t * t * k / (2.0 * phi2)
        if obj < best_obj:
            best_k, best_obj = k, obj
    return best_k


@dataclass(frozen=True, eq=False)
class ParetoFront:
    """The order vectors that can minimize L - t^2/(4R) at some t > 0.

    ``ks`` is in lexicographic order; ``L[i]`` and ``R[i]`` are the summed log
    multipliers and rates of ``ks[i]``, added in variable order.
    """

    ks: tuple[tuple[int, ...], ...]
    L: np.ndarray
    R: np.ndarray

    def best(self, t: float) -> KSelection:
        """Minimum over the front at t; exact ties go to the smaller vector."""
        if not t > 0.0:
            raise ValueError("threshold t must be positive")
        obj = log_bound(self.L, self.R, t)
        i = int(np.argmin(obj))  # first minimum: the lexicographically smallest
        return KSelection(self.ks[i], float(obj[i]))


def pareto_front(variables, k_max: int = 8) -> ParetoFront:
    """The (L, R) Pareto front of {1..k_max}^n, for ``ParetoFront.best``.

    The objective L - t^2/(4R) grows with both L and R, so a vector weakly
    dominated in (L, R) by a lexicographically smaller one can neither win
    nor tie ahead of it at any t.  Appending the same order to two prefixes
    keeps that dominance (floating-point addition is monotone), so such
    prefixes are dropped as they appear.  Plain dominance would drop more,
    but could drop the vector that wins a tie.  Sums are accumulated in
    variable order, so every kept (L, R) is bit-identical to a direct
    evaluation and ``best`` returns exactly the exhaustive lattice minimum.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n = len(variables)
    if n < 1:
        raise ValueError("need at least one variable")
    if k_max ** n > ENUMERATION_GUARD:
        raise SizeGuardError(
            f"k_max^n = {k_max}^{n} exceeds {ENUMERATION_GUARD}; "
            "use optimize_relaxed"
        )
    return _front(variables, [range(1, k_max + 1)] * n)


def _front(variables, orders) -> ParetoFront:
    """The front of the product of ``orders[i]``, each list ascending."""
    states = [((), 0.0, 0.0)]  # (ks prefix, L, R) in lexicographic order
    for support, ks_i in zip(variables, orders):
        steps = [(k, mgf_bound(support, order_k(k))) for k in ks_i]
        kept = []
        # A staircase of kept (L, R), L non-decreasing and R falling, that
        # dominates every kept state: a candidate (l, r) is dominated iff the
        # last step with L <= l has R <= r.
        stair_l: list[float] = []
        stair_r: list[float] = []
        for ks, l0, r0 in states:
            for k, bound in steps:
                l, r = l0 + bound.log_multiplier, r0 + bound.rate
                i = bisect.bisect_right(stair_l, l)
                if i and stair_r[i - 1] <= r:
                    continue
                j = i
                while j < len(stair_r) and stair_r[j] >= r:
                    j += 1
                stair_l[i:j] = [l]
                stair_r[i:j] = [r]
                kept.append((ks + (k,), l, r))
        states = kept
    ks, big_l, big_r = zip(*states)
    return ParetoFront(ks, np.array(big_l), np.array(big_r))


def optimize_exact(variables, t: float, k_max: int = 8) -> KSelection:
    """Exact minimum of the one-sided log bound over {1..k_max}^n.

    The exponent couples the k_i, so this is the ground truth the heuristics
    are judged against.  It is the best point of ``pareto_front``; build the
    front once and call its ``best`` when many t share one set of variables.
    Ties go to the lexicographically smaller vector.
    """
    if not t > 0.0:
        raise ValueError("threshold t must be positive")
    return pareto_front(variables, k_max).best(t)


def optimize_relaxed(variables, t: float, k_max: int = 8) -> RelaxedSolution:
    """Continuous relaxation of the order assignment, then lattice rounding.

    The stationarity condition k_j = c_j * t / (sum_i Phi_i^2 / k_i) with
    c_j = Phi_j / sqrt(2 log(1+r_j)) is 1-homogeneous, so its solutions form
    the ray through c; the returned profile is c * t / sum Phi_i^2, the point
    one step from the all-ones start (for n = 1 the closed form
    t / (Phi sqrt(2 log(1+r)))).

    The integer assignment is the best of the 2^n floor/ceil neighbors of the
    fractional profile under the exact objective, each clamped to [1, k_max]:
    the best point of the front over those neighbors, ties to the smaller
    vector.
    """
    if not t > 0.0:
        raise ValueError("threshold t must be positive")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    phis2 = np.array([phi(v) ** 2 for v in variables])
    c = np.sqrt(phis2) / np.sqrt(2.0 * np.log1p([endpoint_ratio(v) for v in variables]))
    fractional = tuple(float(x) for x in c * (t / float(np.sum(phis2))))

    options = []
    for f in fractional:
        lo = min(max(1, math.floor(f)), k_max)
        hi = min(max(1, math.ceil(f)), k_max)
        options.append((lo,) if lo == hi else (lo, hi))
    count = math.prod(len(opt) for opt in options)
    if count > ENUMERATION_GUARD:
        raise SizeGuardError(f"{count} lattice neighbors exceed {ENUMERATION_GUARD}")
    return RelaxedSolution(fractional, _front(variables, options).best(t))


def regimes(L, R, ts) -> list[tuple[float, float, int]]:
    """(t_start, t_end, i) runs of the candidate i minimizing L[i] - t^2/(4 R[i]).

    ``L``, ``R`` and the ascending grid ``ts`` are numpy arrays.  The winner at
    each grid point is the first minimum (ties to the smaller index), so the
    grid decides which runs are found; the edge between neighboring winners
    i and j is their tie, t = sqrt(4 (L_i - L_j) / (1/R_i - 1/R_j)).
    """
    # one t at a time keeps memory at one row of candidates, however large
    winners = [int(np.argmin(log_bound(L, R, t))) for t in ts.tolist()]
    runs: list[tuple[float, float, int]] = []
    start = float(ts[0])
    for i, j in zip(winners, winners[1:]):
        if i == j:
            continue
        edge = math.sqrt(4.0 * (L[i] - L[j]) / (1.0 / R[i] - 1.0 / R[j]))
        runs.append((start, edge, i))
        start = edge
    runs.append((start, float(ts[-1]), winners[-1]))
    return runs


def best_region_partition(
    variables,
    t_min: float,
    t_max: float,
    grid: int,
    k_max: int = 8,
) -> list[tuple[float, float, tuple[int, ...]]]:
    """Partition [t_min, t_max] into intervals sharing one optimal k-vector.

    The ``regimes`` of the exact front on a uniform grid of ``grid`` points:
    the grid decides which regimes are found, and each edge is the closed-form
    tie of its two neighbors.  Returns (t_start, t_end, ks) triples covering
    the whole range.
    """
    if not 0.0 < t_min < t_max:
        raise ValueError("need 0 < t_min < t_max")
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    front = pareto_front(variables, k_max)
    ts = np.linspace(t_min, t_max, grid)
    return [(lo, hi, front.ks[i]) for lo, hi, i in regimes(front.L, front.R, ts)]
