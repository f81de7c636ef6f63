"""Choosing the integer order k per variable.

Raising a variable's order from k to k+1 pays log(A_{k+1}/A_k) in multiplier
and buys a smaller rate, so it wins exactly for thresholds above

    t* = Phi * sqrt(2 * (log A_{k+1} - log A_k)).

For a sum the orders couple through the shared exponent t^2 / (2 sum Phi_i^2/k_i),
so the per-variable rule is only a heuristic.  The sum objective is
L - t^2/(4R) with L = sum log A_{k_i} and R = sum Phi_i^2/(2 k_i), and neither
L nor R depends on t, so the exact optimum at every t lies on the (L, R)
Pareto front of {1..k_max}^n.  The front is built once, one variable at a time
(the Nemhauser-Ullmann method for multi-objective knapsack), and each t is a
minimum over its few points.  A continuous relaxation provides the cheap
near-optimal profile  k_j  proportional to  Phi_j / sqrt(2 log(1 + r_j)).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundedSupport, endpoint_ratio, multiplier_log, phi

# Hard ceiling on the number of assignments any lattice search may visit.
ENUMERATION_GUARD = 10 ** 7


class SizeGuardError(ValueError):
    """Enumeration would exceed the lattice-size guard; use the relaxation."""


class IterationError(RuntimeError):
    """Fixed-point iteration failed to settle; carries the last iterate."""

    def __init__(self, message: str, last_iterate):
        super().__init__(message)
        self.last_iterate = last_iterate


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


def _log_bound(variables, ks, t: float) -> float:
    """Sum-tail objective log A - t^2/(4R), identical to one_sided_tail's."""
    log_mult = 0.0
    rate = 0.0
    for support, k in zip(variables, ks):
        log_mult += multiplier_log(support, k)
        rate += phi(support) ** 2 / (2.0 * k)
    return log_mult - t * t / (4.0 * rate)


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
        obj = self.L - t * t / (4.0 * self.R)
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
    states = [((), 0.0, 0.0)]  # (ks prefix, L, R) in lexicographic order
    for support in variables:
        phi2 = phi(support) ** 2
        steps = [
            (k, multiplier_log(support, k), phi2 / (2.0 * k))
            for k in range(1, k_max + 1)
        ]
        kept = []
        # A staircase of kept (L, R), L non-decreasing and R falling, that
        # dominates every kept state: a candidate (l, r) is dominated iff the
        # last step with L <= l has R <= r.
        stair_l: list[float] = []
        stair_r: list[float] = []
        for ks, l0, r0 in states:
            for k, log_mult, rate in steps:
                l, r = l0 + log_mult, r0 + rate
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


def optimize_relaxed(
    variables,
    t: float,
    k_max: int = 8,
    tol: float = 1e-10,
    max_iter: int = 10 ** 4,
) -> RelaxedSolution:
    """Continuous relaxation of the order assignment, then lattice rounding.

    Iterates the stationarity map k_j <- c_j * t / (sum_i Phi_i^2 / k_i) with
    c_j = Phi_j / sqrt(2 log(1+r_j)) from the all-ones start.  The map is
    1-homogeneous: after one pass every iterate lies on the ray through c and
    later passes rescale all coordinates by one shared factor, so convergence
    is judged on the normalized profile and the returned scale is the common
    factor t / sum Phi_i^2 of the unit start (for n = 1 this reproduces the
    closed-form t / (Phi sqrt(2 log(1+r)))).

    The integer assignment is the best of the 2^n floor/ceil neighbors of the
    fractional profile under the exact objective, each clamped to [1, k_max].
    """
    if not t > 0.0:
        raise ValueError("threshold t must be positive")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n = len(variables)
    phis2 = np.array([phi(v) ** 2 for v in variables])
    c = np.sqrt(phis2) / np.sqrt(2.0 * np.log1p([endpoint_ratio(v) for v in variables]))

    k = np.ones(n)
    prev_delta = None
    converged = False
    for _ in range(max_iter):
        new = c * (t / float(np.sum(phis2 / k)))
        delta = new - k
        if prev_delta is not None and np.all(delta * prev_delta < 0.0):
            new = 0.5 * (k + new)  # damp a sign-alternating update
            delta = new - k
        scale = float(np.sum(new)) / float(np.sum(k))
        rel = float(np.max(np.abs(new / (k * scale) - 1.0)))
        k, prev_delta = new, delta
        if rel < tol:
            converged = True
            break
    if not converged:
        raise IterationError("relaxation profile did not settle", tuple(k))

    fractional = tuple(float(x) for x in c * (t / float(np.sum(phis2))))

    options = []
    for f in fractional:
        lo = min(max(1, math.floor(f)), k_max)
        hi = min(max(1, math.ceil(f)), k_max)
        options.append((lo,) if lo == hi else (lo, hi))
    count = 1
    for opt in options:
        count *= len(opt)
    if count > ENUMERATION_GUARD:
        raise SizeGuardError(f"{count} lattice neighbors exceed {ENUMERATION_GUARD}")
    best_ks: tuple[int, ...] | None = None
    best_obj = math.inf
    for ks in itertools.product(*options):
        obj = _log_bound(variables, ks, t)
        if obj < best_obj:
            best_ks, best_obj = ks, obj
    return RelaxedSolution(fractional, KSelection(best_ks, best_obj))


def best_region_partition(
    variables,
    t_min: float,
    t_max: float,
    grid: int,
    k_max: int = 8,
    boundary_tol: float = 1e-4,
) -> list[tuple[float, float, tuple[int, ...]]]:
    """Partition [t_min, t_max] into intervals sharing one optimal k-vector.

    Evaluates the exact optimum on a uniform grid, merges equal neighbors and
    refines each regime boundary by bisection to ``boundary_tol``.  Returns
    (t_start, t_end, ks) triples covering the whole range.
    """
    if not 0.0 < t_min < t_max:
        raise ValueError("need 0 < t_min < t_max")
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    front = pareto_front(variables, k_max)
    ts = np.linspace(t_min, t_max, grid)
    assignments = [front.best(float(t)).ks for t in ts]

    regions: list[tuple[float, float, tuple[int, ...]]] = []
    start = t_min
    for i in range(1, grid):
        if assignments[i] == assignments[i - 1]:
            continue
        lo, hi = float(ts[i - 1]), float(ts[i])
        left = assignments[i - 1]
        while hi - lo > boundary_tol:
            mid = 0.5 * (lo + hi)
            if front.best(mid).ks == left:
                lo = mid
            else:
                hi = mid
        boundary = 0.5 * (lo + hi)
        regions.append((start, boundary, left))
        start = boundary
    regions.append((start, t_max, assignments[-1]))
    return regions
