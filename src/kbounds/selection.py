"""Choosing the integer order k per variable.

Raising a variable's order from k to k+1 pays log(A_{k+1}/A_k) in multiplier
and buys a smaller rate, so it wins exactly for thresholds above

    t* = Phi * sqrt(2 * (log A_{k+1} - log A_k)).

For a sum the orders couple through the shared exponent t^2 / (2 sum Phi_i^2/k_i),
so the per-variable rule is only a heuristic.  The sum objective is
``tails.log_bound``, L - t^2/(4R) with L = sum log A_{k_i} and
R = sum Phi_i^2/(2 k_i) taken from ``bounds.mgf_bound``.  Neither depends on
t, and the objective is concave and increasing in (L, R), so its minimum over
the lattice is at a vertex of the lower-left convex hull of the summed points.
Each such vertex minimizes L + lambda R for some lambda >= 0, which is separable,
so the hull is the Minkowski sum of the per-variable hulls: their edges merged
by slope, at most n (k_max - 1) + 1 vertices.  It is built once, and each t is
a minimum over its few points.  A continuous relaxation gives the cheap
near-optimal profile  k_j  proportional to  Phi_j / sqrt(2 log(1 + r_j)),
rounded by the hull over each variable's floor and ceiling.  Two vectors tie
where t^2 = 4 (L1 - L2) / (1/R1 - 1/R2); ``regimes`` walks those ties, grid-free.

``certificates`` is the one rule for the certificate a scenario's side prints
at t: the front's first minimum under auto choices, else the file's choices.
`tail`, `select` and `verify`'s Monte Carlo rows all read it.

Everything here is plain Python on tuples of floats: the hull,
``ParetoFront.index`` and ``regimes`` with the float expressions, summation
order and first-minimum ties that numpy gave them, and ``optimize_relaxed``'s
profile with ``math.log1p`` and a sum in variable order, so nothing here
imports numpy.
"""

from __future__ import annotations

import math

from .bounds import (BoundedSupport, Family, Frozen, endpoint_ratio, mgf_bound, multiplier_log,
                     order_k, phi)
from .tails import Side, SumScenario, certificate, log_bound, lower_tail, one_sided_tail, sides

K_MAX = 8  # the largest order searched when no k_max is given


class KSelection(Frozen):
    """An order assignment and the one-sided log bound it achieves at t."""

    __slots__ = ("ks", "log_bound")

    def __init__(self, ks: tuple[int, ...], log_bound: float) -> None:
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "log_bound", log_bound)


class RelaxedSolution(Frozen):
    """Fractional stationary profile plus its best integer lattice neighbor."""

    __slots__ = ("fractional", "rounded")

    def __init__(self, fractional: tuple[float, ...], rounded: KSelection) -> None:
        object.__setattr__(self, "fractional", fractional)
        object.__setattr__(self, "rounded", rounded)


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


def crossover_table(support: BoundedSupport,
                    k_max: int = K_MAX) -> tuple[tuple[int, int, float], ...]:
    """(k, k+1, t*) rows, k = 1..k_max; t* is nan where the refined A_{k+1} dips below A_k."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    rows = []
    for k in range(1, k_max + 1):
        try:
            rows.append((k, k + 1, crossover_threshold(support, k)))
        except RuntimeError:
            rows.append((k, k + 1, math.nan))
    return tuple(rows)


def best_k_single(support: BoundedSupport, t: float, k_max: int = K_MAX) -> int:
    """argmin over k of log A_k - t^2 k / (2 Phi^2), ties to the smaller k."""
    if not t > 0.0:
        raise ValueError("threshold t must be positive")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    h = phi(support)
    phi2 = h * h
    best_k, best_obj = 1, math.inf
    for k in range(1, k_max + 1):
        obj = multiplier_log(support, k) - t * t * k / (2.0 * phi2)
        if obj < best_obj:
            best_k, best_obj = k, obj
    return best_k


class ParetoFront(Frozen):
    """The order vectors that can minimize L - t^2/(4R) at some t > 0.

    They are the vertices of the lower-left convex hull of the summed (L, R)
    points (with the points between edges of equal slope), in lexicographic
    order; ``L[i]`` and ``R[i]`` are the summed log multipliers and rates of
    ``ks[i]``, added in variable order.  Two fronts are equal only if they
    are the same object.
    """

    __slots__ = ("ks", "L", "R")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, ks: tuple[tuple[int, ...], ...], L: tuple[float, ...],
                 R: tuple[float, ...]) -> None:
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "R", R)

    def index(self, t: float) -> int:
        """Where the front is least at t; exact ties go to the smaller vector."""
        if not t > 0.0:
            raise ValueError("threshold t must be positive")
        return _first_min(self.L, self.R, t)  # the lexicographically smallest

    def best(self, t: float) -> KSelection:
        """Minimum over the front at t; exact ties go to the smaller vector."""
        i = self.index(t)
        return KSelection(self.ks[i], log_bound(self.L[i], self.R[i], t))


def _first_min(L, R, t: float) -> int:
    """The first index i minimizing L[i] - t^2/(4 R[i]): ties to the smaller i."""
    obj = [log_bound(l, r, t) for l, r in zip(L, R)]
    return obj.index(min(obj))


def pareto_front(variables, k_max: int = K_MAX) -> ParetoFront:
    """The lower-left (L, R) hull of {1..k_max}^n, for ``ParetoFront.index``.

    Only hull vertices can win or tie at any t (see the module docstring).
    A vertex of a Minkowski sum is one vertex of each summand, so it is one
    order vector, and its (L, R) is summed in variable order like a direct
    evaluation: ``best`` returns exactly the exhaustive lattice minimum, ties
    to the lexicographically smaller vector.  At most n (k_max - 1) + 1 points.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n = len(variables)
    if n < 1:
        raise ValueError("need at least one variable")
    return _hull(variables, [range(1, k_max + 1)] * n)


def _chain(support, orders) -> tuple[list, list[float]]:
    """One variable's lower-left hull over its ascending ``orders``.

    The vertices (k, log A_k, rate) from the first minimum-L one on, and the
    slope -dL/dR of the edge into each later vertex, non-decreasing.
    """
    bounds = [(k, mgf_bound(support, order_k(k))) for k in orders]
    points = [(k, bound.log_multiplier, bound.rate) for k, bound in bounds]
    start = min(range(len(points)), key=lambda j: points[j][1])
    vertices, slopes = [points[start]], []
    for point in points[start + 1:]:  # R falls as k rises: ascending in -R
        while True:
            _, l0, r0 = vertices[-1]
            slope = (point[1] - l0) / (r0 - point[2])
            if not slopes or slope >= slopes[-1]:
                break
            vertices.pop()
            slopes.pop()
        vertices.append(point)
        slopes.append(slope)
    return vertices, slopes


def _hull(variables, orders) -> ParetoFront:
    """The lower-left hull of the product of ``orders[i]``, each list ascending.

    Every prefix of the per-variable edges merged by slope is one candidate;
    each vertex of the sum's hull is among them.  Each move advances one
    chain's cursor and raises one order, so the candidates come in
    lexicographic order.
    """
    chains = [_chain(support, ks_i) for support, ks_i in zip(variables, orders)]
    moves = sorted(
        ((slope, i) for i, (_, slopes) in enumerate(chains) for slope in slopes),
        key=lambda move: move[0],
    )
    cursors = [0] * len(chains)
    points = [vertices[0] for vertices, _ in chains]
    rows = [_summed(points)]
    for _, i in moves:
        cursors[i] += 1
        points[i] = chains[i][0][cursors[i]]
        rows.append(_summed(points))
    ks, big_l, big_r = zip(*rows)
    return ParetoFront(ks, big_l, big_r)


def _summed(points) -> tuple[tuple[int, ...], float, float]:
    """(ks, L, R) of one vertex per variable, summed in variable order from 0.0
    as the tail engine sums."""
    big_l = big_r = 0.0
    for _, l_i, r_i in points:
        big_l += l_i
        big_r += r_i
    return tuple(k for k, _, _ in points), big_l, big_r


def optimize_exact(variables, t: float, k_max: int = K_MAX) -> KSelection:
    """Exact minimum of the one-sided log bound over {1..k_max}^n.

    The exponent couples the k_i, so this is the ground truth the heuristics
    are judged against.  It is the best point of ``pareto_front``; build the
    front once and call its ``best`` when many t share one set of variables.
    Ties go to the lexicographically smaller vector.
    """
    if not t > 0.0:
        raise ValueError("threshold t must be positive")
    return pareto_front(variables, k_max).best(t)


def _choice_cell(tags) -> str:
    return "|".join(str(t.k) if t.family is Family.ORDER_K else t.label() for t in tags)


def certificates(variables, choices, side: Side, k_max: int = K_MAX):
    """The function of t giving each side's printed (``TailCertificate``, ks
    cell), one per side of ``tails.sides``, upper first; ``tails.sides`` runs
    first, so a refused mirror fails before any row.

    Under auto choices (``choices`` is None) a side's row is ``certificate``
    of its ``pareto_front``'s first minimum at t, the cell its orders.  Fixed
    choices build one ``SumScenario`` per t for the upper side's
    ``one_sided_tail`` and the lower side's ``lower_tail``; the cell names
    each choice, an order_k choice by its k.
    """
    supports = sides(variables, side)
    if choices is None:
        fronts = [pareto_front(side_supports, k_max) for side_supports in supports.values()]

        def at(t: float):
            firsts = [(front, front.index(t)) for front in fronts]
            return [(certificate(f.L[i], f.R[i], t), "|".join(map(str, f.ks[i])))
                    for f, i in firsts]
    else:
        side_tails = [lower_tail if s is Side.LOWER else one_sided_tail for s in supports]

        def at(t: float):
            # each fixed row does all its work again, the cell too: hoisting it
            # waits on the benchmark repair (ROADMAP Direction 1)
            chosen = SumScenario(variables, choices)
            cell = _choice_cell(chosen.choices)
            return [(side_tail(chosen, t), cell) for side_tail in side_tails]
    return at


def optimize_relaxed(variables, t: float, k_max: int = K_MAX) -> RelaxedSolution:
    """Continuous relaxation of the order assignment, then lattice rounding.

    The stationarity condition k_j = c_j * t / (sum_i Phi_i^2 / k_i) with
    c_j = Phi_j / sqrt(2 log(1+r_j)) is 1-homogeneous, so its solutions form
    the ray through c; the returned profile is c * t / sum Phi_i^2, the point
    one step from the all-ones start (for n = 1 the closed form
    t / (Phi sqrt(2 log(1+r)))).

    The integer assignment is the best of the 2^n floor/ceil neighbors of the
    fractional profile under the exact objective, each clamped to [1, k_max]:
    the best point of the hull over those neighbors, ties to the smaller
    vector.
    """
    if not t > 0.0:
        raise ValueError("threshold t must be positive")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    phis = [phi(v) for v in variables]
    scale = t / sum(p * p for p in phis)
    fractional = tuple(
        p / math.sqrt(2.0 * math.log1p(endpoint_ratio(v))) * scale
        for p, v in zip(phis, variables)
    )

    options = []
    for f in fractional:
        lo = min(max(1, math.floor(f)), k_max)
        hi = min(max(1, math.ceil(f)), k_max)
        options.append((lo,) if lo == hi else (lo, hi))
    return RelaxedSolution(fractional, _hull(variables, options).best(t))


def regimes(L, R, t_lo: float, t_hi: float) -> list[tuple[float, float, int]]:
    """(t_start, t_end, i) runs of the candidate i minimizing L[i] - t^2/(4 R[i]).

    ``L`` and ``R`` are sequences of floats; the runs tile [t_lo, t_hi], each of
    positive width if t_lo < t_hi.  In u = t^2 each candidate is the line
    L - u/(4R), so the winner's R never rises with t: from the first minimum at
    t_lo the walk moves to the smaller-R candidate whose tie with the current
    winner, t = sqrt(4 (L_i - L_j) / (1/R_i - 1/R_j)), comes first (at a shared
    edge the smallest R, then index), and ends at the first tie at or past t_hi.
    """
    inv_r = [1.0 / r for r in R]
    i = _first_min(L, R, t_lo)
    runs, start = [], t_lo
    while later := [j for j, inv in enumerate(inv_r) if inv > inv_r[i]]:
        # a later candidate that is no worse in L already wins: its tie is 0
        ties = [4.0 * min(L[i] - L[j], 0.0) / (inv_r[i] - inv_r[j]) for j in later]
        lowest = min(ties)
        edge = math.sqrt(lowest)
        if edge >= t_hi:
            break
        if edge > start:
            runs.append((start, edge, i))
            start = edge
        i = min((j for j, tie in zip(later, ties) if tie == lowest), key=lambda j: (R[j], j))
    runs.append((start, t_hi, i))
    return runs


def best_region_partition(
    variables, t_min: float, t_max: float, k_max: int = K_MAX
) -> list[tuple[float, float, tuple[int, ...]]]:
    """Partition [t_min, t_max] into intervals sharing one optimal k-vector.

    The ``regimes`` of the exact front, however narrow, as (t_start, t_end, ks)
    triples covering the whole range; each edge is the tie of its two neighbors.
    """
    if not 0.0 < t_min < t_max:
        raise ValueError("need 0 < t_min < t_max")
    front = pareto_front(variables, k_max)
    return [(lo, hi, front.ks[i]) for lo, hi, i in regimes(front.L, front.R, t_min, t_max)]
