"""The oracle side of `verify`: ``run`` takes the command's values and
returns its gap rows and Monte Carlo rows.

`verify` is the one command that draws pmfs, so this module imports numpy and
``oracle`` at its top and ``cli.cmd_verify`` imports it when it runs; the other
commands start without numpy.  ``run`` checks every input before it draws:
the seed and sample count by ``scenario.Query``'s rules (a seed of at least 0,
at least ``MIN_SAMPLES`` samples), the poison rate, the --a/--b/--pmfs rules,
a finite max(|a|, b)^4 per support, then each support's catalog, labels and
poisoned rates (``_gap_tables``).  Each support's law is its first (xs, ps)
stack: the extremal two-point law under --random,
``oracle.moment_matched_pmf`` for a scenario variable.  Under --random one
seeded generator then draws each support's pmfs, one stack per atom count.  The log multipliers that read
moments come from each pmf's measured m2 and m4, and all are checked against
the exact log-MGF rows as (pmf x family x s) tables.  ``_mc_rows`` samples
the sum of the laws against its certificates.  A scenario's supports are those
of its query's side (``tails.one_side``): a lower side checks the mirrored
variables' laws, gaps and upper tail, which is the file's lower tail.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .bounds import BoundedSupport, catalog, measured_m2_log_multipliers, reads_moments
from .oracle import (
    S_GRID,
    check_pmf_stack,
    exact_log_mgf_rows,
    extremal_two_point,
    mc_sum_tail,
    moment_matched_pmf,
    moment_rows,
    moments,
    random_mean_zero_stack,
    validity_gaps,
)
from .scenario import Query, Scenario, grid
from .selection import pareto_front
from .tails import one_side, one_sided_tail, order_k_scenario

GAP_TOL = 1e-9  # validity sweep: exact log MGF may not exceed a bound by more

# Supports exercised by `verify --random` when none is given explicitly.
CANONICAL_SUPPORTS = ((-1.0, 1.0), (-1.0, 5.0), (-5.0, 1.0), (-2.0, 3.0))


def _gap_tables(support: BoundedSupport, k_max: int, poison: float):
    """(labels, bounds, rates times ``poison``) of the families that read no
    moments, then of those that do, on the support's measured supports.

    A measured support is [a, b] with a pmf's m2 and m4 and no odd moments
    asserted, so its catalog is that of [a, b] with m2 = m4 = 0.  A rate
    depends on [a, b] alone, and so does a log multiplier that reads no moments.
    """
    shape = BoundedSupport(support.a, support.b, m2=0.0, m4=0.0)
    bounds = catalog(shape, k_max)
    fixed = [b for b in bounds if not reads_moments(shape, b.family_tag)]
    measured = [b for b in bounds if reads_moments(shape, b.family_tag)]
    return [([b.family_tag.family.value for b in t], t, [b.rate * poison for b in t])
            for t in (fixed, measured)]


def _family_max_gaps(batches) -> dict[str, float]:
    """Max (exact - bound) gap per family label over every pmf.

    ``batches`` holds one (support, ``_gap_tables``, (xs, ps) stacks) per
    support.  Each table is checked as one (pmf x family x s) table: the log
    multipliers that read no moments are one per support, the others each
    pmf's own log(1 + m2/a^2), which is every such family's on a measured
    support (it asserts no odd moments).
    """
    max_gap: dict[str, float] = {}

    def note(labels, exact, log_a, rates) -> None:
        gaps = validity_gaps(exact, log_a, rates, S_GRID).max(axis=0)
        for label, gap in zip(labels, gaps.tolist()):
            if label not in max_gap or gap > max_gap[label]:
                max_gap[label] = gap

    for support, (fixed, measured), stacks in batches:
        for xs, ps in stacks:
            exact = exact_log_mgf_rows(xs, ps, S_GRID)[:, None, :]
            labels, bounds, rates = fixed
            note(labels, exact, [bound.log_multiplier for bound in bounds], rates)
            labels, bounds, rates = measured
            m2s, m4s = moment_rows(xs, ps, 2).tolist(), moment_rows(xs, ps, 4).tolist()
            logs = measured_m2_log_multipliers(support.a, support.b, m2s, m4s)
            note(labels, exact, [[log] * len(bounds) for log in logs], rates)
    return max_gap


def _supports(scenario: Scenario | None, a, b, pmfs) -> list[BoundedSupport]:
    """The supports whose laws `verify` sweeps: the scenario's variables on its
    query's side (``tails.one_side``: mirrored for the lower one), or under
    --random the --a/--b interval, else the canonical ones.  Each one's
    max(|a|, b)^4 must be finite as ``moment_rows`` computes it."""
    if scenario is not None:
        given = [f"--{flag}" for flag, value in (("a", a), ("b", b), ("pmfs", pmfs))
                 if value is not None]
        if given:
            raise ValueError(f"{', '.join(given)} can only be used with --random")
        supports = list(one_side(scenario.variables, scenario.query.side))
    else:
        if (a is None) != (b is None):
            raise ValueError("give both --a and --b, or neither")
        if pmfs is not None and pmfs < 0:
            raise ValueError(f"--pmfs must be >= 0, got {pmfs}")
        supports = [BoundedSupport(*ab) for ab in (CANONICAL_SUPPORTS if a is None else [(a, b)])]
    for support in supports:
        with np.errstate(over="ignore"):
            if not np.isfinite(np.asarray([max(-support.a, support.b)]) ** 4).all():
                raise ValueError(f"support [{support.a}, {support.b}] is too wide to "
                                 "verify: max(|a|, b)^4 overflows")
    return supports


def _random_stacks(support: BoundedSupport, count: int, rng):
    """``count`` random pmfs on the support as (xs, ps) stacks, one per atom
    count: ``rng`` draws the atom counts, then each stack."""
    atom_counts = rng.integers(2, 9, count)
    for atoms, rows in zip(*np.unique(atom_counts, return_counts=True)):
        stack = random_mean_zero_stack(support, int(atoms), int(rows), rng)
        check_pmf_stack(*stack, support)
        yield stack


def _mc_thresholds(query: Query, reach: float) -> tuple[float, ...]:
    """The t values at which the group's sum is sampled: the query's that
    the sum can reach, at most 8 of them evenly spread by index, else a quarter,
    half and three quarters of its reach.

    A t_range's grid never falls before its last t, i * step + lo for
    i < count - 1, so the t it can reach there are a prefix, found by
    bisection.  The last t, hi, can lie below the one before it (at subnormal
    scale), so it is reachable on its own.  Only the picked t are built.
    """
    if query.t_range is not None:
        lo, hi, count = query.t_range

        def t_of(i: int) -> float:
            return grid(lo, hi, count, (i,))[0]

        head = bisect.bisect_right(range(count - 1), reach, key=t_of)
        reachable = head + (hi <= reach)

        def t_at(j: int) -> float:
            return t_of(j if j < head else count - 1)
    else:
        ts = [t for t in query.ts or () if t <= reach]
        t_at, reachable = ts.__getitem__, len(ts)
    if not reachable:
        return tuple(f * reach for f in (0.25, 0.5, 0.75))
    picks = range(reachable) if reachable <= 8 else grid(0, reachable - 1, 8)
    return tuple(t_at(int(i)) for i in picks)


def _mc_rows(query: Query, group, k_max: int):
    """(t, ks, estimate, std_error, certificate, ok) rows: the group's sum
    sampled at each ``_mc_thresholds`` t against the certificates of all
    orders 1, all orders 2 (up to ``k_max``) and the front's best at t.

    Each variable is its pmf's measured support; ``ok`` allows the estimate
    three standard errors above the certificate, capped at 1.
    """
    variables = tuple(BoundedSupport(p.support.a, p.support.b, moments(p, 2), moments(p, 4))
                      for p in group)
    ts = _mc_thresholds(query, sum(v.b for v in variables))
    front = pareto_front(variables, k_max)
    rows = []
    for t, (estimate, se) in zip(ts, mc_sum_tail(group, ts, query.samples, query.seed)):
        candidates = [(k,) * len(group) for k in (1, 2) if k <= k_max]
        best = front.best(t).ks
        if best not in candidates:
            candidates.append(best)
        for ks in candidates:
            cert = one_sided_tail(order_k_scenario(variables, ks), t)
            certificate = math.exp(min(cert.log_bound, 0.0))
            rows.append((t, ks, estimate, se, certificate, estimate <= certificate + 3.0 * se))
    return rows


def run(scenario: Scenario | None, a: float | None, b: float | None, pmfs: int | None,
        k_max: int, samples: int | None, seed: int | None, poison: float):
    """`verify`'s (label, max_gap, violated) rows, sorted by label, and its
    ``_mc_rows``; ``scenario`` is None under --random.

    ``seed`` and ``samples`` replace the query's own, whose rules check them
    first; ``pmfs`` (random pmfs per support, --random only) defaults to 1000.
    Each support's law is its first stack, and under --random ``pmfs`` random
    pmfs follow; the laws are the group whose sum is sampled.  A family is
    violated where its max gap exceeds ``GAP_TOL``.
    """
    query = Query() if scenario is None else scenario.query
    query = query.replace(seed=query.seed if seed is None else seed,
                          samples=query.samples if samples is None else samples)
    if not poison > 0.0:
        raise ValueError("--poison-rate must be positive")
    supports = _supports(scenario, a, b, pmfs)
    tables = [_gap_tables(support, k_max, poison) for support in supports]
    laws = [extremal_two_point(support) if scenario is None
            else moment_matched_pmf(support, seed=query.seed + i)
            for i, support in enumerate(supports)]
    count = 0 if scenario is not None else 1000 if pmfs is None else pmfs
    rng = np.random.default_rng(query.seed)
    stacks = [[law.stack(), *_random_stacks(support, count, rng)]
              for support, law in zip(supports, laws)]
    max_gap = _family_max_gaps(zip(supports, tables, stacks))
    gaps = [(label, max_gap[label], max_gap[label] > GAP_TOL) for label in sorted(max_gap)]
    return gaps, _mc_rows(query, laws, k_max)
