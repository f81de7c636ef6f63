"""The oracle side of `verify`: pmf stacks, gap tables and the Monte Carlo rows.

`verify` is the one command that draws pmfs, so this module imports numpy and
``oracle`` at its top and ``cli.cmd_verify`` imports it when it runs; the other
commands start without numpy.  Each support's catalog, labels and poisoned
rates come first (``_gap_tables``), then its pmfs: under --random one seeded
generator draws them as (xs, ps) stacks, one per atom count.  The log
multipliers that read moments come from each pmf's measured m2 and m4
(``bounds.measured_m2_log_multipliers``), and all are checked against the
exact log-MGF rows as (pmf x family x s) tables.  ``_mc_rows`` then samples
the group's sum against its certificates; ``cli`` writes both as CSV.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import BoundedSupport, catalog, measured_m2_log_multipliers, reads_moments
from .oracle import (
    MIN_SAMPLES,
    S_GRID,
    check_pmf_stack,
    exact_log_mgf_rows,
    extremal_two_point,
    mc_sum_tail,
    moment_matched_pmf,
    moment_rows,
    random_mean_zero_stack,
    validity_gaps,
)
from .scenario import Scenario, grid
from .selection import pareto_front
from .tails import one_sided_tail, order_k_scenario

GAP_TOL = 1e-9  # validity sweep: exact log MGF may not exceed a bound by more

# Supports exercised by `verify --random` when none is given explicitly.
CANONICAL_SUPPORTS = ((-1.0, 1.0), (-1.0, 5.0), (-5.0, 1.0), (-2.0, 3.0))


def _measured_supports(support: BoundedSupport, xs, ps) -> list[BoundedSupport]:
    """The support of each (xs, ps) row: [a, b] with the row's m2 and m4."""
    m2s = moment_rows(xs, ps, 2).tolist()
    m4s = moment_rows(xs, ps, 4).tolist()
    return [BoundedSupport(support.a, support.b, m2, m4) for m2, m4 in zip(m2s, m4s)]


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


def _verify_supports(args, scenario: Scenario | None) -> list[BoundedSupport]:
    """The supports whose pmfs `verify` sweeps: the scenario's variables, or
    under --random the --a/--b interval, else the canonical ones."""
    if scenario is not None:
        given = [f"--{flag}" for flag in ("a", "b", "pmfs")
                 if getattr(args, flag) is not None]
        if given:
            raise ValueError(f"{', '.join(given)} can only be used with --random")
        return list(scenario.variables)
    if (args.a is None) != (args.b is None):
        raise ValueError("give both --a and --b, or neither")
    if args.pmfs is not None and args.pmfs < 0:
        raise ValueError(f"--pmfs must be >= 0, got {args.pmfs}")
    if args.a is not None:
        return [BoundedSupport(args.a, args.b)]
    return [BoundedSupport(a, b) for a, b in CANONICAL_SUPPORTS]


def _verify_pmfs(supports, random: bool, count: int, seed: int):
    """Each support's (xs, ps) stacks whose MGF gaps are swept, and the group
    whose sum is sampled.

    Under --random one generator, seeded by ``seed``, draws each support's
    ``count`` atom counts and then one stack per distinct count.
    """
    if not random:
        pmfs = [moment_matched_pmf(support, seed=seed + i) for i, support in enumerate(supports)]
        return [[pmf.stack()] for pmf in pmfs], pmfs
    rng = np.random.default_rng(seed)
    group = [extremal_two_point(support) for support in supports]
    every_stack = []
    for support, extremal in zip(supports, group):
        atom_counts = rng.integers(2, 9, count)
        stacks = [extremal.stack()]
        for atoms, rows in zip(*np.unique(atom_counts, return_counts=True)):
            stack = random_mean_zero_stack(support, int(atoms), int(rows), rng)
            check_pmf_stack(*stack, support)
            stacks.append(stack)
        every_stack.append(stacks)
    return every_stack, group


def _mc_thresholds(scenario: Scenario | None, variables) -> tuple[float, ...]:
    """The t values at which the group's sum is sampled: the scenario's that
    the sum can reach, at most 8 of them evenly spread by index, else a quarter,
    half and three quarters of its reach."""
    reach = sum(v.b for v in variables)
    ts = tuple(f * reach for f in (0.25, 0.5, 0.75))
    if scenario is not None and (scenario.query.ts or scenario.query.t_range):
        ts = tuple(t for t in scenario.query.resolve_ts() if t <= reach) or ts
        if len(ts) > 8:
            ts = tuple(ts[int(i)] for i in grid(0, len(ts) - 1, 8))
    return ts


def _mc_rows(scenario: Scenario | None, group, k_max: int, samples: int, seed: int):
    """(t, ks, estimate, std_error, certificate, ok) rows: the group's sum
    sampled at each ``_mc_thresholds`` t against the certificates of all
    orders 1, all orders 2 (up to ``k_max``) and the front's best at t.

    Each variable is its pmf's measured support; ``ok`` allows the estimate
    three standard errors above the certificate, capped at 1.
    """
    variables = tuple(_measured_supports(p.support, *p.stack())[0] for p in group)
    ts = _mc_thresholds(scenario, variables)
    front = pareto_front(variables, k_max)
    rows = []
    for t, (estimate, se) in zip(ts, mc_sum_tail(group, ts, samples, seed)):
        candidates = [(k,) * len(group) for k in (1, 2) if k <= k_max]
        best = front.best(t).ks
        if best not in candidates:
            candidates.append(best)
        for ks in candidates:
            cert = one_sided_tail(order_k_scenario(variables, ks), t)
            certificate = math.exp(min(cert.log_bound, 0.0))
            rows.append((t, ks, estimate, se, certificate, estimate <= certificate + 3.0 * se))
    return rows
