"""The oracle side of `verify`: ``run`` takes one resolved scenario and
returns its gap rows and tail rows.

`verify --random` is the scenario of the ``CANONICAL_SUPPORTS`` (or --a/--b)
with auto choices and no query.  ``run`` checks the pmf count, the poison
rate, then k_max, before it builds any law.  A support's law is
``oracle.moment_matched_pmf``'s, with 1 to 3 atoms, and is checked in plain
Python (``_law_gaps``) against ``catalog`` of its measured support: [a, b]
with the law's m2, the variable's odd_moments_zero and, only under that
(where a bound reads it), the law's m4.  With ``pmfs`` > 0, one seeded
generator then draws ``pmfs`` random pmfs per support, one (xs, ps) stack per
atom count, and ``_family_max_gaps`` checks each support's stacks by the same
rule, each as one numpy (pmf x family x s) table, before the next support's
are drawn.  Both helpers raise ``run``'s one max-gap table and return nothing.
``_mc_rows`` gives the exact tail of the sum of the laws at each t against
the certificate `tail` prints there (``selection.certificates``); a sum with
more than ``oracle.MAX_SUMS`` distinct values is sampled instead
(``oracle.mc_sum_tail``).  So numpy loads only for random pmfs or for that
Monte Carlo.  The supports are those of the query's side (``tails.one_side``):
a lower side checks the mirrored variables' laws, gaps and upper tail, which
is the file's lower tail.
"""

from __future__ import annotations

import bisect
import math

from .bounds import BoundedSupport, catalog, check_k_max, measured_m2_log_multipliers, reads_moments
from .oracle import (
    S_POINTS,
    check_pmf_stack,
    exact_log_mgf,
    exact_log_mgf_rows,
    exact_sum_tail,
    mc_sum_tail,
    moment_matched_pmf,
    moment_rows,
    moments,
    random_mean_zero_stack,
    validity_gaps,
)
from .scenario import Query, Scenario, grid
from .selection import certificates
from .tails import one_side

GAP_TOL = 1e-9  # validity sweep: exact log MGF may not exceed a bound by more

# most random pmfs per support (``run`` checks --pmfs against it): each
# support's are drawn and checked as (pmf x family x s) tables before the
# next's, and 10^5 of them on each canonical support peak at about 205 MB
# (the process's max RSS, Python 3.11, numpy 2.4)
MAX_PMFS = 10 ** 6

# Supports exercised by `verify --random` when none is given explicitly.
CANONICAL_SUPPORTS = ((-1.0, 1.0), (-1.0, 5.0), (-5.0, 1.0), (-2.0, 3.0))


def _note(max_gap: dict[str, float], labels, gaps) -> None:
    """Raise each label's entry in ``max_gap`` to its gap where that is greater."""
    for label, gap in zip(labels, gaps):
        if label not in max_gap or gap > max_gap[label]:
            max_gap[label] = gap


def _family_max_gaps(max_gap: dict[str, float], support: BoundedSupport, stacks,
                     k_max: int, poison: float) -> None:
    """Raise the caller's ``max_gap`` by ``_law_gaps``' rule over one
    support's random pmfs, given as (xs, ps) stacks, each checked as one
    (pmf x family x s) table.

    Random pmfs assert no odd moments, so no bound reads their m4, and one
    ``catalog`` of [a, b] with m2 = 0 serves them all.  Its log multipliers
    stand, except where a family reads m2 (``reads_moments``): there each
    pmf's own log(1 + m2/a^2) does, with its measured support's checks.
    """
    import numpy as np

    shape = BoundedSupport(support.a, support.b, m2=0.0)
    bounds = catalog(shape, k_max)
    labels = [bound.family_tag.family.value for bound in bounds]
    reads_m2 = [reads_moments(shape, bound.family_tag) for bound in bounds]
    log_a = [bound.log_multiplier for bound in bounds]
    rates = [bound.rate * poison for bound in bounds]
    for xs, ps in stacks:
        m2_logs = measured_m2_log_multipliers(support.a, support.b,
                                              moment_rows(xs, ps, 2).tolist())
        logs = np.where(reads_m2, np.array(m2_logs)[:, None], log_a)
        exact = exact_log_mgf_rows(xs, ps, S_POINTS)[:, None, :]
        _note(max_gap, labels, validity_gaps(exact, logs, rates, S_POINTS).max(axis=0).tolist())


def _law_gaps(max_gap: dict[str, float], support: BoundedSupport, law, k_max: int,
              poison: float) -> None:
    """Raise the caller's ``max_gap`` by the law's (exact - bound) gap per
    family label, in plain Python, over ``catalog`` of its measured support:
    [a, b] with the law's m2 and the variable's odd_moments_zero
    (``moment_matched_pmf``'s law is symmetric exactly when that is asserted),
    checked as a declared support; and its m4 under odd_moments_zero alone,
    where its atoms lie within +-min(|a|, b), so c^4 <= (|a|b)^2 is finite.
    """
    odd = support.odd_moments_zero
    measured = BoundedSupport(support.a, support.b, moments(law, 2),
                              moments(law, 4) if odd else None, odd)
    exact = exact_log_mgf(law, S_POINTS)
    bounds = catalog(measured, k_max)
    _note(max_gap, [bound.family_tag.family.value for bound in bounds],
          [max(e - (bound.log_multiplier + bound.rate * poison * s * s)
               for e, s in zip(exact, S_POINTS)) for bound in bounds])


def _random_stacks(support: BoundedSupport, count: int, rng):
    """``count`` random pmfs on the support as (xs, ps) stacks, one per atom
    count: ``rng`` draws the atom counts, then each stack."""
    import numpy as np

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


def _mc_rows(query: Query, group, rule):
    """(t, ks, tail, std_error, certificate, ok) rows: the tail of the group's
    sum at each ``_mc_thresholds`` t against ``rule``'s one certificate there
    (``selection.certificates``), with its ks cell: `tail`'s row at t.

    The tail is ``exact_sum_tail``'s, with std_error 0, and ``ok`` says it is
    at most the certificate (capped at 1).  A sum with more than ``MAX_SUMS``
    distinct values is sampled instead (``mc_sum_tail``, with the query's
    samples and seed), and ``ok`` allows the estimate three standard errors.
    """
    ts = _mc_thresholds(query, sum(p.support.b for p in group))
    exact = exact_sum_tail(group, ts)
    if exact is None:
        tails = mc_sum_tail(group, ts, query.samples, query.seed)
    else:
        tails = [(tail, 0.0) for tail in exact]
    rows = []
    for t, (estimate, se) in zip(ts, tails):
        [(cert, ks)] = rule(t)
        certificate = math.exp(min(cert.log_bound, 0.0))
        rows.append((t, ks, estimate, se, certificate, estimate <= certificate + 3.0 * se))
    return rows


def run(scenario: Scenario, pmfs: int, k_max: int, poison: float):
    """`verify`'s (label, max_gap, violated) rows, sorted by label, and its
    ``_mc_rows``.

    ``pmfs`` must lie in 0..``MAX_PMFS``.  Each support's law is
    ``moment_matched_pmf``'s, checked by ``_law_gaps``; ``pmfs`` random pmfs
    per support follow, drawn and checked by ``_family_max_gaps`` one support
    at a time, which loads numpy.  Both raise this function's one ``max_gap``
    table, and every law is checked before any pmf is drawn.  The laws are
    the group whose sum tail is checked.  A family is violated where its max
    gap exceeds ``GAP_TOL``.
    """
    if pmfs < 0:
        raise ValueError(f"--pmfs must be >= 0, got {pmfs}")
    if pmfs > MAX_PMFS:
        raise ValueError(f"--pmfs must be at most {MAX_PMFS}, got {pmfs}")
    if not poison > 0.0:
        raise ValueError("--poison-rate must be positive")
    query = scenario.query
    supports = list(one_side(scenario.variables, query.side))
    check_k_max(k_max)
    laws = [moment_matched_pmf(support) for support in supports]
    max_gap: dict[str, float] = {}
    for support, law in zip(supports, laws):
        _law_gaps(max_gap, support, law, k_max, poison)
    if pmfs:
        import numpy as np

        rng = np.random.default_rng(query.seed)
        for support in supports:
            _family_max_gaps(max_gap, support, _random_stacks(support, pmfs, rng), k_max, poison)
    gaps = [(label, max_gap[label], max_gap[label] > GAP_TOL) for label in sorted(max_gap)]
    rule = certificates(scenario.variables, scenario.choices, query.side, k_max)
    return gaps, _mc_rows(query, laws, rule)
