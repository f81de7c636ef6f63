"""The oracle side of `verify`: ``run`` takes one resolved scenario and
returns its gap rows and tail rows.

`verify --random` is the scenario of the ``CANONICAL_SUPPORTS`` (or --a/--b)
with auto choices and no query.  ``run`` checks its input before it builds
any law: the poison rate, a finite max(|a|, b)^4 per support, then each
support's catalog, labels and poisoned rates (``_gap_tables``).  Each
support's law is ``oracle.moment_matched_pmf``'s, with 2 or 3 atoms, and is
checked in plain Python (``_law_gaps``): its exact log-MGF on the s grid,
its m2 and m4, and the (family x s) gaps.  With ``pmfs`` > 0, one seeded
generator then draws ``pmfs`` random pmfs per support, one (xs, ps) stack per
atom count, and those are checked as numpy (pmf x family x s) tables
(``_family_max_gaps``).  The log multipliers that read moments come from each
pmf's measured m2 and m4.  ``_mc_rows`` gives the exact tail of the sum of the
laws at each t against the certificate `tail` prints there
(``selection.certificates``); a sum with more than ``oracle.MAX_SUMS``
distinct values is sampled instead (``oracle.mc_sum_tail``).  So numpy loads
only for random pmfs or for that Monte Carlo.  The supports are those of the
query's side (``tails.one_side``): a lower side checks the mirrored
variables' laws, gaps and upper tail, which is the file's lower tail.
"""

from __future__ import annotations

import bisect
import math

from .bounds import BoundedSupport, catalog, measured_m2_log_multipliers, reads_moments
from .oracle import (
    S_POINTS,
    check_pmf_stack,
    exact_log_mgf_rows,
    exact_sum_tail,
    law_log_mgf,
    law_moment,
    mc_sum_tail,
    moment_matched_pmf,
    moment_rows,
    random_mean_zero_stack,
    validity_gaps,
)
from .scenario import Query, Scenario, grid
from .selection import certificates
from .tails import one_side

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


def _note(max_gap: dict[str, float], labels, gaps) -> None:
    """Raise each label's entry in ``max_gap`` to its gap where that is greater."""
    for label, gap in zip(labels, gaps):
        if label not in max_gap or gap > max_gap[label]:
            max_gap[label] = gap


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
        _note(max_gap, labels, validity_gaps(exact, log_a, rates, S_POINTS).max(axis=0).tolist())

    for support, (fixed, measured), stacks in batches:
        for xs, ps in stacks:
            exact = exact_log_mgf_rows(xs, ps, S_POINTS)[:, None, :]
            labels, bounds, rates = fixed
            note(labels, exact, [bound.log_multiplier for bound in bounds], rates)
            labels, bounds, rates = measured
            m2s, m4s = moment_rows(xs, ps, 2).tolist(), moment_rows(xs, ps, 4).tolist()
            logs = measured_m2_log_multipliers(support.a, support.b, m2s, m4s)
            note(labels, exact, [[log] * len(bounds) for log in logs], rates)
    return max_gap


def _law_gaps(support: BoundedSupport, tables, law) -> dict[str, float]:
    """``_family_max_gaps`` of the law alone, in plain Python.

    The same (family x s) gaps by the same float operations, on
    ``oracle.law_log_mgf`` and ``oracle.law_moment`` in place of numpy's
    rows: a gap can differ from numpy's only where math's exp, log or pow
    rounds otherwise.
    """
    exact = law_log_mgf(law, S_POINTS)
    (labels, bounds, rates), (measured_labels, measured, measured_rates) = tables
    [m2_log] = measured_m2_log_multipliers(support.a, support.b, [law_moment(law, 2)],
                                           [law_moment(law, 4)])
    families = [*zip(labels, [bound.log_multiplier for bound in bounds], rates),
                *zip(measured_labels, [m2_log] * len(measured), measured_rates)]
    max_gap: dict[str, float] = {}
    _note(max_gap, [label for label, _, _ in families],
          [max(e - (log_a + rho * s * s) for e, s in zip(exact, S_POINTS))
           for _, log_a, rho in families])
    return max_gap


def _supports(scenario: Scenario) -> list[BoundedSupport]:
    """The supports whose laws `verify` sweeps: the scenario's variables on its
    query's side (``tails.one_side``: mirrored for the lower one).  Each one's
    max(|a|, b)^4 must be finite, as an m4 is computed."""
    supports = list(one_side(scenario.variables, scenario.query.side))
    for support in supports:
        try:
            max(-support.a, support.b) ** 4
        except OverflowError:
            raise ValueError(f"support [{support.a}, {support.b}] is too wide to "
                             "verify: max(|a|, b)^4 overflows") from None
    return supports


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

    Each support's law is ``moment_matched_pmf``'s, checked by ``_law_gaps``;
    ``pmfs`` random pmfs per support follow, checked by ``_family_max_gaps``,
    which loads numpy.  The laws are the group whose sum tail is checked.  A
    family is violated where its max gap exceeds ``GAP_TOL``.
    """
    if not poison > 0.0:
        raise ValueError("--poison-rate must be positive")
    query = scenario.query
    supports = _supports(scenario)
    tables = [_gap_tables(support, k_max, poison) for support in supports]
    laws = [moment_matched_pmf(support) for support in supports]
    found = [_law_gaps(*batch) for batch in zip(supports, tables, laws)]
    if pmfs:
        import numpy as np

        rng = np.random.default_rng(query.seed)
        stacks = [list(_random_stacks(support, pmfs, rng)) for support in supports]
        found.append(_family_max_gaps(zip(supports, tables, stacks)))
    max_gap: dict[str, float] = {}
    for per_label in found:
        _note(max_gap, per_label.keys(), per_label.values())
    gaps = [(label, max_gap[label], max_gap[label] > GAP_TOL) for label in sorted(max_gap)]
    rule = certificates(scenario.variables, scenario.choices, query.side, k_max)
    return gaps, _mc_rows(query, laws, rule)
