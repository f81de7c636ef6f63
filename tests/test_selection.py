import bisect
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kbounds.bounds import BoundedSupport, mgf_bound, multiplier_log, order_k, phi
from kbounds.selection import (
    KSelection,
    ParetoFront,
    best_k_single,
    best_region_partition,
    crossover_table,
    crossover_threshold,
    optimize_exact,
    optimize_relaxed,
    pareto_front,
    regimes,
)
from kbounds.tails import log_bound, one_sided_tail, order_k_scenario

S11 = BoundedSupport(-1, 1)
S15 = BoundedSupport(-1, 5)
S51 = BoundedSupport(-5, 1)
S55M = BoundedSupport(-5, 5, m2=5.0)
EXAMPLE5 = (S11, S55M, S15, S51)

supports = st.builds(
    BoundedSupport, a=st.floats(-10.0, -0.1), b=st.floats(0.1, 10.0)
)


def lattice_totals(variables, k_max):
    """(ks, L, R) of every vector of {1..k_max}^n in lexicographic order.

    The sums run in variable order, as the objective in the tail engine does.
    """
    mults = [[multiplier_log(v, k) for k in range(1, k_max + 1)] for v in variables]
    rates = [[phi(v) * phi(v) / (2.0 * k) for k in range(1, k_max + 1)] for v in variables]
    for ks in itertools.product(range(k_max), repeat=len(variables)):
        log_mult = 0.0
        rate = 0.0
        for i, k in enumerate(ks):
            log_mult += mults[i][k]
            rate += rates[i][k]
        yield tuple(k + 1 for k in ks), log_mult, rate


def lattice_minimum(rows, t):
    """Minimum of L - t^2/(4R) over lattice rows; ties to the first row."""
    best_ks, best_obj = None, math.inf
    tt = t * t
    for ks, log_mult, rate in rows:
        obj = log_mult - tt / (4.0 * rate)
        if obj < best_obj:
            best_ks, best_obj = ks, obj
    return KSelection(best_ks, best_obj)


def brute_force_exact(variables, t, k_max):
    """Reference selector: the whole lattice, ties to the smaller vector."""
    return lattice_minimum(lattice_totals(variables, k_max), t)


def floor_ceil_rows(variables, fractional, k_max):
    """(ks, L, R) of every clamped floor/ceil neighbor of a profile.

    Neighbors come in product order, the lexicographic one, and their sums
    run in variable order, as the reference rounding always did.
    """
    options = []
    for f in fractional:
        lo = min(max(1, math.floor(f)), k_max)
        hi = min(max(1, math.ceil(f)), k_max)
        options.append((lo,) if lo == hi else (lo, hi))
    for ks in itertools.product(*options):
        log_mult = 0.0
        rate = 0.0
        for support, k in zip(variables, ks):
            log_mult += multiplier_log(support, k)
            rate += phi(support) * phi(support) / (2.0 * k)
        yield ks, log_mult, rate


def staircase_front(variables, orders):
    """Reference front of the product of ``orders[i]``, each list ascending.

    Built one variable at a time (Nemhauser-Ullmann), dropping a prefix only
    when a lexicographically smaller kept prefix is as good in both L and R,
    so its ``best`` is the exhaustive lattice minimum, ties included.  Its
    size grows with the lattice; the library's hull does not.
    """
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


def grid_regimes(L, R, ts):
    """Reference regimes: the first minimum at each point of the ascending grid.

    The grid decides which runs are found; the edge between neighboring
    winners i and j is their tie, t = sqrt(4 (L_i - L_j) / (1/R_i - 1/R_j)).
    """
    winners = [int(np.argmin(log_bound(L, R, t))) for t in ts.tolist()]
    runs = []
    start = float(ts[0])
    for i, j in zip(winners, winners[1:]):
        if i == j:
            continue
        edge = math.sqrt(4.0 * (L[i] - L[j]) / (1.0 / R[i] - 1.0 / R[j]))
        runs.append((start, edge, i))
        start = edge
    runs.append((start, float(ts[-1]), winners[-1]))
    return runs


# Small pools of supports: drawing every variable from one makes identical
# variables, whose permuted order vectors tie, exactly or up to rounding.
POOLS = (
    (S11, S15),
    (S15, S51, S55M),
    (BoundedSupport(-2, 3), BoundedSupport(-2, 3, m2=1.5), S11),
    (BoundedSupport(-1, 1, m2=0.3, m4=0.2, odd_moments_zero=True), S51),
)
# Largest k_max with k_max^n <= 4096 per variable count, capped at 16.
K_MAX_BY_N = {1: 16, 2: 16, 3: 16, 4: 8, 5: 5}


def thresholds(pool, k_max):
    """Single-variable crossover points of the pool, and a few other t."""
    ts = [0.05, 0.7, 3.0, 9.0, 40.0]
    for support in pool:
        for k in range(1, k_max):
            try:
                ts.append(crossover_threshold(support, k))
            except RuntimeError:
                pass
    return ts


class TestCrossoverThreshold:
    def test_symmetric_unit_interval(self):
        assert crossover_threshold(S11, 1) == pytest.approx(
            math.sqrt(2 * math.log(2)), rel=1e-12
        )
        assert crossover_threshold(S11, 2) == pytest.approx(
            math.sqrt(2 * math.log(2.5)), rel=1e-12
        )

    def test_wide_right_interval(self):
        assert crossover_threshold(S15, 1) == pytest.approx(
            3 * math.sqrt(2 * math.log(6)), rel=1e-12
        )
        # formula value with the generic multiplier 6^3 - 15 = 201; the
        # printed chain for this interval implies 191 instead
        assert crossover_threshold(S15, 2) == pytest.approx(
            3 * math.sqrt(2 * math.log(201 / 6)), rel=1e-12
        )

    def test_wide_left_interval(self):
        # formula value sqrt(10 ln(6/5)) ~ 1.350; the printed table halves it
        # (~0.6751), recorded as a suspected typo
        assert crossover_threshold(S51, 1) == pytest.approx(
            math.sqrt(10 * math.log(6 / 5)), rel=1e-12
        )
        assert crossover_threshold(S51, 2) == pytest.approx(
            math.sqrt(10 * math.log(25 / 6)), rel=1e-12
        )

    def test_moment_refined_interval(self):
        assert crossover_threshold(S55M, 1) == pytest.approx(
            5 * math.sqrt(2 * math.log(6 / 5)), rel=1e-12
        )
        assert crossover_threshold(S55M, 2) == pytest.approx(
            5 * math.sqrt(2 * math.log(25 / 6)), rel=1e-12
        )

    def test_rises_over_the_tabulated_range(self):
        # both examples list k = 1, 2: thresholds increase over that range
        for support in (S11, S15, S51, S55M):
            assert crossover_threshold(support, 1) < crossover_threshold(support, 2)

    def test_table(self):
        table = crossover_table(S11, 3)
        assert [(k, k2) for k, k2, _ in table.thresholds] == [(1, 2), (2, 3), (3, 4)]
        assert all(t > 0 for _, _, t in table.thresholds)

    def test_inconsistent_ladder_raises(self):
        # the k=4 moment form can undercut A_3, leaving no finite crossover
        tricky = BoundedSupport(-1, 1, m2=0.01, m4=0.0001, odd_moments_zero=True)
        with pytest.raises(RuntimeError):
            crossover_threshold(tricky, 3)

    @given(supports, st.integers(1, 6))
    @settings(max_examples=200)
    def test_threshold_separates_k_from_k_plus_1(self, support, k):
        t_star = crossover_threshold(support, k)
        if t_star <= 2e-6:
            return
        for t, expect_bigger_k in ((t_star + 1e-6, True), (t_star - 1e-6, False)):
            small = one_sided_tail(order_k_scenario((support,), (k,)), t).log_bound
            big = one_sided_tail(order_k_scenario((support,), (k + 1,)), t).log_bound
            assert (big < small) == expect_bigger_k


class TestBestKSingle:
    def test_small_t_prefers_k1(self):
        assert best_k_single(S11, 0.5, 8) == 1

    def test_moment_refined_case(self):
        assert best_k_single(S55M, 4.0, 8) == 2

    def test_matches_crossover_structure(self):
        assert best_k_single(S11, 1.2, 3) == 2  # between 1.177 and 1.354
        assert best_k_single(S11, 1.5, 3) == 3

    def test_dual_reading_of_the_wide_left_interval(self):
        # Under the crossover formula the k=1 regime extends to ~1.350, so at
        # t = 0.8 the selector stays at k = 1.  Under the printed half-factor
        # threshold (~0.6751) the same t would select k = 2.  The printed
        # value is not asserted as ground truth; this records both readings.
        assert crossover_threshold(S51, 1) == pytest.approx(1.3503, abs=1e-3)
        assert best_k_single(S51, 0.8, 8) == 1
        half_threshold = 0.5 * math.sqrt(10 * math.log(6 / 5))
        assert half_threshold == pytest.approx(0.6751, abs=1e-3)
        assert half_threshold < 0.8 < crossover_threshold(S51, 1)

    def test_upper_side_of_wide_right_interval_keeps_k1(self):
        assert best_k_single(S15, 0.8, 8) == 1

    def test_tie_breaks_to_smaller_k(self):
        # at exactly the crossover the two orders tie; pick the smaller
        t_star = crossover_threshold(S11, 1)
        assert best_k_single(S11, t_star, 4) == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            best_k_single(S11, 0.0, 4)
        with pytest.raises(ValueError):
            best_k_single(S11, 1.0, 0)


class TestOptimizeExact:
    def test_example5_groups(self):
        # confirmed against an independent brute-force enumeration of
        # {1,2,3}^4: group one below the first regime boundary, k2=2 above
        assert optimize_exact(EXAMPLE5, 4.0, 3).ks == (1, 1, 1, 1)
        assert optimize_exact(EXAMPLE5, 8.0, 3).ks == (1, 2, 1, 1)

    def test_log_bound_matches_tail_engine(self):
        selection = optimize_exact(EXAMPLE5, 8.0, 3)
        recomputed = one_sided_tail(
            order_k_scenario(EXAMPLE5, selection.ks), 8.0
        ).log_bound
        assert selection.log_bound == recomputed

    def test_n1_reduces_to_best_k_single(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            support = BoundedSupport(
                -float(rng.uniform(0.2, 6.0)), float(rng.uniform(0.2, 6.0))
            )
            t = float(rng.uniform(0.05, 8.0))
            assert optimize_exact((support,), t, 5).ks == (
                best_k_single(support, t, 5),
            )

    def test_never_worse_than_per_variable_heuristic(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            variables = tuple(
                BoundedSupport(
                    -float(rng.uniform(0.2, 4.0)), float(rng.uniform(0.2, 4.0))
                )
                for _ in range(n)
            )
            t = float(rng.uniform(0.1, 6.0))
            exact = optimize_exact(variables, t, 4)
            greedy = tuple(best_k_single(v, t, 4) for v in variables)
            greedy_obj = one_sided_tail(
                order_k_scenario(variables, greedy), t
            ).log_bound
            assert exact.log_bound <= greedy_obj + 1e-12

    def test_scale_coherence(self):
        # scaling all intervals and t together never changes the selection
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            variables = tuple(
                BoundedSupport(
                    -float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0))
                )
                for _ in range(n)
            )
            t = float(rng.uniform(0.1, 4.0))
            c = float(rng.uniform(0.3, 7.0))
            scaled = tuple(BoundedSupport(c * v.a, c * v.b) for v in variables)
            assert (
                optimize_exact(variables, t, 4).ks
                == optimize_exact(scaled, c * t, 4).ks
            )


class TestParetoFront:
    @pytest.mark.parametrize("n", sorted(K_MAX_BY_N))
    def test_matches_brute_force(self, n):
        k_max = K_MAX_BY_N[n]
        rng = np.random.default_rng(n)
        for pool in POOLS:
            ts = thresholds(pool, k_max)
            for _ in range(2):
                variables = tuple(pool[i] for i in rng.integers(len(pool), size=n))
                rows = list(lattice_totals(variables, k_max))
                front = pareto_front(variables, k_max)
                for t in ts + [t * math.sqrt(n) for t in ts]:
                    assert front.best(t) == lattice_minimum(rows, t), (variables, t)
                assert optimize_exact(variables, ts[-1], k_max) == lattice_minimum(
                    rows, ts[-1]
                )

    def test_keeps_what_no_smaller_vector_dominates(self):
        # the reference's pruning rule, stated on whole vectors: a vector
        # stays exactly when no lexicographically smaller one is as good in
        # both L and R
        for pool in POOLS:
            variables = (pool[0], pool[-1], pool[0])
            rows = list(lattice_totals(variables, 5))
            want = [
                (ks, big_l, big_r)
                for i, (ks, big_l, big_r) in enumerate(rows)
                if not any(l2 <= big_l and r2 <= big_r for _, l2, r2 in rows[:i])
            ]
            front = staircase_front(variables, [range(1, 6)] * 3)
            assert list(zip(front.ks, front.L.tolist(), front.R.tolist())) == want

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_staircase_reference(self, n):
        # The hull keeps at most n (k_max - 1) + 1 of the reference's points.
        # Both must give the same best at every t, including the floats
        # around each tie between neighboring winners of the reference.
        rng = np.random.default_rng(300 + n)
        ties = 0
        for pool in POOLS:
            variables = tuple(pool[i] for i in rng.integers(len(pool), size=n))
            want = staircase_front(variables, [range(1, 9)] * n)
            front = pareto_front(variables, 8)
            assert len(front.ks) <= n * 7 + 1
            grid = np.linspace(0.01, 2.0 * sum(v.b for v in variables), 300)
            edges = [hi for _, hi, _ in regimes(want.L, want.R, grid[0], grid[-1])[:-1]]
            ts = grid.tolist() + [
                e + i * math.ulp(e) for e in edges for i in range(-40, 41)
            ]
            for t in ts:
                assert front.best(t) == want.best(t), (variables, t)
                objs = log_bound(want.L, want.R, t)
                ties += int(np.count_nonzero(objs == objs.min())) > 1
        if n > 1:
            assert ties > 0

    def test_hundred_variables(self):
        rng = np.random.default_rng(100)
        pool = POOLS[2] + POOLS[3] + tuple(
            BoundedSupport(-float(rng.uniform(0.2, 4.0)), float(rng.uniform(0.2, 4.0)))
            for _ in range(6)
        )
        variables = tuple(pool[i] for i in rng.integers(len(pool), size=100))
        front = pareto_front(variables, 8)
        assert len(front.ks) <= 100 * 7 + 1
        for t in np.linspace(0.02, 1.5, 40) * sum(v.b for v in variables):
            relaxed = optimize_relaxed(variables, t, 8).rounded
            assert front.best(t).log_bound <= relaxed.log_bound

    @given(
        st.lists(supports, min_size=1, max_size=3),
        st.floats(0.01, 1.5),
        st.floats(1e-6, 1e6),
    )
    # the reference once squared phi with ``**``, one ulp off the product here
    @example([BoundedSupport(-5.0249543020383935, 7.502413272942808)], 0.01171875,
             448310.4566307943)
    @settings(max_examples=100, deadline=None)
    def test_scale_coherence_across_scales(self, variables, t_frac, scale):
        t = t_frac * sum(v.b for v in variables)
        scaled = tuple(BoundedSupport(scale * v.a, scale * v.b) for v in variables)
        got = optimize_exact(scaled, scale * t, 4)
        assert got == brute_force_exact(scaled, scale * t, 4)
        # L is scale-free and R scales like t^2, so the optimum does not move
        unit = optimize_exact(variables, t, 4)
        assert got.log_bound == pytest.approx(unit.log_bound, rel=1e-9, abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            pareto_front((S11,), 0)
        with pytest.raises(ValueError):
            pareto_front((), 4)
        with pytest.raises(ValueError):
            pareto_front((S11,), 4).best(0.0)


class TestOptimizeRelaxed:
    def test_n1_closed_form(self):
        t = 0.9
        solution = optimize_relaxed((S11,), t)
        expected = t / (math.sqrt(2 * math.log(2)) * phi(S11))
        assert solution.fractional[0] == pytest.approx(expected, rel=1e-12)

    def test_identical_variables_get_equal_ks(self):
        solution = optimize_relaxed((S15, S15, S15), 4.0)
        assert len(set(solution.fractional)) == 1
        assert len(set(solution.rounded.ks)) == 1

    def test_symmetric_proportionality(self):
        # for symmetric intervals the profile is proportional to |a_j|
        widths = (0.5, 1.0, 2.0, 3.5)
        variables = tuple(BoundedSupport(-w, w) for w in widths)
        solution = optimize_relaxed(variables, 5.0)
        ratios = [f / w for f, w in zip(solution.fractional, widths)]
        for r in ratios[1:]:
            assert r == pytest.approx(ratios[0], rel=1e-8)

    def test_rounded_is_best_lattice_neighbor(self):
        variables = (S11, S15)
        solution = optimize_relaxed(variables, 5.0)
        floors = [max(1, math.floor(f)) for f in solution.fractional]
        ceils = [max(1, math.ceil(f)) for f in solution.fractional]
        candidates = {
            (floors[0], floors[1]),
            (floors[0], ceils[1]),
            (ceils[0], floors[1]),
            (ceils[0], ceils[1]),
        }
        best = min(
            one_sided_tail(order_k_scenario(variables, ks), 5.0).log_bound
            for ks in candidates
        )
        assert solution.rounded.log_bound == pytest.approx(best, rel=1e-12)

    def test_never_beats_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            variables = tuple(
                BoundedSupport(
                    -float(rng.uniform(0.2, 4.0)), float(rng.uniform(0.2, 4.0))
                )
                for _ in range(n)
            )
            t = float(rng.uniform(0.1, 8.0))
            exact = optimize_exact(variables, t, 6)
            relaxed = optimize_relaxed(variables, t)
            capped = tuple(min(k, 6) for k in relaxed.rounded.ks)
            capped_obj = one_sided_tail(
                order_k_scenario(variables, capped), t
            ).log_bound
            assert exact.log_bound <= capped_obj + 1e-12

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            optimize_relaxed((S11,), -0.5)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_floor_ceil_product(self, n):
        # The two best neighbors at a random t tie exactly at some float near
        # their closed-form crossing, so the floats around it are scanned too:
        # at a tie the rounding must pick the product loop's (first) vector.
        rng = np.random.default_rng(100 + n)
        ties = 0
        for trial in range(300):
            pool = POOLS[trial % len(POOLS)]
            variables = tuple(pool[i] for i in rng.integers(len(pool), size=n))
            k_max = int(rng.choice([2, 4, 8]))
            t0 = float(rng.uniform(0.3, 20.0))
            profile = optimize_relaxed(variables, t0, k_max).fractional
            rows = sorted(
                floor_ceil_rows(variables, profile, k_max),
                key=lambda row: row[1] - t0 * t0 / (4.0 * row[2]),
            )
            ts = [t0]
            if len(rows) > 1 and rows[0][2] != rows[1][2]:
                (_, l1, r1), (_, l2, r2) = rows[:2]
                tt = 4.0 * (l1 - l2) / (1.0 / r1 - 1.0 / r2)
                if tt > 0.0:
                    edge = math.sqrt(tt)
                    ts += [edge + i * math.ulp(edge) for i in range(-40, 41)]
            for t in ts:
                solution = optimize_relaxed(variables, t, k_max)
                rows = list(floor_ceil_rows(variables, solution.fractional, k_max))
                want = lattice_minimum(rows, t)
                assert solution.rounded == want, (variables, t, k_max)
                objs = [big_l - t * t / (4.0 * big_r) for _, big_l, big_r in rows]
                ties += objs.count(want.log_bound) > 1
        if n > 1:  # no one-variable draw puts its tie between floor and ceiling
            assert ties > 0

    def test_rounding_respects_k_max(self):
        # at t = 80 the fractional profile of example 5 reaches k = 9
        solution = optimize_relaxed(EXAMPLE5, 80.0, k_max=2)
        assert max(solution.fractional) > 2
        assert max(solution.rounded.ks) <= 2

    @staticmethod
    def assert_scales_exactly(variables, t, j):
        # phi is squared by a product, not libm's pow, so scaling [a, b] and t
        # by c = 2^j scales every step of both objectives exactly
        c = 2.0 ** j
        scaled = tuple(BoundedSupport(c * v.a, c * v.b) for v in variables)
        for v, w in zip(variables, scaled):
            assert best_k_single(w, c * t) == best_k_single(v, t)
        want = optimize_relaxed(variables, t).fractional  # scale-free
        assert optimize_relaxed(scaled, c * t).fractional == want

    @given(st.lists(supports, min_size=1, max_size=4), st.floats(0.05, 30.0),
           st.integers(-20, 20))
    @settings(max_examples=200, deadline=None)
    def test_scales_exactly(self, variables, t, j):
        self.assert_scales_exactly(tuple(variables), t, j)

    def test_scales_exactly_where_pow_did_not(self):
        # with phi(..) ** 2 this two-variable profile moved under c = 2^18,
        # and best_k_single went from k = 1 to 2 at a tie under c = 2^-4
        support = BoundedSupport(-3.5445024577042576, 1.1129394069964875)
        self.assert_scales_exactly((support, support), 2.0, 18)
        tie = BoundedSupport(-3.666643414926747, 9.675063619159673)
        self.assert_scales_exactly((tie,), 10.721696409819481, -4)


class TestRegimes:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_winners_match_front_best(self, n):
        # Pooled supports give vectors whose (L, R) differ by rounding only,
        # and the floats around each closed-form edge hold exact ties there:
        # every grid winner must be front.best's, ties to the smaller index.
        rng = np.random.default_rng(200 + n)
        ties = 0
        for pool in POOLS:
            variables = tuple(pool[i] for i in rng.integers(len(pool), size=n))
            front = pareto_front(variables, 5)
            grid = np.linspace(0.05, 2.0 * sum(v.b for v in variables), 200)
            edges = [hi for _, hi, _ in regimes(front.L, front.R, grid[0], grid[-1])[:-1]]
            ts = np.array(sorted(
                set(grid.tolist())
                | {e + i * math.ulp(e) for e in edges for i in range(-40, 41)}
            ))
            want = [front.ks.index(front.best(float(t)).ks) for t in ts]
            runs = grid_regimes(front.L, front.R, ts)
            assert [i for _, _, i in runs] == [
                w for j, w in enumerate(want) if j == 0 or w != want[j - 1]
            ]
            assert runs[0][0] == ts[0] and runs[-1][1] == ts[-1]
            last = [j for j in range(len(ts) - 1) if want[j] != want[j + 1]]
            for (_, edge, _), j in zip(runs, last):
                slack = 1e-12 * edge
                assert ts[j] - slack <= edge <= ts[j + 1] + slack
            for t in ts:
                objs = log_bound(front.L, front.R, t)
                ties += int(np.count_nonzero(objs == objs.min())) > 1
        if n > 1:
            assert ties > 0

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_grid_reference(self, n):
        # Pooled draws hold ties and near-ties, the others generic supports.
        # Inside every run its winner is front.best's (an equal log bound on
        # exact ties), no run is empty, and every winner a 1000-point grid
        # finds is found, in order.
        rng = np.random.default_rng(400 + n)
        draws = [
            tuple(pool[i] for i in rng.integers(len(pool), size=n)) for pool in POOLS
        ] + [
            tuple(
                BoundedSupport(-float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.1, 5.0)))
                for _ in range(n)
            )
            for _ in range(8)
        ]
        for variables in draws:
            front = pareto_front(variables, 8)
            lo, hi = 0.05, 2.0 * sum(v.b for v in variables)
            runs = regimes(front.L, front.R, lo, hi)
            assert runs[0][0] == lo and runs[-1][1] == hi
            for (_, edge, i), (start, _, j) in zip(runs, runs[1:]):
                assert edge == start and front.R[j] < front.R[i]
            for start, end, i in runs:
                assert start < end, (variables, runs)
                for t in np.linspace(start, end, 5)[1:-1].tolist():
                    want = front.best(t).log_bound
                    assert log_bound(front.L[i], front.R[i], t) == want, (variables, t)
            found = iter(i for _, _, i in runs)
            reference = grid_regimes(front.L, front.R, np.linspace(lo, hi, 1000))
            assert all(any(i == j for j in found) for _, _, i in reference)

    def test_ties_at_one_edge_go_to_the_smallest_rate(self):
        # candidates 1, 2 and 3 all meet candidate 0 at t = 2; 3 repeats 2
        big_l = np.array([0.0, 0.25, 0.75, 0.75])
        big_r = np.array([4.0, 2.0, 1.0, 1.0])
        assert regimes(big_l, big_r, 0.5, 3.0) == [(0.5, 2.0, 0), (2.0, 3.0, 2)]
        # a tie exactly at t_lo leaves no empty run, one past t_hi no run
        assert regimes(big_l, big_r, 2.0, 3.0) == [(2.0, 3.0, 2)]
        assert regimes(big_l, big_r, 0.5, 2.0) == [(0.5, 2.0, 0)]

    def test_finds_a_regime_narrower_than_a_grid_step(self):
        variables = (BoundedSupport(-1.4, 3.6), BoundedSupport(-2.8, 3.0))
        front = pareto_front(variables, 8)
        grid = np.linspace(0.1, 13.0, 1000)
        coarse = [i for _, _, i in grid_regimes(front.L, front.R, grid)]
        assert front.ks.index((2, 2)) not in coarse
        regions = best_region_partition(variables, 0.1, 13.0)
        (lo, hi), = [(lo, hi) for lo, hi, ks in regions if ks == (2, 2)]
        assert lo == pytest.approx(7.90155, abs=1e-5)
        assert hi == pytest.approx(7.90425, abs=1e-5)
        assert front.best(7.903).ks == (2, 2)

    # where the moments sit between their bounds; coarse enough that no
    # scaled moment underflows
    fractions = st.integers(0, 2 ** 20).map(lambda i: i / 2 ** 20)

    @given(
        st.lists(
            st.tuples(
                st.floats(0.1, 10.0), st.floats(0.1, 10.0), fractions, fractions,
                st.booleans(),
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(-20, 20),
    )
    @settings(max_examples=100, deadline=None)
    def test_edges_scale_exactly(self, shapes, j):
        # L is scale-free and R scales by c^2.  For c a power of two both are
        # exact (bounds square by products, not libm's pow), and so is the
        # walk: every edge is exactly c times the unscaled one.
        c = 2.0 ** j
        variables, scaled = [], []
        for left, right, f2, f4, odd in shapes:
            cap2 = left * right
            m2 = f2 * cap2
            m4 = m2 * m2 + f4 * (cap2 * (left * left - left * right + right * right) - m2 * m2)
            for scale, out in ((1.0, variables), (c, scaled)):
                out.append(BoundedSupport(
                    -scale * left, scale * right, m2=scale ** 2 * m2,
                    m4=scale ** 4 * m4, odd_moments_zero=odd,
                ))
        front = pareto_front(variables, 8)
        big = pareto_front(scaled, 8)
        assert big.ks == front.ks
        assert np.array_equal(big.L, front.L)
        assert np.array_equal(big.R, c * c * front.R)
        lo, hi = 0.05, 2.0 * sum(v.b for v in variables)
        want = regimes(front.L, front.R, lo, hi)
        got = regimes(big.L, big.R, c * lo, c * hi)
        assert got == [(c * start, c * end, i) for start, end, i in want]

    def test_edges_are_closed_form(self):
        # the example 5 sweep groups 1|1|1|1, 1|2|1|1 and 1|2|1|2
        big_l = np.array([0.0, math.log(6 / 5), 2 * math.log(6 / 5)])
        big_r = np.array([20.0, 13.75, 12.5])
        runs = regimes(big_l, big_r, 0.1, 12.0)
        assert [i for _, _, i in runs] == [0, 1, 2]
        first = math.sqrt(math.log(6 / 5) / (1 / 55 - 1 / 80))
        second = math.sqrt(math.log(6 / 5) / (1 / 50 - 1 / 55))
        assert runs[0][1] == pytest.approx(first, rel=0, abs=1e-12)
        assert runs[1][1] == pytest.approx(second, rel=0, abs=1e-12)


class TestBestRegionPartition:
    def test_single_symmetric_variable(self):
        regions = best_region_partition((S11,), 0.1, 3.0, k_max=3)
        assert [ks for _, _, ks in regions] == [(1,), (2,), (3,)]
        assert regions[0][1] == pytest.approx(1.1774, abs=1e-3)
        assert regions[1][1] == pytest.approx(1.3537, abs=1e-3)

    def test_example5_three_regimes(self):
        regions = best_region_partition(EXAMPLE5, 0.1, 12.0, k_max=2)
        assert [ks for _, _, ks in regions] == [
            (1, 1, 1, 1),
            (1, 2, 1, 1),
            (1, 2, 1, 2),
        ]
        assert regions[0][1] == pytest.approx(5.6647, abs=1e-3)
        assert regions[1][1] == pytest.approx(10.0138, abs=1e-3)

    def test_edges_are_closed_form(self):
        # neighboring regimes tie where t^2 = 4 (L1 - L2) / (1/R1 - 1/R2)
        regions = best_region_partition(EXAMPLE5, 0.1, 12.0, k_max=2)
        first = math.sqrt(math.log(6 / 5) / (1 / 55 - 1 / 80))
        second = math.sqrt(math.log(6 / 5) / (1 / 50 - 1 / 55))
        assert regions[0][1] == pytest.approx(first, rel=0, abs=1e-12)
        assert regions[1][1] == pytest.approx(second, rel=0, abs=1e-12)
        regions = best_region_partition((S11,), 0.1, 3.0, k_max=3)
        for (_, edge, _), k in zip(regions, (1, 2)):
            assert edge == pytest.approx(crossover_threshold(S11, k), rel=0, abs=1e-12)

    def test_intervals_tile_the_range(self):
        regions = best_region_partition((S11,), 0.5, 2.5, k_max=3)
        assert regions[0][0] == 0.5
        assert regions[-1][1] == 2.5
        for left, right in zip(regions, regions[1:]):
            assert left[1] == right[0]

    def test_rejects_degenerate_range(self):
        with pytest.raises(ValueError):
            best_region_partition((S11,), 1.0, 1.0)


def test_kselection_is_a_value_object():
    selection = KSelection((1, 2), -0.5)
    assert selection.ks == (1, 2)
    assert selection.log_bound == -0.5
