import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kbounds.bounds import (
    CLASSIC,
    HERTZ,
    ORDER2_MOMENT,
    BoundedSupport,
    eval_log_mgf_bound,
    mgf_bound,
    moment_caps,
    order_k,
)
from kbounds import oracle
from kbounds.oracle import (
    MAX_SUMS,
    MC_CHUNK,
    MIN_SAMPLES,
    S_GRID,
    S_POINTS,
    FinitePmf,
    check_pmf_stack,
    exact_log_mgf,
    exact_log_mgf_rows,
    exact_sum_tail,
    extremal_two_point,
    mc_sum_tail,
    moment_matched_pmf,
    moment_rows,
    moments,
    random_mean_zero_pmf,
    random_mean_zero_stack,
    validity_gap,
    validity_gaps,
)

S11 = BoundedSupport(-1, 1)
S51 = BoundedSupport(-5, 1)


def stack_of(pmfs):
    """Equal-length pmfs as one (xs[N, n], ps[N, n]) stack."""
    return np.array([p.xs for p in pmfs]), np.array([p.ps for p in pmfs])


def reference_random_pmf(support, atom_count, seed):
    """The one-pmf generator the stack kernel replaced, kept as its reference.

    Returns (xs, ps, forced, attempts): ``forced`` says whether the coin
    forced the endpoints in, ``attempts`` how many atom draws it took.
    """
    a, b = support.a, support.b
    rng = np.random.default_rng(seed)
    for attempts in range(1, 1001):
        forced = rng.random() < 0.5
        if forced:
            xs = np.concatenate([[a, b], rng.uniform(a, b, atom_count - 2)])
        else:
            xs = rng.uniform(a, b, atom_count)
        pos = xs > 0.0
        neg = xs < 0.0
        if not (pos.any() and neg.any()):
            continue
        w = rng.uniform(0.05, 1.0, atom_count)
        p_sum = float(w[pos] @ xs[pos])
        n_sum = -float(w[neg] @ xs[neg])
        zero = ~pos & ~neg
        zero_share = float(w[zero].sum()) / float(w.sum())
        kappa = (1.0 - zero_share) / (n_sum * float(w[pos].sum()) + p_sum * float(w[neg].sum()))
        ps = np.empty_like(w)
        ps[pos] = w[pos] * (n_sum * kappa)
        ps[neg] = w[neg] * (p_sum * kappa)
        ps[zero] = w[zero] / float(w.sum())
        ps /= ps.sum()
        i_hi = int(np.argmax(xs))
        i_lo = int(np.argmin(xs))
        delta = -float(ps @ xs) / (xs[i_hi] - xs[i_lo])
        ps[i_hi] += delta
        ps[i_lo] -= delta
        return xs, ps, forced, attempts
    raise RuntimeError("could not draw atoms with both signs")


def per_pmf_log_mgf(pmf, s_arr):
    """The one-pmf logsumexp the stacked kernel replaced: the reference."""
    xs = np.asarray(pmf.xs)
    ps = np.asarray(pmf.ps)
    keep = ps > 0.0
    xs, ps = xs[keep], ps[keep]
    terms = np.log(ps)[None, :] + s_arr[:, None] * xs[None, :]
    peak = terms.max(axis=1, keepdims=True)
    return peak[:, 0] + np.log(np.exp(terms - peak).sum(axis=1))


def exact_sum(terms) -> float:
    """The exact sum of float terms, rounded once: what a law's sums must be."""
    return float(sum(map(Fraction, terms), Fraction(0)))


def reference_log_mgf(pmf, s_values) -> list[float]:
    """exact_log_mgf's logsumexp with its sum taken as ``exact_sum``."""
    out = []
    for s in s_values:
        terms = [(math.log(p) if p > 0.0 else -math.inf) + s * x for x, p in zip(pmf.xs, pmf.ps)]
        peak = max(terms)
        out.append(peak + math.log(exact_sum(math.exp(term - peak) for term in terms)))
    return out


def reference_moment(pmf, order: int) -> float:
    """moments' products p * x^order (x * x for a square), summed by ``exact_sum``."""
    return exact_sum(p * (x * x if order == 2 else x ** order) for p, x in zip(pmf.ps, pmf.xs))


def law_agrees_with_row(values, row) -> bool:
    """A law's log-MGF values agree with its stack's row to within rounding."""
    return values == pytest.approx(row, rel=1e-14, abs=1e-15)


def without_numbers(message: str) -> str:
    """A refusal's text apart from the numbers it prints."""
    return re.sub(r"-?\d+(\.\d*)?(e[-+]?\d+)?", "#", message)


def list_validity_gap(pmf, bound, s_values=S_GRID) -> float:
    """The per-s list over ``eval_log_mgf_bound`` the batched gap replaced."""
    s_arr = np.asarray(s_values, dtype=float)
    exact = per_pmf_log_mgf(pmf, s_arr)
    certified = np.array([eval_log_mgf_bound(bound, float(s)) for s in s_arr])
    return float(np.max(exact - certified))


def one_shot_sum_tail(pmfs, ts, samples, seed):
    """The one-shot Monte Carlo kernel the chunked one replaced: the reference.

    It holds every sample at once and picks atoms by a clipped searchsorted.
    """
    children = np.random.SeedSequence(seed).spawn(len(pmfs))
    total = np.zeros(samples)
    for pmf, child in zip(pmfs, children):
        rng = np.random.default_rng(child)
        cdf = np.cumsum(np.asarray(pmf.ps))
        idx = np.searchsorted(cdf, rng.random(samples), side="right")
        np.clip(idx, 0, len(pmf.xs) - 1, out=idx)
        total += np.asarray(pmf.xs)[idx]
    tails = []
    for t in ts:
        estimate = float(np.count_nonzero(total >= t)) / samples
        tails.append((estimate, math.sqrt(estimate * (1.0 - estimate) / samples)))
    return tails


def mixed_pmfs(scale: float, per_count: int = 4):
    """Random pmfs of 2..8 atoms on three supports at one scale, counts interleaved."""
    supports = [BoundedSupport(a * scale, b * scale) for a, b in ((-1, 1), (-1, 5), (-3, 2))]
    pmfs = [extremal_two_point(s) for s in supports]
    for seed in range(per_count):
        for atoms in range(2, 9):
            for j, support in enumerate(supports):
                pmfs.append(random_mean_zero_pmf(support, atoms, seed=100 * seed + 10 * atoms + j))
    return pmfs


class TestFinitePmf:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            FinitePmf((-1.0, 1.0), (0.4, 0.4), S11)

    def test_rejects_nonzero_mean(self):
        with pytest.raises(ValueError):
            FinitePmf((-1.0, 1.0), (0.3, 0.7), S11)

    def test_rejects_atoms_outside_support(self):
        with pytest.raises(ValueError):
            FinitePmf((-2.0, 2.0), (0.5, 0.5), S11)

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            FinitePmf((-1.0, 0.0, 1.0), (0.6, -0.2, 0.6), S11)

    @pytest.mark.parametrize(
        "xs, ps",
        [
            ((math.nan, 1.0), (0.5, 0.5)),
            ((-1.0, 1.0), (math.nan, 0.5)),
            ((-1.0, 1.0), (0.5, math.nan)),
        ],
    )
    def test_rejects_nan(self, xs, ps):
        # every other check compares with < or >, which a NaN passes
        with pytest.raises(ValueError, match="finite"):
            FinitePmf(xs, ps, S11)
        with pytest.raises(ValueError, match="finite"):
            check_pmf_stack(np.array([xs, (-1.0, 1.0)]), np.array([ps, (0.5, 0.5)]), S11)

    def test_mean_tolerance_scales_with_the_interval(self):
        wide = BoundedSupport(-1e6, 3e6)
        extremal_two_point(wide)
        for seed in range(50):
            random_mean_zero_pmf(wide, 2 + seed % 7, seed=seed)
        with pytest.raises(ValueError):
            FinitePmf((-1e6, 3e6), (0.7, 0.3), wide)


class TestExactLogMgf:
    def test_point_mass_at_zero(self):
        pmf = FinitePmf((0.0,), (1.0,), S11)
        for s in (0.3, 1.0, 7.0):
            assert exact_log_mgf(pmf, s) == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_two_point_is_log_cosh(self):
        pmf = FinitePmf((-1.0, 1.0), (0.5, 0.5), S11)
        assert exact_log_mgf(pmf, 1.0) == pytest.approx(math.log(math.cosh(1.0)), rel=1e-12)

    def test_vectorized_matches_scalar(self):
        pmf = extremal_two_point(S51)
        grid = np.array([0.1, 1.0, 10.0])
        vec = exact_log_mgf(pmf, grid)
        assert vec == pytest.approx([exact_log_mgf(pmf, float(s)) for s in grid])

    def test_no_overflow_at_large_s(self):
        pmf = extremal_two_point(BoundedSupport(-1, 5))
        assert math.isfinite(exact_log_mgf(pmf, 500.0))

    def test_kernel_rows_match_the_one_pmf_reference(self):
        # one row per pmf in a stack of equal atom count, bit for bit; the
        # law's own log-MGF is its exactly summed reference, and the row's to
        # within rounding
        for scale in (1e-6, 1.0, 1e6):
            pmfs = mixed_pmfs(scale)
            for atoms in range(2, 9):
                stack = [p for p in pmfs if len(p.xs) == atoms]
                rows = exact_log_mgf_rows(*stack_of(stack), S_GRID)
                assert rows.shape == (len(stack), S_GRID.size)
                for pmf, row in zip(stack, rows):
                    assert np.array_equal(row, per_pmf_log_mgf(pmf, S_GRID))
                    law = exact_log_mgf(pmf, S_POINTS)
                    assert law == reference_log_mgf(pmf, S_POINTS)
                    assert law_agrees_with_row(law, row.tolist())

    def test_kernel_drops_zero_probability_atoms(self):
        sparse = FinitePmf((-1.0, 0.5, 0.0, 1.0), (0.25, 0.0, 0.5, 0.25), S11)
        shifted = FinitePmf((-1.0, 0.0, 1.0, 0.5), (0.25, 0.5, 0.25, 0.0), S11)
        dense = FinitePmf((-1.0, 0.0, 1.0), (0.25, 0.5, 0.25), S11)
        rows = exact_log_mgf_rows(*stack_of([sparse, shifted]), S_GRID)
        assert np.array_equal(rows[0], rows[1])
        assert np.array_equal(rows[0], exact_log_mgf_rows(*stack_of([dense]), S_GRID)[0])
        assert np.array_equal(rows[0], per_pmf_log_mgf(sparse, S_GRID))

    def test_padded_rows_are_the_one_row_call_on_their_atoms(self):
        # rows of 2..8 atoms with p > 0, interleaved and padded to 8 columns by
        # zero-mass atoms at seeded places: each zero mass is log 0 = -inf, so
        # each row agrees with exact_log_mgf of its own 8 atoms, which adds the
        # zero masses' exp(-inf) = 0 exactly and is the unpadded law's value
        for scale in (1e-6, 1.0, 1e6):
            pmfs = mixed_pmfs(scale)
            xs = np.zeros((len(pmfs), 8))
            ps = np.zeros_like(xs)
            for i, pmf in enumerate(pmfs):
                cols = np.sort(np.random.default_rng(i).choice(8, len(pmf.xs), replace=False))
                xs[i, cols] = pmf.xs
                ps[i, cols] = pmf.ps
            rows = exact_log_mgf_rows(xs, ps, S_GRID)
            assert rows.shape == (len(pmfs), S_GRID.size)
            for pmf, x, p, row in zip(pmfs, xs.tolist(), ps.tolist(), rows.tolist()):
                padded = exact_log_mgf(FinitePmf(tuple(x), tuple(p), pmf.support), S_POINTS)
                assert padded == exact_log_mgf(pmf, S_POINTS)
                assert law_agrees_with_row(padded, row)

    def test_extremal_stays_under_every_applicable_bound(self):
        pmf = extremal_two_point(S51)
        measured = BoundedSupport(-5, 1, m2=moments(pmf, 2))
        for tag in (CLASSIC, HERTZ, order_k(2), order_k(5), ORDER2_MOMENT):
            assert validity_gap(pmf, mgf_bound(measured, tag)) <= 0.0


class TestMoments:
    def test_symmetric_two_point(self):
        pmf = FinitePmf((-1.0, 1.0), (0.5, 0.5), S11)
        assert moments(pmf, 2) == 1.0
        assert moments(pmf, 3) == 0.0

    def test_extremal_attains_both_caps(self):
        pmf = extremal_two_point(S51)
        cap2, cap4 = moment_caps(S51)
        assert moments(pmf, 2) == pytest.approx(cap2, rel=1e-12)
        assert moments(pmf, 4) == pytest.approx(cap4, rel=1e-12)

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            moments(extremal_two_point(S11), 0)

    def test_rows_are_each_rows_own_dot(self):
        # BLAS rounds a dot unlike a summed product, so each row must be its
        # @; the law's moment is its exactly summed reference, and the row's
        # to within rounding (a mean of zero cancels, so it is held to the
        # scale of its terms)
        for scale in (1e-6, 1.0, 1e6):
            pmfs = mixed_pmfs(scale, per_count=2)
            for atoms in range(2, 9):
                stack = [p for p in pmfs if len(p.xs) == atoms]
                xs, ps = stack_of(stack)
                for order in (1, 2, 4):
                    rows = moment_rows(xs, ps, order)
                    for pmf, row in zip(stack, rows.tolist()):
                        assert row == float(np.asarray(pmf.ps) @ np.asarray(pmf.xs) ** order)
                        assert moments(pmf, order) == reference_moment(pmf, order)
                        assert moments(pmf, order) == pytest.approx(
                            row, rel=1e-14, abs=1e-15 * scale ** order)


class TestRandomPmf:
    def test_deterministic_in_seed(self):
        one = random_mean_zero_pmf(S51, 5, seed=42)
        two = random_mean_zero_pmf(S51, 5, seed=42)
        assert one.xs == two.xs and one.ps == two.ps
        other = random_mean_zero_pmf(S51, 5, seed=43)
        assert one.xs != other.xs

    def test_two_atom_case_is_the_unique_zero_mean_law(self):
        pmf = random_mean_zero_pmf(S11, 2, seed=3)
        x_neg, x_pos = sorted(pmf.xs)
        p_of = dict(zip(pmf.xs, pmf.ps))
        # unique solution of p*x_neg + q*x_pos = 0, p + q = 1
        assert p_of[x_neg] == pytest.approx(x_pos / (x_pos - x_neg), rel=1e-10)

    def test_moment_caps_hold_over_many_draws(self):
        cap2, cap4 = moment_caps(S51)
        for seed in range(300):
            pmf = random_mean_zero_pmf(S51, 2 + seed % 7, seed=seed)
            assert moments(pmf, 2) <= cap2 * (1 + 1e-12)
            assert moments(pmf, 4) <= cap4 * (1 + 1e-12)

    def test_rejects_single_atom(self):
        with pytest.raises(ValueError):
            random_mean_zero_pmf(S11, 1, seed=0)

    @given(st.integers(0, 10 ** 6), st.integers(2, 9))
    @settings(max_examples=60, deadline=None)
    def test_invariants_for_arbitrary_seeds(self, seed, atoms):
        pmf = random_mean_zero_pmf(BoundedSupport(-2, 3), atoms, seed=seed)
        ps = np.asarray(pmf.ps)
        xs = np.asarray(pmf.xs)
        assert abs(ps.sum() - 1.0) < 1e-12
        assert abs(float(ps @ xs)) < 1e-12
        assert np.all(ps >= 0.0)


class RecordingRng:
    """A generator that records, in order, what ``random_mean_zero_stack``
    draws from it: ("coins", array) and ("uniform", array) pairs."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = []

    def random(self, size):
        self.draws.append(("coins", self.rng.random(size)))
        return self.draws[-1][1]

    def uniform(self, low, high, size):
        self.draws.append(("uniform", self.rng.uniform(low, high, size)))
        return self.draws[-1][1]


def replay_rounds(draws, xs, support) -> int:
    """Check a stack's atoms against its recorded draws; return the rounds.

    Each round draws one coin per open row, then the forced rows' other
    atom_count - 2 atoms, then the other rows' atoms; rows with atoms of
    both signs close.  One (rows, atom_count) weight draw ends the stack.
    """
    draws = iter(draws)
    open_rows = np.arange(len(xs))
    rounds = 0
    while open_rows.size:
        rounds += 1
        kind, coins = next(draws)
        assert kind == "coins" and coins.shape == (open_rows.size,)
        forced = coins < 0.5
        pinned, free = open_rows[forced], open_rows[~forced]
        (_, pinned_atoms), (_, free_atoms) = next(draws), next(draws)
        assert (xs[pinned, :2] == (support.a, support.b)).all()
        assert np.array_equal(xs[pinned, 2:], pinned_atoms)
        closed = (free_atoms.min(axis=1) < 0.0) & (free_atoms.max(axis=1) > 0.0)
        assert np.array_equal(xs[free[closed]], free_atoms[closed])
        open_rows = free[~closed]
    kind, weights = next(draws)
    assert kind == "uniform" and weights.shape == xs.shape
    assert next(draws, None) is None
    return rounds


def assert_one_row_is_the_reference(support, atoms, seed):
    """The one-row stack from default_rng(seed) against the one-pmf reference.

    The atoms are the same numbers; the masses, projected in another order,
    agree to 1e-13 relative.  Returns the reference's (forced, attempts).
    """
    xs, ps = random_mean_zero_stack(support, atoms, 1, np.random.default_rng(seed))
    ref_xs, ref_ps, forced, attempts = reference_random_pmf(support, atoms, seed)
    assert np.array_equal(xs[0], ref_xs), seed
    np.testing.assert_allclose(ps[0], ref_ps, rtol=1e-13, atol=0.0)
    return forced, attempts


class TestRandomStack:
    """The one-generator stack kernel: the one-row call against the one-pmf
    reference, and whole stacks against the pmf checks."""

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_rows_match_the_reference(self, scale):
        draws = set()
        for a, b in ((-1, 1), (-1, 5), (-5, 1), (-2, 3)):
            support = BoundedSupport(a * scale, b * scale)
            for atoms in range(2, 9):
                for seed in range(1000 * atoms, 1000 * atoms + 25):
                    draws.add(assert_one_row_is_the_reference(support, atoms, seed))
        assert {forced for forced, _ in draws} == {True, False}  # both coin branches
        assert max(attempts for _, attempts in draws) >= 2  # a retry

    @pytest.mark.parametrize("atoms", [3, 8])
    def test_draws_follow_the_documented_order(self, atoms):
        support = BoundedSupport(-1, 5)
        rng = RecordingRng(atoms)
        xs, _ = random_mean_zero_stack(support, atoms, 300, rng)
        assert replay_rounds(rng.draws, xs, support) >= 2

    @pytest.mark.parametrize("a, b", [(-1, 5), (-5, 1)])
    def test_retry_heavy_supports(self, a, b):
        # two uniform atoms share a sign 72 % of the time on these intervals
        support = BoundedSupport(a, b)
        rng = RecordingRng(0)
        xs, ps = random_mean_zero_stack(support, 2, 200, rng)
        assert replay_rounds(rng.draws, xs, support) >= 3
        assert xs.shape == ps.shape == (200, 2)
        assert (xs.min(axis=1) < 0.0).all() and (xs.max(axis=1) > 0.0).all()
        check_pmf_stack(xs, ps, support)

    def test_eight_or_more_atoms_of_one_sign(self):
        # rows with 8 or more positive atoms, whose sums numpy adds pairwise:
        # the stack still passes every check and matches the reference
        support = BoundedSupport(-1, 30)
        for atoms in (9, 11):
            xs, ps = random_mean_zero_stack(support, atoms, 60, np.random.default_rng(atoms))
            assert ((xs > 0.0).sum(axis=1) >= 8).any()
            check_pmf_stack(xs, ps, support)
            assert (ps > 0.0).all()
            for seed in range(60):
                assert_one_row_is_the_reference(support, atoms, seed)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_residual_transfer_matches_the_row_loop(self, scale):
        # the stacked transfer against a per-row one on the same projected
        # masses, up to 40 atoms, where the residual dot sums pairwise
        support = BoundedSupport(-2.0 * scale, 3.0 * scale)
        for atoms in (2, 3, 7, 8, 9, 16, 40):
            rng = RecordingRng(7000 + atoms)
            xs, ps = random_mean_zero_stack(support, atoms, 40, rng)
            _, w = rng.draws[-1]
            pos = xs > 0.0
            p_sum = np.where(pos, w * xs, 0.0).sum(axis=1, keepdims=True)
            n_sum = -np.where(pos, 0.0, w * xs).sum(axis=1, keepdims=True)
            want = w * np.where(pos, n_sum, p_sum)
            want /= want.sum(axis=1, keepdims=True)
            for row_xs, row_ps in zip(xs, want):
                hi, lo = int(np.argmax(row_xs)), int(np.argmin(row_xs))
                delta = -float(row_ps @ row_xs) / (row_xs[hi] - row_xs[lo])
                row_ps[hi] += delta
                row_ps[lo] -= delta
            assert np.array_equal(ps, want)

    def test_one_row_call_is_the_reference(self):
        for seed in range(40):
            support = BoundedSupport(-3e-6 * (1 + seed % 3), 2e6)
            pmf = random_mean_zero_pmf(support, 2 + seed % 7, seed)
            xs, ps = random_mean_zero_stack(
                support, 2 + seed % 7, 1, np.random.default_rng(seed)
            )
            assert pmf.xs == tuple(xs[0].tolist()) and pmf.ps == tuple(ps[0].tolist())
            assert_one_row_is_the_reference(support, 2 + seed % 7, seed)

    @given(
        st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]),
        st.floats(1 / 30, 30),
        st.integers(2, 40),
        st.integers(1, 50),
        st.integers(0, 2 ** 32),
    )
    @example(1.0, 30.0, 11, 50, 0)  # most rows hold 8+ positive atoms
    @example(1e6, 1 / 30, 40, 50, 1)  # and 8+ negative ones
    @settings(max_examples=60, deadline=None)
    def test_every_stack_is_a_positive_pmf_stack(self, scale, ratio, atoms, rows, seed):
        support = BoundedSupport(-scale, ratio * scale)
        xs, ps = random_mean_zero_stack(support, atoms, rows, np.random.default_rng(seed))
        assert xs.shape == ps.shape == (rows, atoms)
        check_pmf_stack(xs, ps, support)
        assert (ps > 0.0).all()

    def test_rejects_single_atom(self):
        with pytest.raises(ValueError, match="at least 2 atoms"):
            random_mean_zero_stack(S11, 1, 2, np.random.default_rng(0))

    @pytest.mark.parametrize("poison", ["negative", "outside", "sum", "mean"])
    def test_poisoned_row_fails_with_the_finite_pmf_message(self, poison):
        xs, ps = random_mean_zero_stack(S51, 4, 6, np.random.default_rng(0))
        check_pmf_stack(xs, ps, S51)
        row = 3
        if poison == "negative":
            ps[row, 0] = -ps[row, 0]
        elif poison == "outside":
            xs[row, 0] = 1.5 * S51.a
        elif poison == "sum":
            ps[row] *= 0.9
        else:
            shift = 0.5 * ps[row].min()
            ps[row, xs[row].argmax()] += shift
            ps[row, xs[row].argmin()] -= shift
        with pytest.raises(ValueError) as one:
            FinitePmf(tuple(xs[row]), tuple(ps[row]), S51)
        with pytest.raises(ValueError) as stack:
            check_pmf_stack(xs, ps, S51)
        assert without_numbers(str(stack.value)) == without_numbers(str(one.value))


class TestMomentMatchedPmf:
    def test_plain_support_gives_extremal_two_point(self):
        for support in (S11, S51, BoundedSupport(-2, 1)):
            pmf, expected = moment_matched_pmf(support), extremal_two_point(support)
            assert (pmf.xs, pmf.ps) == (expected.xs, expected.ps)

    def test_m2_is_hit_exactly(self):
        support = BoundedSupport(-5, 5, m2=5.0)
        pmf = moment_matched_pmf(support)
        assert moments(pmf, 2) == pytest.approx(5.0, rel=1e-12)

    def test_symmetric_m2_m4(self):
        support = BoundedSupport(-2, 2, m2=1.0, m4=2.5, odd_moments_zero=True)
        pmf = moment_matched_pmf(support)
        assert moments(pmf, 2) == pytest.approx(1.0, rel=1e-12)
        assert moments(pmf, 4) == pytest.approx(2.5, rel=1e-12)
        assert moments(pmf, 3) == pytest.approx(0.0, abs=1e-15)

    def test_unmatchable_moments_rejected(self):
        # no symmetric three-atom law on [-1, 5] has m2 3 and m4 9.5: its
        # atoms would sit at +-sqrt(9.5/3), outside the interval
        with pytest.raises(ValueError):
            moment_matched_pmf(BoundedSupport(-1, 5, m2=3.0, m4=9.5, odd_moments_zero=True))

    def test_zero_m2_and_m4_is_the_point_mass_at_zero(self):
        pmf = moment_matched_pmf(BoundedSupport(-1, 1, m2=0.0, m4=0.0, odd_moments_zero=True))
        assert (pmf.xs, pmf.ps) == ((0.0,), (1.0,))

    def test_zero_m2_under_positive_m4_is_refused(self):
        # m2 = 0 puts all mass at 0, so m4 = 0 too: no law has these moments,
        # and the support itself refuses them before any law is built
        with pytest.raises(ValueError, match="no distribution has these moments"):
            moment_matched_pmf(BoundedSupport(-1, 1, m2=0.0, m4=0.5, odd_moments_zero=True))

    def test_m4_without_odd_moments_zero_matches_m2_alone(self):
        # no bound reads m4 unless the odd moments vanish
        for support, reference in (
            (BoundedSupport(-1, 5, m2=3.0, m4=9.5), BoundedSupport(-1, 5, m2=3.0)),
            (BoundedSupport(-2, 1, m4=1.5), BoundedSupport(-2, 1)),
        ):
            pmf, expected = moment_matched_pmf(support), moment_matched_pmf(reference)
            assert (pmf.xs, pmf.ps) == (expected.xs, expected.ps)


class TestMcSumTail:
    def test_sure_events(self):
        pmf = FinitePmf((-1.0, 1.0), (0.5, 0.5), S11)
        below, _ = mc_sum_tail([pmf], [-2.0], 1000, seed=0)[0]
        above, _ = mc_sum_tail([pmf], [2.5], 1000, seed=0)[0]
        assert below == 1.0
        assert above == 0.0

    def test_deterministic_in_seed(self):
        pmf = random_mean_zero_pmf(S51, 4, seed=9)
        assert mc_sum_tail([pmf], [0.3], 5000, seed=7)[0] == mc_sum_tail(
            [pmf], [0.3], 5000, seed=7
        )[0]

    def test_many_thresholds_share_one_draw(self):
        pmf = random_mean_zero_pmf(S51, 5, seed=3)
        ts = [-2.0, -0.4, 0.0, 0.3, 1.1, 4.0]
        many = mc_sum_tail([pmf] * 3, ts, 5000, seed=11)
        assert many == [mc_sum_tail([pmf] * 3, [t], 5000, seed=11)[0] for t in ts]

    def test_matches_exact_binomial_tail(self):
        # sum of 8 fair +-1 coins: P(S >= 3) = P(heads >= 6) = 37/256
        pmf = FinitePmf((-1.0, 1.0), (0.5, 0.5), S11)
        exact = sum(math.comb(8, h) for h in range(6, 9)) / 2 ** 8
        for seed in range(3):
            estimate, se = mc_sum_tail([pmf] * 8, [3.0], 10 ** 5, seed=seed)[0]
            assert abs(estimate - exact) <= 4.0 * se

    def test_rejects_tiny_sample_counts(self):
        pmf = FinitePmf((-1.0, 1.0), (0.5, 0.5), S11)
        with pytest.raises(ValueError):
            mc_sum_tail([pmf], [0.5], 999, seed=0)

    @staticmethod
    def random_pmfs(rng, count):
        """Mean-zero pmfs of 1 to 40 atoms, some with atoms of zero mass.

        Zero-mass atoms go anywhere in the row, the last place included, so
        the cdf repeats values and may end below 1 before a zero-mass atom.
        """
        support = BoundedSupport(-2.0, 3.0)
        pmfs = []
        for _ in range(count):
            atoms = int(rng.integers(1, 41))
            if atoms == 1:
                pmfs.append(FinitePmf((0.0,), (1.0,), support))
                continue
            live = int(rng.integers(2, atoms + 1))
            pmf = random_mean_zero_pmf(support, live, seed=int(rng.integers(2 ** 32)))
            xs, ps = list(pmf.xs), list(pmf.ps)
            for _ in range(atoms - live):
                at = int(rng.integers(len(xs) + 1))
                xs.insert(at, float(rng.uniform(support.a, support.b)))
                ps.insert(at, 0.0)
            pmfs.append(FinitePmf(tuple(xs), tuple(ps), support))
        return pmfs

    @pytest.mark.parametrize(
        "samples", [MIN_SAMPLES, MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1, 3 * MC_CHUNK + 7]
    )
    def test_chunked_equals_one_shot(self, samples):
        rng = np.random.default_rng(samples)
        ties = 0
        for trial in range(4):
            pmfs = self.random_pmfs(rng, 1 + trial)
            reach = sum(max(p.xs) for p in pmfs)
            floor = sum(min(p.xs) for p in pmfs)
            # every variable at its likeliest atom, summed as the kernel sums
            attained = 0.0
            for p in pmfs:
                attained += p.xs[int(np.argmax(p.ps))]
            above = math.nextafter(attained, math.inf)
            ts = [reach + 1.0, floor - 1.0, reach, -0.5, 0.0, 0.25 * reach, attained, above]
            got = mc_sum_tail(pmfs, ts, samples, seed=trial)
            assert got == one_shot_sum_tail(pmfs, ts, samples, seed=trial)
            assert got[:2] == [(0.0, 0.0), (1.0, 0.0)]
            ties += got[-2] != got[-1]
        assert ties  # some draws land exactly on the attained sum

    def test_memory_does_not_grow_with_samples(self):
        pmfs = [extremal_two_point(s) for s in (S11, BoundedSupport(-5, 5), S51)]
        peaks = []
        for samples in (10 ** 6, 4 * 10 ** 6):
            tracemalloc.start()
            try:
                mc_sum_tail(pmfs, [0.5, 2.0], samples, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a few chunk-sized arrays, against 8 MB for a one-shot total alone
        assert max(peaks) < 4 * 2 ** 20
        assert peaks[1] < 1.25 * peaks[0]


def test_four_variable_instantiation_respects_group_one_certificate():
    # any valid instantiation of the four shipped intervals (with E[X2^2]=5)
    # must sit under the all-orders-one certificate exp(-0.45) at t = 6
    variables = (
        S11,
        BoundedSupport(-5, 5, m2=5.0),
        BoundedSupport(-1, 5),
        BoundedSupport(-5, 1),
    )
    pmfs = [moment_matched_pmf(v) for v in variables]
    assert moments(pmfs[1], 2) == pytest.approx(5.0, rel=1e-12)
    estimate, se = mc_sum_tail(pmfs, [6.0], 10 ** 5, seed=0)[0]
    assert estimate <= math.exp(-0.45) + 3.0 * se


class TestTightness:
    def test_hertz_curvature_matches_extremal_at_small_s(self):
        # with |a| >= b the Hertz rate is |a|b/2: exactly half the extremal
        # second moment, so the bound is curvature-tight at s -> 0
        for support in (S51, BoundedSupport(-2, 1), S11):
            pmf = extremal_two_point(support)
            bound = mgf_bound(support, HERTZ)
            s = 1e-4
            curvature = 2.0 * exact_log_mgf(pmf, s) / (s * s)
            assert curvature == pytest.approx(2.0 * bound.rate, rel=1e-3)

    def test_validity_gap_matches_the_list_reference(self, monkeypatch):
        # the table's gap is the list reference's, bit for bit; the law's gap
        # is its exactly summed log-MGF's, and the table's to within rounding;
        # a list of bounds gets each bound's own gap from one log-MGF row
        rows = []
        monkeypatch.setattr(oracle, "exact_log_mgf",
                            lambda pmf, s: rows.append(s) or exact_log_mgf(pmf, s))
        tags = (CLASSIC, HERTZ, order_k(1), order_k(3), order_k(8), ORDER2_MOMENT)
        for scale in (1e-6, 1.0, 1e6):
            for pmf in mixed_pmfs(scale, per_count=1):
                measured = BoundedSupport(pmf.support.a, pmf.support.b, m2=moments(pmf, 2))
                bounds = [mgf_bound(measured, tag) for tag in tags]
                exact = exact_log_mgf_rows(*stack_of([pmf] * len(bounds)), S_GRID)
                table = validity_gaps(
                    exact, [b.log_multiplier for b in bounds], [b.rate for b in bounds]
                )
                reference = reference_log_mgf(pmf, S_POINTS)
                for bound, gap in zip(bounds, table.tolist()):
                    assert gap == list_validity_gap(pmf, bound)
                    law_gap = validity_gap(pmf, bound)
                    assert law_gap == max(e - (bound.log_multiplier + bound.rate * s * s)
                                          for e, s in zip(reference, S_POINTS))
                    assert law_gap == pytest.approx(gap, rel=1e-14, abs=1e-15)
                rows.clear()
                gaps = validity_gap(pmf, bounds)
                assert len(rows) == 1
                assert gaps == [validity_gap(pmf, bound) for bound in bounds]

    def test_validity_gaps_reject_nonpositive_s(self):
        pmf = extremal_two_point(S11)
        bound = mgf_bound(S11, HERTZ)
        with pytest.raises(ValueError, match="s > 0"):
            validity_gap(pmf, bound, np.array([0.0, 1.0]))

    def test_validity_gap_is_negative_but_small_for_extremal(self):
        gap = validity_gap(extremal_two_point(S51), mgf_bound(S51, HERTZ), S_GRID)
        assert -1e-2 < gap <= 0.0


def test_s_points_are_numpy_geomspace_and_s_grid_their_array():
    assert S_POINTS == tuple(np.geomspace(1e-3, 50.0, 40).tolist())
    assert np.array_equal(S_GRID, S_POINTS) and not S_GRID.flags.writeable
    assert oracle.S_GRID is S_GRID  # made once
    with pytest.raises(AttributeError, match="S_GRIDS"):
        oracle.S_GRIDS


class TestPlainPythonLaws:
    """The one-pmf functions that need no numpy, against the stack kernels."""

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_log_mgf_is_the_kernels_row_with_its_exp_and_log(self, scale):
        # the kernel's logsumexp with math's exp and log and a correctly
        # rounded sum: the reference bit for bit, the row to within rounding
        for pmf in mixed_pmfs(scale):
            values = exact_log_mgf(pmf, S_POINTS)
            assert values == reference_log_mgf(pmf, S_POINTS)
            assert law_agrees_with_row(values, exact_log_mgf_rows(*stack_of([pmf]), S_GRID)[0].tolist())

    def test_log_mgf_drops_zero_probability_atoms(self):
        sparse = FinitePmf((-1.0, 0.5, 0.0, 1.0), (0.25, 0.0, 0.5, 0.25), S11)
        dense = FinitePmf((-1.0, 0.0, 1.0), (0.25, 0.5, 0.25), S11)
        assert exact_log_mgf(sparse, S_POINTS) == exact_log_mgf(dense, S_POINTS)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_moments_are_numpys(self, scale):
        # numpy's to within rounding (a mean of zero cancels, so it is held to
        # the scale of its terms), and the exactly summed reference bit for bit
        for pmf in mixed_pmfs(scale, per_count=2):
            xs, ps = stack_of([pmf])
            for order in (1, 2, 4):
                assert moments(pmf, order) == reference_moment(pmf, order)
                assert moments(pmf, order) == pytest.approx(
                    float(moment_rows(xs, ps, order)[0]), rel=1e-14, abs=1e-15 * scale ** order)
        with pytest.raises(ValueError):
            moments(extremal_two_point(S11), 0)

    @given(st.integers(2, 7), st.integers(0, 2 ** 32),
           st.sampled_from([None, "negative", "outside", "sum", "mean", "nan", "length"]))
    @settings(max_examples=80, deadline=None)
    def test_finite_pmf_check_is_the_one_row_stack_check(self, atoms, seed, poison):
        xs, ps = random_mean_zero_stack(S51, atoms, 1, np.random.default_rng(seed))
        xs, ps = xs[0].tolist(), ps[0].tolist()
        if poison == "negative":
            ps[0] = -ps[0]
        elif poison == "outside":
            xs[0] = 1.5 * S51.a
        elif poison == "sum":
            ps = [0.9 * p for p in ps]
        elif poison == "mean":
            # one shift both ways keeps the total: min(ps) may be ps[hi]
            hi, lo, shift = xs.index(max(xs)), xs.index(min(xs)), 0.5 * min(ps)
            ps[hi] += shift
            ps[lo] -= shift
        elif poison == "nan":
            xs[-1] = math.nan
        elif poison == "length":
            ps = ps[:-1]
        refusals = []
        for check in (lambda: check_pmf_stack(np.array([xs]), np.array([ps]), S51),
                      lambda: FinitePmf(tuple(xs), tuple(ps), S51)):
            try:
                check()
                refusals.append(None)
            except ValueError as exc:
                refusals.append(str(exc))
        assert (refusals[0] is None) == (refusals[1] is None) == (poison is None)
        if poison is not None:
            assert without_numbers(refusals[0]) == without_numbers(refusals[1])
        # the law prints its mass total and mean summed exactly, rounded once
        if poison == "sum":
            assert refusals[1] == f"probabilities sum to {exact_sum(ps)}, not 1"
        elif poison == "mean":
            assert refusals[1] == f"mean {exact_sum(p * x for p, x in zip(ps, xs))} is not zero"


def brute_force_tail(pmfs, t) -> float:
    """P(sum >= t) over every combination of the atoms with p > 0, each summed
    in variable order.  Combinations with equal float sums form a group, whose
    size is the largest of their sums of |x|; a group counts where its sum is
    at least t - 1e-9 * max(size, |t|)."""
    groups = {}
    for combo in itertools.product(*([(x, p) for x, p in zip(pmf.xs, pmf.ps) if p > 0.0]
                                     for pmf in pmfs)):
        total, size, mass = 0.0, 0.0, 1.0
        for x, p in combo:
            total += x
            size += abs(x)
            mass *= p
        masses, sizes = groups.setdefault(total, ([], []))
        masses.append(mass)
        sizes.append(size)
    return math.fsum(mass for total, (masses, sizes) in groups.items()
                     if total >= t - 1e-9 * max(max(sizes), abs(t)) for mass in masses)


class TestExactSumTail:
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_matches_every_combination(self, scale):
        rng = np.random.default_rng(3)
        pmfs = mixed_pmfs(scale, per_count=1)
        for trial in range(20):
            group = [pmfs[i] for i in rng.choice(len(pmfs), int(rng.integers(1, 4)))]
            reach, floor = sum(max(p.xs) for p in group), sum(min(p.xs) for p in group)
            ts = [2.0 * floor, *(f * reach for f in (0.01, 0.25, 0.5, 0.75, 1.0, 1.5))]
            got = exact_sum_tail(group, ts)
            for t, tail in zip(ts, got):
                assert tail == pytest.approx(brute_force_tail(group, t), rel=1e-12, abs=1e-300)
            assert got[0] == pytest.approx(1.0, rel=1e-15) and got[-1] == 0.0

    def test_sums_at_t_or_within_its_rounding_count(self):
        # P(S >= 3) of 8 fair +-1 coins is P(heads >= 6) = 37/256, whether t
        # is the attained sum 2, or a hair above it
        coin = FinitePmf((-1.0, 1.0), (0.5, 0.5), S11)
        exact = sum(math.comb(8, h) for h in range(5, 9)) / 2 ** 8
        assert exact_sum_tail([coin] * 8, [2.0, 2.0 + 1e-12, 2.0 + 1e-6]) == [
            exact, exact, sum(math.comb(8, h) for h in range(6, 9)) / 2 ** 8]

    def test_a_far_atom_on_another_path_leaves_the_window_alone(self):
        # the first law's a, about -2.4e-7, once sized every sum's window, so
        # b1 + a2 = 0 counted at t near 1e-22 and the tail read 1; the sum
        # b1 + b2 alone reaches t, with mass about 1.9e-5
        laws = [extremal_two_point(BoundedSupport(a, b)) for a, b in (
            (-2.3523082617124555e-07, 1.2751888638521224e-26),
            (-1.2751888638521224e-26, 6.586228897255622e-22))]
        reach = laws[0].xs[1] + laws[1].xs[1]
        ts = [f * reach for f in (0.25, 0.5, 0.75)]
        tail = laws[0].ps[1] * laws[1].ps[1]
        assert exact_sum_tail(laws, ts) == pytest.approx([tail] * 3, rel=1e-12)
        assert tail == pytest.approx(1.93610667763e-05, rel=1e-11)
        assert [brute_force_tail(laws, t) for t in ts] == exact_sum_tail(laws, ts)

    def test_a_sum_that_cancels_keeps_the_window_of_its_paths(self):
        # +-1 + 1e-20 -+ 1 rounds to 0.0, though its true value 1e-20 reaches
        # t: the paths to 0.0 are 2 wide, so it counts and the tail is 0.75,
        # at least the true 0.5; a window of 1e-9 |t| alone would give 0.25
        unit, tiny = (FinitePmf((-c, c), (0.5, 0.5), BoundedSupport(-c, c)) for c in (1.0, 1e-20))
        assert exact_sum_tail([unit, tiny, unit], [1e-20]) == [0.75]
        assert brute_force_tail([unit, tiny, unit], 1e-20) == 0.75

    def test_tail_is_at_most_one(self):
        pmfs = [moment_matched_pmf(BoundedSupport(-1.0, 1.0 + i / 3, m2=0.3)) for i in range(6)]
        assert all(0.0 <= p <= 1.0 for p in exact_sum_tail(pmfs, [-10.0, -1.0, 0.5]))

    def test_gives_up_past_max_sums_distinct_values(self):
        # 16 two-point laws at generic endpoints: 2^16 distinct sums, then 2^17
        laws = [extremal_two_point(BoundedSupport(-round(1 + math.sqrt(i + 2) / 10, 9),
                                                  round(1 + math.sqrt(i + 19) / 10, 9)))
                for i in range(17)]
        assert MAX_SUMS == 2 ** 16
        assert exact_sum_tail(laws[:16], [1.0]) is not None
        assert exact_sum_tail(laws, [1.0]) is None
        # equal sums merge: many laws on one lattice stay exact
        assert exact_sum_tail([extremal_two_point(S11)] * 200, [10.0]) is not None

    def test_agrees_with_monte_carlo(self):
        pmfs = [moment_matched_pmf(s) for s in (S11, BoundedSupport(-5, 5, m2=5.0),
                                                 BoundedSupport(-1, 5), S51)]
        ts = [0.5, 2.0, 6.0]
        for (estimate, se), tail in zip(mc_sum_tail(pmfs, ts, 10 ** 5, seed=1),
                                        exact_sum_tail(pmfs, ts)):
            assert abs(estimate - tail) <= 5.0 * se
