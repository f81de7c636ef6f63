import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbounds.bounds import CLASSIC, HERTZ, BoundedSupport
from kbounds.oracle import mc_sum_tail, random_mean_zero_pmf
from kbounds.tails import (
    Side,
    SumScenario,
    TailCertificate,
    certificate,
    lower_tail,
    mirror,
    one_side,
    one_sided_tail,
    order_k_scenario,
    sides,
    totals,
    two_sided,
    two_sided_tail,
)

S11 = BoundedSupport(-1, 1)
EXAMPLE5 = (
    BoundedSupport(-1, 1),
    BoundedSupport(-5, 5, m2=5.0),
    BoundedSupport(-1, 5),
    BoundedSupport(-5, 1),
)

supports = st.builds(
    BoundedSupport, a=st.floats(-20.0, -0.05), b=st.floats(0.05, 20.0)
)


def random_scenario(rng, n):
    variables = tuple(
        BoundedSupport(-float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.2, 5.0)))
        for _ in range(n)
    )
    return SumScenario(variables, (CLASSIC,) * n)


class TestOneSided:
    def test_is_the_certificate_of_its_totals(self):
        scenario = order_k_scenario(EXAMPLE5, (1, 2, 1, 3))
        big_l, big_r = totals(scenario)
        for t in (0.1, 6.0, 40.0):
            cert = certificate(big_l, big_r, t)
            assert one_sided_tail(scenario, t) == cert
            assert cert == TailCertificate(big_l - t * t / (4.0 * big_r), t / (2.0 * big_r))

    def test_single_hertz(self):
        cert = one_sided_tail(SumScenario((S11,), (HERTZ,)), 1.0)
        assert cert.log_bound == pytest.approx(-0.5, rel=1e-12)
        assert cert.s_star == pytest.approx(1.0, rel=1e-12)

    def test_four_variable_sum_all_k1(self):
        # sum of Phi^2 over the four intervals is 1 + 25 + 9 + 5 = 40
        cert = one_sided_tail(order_k_scenario(EXAMPLE5, (1, 1, 1, 1)), 6.0)
        assert cert.log_bound == pytest.approx(-36.0 / 80.0, rel=1e-12)

    def test_multiplier_survives_small_t(self):
        cert = one_sided_tail(order_k_scenario((S11,), (2,)), 1e-9)
        assert cert.log_bound == pytest.approx(math.log(2), rel=1e-9)

    def test_rejects_nonpositive_t(self):
        scenario = SumScenario((S11,), (HERTZ,))
        for t in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                one_sided_tail(scenario, t)
            with pytest.raises(ValueError):
                certificate(0.0, 1.0, t)

    def test_strictly_decreasing_in_t(self):
        scenario = order_k_scenario(EXAMPLE5, (1, 2, 1, 1))
        values = [one_sided_tail(scenario, t).log_bound for t in np.linspace(0.5, 11, 40)]
        assert all(hi < lo for lo, hi in zip(values, values[1:]))

    def test_adding_a_variable_loosens(self):
        base = SumScenario((S11,), (HERTZ,))
        extended = SumScenario((S11, BoundedSupport(-2, 2)), (HERTZ, HERTZ))
        assert (
            one_sided_tail(extended, 0.9).log_bound
            > one_sided_tail(base, 0.9).log_bound
        )


class TestChernoffIdentities:
    def test_classic_reduction_matches_textbook_sum_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            scenario = random_scenario(rng, int(rng.integers(1, 6)))
            t = float(rng.uniform(0.1, 4.0))
            expected = -2.0 * t * t / sum(
                (v.b - v.a) ** 2 for v in scenario.variables
            )
            assert one_sided_tail(scenario, t).log_bound == pytest.approx(
                expected, rel=1e-12
            )

    def test_curve_is_minimized_at_s_star(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            scenario = random_scenario(rng, int(rng.integers(1, 5)))
            t = float(rng.uniform(0.2, 3.0))
            cert = one_sided_tail(scenario, t)
            big_l, big_r = totals(scenario)

            def curve(s):  # the exponent L + R s^2 - s t before optimizing s
                return big_l + big_r * s * s - s * t

            assert curve(cert.s_star) == pytest.approx(cert.log_bound, rel=1e-12)
            for s in np.geomspace(1e-3, 50, 60):
                assert curve(float(s)) >= cert.log_bound - 1e-12


class TestMirror:
    def test_swaps_endpoints(self):
        m = mirror(BoundedSupport(-1, 5, m2=2.0))
        assert (m.a, m.b, m.m2) == (-5, 1, 2.0)

    def test_symmetric_fixed_point(self):
        assert mirror(S11) == S11

    def test_involution(self):
        s = BoundedSupport(-2, 3, m2=1.0, m4=2.5, odd_moments_zero=True)
        assert mirror(mirror(s)) == s


class TestSides:
    def test_upper_first_and_each_variable_mirrored(self):
        mirrored = tuple(mirror(v) for v in EXAMPLE5)
        assert sides(EXAMPLE5, Side.UPPER) == {Side.UPPER: EXAMPLE5}
        assert sides(list(EXAMPLE5), Side.LOWER) == {Side.LOWER: mirrored}
        both = sides(EXAMPLE5, Side.TWO_SIDED)
        assert list(both.items()) == [(Side.UPPER, EXAMPLE5), (Side.LOWER, mirrored)]

    def test_one_side(self):
        assert one_side(EXAMPLE5, Side.UPPER) == EXAMPLE5
        assert one_side(EXAMPLE5, Side.LOWER) == tuple(mirror(v) for v in EXAMPLE5)
        with pytest.raises(ValueError, match="two_sided has two answers"):
            one_side(EXAMPLE5, Side.TWO_SIDED)

    def test_a_refused_mirror_names_the_variable(self):
        # [-1e10, 1e-300] is accepted; its mirror [-1e-300, 1e10] is too lopsided
        variables = (S11, BoundedSupport(-1e10, 1e-300))
        assert sides(variables, Side.UPPER) == {Side.UPPER: variables}
        for side in (Side.LOWER, Side.TWO_SIDED):
            with pytest.raises(ValueError, match=r"^variables\[1\] mirrored for the lower tail"):
                sides(variables, side)
        with pytest.raises(ValueError, match=r"^variables\[1\] mirrored"):
            lower_tail(SumScenario(variables, (HERTZ, HERTZ)), 1.0)


class TestTwoSided:
    def test_symmetric_case_is_log2_plus_one_sided(self):
        scenario = SumScenario((S11, S11), (HERTZ, HERTZ))
        one = one_sided_tail(scenario, 1.2)
        two = two_sided_tail(scenario, 1.2)
        assert two.log_bound == pytest.approx(math.log(2) + one.log_bound, rel=1e-12)

    def test_asymmetric_sides_use_their_own_geometry(self):
        # upper side: [-1,5] at k=1 (Phi=3); lower side: mirrored [-5,1] at
        # k=2 (Phi=sqrt5, multiplier 6/5)
        scenario = order_k_scenario((BoundedSupport(-1, 5),), (1,))
        up = one_sided_tail(scenario, 0.8)
        lo = lower_tail(order_k_scenario((BoundedSupport(-1, 5),), (2,)), 0.8)
        assert lo == one_sided_tail(order_k_scenario((BoundedSupport(-5, 1),), (2,)), 0.8)
        cert = two_sided(up, lo)
        assert up.log_bound == pytest.approx(-0.64 / 18.0, rel=1e-12)
        assert lo.log_bound == pytest.approx(
            math.log(6 / 5) - 0.64 * 2 / 10.0, rel=1e-12
        )
        expected = np.logaddexp(up.log_bound, lo.log_bound)
        assert cert.log_bound == pytest.approx(float(expected), rel=1e-12)
        assert cert.s_star == up.s_star

    def test_two_sided_tail_combines_its_own_sides(self):
        scenario = order_k_scenario(EXAMPLE5, (1, 2, 3, 1))
        for t in (0.5, 4.0, 11.0):
            assert two_sided_tail(scenario, t) == two_sided(
                one_sided_tail(scenario, t), lower_tail(scenario, t)
            )

    def test_monotone_decreasing_in_t(self):
        scenario = order_k_scenario(EXAMPLE5, (1, 2, 1, 1))
        ts = np.linspace(0.5, 11.5, 30)
        values = [two_sided_tail(scenario, float(t)).log_bound for t in ts]
        assert all(hi < lo for lo, hi in zip(values, values[1:]))

    def test_bounded_by_sum_of_parts(self):
        scenario = order_k_scenario(EXAMPLE5, (1, 1, 2, 1))
        for t in (1.0, 4.0, 9.0):
            two = two_sided_tail(scenario, t)
            up = one_sided_tail(scenario, t)
            lo = lower_tail(scenario, t)
            total = math.exp(up.log_bound) + math.exp(lo.log_bound)
            assert math.exp(two.log_bound) == pytest.approx(total, rel=1e-12)

    def test_minus_inf_on_both_sides_is_minus_inf(self):
        # t * t overflows, so each side is -inf; their log-sum-exp is not nan
        scenario = order_k_scenario(EXAMPLE5, (1, 1, 1, 1))
        assert one_sided_tail(scenario, 1e170).log_bound == -math.inf
        assert two_sided_tail(scenario, 1e170).log_bound == -math.inf
        up = TailCertificate(-math.inf, 1.0)
        assert two_sided(up, TailCertificate(-math.inf, 2.0)) == up
        assert two_sided(up, TailCertificate(-3.0, 2.0)) == TailCertificate(-3.0, 1.0)


class TestScenarioValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SumScenario((S11,), (HERTZ, HERTZ))

    def test_empty(self):
        with pytest.raises(ValueError):
            SumScenario((), ())

    def test_choice_preconditions_checked(self):
        from kbounds.bounds import ORDER2_MOMENT

        with pytest.raises(ValueError):
            SumScenario((S11,), (ORDER2_MOMENT,))  # m2 not declared

    def test_lower_tail_mirrors_and_keeps_choices(self):
        scenario = order_k_scenario(EXAMPLE5, (1, 2, 1, 1))
        mirrored = SumScenario(tuple(mirror(v) for v in EXAMPLE5), scenario.choices)
        for t in (0.5, 4.0, 11.0):
            assert lower_tail(scenario, t) == one_sided_tail(mirrored, t)


@given(supports, st.floats(0.05, 10.0))
@settings(max_examples=100)
def test_hertz_tail_never_beats_classic_tail(support, t):
    hz = one_sided_tail(SumScenario((support,), (HERTZ,)), t).log_bound
    cl = one_sided_tail(SumScenario((support,), (CLASSIC,)), t).log_bound
    assert hz <= cl + 1e-12


def test_mc_soundness_small():
    # smaller sibling of the acceptance-scale Monte Carlo gate
    rng = np.random.default_rng(11)
    for trial in range(4):
        n = int(rng.integers(1, 4))
        pmfs = []
        variables = []
        for j in range(n):
            support = BoundedSupport(
                -float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0))
            )
            pmfs.append(random_mean_zero_pmf(support, 4, seed=100 * trial + j))
            variables.append(support)
        reach = sum(v.b for v in variables)
        for ks in ((1,) * n, (2,) * n):
            scenario = order_k_scenario(tuple(variables), ks)
            for frac in (0.3, 0.6):
                t = frac * reach
                cert = one_sided_tail(scenario, t)
                estimate, se = mc_sum_tail(pmfs, [t], 10 ** 4, seed=trial)[0]
                assert estimate <= math.exp(min(cert.log_bound, 0.0)) + 3.0 * se
