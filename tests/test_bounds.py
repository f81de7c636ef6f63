import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbounds.bounds import (
    CLASSIC,
    HERTZ,
    ORDER2_MOMENT,
    ORDER4_MOMENT,
    SYMMETRIC_ORDER4,
    BoundedSupport,
    FamilyTag,
    Family,
    MgfBound,
    endpoint_ratio,
    eval_log_mgf_bound,
    mgf_bound,
    moment_caps,
    multiplier_log,
    order_k,
    phi,
    psi,
    reads_moments,
    upsilon_log,
)
from kbounds.tails import mirror

supports = st.builds(
    BoundedSupport,
    a=st.floats(-50.0, -0.01),
    b=st.floats(0.01, 50.0),
)


class TestSupport:
    def test_rejects_bad_intervals(self):
        for a, b in [(0.0, 1.0), (-1.0, 0.0), (1.0, 2.0), (-2.0, -1.0)]:
            with pytest.raises(ValueError):
                BoundedSupport(a, b)

    def test_rejects_moments_beyond_caps(self):
        with pytest.raises(ValueError):
            BoundedSupport(-1, 1, m2=1.1)  # cap is |a|b = 1
        with pytest.raises(ValueError):
            BoundedSupport(-5, 1, m4=106.0)  # cap is 105
        with pytest.raises(ValueError):
            BoundedSupport(-1, 1, m2=0.9, m4=0.5)  # m4 < m2^2

    @pytest.mark.parametrize("a, b", [(-1e200, 1e200), (-1.0, 1e103), (-1e160, 1e160)])
    def test_rejects_intervals_whose_caps_overflow(self, a, b):
        # |a|b(a^2+ab+b^2) is inf or nan; the message names the interval
        with pytest.raises(ValueError, match=re.escape(f"[{a}, {b}]")):
            BoundedSupport(a, b)

    @pytest.mark.parametrize(
        "a, b", [(-1e-200, 1e-200), (-1e-170, 1e-170), (-1e-154, 1e-154), (-1e-300, 1e-9)]
    )
    def test_rejects_intervals_whose_caps_underflow(self, a, b):
        # |a|b is below the smallest normal float; the message names the interval
        with pytest.raises(ValueError, match=re.escape(f"[{a}, {b}] is too narrow")):
            BoundedSupport(a, b)

    @pytest.mark.parametrize("a, b", [(-1e-100, 1e-100), (-1e-153, 1e-153), (-1e-300, 1e-7)])
    def test_accepts_the_narrowest_normal_caps(self, a, b):
        support = BoundedSupport(a, b)
        assert mgf_bound(support, CLASSIC).rate > 0.0

    def test_accepts_moments_at_cap(self):
        BoundedSupport(-5, 1, m2=5.0, m4=105.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_values(self, bad):
        for kwargs in (
            dict(a=bad, b=1.0),
            dict(a=-1.0, b=bad),
            dict(a=-1.0, b=1.0, m2=bad),
            dict(a=-1.0, b=1.0, m4=bad),
        ):
            with pytest.raises(ValueError, match="finite"):
                BoundedSupport(**kwargs)


class TestPhi:
    def test_symmetric_interval(self):
        assert phi(BoundedSupport(-1, 1)) == 1.0

    def test_wide_right(self):
        # arithmetic-mean branch, the factor behind Example 2's thresholds
        assert phi(BoundedSupport(-1, 5)) == 3.0

    def test_wide_left(self):
        assert phi(BoundedSupport(-5, 1)) == pytest.approx(math.sqrt(5), rel=1e-15)

    def test_continuous_at_branch_point(self):
        lo = phi(BoundedSupport(-2, 2 - 1e-12))
        hi = phi(BoundedSupport(-2, 2 + 1e-12))
        assert lo == pytest.approx(2.0, abs=1e-11)
        assert hi == pytest.approx(2.0, abs=1e-11)

    @given(supports)
    def test_mirror_swaps_the_two_means(self, support):
        # Phi itself is not mirror-invariant: the geometric-mean branch always
        # sits on the side whose upper endpoint is the short one.  Mirroring
        # swaps which of {arithmetic mean, geometric mean} applies.
        a, b = support.a, support.b
        means = {(-a + b) / 2.0, math.sqrt(-a * b)}
        assert {phi(support), phi(mirror(support))} == means

    def test_mirror_example(self):
        assert phi(BoundedSupport(-2, 3)) == 2.5
        assert phi(BoundedSupport(-3, 2)) == pytest.approx(math.sqrt(6), rel=1e-15)

    @given(supports)
    def test_never_exceeds_half_width(self, support):
        assert phi(support) <= (support.b - support.a) / 2.0 + 1e-15


class TestUpsilon:
    def test_is_one_at_k1(self):
        assert upsilon_log(BoundedSupport(-1, 1), 1) == 0.0
        assert upsilon_log(BoundedSupport(-3, 7), 1) == 0.0

    def test_symmetric_k3(self):
        # (1+1)^3 - 3 = 5
        assert upsilon_log(BoundedSupport(-1, 1), 3) == pytest.approx(
            math.log(5), rel=1e-12
        )

    def test_wide_k3(self):
        # (1+5)^3 - 15 = 201 (the formula value; the printed example-2 chain
        # implies 191, recorded as a known discrepancy)
        assert upsilon_log(BoundedSupport(-1, 5), 3) == pytest.approx(
            math.log(201), rel=1e-12
        )

    def test_no_overflow_for_large_k(self):
        value = upsilon_log(BoundedSupport(-1, 5), 400)
        assert value == pytest.approx(400 * math.log(6), rel=1e-9)
        assert math.isfinite(value)

    @given(supports)
    @settings(max_examples=50)
    def test_nondecreasing_in_k(self, support):
        values = [upsilon_log(support, k) for k in range(1, 33)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-12


class TestMultiplier:
    def test_k1_is_free(self):
        assert multiplier_log(BoundedSupport(-1, 5), 1) == 0.0

    def test_k2_relaxed(self):
        assert multiplier_log(BoundedSupport(-1, 1), 2) == pytest.approx(
            math.log(2), rel=1e-12
        )
        assert multiplier_log(BoundedSupport(-5, 1), 2) == pytest.approx(
            math.log(6 / 5), rel=1e-12
        )

    def test_k2_with_known_m2(self):
        assert multiplier_log(BoundedSupport(-5, 5, m2=5.0), 2) == pytest.approx(
            math.log(6 / 5), rel=1e-12
        )

    def test_k3_ignores_moments(self):
        with_m2 = multiplier_log(BoundedSupport(-5, 5, m2=5.0), 3)
        without = multiplier_log(BoundedSupport(-5, 5), 3)
        assert with_m2 == without == pytest.approx(math.log(5), rel=1e-12)

    def test_k4_takes_smaller_of_generic_and_moment_form(self):
        support = BoundedSupport(-1, 1, m2=0.1, m4=0.02, odd_moments_zero=True)
        moment_form = math.log(1 + 6 * 0.1 + 0.02)
        assert multiplier_log(support, 4) == pytest.approx(moment_form, rel=1e-12)
        # without the odd-moment guarantee the moment form is not valid
        plain = BoundedSupport(-1, 1, m2=0.1, m4=0.02)
        assert multiplier_log(plain, 4) == upsilon_log(plain, 4)

    @given(supports)
    @settings(max_examples=50)
    def test_moment_refinement_never_hurts(self, support):
        # 1 + m2/a^2 <= 1 + b/|a| whenever m2 <= |a|b (always, by the cap)
        m2 = 0.5 * moment_caps(support)[0]
        with_m2 = multiplier_log(
            BoundedSupport(support.a, support.b, m2=m2), 2
        )
        assert with_m2 <= multiplier_log(support, 2) + 1e-12


class TestMgfBound:
    def test_catalog_rates(self):
        s = BoundedSupport(-2, 1)
        assert mgf_bound(s, HERTZ).rate == pytest.approx(1.0, rel=1e-12)
        assert mgf_bound(s, CLASSIC).rate == pytest.approx(9 / 8, rel=1e-12)
        assert mgf_bound(s, HERTZ).log_multiplier == 0.0

    def test_symmetric_order4(self):
        s = BoundedSupport(-1, 1, odd_moments_zero=True)
        bound = mgf_bound(s, SYMMETRIC_ORDER4)
        assert bound.log_multiplier == pytest.approx(math.log(8), rel=1e-12)
        assert bound.rate == pytest.approx(1 / 8, rel=1e-12)

    def test_rejects_nan_log_multiplier(self):
        with pytest.raises(ValueError, match="log multiplier"):
            MgfBound(math.nan, 1.0, HERTZ)

    def test_order_k_equals_hertz_at_k1(self):
        s = BoundedSupport(-3, 2)
        k1 = mgf_bound(s, order_k(1))
        hz = mgf_bound(s, HERTZ)
        assert (k1.log_multiplier, k1.rate) == (hz.log_multiplier, hz.rate)

    def test_moment_preconditions(self):
        s = BoundedSupport(-1, 2)
        with pytest.raises(ValueError, match="m2"):
            mgf_bound(s, ORDER2_MOMENT)
        with pytest.raises(ValueError, match="odd_moments_zero"):
            mgf_bound(BoundedSupport(-1, 2, m2=1.0, m4=1.5), ORDER4_MOMENT)
        with pytest.raises(ValueError, match=r"\|a\| = b"):
            mgf_bound(BoundedSupport(-1, 2, odd_moments_zero=True), SYMMETRIC_ORDER4)

    def test_order2_moment_pair(self):
        s = BoundedSupport(-1, 1, m2=0.5)
        bound = mgf_bound(s, ORDER2_MOMENT)
        assert bound.log_multiplier == pytest.approx(math.log(1.5), rel=1e-12)
        assert bound.rate == pytest.approx(0.25, rel=1e-12)

    @given(supports, st.floats(0.01, 50.0))
    @settings(max_examples=100)
    def test_hertz_dominates_classic(self, support, s):
        hz = eval_log_mgf_bound(mgf_bound(support, HERTZ), s)
        cl = eval_log_mgf_bound(mgf_bound(support, CLASSIC), s)
        assert hz <= cl + 1e-12

    def test_family_tag_validation(self):
        with pytest.raises(ValueError):
            order_k(0)
        with pytest.raises(ValueError):
            FamilyTag(Family.HERTZ, k=2)


@st.composite
def measured_supports(draw):
    """[a, b] at a scale from 1e-6 to 1e6, with any valid moment declaration."""
    scale = 10.0 ** draw(st.integers(-6, 6))
    a = -scale * draw(st.floats(0.01, 50.0))
    b = -a if draw(st.booleans()) else scale * draw(st.floats(0.01, 50.0))
    cap2, cap4 = moment_caps(BoundedSupport(a, b))
    m2 = draw(st.none() | st.floats(0.0, 1.0).map(lambda f: f * cap2))
    m4 = None
    if m2 is not None and draw(st.booleans()):
        m4 = m2 * m2 + draw(st.floats(0.0, 1.0)) * (cap4 - m2 * m2)
    return BoundedSupport(a, b, m2=m2, m4=m4, odd_moments_zero=draw(st.booleans()))


CATALOG = [CLASSIC, HERTZ, *(order_k(k) for k in range(1, 9)),
           ORDER2_MOMENT, ORDER4_MOMENT, SYMMETRIC_ORDER4]


class TestReadsMoments:
    @given(measured_supports())
    @settings(max_examples=300, deadline=None)
    def test_moment_free_bounds_depend_on_the_interval_alone(self, measured):
        interval = BoundedSupport(measured.a, measured.b)
        free = [tag for tag in CATALOG if not reads_moments(measured, tag)]
        assert {CLASSIC, HERTZ, order_k(1), order_k(3), order_k(8)} <= set(free)
        for tag in free:
            assert mgf_bound(measured, tag) == mgf_bound(interval, tag)

    def test_marks_the_moment_families(self):
        plain = BoundedSupport(-1, 2)
        odd = BoundedSupport(-1, 2, odd_moments_zero=True)
        for support in (plain, odd):
            for tag in (order_k(2), ORDER2_MOMENT, ORDER4_MOMENT, SYMMETRIC_ORDER4):
                assert reads_moments(support, tag)
        assert not reads_moments(plain, order_k(4))
        assert reads_moments(odd, order_k(4))


class TestEval:
    def test_quadratic_form(self):
        bound = mgf_bound(BoundedSupport(-1, 1), HERTZ)
        assert eval_log_mgf_bound(bound, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_order2_example(self):
        bound = mgf_bound(BoundedSupport(-1, 1), order_k(2))
        assert eval_log_mgf_bound(bound, 2.0) == pytest.approx(
            math.log(2) + 1.0, rel=1e-12
        )

    def test_small_s_tends_to_multiplier(self):
        bound = mgf_bound(BoundedSupport(-1, 1), order_k(2))
        assert eval_log_mgf_bound(bound, 1e-9) == pytest.approx(
            math.log(2), rel=1e-12
        )

    def test_rejects_nonpositive_s(self):
        bound = mgf_bound(BoundedSupport(-1, 1), HERTZ)
        for s in (0.0, -1.0):
            with pytest.raises(ValueError):
                eval_log_mgf_bound(bound, s)

    def test_mgf_bound_invariants(self):
        with pytest.raises(ValueError):
            MgfBound(-0.1, 1.0, HERTZ)
        with pytest.raises(ValueError):
            MgfBound(0.0, 0.0, HERTZ)


class TestPsi:
    def test_vanishes_at_zero(self):
        assert psi(0.5, 1e-14) == pytest.approx(0.0, abs=1e-15)

    def test_reference_values(self):
        # direct evaluations, sitting under their quadratic caps
        value = psi(0.3, 2.0)
        assert value == pytest.approx(-0.6 + math.log(0.7 + 0.3 * math.e ** 2), rel=1e-12)
        assert value <= 4.0 / 8.0
        assert psi(0.8, 2.0) <= 0.8 * 0.2 * 2.0

    def test_rejects_bad_lambda(self):
        for lam in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                psi(lam, 1.0)

    def test_large_u_stability(self):
        # the rewritten branch agrees with the direct formula where both work
        for u in (30.000001, 50.0, 200.0):
            direct = -0.3 * u + math.log(0.7 + 0.3 * math.exp(u))
            assert psi(0.3, u) == pytest.approx(direct, rel=1e-12)
        assert math.isfinite(psi(0.3, 5000.0))  # direct form would overflow

    @given(st.floats(1e-6, 1 - 1e-6), st.floats(1e-6, 30.0))
    @settings(max_examples=300)
    def test_quadratic_caps(self, lam, u):
        value = psi(lam, u)
        assert value >= -1e-12
        if lam <= 0.5:
            assert value <= u * u / 8.0 + 1e-12
        else:
            assert value <= lam * (1 - lam) * u * u / 2.0 + 1e-12


class TestMomentCaps:
    @pytest.mark.parametrize(
        "a,b,cap2,cap4",
        [(-1, 1, 1, 1), (-5, 1, 5, 105), (-1, 5, 5, 105)],
    )
    def test_values(self, a, b, cap2, cap4):
        assert moment_caps(BoundedSupport(a, b)) == pytest.approx((cap2, cap4))

    @given(supports)
    def test_mirror_symmetry(self, support):
        assert moment_caps(mirror(support)) == pytest.approx(
            moment_caps(support), rel=1e-12
        )


@given(supports, st.integers(1, 16), st.floats(0.01, 40.0))
@settings(max_examples=150)
def test_order_k_rate_splits_phi(support, k, s):
    bound = mgf_bound(support, order_k(k))
    assert bound.rate == pytest.approx(phi(support) ** 2 / (2 * k), rel=1e-12)
    assert eval_log_mgf_bound(bound, s) == pytest.approx(
        multiplier_log(support, k) + bound.rate * s * s, rel=1e-12
    )


@given(supports)
def test_endpoint_ratio_at_least_one(support):
    assert endpoint_ratio(support) >= 1.0
