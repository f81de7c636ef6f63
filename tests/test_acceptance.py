"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from kbounds.bounds import (
    CLASSIC,
    HERTZ,
    ORDER2_MOMENT,
    ORDER4_MOMENT,
    SYMMETRIC_ORDER4,
    BoundedSupport,
    FamilyTag,
    mgf_bound,
    moment_caps,
    order_k,
    psi,
)
from kbounds.cli import main as cli_main
from kbounds.oracle import (
    S_GRID,
    FinitePmf,
    extremal_two_point,
    mc_sum_tail,
    moments,
    random_mean_zero_pmf,
    validity_gap,
)
from kbounds.selection import best_k_single, crossover_threshold, optimize_exact, optimize_relaxed
from kbounds.tails import SumScenario, one_sided_tail, order_k_scenario

GAP_TOL = 1e-9


@contextlib.contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:2d} PASS  {description}  [{elapsed:.2f}s]")


def test_criterion_01_example1_crossovers():
    with criterion(1, "symmetric unit interval crossovers 1.1774 / 1.3537"):
        support = BoundedSupport(-1, 1)
        assert crossover_threshold(support, 1) == pytest.approx(1.1774, abs=1e-3)
        assert crossover_threshold(support, 2) == pytest.approx(1.3537, abs=1e-3)


def test_criterion_02_example4_crossovers():
    with criterion(2, "[-5,5] with m2=5 crossovers 3.019 / 8.447"):
        support = BoundedSupport(-5, 5, m2=5.0)
        assert crossover_threshold(support, 1) == pytest.approx(3.019, abs=1e-3)
        assert crossover_threshold(support, 2) == pytest.approx(8.447, abs=1e-3)


def test_criterion_03_example2_crossovers():
    with criterion(3, "[-1,5]: first crossover 5.679; second from the formula"):
        support = BoundedSupport(-1, 5)
        assert crossover_threshold(support, 1) == pytest.approx(5.679, abs=1e-3)
        # The k=2 -> 3 threshold follows the generic multiplier
        # (1+5)^3 - 15 = 201, giving 3*sqrt(2 ln(201/6)):
        second = crossover_threshold(support, 2)
        formula_value = 3 * math.sqrt(2 * math.log(201 / 6))
        assert second == pytest.approx(formula_value, rel=1e-12)
        # Known discrepancy, documented not asserted: the printed selection
        # table implies a 191-based value 3*sqrt(2 ln(191/6)) ~ 7.892.
        printed = 3 * math.sqrt(2 * math.log(191 / 6))
        print(
            f"    note: k=2->3 threshold {second:.4f} (multiplier 201); "
            f"printed table implies {printed:.4f} (multiplier 191)"
        )
        assert abs(second - printed) > 1e-2  # the deviation is real, not noise


def test_criterion_04_example3_crossovers():
    with criterion(4, "[-5,1]: crossovers 1.350 (formula) / 3.778"):
        support = BoundedSupport(-5, 1)
        first = crossover_threshold(support, 1)
        assert first == pytest.approx(math.sqrt(10 * math.log(6 / 5)), rel=1e-12)
        assert first == pytest.approx(1.350, abs=1e-3)
        assert crossover_threshold(support, 2) == pytest.approx(3.778, abs=1e-3)
        # Known half-factor discrepancy, documented not asserted: the printed
        # table shows (1/2)*sqrt(10 ln(6/5)) ~ 0.6751 for the first threshold.
        print(
            f"    note: first threshold {first:.4f}; printed table shows "
            f"{0.5 * first:.4f} (suspected half factor)"
        )


def test_criterion_05_figure_sweep(fixtures_dir, tmp_path):
    with criterion(5, "group sweep crossovers 5.6647 / 10.0138 in < 1 s"):
        out = tmp_path / "sweep.csv"
        started = time.perf_counter()
        code = cli_main(
            [
                "sweep",
                str(fixtures_dir / "example5.json"),
                "--t-range",
                "0.1",
                "12",
                "1000",
                "--group",
                "1,1,1,1",
                "--group",
                "1,2,1,1",
                "--group",
                "1,2,1,2",
                "--out",
                str(out),
            ]
        )
        elapsed = time.perf_counter() - started
        assert code == 0
        crossings = [
            line.split(",")
            for line in out.read_text().splitlines()
            if line.startswith("crossover,")
        ]
        assert [c[1] for c in crossings] == ["group1->group2", "group2->group3"]
        found = [float(c[2]) for c in crossings]
        assert found[0] == pytest.approx(5.6647, abs=1e-3)
        assert found[1] == pytest.approx(10.0138, abs=1e-3)
        # closed forms from equating the group curves
        assert found[0] == pytest.approx(
            math.sqrt(math.log(6 / 5) / (1 / 55 - 1 / 80)), abs=1e-4
        )
        assert found[1] == pytest.approx(
            math.sqrt(math.log(6 / 5) / (1 / 50 - 1 / 55)), abs=1e-4
        )
        assert elapsed < 1.0


def _sound_families(support: BoundedSupport) -> list[FamilyTag]:
    tags = [CLASSIC, HERTZ, ORDER2_MOMENT]
    tags += [order_k(k) for k in (1, 2, 3, 4, 8, 16, 64)]
    for tag in (ORDER4_MOMENT, SYMMETRIC_ORDER4):
        try:
            mgf_bound(support, tag)
        except ValueError:
            continue
        tags.append(tag)
    return tags


def _symmetrized(pmf: FinitePmf, support: BoundedSupport) -> FinitePmf:
    xs = tuple(pmf.xs) + tuple(-x for x in pmf.xs)
    ps = tuple(p / 2 for p in pmf.ps) * 2
    return FinitePmf(
        xs,
        ps,
        BoundedSupport(support.a, support.b, odd_moments_zero=True),
    )


def test_criterion_06_soundness_sweep():
    with criterion(6, "4000 random pmfs x 40 s-points x all families: no gaps"):
        started = time.perf_counter()
        worst = -math.inf
        checked = 0
        for idx, (a, b) in enumerate([(-1, 1), (-1, 5), (-5, 1), (-2, 3)]):
            base = BoundedSupport(a, b)
            for i in range(1000):
                pmf = random_mean_zero_pmf(base, 2 + i % 7, seed=100000 * idx + i)
                measured = BoundedSupport(
                    a, b, m2=moments(pmf, 2), m4=moments(pmf, 4)
                )
                tags = _sound_families(measured)
                gaps = validity_gap(pmf, [mgf_bound(measured, tag) for tag in tags], S_GRID)
                for tag, gap in zip(tags, gaps):
                    worst = max(worst, gap)
                    checked += 1
                    assert gap <= GAP_TOL, (a, b, i, tag, gap)
            # symmetrized pmfs exercise the odd-moment families
            if -a == b:
                for i in range(100):
                    raw = random_mean_zero_pmf(base, 3, seed=7_000_000 + i)
                    sym = _symmetrized(raw, base)
                    measured = BoundedSupport(
                        a,
                        b,
                        m2=moments(sym, 2),
                        m4=moments(sym, 4),
                        odd_moments_zero=True,
                    )
                    tags = _sound_families(measured)
                    gaps = validity_gap(sym, [mgf_bound(measured, tag) for tag in tags], S_GRID)
                    for tag, gap in zip(tags, gaps):
                        worst = max(worst, gap)
                        checked += 1
                        assert gap <= GAP_TOL, (a, b, i, tag, gap)
        elapsed = time.perf_counter() - started
        print(f"    {checked} (pmf, family) pairs, worst gap {worst:.3e}")
        assert elapsed < 30.0


def test_criterion_07_extremal_two_point_attains_caps():
    with criterion(7, "extremal two-point law attains both moment caps"):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            support = BoundedSupport(
                -float(rng.uniform(0.05, 10.0)), float(rng.uniform(0.05, 10.0))
            )
            pmf = extremal_two_point(support)
            cap2, cap4 = moment_caps(support)
            assert math.isclose(moments(pmf, 2), cap2, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(moments(pmf, 4), cap4, rel_tol=1e-12, abs_tol=1e-12)


def test_criterion_08_two_point_kernel_caps():
    with criterion(8, "psi under u^2/8 (lam<=1/2) and lam(1-lam)u^2/2 (lam>1/2)"):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            lam = float(rng.uniform(1e-9, 1.0 - 1e-9))
            u = float(rng.uniform(1e-9, 30.0))
            value = psi(lam, u)
            cap = u * u / 8.0 if lam <= 0.5 else lam * (1 - lam) * u * u / 2.0
            assert value <= cap + 1e-12
            assert value >= -1e-12


def test_criterion_09_classic_reduction_identity():
    with criterion(9, "all-classic sum bound equals exp(-2t^2/sum (b-a)^2)"):
        rng = np.random.default_rng(4242)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            variables = tuple(
                BoundedSupport(
                    -float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.1, 5.0))
                )
                for _ in range(n)
            )
            t = float(rng.uniform(0.05, 6.0))
            cert = one_sided_tail(SumScenario(variables, (CLASSIC,) * n), t)
            textbook = -2.0 * t * t / sum((v.b - v.a) ** 2 for v in variables)
            assert cert.log_bound == pytest.approx(textbook, rel=1e-12)


def test_criterion_10_monte_carlo_soundness():
    with criterion(10, "20 random scenarios x 1e6 samples: within 3 sigma of certs"):
        started = time.perf_counter()
        rng = np.random.default_rng(777)
        for trial in range(20):
            n = int(rng.integers(1, 5))
            pmfs = []
            measured = []
            for j in range(n):
                support = BoundedSupport(
                    -float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0))
                )
                pmf = random_mean_zero_pmf(
                    support, int(rng.integers(2, 7)), seed=1000 * trial + j
                )
                pmfs.append(pmf)
                measured.append(
                    BoundedSupport(
                        support.a, support.b, m2=moments(pmf, 2), m4=moments(pmf, 4)
                    )
                )
            measured = tuple(measured)
            reach = sum(v.b for v in measured)
            for frac in (0.35, 0.65):
                t = frac * reach
                estimate, se = mc_sum_tail(pmfs, [t], 10 ** 6, seed=trial)[0]
                candidates = [(CLASSIC,) * n, (HERTZ,) * n]
                candidates += [tuple(order_k(k) for _ in range(n)) for k in (2, 3)]
                candidates.append(
                    tuple(order_k(k) for k in optimize_exact(measured, t, 4).ks)
                )
                for choices in candidates:
                    cert = one_sided_tail(SumScenario(measured, choices), t)
                    bound = math.exp(min(cert.log_bound, 0.0))
                    assert estimate <= bound + 3.0 * se, (trial, t, choices)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0


def test_criterion_11_optimizer_coherence():
    with criterion(11, "exact optimum beats greedy and the rounded relaxation"):
        started = time.perf_counter()
        rng = np.random.default_rng(31337)
        k_max = 4
        for _ in range(200):
            n = int(rng.integers(1, 5))
            variables = tuple(
                BoundedSupport(
                    -float(rng.uniform(0.2, 4.0)), float(rng.uniform(0.2, 4.0))
                )
                for _ in range(n)
            )
            t = float(rng.uniform(0.1, 1.2) * sum(v.b for v in variables))
            exact = optimize_exact(variables, t, k_max)
            greedy = tuple(best_k_single(v, t, k_max) for v in variables)
            greedy_obj = one_sided_tail(
                order_k_scenario(variables, greedy), t
            ).log_bound
            relaxed = optimize_relaxed(variables, t)
            # compare inside the same {1..k_max} domain the exact search used
            capped = tuple(min(k, k_max) for k in relaxed.rounded.ks)
            relaxed_obj = one_sided_tail(
                order_k_scenario(variables, capped), t
            ).log_bound
            assert exact.log_bound <= greedy_obj + 1e-12
            assert exact.log_bound <= relaxed_obj + 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
