"""Ground truth the analytic bounds are checked against.

Finite-support mean-zero distributions admit exact MGFs and moments, every
bounded distribution is a weak limit of them, and all quantities of interest
are continuous under that limit — so falsification runs entirely on exact
finite pmfs plus seeded Monte Carlo for sum tails.  Nothing in this module
uses the bound formulas it is meant to check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundedSupport, MgfBound

_SUM_TOL = 1e-12

# Verification grid: log-spaced to cover both the multiplier-dominated small-s
# regime and the rate-dominated large-s regime.
S_GRID = np.geomspace(1e-3, 50.0, 40)


@dataclass(frozen=True)
class FinitePmf:
    """Atoms (xs, ps) of an exactly mean-zero distribution on [a, b]."""

    xs: tuple[float, ...]
    ps: tuple[float, ...]
    support: BoundedSupport

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs)
        ps = np.asarray(self.ps)
        if xs.shape != ps.shape or xs.ndim != 1 or xs.size == 0:
            raise ValueError("xs and ps must be equal-length non-empty sequences")
        if np.any(ps < 0.0):
            raise ValueError("probabilities must be nonnegative")
        if np.any(xs < self.support.a) or np.any(xs > self.support.b):
            raise ValueError("atoms must lie inside the support interval")
        if abs(float(ps.sum()) - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {ps.sum()}, not 1")
        mean = float(ps @ xs)
        # rounding in ps @ xs grows with the size of the atoms
        if abs(mean) > _SUM_TOL * max(-self.support.a, self.support.b):
            raise ValueError(f"mean {mean} is not zero")


def exact_log_mgf_rows(pmfs, s_values) -> np.ndarray:
    """log E[exp(sX)] for a stack of pmfs: one row per pmf, one column per s.

    Every pmf must have the same number of atoms with p > 0, because the rows
    are one (pmf, s, atom) logsumexp over those atoms.  They are not padded to
    a common count: numpy sums 8 or more terms pairwise, so a padded sum could
    differ in the last bit from the sum over the pmf's own atoms.
    """
    xs, ps = [], []
    for pmf in pmfs:
        p = np.asarray(pmf.ps)
        keep = p > 0.0
        xs.append(np.asarray(pmf.xs)[keep])
        ps.append(p[keep])
    if len({p.size for p in ps}) > 1:
        raise ValueError("pmfs must have the same number of atoms with p > 0")
    xs, ps = np.array(xs), np.array(ps)
    s_arr = np.asarray(s_values, dtype=float)
    terms = np.log(ps)[:, None, :] + s_arr[None, :, None] * xs[:, None, :]
    peak = terms.max(axis=2, keepdims=True)
    return peak[:, :, 0] + np.log(np.exp(terms - peak).sum(axis=2))


def exact_log_mgf(pmf: FinitePmf, s):
    """log E[exp(sX)] = logsumexp(log p_i + s x_i); s may be scalar or array."""
    out = exact_log_mgf_rows([pmf], np.atleast_1d(np.asarray(s, dtype=float)))[0]
    return float(out[0]) if np.ndim(s) == 0 else out


def moments(pmf: FinitePmf, order: int) -> float:
    """E[X^order], exactly."""
    if order < 1:
        raise ValueError("order must be >= 1")
    xs = np.asarray(pmf.xs)
    ps = np.asarray(pmf.ps)
    return float(ps @ xs ** order)


def extremal_two_point(support: BoundedSupport) -> FinitePmf:
    """Mass b/(b-a) at a and -a/(b-a) at b: the mean-zero law maximizing E[X^2].

    It simultaneously attains the E[X^4] cap |a|b(a^2+ab+b^2).
    """
    a, b = support.a, support.b
    return FinitePmf((a, b), (b / (b - a), -a / (b - a)), support)


def random_mean_zero_pmf(
    support: BoundedSupport, atom_count: int, seed: int
) -> FinitePmf:
    """Seed-deterministic random mean-zero pmf on the support interval.

    Atom locations are uniform on [a, b]; with probability 1/2 the endpoints a
    and b are forced in.  Positive random weights are projected to zero mean
    by rescaling the positive-x mass against the negative-x mass (redrawing
    when all atoms share one sign), and a final transfer between the extreme
    atoms cancels the floating-point residual.
    """
    if atom_count < 2:
        raise ValueError("need at least 2 atoms for a mean-zero distribution")
    a, b = support.a, support.b
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        if rng.random() < 0.5:
            xs = np.concatenate([[a, b], rng.uniform(a, b, atom_count - 2)])
        else:
            xs = rng.uniform(a, b, atom_count)
        pos = xs > 0.0
        neg = xs < 0.0
        if not (pos.any() and neg.any()):
            continue
        w = rng.uniform(0.05, 1.0, atom_count)
        # Scale the positive-x weights by beta and the negative-x weights by
        # gamma so that beta*P = gamma*N (zero mean) and the mass is 1; atoms
        # at exactly 0 keep their raw share of the total weight.
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
        # transfer between the extreme atoms to cancel the rounding residual
        i_hi = int(np.argmax(xs))
        i_lo = int(np.argmin(xs))
        delta = -float(ps @ xs) / (xs[i_hi] - xs[i_lo])
        ps[i_hi] += delta
        ps[i_lo] -= delta
        return FinitePmf(tuple(xs), tuple(ps), support)
    raise RuntimeError("could not draw atoms with both signs (degenerate support?)")


def moment_matched_pmf(support: BoundedSupport, seed: int = 0) -> FinitePmf:
    """A concrete distribution honoring the support's declared moments.

    With m2 declared (and odd moments unconstrained): the mixture
    alpha * extremal-two-point + (1-alpha) * delta_0 with alpha = m2/(|a|b).
    With odd_moments_zero: symmetric atoms +-c (plus mass at 0), which needs
    c = sqrt(m4/m2) (or sqrt(m2)) to fit inside the interval.  With nothing
    declared, a seeded random pmf.
    """
    a, b = support.a, support.b
    m2, m4 = support.m2, support.m4
    if m2 is None and m4 is None and not support.odd_moments_zero:
        return random_mean_zero_pmf(support, 4, seed)
    if not support.odd_moments_zero:
        if m4 is not None:
            raise ValueError(
                "cannot match a declared m4 without odd_moments_zero; "
                "drop m4 or declare odd_moments_zero"
            )
        alpha = min(1.0, m2 / (-a * b))
        two = extremal_two_point(support)
        return FinitePmf(
            (a, 0.0, b),
            (alpha * two.ps[0], 1.0 - alpha, alpha * two.ps[1]),
            support,
        )
    # symmetric construction: atoms at -c, 0, +c
    c_max = min(-a, b)
    if m2 is None and m4 is None:
        c, mass = c_max, 1.0
    elif m4 is None:
        c = math.sqrt(m2)
        mass = 1.0
    else:
        if m2 is None:
            raise ValueError("m4 without m2 cannot be matched")
        c = math.sqrt(m4 / m2)
        mass = m2 * m2 / m4  # total mass on the +-c pair
    if c > c_max * (1.0 + 1e-12) or mass > 1.0 + 1e-12:
        raise ValueError(
            f"declared moments need atoms at +-{c} outside [{a}, {b}] "
            "or more than unit mass; no matching symmetric distribution"
        )
    c = min(c, c_max)
    mass = min(mass, 1.0)
    return FinitePmf((-c, 0.0, c), (mass / 2.0, 1.0 - mass, mass / 2.0), support)


def mc_sum_tail(pmfs, ts, samples: int, seed: int) -> list[tuple[float, float]]:
    """Monte Carlo estimates of P(sum_i X_i >= t) with binomial std errors.

    One (estimate, std_error) per t in ``ts``, all counted against one draw
    of the sum.  Deterministic in ``seed``; per-variable streams are split
    off the master seed with numpy's SeedSequence.spawn.
    """
    if samples < 10 ** 3:
        raise ValueError("use at least 1000 samples")
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


def validity_gaps(exact, log_multipliers, rates, s_values=S_GRID) -> np.ndarray:
    """Per row, max over s of exact - (log A + rho s^2); <= 0 iff that bound holds.

    ``exact`` has one row of ``exact_log_mgf_rows`` per bound, so one call
    checks a whole (bound x s) table.
    """
    s_arr = np.asarray(s_values, dtype=float)
    if not np.all(s_arr > 0.0):
        raise ValueError("bounds are stated for s > 0 only")
    log_a = np.asarray(log_multipliers, dtype=float)[:, None]
    rho = np.asarray(rates, dtype=float)[:, None]
    return np.max(exact - (log_a + rho * s_arr * s_arr), axis=1)


def validity_gap(pmf: FinitePmf, bound: MgfBound, s_values=S_GRID) -> float:
    """max over the s grid of (exact log MGF - certified bound); <= 0 iff sound."""
    exact = exact_log_mgf_rows([pmf], s_values)
    return float(validity_gaps(exact, [bound.log_multiplier], [bound.rate], s_values)[0])
