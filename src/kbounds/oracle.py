"""Ground truth the analytic bounds are checked against.

Finite-support mean-zero distributions admit exact MGFs and moments, every
bounded distribution is a weak limit of them, and all quantities of interest
are continuous under that limit — so falsification runs entirely on exact
finite pmfs: exact sum tails by convolution, and seeded Monte Carlo for a sum
with too many distinct values.  Nothing in this module uses the bound formulas
it is meant to check.

One law needs no numpy.  ``FinitePmf`` checks its atoms, ``exact_log_mgf``,
``moments`` and ``validity_gap`` evaluate it, and ``exact_sum_tail`` convolves
a sum of laws, all in plain Python.  Pmfs in bulk travel as (xs[N, n],
ps[N, n]) stacks, and every function of a stack imports numpy when it runs:
``random_mean_zero_stack`` draws a whole stack from one generator,
``check_pmf_stack`` checks them, ``exact_log_mgf_rows`` and ``moment_rows``
evaluate them, and ``validity_gaps`` and ``mc_sum_tail`` check and sample
them.  ``random_mean_zero_pmf`` is the one-row stack from
``default_rng(seed)``.  Every sum over one law's atoms is a correctly
rounded ``math.fsum``, so a law's value agrees with its one-row stack's row
to within rounding.  ``S_GRID`` is ``S_POINTS`` as a numpy array, built on
first use.
"""

from __future__ import annotations

import bisect
import math
import sys

from .bounds import BoundedSupport, Frozen, MgfBound
from .scenario import MAX_SAMPLES, MIN_SAMPLES

_SUM_TOL = 1e-12

# samples `mc_sum_tail` draws and counts at a time
MC_CHUNK = 2 ** 16

# most distinct values a sum may take for `exact_sum_tail` to convolve it
MAX_SUMS = 2 ** 16

# Verification grid: log-spaced to cover both the multiplier-dominated small-s
# regime and the rate-dominated large-s regime.  These are the floats of
# numpy's geomspace(1e-3, 50, 40), written out: 10.0 ** y over the same
# exponents rounds two of them differently.
S_POINTS = (
    0.001, 0.0013197340148878116, 0.0017416978700519029, 0.0022985779227651477,
    0.003033511470543335, 0.0040034282722283855, 0.005283460467023342,
    0.0069727624946457475, 0.009202191841917987, 0.012144445585302291,
    0.016027437930877554, 0.021151955008882235, 0.02791495450659851,
    0.03684031498640387, 0.04861941680673839, 0.0641646981438608, 0.08468033469546193,
    0.11175551808968565, 0.1474875585743683, 0.19464434782335238, 0.2568787666281325,
    0.3390116460215746, 0.4474052006977782, 0.590455861798566, 0.7792446851054644,
    1.0283957168542233, 1.3572088082974532, 1.7911546296155003, 2.3638476906273556,
    3.119650203334922, 4.117108487892774, 5.433488114455418, 7.170759084135455,
    9.463494675899332, 12.489295823494055, 16.48254852026139, 21.75257993422772,
    28.707619650766404, 37.88642213957818, 50.0,
)


def __getattr__(name: str):
    """``S_GRID``: ``S_POINTS`` as a read-only numpy array, made on first use."""
    if name == "S_GRID":
        import numpy as np

        grid = np.array(S_POINTS)
        grid.flags.writeable = False
        globals()["S_GRID"] = grid
        return grid
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class FinitePmf(Frozen):
    """Atoms (xs, ps) of an exactly mean-zero distribution on [a, b]."""

    __slots__ = ("xs", "ps", "support")

    def __init__(self, xs: tuple[float, ...], ps: tuple[float, ...],
                 support: BoundedSupport) -> None:
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ps", ps)
        object.__setattr__(self, "support", support)
        _check_pmf(xs, ps, support)


def _check_pmf(xs, ps, support: BoundedSupport) -> None:
    """``check_pmf_stack`` of the one-row stack (xs, ps), in plain Python.

    The same checks in the same order, with the same messages.  The mass
    total and the mean are ``math.fsum``s of the masses and of the products
    p * x, so a printed number can differ from the stack's in its last digits.
    """
    if len(xs) != len(ps) or len(xs) == 0:
        raise ValueError("xs and ps must be equal-length non-empty sequences")
    if not all(map(math.isfinite, (*xs, *ps))):  # NaN passes every check below
        raise ValueError("atoms and probabilities must be finite")
    if min(ps) < 0.0:
        raise ValueError("probabilities must be nonnegative")
    if min(xs) < support.a or max(xs) > support.b:
        raise ValueError("atoms must lie inside the support interval")
    total = math.fsum(ps)
    if abs(total - 1.0) > _SUM_TOL:
        raise ValueError(f"probabilities sum to {total}, not 1")
    mean = math.fsum(p * x for p, x in zip(ps, xs))
    # rounding in the products p * x grows with the size of the atoms
    if abs(mean) > _SUM_TOL * max(-support.a, support.b):
        raise ValueError(f"mean {mean} is not zero")


def _row_dots(u, v):
    """u[i] @ v[i] for every row i.

    The stacked matmul runs numpy's 1-D dot on each row, so every number is
    the one ``u[i] @ v[i]`` gives: BLAS's rounding, which differs from an
    elementwise product summed along the row.
    """
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def check_pmf_stack(xs, ps, support: BoundedSupport) -> None:
    """Reject a (xs[N, n], ps[N, n]) stack unless every row is a mean-zero pmf.

    Each row needs finite nonnegative masses summing to 1 and finite atoms in
    [a, b] with mean zero; the first check that any row fails raises ValueError.
    """
    import numpy as np

    xs = np.asarray(xs)
    ps = np.asarray(ps)
    if xs.shape != ps.shape or xs.ndim != 2 or xs.shape[1] == 0:
        raise ValueError("xs and ps must be equal-length non-empty sequences")
    if not np.isfinite((xs, ps)).all():  # NaN passes every check below
        raise ValueError("atoms and probabilities must be finite")
    if ps.min(initial=0.0) < 0.0:
        raise ValueError("probabilities must be nonnegative")
    if xs.min(initial=support.a) < support.a or xs.max(initial=support.b) > support.b:
        raise ValueError("atoms must lie inside the support interval")
    sums = ps.sum(axis=1)
    miss = abs(sums - 1.0)
    if miss.max(initial=0.0) > _SUM_TOL:
        raise ValueError(f"probabilities sum to {sums[miss.argmax()]}, not 1")
    means = _row_dots(ps, xs)
    # rounding in ps @ xs grows with the size of the atoms
    if abs(means).max(initial=0.0) > _SUM_TOL * max(-support.a, support.b):
        raise ValueError(f"mean {float(means[abs(means).argmax()])} is not zero")


def exact_log_mgf_rows(xs, ps, s_values):
    """log E[exp(sX)] for a (xs[N, n], ps[N, n]) stack: one row per pmf, one column per s.

    One (pmf, s, atom) logsumexp, in which an atom with p = 0 is log 0 = -inf
    and adds exp(-inf) = 0 to its row's sum.
    """
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    s_arr = np.asarray(s_values, dtype=float)
    with np.errstate(divide="ignore"):
        log_ps = np.log(np.asarray(ps, dtype=float))
    terms = log_ps[:, None, :] + s_arr[None, :, None] * xs[:, None, :]
    peak = terms.max(axis=2, keepdims=True)
    return peak[:, :, 0] + np.log(np.exp(terms - peak).sum(axis=2))


def exact_log_mgf(pmf: FinitePmf, s):
    """log E[exp(sX)] = logsumexp(log p_i + s x_i): a float for a scalar s, a
    list for a sequence of s.

    ``exact_log_mgf_rows``' logsumexp of the one-row stack, in plain Python:
    log p + s x per atom (log 0 = -inf), less their peak, exponentiated and
    added by ``math.fsum``, then the log of the sum plus the peak.  It agrees
    with the row to within rounding.
    """
    if isinstance(s, (int, float)):
        return exact_log_mgf(pmf, (s,))[0]
    atoms = [(x, math.log(p) if p > 0.0 else -math.inf) for x, p in zip(pmf.xs, pmf.ps)]
    out = []
    for s_value in s:
        terms = [log_p + s_value * x for x, log_p in atoms]
        peak = max(terms)
        out.append(peak + math.log(math.fsum(math.exp(term - peak) for term in terms)))
    return out


def moment_rows(xs, ps, order: int):
    """E[X^order] for every row of a (xs[N, n], ps[N, n]) stack: BLAS's dot
    (``_row_dots``) rounds as it adds, so a row can differ from ``moments`` of
    its law by about 1e-14 times max|x|^order."""
    import numpy as np

    if order < 1:
        raise ValueError("order must be >= 1")
    return _row_dots(np.asarray(ps), np.asarray(xs) ** order)


def moments(pmf: FinitePmf, order: int) -> float:
    """E[X^order]: the ``math.fsum`` of the products p * x^order.

    A square is x * x and another power x ** order; the float products are
    summed exactly and rounded once.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return math.fsum(p * (x * x if order == 2 else x ** order)
                     for p, x in zip(pmf.ps, pmf.xs))


def exact_sum_tail(pmfs, ts) -> list[float] | None:
    """P(X_1 + ... + X_n >= t) for each t in ``ts``, exactly, by convolution;
    None once the sum takes more than ``MAX_SUMS`` distinct values.

    The sum adds the variables' atoms with p > 0 in variable order from 0.0,
    as ``mc_sum_tail`` does, and equal sums merge.  Each distinct sum keeps
    its size: the largest sum of |x| along the atoms of a path that reaches
    it, added in the same order.  A sum within 1e-9 of t, relative to the
    larger of |t| and its own size, counts toward the tail: the rounding of a
    sum that equals t cannot make the tail smaller, and a far atom of another
    path does not widen the window.  Each tail is the correctly rounded sum of
    its masses, at most 1.
    """
    sums = {0.0: (1.0, 0.0)}  # sum -> (mass, size)
    for pmf in pmfs:
        atoms = [(x, p, abs(x)) for x, p in zip(pmf.xs, pmf.ps) if p > 0.0]
        merged: dict[float, tuple[float, float]] = {}
        for total, (mass, size) in sums.items():
            for x, p, size_x in atoms:
                key = total + x
                got = merged.get(key)
                if got is None:
                    merged[key] = (mass * p, size + size_x)
                else:
                    merged[key] = (got[0] + mass * p, max(got[1], size + size_x))
            if len(merged) > MAX_SUMS:
                return None
        sums = merged
    totals = sorted(sums)
    masses = [sums[total][0] for total in totals]
    widest = max(size for _, size in sums.values())
    tails = []
    for t in ts:
        # every sum from t - 1e-9 |t| up counts; one below it down to the
        # widest window's edge counts where its own size reaches that far
        edge = bisect.bisect_left(totals, t - 1e-9 * abs(t))
        first = bisect.bisect_left(totals, t - 1e-9 * max(widest, abs(t)))
        near = [sums[total][0] for total in totals[first:edge]
                if total >= t - 1e-9 * sums[total][1]]
        tails.append(min(math.fsum(masses[edge:] + near), 1.0))
    return tails


def extremal_two_point(support: BoundedSupport) -> FinitePmf:
    """Mass b/(b-a) at a and -a/(b-a) at b: the mean-zero law maximizing E[X^2].

    It simultaneously attains the E[X^4] cap |a|b(a^2+ab+b^2).
    """
    a, b = support.a, support.b
    return FinitePmf((a, b), (b / (b - a), -a / (b - a)), support)


def random_mean_zero_stack(support: BoundedSupport, atom_count: int, rows: int, rng):
    """``rows`` random mean-zero pmfs on the support interval, drawn from
    ``rng``, a numpy Generator, as an (xs, ps) stack.

    Atom locations are uniform on [a, b]; with probability 1/2 a row has the
    endpoints a and b forced in.  Each round draws one coin per open row, then
    the forced rows' other atom_count - 2 atoms, then the other rows' atoms;
    a row whose atoms all share one sign stays open for the next round.  One
    (rows, atom_count) draw of weights uniform on [0.05, 1] follows.  With
    P = sum_{x>0} w x and N = -sum_{x<=0} w x, the masses w N (x > 0) and
    w P (x <= 0) have mean zero and are normalized; a final transfer between
    the extreme atoms cancels the floating-point residual.  For one row these
    are the draws of a one-pmf loop: a coin, the atoms (again until both signs
    are in), then the weights.  The rows are not checked here:
    ``check_pmf_stack`` is FinitePmf's check for a whole stack.
    """
    import numpy as np

    if atom_count < 2:
        raise ValueError("need at least 2 atoms for a mean-zero distribution")
    a, b = support.a, support.b
    xs = np.empty((rows, atom_count))
    open_rows = np.arange(rows)
    for _ in range(1000):
        forced = rng.random(open_rows.size) < 0.5
        pinned, free = open_rows[forced], open_rows[~forced]
        xs[pinned, :2] = a, b  # a < 0 < b: both signs are in
        xs[pinned, 2:] = rng.uniform(a, b, (pinned.size, atom_count - 2))
        xs[free] = rng.uniform(a, b, (free.size, atom_count))
        open_rows = free[(xs[free].min(axis=1) >= 0.0) | (xs[free].max(axis=1) <= 0.0)]
        if not open_rows.size:
            break
    else:
        raise RuntimeError("could not draw atoms with both signs (degenerate support?)")
    w = rng.uniform(0.05, 1.0, (rows, atom_count))
    pos = xs > 0.0
    wx = w * xs
    p_sum = np.where(pos, wx, 0.0).sum(axis=1, keepdims=True)
    n_sum = -np.where(pos, 0.0, wx).sum(axis=1, keepdims=True)
    ps = w * np.where(pos, n_sum, p_sum)
    ps /= ps.sum(axis=1, keepdims=True)
    # transfer between the extreme atoms to cancel the rounding residual
    every = np.arange(rows)
    hi = every, xs.argmax(axis=1)
    lo = every, xs.argmin(axis=1)
    delta = -_row_dots(ps, xs) / (xs[hi] - xs[lo])
    ps[hi] += delta
    ps[lo] -= delta
    return xs, ps


def random_mean_zero_pmf(
    support: BoundedSupport, atom_count: int, seed: int
) -> FinitePmf:
    """The one-row ``random_mean_zero_stack`` from ``default_rng(seed)``."""
    import numpy as np

    xs, ps = random_mean_zero_stack(support, atom_count, 1, np.random.default_rng(seed))
    return FinitePmf(tuple(xs[0].tolist()), tuple(ps[0].tolist()), support)


def moment_matched_pmf(support: BoundedSupport) -> FinitePmf:
    """A concrete distribution honoring the support's declared moments.

    Without odd_moments_zero only m2 is matched, since no bound reads m4
    unless the odd moments vanish: with m2 declared, the mixture
    alpha * extremal-two-point + (1-alpha) * delta_0 with alpha = m2/(|a|b);
    without it, ``extremal_two_point``, the worst case among mean-zero laws
    on [a, b] (Hoeffding 1963).  With odd_moments_zero: symmetric atoms +-c
    (plus mass at 0), which needs c = sqrt(m4/m2) (or sqrt(m2)) to fit
    inside the interval; m2 = 0 is the point mass at 0 (``BoundedSupport``
    refuses m2 = 0 < m4).  The pair's mass m2^2/m4 needs a normal m2^2.
    """
    a, b = support.a, support.b
    m2, m4 = support.m2, support.m4
    if not support.odd_moments_zero:
        if m2 is None:
            return extremal_two_point(support)
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
    elif m2 is None:
        raise ValueError("m4 without m2 cannot be matched")
    elif m2 == 0.0:
        return FinitePmf((0.0,), (1.0,), support)
    elif m2 * m2 < sys.float_info.min:
        raise ValueError(f"m2={m2} is too small for m4: m2^2 underflows")
    else:
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

    The samples are drawn and counted ``MC_CHUNK`` at a time, so memory does
    not grow with ``samples``.  Each chunk takes the next uniforms of every
    variable's stream (one double per sample) and sums the variables in the
    same order, so the estimates do not depend on the chunk size.  A uniform
    u picks atom #{j < n-1 : cdf[j] <= u}, the index searchsorted(cdf, u,
    "right") gives once clipped to the last atom.
    """
    import numpy as np

    if samples < MIN_SAMPLES:
        raise ValueError(f"use at least {MIN_SAMPLES} samples")
    if samples > MAX_SAMPLES:
        raise ValueError(f"use at most {MAX_SAMPLES} samples")
    children = np.random.SeedSequence(seed).spawn(len(pmfs))
    rngs = [np.random.default_rng(child) for child in children]
    # interior cdf edges and atoms of each variable
    tables = [(np.cumsum(np.asarray(p.ps))[:-1], np.asarray(p.xs)) for p in pmfs]
    hits = [0] * len(ts)
    for start in range(0, samples, MC_CHUNK):
        m = min(MC_CHUNK, samples - start)
        total = np.zeros(m)
        idx = np.empty(m, dtype=np.intp)
        below = np.empty(m, dtype=bool)
        for rng, (edges, xs) in zip(rngs, tables):
            u = rng.random(m)
            idx.fill(0)
            for edge in edges:
                idx += np.less_equal(edge, u, out=below)
            total += xs[idx]
        for i, t in enumerate(ts):
            hits[i] += int(np.count_nonzero(total >= t))
    tails = []
    for count in hits:
        estimate = float(count) / samples
        tails.append((estimate, math.sqrt(estimate * (1.0 - estimate) / samples)))
    return tails


def validity_gaps(exact, log_multipliers, rates, s_values=S_POINTS):
    """max over s of exact - (log A + rho s^2); <= 0 iff that bound holds.

    s runs along the last axis of ``exact``, which broadcasts against the
    bound arrays: one row of ``exact_log_mgf_rows`` per bound checks a
    (bound x s) table, and ``exact[:, None, :]`` against one row of bounds
    checks a (pmf x bound x s) table.
    """
    import numpy as np

    s_arr = np.asarray(s_values, dtype=float)
    if not np.all(s_arr > 0.0):
        raise ValueError("bounds are stated for s > 0 only")
    log_a = np.asarray(log_multipliers, dtype=float)[..., None]
    rho = np.asarray(rates, dtype=float)[..., None]
    return np.max(exact - (log_a + rho * s_arr * s_arr), axis=-1)


def validity_gap(pmf: FinitePmf, bound: MgfBound, s_values=S_POINTS) -> float:
    """max over the s grid of (exact log MGF - certified bound); <= 0 iff sound.

    ``validity_gaps``' operations on the law's one row, in plain Python.
    """
    if not all(s > 0.0 for s in s_values):
        raise ValueError("bounds are stated for s > 0 only")
    log_a, rho = bound.log_multiplier, bound.rate
    return max(e - (log_a + rho * s * s) for e, s in zip(exact_log_mgf(pmf, s_values), s_values))
