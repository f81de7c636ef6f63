"""Ground truth the analytic bounds are checked against.

Finite-support mean-zero distributions admit exact MGFs and moments, every
bounded distribution is a weak limit of them, and all quantities of interest
are continuous under that limit — so falsification runs entirely on exact
finite pmfs: exact sum tails by convolution, and seeded Monte Carlo for a sum
with too many distinct values.  Nothing in this module uses the bound formulas
it is meant to check.

A few laws need no numpy.  ``FinitePmf`` checks its atoms in plain Python,
``law_log_mgf`` and ``law_moment`` evaluate one pmf, and ``exact_sum_tail``
convolves a sum of them.  Pmfs in bulk travel as (xs[N, n], ps[N, n]) stacks,
and every function of a stack imports numpy when it runs:
``random_mean_zero_stack`` draws a whole stack from one generator,
``check_pmf_stack`` checks them, ``exact_log_mgf_rows`` and ``moment_rows``
evaluate them, whatever number of atoms with p > 0 each row has, and
``validity_gaps`` and ``mc_sum_tail`` check and sample them.
``random_mean_zero_pmf`` is the one-row stack from ``default_rng(seed)``.
``exact_log_mgf``, ``moments`` and ``validity_gap`` are the one-row calls of
the others, and every row they evaluate is bit for bit the number its one-row
call gives.  ``S_GRID`` is ``S_POINTS`` as a numpy array, built on first use.
"""

from __future__ import annotations

import bisect
import math

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

    def stack(self):
        """The pmf as a one-row (xs, ps) stack of numpy arrays."""
        import numpy as np

        return np.asarray(self.xs)[None], np.asarray(self.ps)[None]


def _fma(x: float, y: float, z: float) -> float:
    """x * y + z rounded once, as a fused multiply-add rounds it (finite x, y, z).

    Every float is an integer over a power of two, so the sum is one exact
    fraction, and dividing Python ints rounds correctly.
    """
    (xn, xd), (yn, yd), (zn, zd) = (v.as_integer_ratio() for v in (x, y, z))
    d = xd * yd
    if d < zd:
        return (xn * yn * (zd // d) + zn) / zd
    return (xn * yn + zn * (d // zd)) / d


def _dot(us, vs) -> float:
    """sum of u_i v_i with one fused multiply-add per term, in order from 0.0.

    That is how the x86-64 OpenBLAS kernels behind numpy's dot round fewer
    than 16 terms; the tests pin it against numpy's dot.
    """
    total = 0.0
    for u, v in zip(us, vs):
        total = _fma(u, v, total)
    return total


def _check_pmf(xs, ps, support: BoundedSupport) -> None:
    """``check_pmf_stack`` of the one-row stack (xs, ps), in plain Python.

    The same checks in the same order, with the same messages.  The sum adds
    the masses in order and the mean is ``_dot``: numpy's numbers for fewer
    than 8 atoms.
    """
    if len(xs) != len(ps) or len(xs) == 0:
        raise ValueError("xs and ps must be equal-length non-empty sequences")
    if not all(map(math.isfinite, (*xs, *ps))):  # NaN passes every check below
        raise ValueError("atoms and probabilities must be finite")
    if min(ps) < 0.0:
        raise ValueError("probabilities must be nonnegative")
    if min(xs) < support.a or max(xs) > support.b:
        raise ValueError("atoms must lie inside the support interval")
    total = 0.0
    for p in ps:
        total += p
    if abs(total - 1.0) > _SUM_TOL:
        raise ValueError(f"probabilities sum to {total}, not 1")
    mean = _dot(ps, xs)
    # rounding in ps @ xs grows with the size of the atoms
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

    Rows with the same number of atoms with p > 0 are one (pmf, s, atom)
    logsumexp over those atoms, and come back in stack order.  They are not
    padded to a common count: numpy sums 8 or more terms pairwise, so a padded
    sum could differ in the last bit from the sum over the pmf's own atoms.
    """
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    s_arr = np.asarray(s_values, dtype=float)
    keep = ps > 0.0
    if not keep.all():
        counts = keep.sum(axis=1)
        out = np.empty((len(xs), s_arr.size))
        for count in np.unique(counts).tolist():
            same = counts == count
            # each row's atoms with p > 0, in their own order: all p > 0 now
            order = np.argsort(~keep[same], axis=1, kind="stable")[:, :count]
            x, p = (np.take_along_axis(v[same], order, axis=1) for v in (xs, ps))
            out[same] = exact_log_mgf_rows(x, p, s_arr)
        return out
    terms = np.log(ps)[:, None, :] + s_arr[None, :, None] * xs[:, None, :]
    peak = terms.max(axis=2, keepdims=True)
    return peak[:, :, 0] + np.log(np.exp(terms - peak).sum(axis=2))


def exact_log_mgf(pmf: FinitePmf, s):
    """log E[exp(sX)] = logsumexp(log p_i + s x_i); s may be scalar or array."""
    import numpy as np

    out = exact_log_mgf_rows(*pmf.stack(), np.atleast_1d(np.asarray(s, dtype=float)))[0]
    return float(out[0]) if np.ndim(s) == 0 else out


def moment_rows(xs, ps, order: int):
    """E[X^order] for every row of a (xs[N, n], ps[N, n]) stack, exactly."""
    import numpy as np

    if order < 1:
        raise ValueError("order must be >= 1")
    return _row_dots(np.asarray(ps), np.asarray(xs) ** order)


def moments(pmf: FinitePmf, order: int) -> float:
    """E[X^order], exactly."""
    return float(moment_rows(*pmf.stack(), order)[0])


def law_log_mgf(pmf: FinitePmf, s_values) -> list[float]:
    """``exact_log_mgf`` at each s, in plain Python.

    The same operations on the pmf's atoms with p > 0: log p + s x, less
    their peak, exponentiated and added in order, then the log of the sum
    plus the peak.  For fewer than 8 such atoms numpy adds in the same order,
    so a value can differ only where math's exp or log rounds otherwise than
    numpy's, by an ulp.
    """
    atoms = [(x, math.log(p)) for x, p in zip(pmf.xs, pmf.ps) if p > 0.0]
    out = []
    for s in s_values:
        terms = [log_p + s * x for x, log_p in atoms]
        peak = max(terms)
        total = 0.0
        for term in terms:
            total += math.exp(term - peak)
        out.append(peak + math.log(total))
    return out


def law_moment(pmf: FinitePmf, order: int) -> float:
    """``moments`` in plain Python: ``_dot`` of the masses and the powers.

    The dot is numpy's for fewer than 16 atoms, and so is a square, x * x.  A
    higher power is libm's pow, which can round otherwise than numpy's by an
    ulp.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return _dot(pmf.ps, [x * x if order == 2 else x ** order for x in pmf.xs])


def exact_sum_tail(pmfs, ts) -> list[float] | None:
    """P(X_1 + ... + X_n >= t) for each t in ``ts``, exactly, by convolution;
    None once the sum takes more than ``MAX_SUMS`` distinct values.

    The sum adds the variables' atoms with p > 0 in variable order from 0.0,
    as ``mc_sum_tail`` does, and equal sums merge.  A sum within 1e-9 of t,
    relative to the larger of t and the sum's width (the sum of each
    variable's largest |x|), counts toward the tail: the rounding of a sum
    that equals t cannot make the tail smaller.  Each tail is the correctly
    rounded sum of its masses, at most 1.
    """
    sums = {0.0: 1.0}
    width = 0.0
    for pmf in pmfs:
        atoms = [(x, p) for x, p in zip(pmf.xs, pmf.ps) if p > 0.0]
        width += max(abs(x) for x in pmf.xs)
        merged: dict[float, float] = {}
        for total, mass in sums.items():
            for x, p in atoms:
                key = total + x
                merged[key] = merged.get(key, 0.0) + mass * p
            if len(merged) > MAX_SUMS:
                return None
        sums = merged
    totals = sorted(sums)
    masses = [sums[total] for total in totals]
    tails = []
    for t in ts:
        first = bisect.bisect_left(totals, t - 1e-9 * max(width, abs(t)))
        tails.append(min(math.fsum(masses[first:]), 1.0))
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
    inside the interval.
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
    """max over the s grid of (exact log MGF - certified bound); <= 0 iff sound."""
    exact = exact_log_mgf_rows(*pmf.stack(), s_values)
    return float(validity_gaps(exact, [bound.log_multiplier], [bound.rate], s_values)[0])
