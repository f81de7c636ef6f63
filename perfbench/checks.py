"""Checks of kbounds CLI output against the independent reference.

Each check takes the command's standard output and what the benchmark knows
about the command's inputs, recomputes every number it can from
`reference`, and raises CheckError on the first disagreement.  No check
compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref
from reference import Support


# Orders run from 1 to the CLI's default --k-max, which the benchmark keeps.
K_MAX = 8


class CheckError(ValueError):
    """The output contradicts the reference or a property of the method."""


def _rows(text: str) -> list[list[str]]:
    if not text.endswith("\n"):
        raise CheckError("output does not end with a newline")
    return [line.split(",") for line in text[:-1].split("\n")]


def _num(cell: str, where: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise CheckError(f"{where}: {cell!r} is not a number") from None


def _ks(cell: str, n: int, where: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(part) for part in cell.split("|"))
    except ValueError:
        raise CheckError(f"{where}: bad order vector {cell!r}") from None
    if len(ks) != n or min(ks) < 1:
        raise CheckError(f"{where}: order vector {cell!r} is not in {{1..k_max}}^{n}")
    return ks


def _header(row: list[str], expected: str) -> None:
    if ",".join(row) != expected:
        raise CheckError(f"header {','.join(row)!r}, expected {expected!r}")


def _expect_close(got: float, want: float, mag: float, where: str) -> None:
    if not ref.close(got, want, mag):
        raise CheckError(f"{where}: {got!r} but the reference gives {want!r}")


def choice_cell(choices) -> str:
    """How `tail` prints a fixed choice vector."""
    return "|".join(str(k) if family == "order_k" else family for family, k in choices)


def _check_ts(got, ts, where: str) -> None:
    if len(got) != len(ts):
        raise CheckError(f"{where}: {len(got)} rows, expected {len(ts)}")
    for i, (g, t) in enumerate(zip(got, ts)):
        _expect_close(g, t, 0.0, f"{where} row {i + 1} t")


def _optimal(obj: float, best: float, mag: float, where: str) -> None:
    if obj > best + ref.REL_TOL * abs(best) + 1e-12 * mag:
        raise CheckError(
            f"{where}: printed orders give {obj!r}, the lattice minimum is {best!r}"
        )


def check_tail(text: str, supports, ts, side: str, choices=None) -> None:
    """`tail` rows: log_bound and s_star recomputed from the printed orders.

    With `choices` None the scenario is auto: the printed orders must also
    reach the brute-force lattice minimum (any optimal vector may win a tie).
    """
    rows = _rows(text)
    two = side == "two_sided"
    _header(rows[0], "t,log_bound,s_star,ks" + (",ks_mirror" if two else ""))
    body = rows[1:]
    ts = np.asarray(ts, dtype=float)
    width = 5 if two else 4
    for i, row in enumerate(body):
        if len(row) != width:
            raise CheckError(f"tail row {i + 1}: {len(row)} cells, expected {width}")
    _check_ts([_num(r[0], "tail t") for r in body], ts, "tail")
    supports = list(supports)
    mirrored = [ref.mirror(s) for s in supports]
    n = len(supports)
    if choices is None:
        up_best = ref.lattice_min(supports, K_MAX, ts) if side != "lower" else None
        dn_best = ref.lattice_min(mirrored, K_MAX, ts) if side != "upper" else None
    else:
        cell = choice_cell(choices)
        up_fixed = ref.totals(supports, choices)
        dn_fixed = ref.totals(mirrored, choices)
    for i, row in enumerate(body):
        where = f"tail {side} row {i + 1}"
        t = float(ts[i])
        sides = []  # (L, R) of the upper (or only) side, then the mirrored side
        if choices is None:
            # (cell, supports, lattice minimum) for each side the row certifies
            plan = [(3, mirrored, dn_best)] if side == "lower" else [(3, supports, up_best)]
            if two:
                plan.append((4, mirrored, dn_best))
            for column, sups, best in plan:
                ks = _ks(row[column], n, where)
                big_l, big_r = ref.order_k_totals(sups, ks)
                _optimal(ref.log_bound(big_l, big_r, t), float(best[i]),
                         ref.scale(big_l, big_r, t), f"{where} column {column + 1}")
                sides.append((big_l, big_r))
        else:
            if row[3] != cell or (two and row[4] != cell):
                raise CheckError(f"{where}: choice cell {row[3]!r}, expected {cell!r}")
            sides.append(dn_fixed if side == "lower" else up_fixed)
            if two:
                sides.append(dn_fixed)
        values = [ref.log_bound(big_l, big_r, t) for big_l, big_r in sides]
        want = float(np.logaddexp.reduce(values))
        mag = max(ref.scale(big_l, big_r, t) for big_l, big_r in sides)
        _expect_close(_num(row[1], where), want, mag, where + " log_bound")
        _expect_close(_num(row[2], where), ref.s_star(sides[0][1], t), 0.0,
                      where + " s_star")


def check_select(text: str, supports, t: float) -> None:
    """`select`: optimal orders, their log bound, and the t* table."""
    rows = _rows(text)
    supports = list(supports)
    n = len(supports)
    if len(rows) != 3 + n * K_MAX:
        raise CheckError(f"select: {len(rows)} lines, expected {3 + n * K_MAX}")
    if rows[0][0] != "k" or len(rows[0]) != 2:
        raise CheckError(f"select: first line {rows[0]!r}")
    ks = _ks(rows[0][1], n, "select k")
    big_l, big_r = ref.order_k_totals(supports, ks)
    obj = ref.log_bound(big_l, big_r, t)
    mag = ref.scale(big_l, big_r, t)
    _optimal(obj, float(ref.lattice_min(supports, K_MAX, [t])[0]), mag, "select")
    if rows[1][0] != "log_bound" or len(rows[1]) != 2:
        raise CheckError(f"select: second line {rows[1]!r}")
    _expect_close(_num(rows[1][1], "select log_bound"), obj, mag, "select log_bound")
    _header(rows[2], "variable,k,k_next,t_star")
    expected = [(i, k) for i in range(1, n + 1) for k in range(1, K_MAX + 1)]
    for row, (i, k) in zip(rows[3:], expected):
        where = f"select t_star variable {i} k {k}"
        if row[:3] != [str(i), str(k), str(k + 1)] or len(row) != 4:
            raise CheckError(f"{where}: row {row!r}")
        want = ref.t_star(supports[i - 1], k)
        got = _num(row[3], where)
        if want is None:
            if not math.isnan(got):
                raise CheckError(f"{where}: {got!r}, but A_{k + 1} < A_{k}")
        elif math.isnan(got):
            raise CheckError(f"{where}: nan, but A_{k + 1} >= A_{k}")
        else:
            _expect_close(got, want, 0.0, where)


def check_sweep(text: str, supports, groups, ts) -> None:
    """`sweep`: each curve against L - t^2/(4R), crossovers in closed form.

    `groups` holds one choice vector, as (family, k) pairs, per curve.
    """
    rows = _rows(text)
    names = [f"group{i + 1}" for i in range(len(groups))]
    _header(rows[0], "t," + ",".join(names))
    ts = np.asarray(ts, dtype=float)
    body = rows[1 : 1 + len(ts)]
    footer = rows[1 + len(ts) :]
    for i, row in enumerate(body):
        if len(row) != 1 + len(groups) or row[0] == "crossover":
            raise CheckError(f"sweep row {i + 1}: {row!r}")
    _check_ts([_num(r[0], "sweep t") for r in body], ts, "sweep")
    totals = [ref.totals(supports, g) for g in groups]
    curves = np.array([big_l - ts * ts / (4.0 * big_r) for big_l, big_r in totals])
    for j, (big_l, big_r) in enumerate(totals):
        for i, row in enumerate(body):
            t = float(ts[i])
            _expect_close(_num(row[1 + j], "sweep"), float(curves[j, i]),
                          ref.scale(big_l, big_r, t), f"sweep {names[j]} row {i + 1}")
    winners = np.argmin(curves, axis=0)
    expected = []
    for i in range(1, len(ts)):
        before, after = int(winners[i - 1]), int(winners[i])
        if before != after:
            t_cross = ref.crossover(*totals[before], *totals[after])
            expected.append((f"{names[before]}->{names[after]}", t_cross))
    if len(footer) != len(expected):
        raise CheckError(f"sweep: {len(footer)} crossover rows, expected {len(expected)}")
    for row, (label, t_cross) in zip(footer, expected):
        if len(row) != 3 or row[0] != "crossover" or row[1] != label:
            raise CheckError(f"sweep crossover row {row!r}, expected {label}")
        got = _num(row[2], "crossover")
        if t_cross is None or abs(got - t_cross) > ref.BISECT_TOL:
            raise CheckError(
                f"sweep crossover {label} at {got!r}, closed form gives {t_cross!r}"
            )


def check_bound_compare(text: str, support: Support, s: float) -> None:
    """`bound --compare`: every applicable family, sorted by its value at s."""
    rows = _rows(text)
    _header(rows[0], "family,log_multiplier,rate,eval_at_s")
    want = {}
    for family, k in ref.applicable(support, K_MAX):
        label = f"order_k[{k}]" if family == "order_k" else family
        want[label] = ref.pair(support, family, k)
    got_labels = [row[0] for row in rows[1:]]
    if sorted(got_labels) != sorted(want):
        raise CheckError(f"bound: families {got_labels}, expected {sorted(want)}")
    previous = -math.inf
    for row in rows[1:]:
        label = row[0]
        if len(row) != 4:
            raise CheckError(f"bound row {row!r}")
        log_mult, rate = want[label]
        value = log_mult + rate * s * s
        _expect_close(_num(row[1], label), log_mult, 0.0, f"bound {label} log_multiplier")
        _expect_close(_num(row[2], label), rate, 0.0, f"bound {label} rate")
        _expect_close(_num(row[3], label), value, value, f"bound {label} eval_at_s")
        if value < previous - ref.REL_TOL * abs(previous):
            raise CheckError(f"bound: rows not sorted by eval_at_s at {label}")
        previous = value


def check_verify(text: str, random_supports=None, samples: int = 10 ** 6) -> None:
    """`verify`: a clean verdict, every gap within GAP_TOL, sound MC rows.

    For `verify --random` (`random_supports` given) the sweep includes the
    extremal two-point law of each support, so each family's max gap must be
    at least the reference gap of those laws; the Monte Carlo rows sum the
    same laws, so each estimate must lie within 5 standard errors of their
    exact convolution tail, and each certificate is recomputed.
    """
    rows = _rows(text)
    _header(rows[0], "family,max_gap,violations")
    split = next((i for i, r in enumerate(rows) if r[0] == "kind"), None)
    if split is None:
        raise CheckError("verify: no Monte Carlo section")
    gaps = {}
    for row in rows[1:split]:
        if len(row) != 3:
            raise CheckError(f"verify gap row {row!r}")
        gap = _num(row[1], row[0])
        if gap > ref.GAP_TOL or row[2] != "0":
            raise CheckError(f"verify: family {row[0]} gap {gap!r} exceeds {ref.GAP_TOL}")
        gaps[row[0]] = gap
    for family in ("classic", "hertz", "order_k"):
        if family not in gaps:
            raise CheckError(f"verify: no gap row for {family}")
    _header(rows[split], "kind,t,ks,estimate,std_error,certificate,ok")
    if rows[-1] != ["verdict", "ok"]:
        raise CheckError(f"verify: last line {','.join(rows[-1])!r}, expected verdict,ok")
    mc = rows[split + 1 : -1]
    if not mc:
        raise CheckError("verify: no Monte Carlo rows")
    parsed = []
    for row in mc:
        if len(row) != 7 or row[0] != "mc":
            raise CheckError(f"verify mc row {row!r}")
        t, estimate, se, cert = (_num(row[i], "mc") for i in (1, 3, 4, 5))
        if not (0.0 <= estimate <= 1.0 and se >= 0.0 and 0.0 < cert <= 1.0):
            raise CheckError(f"verify mc row out of range: {row!r}")
        if row[6] != "1" or estimate > cert + 3.0 * se:
            raise CheckError(f"verify mc row not sound: {row!r}")
        parsed.append((t, row[2], estimate, se, cert))
    if random_supports is not None:
        _check_random(gaps, parsed, list(random_supports), samples)


def _check_random(gaps, parsed, supports, samples: int) -> None:
    measured = [ref.extremal_moments(s) for s in supports]
    laws = [ref.extremal_two_point(s) for s in supports]
    floor: dict[str, float] = {}
    for sup, (xs, ps) in zip(measured, laws):
        for family, k in ref.applicable(sup, K_MAX):
            gap = ref.validity_gap(xs, ps, *ref.pair(sup, family, k))
            floor[family] = max(floor.get(family, -math.inf), gap)
    for label, want in floor.items():
        got = gaps.get(label)
        if got is None or got < want - (1e-12 + ref.REL_TOL * abs(want)):
            raise CheckError(
                f"verify: {label} max gap {got!r} is below the extremal law's {want!r}"
            )
    reach = sum(s.b for s in supports)
    want_ts = [f * reach for f in (0.25, 0.5, 0.75)]
    got_ts = sorted({t for t, *_ in parsed})
    if len(got_ts) != len(want_ts):
        raise CheckError(f"verify: Monte Carlo at t {got_ts}, expected {want_ts}")
    for g, w in zip(got_ts, want_ts):
        _expect_close(g, w, 0.0, "verify mc t")
    for t, cell, estimate, se, cert in parsed:
        where = f"verify mc t={t!r} ks={cell}"
        ks = _ks(cell, len(supports), where)
        big_l, big_r = ref.order_k_totals(measured, ks)
        log_cert = min(ref.log_bound(big_l, big_r, t), 0.0)
        want = math.exp(log_cert)
        if abs(cert - want) > want * (ref.REL_TOL + 1e-12 * ref.scale(big_l, big_r, t)):
            raise CheckError(f"{where}: certificate {cert!r}, reference {want!r}")
        low, high = ref.sum_tail(laws, t)
        p = 0.5 * (low + high)
        spread = 5.0 * max(se, math.sqrt(p * (1.0 - p) / samples))
        if not low - spread <= estimate <= high + spread:
            raise CheckError(
                f"{where}: estimate {estimate!r} is more than 5 se from the exact "
                f"tail [{low!r}, {high!r}]"
            )
