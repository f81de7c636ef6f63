"""Command-line front end.

Subcommands::

    bound    single-variable bound catalog at one s (optionally compared)
    tail     CSV of tail certificates over t values or a t range
    select   order selection and crossover table for one scenario at one t
    verify   oracle sweep: exact MGFs and Monte Carlo vs. the certificates
    sweep    CSV of per-group log-bound curves with crossover footer rows

Each subcommand parses its flags, hands every value rule to the module that
owns it and prints CSV: ``scenario.Query`` checks t values and ranges,
``scenario.parse_family_tag`` the `bound --family/--k` tag, and
``bounds.BoundedSupport`` the interval and moments, so a flag and a scenario
file break a rule with the same message.  What is left here is about flags
alone: which go together, and that a `--t-range` COUNT is an integer.

`verify --random` draws each support's pmfs from one seeded generator, as
(xs, ps) stacks, one per atom count.  Which families apply and their rates
are found once per support; the log multipliers that read moments come from
each pmf's measured support, and all are checked against the exact log-MGF
rows as (pmf x family x s) tables.  A bad `--k-max`, `--samples` or
`--poison-rate` exits 2 before any pmf is drawn.

One-sided certificates and `sweep` curves are ``tails.log_bound`` of
``tails.totals``; `sweep` crossovers are the ``selection.regimes`` edges from
the least to the greatest t, whatever the number or order of the t values.
All numeric CSV cells use 12 significant digits and LF line endings, so the
output is byte-stable for fixed inputs and seed.  Every command runs in one
thread.  Float options must be finite, and so must every bound `tail`,
`select`, `sweep` and `bound` print at a t or s.  Exit codes: 0 success,
2 input error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from .bounds import (
    CLASSIC,
    HERTZ,
    ORDER2_MOMENT,
    ORDER4_MOMENT,
    SYMMETRIC_ORDER4,
    BoundedSupport,
    Family,
    FamilyTag,
    MgfBound,
    eval_log_mgf_bound,
    mgf_bound,
    order_k,
    reads_moments,
)
from .oracle import (
    MIN_SAMPLES,
    S_GRID,
    check_pmf_stack,
    exact_log_mgf_rows,
    extremal_two_point,
    mc_sum_tail,
    moment_matched_pmf,
    moment_rows,
    random_mean_zero_stack,
    validity_gaps,
)
from .scenario import Query, Scenario, ScenarioError, load_scenario, parse_family_tag
from .selection import crossover_table, optimize_exact, pareto_front, regimes
from .tails import (
    Side,
    log_bound,
    lower_tail,
    mirror,
    one_sided_tail,
    order_k_scenario,
    totals,
    two_sided_tail,
)

GAP_TOL = 1e-9  # validity sweep: exact log MGF may not exceed a bound by more

# Supports exercised by `verify --random` when none is given explicitly.
CANONICAL_SUPPORTS = ((-1.0, 1.0), (-1.0, 5.0), (-5.0, 1.0), (-2.0, 3.0))


def g12(x: float) -> str:
    return f"{x:.12g}"


def finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _emit(args, lines) -> None:
    text = "\n".join(lines) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _support_from_args(args) -> BoundedSupport:
    return BoundedSupport(
        a=args.a,
        b=args.b,
        m2=args.m2,
        m4=args.m4,
        odd_moments_zero=args.odd_moments_zero,
    )


def _catalog_tags(k_max: int) -> list[FamilyTag]:
    """The families `bound --compare` and `verify` check, order_k up to k_max."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    orders = [order_k(k) for k in range(1, k_max + 1)]
    return [CLASSIC, HERTZ, *orders, ORDER2_MOMENT, ORDER4_MOMENT, SYMMETRIC_ORDER4]


def _applicable_bounds(support: BoundedSupport, tags) -> list[tuple[FamilyTag, MgfBound]]:
    """(tag, bound) for every tag that applies to the support, each built once.

    A moment family whose preconditions the support does not meet is left
    out; any other bound that cannot be built is an input error.
    """
    pairs = []
    for tag in tags:
        try:
            pairs.append((tag, mgf_bound(support, tag)))
        except ValueError:
            if tag.family in (Family.CLASSIC, Family.HERTZ, Family.ORDER_K):
                raise
    return pairs


def _finite_at_s(bound: MgfBound, s: float) -> float:
    """The bound at s, which is finite only if its (log A, rho) are too."""
    value = eval_log_mgf_bound(bound, s)
    if not math.isfinite(value):
        raise ValueError(f"s={g12(s)}: the {bound.family_tag.label()} bound is not finite")
    return value


def cmd_bound(args) -> int:
    support = _support_from_args(args)
    if args.compare:
        if args.k is not None:
            raise ValueError("--k applies only to --family order_k, not --compare")
        k_max = 8 if args.k_max is None else args.k_max
        pairs = _applicable_bounds(support, _catalog_tags(k_max))
    else:
        if args.k_max is not None:
            raise ValueError("--k-max applies only to --compare")
        tag = parse_family_tag({"family": args.family, "k": args.k})
        pairs = [(tag, mgf_bound(support, tag))]
    rows = sorted(
        ((_finite_at_s(bound, args.s), tag.label(), bound) for tag, bound in pairs),
        key=lambda row: row[:2],
    )
    lines = ["family,log_multiplier,rate,eval_at_s"] + [
        f"{label},{g12(bound.log_multiplier)},{g12(bound.rate)},{g12(value)}"
        for value, label, bound in rows
    ]
    _emit(args, lines)
    return 0


def _resolve_query(scenario: Scenario, args) -> Query:
    """The scenario's query with the t values and side the flags give."""
    query = scenario.query
    ts, t_range = query.ts, query.t_range
    if getattr(args, "t", None):
        ts, t_range = tuple(args.t), None
    if getattr(args, "t_range", None):
        lo, hi, count = args.t_range
        if not count.is_integer():
            raise ValueError(f"--t-range COUNT must be an integer, got {count:g}")
        ts, t_range = None, (lo, hi, int(count))
    side = Side(args.side) if getattr(args, "side", None) else query.side
    return dataclasses.replace(query, ts=ts, t_range=t_range, side=side)


def _choice_cell(tags) -> str:
    return "|".join(str(t.k) if t.family is Family.ORDER_K else t.label() for t in tags)


def cmd_tail(args) -> int:
    scenario = load_scenario(args.scenario)
    query = _resolve_query(scenario, args)
    ts = query.resolve_ts()
    variables = scenario.variables
    two_sided = query.side is Side.TWO_SIDED
    if scenario.auto:
        k_max = 8 if args.k_max is None else args.k_max
        # the lower tail is the upper tail of the mirrored supports, so the
        # lower side selects on those
        if query.side is not Side.LOWER:
            best_up = pareto_front(variables, k_max).best
        if query.side is not Side.UPPER:
            best_dn = pareto_front(tuple(mirror(v) for v in variables), k_max).best
    elif args.k_max is not None:
        raise ValueError('--k-max applies only to "choices": "auto" scenarios')

    def row(t: float) -> str:
        if scenario.auto:
            best = best_dn if query.side is Side.LOWER else best_up
            chosen = order_k_scenario(variables, best(t).ks)
            mirrored = tuple(order_k(k) for k in best_dn(t).ks) if two_sided else None
        else:
            chosen, mirrored = scenario.sum_scenario(), None
        if query.side is Side.UPPER:
            cert = one_sided_tail(chosen, t)
        elif query.side is Side.LOWER:
            cert = lower_tail(chosen, t)
        else:
            cert = two_sided_tail(chosen, t, mirrored)
        if not (math.isfinite(cert.log_bound) and math.isfinite(cert.s_star)):
            raise ValueError(f"t={g12(t)}: the certificate is not finite")
        cell = _choice_cell(chosen.choices)
        line = f"{g12(t)},{g12(cert.log_bound)},{g12(cert.s_star)},{cell}"
        if two_sided:
            line += "," + (cell if mirrored is None else _choice_cell(mirrored))
        return line

    header = "t,log_bound,s_star,ks" + (",ks_mirror" if two_sided else "")
    lines = [header] + [row(t) for t in ts]
    _emit(args, lines)
    return 0


def cmd_select(args) -> int:
    scenario = load_scenario(args.scenario)
    ts = _resolve_query(scenario, args).resolve_ts()
    if len(ts) != 1:
        raise ValueError("select needs a single t (--t or a one-value query.t)")
    t = ts[0]
    selection = optimize_exact(scenario.variables, t, args.k_max)
    if not math.isfinite(selection.log_bound):
        raise ValueError(f"t={g12(t)}: the log bound is not finite")
    lines = [
        "k," + "|".join(map(str, selection.ks)),
        f"log_bound,{g12(selection.log_bound)}",
        "variable,k,k_next,t_star",
    ]
    for i, support in enumerate(scenario.variables, start=1):
        for k, k_next, t_star in crossover_table(support, args.k_max).thresholds:
            lines.append(f"{i},{k},{k_next},{g12(t_star)}")
    _emit(args, lines)
    return 0


def _measured_supports(support: BoundedSupport, xs, ps) -> list[BoundedSupport]:
    """The support of each (xs, ps) row: [a, b] with the row's m2 and m4."""
    m2s = moment_rows(xs, ps, 2).tolist()
    m4s = moment_rows(xs, ps, 4).tolist()
    return [BoundedSupport(support.a, support.b, m2, m4) for m2, m4 in zip(m2s, m4s)]


def _family_label(tag: FamilyTag) -> str:
    return "order_k" if tag.family is Family.ORDER_K else tag.label()


def _family_max_gaps(batches, k_max: int, poison: float) -> dict[str, float]:
    """Max (exact - bound) gap per family label over every pmf.

    ``batches`` pairs each support with its (xs[N, n], ps[N, n]) stacks.  The
    families that apply, their labels and their rates times ``poison`` are
    found once per support, on a measured-shaped support (m2 and m4 known, no
    odd moments asserted): a rate depends on [a, b] alone.  A family that
    reads no moments has one log multiplier per support, checked against
    every pmf as one (pmf x family x s) table; one that does reads each pmf's
    measured support, in a (pmf x family x s) table of its own.  Rows go one
    count of atoms with p > 0 at a time, as ``exact_log_mgf_rows`` needs.
    """
    tags = _catalog_tags(k_max)
    max_gap: dict[str, float] = {}

    def note(labels, exact, log_a, rates) -> None:
        gaps = validity_gaps(exact, log_a, rates, S_GRID).max(axis=0)
        for label, gap in zip(labels, gaps.tolist()):
            if label not in max_gap or gap > max_gap[label]:
                max_gap[label] = gap

    for support, stacks in batches:
        shape = BoundedSupport(support.a, support.b, m2=0.0, m4=0.0)
        fixed = _applicable_bounds(shape, [t for t in tags if not reads_moments(shape, t)])
        measured = _applicable_bounds(shape, [t for t in tags if reads_moments(shape, t)])
        fixed_labels = [_family_label(tag) for tag, _ in fixed]
        measured_labels = [_family_label(tag) for tag, _ in measured]
        fixed_log_a = [bound.log_multiplier for _, bound in fixed]
        fixed_rates = [bound.rate * poison for _, bound in fixed]
        measured_rates = [bound.rate * poison for _, bound in measured]
        for stack_xs, stack_ps in stacks:
            counts = np.count_nonzero(stack_ps > 0.0, axis=1)
            for count in set(counts.tolist()):
                same = counts == count
                xs, ps = stack_xs[same], stack_ps[same]
                exact = exact_log_mgf_rows(xs, ps, S_GRID)[:, None, :]
                note(fixed_labels, exact, fixed_log_a, fixed_rates)
                log_a = [
                    [mgf_bound(row, tag).log_multiplier for tag, _ in measured]
                    for row in _measured_supports(support, xs, ps)
                ]
                note(measured_labels, exact, log_a, measured_rates)
    return max_gap


def _verify_pmfs(args, scenario: Scenario | None, seed: int):
    """The (support, stacks) batches whose MGF gaps are swept, and the group
    whose sum is sampled.

    Under --random one generator, seeded by ``seed``, draws each support's
    ``count`` atom counts and then one stack per distinct count.
    """
    if scenario is not None:
        given = [f"--{flag}" for flag in ("a", "b", "pmfs")
                 if getattr(args, flag) is not None]
        if given:
            raise ValueError(f"{', '.join(given)} can only be used with --random")
        pmfs = [
            moment_matched_pmf(support, seed=seed + i)
            for i, support in enumerate(scenario.variables)
        ]
        return [(pmf.support, [pmf.stack()]) for pmf in pmfs], pmfs
    if (args.a is None) != (args.b is None):
        raise ValueError("give both --a and --b, or neither")
    count = 1000 if args.pmfs is None else args.pmfs
    if count < 0:
        raise ValueError(f"--pmfs must be >= 0, got {count}")
    if args.a is not None:
        supports = [BoundedSupport(args.a, args.b)]
    else:
        supports = [BoundedSupport(a, b) for a, b in CANONICAL_SUPPORTS]
    rng = np.random.default_rng(seed)
    group = [extremal_two_point(support) for support in supports]
    batches = []
    for support, extremal in zip(supports, group):
        atom_counts = rng.integers(2, 9, count)
        stacks = [extremal.stack()]
        for atoms, rows in zip(*np.unique(atom_counts, return_counts=True)):
            stack = random_mean_zero_stack(support, int(atoms), int(rows), rng)
            check_pmf_stack(*stack, support)
            stacks.append(stack)
        batches.append((support, stacks))
    return batches, group


def cmd_verify(args) -> int:
    if args.random == (args.scenario is not None):
        raise ValueError("give a scenario file or --random (not both)")
    scenario = None if args.random else load_scenario(args.scenario)
    # given flags win over the scenario's query, whose defaults are 0 and 10^6
    query = Query() if scenario is None else scenario.query
    seed = query.seed if args.seed is None else args.seed
    samples = query.samples if args.samples is None else args.samples
    # input errors exit before any pmf is drawn
    _catalog_tags(args.k_max)
    if not args.poison_rate > 0.0:
        raise ValueError("--poison-rate must be positive")
    if samples < MIN_SAMPLES:
        raise ValueError(f"use at least {MIN_SAMPLES} samples, got {samples}")
    batches, group = _verify_pmfs(args, scenario, seed)

    max_gap = _family_max_gaps(batches, args.k_max, args.poison_rate)
    lines = ["family,max_gap,violations"]
    violations = 0
    for label in sorted(max_gap):
        bad = 1 if max_gap[label] > GAP_TOL else 0
        violations += bad
        lines.append(f"{label},{g12(max_gap[label])},{bad}")

    # Monte Carlo side: the group's sum vs. its certificates.
    lines.append("kind,t,ks,estimate,std_error,certificate,ok")
    variables = tuple(_measured_supports(p.support, *p.stack())[0] for p in group)
    reach = sum(v.b for v in variables)
    ts = tuple(f * reach for f in (0.25, 0.5, 0.75))
    if scenario is not None and (scenario.query.ts or scenario.query.t_range):
        ts = tuple(t for t in scenario.query.resolve_ts() if t <= reach) or ts
        if len(ts) > 8:
            idx = np.linspace(0, len(ts) - 1, 8).astype(int)
            ts = tuple(ts[i] for i in idx)
    front = pareto_front(variables, args.k_max)
    tail_estimates = mc_sum_tail(group, ts, samples, seed)
    for t, (estimate, se) in zip(ts, tail_estimates):
        candidates = [(k,) * len(group) for k in (1, 2) if k <= args.k_max]
        best = front.best(t).ks
        if best not in candidates:
            candidates.append(best)
        for ks in candidates:
            cert = one_sided_tail(order_k_scenario(variables, ks), t)
            certificate = math.exp(min(cert.log_bound, 0.0))
            ok = estimate <= certificate + 3.0 * se
            if not ok:
                violations += 1
            lines.append(
                f"mc,{g12(t)},{'|'.join(map(str, ks))},{g12(estimate)},"
                f"{g12(se)},{g12(certificate)},{int(ok)}"
            )
    lines.append("verdict," + ("ok" if violations == 0 else "violation"))
    _emit(args, lines)
    return 0 if violations == 0 else 4


def _parse_group(text: str, n: int) -> tuple[int, ...]:
    try:
        ks = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--group must be comma-separated integers, got {text!r}")
    if len(ks) != n or any(k < 1 for k in ks):
        raise ValueError(f"--group needs {n} integers >= 1, got {text!r}")
    return ks


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    query = _resolve_query(scenario, args)
    ts = np.asarray(query.resolve_ts())
    variables = scenario.variables
    if args.group:
        groups = [_parse_group(g, len(variables)) for g in args.group]
        scenarios = [order_k_scenario(variables, ks) for ks in groups]
    elif not scenario.auto:
        scenarios = [scenario.sum_scenario()]
    else:
        raise ValueError("sweep needs --group selections (or explicit choices)")

    big_l, big_r = np.array([totals(s) for s in scenarios]).T
    with np.errstate(over="ignore"):  # an overflow is reported just below
        curves = log_bound(big_l[:, None], big_r[:, None], ts)
    bad = ~np.isfinite(curves).all(axis=0)
    if bad.any():
        raise ValueError(f"t={g12(ts[bad.argmax()])}: the log bound is not finite")
    names = [f"group{i + 1}" for i in range(len(scenarios))]
    lines = ["t," + ",".join(names)]
    for t, column in zip(ts.tolist(), curves.T.tolist()):
        lines.append(g12(t) + "," + ",".join(g12(c) for c in column))

    # crossovers of the lower envelope over the t span, in closed form
    runs = regimes(big_l, big_r, ts.min(), ts.max())
    for (_, edge, before), (_, _, after) in zip(runs, runs[1:]):
        lines.append(f"crossover,{names[before]}->{names[after]},{g12(edge)}")
    _emit(args, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbounds",
        description="Order-k MGF bounds and Chernoff tail certificates "
        "for sums of bounded zero-mean variables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, k_max=True):
        p.add_argument("--out", help="write output to this file instead of stdout")
        if k_max:
            p.add_argument("--k-max", type=int, default=8, dest="k_max")

    p_bound = sub.add_parser("bound", help="single-variable bound catalog")
    p_bound.add_argument("--a", type=finite_float, required=True)
    p_bound.add_argument("--b", type=finite_float, required=True)
    p_bound.add_argument("--m2", type=finite_float)
    p_bound.add_argument("--m4", type=finite_float)
    p_bound.add_argument("--odd-moments-zero", action="store_true")
    which = p_bound.add_mutually_exclusive_group(required=True)
    which.add_argument("--family", help="classic, hertz, order_k, ...")
    which.add_argument("--compare", action="store_true")
    p_bound.add_argument("--k", type=int, help="the order of --family order_k")
    p_bound.add_argument("--s", type=finite_float, required=True)
    p_bound.add_argument("--k-max", type=int, dest="k_max",
                         help="default 8; only with --compare")
    add_common(p_bound, k_max=False)
    p_bound.set_defaults(func=cmd_bound)

    p_tail = sub.add_parser("tail", help="tail certificates over t")
    p_tail.add_argument("scenario")
    p_tail.add_argument("--t", type=finite_float, nargs="+")
    p_tail.add_argument("--t-range", type=finite_float, nargs=3, metavar=("MIN", "MAX", "N"))
    p_tail.add_argument("--side", choices=[s.value for s in Side])
    p_tail.add_argument("--k-max", type=int, dest="k_max",
                        help='default 8; only for "choices": "auto"')
    add_common(p_tail, k_max=False)
    p_tail.set_defaults(func=cmd_tail)

    p_select = sub.add_parser("select", help="order selection + crossover table")
    p_select.add_argument("scenario")
    p_select.add_argument("--t", type=finite_float, nargs=1)
    add_common(p_select)
    p_select.set_defaults(func=cmd_select)

    p_verify = sub.add_parser("verify", help="oracle sweep against certificates")
    p_verify.add_argument("scenario", nargs="?")
    p_verify.add_argument("--random", action="store_true",
                          help="random pmfs on canonical (or --a/--b) supports")
    p_verify.add_argument("--a", type=finite_float)
    p_verify.add_argument("--b", type=finite_float)
    p_verify.add_argument("--pmfs", type=int,
                          help="random pmfs per support (--random only; default 1000)")
    p_verify.add_argument("--samples", type=int, help="default: query.samples, else 10^6")
    p_verify.add_argument("--seed", type=int, help="default: query.seed, else 0")
    p_verify.add_argument("--poison-rate", type=finite_float, default=1.0,
                          help=argparse.SUPPRESS)  # negative-control test hook
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="per-group bound curves over a t range")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--t-range", type=finite_float, nargs=3, metavar=("MIN", "MAX", "N"))
    p_sweep.add_argument("--group", action="append",
                         help="comma-separated k per variable; repeatable")
    add_common(p_sweep, k_max=False)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
