"""Command-line front end.

Subcommands::

    bound    single-variable bound catalog at one s (optionally compared)
    tail     CSV of tail certificates over t values or a t range
    select   order selection and crossover table for one scenario at one t
    verify   oracle sweep: exact MGFs and exact sum tails vs. the certificates
    sweep    CSV of per-group log-bound curves with crossover footer rows

Each subcommand parses its flags, hands every value rule to the module that
owns it and prints CSV: ``scenario.Query`` checks t values and ranges, seeds
and sample counts (`--t` and `--t-range` together break its rule as a file's
t and t_range do), ``scenario.parse_family_tag`` the `bound --family/--k` tag,
``bounds.BoundedSupport`` the interval and moments, and ``bounds.catalog``
which families `bound --compare` and `verify` check.  What is left here is
about flags alone: which go together, and that a `--t-range` COUNT is an
integer; ``_resolve_query`` puts the t, side, seed and sample flags in the query.

`verify` turns `--random` into a scenario (the canonical or `--a`/`--b`
supports, auto choices, no query) and passes it with its resolved query to
``kbounds.verify.run``, which checks the rest before it builds any law (so a
bad `--k-max`, `--poison-rate` or interval exits 2 first) and returns the gap
and tail rows with their verdicts; `cmd_verify` imports that module when it
runs and writes the rows as CSV.  Everything here is pure Python, `t_range`
grids (``scenario.grid``) and `sweep`'s (group x t) table included, and so is
a `verify` of laws alone: numpy loads only for `verify --random`'s random pmfs
(`--pmfs` > 0) or for a sum of laws too large to convolve, which is sampled.
`select` rejects a t range before it builds one.

Every command reads the query's side (a file's ``query.side``, or `tail
--side`) through ``tails.sides``, which gives each side's supports (the lower
side's are the variables on [-b, -a]).  Which certificate a side prints at t,
and its ks cell, is ``selection.certificates``'s one rule (the front's first
minimum under auto choices, else the file's choices): a `tail` row is its
answer at t, ``tails.two_sided`` of the two for a two-sided query, `select`
prints its one answer at its t with the crossover table, and `verify`'s
tail rows check against it.
`select`, `sweep` and `verify` answer one side: they run on
``tails.one_side``'s supports, so a lower side prints what the upper side of
the variables on [-b, -a] prints, and a two-sided query exits 2.  `sweep`
curves are ``tails.log_bound`` of ``tails.totals``; its crossovers are the
``selection.regimes`` edges from the least to the greatest t, whatever the
number or order of the t values.
All numeric CSV cells use 12 significant digits and LF line endings, so the
output is byte-stable for fixed inputs and seed.  Every command runs in one
thread.  Float options must be finite, and so must every bound `tail`,
`select`, `sweep` and `bound` print at a t or s.  Exit codes: 0 success,
2 input error (an `--out` path that cannot be written too), 4 verification
failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from .bounds import BoundedSupport, MgfBound, catalog, eval_log_mgf_bound, mgf_bound
from .scenario import Query, Scenario, load_scenario, parse_family_tag
from .selection import K_MAX, certificates, crossover_table, regimes
from .tails import Side, SumScenario, log_bound, one_side, order_k_scenario, totals, two_sided


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
        try:
            with open(args.out, "w", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _finite_at_s(bound: MgfBound, s: float) -> float:
    """The bound at s, which is finite only if its (log A, rho) are too."""
    value = eval_log_mgf_bound(bound, s)
    if not math.isfinite(value):
        raise ValueError(f"s={g12(s)}: the {bound.family_tag.label()} bound is not finite")
    return value


def cmd_bound(args) -> int:
    support = BoundedSupport(args.a, args.b, args.m2, args.m4, args.odd_moments_zero)
    if args.compare:
        if args.k is not None:
            raise ValueError("--k applies only to --family order_k, not --compare")
        bounds = catalog(support, K_MAX if args.k_max is None else args.k_max)
    else:
        if args.k_max is not None:
            raise ValueError("--k-max applies only to --compare")
        bounds = [mgf_bound(support, parse_family_tag({"family": args.family, "k": args.k}))]
    rows = sorted(
        ((_finite_at_s(bound, args.s), bound.family_tag.label(), bound) for bound in bounds),
        key=lambda row: row[:2],
    )
    lines = ["family,log_multiplier,rate,eval_at_s"] + [
        f"{label},{g12(bound.log_multiplier)},{g12(bound.rate)},{g12(value)}"
        for value, label, bound in rows
    ]
    _emit(args, lines)
    return 0


def _resolve_query(scenario: Scenario, args) -> Query:
    """The scenario's query with the t values, side, seed and samples the flags give."""
    query = scenario.query
    ts, t_range = query.ts, query.t_range
    flag_ts, flag_range = getattr(args, "t", None), getattr(args, "t_range", None)
    if flag_ts or flag_range:  # the flags replace both, so Query sees them together
        ts, t_range = flag_ts and tuple(flag_ts), None
        if flag_range:
            lo, hi, count = flag_range
            if not count.is_integer():
                raise ValueError(f"--t-range COUNT must be an integer, got {count:g}")
            t_range = (lo, hi, int(count))
    side = Side(args.side) if getattr(args, "side", None) else query.side
    seed, samples = getattr(args, "seed", None), getattr(args, "samples", None)
    return query.replace(ts=ts, t_range=t_range, side=side,
                         seed=query.seed if seed is None else seed,
                         samples=query.samples if samples is None else samples)


def cmd_tail(args) -> int:
    scenario = load_scenario(args.scenario)
    query = _resolve_query(scenario, args)
    ts = query.resolve_ts()
    if not scenario.auto and args.k_max is not None:
        raise ValueError('--k-max applies only to "choices": "auto" scenarios')
    rule = certificates(scenario.variables, scenario.choices, query.side,
                        K_MAX if args.k_max is None else args.k_max)

    def row(t: float) -> str:
        certs, cells = zip(*rule(t))
        cert = two_sided(*certs) if len(certs) == 2 else certs[0]
        if not (math.isfinite(cert.log_bound) and math.isfinite(cert.s_star)):
            raise ValueError(f"t={g12(t)}: the certificate is not finite")
        return f"{g12(t)},{g12(cert.log_bound)},{g12(cert.s_star)}," + ",".join(cells)

    header = "t,log_bound,s_star,ks" + (",ks_mirror" if query.side is Side.TWO_SIDED else "")
    lines = [header] + [row(t) for t in ts]
    _emit(args, lines)
    return 0


def cmd_select(args) -> int:
    scenario = load_scenario(args.scenario)
    query = _resolve_query(scenario, args)
    ts = () if query.t_range else query.resolve_ts()  # a range has 2 or more t
    if len(ts) != 1:
        raise ValueError("select needs a single t (--t or a one-value query.t)")
    t = ts[0]
    variables = one_side(scenario.variables, query.side)
    [(cert, cell)] = certificates(scenario.variables, scenario.choices, query.side,
                                  args.k_max)(t)  # `tail`'s row at t
    if not math.isfinite(cert.log_bound):
        raise ValueError(f"t={g12(t)}: the log bound is not finite")
    lines = [
        f"k,{cell}",
        f"log_bound,{g12(cert.log_bound)}",
        "variable,k,k_next,t_star",
    ]
    for i, support in enumerate(variables, start=1):
        for k, k_next, t_star in crossover_table(support, args.k_max):
            lines.append(f"{i},{k},{k_next},{g12(t_star)}")
    _emit(args, lines)
    return 0


def cmd_verify(args) -> int:
    # verify and the oracle load only when verify runs
    from . import verify

    if args.random == (args.scenario is not None):
        raise ValueError("give a scenario file or --random (not both)")
    if args.random:  # the canonical or --a/--b supports, auto choices, no query
        if (args.a is None) != (args.b is None):
            raise ValueError("give both --a and --b, or neither")
        if args.pmfs is not None and args.pmfs < 0:
            raise ValueError(f"--pmfs must be >= 0, got {args.pmfs}")
        intervals = verify.CANONICAL_SUPPORTS if args.a is None else [(args.a, args.b)]
        scenario = Scenario(tuple(BoundedSupport(a, b) for a, b in intervals), None, Query())
        pmfs = 1000 if args.pmfs is None else args.pmfs
    else:
        scenario = load_scenario(args.scenario)
        given = [f"--{flag}" for flag in ("a", "b", "pmfs") if getattr(args, flag) is not None]
        if given:
            raise ValueError(f"{', '.join(given)} can only be used with --random")
        pmfs = 0
    query = _resolve_query(scenario, args)
    gaps, mc = verify.run(scenario.replace(query=query), pmfs, args.k_max, args.poison_rate)
    lines = ["family,max_gap,violations"]
    lines += [f"{label},{g12(gap)},{int(bad)}" for label, gap, bad in gaps]
    lines.append("kind,t,ks,estimate,std_error,certificate,ok")
    lines += [f"mc,{g12(t)},{ks},{g12(estimate)},{g12(se)},{g12(certificate)},{int(ok)}"
              for t, ks, estimate, se, certificate, ok in mc]
    clean = not any(bad for *_, bad in gaps) and all(ok for *_, ok in mc)
    lines.append("verdict," + ("ok" if clean else "violation"))
    _emit(args, lines)
    return 0 if clean else 4


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
    ts = query.resolve_ts()
    variables = one_side(scenario.variables, query.side)
    if args.group:
        groups = [_parse_group(g, len(variables)) for g in args.group]
        scenarios = [order_k_scenario(variables, ks) for ks in groups]
    elif not scenario.auto:
        scenarios = [SumScenario(variables, scenario.choices)]
    else:
        raise ValueError("sweep needs --group selections (or explicit choices)")

    pairs = [totals(s) for s in scenarios]
    names = [f"group{i + 1}" for i in range(len(scenarios))]
    lines = ["t," + ",".join(names)]
    for t in ts:
        column = [log_bound(big_l, big_r, t) for big_l, big_r in pairs]
        if not all(map(math.isfinite, column)):
            raise ValueError(f"t={g12(t)}: the log bound is not finite")
        lines.append(g12(t) + "," + ",".join(g12(c) for c in column))

    # crossovers of the lower envelope over the t span, in closed form
    big_l, big_r = zip(*pairs)
    runs = regimes(big_l, big_r, min(ts), max(ts))
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
            p.add_argument("--k-max", type=int, default=K_MAX, dest="k_max")

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
                         help=f"default {K_MAX}; only with --compare")
    add_common(p_bound, k_max=False)
    p_bound.set_defaults(func=cmd_bound)

    p_tail = sub.add_parser("tail", help="tail certificates over t")
    p_tail.add_argument("scenario")
    p_tail.add_argument("--t", type=finite_float, nargs="+")
    p_tail.add_argument("--t-range", type=finite_float, nargs=3, metavar=("MIN", "MAX", "N"))
    p_tail.add_argument("--side", choices=[s.value for s in Side])
    p_tail.add_argument("--k-max", type=int, dest="k_max",
                        help=f'default {K_MAX}; only for "choices": "auto"')
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
    p_verify.add_argument("--samples", type=int,
                          help="Monte Carlo samples, drawn only for a sum of laws with more "
                          "than 2^16 distinct values, whose tail is not computed exactly "
                          "(default: query.samples, else 10^6)")
    p_verify.add_argument("--seed", type=int,
                          help="seeds the --random pmfs and that Monte Carlo "
                          "(default: query.seed, else 0)")
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
