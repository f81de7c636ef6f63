#!/usr/bin/env python3
"""Print the crossover tables for the four single-variable examples and the
regime partition of the four-variable sum, alongside the closed-form values.
"""

import math

from kbounds import (
    BoundedSupport,
    best_region_partition,
    crossover_table,
    one_sided_tail,
    order_k_scenario,
)

SINGLES = [
    ("[-1, 1]", BoundedSupport(-1, 1)),
    ("[-1, 5]", BoundedSupport(-1, 5)),
    ("[-5, 1]", BoundedSupport(-5, 1)),
    ("[-5, 5], m2=5", BoundedSupport(-5, 5, m2=5.0)),
]

SUM_VARIABLES = (
    BoundedSupport(-1, 1),
    BoundedSupport(-5, 5, m2=5.0),
    BoundedSupport(-1, 5),
    BoundedSupport(-5, 1),
)


def main() -> None:
    for label, support in SINGLES:
        print(f"support {label}")
        for k, k_next, t_star in crossover_table(support, 3):
            print(f"  order {k} -> {k_next} above t = {t_star:.4f}")
        print()

    print("four-variable sum: optimal order vector by t regime (k_max = 3)")
    for lo, hi, ks in best_region_partition(SUM_VARIABLES, 0.1, 12.0, k_max=3):
        print(f"  t in [{lo:7.4f}, {hi:7.4f}]  ->  k = {ks}")
    print()

    print("paper-figure group curves at a few thresholds")
    groups = [(1, 1, 1, 1), (1, 2, 1, 1), (1, 2, 1, 2)]
    closed = [
        math.sqrt(math.log(6 / 5) / (1 / 55 - 1 / 80)),
        math.sqrt(math.log(6 / 5) / (1 / 50 - 1 / 55)),
    ]
    print(f"  closed-form curve crossings: {closed[0]:.4f}, {closed[1]:.4f}")
    for t in (4.0, 6.0, 8.0, 11.0):
        row = ", ".join(
            f"{ks}: {one_sided_tail(order_k_scenario(SUM_VARIABLES, ks), t).log_bound:+.4f}"
            for ks in groups
        )
        print(f"  t = {t:5.2f}  {row}")


if __name__ == "__main__":
    main()
