"""Order-k MGF bounds and Chernoff tail certificates for bounded variables.

The bounds, scenarios, order selection and tails are pure Python.  Only the
brute-force ``oracle`` (pmf stacks, exact MGFs, Monte Carlo) needs numpy, so
its names load on first access: ``import kbounds`` and the commands that never
touch the oracle start without numpy.
"""

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
    catalog,
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
from .scenario import Query, Scenario, ScenarioError, load_scenario, parse_scenario
from .selection import (
    CrossoverTable,
    KSelection,
    ParetoFront,
    RelaxedSolution,
    best_k_single,
    best_region_partition,
    crossover_table,
    crossover_threshold,
    optimize_exact,
    optimize_relaxed,
    pareto_front,
)
from .tails import (
    Side,
    SumScenario,
    TailCertificate,
    lower_tail,
    mirror,
    mirror_scenario,
    one_sided_tail,
    order_k_scenario,
    two_sided_tail,
)

__version__ = "0.1.0"

_ORACLE_NAMES = frozenset({
    "FinitePmf",
    "check_pmf_stack",
    "exact_log_mgf",
    "exact_log_mgf_rows",
    "extremal_two_point",
    "mc_sum_tail",
    "moment_matched_pmf",
    "moment_rows",
    "moments",
    "random_mean_zero_pmf",
    "random_mean_zero_stack",
    "validity_gap",
    "validity_gaps",
})


def __getattr__(name: str):
    """The ``oracle`` module and its names, imported (with numpy) on first use."""
    if name == "oracle" or name in _ORACLE_NAMES:
        import importlib

        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _ORACLE_NAMES | {"oracle"})
