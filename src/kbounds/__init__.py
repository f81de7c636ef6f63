"""Order-k MGF bounds and Chernoff tail certificates for bounded variables.

The bounds, scenarios, order selection and tails are pure Python, and so is
everything imported here.  numpy loads only with the brute-force oracle (pmf
stacks, exact MGFs, Monte Carlo) and the `verify` command built on it: their
names are reached as ``kbounds.oracle.X`` and ``kbounds.verify.X``, so
``import kbounds`` and every other command start without numpy.
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
