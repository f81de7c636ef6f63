"""Order-k MGF bounds and Chernoff tail certificates for bounded variables.

The bounds, scenarios, order selection and tails are pure Python, and so is
everything imported here.  The import rule: numpy loads only inside the
brute-force oracle's stack functions (pmf stacks, their exact MGFs and gaps,
Monte Carlo), whose names are reached as ``kbounds.oracle.X``.  The oracle's
one-law functions (``exact_log_mgf``, ``moments``, ``validity_gap`` and the
exact tail of a sum of laws) are plain Python, and a law's moments and
log-MGF add their terms with ``math.fsum``; `verify` checks each support's
law with them, and calls the stack functions only for `--random`'s random
pmfs or a sum too large to convolve.  So ``import kbounds``, every other command and a `verify` of laws
start without numpy; and no module imports the standard library's dataclass
module (it loads ``inspect``, ``ast`` and ``dis``): the value types are
``bounds.Frozen`` classes with ``__slots__`` and a written ``__init__``.
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
    one_sided_tail,
    order_k_scenario,
    two_sided_tail,
)

__version__ = "0.1.0"
