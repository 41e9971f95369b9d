"""Shareability and monogamy of multi-party correlations.

Models N-party behaviors (conditional probability tables) and few-qubit
quantum states; tests locality, no-signalling, and N-shareability by linear
programming; computes concurrence/tangle entanglement measures; and checks
the trade-off inequalities that constrain how strongly one party can be
correlated with two others.
"""

from .bell import BellFunctional, bell_value, chsh, chsh_value, collins_gisin
from .entanglement import TangleReport, ckw_check, concurrence, cut_tangle, tangle
from .localpoly import (
    DeterministicStrategy,
    LocalModel,
    NotLocal,
    deterministic_behaviors,
    deterministic_strategies,
    local_bound,
    local_decomposition,
)
from .lp import LinearProgram, LpOutcome, LpStatus, feasibility, solve
from .model import (
    Behavior,
    MarginalTable,
    Scenario,
    SignallingReport,
    ValidationReport,
    behavior_from_json_dict,
    behavior_to_json_dict,
    correlator,
    deterministic_box,
    is_no_signalling,
    marginal,
    marginal_behavior,
    mixture,
    partial_local_box,
    pr_box,
    product_box,
    uniform_box,
    validate_behavior,
)
from .quantum import (
    DensityMatrix,
    born_behavior,
    cg_state,
    density_from_vector,
    eig_hermitian,
    expectation,
    ghz,
    named_state,
    partial_trace,
    phi_plus,
    planar_observable,
    product_state,
    random_pure_state,
    singlet,
    state_from_json_dict,
    state_to_json_dict,
    w_state,
)
from .sharing import (
    ExtensionCertificate,
    InfeasibleExtension,
    ShareabilityResult,
    is_n_shareable,
    ns_extension,
    random_shareable_behavior,
    unrestricted_extension,
)
from .tradeoffs import (
    CgSearchResult,
    CheckReport,
    PbProbeReport,
    SupportPoint,
    TradeoffPoint,
    TripleReport,
    behavior_checks,
    cg_double_violation_search,
    check_key_corollary,
    check_ns_tradeoff,
    check_strengthened,
    check_triple,
    check_tv_tradeoff,
    ns_support,
    pair_values,
    pb_probe,
    quantum_boundary_search,
    separable_orthogonal_max,
    state_pair_point,
    sweep,
    triple_values,
)

__version__ = "0.1.0"
