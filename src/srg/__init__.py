"""Ternary regulatory-graph dynamics under the unanimous update rule.

Vertices of a signed directed graph carry one of three activity values
(1 active, -1 inactive, 0 ambiguous) and evolve synchronously: a vertex
commits to active or inactive only when every potentially active regulator
pushes the same way, and falls back to ambiguous otherwise.  On top of the
single-step semantics sit exhaustive attractor enumeration, phenotype
admissibility decisions with constructive witnesses, and a two-bit Boolean
re-encoding used as an independent cross-check.
"""

from .boolenc import (
    BitRule,
    BooleanNetwork,
    BooleanState,
    EquivalenceReport,
    bit_names,
    bn_step,
    check_simulation_equivalence,
    decode_state,
    encode_network,
    encode_state,
    to_boolnet,
)
from .core import (
    ACTIVATION,
    ACTIVE,
    AMBIGUOUS,
    INACTIVE,
    INHIBITION,
    TERNARY_VALUES,
    RegulatoryGraph,
    TernaryState,
    apply_clamps,
    regulators,
    regulators_reflexive,
    step,
    update_vertex,
)
from .dynamics import (
    DEFAULT_STATE_LIMIT,
    Attractor,
    Trajectory,
    TransitionSystem,
    build_sts,
    enumerate_attractors,
    is_attractor,
    is_trap_set,
    simulate,
)
from .errors import (
    InvalidCodeError,
    ParseError,
    SRGError,
    StateSpaceLimitError,
    StepBudgetError,
    UnknownVertexError,
)
from .netio import (
    EXAMPLE_NETWORKS,
    export_dot,
    format_state,
    load_example,
    parse_network,
    parse_phenotype,
    parse_state,
    serialize_network,
)
from .phenotype import (
    MODE_LITERAL,
    MODE_PATHS,
    Phenotype,
    PhenotypeDecision,
    Violation,
    Witness,
    WitnessMarking,
    activation_reachable,
    attractors_with_phenotype,
    decide_phenotype,
    phenotype_witness,
)

__version__ = "0.1.0"
