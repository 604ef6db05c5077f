"""Ternary regulatory-graph dynamics under the unanimous update rule.

Vertices of a signed directed graph carry one of three activity values
(1 active, -1 inactive, 0 ambiguous) and evolve synchronously: a vertex
commits to active or inactive only when every potentially active regulator
pushes the same way, and falls back to ambiguous otherwise.  On top of the
single-step semantics sit exhaustive attractor enumeration, phenotype
admissibility decisions with constructive witnesses, and a two-bit Boolean
re-encoding used as an independent cross-check.

The public names below are loaded lazily (PEP 562): `import srg` imports no
submodule, and the first access to a name imports the submodule that
defines it, so a call pays only for the modules it uses.
"""

import importlib

# Public name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in {
    "boolenc": (
        "BitRule", "BooleanNetwork", "BooleanState", "EquivalenceReport", "bit_names",
        "bn_step", "check_simulation_equivalence", "decode_state", "encode_network",
        "encode_state", "to_boolnet",
    ),
    "core": (
        "ACTIVATION", "ACTIVE", "AMBIGUOUS", "DEFAULT_STATE_LIMIT", "INACTIVE", "INHIBITION",
        "TERNARY_VALUES", "RegulatoryGraph", "TernaryState", "apply_clamps", "regulators",
        "regulators_reflexive", "step", "update_vertex",
    ),
    "dynamics": (
        "Attractor", "Trajectory", "TransitionSystem", "build_sts", "enumerate_attractors",
        "is_attractor", "is_trap_set", "simulate",
    ),
    "errors": (
        "InvalidCodeError", "ParseError", "SRGError", "StateSpaceLimitError",
        "StepBudgetError", "UnknownVertexError",
    ),
    "netio": (
        "EXAMPLE_NETWORKS", "export_dot", "format_state", "load_example", "parse_network",
        "parse_phenotype", "parse_state", "serialize_network",
    ),
    "phenotype": (
        "MODE_LITERAL", "MODE_PATHS", "Phenotype", "PhenotypeDecision", "Violation",
        "Witness", "WitnessMarking", "activation_reachable", "attractors_with_phenotype",
        "decide_phenotype", "phenotype_witness",
    ),
}.items() for name in names}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
