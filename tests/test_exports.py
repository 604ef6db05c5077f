"""The package's lazy exports: `srg` resolves each public name on first
access, from the submodule that defines it."""

import importlib
import importlib.util
import sys

import pytest

# Every name `srg` exports, as "submodule.name".
EXPORTS = [
    "boolenc.BitRule", "boolenc.BooleanNetwork", "boolenc.BooleanState",
    "boolenc.EquivalenceReport", "boolenc.bit_names", "boolenc.bn_step",
    "boolenc.check_simulation_equivalence", "boolenc.decode_state", "boolenc.encode_network",
    "boolenc.encode_state", "boolenc.to_boolnet",
    "core.ACTIVATION", "core.ACTIVE", "core.AMBIGUOUS", "core.DEFAULT_STATE_LIMIT",
    "core.INACTIVE", "core.INHIBITION", "core.TERNARY_VALUES", "core.RegulatoryGraph",
    "core.TernaryState", "core.apply_clamps", "core.regulators", "core.regulators_reflexive",
    "core.step", "core.update_vertex",
    "dynamics.Attractor", "dynamics.Trajectory", "dynamics.TransitionSystem",
    "dynamics.build_sts", "dynamics.enumerate_attractors", "dynamics.is_attractor",
    "dynamics.is_trap_set", "dynamics.simulate",
    "errors.InvalidCodeError", "errors.ParseError", "errors.SRGError",
    "errors.StateSpaceLimitError", "errors.StepBudgetError", "errors.UnknownVertexError",
    "netio.EXAMPLE_NETWORKS", "netio.export_dot", "netio.format_state", "netio.load_example",
    "netio.parse_network", "netio.parse_phenotype", "netio.parse_state",
    "netio.serialize_network",
    "phenotype.MODE_LITERAL", "phenotype.MODE_PATHS", "phenotype.Phenotype",
    "phenotype.PhenotypeDecision", "phenotype.Violation", "phenotype.Witness",
    "phenotype.WitnessMarking", "phenotype.activation_reachable",
    "phenotype.attractors_with_phenotype", "phenotype.decide_phenotype",
    "phenotype.phenotype_witness",
]
NAMES = [path.split(".")[1] for path in EXPORTS]


@pytest.fixture
def fresh_srg(monkeypatch):
    """A new module object run from the package's source, in `sys.modules`
    for the test: no name is cached in it yet, as after `import srg` in a
    fresh interpreter.  Every submodule is loaded first through the real
    package, so the copy only finds them."""
    for module in {path.split(".")[0] for path in EXPORTS}:
        importlib.import_module(f"srg.{module}")
    spec = importlib.util.find_spec("srg")
    package = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    monkeypatch.setitem(sys.modules, "srg", package)
    return package


def test_every_name_resolves_to_its_definition(fresh_srg):
    for path in EXPORTS:
        module, name = path.split(".")
        defined = getattr(importlib.import_module(f"srg.{module}"), name)
        assert getattr(fresh_srg, name) is defined, path
    # `dynamics` still exports the limit that its functions default to.
    assert importlib.import_module("srg.dynamics").DEFAULT_STATE_LIMIT == 3 ** 14


def test_dir_and_all_list_every_name(fresh_srg):
    assert sorted(fresh_srg.__all__) == sorted(NAMES)
    assert set(NAMES) <= set(dir(fresh_srg))


def test_star_import_binds_every_name(fresh_srg):
    namespace = {}
    exec("from srg import *", namespace)
    assert {name: namespace.get(name) for name in NAMES} == {
        name: getattr(fresh_srg, name) for name in NAMES
    }


def test_unknown_name_raises_attribute_error_naming_it(fresh_srg):
    with pytest.raises(AttributeError, match="'no_such_name'"):
        fresh_srg.no_such_name  # noqa: B018
