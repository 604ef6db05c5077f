"""The result records: immutable tuples of their fields, compared and hashed
by those fields, and shown as `Name(field=value, ...)`."""

import pytest

import srg
from srg import (
    Phenotype, check_simulation_equivalence, decide_phenotype, encode_network, load_example,
    phenotype_witness, simulate,
)


def _trajectory():
    return simulate(load_example("fig1b"), (1, -1, 1))


def _decision():
    return decide_phenotype(load_example("fig1a"), Phenotype({"A": 1, "B": -1}))


def _witness():
    return phenotype_witness(load_example("mapk"), Phenotype({"AKT": 1}))


def _network():
    return encode_network(load_example("fig1a"))


# Each record's fields, in order, and a call that builds one afresh.
RECORDS = {
    "Trajectory": (("transient", "cycle"), _trajectory),
    "Attractor": (("states",), lambda: _trajectory().attractor()),
    "Violation": (("rule", "source", "target", "activation_path", "inhibition_edge"),
                  lambda: _decision().violations[0]),
    "PhenotypeDecision": (("admissible", "mode", "violations"), _decision),
    "WitnessMarking": (("marked", "conflict"), lambda: _witness().marking),
    "Witness": (("admissible", "marking", "start", "attractor"), _witness),
    "BitRule": (("target", "or_terms", "and_terms", "constant"), lambda: _network().rules[0]),
    "BooleanNetwork": (("vertex_names", "variables", "rules"), _network),
    "EquivalenceReport": (("ok", "states_checked", "counterexample", "invalid_codes"),
                          lambda: check_simulation_equivalence(load_example("fig1b"))),
}
# A witness's marking holds its marked values in a dict.
UNHASHABLE = {"WitnessMarking", "Witness"}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_a_frozen_tuple_of_its_fields(name):
    fields, build = RECORDS[name]
    record, again = build(), build()
    assert type(record) is getattr(srg, name)
    values = tuple(getattr(record, field) for field in fields)
    assert tuple(record) == values
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    assert record is not again and record == again
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(again)
    body = ", ".join(f"{field}={value!r}" for field, value in zip(fields, values))
    assert repr(record) == f"{name}({body})"
