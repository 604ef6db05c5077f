"""Property tests: independent engines must agree on random graphs.

The scalar `step`, the rule rebuilt from the regulator sets, the vectorized
transition system and the two-bit Boolean network each compute the same
successor; the batched Boolean cross-check must report what a state-by-state
loop over the scalar engines reports, for correct and tampered encodings; the
wiring-based `paths` decision must match the exhaustive oracle, and the
oracle, which walks only the states where the targets hold, must match a
filter over every attractor.  Hypothesis shrinks any disagreement to a
minimal graph.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

import srg.boolenc as boolenc
from srg import (
    BitRule,
    BooleanNetwork,
    Phenotype,
    RegulatoryGraph,
    apply_clamps,
    attractors_with_phenotype,
    bn_step,
    check_simulation_equivalence,
    decide_phenotype,
    decode_state,
    encode_network,
    encode_state,
    enumerate_attractors,
    simulate,
    step,
)
from srg._kernel import _BLOCK_STATES, _peel
from srg.dynamics import _free_strides

from helpers import (
    clamp_consistent_states,
    many_clamped_chain,
    random_graph,
    sampled_states,
    scalar_equivalence,
    successor_codes,
)
from test_core import rule_value

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def graphs(draw, clamped, max_size=5):
    n = draw(st.integers(1, max_size))
    names = [f"v{i}" for i in range(n)]
    signs = draw(st.lists(st.sampled_from((None, "+", "-")), min_size=n * n, max_size=n * n))
    pairs = [(names[k // n], names[k % n]) for k in range(n * n)]
    activation = [p for p, s in zip(pairs, signs) if s == "+"]
    inhibition = [p for p, s in zip(pairs, signs) if s == "-"]
    clamps = {}
    if clamped:
        clamps = draw(st.dictionaries(st.sampled_from(names), st.sampled_from((-1, 1))))
    return RegulatoryGraph(names, activation, inhibition, clamps)


def states(graph):
    values = st.lists(st.sampled_from((-1, 0, 1)), min_size=graph.n, max_size=graph.n)
    return values.map(lambda vals: apply_clamps(graph, vals))


@PROPERTY
@given(st.data())
def test_successor_engines_agree(data):
    graph = data.draw(graphs(clamped=True))
    space = list(clamp_consistent_states(graph))
    succ = successor_codes(graph)
    network = encode_network(graph)
    for state in data.draw(st.lists(states(graph), min_size=1, max_size=4)):
        expected = step(graph, state)
        rebuilt = apply_clamps(graph, [rule_value(graph, state, v) for v in range(graph.n)])
        assert rebuilt == expected
        assert space[succ[space.index(state)]] == expected
        assert decode_state(bn_step(network, encode_state(state))) == expected


def clamped_random_graph(free, clamps, density, seed):
    """A random graph of `free` + `clamps` vertices, `clamps` of them pinned."""
    rng = random.Random(seed)
    graph = random_graph(rng, n=free + clamps, density=density)
    pinned = rng.sample(graph.vertices, clamps)
    return graph.with_clamps({name: rng.choice((-1, 1)) for name in pinned})


def assert_successors_match_step(graph):
    states = list(clamp_consistent_states(graph))
    succ = successor_codes(graph)
    assert [states[k] for k in succ.tolist()] == [step(graph, s) for s in states]


@PROPERTY
@given(
    free=st.integers(0, 8), clamps=st.integers(0, 2),
    density=st.floats(0, 1), seed=st.integers(0, 2 ** 32),
)
@example(free=0, clamps=2, density=1.0, seed=0)  # fully clamped: a 0-d code array
def test_factored_kernel_matches_scalar_step(free, clamps, density, seed):
    if free + clamps:
        assert_successors_match_step(clamped_random_graph(free, clamps, density, seed))


def hub_graph():
    """11 free vertices: the leading stride 3^10 overflows int16, and the
    hub v5, which every vertex regulates, runs in nine slices of 3^9."""
    names = [f"v{i}" for i in range(12)]
    return RegulatoryGraph(
        names,
        [("v0", "v1"), ("v5", "v9"), ("v5", "v11")] + [(u, "v5") for u in names[::2]],
        [("v11", "v0")] + [(u, "v5") for u in names[1::2]],
        {"v7": 1},
    )


def test_factored_kernel_slices_a_hub_past_int16_strides():
    assert_successors_match_step(hub_graph())


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(
    free=st.integers(10, 12), density=st.floats(0.1, 1.0),
    clamp_chance=st.sampled_from((0.0, 0.3)), seed=st.integers(0, 2 ** 32),
)
# layer tables that hold one or two leading digits, some with an earlier digit as a scalar
@example(free=12, density=0.3, clamp_chance=0.0, seed=2)
@example(free=12, density=0.3, clamp_chance=0.3, seed=1)
def test_layer_tables_match_scalar_step(free, density, clamp_chance, seed):
    """10-12 free vertices give slabs one to three leading digits, so a
    layer past the first sums a table that holds its leading digits, holds
    the earlier ones as scalars, or cannot hold its last one.  The scalar
    `step` checks a few codes of every slab; at clamp chance 0.3, 4 or 5 of
    the graph's 14-17 vertices are clamped."""
    clamps = round(free * clamp_chance / (1 - clamp_chance))
    graph = clamped_random_graph(free, clamps, density, seed)
    succ = successor_codes(graph)
    strides = _free_strides(graph, len(succ))
    rng = random.Random(seed)
    for lo in range(0, len(succ), _BLOCK_STATES):
        for code in rng.sample(range(lo, lo + _BLOCK_STATES), 4):
            state = [graph.clamps.get(i, 0) for i in range(graph.n)]
            for i, stride in strides:
                state[i] = code // stride % 3 - 1
            values = step(graph, state)
            assert int(succ[code]) == sum((values[i] + 1) * stride for i, stride in strides)


@st.composite
def tampered_networks(draw, graph):
    """`encode_network(graph)` with one rule replaced, or left as it is."""
    network = encode_network(graph)
    k = draw(st.integers(0, len(network.rules) - 1))
    target = network.rules[k].target
    terms = st.lists(st.sampled_from(network.variables), max_size=3).map(tuple)
    rule = draw(st.one_of(
        st.just(BitRule(target, (target,), ())),
        st.builds(BitRule, st.just(target), constant=st.booleans()),
        st.builds(BitRule, st.just(target), terms, terms),
        st.just(network.rules[k]),
    ))
    rules = network.rules[:k] + (rule,) + network.rules[k + 1:]
    return BooleanNetwork(network.vertex_names, network.variables, rules)


@PROPERTY
@given(st.data())
def test_batched_cross_check_matches_scalar_loop(data):
    graph = data.draw(graphs(clamped=True))
    network = data.draw(tampered_networks(graph))
    samples = data.draw(st.integers(1, 40))
    seed = data.draw(st.integers(0, 10 ** 6))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(boolenc, "encode_network", lambda g: network)
        exhaustive = check_simulation_equivalence(graph)
        sampled = check_simulation_equivalence(graph, samples=samples, seed=seed)
    assert exhaustive == scalar_equivalence(graph, network, clamp_consistent_states(graph))
    assert sampled == scalar_equivalence(graph, network, sampled_states(graph, samples, seed))


def with_rules(network, *replaced):
    """`network` with each rule of `replaced` in place of its target's rule."""
    by_target = {rule.target: rule for rule in replaced}
    rules = tuple(by_target.get(rule.target, rule) for rule in network.rules)
    return BooleanNetwork(network.vertex_names, network.variables, rules)


def exhaustive_check_with(graph, network):
    """The exhaustive cross-check of `graph` against `network`, which must
    report what the scalar loop over every state reports."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(boolenc, "encode_network", lambda g: network)
        report = check_simulation_equivalence(graph)
    assert report == scalar_equivalence(graph, network, clamp_consistent_states(graph))
    return report


def test_cross_check_finds_a_failure_past_the_first_slice_of_a_hub():
    # v7 = 1 inhibits v5, so v5_on stays clear.  Set where v1 = 1 instead,
    # it first fails at code 2 * 3^9, in the third of the hub's slices.
    graph = hub_graph()
    network = with_rules(encode_network(graph), BitRule("v5_on", ("v1_on",), ()))
    report = exhaustive_check_with(graph, network)
    assert report.states_checked == 2 * 3 ** 9 + 1
    assert report.counterexample[0] == (-1, 1) + (-1,) * 5 + (1,) + (-1,) * 4


def test_cross_check_reports_the_least_failing_code_over_all_vertices():
    # v1_on first fails at v1 = 1 (code 2 * 3^2), v3_on, later in rule
    # order, at v3 = 1 (code 2): the report is v3's.
    names = ["v0", "v1", "v2", "v3"]
    graph = RegulatoryGraph(names, list(zip(names, names[1:])))
    network = with_rules(
        encode_network(graph), BitRule("v1_on", constant=False), BitRule("v3_on", constant=False)
    )
    report = exhaustive_check_with(graph, network)
    assert report.states_checked == 3
    assert report.counterexample[0] == (-1, -1, -1, 1)


def test_cross_check_decodes_a_counterexample_among_many_clamps():
    # v45, after the clamp v44 = -1, keeps v45 = 1, so v45_on fails first
    # at code 2 * 3^2: v45 is the third-last of the 8 free digits.
    graph = many_clamped_chain()
    network = with_rules(encode_network(graph), BitRule("v45_on", constant=False))
    report = exhaustive_check_with(graph, network)
    assert report.states_checked == 2 * 3 ** 2 + 1
    assert report.counterexample[0] == tuple(
        1 if i == 45 else graph.clamps.get(i, -1) for i in range(graph.n)
    )


@PROPERTY
@given(graphs(clamped=True))
def test_cycle_codes_match_attractors_and_transients(graph):
    states = list(clamp_consistent_states(graph))
    code_of = {s: k for k, s in enumerate(states)}
    codes, rounds = _peel(successor_codes(graph))
    on_cycles = sorted(code_of[s] for a in enumerate_attractors(graph) for s in a.states)
    assert codes.tolist() == on_cycles
    assert rounds == max(len(simulate(graph, s).transient) for s in states)


@PROPERTY
@given(st.data())
def test_paths_decision_matches_oracle(data):
    # the oracle walks at most 3^(8 - t) states for t targets
    graph = data.draw(graphs(clamped=False, max_size=8))
    targets = st.dictionaries(st.sampled_from(graph.vertices), st.sampled_from((-1, 1)), min_size=1)
    phenotype = Phenotype(data.draw(targets))
    decision = decide_phenotype(graph, phenotype)
    assert decision.admissible == bool(attractors_with_phenotype(graph, phenotype))


@PROPERTY
@given(st.data())
def test_pinned_oracle_matches_full_space_filter(data):
    # targets come from every vertex, so some fall on clamps of either value
    graph = data.draw(graphs(clamped=True))
    targets = st.dictionaries(st.sampled_from(graph.vertices), st.sampled_from((-1, 1)), min_size=1)
    phenotype = Phenotype(data.draw(targets))
    required = {graph.index_of(name): v for name, v in phenotype.items()}
    expected = [
        a for a in enumerate_attractors(graph)
        if all(s[i] == v for s in a.states for i, v in required.items())
    ]
    assert attractors_with_phenotype(graph, phenotype) == expected
