"""Monotonicity: the update rule never loses a value that it was given.

Order the values with 0 below -1 and below 1: s ⊑ t when every s_v is 0 or
equal to t_v.  Then s ⊑ t implies step(s) ⊑ step(t).  On the two-bit code
⊑ is bitwise ≤, and the rules that `encode_network` builds are positive
formulas, so `bn_step` keeps bitwise ≤.  Each engine is checked on its own,
on random pairs s ⊑ t of clamp-consistent states, with no reference.
"""

import pytest
from hypothesis import given, settings, strategies as st

from srg import apply_clamps, bn_step, encode_network, encode_state, step

from helpers import clamp_consistent_states, successor_codes
from test_differential import graphs, states

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)
CLAMPED = pytest.mark.parametrize("clamped", [False, True], ids=["unclamped", "clamped"])


def below(s, t):
    """s ⊑ t, or bitwise s ≤ t on bits."""
    return all(a == 0 or a == b for a, b in zip(s, t))


@st.composite
def ordered_pairs(draw, clamped):
    """A graph of 1-7 vertices and up to 8 pairs (s, t) of its clamp-consistent
    states with s ⊑ t: s is t with some free values set to 0."""
    graph = draw(graphs(clamped, max_size=7))
    pairs = []
    for t in draw(st.lists(states(graph), min_size=1, max_size=8)):
        forget = draw(st.lists(st.booleans(), min_size=graph.n, max_size=graph.n))
        pairs.append((apply_clamps(graph, [0 if f else x for x, f in zip(t, forget)]), t))
    return graph, pairs


@CLAMPED
@PROPERTY
@given(data=st.data())
def test_scalar_step_is_monotone(clamped, data):
    graph, pairs = data.draw(ordered_pairs(clamped))
    for s, t in pairs:
        assert below(s, t)
        assert below(step(graph, s), step(graph, t))


@CLAMPED
@PROPERTY
@given(data=st.data())
def test_kernel_successors_are_monotone(clamped, data):
    graph, pairs = data.draw(ordered_pairs(clamped))
    space = list(clamp_consistent_states(graph))
    code = {state: k for k, state in enumerate(space)}
    succ = successor_codes(graph)
    for s, t in pairs:
        assert below(space[succ[code[s]]], space[succ[code[t]]])


@CLAMPED
@PROPERTY
@given(data=st.data())
def test_boolean_step_is_monotone_in_the_bits(clamped, data):
    graph, pairs = data.draw(ordered_pairs(clamped))
    network = encode_network(graph)
    for s, t in pairs:
        bits_s, bits_t = encode_state(s), encode_state(t)
        assert below(bits_s, bits_t)
        assert below(bn_step(network, bits_s), bn_step(network, bits_t))
