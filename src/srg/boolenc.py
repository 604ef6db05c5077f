"""Two-bit Boolean re-encoding of the ternary dynamics.

Each vertex v becomes a pair of bits, v_on ("currently active") and v_off
("currently inactive"); (0, 0) encodes ambiguity and (1, 1) encodes
nothing.  The bit update rules are monotone two-level formulas that mirror
the unanimous rule, so stepping the Boolean network commutes with the
encoding.  This gives an independent evaluator to cross-check the ternary
engine against, plus an export path to BoolNet-style rule files.

The cross-check compares each vertex's bit rules with the kernel's move of
the vertex, in `srg._kernel`, which it imports on first use, over the local
shape of the vertices they read or over blocks of drawn states; the scalar
`step` and `bn_step` only rebuild a counterexample.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import DEFAULT_STATE_LIMIT, RegulatoryGraph, TernaryState, step
from .errors import InvalidCodeError


def bit_names(vertex: str):
    """The (active bit, inactive bit) variable names for a vertex."""
    return vertex + "_on", vertex + "_off"


class BooleanState(tuple):
    """Bit assignment in the network's variable order."""

    __slots__ = ()

    def __new__(cls, bits):
        vals = tuple(bits)
        for b in vals:
            if b not in (0, 1):
                raise ValueError(f"bits must be 0 or 1, got {b!r}")
        return tuple.__new__(cls, map(int, vals))


class BitRule(NamedTuple):
    """(any of or_terms) and (all of and_terms); constants for clamped bits.

    An empty disjunction is false and an empty conjunction is true, but
    unclamped rules always carry the bit's own name in `or_terms`.
    """

    target: str
    or_terms: tuple = ()
    and_terms: tuple = ()
    constant: bool | None = None

    def formula(self) -> str:
        if self.constant is not None:
            return "1" if self.constant else "0"
        left = " | ".join(self.or_terms)
        if not self.and_terms:
            return left
        if len(self.or_terms) > 1:
            left = f"({left})"
        return " & ".join([left, *self.and_terms])


class BooleanNetwork(NamedTuple):
    vertex_names: tuple
    variables: tuple
    rules: tuple

    @property
    def n_bits(self) -> int:
        return len(self.variables)


def encode_network(graph: RegulatoryGraph) -> BooleanNetwork:
    """Bit-pair update rules mirroring the ternary step of `graph`.

    For a vertex v with activator set U+ and inhibitor set U-:

        v_on'  = (v_on  | any u_on for u in U+) & all u_off for u in U-
        v_off' = (v_off | any u_on for u in U-) & all u_off for u in U+

    Clamped vertices compile to constant rules.
    """
    names = graph.vertices
    bits = [bit_names(name) for name in names]
    rules = []
    for i, (on, off) in enumerate(bits):
        clamp = graph.clamps.get(i)
        act, inh = graph.activation_in[i], graph.inhibition_in[i]
        for bit, value, push, block in ((on, 1, act, inh), (off, -1, inh, act)):
            if clamp is not None:
                rules.append(BitRule(bit, constant=clamp == value))
            else:
                ors = (bit, *(bits[u][0] for u in push))
                rules.append(BitRule(bit, ors, tuple(bits[u][1] for u in block)))
    variables = tuple(b for pair in bits for b in pair)
    return BooleanNetwork(vertex_names=names, variables=variables, rules=tuple(rules))


_CODE = {1: (1, 0), -1: (0, 1), 0: (0, 0)}
_DECODE = {bits: value for value, bits in _CODE.items()}


def encode_state(state) -> BooleanState:
    """Ternary state to bit pairs: 1 -> (1,0), -1 -> (0,1), 0 -> (0,0)."""
    st = state if isinstance(state, TernaryState) else TernaryState(state)
    bits = []
    for v in st:
        bits += _CODE[v]
    return BooleanState(bits)


def decode_state(bits) -> TernaryState:
    """Invert :func:`encode_state`; rejects the (1, 1) code."""
    bs = bits if isinstance(bits, BooleanState) else BooleanState(bits)
    if len(bs) % 2:
        raise ValueError(f"bit count must be even, got {len(bs)}")
    pairs = [bs[k : k + 2] for k in range(0, len(bs), 2)]
    if (1, 1) in pairs:
        raise InvalidCodeError(
            f"bit pair {pairs.index((1, 1))} is (1, 1), which encodes no ternary value"
        )
    return TernaryState(_DECODE[pair] for pair in pairs)


def bn_step(network: BooleanNetwork, bstate) -> BooleanState:
    """Evaluate every bit rule against the same input state."""
    bs = bstate if isinstance(bstate, BooleanState) else BooleanState(bstate)
    if len(bs) != network.n_bits:
        raise ValueError(
            f"state has {len(bs)} bits but the network has {network.n_bits} variables"
        )
    index = {name: k for k, name in enumerate(network.variables)}
    out = []
    for rule in network.rules:
        if rule.constant is not None:
            out.append(int(rule.constant))
            continue
        value = any(bs[index[t]] for t in rule.or_terms) and all(
            bs[index[t]] for t in rule.and_terms
        )
        out.append(int(value))
    return BooleanState(out)


class EquivalenceReport(NamedTuple):
    """Outcome of a commuting-square check between the two engines."""

    ok: bool
    states_checked: int
    counterexample: tuple | None
    invalid_codes: int


def check_simulation_equivalence(
    graph: RegulatoryGraph,
    samples=None,
    state_limit=DEFAULT_STATE_LIMIT,
    seed=0,
) -> EquivalenceReport:
    """Check encode(step(s)) == bn_step(encode(s)) over the requested coverage.

    With samples=None every clamp-consistent state is covered (subject to
    `state_limit`): each vertex's bit rules are compared with the kernel's
    move of the vertex, or with its clamp, over the local shape of the
    vertices they read, and the least failing code is the counterexample.
    Otherwise `samples` random clamp-consistent states are drawn from `seed`
    and checked in blocks, up to the first failing one.  The counterexample
    is reported rather than raised, as (input state, expected successor,
    produced bits) rebuilt by the scalar `step` and `bn_step`.  Its (1, 1)
    pairs are counted; a correct encoding never emits any.
    """
    # Refuse before encoding the network or loading the kernel.
    if samples is None:
        from .dynamics import _free_strides
        strides = _free_strides(graph, state_limit)
    elif samples < 1:
        raise ValueError("samples must be positive")
    network = encode_network(graph)
    from ._kernel import _first_mismatch, _first_sampled_mismatch

    if samples is None:
        checked, state = _first_mismatch(graph, network, strides)
    else:
        checked, state = _first_sampled_mismatch(graph, network, samples, seed)
    if state is None:
        return EquivalenceReport(True, checked, None, 0)
    expected = step(graph, state)
    got = bn_step(network, encode_state(state))
    invalid = sum(on and off for on, off in zip(got[::2], got[1::2]))
    return EquivalenceReport(False, checked, (state, expected, got), invalid)


def to_boolnet(network: BooleanNetwork) -> str:
    """BoolNet-style rule file: one 'target, factors' line per bit variable."""
    lines = ["targets, factors"]
    for rule in network.rules:
        lines.append(f"{rule.target}, {rule.formula()}")
    return "\n".join(lines) + "\n"
