"""The numpy code kernel: the only module of the package that imports numpy.

`dynamics` and `boolenc` import it inside the functions that walk the state
space, after the state limit has been checked, so a call that never
enumerates (a step, a trajectory, a phenotype decision, a witness, the
graph or its Boolean encoding) never loads numpy.

Enumeration works on state codes: mixed-radix base 3 over the unclamped
vertices, first vertex most significant, so code order is the lexicographic
order of the state tuples.  One stream walks the codes in digit-aligned
blocks of 3^9, each the codes that share their leading digits: the trailing
free vertices are int8 columns built once, the leading and clamped ones
scalars.  The successor kernel, the Boolean cross-check and `sts` text all
read it.  The rule runs column by column into each block's slice of one
array of successor codes; taking the image of the space until it stops
shrinking, one round per step of the longest transient, leaves the cycle
nodes in one bool mask.  Only cycle states are decoded.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random

import numpy as np

from .core import TernaryState, apply_clamps
from .dynamics import _BLOCK_STATES, _TAIL_DIGITS, _domains, _free_strides


def _code_dtype(size):
    """The index type for codes below `size`: int32 while it fits."""
    return np.int32 if size < 2 ** 31 else np.int64


def _max_at(columns, regulators):
    """Per code, the largest value among `regulators`; -1 when there are none.

    With only clamped regulators, or none, the result is an int8 scalar
    that broadcasts in the masks.  The masks compare values rather than
    negate flags: `~` on a Python bool gives -1 or -2, not a logical not.
    """
    return functools.reduce(np.maximum, (columns[u] for u in regulators), np.int8(-1))


def _moves(graph, columns, i):
    """(up, down): the rows where free vertex i steps to 1 and to -1.

    Every other row steps it to 0; the two masks never overlap.
    """
    act = _max_at(columns, graph.activation_in[i])
    inh = _max_at(columns, graph.inhibition_in[i])
    cur = columns[i]
    # Up: an active activator (or itself) and no inhibitor at 0 or 1.
    up = (np.maximum(act, cur) == 1) & (inh < 0)
    # Down: an active inhibitor (or itself at -1) and no activator at 0 or 1.
    down = ((inh == 1) | (cur == -1)) & (act < 0)
    return up, down


def _blocks(graph, state_limit):
    """The clamp-consistent space in code order, as (columns, rows) blocks.

    A block is every code that shares the leading free digits: a trailing
    free vertex's column is its int8 values over the block, a leading one's
    is one int8 value and a clamped vertex's is its clamp value.
    """
    strides = _free_strides(_domains(graph, state_limit))
    lead = [i for i, _ in strides[:-_TAIL_DIGITS]]
    tail = strides[-_TAIL_DIGITS:]
    rows = 3 ** len(tail)
    digits = np.arange(-1, 2, dtype=np.int8)
    columns = dict(graph.clamps)
    for i, stride in tail:
        columns[i] = np.tile(np.repeat(digits, stride), rows // (3 * stride))
    for values in itertools.product(digits, repeat=len(lead)):
        yield {**columns, **dict(zip(lead, values))}, rows


def _sampled_blocks(graph, samples, seed):
    """`samples` random clamp-consistent states drawn from `seed`, as blocks."""
    rng = random.Random(seed)
    for lo in range(0, samples, _BLOCK_STATES):
        rows = min(_BLOCK_STATES, samples - lo)
        states = [apply_clamps(graph, [rng.choice((-1, 0, 1)) for _ in range(graph.n)])
                  for _ in range(rows)]
        yield dict(enumerate(np.array(states, dtype=np.int8).T)), rows


def _successor_codes(graph, state_limit):
    """The successor code of every code, by the unanimous rule."""
    strides = _free_strides(_domains(graph, state_limit))
    size = 3 ** len(strides)
    # Start every successor at the all-ambiguous code, then move each digit.
    succ = np.full(size, (size - 1) // 2, dtype=_code_dtype(size))
    for k, (columns, rows) in enumerate(_blocks(graph, state_limit)):
        out = succ[k * rows:(k + 1) * rows]
        for i, stride in strides:
            up, down = _moves(graph, columns, i)
            np.add(out, stride, out=out, where=up)
            np.subtract(out, stride, out=out, where=down)
    return succ


def _peel(succ):
    """The cycle codes in ascending order, and the longest transient's length.

    Images of the space, held in one bool mask, shrink to the cycles in one
    round per transient step; beside `succ`, only arrays over the image live.
    """
    image = np.zeros(len(succ), dtype=bool)
    image[succ] = True
    live, size, rounds = np.flatnonzero(image), len(succ), 0
    while live.size < size:
        size, rounds = live.size, rounds + 1
        image[live] = False
        live = succ[live]
        image[live] = True
        live = np.flatnonzero(image)
    return live, rounds


def _decode(domains, codes):
    """The TernaryStates of the given codes, in the same order."""
    digits = np.unravel_index(codes, [len(d) for d in domains])
    values = np.column_stack([np.asarray(d)[k] for d, k in zip(domains, digits)])
    return [TernaryState(row) for row in values.tolist()]


def _evaluate(rule, bits):
    """A bit rule over columns of bits; scalar bits and constants broadcast."""
    if rule.constant is not None:
        return rule.constant
    either = functools.reduce(operator.or_, (bits[t] for t in rule.or_terms), False)
    return functools.reduce(operator.and_, (bits[t] for t in rule.and_terms), either)


def _mismatches(graph, network, columns, rows):
    """Per row, whether some bit rule disagrees with its vertex's next value.

    The next value is the kernel's move of a free vertex, or its clamp.
    """
    bits, expected = {}, {}
    for i, (on, off) in enumerate(zip(network.variables[::2], network.variables[1::2])):
        bits[on], bits[off] = columns[i] == 1, columns[i] == -1
        if i in graph.clamps:
            expected[on], expected[off] = graph.clamps[i] == 1, graph.clamps[i] == -1
        else:
            expected[on], expected[off] = _moves(graph, columns, i)
    bad = np.zeros(rows, dtype=bool)
    for rule in network.rules:
        bad |= _evaluate(rule, bits) != expected[rule.target]
    return bad


def _first_mismatch(graph, network, blocks):
    """(states checked, state) at the first state of `blocks` that mismatches.

    The count includes that state; the state is None, and the count covers
    every block, when all of them agree.
    """
    checked = 0
    for columns, rows in blocks:
        failing = np.flatnonzero(_mismatches(graph, network, columns, rows))
        if failing.size:
            k = int(failing[0])
            values = [columns[i] for i in range(graph.n)]
            return checked + k + 1, TernaryState(int(v[k]) if np.ndim(v) else v for v in values)
        checked += rows
    return checked, None
