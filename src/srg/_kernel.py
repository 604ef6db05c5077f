"""The numpy code kernel: the only module of the package that imports numpy.

`dynamics` and `boolenc` import it inside the functions that walk the state
space, after the state limit has been checked, so a call that never
enumerates (a step, a trajectory, a phenotype decision, a witness, the
graph or its Boolean encoding) never loads numpy.

Enumeration works on state codes: mixed-radix base 3 over the unclamped
vertices, first vertex most significant, so code order is the lexicographic
order of the state tuples and the codes are the C-order cells of a
`(3,) * f` array over the f free vertices.  The rule is local: a free
vertex's move, like its bit rules, reads only itself and a few other
vertices, so both run over the axes of those vertices alone, in slices of
at most 3^9 cells.  The successor kernel adds each move's stride up or down
into every code by broadcasting; the exhaustive Boolean cross-check stops
at each vertex's first failing slice.  Taking the image of the space until
it stops shrinking, one round per step of the longest transient, leaves the
cycle nodes in one bool mask; only cycle states are decoded.  The `sts`
labels split the codes at the same 3^9 digit.
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
    """The index type for codes below `size`: int32 while it fits.

    Refuses with MemoryError, before anything is allocated, past 3^32 codes:
    their int64 array would take 14.8 PB, and its `(3,) * f` view more axes
    than numpy 1.x allows.
    """
    if size > 3 ** 32:
        raise MemoryError(f"{size} state codes are more than any machine can hold")
    return np.int32 if size < 2 ** 31 else np.int64


def _max_at(columns, regulators):
    """Per local cell, or drawn state, the largest of `regulators`; -1 if none.

    With only clamped regulators, or none, the result is an int8 scalar that
    broadcasts in the masks.  The masks compare values rather than negate
    flags: `~` on a Python bool gives -1 or -2, not a logical not.
    """
    return functools.reduce(np.maximum, (columns[u] for u in regulators), np.int8(-1))


def _moves(graph, columns, i):
    """(up, down): per cell of i's local shape, whether free vertex i steps to 1, to -1.

    Every other cell steps it to 0; the two masks never overlap.
    """
    act = _max_at(columns, graph.activation_in[i])
    inh = _max_at(columns, graph.inhibition_in[i])
    cur = columns[i]
    # Up: an active activator (or itself) and no inhibitor at 0 or 1.
    up = (np.maximum(act, cur) == 1) & (inh < 0)
    # Down: an active inhibitor (or itself at -1) and no activator at 0 or 1.
    down = ((inh == 1) | (cur == -1)) & (act < 0)
    return up, down


def _local_columns(graph, strides, support):
    """(index, columns) per slice of the local shape of the free vertices in `support`.

    The local shape spans their axes alone; one of more than 3^9 cells comes
    in slices, in code order, its leading local vertices fixed as scalars.
    `index` picks a slice out of the `(3,) * f` code array; `columns` holds
    its values, scalars but for the trailing local vertices: int8 copies over
    the shape, so that the masks need no strided broadcasts.
    """
    free = [i for i, _ in strides]
    local = [a for a, u in enumerate(free) if u in support]
    lead, rest = local[:-_TAIL_DIGITS], local[-_TAIL_DIGITS:]
    digits = np.arange(-1, 2, dtype=np.int8)
    columns = dict(graph.clamps)
    for a in rest:
        shape = [3 if b in rest else 1 for b in range(rest[0], len(free))]
        along = digits.reshape([3] + [1] * (len(free) - 1 - a))
        columns[free[a]] = np.broadcast_to(along, shape).copy()
    for picks in itertools.product(range(3), repeat=len(lead)):
        index = [slice(None)] * len(free)
        for a, d in zip(lead, picks):
            index[a], columns[free[a]] = d, np.int8(d - 1)
        yield tuple(index), columns


def _successor_codes(graph, state_limit):
    """The successor code of every code, by the unanimous rule.

    The codes are the C-order cells of a `(3,) * f` array, one axis per free
    vertex, first free vertex first.  A free vertex's move reads only itself
    and its regulators, so it runs over their local shape and adds its
    stride up or down into that array, broadcast over the other axes.
    """
    strides = _free_strides(_domains(graph, state_limit))
    size = 3 ** len(strides)
    # Start every successor at the all-ambiguous code, then move each digit.
    succ = np.full(size, (size - 1) // 2, dtype=_code_dtype(size))
    cube = succ.reshape((3,) * len(strides))
    for i, stride in strides:
        support = {i, *graph.activation_in[i], *graph.inhibition_in[i]}
        for index, columns in _local_columns(graph, strides, support):
            up, down = _moves(graph, columns, i)
            # In the code dtype: a stride overflows int8.
            delta = up.astype(cube.dtype)
            delta -= down
            delta *= stride
            out = cube[index]
            out += delta
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


def _bits(network, columns):
    """The bit variables of the vertices in `columns`: v_on is v == 1, v_off is v == -1."""
    return {name: columns[k // 2] == 1 - 2 * (k % 2)
            for k, name in enumerate(network.variables) if k // 2 in columns}


def _vertex_mismatches(graph, rules, bits, columns, i):
    """Per cell, whether one of vertex i's two bit `rules` disagrees with its next value.

    The next value is the kernel's move of a free vertex, or its clamp.
    """
    clamp = graph.clamps.get(i)
    expected = _moves(graph, columns, i) if clamp is None else (clamp == 1, clamp == -1)
    return functools.reduce(
        operator.or_, (_evaluate(rule, bits) != e for rule, e in zip(rules, expected)), False
    )


def _first_mismatch(graph, network, domains):
    """(states checked, state) at the least mismatching code; (3^f, None) if none.

    Vertex i's rules and move read only its support: i, its regulators and
    the vertices of its rules' bits.  Its slices come in code order, every
    other free digit at code digit 0, so its first failing slice holds its
    least failing code.
    """
    strides = _free_strides(domains)
    size = least = 3 ** len(strides)
    dtype = _code_dtype(size)
    for i, rules in enumerate(zip(network.rules[::2], network.rules[1::2])):
        support = {network.variables.index(t) // 2
                   for rule in rules for t in (*rule.or_terms, *rule.and_terms)}
        if i not in graph.clamps:
            support |= {i, *graph.activation_in[i], *graph.inhibition_in[i]}
        for _, columns in _local_columns(graph, strides, support):
            bad = _vertex_mismatches(graph, rules, _bits(network, columns), columns, i)
            if np.any(bad):
                codes = sum((columns[u] + 1).astype(dtype) * k for u, k in strides if u in support)
                least = min(least, int(np.min(np.where(bad, codes, size))))
                break
    if least == size:
        return size, None
    return least + 1, _decode(domains, [least])[0]


def _first_sampled_mismatch(graph, network, samples, seed):
    """(states checked, state) at the first mismatching one of `samples` states.

    The states are clamp-consistent, drawn from `seed` and checked in blocks
    of 3^9; (samples, None) when all of them agree.
    """
    rng, pairs = random.Random(seed), list(zip(network.rules[::2], network.rules[1::2]))
    for lo in range(0, samples, _BLOCK_STATES):
        states = [apply_clamps(graph, [rng.choice((-1, 0, 1)) for _ in range(graph.n)])
                  for _ in range(min(_BLOCK_STATES, samples - lo))]
        columns = dict(enumerate(np.array(states, dtype=np.int8).T))
        bits = _bits(network, columns)
        bad = functools.reduce(operator.or_, (
            _vertex_mismatches(graph, rules, bits, columns, i) for i, rules in enumerate(pairs)
        ), False)
        failing = np.flatnonzero(bad)
        if failing.size:
            return lo + int(failing[0]) + 1, states[failing[0]]
    return samples, None
