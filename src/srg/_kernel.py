"""The numpy code kernel: the only module of the package that imports numpy.

`dynamics` and `boolenc` import it inside the functions that walk the state
space, after the state limit has been checked, so a call that never
enumerates (a step, a trajectory, a phenotype decision, a witness, the
graph or its Boolean encoding) never loads numpy.

Enumeration works on state codes: mixed-radix base 3 over the unclamped
vertices, first vertex most significant, so code order is the lexicographic
order of the state tuples and the codes are the C-order cells of a
`(3,) * f` array over the f free vertices.  The successor kernel uses the
locality of the rule: a free vertex's move reads only itself and its
regulators, so it runs over their axes alone and adds its stride up or
down into every code by broadcasting.  Taking the image of the space until
it stops shrinking, one round per step of the longest transient, leaves the
cycle nodes in one bool mask; only cycle states are decoded.  Only the
exhaustive Boolean cross-check walks the codes in digit-aligned blocks of
3^9, each the codes that share their leading digits: the trailing free
vertices are int8 columns built once, the leading and clamped ones scalars.
The `sts` labels split the codes at the same digit.
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
    """Per cell of the vertex's local shape, the largest of `regulators`; -1 if none.

    In the cross-check the cells are a block's rows.  With only clamped
    regulators, or none, the result is an int8 scalar that broadcasts in
    the masks.  The masks compare values rather than negate flags: `~` on a
    Python bool gives -1 or -2, not a logical not.
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
    """The successor code of every code, by the unanimous rule.

    The codes are the C-order cells of a `(3,) * f` array, one axis per free
    vertex, first free vertex first; each free vertex adds its moves into
    that array.
    """
    strides = _free_strides(_domains(graph, state_limit))
    size = 3 ** len(strides)
    # Start every successor at the all-ambiguous code, then move each digit.
    succ = np.full(size, (size - 1) // 2, dtype=_code_dtype(size))
    cube = succ.reshape((3,) * len(strides))
    free = [i for i, _ in strides]
    for i, stride in strides:
        _add_moves(graph, cube, free, i, stride)
    return succ


def _add_moves(graph, cube, free, i, stride):
    """Add free vertex i's moves, `stride` up or down, into the code array.

    The move reads only i and its regulators, its local vertices, so it runs
    over their axes alone, the local shape, and broadcasts over the others.
    A local shape of more than one block runs in slices, its leading local
    vertices fixed as scalars.
    """
    support = {i, *graph.activation_in[i], *graph.inhibition_in[i]}
    local = [a for a, u in enumerate(free) if u in support]
    lead, rest = local[:-_TAIL_DIGITS], local[-_TAIL_DIGITS:]
    # Each trailing local vertex's values along its own axis, copied over
    # the local shape so that the masks need no strided broadcasts.
    shape = [3 if a in rest else 1 for a in range(rest[0], cube.ndim)]
    digits = np.arange(-1, 2, dtype=np.int8)
    columns = dict(graph.clamps)
    for a in rest:
        along = digits.reshape([3] + [1] * (cube.ndim - 1 - a))
        columns[free[a]] = np.broadcast_to(along, shape).copy()
    for picks in itertools.product(range(3), repeat=len(lead)):
        index = [slice(None)] * cube.ndim
        for a, d in zip(lead, picks):
            index[a], columns[free[a]] = d, np.int8(d - 1)
        up, down = _moves(graph, columns, i)
        # In the code dtype: a stride overflows int8.
        delta = up.astype(cube.dtype)
        delta -= down
        delta *= stride
        out = cube[tuple(index)]
        out += delta


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
