"""The numpy code kernel: the only module of the package that imports numpy.

`dynamics` and `boolenc` import it inside the functions that walk the state
space, once `dynamics._free_strides` has laid the space out and refused it,
so a call that never enumerates (a step, a trajectory, a phenotype
decision, a witness, the graph or its Boolean encoding) never loads numpy.

Enumeration works on state codes: mixed-radix base 3 over the free vertices
with the strides of `_free_strides`, first vertex most significant, so code
order is the lexicographic order of the state tuples and the codes are the
C-order cells of a `(3,) * f` array over the f free vertices.  The kernel
walks that array in slabs of 3^9 codes, the leading digits fixed: a free
vertex's move, like its bit rules, reads only itself and a few other
vertices, so both run over the slab axes of those vertices alone, with the
leading ones as scalars.  The moves are summed in layers, by the last
leading digit they read, each layer into a table over its slab axes and
its latest leading digits: a slab adds one table entry a layer, from the
layer of the digit that changed on, and a table is summed again only when
a leading digit it holds as a scalar changes.  `sts` renders each slab as
it is stepped, its labels split at the same 3^9 digit; enumeration marks
the slabs in an image mask, one byte a state, steps only the image again,
finds the cycles on that compact map (`_cycles`, the walk's one entry) and
decodes only their states.

The kernel also writes codes as text, for `sts` and `attractors`: code c's
label is heads[c // w] + tails[c % w], from two short tables of label
pieces over the leading and the trailing vertices (`_labels`), and 3^7
`sts` lines or a batch of attractors are one join over an object array of
table entries and separators, with no string built per state.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from array import array

import numpy as np

from .core import TernaryState, apply_clamps

# A slab, like an `sts` label tail, spans the last _TAIL_DIGITS free
# vertices; the sampled check, and enumeration as it steps the image again,
# take _BLOCK_STATES states a batch.
_TAIL_DIGITS = 9
_BLOCK_STATES = 3 ** _TAIL_DIGITS


def _code_dtype(size):
    """The index type for codes below `size`: int32 while it fits."""
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


def _local_columns(graph, strides, support, width=_TAIL_DIGITS):
    """(slices, columns) of the free vertices in `support` over a slab, which
    fixes every free digit but the last `width` and spans those axes.

    `columns` holds the clamps and int8 copies, over their local shape, of
    the support on the slab axes, so that the masks need no strided
    broadcasts.  `slices` yields, in code order, the int8 scalar values of
    each combination of the support's fixed vertices.
    """
    free = [i for i, _ in strides]
    lead = [u for u in free[:-width] if u in support]
    rest = [a for a in range(len(free))[-width:] if free[a] in support]
    digits = np.arange(-1, 2, dtype=np.int8)
    columns = dict(graph.clamps)
    for a in rest:
        shape = [3 if b in rest else 1 for b in range(rest[0], len(free))]
        along = digits.reshape([3] + [1] * (len(free) - 1 - a))
        columns[free[a]] = np.broadcast_to(along, shape).copy()
    return (dict(zip(lead, p)) for p in itertools.product(digits, repeat=len(lead))), columns


def _add_moves(graph, out, start, group, scalars):
    """Set `out` to `start` plus each (vertex, stride, columns) move of `group` times its stride."""
    out[...] = start
    for i, stride, columns in group:
        up, down = _moves(graph, {**scalars, **columns}, i)
        out += (up.view(np.int8) - down.view(np.int8)) * stride


def _successor_slabs(graph, strides):
    """Per slab of 3^9 consecutive codes, in code order, the successor codes.

    A move, times its vertex's stride, is summed in layer k, k the last
    leading digit it reads (0 if none), onto the sum of the layers before
    it from the all-ambiguous code; a slab adds again only the layers from
    that of the digit that changed, in buffers that every slab reuses.
    Layer k > 0 sums its moves, each over its own axes, into a table over
    the slab axes it reads and the latest of its leading digits that fit in
    3^9 cells; its earlier digits are scalars, and the table is summed
    again only when one of them changes, so that a slab adds one table
    entry a layer.  Layer 0, added three times in all, and a layer whose
    table cannot hold its last digit sum their moves in place instead.
    """
    size, free = 3 ** len(strides), [i for i, _ in strides]
    dtype, lead, slab = _code_dtype(size), free[:-_TAIL_DIGITS], free[-_TAIL_DIGITS:]
    groups, shared, layers = {}, {}, []
    for i, stride in strides:
        support = {i, *graph.activation_in[i], *graph.inhibition_in[i]}
        last = max((k for k, u in enumerate(lead) if u in support), default=0)
        groups.setdefault(last, []).append((i, dtype(stride), support))
    for k, group in sorted(groups.items()):
        reads = set().union(*(support for _, _, support in group))
        digits = [u for u in lead if u in reads]
        room = _TAIL_DIGITS - len(reads.intersection(slab))
        held = digits[max(len(digits) - room, 0):] if k else []
        fixed = lead.index(digits[-len(held) - 1]) if len(digits) > len(held) else -1
        width = len(free) - free.index(held[0]) if held else _TAIL_DIGITS
        moves = []
        for i, stride, support in group:
            columns = _local_columns(graph, strides, support, width)[1]
            columns = shared.setdefault(frozenset(columns), columns)  # same axes, same columns
            moves.append((i, stride, columns))
        table = view = None
        if held:
            table = np.empty([3 if u in reads else 1 for u in free[-width:]], dtype)
            view = table.reshape((3,) * len(held) + table.shape[width - _TAIL_DIGITS:])
        layers.append((k, fixed, moves, table, view, held))
    shape = (3,) * (len(free) - len(lead))
    sums = [np.asarray((size - 1) // 2, dtype)] + [np.empty(shape, dtype) for _ in layers]
    for scalars in _local_columns(graph, strides, lead)[0]:
        changed = max((k for k, u in enumerate(lead) if scalars[u] != -1), default=-1)
        for j, (k, fixed, moves, table, view, held) in enumerate(layers):
            if k < changed:
                continue
            if table is None:
                _add_moves(graph, sums[j + 1], sums[j], moves, scalars)
                continue
            if fixed >= changed:
                _add_moves(graph, table, 0, moves, scalars)
            # from a list, so that the index tuple is allocated at its size
            np.add(sums[j], view[tuple([scalars[u] + 1 for u in held])], out=sums[j + 1])
        yield sums[-1].reshape(-1)


def _compact_map(graph, strides):
    """(live, pos): the codes with a predecessor, ascending, and the index in
    `live` of each one's successor, a functional map for `_peel`.

    Only the image mask spans the space, one byte a state; the successors
    of `live` are stepped again from their digits, 3^9 codes a batch.
    """
    size = 3 ** len(strides)
    image = np.zeros(size, dtype=bool)
    for slab in _successor_slabs(graph, strides):
        image[slab.astype(np.intp)] = True  # numpy stores faster at native indices
    live = np.flatnonzero(image).astype(_code_dtype(size))
    del image
    pos = np.empty_like(live)
    for lo in range(0, len(live), _BLOCK_STATES):
        codes = live[lo:lo + _BLOCK_STATES]
        columns = _columns(graph, strides, codes)
        nxt, group = np.empty_like(codes), [(i, live.dtype.type(k), columns) for i, k in strides]
        _add_moves(graph, nxt, (size - 1) // 2, group, {})
        pos[lo:lo + len(codes)] = np.searchsorted(live, nxt)
    return live, pos


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
    return live.astype(succ.dtype, copy=False), rounds


def _cycles(graph, pinned, strides):
    """(codes, ends) of `dynamics._cycle_codes`: the cycles of `pinned`'s step
    over the codes of `strides` that `graph`'s step keeps.

    The cycle states of the compact map are walked in ascending order, each
    visit marked in a bytearray; beside the image mask and the compact map,
    only the codes and ends take memory, 4 bytes each below 2^31 states and
    8 above.  `graph` keeps a cycle if each vertex pinned only in `pinned`
    moves to its pin at every state: checked only when one is, so an
    unpinned walk keeps its `array` ends.
    """
    live, pos = _compact_map(pinned, strides)
    seen, succ, kind = bytearray(len(live)), memoryview(pos), "iq"[live.itemsize > 4]
    order, ends = array(kind), array(kind)
    for k in memoryview(_peel(pos)[0]):
        if not seen[k]:
            while not seen[k]:
                seen[k] = 1
                order.append(k)
                k = succ[k]
            ends.append(len(order))
    codes, loose = live[order], pinned.clamps.keys() - graph.clamps.keys()
    if not loose:
        return codes, ends
    ok = np.ones(len(codes), dtype=bool)
    for i in loose:
        reads = {i, *graph.activation_in[i], *graph.inhibition_in[i]}
        ok &= _moves(graph, _columns(pinned, strides, codes, reads), i)[pinned.clamps[i] == -1]
    periods = np.diff(ends, prepend=0)
    keep = np.logical_and.reduceat(ok, np.cumsum(periods) - periods)
    return codes[np.repeat(keep, periods)], np.cumsum(periods[keep])


def _columns(graph, strides, codes, reads=None):
    """The values of `codes` per vertex: each clamp as a scalar, and an int8
    column, from the codes' digits in their own dtype, for each free vertex
    in `reads` (every free vertex if None)."""
    columns = dict(graph.clamps)
    for i, stride in strides:
        if reads is None or i in reads:
            columns[i] = (codes // stride % 3 - 1).astype(np.int8)
    return columns


def _decode(graph, strides, codes):
    """The int8 values of the array `codes`, a row per code, filled a vertex at a time."""
    values = np.empty((len(codes), graph.n), dtype=np.int8)
    for i in range(graph.n):
        values[:, i] = _columns(graph, strides, codes, {i})[i]
    return values


def _labels(graph, strides, tail_digits, start, sep, stop):
    """(heads, tails): object arrays of label pieces, so that the label of
    code c, `start + sep.join(values) + stop`, is heads[c // w] + tails[c % w]
    with w = len(tails).

    The tails span the last `tail_digits` free vertices and the clamped
    ones among and after them, the heads the vertices before; every tail
    spans at least one vertex, so each one carries `stop`.
    """
    digits = [(str(graph.clamps[i]),) if i in graph.clamps else ("-1", "0", "1")
              for i in range(graph.n)]
    lead = strides[:max(len(strides) - tail_digits, 0)]
    split = lead[-1][0] + 1 if lead else 0
    heads = [start + "".join(d + sep for d in p) for p in itertools.product(*digits[:split])]
    tails = [sep.join(p) + stop for p in itertools.product(*digits[split:])]
    return np.array(heads, dtype=object), np.array(tails, dtype=object)


def _transition_text(graph, strides, blocks, dot):
    """The text of `transition_lines`, a slab of successor `blocks` at a time.

    The labels split at the slab's digit, so a slab's own labels are one
    head before each of the tails; its lines are joined 3^7 at a time, each
    batch one join over the rows of a (3^7, 6) object array whose separator
    columns are filled once, so that no text or row array spans a slab.
    """
    quote, indent, end = ('"', "  ", ";\n") if dot else ("", "", "\n")
    heads, tails = _labels(graph, strides, _TAIL_DIGITS, quote + "(", ",", ")" + quote)
    width, batch = len(tails), min(len(tails), 3 ** 7)
    if dot:
        yield "digraph state_transitions {\n"
        for head in heads:
            pre = indent + head
            for lo in range(0, width, batch):
                yield pre + (end + pre).join(tails[lo:lo + batch]) + end
    rows = np.empty((batch, 6), dtype=object)
    rows[:, 2], rows[:, 5] = " -> ", end
    for head, block in zip(heads, blocks):
        rows[:, 0] = indent + head
        for lo in range(0, width, batch):
            codes = block[lo:lo + batch]
            rows[:, 1], rows[:, 3] = tails[lo:lo + batch], heads[codes // width]
            rows[:, 4] = tails[codes % width]
            yield "".join(rows.ravel().tolist())
    if dot:
        yield "}\n"


def _cycle_text(graph, strides, codes, ends, as_json):
    """The attractor blocks of `srg attractors`, or with `as_json` the array
    of its "attractors" key as `json.dumps(indent=2)` nests it, from a
    `dynamics._cycle_codes` walk of `graph`, pinned or not.

    Yielded in batches of whole cycles, about 3^8 states each: a batch is
    one join over the rows of a (states, 4) object array, a state's opener
    or separator, label head, label tail, and closer.  The labels split at
    half the free digits, which keeps both tables short.
    """
    if as_json:
        start, sep, stop = "[\n" + " " * 12, ",\n" + " " * 12, "\n" + " " * 10 + "]"
        opener = '{{\n        "period": {1},\n        "states": [\n          '
        between, closer, joint = ",\n" + " " * 10, "\n        ]\n      }", ",\n      "
        yield "[\n      "
    else:
        start, sep, stop = "  (", ",", ")\n"
        opener, between, closer, joint = "attractor {0} (period {1}):\n", "", "", ""
    heads, tails = _labels(graph, strides, (len(strides) + 1) // 2, start, sep, stop)
    ends = np.asarray(ends)
    starts = np.concatenate(([0], ends[:-1]))
    j, most = 0, _BLOCK_STATES // 3  # a batch's states, so at most its cycles
    while j < len(ends):
        k = j + max(1, int(np.searchsorted(ends[j:j + most], starts[j] + most, "right")))
        lo, hi = starts[j], ends[k - 1]
        periods = (ends[j:k] - starts[j:k]).tolist()
        rows = np.empty((hi - lo, 4), dtype=object)
        rows[:, 0], rows[:, 3] = between, ""
        rows[starts[j:k] - lo, 0] = list(map(opener.format, range(j + 1, k + 1), periods))
        rows[ends[j:k] - 1 - lo, 3] = closer + joint
        if k == len(ends):  # no joint after the last cycle
            rows[-1, 3] = closer
        batch = codes[lo:hi]
        rows[:, 1], rows[:, 2] = heads[batch // len(tails)], tails[batch % len(tails)]
        yield "".join(rows.ravel().tolist())
        j = k
    if as_json:
        yield "\n    ]"


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


def _first_mismatch(graph, network, strides):
    """(states checked, state) at the least mismatching code; (3^f, None) if none.

    Vertex i's rules and move read only its support: i, its regulators and
    the vertices of its rules' bits.  Its slices come in code order, every
    other free digit at code digit 0, so its first failing slice holds its
    least failing code.  Only the bits of the slice's scalars change from
    one slice to the next.
    """
    size = least = 3 ** len(strides)
    dtype = _code_dtype(size)
    for i, rules in enumerate(zip(network.rules[::2], network.rules[1::2])):
        support = {network.variables.index(t) // 2
                   for rule in rules for t in (*rule.or_terms, *rule.and_terms)}
        if i not in graph.clamps:
            support |= {i, *graph.activation_in[i], *graph.inhibition_in[i]}
        slices, columns = _local_columns(graph, strides, support)
        bits = _bits(network, columns)
        for scalars in slices:
            columns.update(scalars)
            bits.update(_bits(network, scalars))
            bad = _vertex_mismatches(graph, rules, bits, columns, i)
            if np.any(bad):
                codes = sum((columns[u] + 1).astype(dtype) * k for u, k in strides if u in support)
                least = min(least, int(np.min(np.where(bad, codes, size))))
                break
    if least == size:
        return size, None
    return least + 1, TernaryState(_decode(graph, strides, np.array([least], dtype))[0].tolist())


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
