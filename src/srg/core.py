"""Signed graphs with ternary vertex states and the unanimous update rule.

A vertex commits to 1 (active) only when some activating influence is
active and no inhibiting influence is even potentially active; it commits
to -1 (inactive) symmetrically.  Every other combination of influences
leaves it at 0 (ambiguous).  A vertex without potentially active regulators
keeps its current value, which falls out of letting the vertex's own state
stand in as one of its regulators (the reflexive extension below).
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

from .errors import UnknownVertexError

INACTIVE = -1
AMBIGUOUS = 0
ACTIVE = 1
TERNARY_VALUES = (INACTIVE, AMBIGUOUS, ACTIVE)

ACTIVATION = "+"
INHIBITION = "-"

# Clamped vertices are pinned, so a graph with c clamps has 3^(n - c)
# reachable states; this caps that count, not 3^n.
DEFAULT_STATE_LIMIT = 3 ** 14

# Vertex names are identifiers, so every text format can carry them unquoted.
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"


class TernaryState(tuple):
    """Total assignment of ternary values in vertex declaration order.

    Behaves like a plain tuple; with the digit order -1 < 0 < 1, tuple
    comparison is exactly the canonical ordering of states.
    """

    __slots__ = ()

    def __new__(cls, values: Iterable[int]):
        vals = tuple(values)
        for v in vals:
            if v not in TERNARY_VALUES:
                raise ValueError(f"ternary values must be -1, 0 or 1, got {v!r}")
        return tuple.__new__(cls, map(int, vals))

    @classmethod
    def from_mapping(cls, graph: "RegulatoryGraph", values: Mapping[str, int]) -> "TernaryState":
        """Build a state from a name -> value mapping covering every vertex."""
        for name in values:
            if not graph.has_vertex(name):
                raise UnknownVertexError(f"unknown vertex {name!r}")
        missing = [name for name in graph.vertices if name not in values]
        if missing:
            raise ValueError(f"state does not assign {', '.join(missing)}")
        return cls(values[name] for name in graph.vertices)

    def __repr__(self) -> str:
        return "(" + ",".join(str(v) for v in self) + ")"


class RegulatoryGraph:
    """Immutable signed directed graph with optional per-vertex clamps.

    Edges are ordered vertex pairs, each either activating or inhibiting,
    never both.  Self-loops are ordinary edges.  A clamp pins a vertex to a
    constant -1 or 1: the update rule runs as usual and the clamp overwrites
    the result, so from the first step on a clamped vertex influences its
    successors at its clamp value.

    Instances are immutable after construction and safe to share across
    threads; derive modified copies with :meth:`with_clamps`.
    """

    def __init__(self, vertices, activation_edges=(), inhibition_edges=(), clamps=None):
        names = tuple(str(v) for v in vertices)
        if not names:
            raise ValueError("a regulatory graph needs at least one vertex")
        index = {}
        for i, name in enumerate(names):
            if not re.fullmatch(_NAME, name):
                raise ValueError(f"vertex names must match {_NAME}, got {name!r}")
            if name in index:
                raise ValueError(f"duplicate vertex name {name!r}")
            index[name] = i
        self.vertices = names
        self.n = len(names)
        self._index = index

        act = frozenset(self._edge(pair) for pair in activation_edges)
        inh = frozenset(self._edge(pair) for pair in inhibition_edges)
        overlap = act & inh
        if overlap:
            u, v = sorted(overlap)[0]
            raise ValueError(
                f"edge ({names[u]}, {names[v]}) cannot be both activating and inhibiting"
            )
        self.activation_edges = act
        self.inhibition_edges = inh

        clamp_map = {}
        for key, value in dict(clamps or {}).items():
            i = self.index_of(key)
            if value not in (-1, 1):
                raise ValueError(f"clamp value for {names[i]!r} must be -1 or 1, got {value!r}")
            clamp_map[i] = int(value)
        self.clamps = dict(sorted(clamp_map.items()))

        self.activation_in = self._grouped(act, by_target=True)
        self.inhibition_in = self._grouped(inh, by_target=True)
        self.activation_out = self._grouped(act, by_target=False)

    def _edge(self, pair):
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise ValueError(f"edges must be (source, target) pairs, got {pair!r}") from None
        return (self.index_of(u), self.index_of(v))

    def _grouped(self, edges, by_target):
        groups = [[] for _ in range(self.n)]
        for u, v in edges:
            if by_target:
                groups[v].append(u)
            else:
                groups[u].append(v)
        return tuple(tuple(sorted(g)) for g in groups)

    def index_of(self, vertex) -> int:
        """Dense index of a vertex given by name or by index."""
        if isinstance(vertex, str):
            try:
                return self._index[vertex]
            except KeyError:
                raise UnknownVertexError(f"unknown vertex {vertex!r}") from None
        if isinstance(vertex, int) and not isinstance(vertex, bool) and 0 <= vertex < self.n:
            return vertex
        raise UnknownVertexError(f"vertex index {vertex!r} out of range")

    def name_of(self, vertex) -> str:
        return self.vertices[self.index_of(vertex)]

    def has_vertex(self, name) -> bool:
        return name in self._index

    def is_clamped(self, vertex) -> bool:
        return self.index_of(vertex) in self.clamps

    def clamp_value(self, vertex):
        """The clamp value of a vertex, or None when unclamped."""
        return self.clamps.get(self.index_of(vertex))

    def edges(self):
        """All edges as (source_name, sign, target_name), sorted by index pair."""
        labeled = [(u, v, ACTIVATION) for (u, v) in self.activation_edges]
        labeled += [(u, v, INHIBITION) for (u, v) in self.inhibition_edges]
        labeled.sort(key=lambda t: (t[0], t[1]))
        return [(self.vertices[u], sign, self.vertices[v]) for u, v, sign in labeled]

    def with_clamps(self, updates: Mapping) -> "RegulatoryGraph":
        """A copy with clamp overrides applied; a None value removes a clamp."""
        clamps = {self.vertices[i]: v for i, v in self.clamps.items()}
        for key, value in updates.items():
            name = self.name_of(key)
            if value is None:
                clamps.pop(name, None)
            else:
                clamps[name] = value
        return RegulatoryGraph(
            self.vertices,
            sorted(self.activation_edges),
            sorted(self.inhibition_edges),
            clamps,
        )

    def without_clamps(self) -> "RegulatoryGraph":
        return self.with_clamps(dict.fromkeys(self.clamps))

    def __eq__(self, other):
        if not isinstance(other, RegulatoryGraph):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.activation_edges == other.activation_edges
            and self.inhibition_edges == other.inhibition_edges
            and self.clamps == other.clamps
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"RegulatoryGraph({self.n} vertices, {len(self.activation_edges)} activating, "
            f"{len(self.inhibition_edges)} inhibiting, {len(self.clamps)} clamped)"
        )


def _state_values(graph: RegulatoryGraph, state) -> TernaryState:
    st = state if isinstance(state, TernaryState) else TernaryState(state)
    if len(st) != graph.n:
        raise ValueError(f"state has {len(st)} values but the graph has {graph.n} vertices")
    return st


def _signed_preds(graph, i, sign):
    if sign == ACTIVATION:
        return graph.activation_in[i]
    if sign == INHIBITION:
        return graph.inhibition_in[i]
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def _influences(st, preds):
    """(some of `preds` is active, some is ambiguous) in state `st`.

    A plain loop on purpose: `step` runs it twice per vertex.
    """
    has_active = has_ambiguous = False
    for u in preds:
        val = st[u]
        if val == 1:
            has_active = True
        elif val == 0:
            has_ambiguous = True
    return has_active, has_ambiguous


def regulators(graph: RegulatoryGraph, state, vertex, sign) -> frozenset:
    """Influence strengths reaching `vertex` over edges of one sign.

    The set of state(u) over all sign-edges (u, vertex), less -1: inactive
    regulators contribute nothing.  Written out from the definition rather
    than through `step`'s scan, so the tests can hold one against the other.
    """
    i = graph.index_of(vertex)
    st = _state_values(graph, state)
    return frozenset(st[u] for u in _signed_preds(graph, i, sign)) - {-1}


def regulators_reflexive(graph: RegulatoryGraph, state, vertex, sign) -> frozenset:
    """Like :func:`regulators`, with the vertex's own value folded in.

    On the activating side the vertex contributes its own value when it is
    0 or 1; on the inhibiting side it contributes the negation of its value
    when that is -1 or 0 (so an inactive vertex pushes itself to stay
    inactive).  This is what makes unregulated vertices inert.
    """
    i = graph.index_of(vertex)
    st = _state_values(graph, state)
    own = st[i] if sign == ACTIVATION else -st[i]
    return (regulators(graph, st, i, sign) | {own}) - {-1}


def _update_index(graph, st, i) -> int:
    act_active, act_ambiguous = _influences(st, graph.activation_in[i])
    inh_active, inh_ambiguous = _influences(st, graph.inhibition_in[i])
    cur = st[i]
    if (act_active or cur == 1) and not inh_active and not inh_ambiguous:
        return 1
    if (inh_active or cur == -1) and not act_active and not act_ambiguous:
        return -1
    return 0


def update_vertex(graph: RegulatoryGraph, state, vertex) -> int:
    """Next value of one vertex under the unanimous rule.

    Clamps are not applied here; :func:`step` overwrites clamped vertices
    after updating every vertex.
    """
    i = graph.index_of(vertex)
    st = _state_values(graph, state)
    return _update_index(graph, st, i)


def step(graph: RegulatoryGraph, state) -> TernaryState:
    """Synchronous update of every vertex, then clamp overrides.

    All vertices read the same input state, so the result is a total
    deterministic function of the input.
    """
    st = _state_values(graph, state)
    nxt = [_update_index(graph, st, i) for i in range(graph.n)]
    for i, value in graph.clamps.items():
        nxt[i] = value
    return TernaryState(nxt)


def apply_clamps(graph: RegulatoryGraph, state) -> TernaryState:
    """Overwrite clamped vertices with their clamp values; identity otherwise."""
    st = _state_values(graph, state)
    if not graph.clamps:
        return st
    vals = list(st)
    for i, value in graph.clamps.items():
        vals[i] = value
    return TernaryState(vals)
