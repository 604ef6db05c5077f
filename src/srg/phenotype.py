"""Phenotype admissibility: which constant activity patterns fit an attractor.

A phenotype pins a subset of vertices (the target) to -1 or 1.  Whether
some attractor realizes it is decidable from the wiring alone, in two
readings: a path-based one, which is authoritative, and a weaker
predecessor-only one kept as a diagnostic.  The constructive side builds a
witness attractor by freezing every vertex that the phenotype forces to -1
and simulating from there.  Both reduce the clamps away first: a clamp
overwrites its vertex's rule, so the edges into a clamped vertex never matter.
The exhaustive oracle that both are tested against pins the targets in one
walk of `dynamics._cycle_codes`, which drops the cycles only the pins hold.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping, NamedTuple

from .core import RegulatoryGraph, TernaryState, _state_values
from .dynamics import DEFAULT_STATE_LIMIT, Attractor, _attractors, _cycle_codes, simulate
from .errors import SRGError

MODE_PATHS = "paths"
MODE_LITERAL = "literal"


class Phenotype:
    """An active/inactive requirement on a subset of vertices (never 0)."""

    def __init__(self, assignment: Mapping[str, int]):
        values = {}
        for name, value in assignment.items():
            if value not in (-1, 1):
                raise ValueError(
                    f"phenotype value for {name!r} must be -1 or 1, got {value!r}"
                )
            values[str(name)] = int(value)
        self.assignment = values

    @property
    def targets(self):
        return tuple(self.assignment)

    def items(self):
        return self.assignment.items()

    def __len__(self):
        return len(self.assignment)

    def __eq__(self, other):
        if not isinstance(other, Phenotype):
            return NotImplemented
        return self.assignment == other.assignment

    def __repr__(self):
        body = ", ".join(f"{k}={v}" for k, v in self.assignment.items())
        return f"Phenotype({body})"


class Violation(NamedTuple):
    """One reason a phenotype is unrealizable, with its witnessing path.

    rule "a" or "b" names the condition of the decision mode that failed;
    `activation_path` runs from the active source toward the obstruction,
    and rule-b records additionally cross the final inhibition edge.
    """

    rule: str
    source: str
    target: str
    activation_path: tuple
    inhibition_edge: tuple | None = None


class PhenotypeDecision(NamedTuple):
    admissible: bool
    mode: str
    violations: tuple


class WitnessMarking(NamedTuple):
    """Vertex values forced by backward closure from the phenotype."""

    marked: Mapping[str, int]
    conflict: str | None = None


class Witness(NamedTuple):
    admissible: bool
    marking: WitnessMarking
    start: TernaryState | None = None
    attractor: Attractor | None = None


def activation_reachable(graph: RegulatoryGraph, sources, direction="forward"):
    """Vertices connected to `sources` by activation-only paths (length >= 0).

    Forward follows activation edges; backward collects activation
    ancestors.  The sources themselves are always included.
    """
    if direction == "forward":
        adjacency = graph.activation_out
    elif direction == "backward":
        adjacency = graph.activation_in
    else:
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    if isinstance(sources, (str, int)):
        sources = [sources]
    dist, _ = _bfs(adjacency, [graph.index_of(s) for s in sources])
    return {graph.vertices[i] for i in dist}


def _bfs(adjacency, sources):
    """Breadth-first search from every source at once: the distance and the
    BFS parent (None at a source) of each vertex reached."""
    dist = dict.fromkeys(sources, 0)
    parent = dict.fromkeys(sources)
    queue = deque(dist)
    while queue:
        x = queue.popleft()
        for y in adjacency[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                parent[y] = x
                queue.append(y)
    return dist, parent


def _bfs_path(parent, end):
    out = []
    x = end
    while x is not None:
        out.append(x)
        x = parent[x]
    out.reverse()
    return out


def _reduce_clamps(graph, phenotype):
    """G' (`graph` less its clamps and every edge into a clamped vertex), the
    targets merged with the clamps, and the first target clamped the other
    way or None.  G's attractors are those of G' that hold the clamps."""
    required = dict(sorted((graph.index_of(name), value) for name, value in phenotype.items()))
    conflict = next((i for i, v in required.items() if graph.clamps.get(i, v) != v), None)
    edges = [[(u, v) for u, v in sorted(signed) if v not in graph.clamps]
             for signed in (graph.activation_edges, graph.inhibition_edges)]
    reduced = RegulatoryGraph(graph.vertices, *edges)
    return reduced, dict(sorted({**required, **graph.clamps}.items())), conflict


def decide_phenotype(graph: RegulatoryGraph, phenotype: Phenotype, mode=MODE_PATHS) -> PhenotypeDecision:
    """Decide from the wiring alone whether some attractor can hold `phenotype`.

    paths mode (authoritative): inadmissible when an activation path of
    length >= 1 leads from an active target to an inactive target (rule a),
    or an activation path of length >= 0 followed by one inhibition edge
    leads from an active target into an active target (rule b).

    literal mode (diagnostic): the weaker reading that inspects only
    regulators that are themselves targets; rule a rejects an active target
    directly inhibited by an active target, rule b an inactive target with
    an active target among its activation ancestors.  Both are read off the
    paths search: literal a is each paths b whose nearest inhibitor is its
    source, by target then source; literal b is paths a.  Every literal
    violation is thus a relabelled paths one, so paths admissibility implies
    literal admissibility, not conversely; divergences are logged.

    On a clamped graph both modes decide the targets merged with the clamps,
    with the clamps reduced away.  A target v clamped the other way adds a
    violation from v to v along (v,), rule "a" in paths and "b" in literal.
    """
    if mode not in (MODE_PATHS, MODE_LITERAL):
        raise ValueError(f"mode must be 'paths' or 'literal', got {mode!r}")
    reduced, required, clamp_conflict = _reduce_clamps(graph, phenotype)
    active = [i for i, v in required.items() if v == 1]
    inactive = [i for i, v in required.items() if v == -1]
    names = graph.vertices
    violations = []
    loops = []  # (v, u) for each active u that inhibits an active v directly
    for u in active:
        dist, parent = _bfs(reduced.activation_out, [u])
        for v in inactive:
            if v in dist:
                path = tuple(names[i] for i in _bfs_path(parent, v))
                violations.append(Violation("a", names[u], names[v], path))
        for v in active:
            hits = [x for x in reduced.inhibition_in[v] if x in dist]
            if hits:
                x = min(hits, key=lambda k: (dist[k], k))
                path = tuple(names[i] for i in _bfs_path(parent, x))
                violations.append(Violation("b", names[u], names[v], path, (names[x], names[v])))
                if x == u:
                    loops.append((v, u))
    if clamp_conflict is not None:
        name = names[clamp_conflict]
        violations.append(Violation("a", name, name, (name,)))

    if mode == MODE_LITERAL:
        literal = [Violation("a", names[u], names[v], (names[u],), (names[u], names[v]))
                   for v, u in sorted(loops)]
        literal += [w._replace(rule="b") for w in violations if w.rule == "a"]
        if violations and not literal:
            import logging  # here, not at the top: only this rare warning needs it

            logging.getLogger(__name__).warning(
                "%r passes the predecessor-only check but fails the path-based one",
                phenotype,
            )
        violations = literal
    return PhenotypeDecision(admissible=not violations, mode=mode, violations=tuple(violations))


def phenotype_witness(graph: RegulatoryGraph, phenotype: Phenotype, completion=-1) -> Witness:
    """Construct an attractor carrying `phenotype`, or report why none exists.

    Marks the phenotype values, then closes backwards: inhibition
    predecessors of 1-marked vertices and activation predecessors of
    (-1)-marked vertices are forced to -1 until nothing changes.  A vertex
    forced both ways is a conflict and the phenotype is inadmissible, in
    agreement with the path-based decision.  Otherwise the marked vertices
    stay frozen along any run, so simulating from the marking completed by
    `completion` (a ternary constant for the unmarked vertices, or a full
    state to draw them from) yields a witness attractor.

    On a clamped graph the marking starts from the targets merged with the
    clamps, with the clamps reduced away; a target clamped the other way is
    the conflict.
    """
    reduced, required, conflict = _reduce_clamps(graph, phenotype)
    marked = dict(required)
    queue = deque(marked)
    while queue and conflict is None:
        x = queue.popleft()
        preds = reduced.inhibition_in[x] if marked[x] == 1 else reduced.activation_in[x]
        for p in preds:
            existing = marked.get(p)
            if existing == 1:
                conflict = p
                break
            if existing is None:
                marked[p] = -1
                queue.append(p)

    names = graph.vertices
    marking = WitnessMarking(
        marked={names[i]: v for i, v in sorted(marked.items())},
        conflict=None if conflict is None else names[conflict],
    )
    if conflict is not None:
        return Witness(admissible=False, marking=marking)

    if isinstance(completion, int):
        completion = [completion] * graph.n
    fill = _state_values(graph, completion)
    start = TernaryState(marked.get(i, fill[i]) for i in range(graph.n))
    attractor = simulate(graph, start).attractor()
    if any(s[i] != v for s in attractor.states for i, v in required.items()):
        raise SRGError("witness attractor dropped the phenotype; marking closure is broken")
    return Witness(admissible=True, marking=marking, start=start, attractor=attractor)


def attractors_with_phenotype(graph: RegulatoryGraph, phenotype: Phenotype, state_limit=DEFAULT_STATE_LIMIT):
    """Exhaustive oracle: the attractors whose every state matches `phenotype`,
    sorted; `state_limit` counts the states where the targets hold."""
    return _attractors(*_cycle_codes(graph, state_limit, phenotype.assignment))
