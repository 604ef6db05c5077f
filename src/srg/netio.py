"""Text formats: network files, state literals, DOT dumps, JSON reports.

The line-oriented network format:

    # comment
    node A            optional explicit declaration (fixes tuple order)
    A -> B            activating edge
    B -| A            inhibiting edge
    clamp RTK = -1    pin a vertex to a constant

Vertices used in edges or clamps without a prior node line are declared
implicitly, in first-appearance order; that order is the tuple order used
by every state literal.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from .core import _NAME, RegulatoryGraph, TernaryState, _state_values
from .errors import ParseError, UnknownVertexError

if TYPE_CHECKING:  # the analysis modules load only where a function needs them
    from .boolenc import EquivalenceReport
    from .dynamics import Attractor, Trajectory, TransitionSystem
    from .phenotype import Phenotype, PhenotypeDecision, Witness

_NODE_RE = re.compile(rf"^node\s+({_NAME})$")
_EDGE_RE = re.compile(rf"^({_NAME})\s*(->|-\|)\s*({_NAME})$")
_CLAMP_RE = re.compile(rf"^clamp\s+({_NAME})\s*=\s*([+-]?\d+)$")
_ASSIGN_RE = re.compile(rf"^({_NAME})\s*=\s*([+-]?\d+)$")

EXAMPLE_NETWORKS = ("fig1a", "fig1b", "mapk")


def parse_network(text: str) -> RegulatoryGraph:
    """Parse the line-oriented network format into a RegulatoryGraph."""
    order = {}
    signs = {}
    clamps = {}

    def intern(name):
        if name not in order:
            order[name] = len(order)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _NODE_RE.match(line)
        if m:
            name = m.group(1)
            if name in order:
                raise ParseError(f"vertex {name!r} is already declared", lineno)
            intern(name)
            continue
        m = _EDGE_RE.match(line)
        if m:
            src, op, dst = m.groups()
            intern(src)
            intern(dst)
            sign = "+" if op == "->" else "-"
            prev = signs.get((src, dst))
            if prev is not None and prev[0] != sign:
                raise ParseError(
                    f"edge {src} {dst} already carries the opposite sign (line {prev[1]})",
                    lineno,
                )
            if prev is None:
                signs[(src, dst)] = (sign, lineno)
            continue
        m = _CLAMP_RE.match(line)
        if m:
            name, value_text = m.groups()
            value = int(value_text)
            if value not in (-1, 1):
                raise ParseError(f"clamp value must be -1 or 1, got {value_text}", lineno)
            if name in clamps:
                raise ParseError(f"vertex {name!r} is clamped twice", lineno)
            intern(name)
            clamps[name] = value
            continue
        raise ParseError(f"cannot parse {line!r}", lineno)

    if not order:
        raise ParseError("the document declares no vertices")
    vertices = sorted(order, key=order.get)
    activation = [pair for pair, (sign, _) in signs.items() if sign == "+"]
    inhibition = [pair for pair, (sign, _) in signs.items() if sign == "-"]
    return RegulatoryGraph(vertices, activation, inhibition, clamps)


def serialize_network(graph: RegulatoryGraph) -> str:
    """Render a graph back to the network format; parses to an equal graph."""
    lines = [f"node {name}" for name in graph.vertices]
    for src, sign, dst in graph.edges():
        op = "->" if sign == "+" else "-|"
        lines.append(f"{src} {op} {dst}")
    for i, value in graph.clamps.items():
        lines.append(f"clamp {graph.vertices[i]} = {value}")
    return "\n".join(lines) + "\n"


def _assignments(text: str, what: str) -> dict:
    """Name -> integer for "A=-1,B=1"; each name may appear only once."""
    values = {}
    for part in text.split(","):
        part = part.strip()
        m = _ASSIGN_RE.match(part)
        if not m:
            raise ParseError(f"cannot parse {what} entry {part!r}")
        name = m.group(1)
        if name in values:
            raise ParseError(f"vertex {name!r} is assigned twice")
        values[name] = int(m.group(2))
    return values


def _checked(build, *args):
    """`build(*args)`, with the value checks of the core types as parse errors."""
    try:
        return build(*args)
    except (ValueError, UnknownVertexError) as exc:
        raise ParseError(str(exc)) from None


def parse_state(text: str, graph: RegulatoryGraph) -> TernaryState:
    """Parse "(-1,1,1)" (tuple order) or "A=-1,B=1,C=1" (must cover all)."""
    body = text.strip()
    if not body:
        raise ParseError("empty state")
    if "=" in body:
        return _checked(TernaryState.from_mapping, graph, _assignments(body, "state"))
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    try:
        values = [int(p) for p in body.split(",")]
    except ValueError:
        raise ParseError(f"state values must be integers: {text.strip()!r}") from None
    return _checked(_state_values, graph, values)


def format_state(state) -> str:
    st = state if isinstance(state, TernaryState) else TernaryState(state)
    return repr(st)


def parse_phenotype(text: str) -> Phenotype:
    """Parse "FOXO3=-1,AKT=1"; phenotype values are -1 or 1, never 0."""
    from .phenotype import Phenotype

    return _checked(Phenotype, _assignments(text, "phenotype"))


def export_dot(subject) -> str:
    """Deterministic DOT text for a graph or a transition system.

    Regulatory graphs draw activating edges with a normal arrowhead and
    inhibiting ones with a tee; transition systems label each state node
    with its tuple.
    """
    if isinstance(subject, RegulatoryGraph):
        return _graph_dot(subject)
    from .dynamics import TransitionSystem

    if isinstance(subject, TransitionSystem):
        return "".join(transition_lines(subject, dot=True))
    raise TypeError("export_dot takes a RegulatoryGraph or a TransitionSystem")


def _graph_dot(graph):
    lines = ["digraph regulatory_graph {"]
    for i, name in enumerate(graph.vertices):
        clamp = graph.clamps.get(i)
        if clamp is None:
            lines.append(f'  "{name}";')
        else:
            lines.append(f'  "{name}" [label="{name} = {clamp}", shape=box];')
    for src, sign, dst in graph.edges():
        head = "normal" if sign == "+" else "tee"
        lines.append(f'  "{src}" -> "{dst}" [arrowhead={head}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def transition_lines(sts: TransitionSystem, dot: bool):
    """One "state -> successor" line per state in canonical order, or DOT.

    Stepped a successor block of 3^9 states of `sts` at a time and
    yielded 3^7 lines at a time, so neither the text nor the successor
    codes are ever in memory at once.  Each batch is joined in bulk from
    two label tables, heads over the leading vertices and tails over the
    trailing ones: code c is heads[c // width] + tails[c % width]
    (`_kernel._transition_text`).
    """
    from ._kernel import _transition_text

    yield from _transition_text(sts.graph, sts.strides, sts.successor_blocks(), dot)


def state_json(state):
    return [int(v) for v in state]


def graph_json(graph: RegulatoryGraph) -> dict:
    return {
        "vertices": list(graph.vertices),
        "edges": [[src, sign, dst] for src, sign, dst in graph.edges()],
        "clamps": {graph.vertices[i]: value for i, value in graph.clamps.items()},
    }


def attractor_json(attractor: Attractor) -> dict:
    return {
        "period": attractor.period,
        "states": [state_json(s) for s in attractor.states],
    }


def trajectory_json(trajectory: Trajectory) -> dict:
    return {
        "transient": [state_json(s) for s in trajectory.transient],
        "cycle": [state_json(s) for s in trajectory.cycle],
    }


def decision_json(decision: PhenotypeDecision) -> dict:
    return {
        "mode": decision.mode,
        "admissible": decision.admissible,
        "violations": [
            {
                "rule": v.rule,
                "source": v.source,
                "target": v.target,
                "activation_path": list(v.activation_path),
                "inhibition_edge": list(v.inhibition_edge) if v.inhibition_edge else None,
            }
            for v in decision.violations
        ],
    }


def witness_json(witness: Witness) -> dict:
    return {
        "admissible": witness.admissible,
        "marking": dict(witness.marking.marked),
        "conflict": witness.marking.conflict,
        "start": None if witness.start is None else state_json(witness.start),
        "attractor": None if witness.attractor is None else attractor_json(witness.attractor),
    }


def equivalence_json(report: EquivalenceReport) -> dict:
    counterexample = None
    if report.counterexample is not None:
        state, expected, got = report.counterexample
        counterexample = {
            "state": state_json(state),
            "expected_successor": state_json(expected),
            "produced_bits": list(got),
        }
    return {
        "ok": report.ok,
        "states_checked": report.states_checked,
        "invalid_codes": report.invalid_codes,
        "counterexample": counterexample,
    }


def analysis_report(command: str, graph: RegulatoryGraph, result: dict) -> dict:
    """The uniform machine-readable envelope all CLI commands emit."""
    return {"command": command, "graph": graph_json(graph), "result": result}


def render_report(report: dict) -> str:
    import json  # only the --json calls load it

    return json.dumps(report, indent=2) + "\n"


def example_network_text(name: str) -> str:
    """Source text of a bundled example network."""
    from importlib import resources

    if name not in EXAMPLE_NETWORKS:
        raise KeyError(f"no bundled network named {name!r}; have {EXAMPLE_NETWORKS}")
    return resources.files("srg").joinpath("data", f"{name}.srg").read_text("utf-8")


def load_example(name: str) -> RegulatoryGraph:
    """Parse a bundled example network by name (fig1a, fig1b, mapk)."""
    return parse_network(example_network_text(name))
