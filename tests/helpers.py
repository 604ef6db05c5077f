"""Shared test machinery: state-space walks, random corpora, brute-force oracle."""

import functools
import itertools
import json
import os
import random
import subprocess
import sys

import numpy as np

import srg
from srg import (
    Attractor,
    EquivalenceReport,
    Phenotype,
    RegulatoryGraph,
    TernaryState,
    bn_step,
    build_sts,
    encode_state,
    simulate,
    step,
)
from srg.netio import graph_json


def clamp_consistent_states(graph):
    """Every clamp-consistent state, canonical (lexicographic) order."""
    free = [i for i in range(graph.n) if i not in graph.clamps]
    for combo in itertools.product((-1, 0, 1), repeat=len(free)):
        values = [0] * graph.n
        for i, v in graph.clamps.items():
            values[i] = v
        for i, v in zip(free, combo):
            values[i] = v
        yield TernaryState(values)


def successor_codes(graph):
    """The kernel's successor code of every state, in code order: copies of
    the `build_sts` blocks, since each block reuses one buffer."""
    return np.concatenate([block.copy() for block in build_sts(graph).successor_blocks()])


def many_clamped_chain():
    """A 70-vertex activation chain with all but 8 vertices clamped: 3^8
    states, but more vertices than numpy allows array axes (64; 32 in 1.x)."""
    names = [f"v{i}" for i in range(70)]
    free = {0, 1, 20, 21, 22, 45, 68, 69}
    clamps = {name: (-1, 1)[i % 2] for i, name in enumerate(names) if i not in free}
    return RegulatoryGraph(names, list(zip(names, names[1:])), clamps=clamps)


def brute_force_attractors(graph):
    """Oracle independent of the vectorized engine: simulate from every state."""
    found = {}
    for state in clamp_consistent_states(graph):
        attractor = simulate(graph, state).attractor()
        found[attractor.states] = attractor
    return sorted(found.values(), key=lambda a: a.states[0])


def reference_sts(states, successors, dot):
    """`srg sts` text, or its DOT, rendered with `repr` from a `scalar_walk`,
    independent of the kernel and of the label tables."""
    labels = [repr(state) for state in states]
    if not dot:
        return "".join(f"{labels[i]} -> {labels[k]}\n" for i, k in enumerate(successors))
    lines = ["digraph state_transitions {"] + [f'  "{label}";' for label in labels]
    lines += [f'  "{labels[i]}" -> "{labels[k]}";' for i, k in enumerate(successors)]
    return "\n".join(lines + ["}"]) + "\n"


def reference_attractors(graph, states, successors, as_json, targets=None):
    """`srg attractors` text, or its `--json` report, rendered from a
    `scalar_walk` with `repr` and `json.dumps(indent=2)`; with `targets`, a
    {vertex: value} phenotype, the output of `srg phenotype check --mode
    oracle`: the attractors whose every state holds it."""
    found = table_attractors(states, successors)
    if targets is None:
        header, command, result = f"{len(found)} attractors", "attractors", {"count": len(found)}
    else:
        pins = {graph.index_of(name): v for name, v in targets.items()}
        found = [a for a in found if all(s[i] == v for s in a.states for i, v in pins.items())]
        header, command = f"{len(found)} matching attractors", "phenotype-check"
        result = {"mode": "oracle", "admissible": bool(found)}
    if as_json:
        result["attractors"] = [
            {"period": a.period, "states": [list(s) for s in a.states]} for a in found
        ]
        report = {"command": command, "graph": graph_json(graph), "result": result}
        return json.dumps(report, indent=2) + "\n"
    lines = [header]
    for k, attractor in enumerate(found, start=1):
        lines.append(f"attractor {k} (period {attractor.period}):")
        lines += [f"  {state!r}" for state in attractor.states]
    return "\n".join(lines) + "\n"


def scalar_equivalence(graph, network, pool):
    """The commuting-square check one state at a time, by the scalar `step`
    and `bn_step`: the reference for `check_simulation_equivalence`."""
    checked = 0
    for state in pool:
        expected = step(graph, state)
        got = bn_step(network, encode_state(state))
        checked += 1
        if got != encode_state(expected):
            invalid = sum(on and off for on, off in zip(got[::2], got[1::2]))
            return EquivalenceReport(False, checked, (state, expected, got), invalid)
    return EquivalenceReport(True, checked, None, 0)


def sampled_states(graph, samples, seed):
    """The states `check_simulation_equivalence(graph, samples, seed=seed)` draws."""
    rng = random.Random(seed)
    return (random_state(rng, graph) for _ in range(samples))


def random_graph(rng, n=None, density=0.2, clamp_chance=0.0):
    """A random signed graph; each ordered pair (self-loops included) gets an
    activating or inhibiting edge with probability density/2 each."""
    if n is None:
        n = rng.randint(2, 7)
    names = [f"v{i}" for i in range(n)]
    activation, inhibition = [], []
    for u in range(n):
        for v in range(n):
            r = rng.random()
            if r < density / 2:
                activation.append((u, v))
            elif r < density:
                inhibition.append((u, v))
    clamps = {}
    for name in names:
        if rng.random() < clamp_chance:
            clamps[name] = rng.choice((-1, 1))
    return RegulatoryGraph(names, activation, inhibition, clamps)


def kernel_corpus():
    """60 small random graphs, a third each at clamp chance 0, 0.25 and 0.6."""
    rng = random.Random(101)
    return [
        random_graph(rng, n=rng.randint(1, 7), density=rng.choice((0.1, 0.3, 0.5)),
                     clamp_chance=clamp_chance)
        for clamp_chance in (0.0, 0.25, 0.6)
        for _ in range(20)
    ]


def edge_case_graphs():
    """Graphs with no free vertex, one vertex, only clamped regulators, more
    vertices than numpy allows axes, period-3 cycles, or 10 free vertices:
    three slabs of 3^9 codes, with clamps, a vertex that reads all ten, a
    long transient, or period-2 cycles."""
    graphs = [
        RegulatoryGraph(["A", "B"], [("A", "B")], [("B", "A")], {"A": 1, "B": -1}),
        RegulatoryGraph(["X"], [("X", "X")]),
        RegulatoryGraph(["X"], [], [("X", "X")]),
    ]
    # C's regulators are all clamped, so its flags are scalars, not columns.
    for a in (-1, 1):
        graphs.append(RegulatoryGraph(["A", "C"], [], [("A", "C")], {"A": a}))
        for b in (-1, 1):
            graphs.append(RegulatoryGraph(
                ["A", "B", "C", "D"], [("A", "C"), ("C", "D")], [("B", "C"), ("D", "D")],
                {"A": a, "B": b},
            ))
    graphs += [many_clamped_chain(), period_three()]
    clamped = random_graph(random.Random(21), n=12, density=0.2)
    graphs += [clamped.with_clamps({"v0": -1, "v11": 1}), hub(10), chain(10), oscillators(5)]
    return graphs


def period_three():
    """The smallest graph found with cycles longer than 2, mostly inhibitions:
    two period-3 attractors, the first (-1,-1,-1,-1,1,0) -> (-1,0,-1,0,1,-1)
    -> (-1,-1,0,-1,1,-1).  Read backwards from its least state, a cycle of
    period 1 or 2 is the same list, and one of period 3 is not."""
    names = [f"v{i}" for i in range(6)]
    return RegulatoryGraph(
        names,
        [("v2", "v5"), ("v3", "v2"), ("v5", "v1"), ("v5", "v3")],
        [("v0", "v2"), ("v0", "v4"), ("v4", "v1"), ("v4", "v2"), ("v4", "v3"), ("v4", "v5"),
         ("v5", "v2")],
    )


def chain(n):
    names = [f"v{i}" for i in range(n)]
    return RegulatoryGraph(names, list(zip(names, names[1:])))


def hub(n):
    """A chain whose middle vertex every vertex regulates, half of them by
    inhibition: its move reads all n vertices."""
    names = [f"v{i}" for i in range(n)]
    middle = names[n // 2]
    links = [(u, v) for u, v in zip(names, names[1:]) if v != middle]
    return RegulatoryGraph(
        names,
        links + [(u, middle) for u in names[::2]],
        [(u, middle) for u in names[1::2]],
    )


def oscillators(k):
    """k period-2 oscillators, pairs that activate each other and inhibit
    themselves (`test_dynamics.OSCILLATOR`), each pair also activating the next."""
    names = [f"v{i}" for i in range(2 * k)]
    pairs = list(zip(names[::2], names[1::2]))
    links = [(b, c) for (_, b), (c, _) in zip(pairs, pairs[1:])]
    return RegulatoryGraph(
        names, [e for a, b in pairs for e in ((a, b), (b, a))] + links,
        [(v, v) for v in names],
    )


def scalar_walk(graph):
    """Every clamp-consistent state in code order, and the code of its
    successor by the scalar `step`."""
    states = list(clamp_consistent_states(graph))
    code = {state: k for k, state in enumerate(states)}
    return states, [code[step(graph, state)] for state in states]


@functools.cache
def scalar_successor_table():
    """`(graph, *scalar_walk(graph))` for each graph of `kernel_corpus() +
    edge_case_graphs()`: 261,915 states, stepped once for every kernel test
    that checks them all."""
    return [(graph, *scalar_walk(graph)) for graph in kernel_corpus() + edge_case_graphs()]


def table_attractors(states, successors):
    """The cycles of a scalar walk, sorted as `enumerate_attractors` returns
    them: each state is visited once, marked with the start whose path
    reached it, and a path that runs into its own mark has closed a cycle."""
    mark = [0] * len(states)
    found = []
    for start in range(len(states)):
        path, k = [], start
        while not mark[k]:
            mark[k] = start + 1
            path.append(k)
            k = successors[k]
        if mark[k] == start + 1:
            found.append(Attractor.from_cycle(states[i] for i in path[path.index(k):]))
    return sorted(found, key=lambda a: a.states[0])


def random_state(rng, graph):
    values = [rng.choice((-1, 0, 1)) for _ in range(graph.n)]
    for i, v in graph.clamps.items():
        values[i] = v
    return TernaryState(values)


def random_phenotype(rng, graph, max_targets=None):
    upper = min(max_targets or graph.n, graph.n)
    k = rng.randint(1, upper)
    picked = sorted(rng.sample(range(graph.n), k))
    return Phenotype({graph.vertices[i]: rng.choice((-1, 1)) for i in picked})


SRG_SRC = os.path.dirname(os.path.dirname(os.path.abspath(srg.__file__)))

# Standard-library modules that srg loads only where it uses them: none
# builds a result record, `logging` only issues the literal-versus-paths
# warning, and `json` only renders a --json report.
LAZY_STDLIB = {"dataclasses", "json", "logging"}

# One `srg` call; then, as the last line of stdout, whether numpy is loaded
# and the srg and `LAZY_STDLIB` modules that are.
_MODULE_PROBE = "\n".join([
    "import sys",
    "from srg.cli import main",
    "code = main(sys.argv[1:])",
    f"lazy = {sorted(LAZY_STDLIB)!r}",
    "print('numpy' in sys.modules,",
    "      *sorted(m for m in sys.modules if m.split('.')[0] == 'srg' or m in lazy))",
    "sys.exit(code)",
])


def run_python(*args):
    """`python *args` in a fresh interpreter that imports srg from this source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRG_SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def run_srg_fresh(*argv):
    """(exit code, stdout, stderr, numpy loaded, set of the srg and
    `LAZY_STDLIB` modules loaded) of one `srg` call in a fresh interpreter."""
    proc = run_python("-c", _MODULE_PROBE, *argv)
    lines = proc.stdout.splitlines(keepends=True)
    assert lines, proc.stderr
    numpy_loaded, *modules = lines[-1].split()
    assert numpy_loaded in ("True", "False"), proc.stderr
    return proc.returncode, "".join(lines[:-1]), proc.stderr, numpy_loaded == "True", set(modules)
