"""Shared test machinery: state-space walks, random corpora, brute-force oracle."""

import itertools
import os
import random
import subprocess
import sys

import srg
from srg import (
    EquivalenceReport,
    Phenotype,
    RegulatoryGraph,
    TernaryState,
    bn_step,
    encode_state,
    simulate,
    step,
)


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


def reference_sts_text(graph):
    """`srg sts` text rendered from the scalar step, independent of the kernel."""
    return "".join(f"{s!r} -> {step(graph, s)!r}\n" for s in clamp_consistent_states(graph))


def reference_sts_dot(graph):
    """DOT of the transition system rendered from the scalar step."""
    states = list(clamp_consistent_states(graph))
    lines = ["digraph state_transitions {"]
    lines += [f'  "{s!r}";' for s in states]
    lines += [f'  "{s!r}" -> "{step(graph, s)!r}";' for s in states]
    lines.append("}")
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

# One `srg` call; then, as the last line of stdout, whether numpy is loaded.
_NUMPY_PROBE = "\n".join([
    "import sys",
    "from srg.cli import main",
    "code = main(sys.argv[1:])",
    "print('numpy' in sys.modules)",
    "sys.exit(code)",
])


def run_python(*args):
    """`python *args` in a fresh interpreter that imports srg from this source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRG_SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def run_srg_fresh(*argv):
    """(exit code, stdout, stderr, numpy loaded) of one `srg` call in a fresh interpreter."""
    proc = run_python("-c", _NUMPY_PROBE, *argv)
    lines = proc.stdout.splitlines(keepends=True)
    assert lines and lines[-1] in ("True\n", "False\n"), proc.stderr
    return proc.returncode, "".join(lines[:-1]), proc.stderr, lines[-1] == "True\n"
