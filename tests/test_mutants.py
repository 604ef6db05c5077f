"""Standing mutants: each one must fail a fast check against the scalar step.

A mutant is one textual change to the source of one library function,
compiled beside the original and monkeypatched over it.  Every change must
match its source exactly once, so a mutant that no longer applies fails
here instead of passing unseen.  The check compares, on a fixed corpus,
the kernel's successor codes, the Boolean cross-check, the library's
attractors and the output of `attractors`, `sts` and the phenotype oracle
with references built from the scalar `step`.
"""

import __future__
import contextlib
import importlib
import inspect
import io
import random

import pytest

from srg import (
    build_sts, check_simulation_equivalence, enumerate_attractors, serialize_network, step,
)
from srg.cli import main

from helpers import (
    chain,
    edge_case_graphs,
    hub,
    oscillators,
    period_three,
    random_graph,
    reference_attractors,
    reference_sts,
    scalar_walk,
    successor_codes,
    table_attractors,
)

# id -> (module, function, source text, replacement)
MUTANTS = {
    # the five `_kernel._moves` mutants of ROADMAP item 2
    "up-inh-le-0": ("_kernel", "_moves", "& (inh < 0)", "& (inh <= 0)"),
    "down-act-le-0": ("_kernel", "_moves", "& (act < 0)", "& (act <= 0)"),
    "up-inh-ne-1": ("_kernel", "_moves", "& (inh < 0)", "& (inh != 1)"),
    "up-without-self": ("_kernel", "_moves", "(np.maximum(act, cur) == 1)", "(act == 1)"),
    "down-without-self": ("_kernel", "_moves", "((inh == 1) | (cur == -1))", "(inh == 1)"),
    # a move summed in the layer of the first leading digit it reads
    "layer-min": ("_kernel", "_successor_slabs", "last = max(", "last = min("),
    # a layer table summed once, not again when a leading digit it holds as a scalar changes
    "table-stale": ("_kernel", "_successor_slabs", "if fixed >= changed:", "if changed < 0:"),
    # a layer table read one leading digit off
    "table-digit": ("_kernel", "_successor_slabs", "scalars[u] + 1 for u in held",
                    "scalars[u] - 1 for u in held"),
    # a blocking regulator's on bit read where the rule needs its off bit
    "bit-literal": ("boolenc", "encode_network", "bits[u][1] for u in block",
                    "bits[u][0] for u in block"),
    # the label heads one vertex short of the slab's leading digits
    "label-split": ("_kernel", "_labels", "split = lead[-1][0] + 1", "split = lead[-1][0]"),
    # every cycle started at the successor of its least state
    "cycle-start": ("_kernel", "_cycles", "            while not seen[k]:",
                    "            k = succ[k]\n            while not seen[k]:"),
    # the oracle's closure check reading a target pinned at 1 as pinned at -1
    "closure-sign": ("_kernel", "_cycles", "[pinned.clamps[i] == -1]",
                     "[pinned.clamps[i] == 1]"),
    # a target clamped the other way walked as if its pin overrode the clamp
    "pin-over-clamp": ("dynamics", "_cycle_codes",
                       "    if any(pinned.clamps[i] != v for i, v in graph.clamps.items()):\n"
                       "        return graph, [], [], []\n", ""),
    # every cycle listed backwards from its least state: periods 1 and 2 read the same
    "cycle-backwards": ("dynamics", "_attractors", "Attractor(tuple(states[a:b]))",
                        "Attractor.from_cycle(states[a:b][::-1])"),
}


def mutant(module, name, old, new):
    """The function `module.name` compiled from its source with `old` replaced by `new`."""
    function = getattr(module, name)
    source = inspect.getsource(function)
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    code = compile(source.replace(old, new), inspect.getsourcefile(function), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, namespace)
    return namespace[name]


def corpus():
    """Small random graphs, with and without clamps, a fully clamped graph,
    two coupled oscillators (period-2 cycles), the period-3 graph, and a
    3^10 chain whose `sts` labels have three heads; each with its scalar
    walk and the exit codes and outputs rendered from it, keyed by command
    line, the oracle's with a random target on one or two vertices."""
    rng = random.Random(61)
    graphs = [random_graph(rng, n=rng.randint(3, 6), density=0.35, clamp_chance=chance)
              for chance in (0.0, 0.3) for _ in range(6)]
    graphs += [edge_case_graphs()[0], oscillators(2), period_three(), chain(10)]
    cases = []
    for graph in graphs:
        states, successors = scalar_walk(graph)
        outputs = {("sts",): (0, reference_sts(states, successors, dot=False))}
        if len(states) < 3 ** 10:
            outputs[("sts", "--dot")] = (0, reference_sts(states, successors, dot=True))
            picked = rng.sample(graph.vertices, min(graph.n, rng.randint(1, 2)))
            target = {v: rng.choice((-1, 1)) for v in picked}
            literal = ",".join(f"{v}={x}" for v, x in target.items())
            oracle = ("phenotype check", "--target", literal, "--mode", "oracle")
            text = reference_attractors(graph, states, successors, False, target)
            code = 1 if text.startswith("0 ") else 0
            for flag in ((), ("--json",)):
                outputs[("attractors", *flag)] = (0, reference_attractors(
                    graph, states, successors, as_json=bool(flag)))
                outputs[(*oracle, *flag)] = (code, reference_attractors(
                    graph, states, successors, bool(flag), target))
        cases.append((graph, states, successors, outputs))
    return cases


def slab_sample(graph, samples=12):
    """Whether the slabs of the unclamped `graph` match the scalar step at a
    few codes each."""
    strides = [(i, 3 ** (graph.n - 1 - i)) for i in range(graph.n)]
    rng = random.Random(3)
    for s, slab in enumerate(build_sts(graph).successor_blocks()):
        for k in rng.sample(range(len(slab)), samples):
            code = s * len(slab) + k
            state = [code // stride % 3 - 1 for _, stride in strides]
            values = step(graph, state)
            if int(slab[k]) != sum((v + 1) * stride for v, (_, stride) in zip(values, strides)):
                return False
    return True


def failures(cases, tmp_path):
    """The checks that disagree with the scalar step, by name."""
    failed = set()
    path = tmp_path / "graph.srg"
    for graph, states, successors, outputs in cases:
        if successor_codes(graph).tolist() != successors:
            failed.add("successors")
        if enumerate_attractors(graph) != table_attractors(states, successors):
            failed.add("attractors")
        if not check_simulation_equivalence(graph).ok:
            failed.add("cross-check")
        path.write_text(serialize_network(graph))
        for argv, expected in outputs.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main([*argv[0].split(), str(path), *argv[1:]])
            if (code, out.getvalue()) != expected:
                failed.add(" ".join(argv))
    # hub(11): two leading digits, and the middle vertex reads both; the
    # 3^12 graph: two layer tables, each over its last leading digit, the
    # later one with the second digit as a scalar
    if not all(map(slab_sample, (hub(11), random_graph(random.Random(2), n=12, density=0.3)))):
        failed.add("slabs")
    return failed


@pytest.fixture(scope="module")
def cases():
    return corpus()


def test_the_library_passes_the_check(cases, tmp_path):
    assert failures(cases, tmp_path) == set()


@pytest.mark.parametrize("key", MUTANTS)
def test_mutant_fails_the_check(cases, tmp_path, monkeypatch, key):
    module, name, old, new = MUTANTS[key]
    module = importlib.import_module(f"srg.{module}")
    monkeypatch.setattr(module, name, mutant(module, name, old, new))
    assert failures(cases, tmp_path)
