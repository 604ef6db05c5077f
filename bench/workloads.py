"""Seeded inputs and call lists of the benchmark's two workloads.

Standard library only: the launcher imports this module, and a launcher
that had numpy or srg loaded would inflate every child's peak RSS.

Random graphs follow the recipe of acceptance criterion 10
(tests/test_acceptance.py): every ordered pair of vertices, self-loops
included, gets an activating edge with probability density/2 and else an
inhibiting one with probability density/2.  Each graph draws from its own
generator, seeded from the benchmark seed, the workload and the graph's
label, so adding a graph never changes the others.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("kernels", "queries")


@dataclass(frozen=True)
class Net:
    """A network the calls read: a generated file or a bundled example."""

    path: str
    n: int
    clamped: tuple = ()

    @property
    def free(self) -> list:
        return [i for i in range(self.n) if i not in self.clamped]

    @property
    def states(self) -> int:
        return 3 ** len(self.free)


# The bundled examples: vertex count and clamped vertices (mapk pins RTK).
EXAMPLES = {"fig1a": (3, ()), "fig1b": (3, ()), "mapk": (7, (0,))}


@dataclass(frozen=True)
class Call:
    """One `srg` invocation plus what the output checker needs to know.

    `opts` holds the command's options by name (state, steps, target, mode,
    completion, samples, seed, limit, json, dot); `argv` is derived from
    them, so the checker never parses a command line.
    """

    name: str
    command: str
    net: Net
    opts: dict = field(default_factory=dict)

    @property
    def argv(self) -> list:
        o = self.opts
        argv = self.command.split() + [self.net.path]
        if "state" in o:
            argv.append(o["state"])
        if "steps" in o:
            argv += ["-n", str(o["steps"])]
        if "target" in o:
            argv += ["--target", o["target"]]
        if "mode" in o:
            argv += ["--mode", o["mode"]]
        if "completion" in o:
            argv += ["--completion", o["completion"]]
        if "samples" in o:
            argv += ["--samples", str(o["samples"]), "--seed", str(o["seed"])]
        if "limit" in o:
            argv += ["--limit", str(o["limit"])]
        if o.get("dot"):
            argv.append("--dot")
        if o.get("json"):
            argv.append("--json")
        return argv

    @property
    def states(self) -> int:
        """Clamp-consistent states this call analyses (0 when refused)."""
        if "limit" in self.opts and self.net.states > self.opts["limit"]:
            return 0
        if self.command in ("attractors", "sts") or self.opts.get("mode") == "oracle":
            return self.net.states
        if self.command == "verify-bn":
            return self.opts.get("samples", self.net.states)
        return 0

    def to_json(self) -> dict:
        return {
            "name": self.name, "command": self.command, "argv": self.argv,
            "net": {"path": self.net.path, "n": self.net.n, "clamped": list(self.net.clamped)},
            "opts": self.opts, "states": self.states,
        }


def graph_text(rng: random.Random, n: int, density: float, clamped=()) -> str:
    """Network-format text of a criterion-10 random graph; `clamped` vertices
    are pinned to a random -1 or 1."""
    names = [f"v{i}" for i in range(n)]
    lines = [f"node {name}" for name in names]
    for u in range(n):
        for v in range(n):
            r = rng.random()
            if r < density / 2:
                lines.append(f"{names[u]} -> {names[v]}")
            elif r < density:
                lines.append(f"{names[u]} -| {names[v]}")
    for i in clamped:
        lines.append(f"clamp {names[i]} = {rng.choice((-1, 1))}")
    return "\n".join(lines) + "\n"


class _Inputs:
    """Writes the seeded network files of one workload into `workdir`."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir

    def rng(self, label) -> random.Random:
        return random.Random(f"{self.seed}/{self.workload}/{label}")

    def graph(self, label, n, density, clamps=0) -> Net:
        rng = self.rng(label)
        clamped = tuple(sorted(rng.sample(range(n), clamps)))
        path = os.path.join(self.workdir, f"{label}.srg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(graph_text(rng, n, density, clamped))
        return Net(path, n, clamped)


def _state(rng, net) -> str:
    return "(" + ",".join(str(rng.choice((-1, 0, 1))) for _ in range(net.n)) + ")"


def _target(rng, net, k) -> str:
    """A phenotype on `k` free vertices of a generated graph."""
    picked = sorted(rng.sample(net.free, k))
    return ",".join(f"v{i}={rng.choice((-1, 1))}" for i in picked)


def _enumeration(inp, toy):
    """Unclamped 3^14 enumeration, which sets the peak RSS, and the oracle
    filter over a clamped 3^13 enumeration."""
    n = 6 if toy else 14
    big = inp.graph("unclamped", n, 0.16)
    clamped = inp.graph("clamped", n + 1, 0.16, clamps=2)
    target = _target(inp.rng("target"), clamped, 2)
    return [
        Call("attractors-unclamped", "attractors", big, {"json": True}),
        Call("oracle-clamped", "phenotype check", clamped,
             {"target": target, "mode": "oracle", "json": True}),
    ]


def _rendering(inp, toy):
    """The full transition system of a sparse 3^11 graph as DOT."""
    return [Call("sts-dot", "sts", inp.graph("sparse", 5 if toy else 11, 0.03), {"dot": True})]


def _crosscheck(inp, toy):
    """An exhaustive Boolean cross-check of a 3^9 graph at criterion 8's
    density; a 3^10 one would take 5 s and leave room for only two passes
    of `kernels` in a run."""
    return [Call("verify-9", "verify-bn", inp.graph("dense-9", 4 if toy else 9, 0.3),
                 {"json": True})]


def _queries(inp, toy):
    fig1a, fig1b, mapk = (Net(name, *EXAMPLES[name]) for name in ("fig1a", "fig1b", "mapk"))
    calls = [
        Call("step-fig1a", "step", fig1a, {"state": "(-1,1,1)", "steps": 3}),
        Call("step-fig1b", "step", fig1b, {"state": "(1,-1,1)", "steps": 4, "json": True}),
        Call("step-mapk", "step", mapk,
             {"state": "RTK=-1,RAS=1,PI3K=1,MAPK=0,PIP3=-1,FOXO3=1,AKT=0", "steps": 5,
              "json": True}),
        Call("simulate-fig1b", "simulate", fig1b, {"state": "(1,-1,1)", "json": True}),
        Call("simulate-mapk", "simulate", mapk, {"state": "(-1,-1,-1,-1,1,1,-1)"}),
        Call("attractors-fig1a", "attractors", fig1a, {"json": True}),
        Call("attractors-fig1b", "attractors", fig1b),
        Call("attractors-mapk", "attractors", mapk, {"json": True}),
        Call("oracle-mapk", "phenotype check", mapk,
             {"target": "FOXO3=-1,AKT=1", "mode": "oracle", "json": True}),
        # criterion 4: no attractor has FOXO3 and AKT both active; exits 1
        Call("oracle-mapk-empty", "phenotype check", mapk,
             {"target": "FOXO3=1,AKT=1", "mode": "oracle"}),
        # A is active and activates B, so B cannot be inactive; exits 1
        Call("paths-fig1a", "phenotype check", fig1a, {"target": "A=1,B=-1"}),
        Call("literal-fig1b", "phenotype check", fig1b,
             {"target": "A=1,B=1", "mode": "literal", "json": True}),
        Call("witness-fig1b", "phenotype witness", fig1b, {"target": "A=1", "json": True}),
        Call("witness-fig1a", "phenotype witness", fig1a,
             {"target": "A=-1", "completion": "zero"}),
        Call("graph-fig1a", "graph", fig1a, {"dot": True}),
        Call("graph-mapk", "graph", mapk),
        Call("sts-fig1b", "sts", fig1b, {"dot": True}),
        Call("encode-mapk", "encode-bn", mapk),
        Call("verify-mapk", "verify-bn", mapk, {"samples": 200, "seed": 1, "json": True}),
        Call("verify-fig1b", "verify-bn", fig1b, {"json": True}),
    ]
    rng = inp.rng("queries")
    sizes = (4, 4, 5) if toy else (5, 6, 7)
    nets = [inp.graph(f"small-{k}", n, 0.25) for k, n in enumerate(sizes)]
    for k, net in enumerate(nets):
        calls += [
            Call(f"step-small-{k}", "step", net, {"state": _state(rng, net), "steps": 3,
                                                  "json": True}),
            Call(f"simulate-small-{k}", "simulate", net, {"state": _state(rng, net),
                                                          "json": True}),
            Call(f"attractors-small-{k}", "attractors", net, {"json": True}),
            Call(f"paths-small-{k}", "phenotype check", net,
                 {"target": _target(rng, net, 2), "json": True}),
            Call(f"literal-small-{k}", "phenotype check", net,
                 {"target": _target(rng, net, 2), "mode": "literal"}),
            Call(f"oracle-small-{k}", "phenotype check", net,
                 {"target": _target(rng, net, 2), "mode": "oracle", "json": True}),
        ]
    calls += [
        Call("witness-small-0", "phenotype witness", nets[0],
             {"target": _target(rng, nets[0], 2), "json": True}),
        Call("verify-small-1", "verify-bn", nets[1],
             {"samples": 300, "seed": rng.randrange(10 ** 6), "json": True}),
        Call("encode-small-2", "encode-bn", nets[2]),
        Call("graph-small-2", "graph", nets[2], {"dot": True}),
    ]
    # more states than --limit allows: the command refuses and exits 3
    over = inp.graph("over-limit", 6 if toy else 9, 0.25)
    calls.append(Call("attractors-over-limit", "attractors", over,
                      {"limit": over.states // 3}))
    return calls


def _kernels(inp, toy):
    return _enumeration(inp, toy) + _rendering(inp, toy) + _crosscheck(inp, toy)


_BUILDERS = {"kernels": _kernels, "queries": _queries}

# Reference tasks: fixed child programs that read no srg code, each doing
# the kind of work that dominates some of the benchmark's calls.  The
# launcher times a reference beside the calls, and the end-to-end times are
# counted in its wall time, so that a host that runs everything slower for a
# while moves the calls and their reference together and the ratio stays put.

# An interpreted loop: build_sts, export_dot and verify-bn run one state at
# a time in the interpreter.  It also tracks the host's speed on the numpy
# enumeration better than a numpy pass does, whose time swings with page
# faults.
LOOP = "\n".join([
    "total = 0",
    "for i in range(1_200_000):",
    "    total += i * i % 7",
])

# Interpreter start and the imports of srg.cli, numpy included: most of a
# small call, and of the warm-up call in set-up.
STARTUP = "\n".join([
    "import argparse, collections, dataclasses, json, logging, random, re",
    "from importlib import resources",
    "import numpy as np",
    "total = sum(i * i % 7 for i in range(20_000))",
    "np.arange(100_000).sum()",
])

# STARTUP's wall time on the 2-core Xeon the benchmark was tuned on.  Set-up
# time is reported in seconds at the host speed where STARTUP takes this long.
STARTUP_S = 0.25

REFERENCE = {"kernels": LOOP, "queries": STARTUP}


def build(workload: str, seed: int, workdir: str, toy: bool = False) -> list:
    """Write the workload's seeded network files into `workdir`; return its calls.

    `toy` shrinks every generated graph so the self-test runs in seconds.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
    os.makedirs(workdir, exist_ok=True)
    return _BUILDERS[workload](_Inputs(workload, seed, workdir), toy)
