"""Output checks of the benchmark, run after the timed region.

Usage: python3 bench/check.py CALLS_JSON

CALLS_JSON lists the calls of one run (as workloads.Call.to_json) with the
exit code and stdout file of their first execution.  Every call is checked
against the scalar engine of the library (`srg.step`, `srg.simulate`) or,
for decisions and exports, against the library's own result.  Prints one
JSON object: the failures, one input record per network, and the versions
the launcher cannot read without importing numpy.
"""

from __future__ import annotations

import json
import os
import random
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

import numpy  # noqa: E402

import srg  # noqa: E402
from srg import TernaryState  # noqa: E402

# State spaces up to this size are checked against a full brute-force walk;
# larger ones against this many sampled start states.
BRUTE_FORCE_STATES = 3 ** 7
SAMPLES = 400
SAMPLED_EDGES = 2000


class CheckFailure(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailure(message)


def load_graph(path):
    if path in srg.EXAMPLE_NETWORKS:
        return srg.load_example(path)
    with open(path, encoding="utf-8") as handle:
        return srg.parse_network(handle.read())


def all_states(graph):
    free = [i for i in range(graph.n) if i not in graph.clamps]
    for code in range(3 ** len(free)):
        values = [graph.clamps.get(i, 0) for i in range(graph.n)]
        for i in reversed(free):
            code, digit = divmod(code, 3)
            values[i] = digit - 1
        yield TernaryState(values)


def random_state(rng, graph):
    return TernaryState(graph.clamps.get(i, rng.choice((-1, 0, 1))) for i in range(graph.n))


def parse_literal(text):
    body = text.strip()
    require(body.startswith("(") and body.endswith(")"), f"not a state literal: {text!r}")
    return TernaryState(int(v) for v in body[1:-1].split(","))


def require_cycle(graph, states, what):
    """`states` is a cycle of the scalar step, in successor order."""
    for k, s in enumerate(states):
        nxt = states[(k + 1) % len(states)]
        require(srg.step(graph, s) == nxt, f"{what}: step{s} is not {nxt}")


def phenotype_index(graph, target):
    return {graph.index_of(k): v for k, v in srg.parse_phenotype(target).items()}


def functional_cycles(successor):
    """(cycle count, states on cycles) of a functional graph given as a dict."""
    done = set()
    cycles = cycle_states = 0
    for start in successor:
        path = {}
        s = start
        while s not in done and s not in path:
            path[s] = len(path)
            s = successor[s]
        if s in path:
            cycles += 1
            cycle_states += len(path) - path[s]
        done.update(path)
    return cycles, cycle_states


class Checker:
    def __init__(self, calls):
        self.calls = calls
        self.graphs = {}
        self.attractors = {}
        self.path = None

    def graph(self, path):
        if path not in self.graphs:
            self.graphs[path] = load_graph(path)
        return self.graphs[path]

    def run(self):
        failures = []
        for call in self.calls:
            try:
                self.check(call)
            except CheckFailure as exc:
                failures.append({"call": call["name"], "reason": str(exc)})
            except (ValueError, KeyError, IndexError, TypeError, srg.SRGError) as exc:
                failures.append({"call": call["name"], "reason": f"unreadable output: {exc!r}"})
        return failures

    def check(self, call):
        self.path = call["net"]["path"]
        graph = self.graph(self.path)
        opts = call["opts"]
        code = call["exit"]
        checker = getattr(self, "check_" + call["command"].replace(" ", "_").replace("-", "_"))
        with open(call["stdout"], encoding="utf-8") as handle:
            expected = checker(graph, handle, opts)
        require(code == expected, f"exit code {code}, expected {expected}")

    # -- attractor lists -------------------------------------------------

    def check_attractor_list(self, graph, reported, phenotype=None):
        """Every reported attractor is a canonical cycle of the scalar step,
        the list is sorted and complete (brute force or sampled starts)."""
        required = {} if phenotype is None else phenotype
        seen = set()
        for states in reported:
            require(states, "empty attractor")
            require(len(set(states)) == len(states), f"attractor repeats a state: {states[:3]}")
            require(states[0] == min(states), f"attractor not rotated to its least state: {states[0]}")
            for s in states:
                require(all(s[i] == v for i, v in graph.clamps.items()), f"{s} breaks a clamp")
                require(all(s[i] == v for i, v in required.items()),
                        f"{s} lacks the phenotype")
            require_cycle(graph, states, "attractor")
            seen.add(tuple(states))
        firsts = [states[0] for states in reported]
        require(firsts == sorted(firsts) and len(seen) == len(reported),
                "attractors not sorted by least state, or repeated")

        def found(start):
            cycle = srg.simulate(graph, start).attractor().states
            if all(s[i] == v for s in cycle for i, v in required.items()):
                require(cycle in seen, f"attractor reached from {start} is missing")
                return cycle
            return None

        states = 3 ** (graph.n - len(graph.clamps))
        if states <= BRUTE_FORCE_STATES:
            reached = {found(s) for s in all_states(graph)} - {None}
            require(reached == seen, "reported attractors that no state reaches")
        else:
            rng = random.Random(self.path)
            for _ in range(SAMPLES):
                found(random_state(rng, graph))
        if phenotype is None:
            self.attractors[self.path] = (len(reported), sum(len(a) for a in reported))

    def read_attractors(self, handle, opts, header):
        if opts.get("json"):
            result = json.load(handle)["result"]
            attractors = [tuple(TernaryState(s) for s in a["states"]) for a in result["attractors"]]
            require(all(a["period"] == len(a["states"]) for a in result["attractors"]),
                    "period disagrees with the state list")
            return attractors, result
        lines = handle.read().splitlines()
        require(lines and lines[0] == f"{lines[0].split()[0]} {header}",
                f"unexpected first line {lines[:1]}")
        attractors = []
        for line in lines[1:]:
            if line.startswith("attractor "):
                attractors.append([])
            else:
                attractors[-1].append(parse_literal(line))
        require(int(lines[0].split()[0]) == len(attractors), "count line disagrees")
        return [tuple(a) for a in attractors], None

    def check_attractors(self, graph, handle, opts):
        if "limit" in opts and 3 ** (graph.n - len(graph.clamps)) > opts["limit"]:
            require(handle.read() == "", "a refused call printed output")
            return 3
        attractors, result = self.read_attractors(handle, opts, "attractors")
        if result is not None:
            require(result["count"] == len(attractors), "count field disagrees")
        self.check_attractor_list(graph, attractors)
        return 0

    def check_phenotype_check(self, graph, handle, opts):
        if opts.get("mode") == "oracle":
            attractors, result = self.read_attractors(handle, opts, "matching attractors")
            if result is not None:
                require(result["admissible"] == bool(attractors), "admissible flag disagrees")
            self.check_attractor_list(graph, attractors, phenotype_index(graph, opts["target"]))
            return 0 if attractors else 1
        mode = opts.get("mode", "paths")
        decision = srg.decide_phenotype(graph, srg.parse_phenotype(opts["target"]), mode=mode)
        if opts.get("json"):
            result = json.load(handle)["result"]
            admissible = result["admissible"]
            require(result["mode"] == mode, "mode disagrees")
            got = [(v["rule"], v["source"], v["target"]) for v in result["violations"]]
            want = [(v.rule, v.source, v.target) for v in decision.violations]
        else:
            lines = handle.read().splitlines()
            admissible = lines[0] == "admissible"
            require(lines[0] in ("admissible", "inadmissible"), f"unexpected line {lines[0]!r}")
            require(all(line.startswith("  rule (") for line in lines[1:]),
                    "unexpected violation line")
            got = [(line[8], line.split()[3].rstrip(":")) for line in lines[1:]]
            want = [(v.rule, v.source) for v in decision.violations]
        require(admissible == decision.admissible, "decision disagrees with the library")
        require(got == want, "violations disagree with the library")
        if mode == "paths" and 3 ** graph.n <= BRUTE_FORCE_STATES:
            oracle = srg.attractors_with_phenotype(graph, srg.parse_phenotype(opts["target"]))
            require(decision.admissible == bool(oracle), "paths decision disagrees with the oracle")
        return 0 if decision.admissible else 1

    # -- single trajectories ---------------------------------------------

    def check_step(self, graph, handle, opts):
        start = srg.parse_state(opts["state"], graph)
        expected = []
        current = start
        for _ in range(opts["steps"]):
            current = srg.step(graph, current)
            expected.append(current)
        if opts.get("json"):
            result = json.load(handle)["result"]
            require(TernaryState(result["start"]) == start, "start state disagrees")
            got = [TernaryState(s) for s in result["states"]]
        else:
            got = [parse_literal(line) for line in handle.read().splitlines()]
        require(got == expected, "states disagree with the scalar step")
        return 0

    def check_simulate(self, graph, handle, opts):
        trajectory = srg.simulate(graph, srg.parse_state(opts["state"], graph))
        if opts.get("json"):
            result = json.load(handle)["result"]
            transient = [TernaryState(s) for s in result["transient"]]
            cycle = [TernaryState(s) for s in result["cycle"]]
        else:
            lines = handle.read().splitlines()
            split = next((k for k, line in enumerate(lines) if line.startswith("cycle")), None)
            require(lines[0] == "transient:" and split is not None, "unexpected layout")
            transient = [parse_literal(line) for line in lines[1:split]]
            cycle = [parse_literal(line) for line in lines[split + 1:]]
        require(tuple(transient) == trajectory.transient and tuple(cycle) == trajectory.cycle,
                "trajectory disagrees with the scalar simulation")
        require_cycle(graph, cycle, "trajectory cycle")
        return 0

    def check_phenotype_witness(self, graph, handle, opts):
        completion = {"minus": -1, "zero": 0, "plus": 1}[opts.get("completion", "minus")]
        witness = srg.phenotype_witness(graph, srg.parse_phenotype(opts["target"]), completion)
        if opts.get("json"):
            result = json.load(handle)["result"]
            require(result["admissible"] == witness.admissible, "admissibility disagrees")
            cycle = None
            if witness.admissible:
                cycle = tuple(TernaryState(s) for s in result["attractor"]["states"])
                require(TernaryState(result["start"]) == witness.start, "start disagrees")
        else:
            lines = handle.read().splitlines()
            require(lines[0].startswith("inadmissible") != witness.admissible,
                    "admissibility disagrees")
            cycle = tuple(parse_literal(line) for line in lines[3:]) if witness.admissible else None
        if cycle is not None:
            require(cycle == witness.attractor.states, "witness attractor disagrees")
            require_cycle(graph, cycle, "witness")
            required = phenotype_index(graph, opts["target"])
            require(all(s[i] == v for s in cycle for i, v in required.items()),
                    "witness lacks the phenotype")
        return 0 if witness.admissible else 1

    # -- exports and cross-checks ----------------------------------------

    def check_graph(self, graph, handle, opts):
        text = handle.read()
        if opts.get("dot"):
            require(text == srg.export_dot(graph), "DOT disagrees with the library")
        else:
            lines = text.splitlines()
            require(lines[0] == "vertices: " + " ".join(graph.vertices), "vertex line disagrees")
            edges = {(s, sign, d) for s, sign, d in graph.edges()}
            got = {(p[0], "+" if p[1] == "->" else "-", p[2])
                   for p in (line.split() for line in lines[1:] if not line.startswith("clamp"))}
            require(got == edges, "edge lines disagree with the graph")
        return 0

    def check_encode_bn(self, graph, handle, opts):
        require(handle.read() == srg.to_boolnet(srg.encode_network(graph)),
                "rules disagree with the library")
        return 0

    def check_verify_bn(self, graph, handle, opts):
        result = json.load(handle)["result"]
        expected = opts.get("samples", 3 ** (graph.n - len(graph.clamps)))
        require(result["ok"] and result["counterexample"] is None, "cross-check reports a mismatch")
        require(result["invalid_codes"] == 0, f"{result['invalid_codes']} invalid codes")
        require(result["states_checked"] == expected,
                f"checked {result['states_checked']} states, expected {expected}")
        return 0

    def check_sts(self, graph, handle, opts):
        """3^free distinct clamp-consistent states with one edge each, closed
        under the successor map; sampled edges agree with the scalar step.
        States stay literal strings except where they are checked."""
        states = 3 ** (graph.n - len(graph.clamps))
        every = max(1, states // SAMPLED_EDGES)
        dot = opts.get("dot")
        nodes = set()
        successor = {}
        closed = not dot
        if dot:
            require(handle.readline() == "digraph state_transitions {\n", "bad DOT header")
        for line in handle:
            if dot:
                if line == "}\n":
                    closed = True
                    break
                require(line.startswith("  \"") and line.endswith("\";\n"), f"bad DOT line {line!r}")
                parts = line[3:-3].split('" -> "')
                if len(parts) == 1:
                    nodes.add(parts[0])
                    continue
            else:
                parts = line.rstrip("\n").split(" -> ")
            source, target = parts
            require(source not in successor, f"two edges from {source}")
            if len(successor) % every == 0:
                require(srg.step(graph, parse_literal(source)) == parse_literal(target),
                        f"edge {source} -> {target} is not a step")
            successor[source] = target
        require(closed and handle.read() == "", "DOT not closed, or text after it")
        require(len(successor) == states, f"{len(successor)} states, expected {states}")
        require(set(successor.values()) <= successor.keys(), "an edge leaves the state set")
        if dot:
            require(nodes == successor.keys(), f"{len(nodes)} state nodes, expected {states}")
        if graph.clamps:
            require(all(all(parse_literal(s)[i] == v for i, v in graph.clamps.items())
                        for s in successor), "a state breaks a clamp")
        self.attractors.setdefault(self.path, functional_cycles(successor))
        return 0

    # -- input record ----------------------------------------------------

    def record(self, path):
        """Input properties of one network, as a base for later claims."""
        graph = self.graph(path)
        states = 3 ** (graph.n - len(graph.clamps))
        found = self.attractors.get(path)
        if found is None:
            attractors = srg.enumerate_attractors(graph)
            found = (len(attractors), sum(a.period for a in attractors))
        return {
            "free_vertices": graph.n - len(graph.clamps),
            "states": states,
            "edges": len(graph.activation_edges) + len(graph.inhibition_edges),
            "clamps": len(graph.clamps),
            "attractors": found[0],
            "attractor_state_share": found[1] / states,
        }


def main():
    with open(sys.argv[1], encoding="utf-8") as handle:
        calls = json.load(handle)
    if not os.path.abspath(srg.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"srg was imported from {srg.__file__}, not from {SRC}")
    checker = Checker(calls)
    failures = checker.run()
    nets = {os.path.basename(path): checker.record(path)
            for path in sorted({c["net"]["path"] for c in calls})}
    print(json.dumps({"failures": failures, "nets": nets, "numpy": numpy.__version__}))


if __name__ == "__main__":
    main()
