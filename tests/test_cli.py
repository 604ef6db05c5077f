"""End-to-end runs of the command-line interface."""

import argparse
import atexit
import contextlib
import gc
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc

import pytest

from srg import (
    RegulatoryGraph, check_simulation_equivalence, decide_phenotype, enumerate_attractors,
    load_example, parse_network, parse_phenotype, parse_state, serialize_network, step,
)
from srg.cli import build_parser, main
from srg.netio import analysis_report, attractor_json, decision_json, render_report, state_json

from helpers import (
    SRG_SRC,
    period_three,
    random_graph,
    reference_attractors,
    reference_sts,
    run_python,
    run_srg_fresh,
    scalar_successor_table,
    scalar_walk,
    table_attractors,
)


@pytest.fixture()
def unclamped_mapk_file(tmp_path):
    path = tmp_path / "mapk_plain.srg"
    path.write_text(serialize_network(load_example("mapk").without_clamps()))
    return str(path)


@pytest.fixture()
def divergence_file(tmp_path):
    path = tmp_path / "divergence.srg"
    path.write_text("w -> u\nu -| v\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def key_names():
    """A graph whose vertex names are keys of the JSON reports, one clamped."""
    return RegulatoryGraph(
        ["count", "attractors", "period", "states"],
        [("count", "attractors"), ("attractors", "count"), ("states", "states")],
        [("attractors", "attractors"), ("count", "count"), ("states", "count")],
        {"period": 1},
    )


def self_activation_file(tmp_path, n):
    """A network of n self-activating vertices: every state is a fixed point."""
    path = tmp_path / f"identity{n}.srg"
    path.write_text("".join(f"v{i} -> v{i}\n" for i in range(n)))
    return path


class TestStepAndSimulate:
    def test_step(self, capsys):
        code, out, _ = run(capsys, "step", "fig1a", "(-1,1,1)")
        assert code == 0
        assert out.strip() == "(0,1,1)"

    def test_multiple_steps(self, capsys):
        code, out, _ = run(capsys, "step", "fig1b", "(1,-1,1)", "-n", "3")
        assert code == 0
        assert out.splitlines() == ["(-1,1,1)", "(0,1,1)", "(0,1,1)"]

    def test_step_json(self, capsys):
        code, out, _ = run(capsys, "step", "fig1a", "A=-1,B=1,C=1", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "step"
        assert report["result"]["states"] == [[0, 1, 1]]

    def test_step_text_is_streamed(self):
        # Each state is printed as it is stepped, not held for all -n steps.
        argv = ["step", "mapk", "(-1,-1,-1,-1,1,1,-1)", "-n", "20000"]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2 ** 20

    def test_step_json_is_written_in_chunks(self):
        # Rendering the report as one string peaked at 783 bytes a state,
        # and writing it from a list per state at about 150.
        argv = ["step", "mapk", "(-1,1,1,0,-1,1,0)", "-n", "20000", "--json"]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 250 * 20000

    @pytest.mark.parametrize("name, start", [("fig1b", "(1,-1,1)"), ("mapk", "(-1,1,1,0,-1,1,0)")])
    def test_step_json_equals_the_report_built_from_a_list(self, capsys, name, start):
        graph = load_example(name)
        states = [parse_state(start, graph)]
        for _ in range(12):
            states.append(step(graph, states[-1]))
        result = {"start": state_json(states[0]), "states": list(map(state_json, states[1:]))}
        code, out, _ = run(capsys, "step", name, start, "-n", "12", "--json")
        assert (code, out) == (0, render_report(analysis_report("step", graph, result)))

    def test_step_json_peak_does_not_grow_with_the_steps(self):
        # Each state's JSON is spliced into the report as it is stepped.
        peaks = []
        for steps in ("1", "2000", "40000"):  # the first call only imports what it runs
            argv = ["step", "mapk", "(-1,1,1,0,-1,1,0)", "-n", steps, "--json"]
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                tracemalloc.start()
                try:
                    assert main(argv) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[2] < peaks[1] + 2 ** 16

    def test_simulate_text(self, capsys):
        code, out, _ = run(capsys, "simulate", "fig1b", "(1,-1,1)")
        assert code == 0
        assert "transient:" in out and "cycle (period 1):" in out
        assert out.count("  (") == 3

    def test_simulate_json(self, capsys):
        code, out, _ = run(capsys, "simulate", "fig1b", "(1,-1,1)", "--json")
        report = json.loads(out)
        assert report["result"]["transient"] == [[1, -1, 1], [-1, 1, 1]]
        assert report["result"]["cycle"] == [[0, 1, 1]]

    def test_bad_state_exits_2(self, capsys):
        code, _, err = run(capsys, "step", "fig1a", "(-1,1)")
        assert code == 2
        assert "srg:" in err

    def test_bad_step_count_exits_2(self, capsys):
        code, _, _ = run(capsys, "step", "fig1a", "(-1,1,1)", "-n", "0")
        assert code == 2


class TestAttractors:
    def test_json_count(self, capsys):
        code, out, _ = run(capsys, "attractors", "fig1a", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["count"] == 8
        assert [[0, 1, 1]] in [a["states"] for a in report["result"]["attractors"]]

    def test_text(self, capsys):
        code, out, _ = run(capsys, "attractors", "fig1b")
        assert code == 0
        assert out.startswith("9 attractors")

    def test_limit_refusal_exits_3(self, capsys):
        code, _, err = run(capsys, "attractors", "mapk", "--limit", "10")
        assert code == 3
        assert "exceeds the limit" in err

    def test_period_three_cycles_in_successor_order(self, capsys, tmp_path):
        # Read backwards from its least state, a cycle of period 1 or 2 is the
        # same list; these two are not.
        path = tmp_path / "period3.srg"
        path.write_text(serialize_network(period_three()))
        code, out, _ = run(capsys, "attractors", str(path))
        assert code == 0
        assert out.startswith("34 attractors\n")
        assert ("attractor 4 (period 3):\n"
                "  (-1,-1,-1,-1,1,0)\n  (-1,0,-1,0,1,-1)\n  (-1,-1,0,-1,1,-1)\n"
                "attractor 5 (period 3):\n"
                "  (-1,-1,0,-1,1,0)\n  (-1,0,-1,0,1,0)\n  (-1,0,0,0,1,-1)\n") in out

    def test_json_report_is_streamed(self, capsys, tmp_path):
        # Every state of the self-activation map is a fixed point: 3^8
        # attractors, whose text spans many of the batches `_cycle_text` yields.
        path = self_activation_file(tmp_path, 8)
        text = path.read_text()
        argv = ["attractors", str(path), "--json"]
        import srg._kernel  # noqa: F401  (numpy loads before the trace starts)

        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1200 * 3 ** 8

        graph = parse_network(text)
        attractors = enumerate_attractors(graph)
        report = analysis_report("attractors", graph, {
            "count": len(attractors),
            "attractors": [attractor_json(a) for a in attractors],
        })
        assert run(capsys, *argv) == (0, render_report(report), "")

    def test_memory_per_attractor_is_bounded(self, tmp_path):
        # Every state of a self-activation map is a fixed point, so each call
        # writes 3^10 attractors: all of the 10-vertex map, and those of the
        # 11-vertex map that the oracle finds with v0 pinned.
        calls = [["attractors", str(self_activation_file(tmp_path, 10))],
                 ["phenotype", "check", str(self_activation_file(tmp_path, 11)),
                  "--target", "v0=1", "--mode", "oracle"]]
        import srg._kernel  # noqa: F401  (numpy loads before the trace starts)
        import srg.phenotype  # noqa: F401

        for argv in calls:
            for extra in ([], ["--json"]):
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    tracemalloc.start()
                    try:
                        assert main([*argv, *extra]) == 0
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                assert peak < 200 * 3 ** 10, argv + extra

    def test_outputs_match_scalar_references(self, capsys, tmp_path):
        """`attractors`, text and --json, and `sts`, text and DOT, against
        references rendered from the scalar `step` with `repr` and
        `json.dumps`.  The graphs: the bundled examples; the kernel corpus
        and its edge cases (random graphs with clamps and period-2 cycles,
        one free vertex, every vertex clamped, 70 vertices with 8 free); the
        3^10 spaces of a graph clamped among both the label heads and the
        tails, and of five coupled oscillators; an oscillator beside seven
        self-activating vertices, whose 8,748 cycle states span two batches
        of output; and vertex names that are keys of the JSON report."""
        keys = key_names()
        names = ["a", "b"] + [f"w{i}" for i in range(7)]
        batches = RegulatoryGraph(names, [("a", "b"), ("b", "a")] + [(w, w) for w in names[2:]],
                                  [("a", "a"), ("b", "b")])
        examples = [load_example(name) for name in ("fig1a", "fig1b", "mapk")]
        walks = [(graph, *scalar_walk(graph)) for graph in [*examples, keys, batches]]
        table = scalar_successor_table()
        # The last four are 3^10 spaces: clamped, hub(10), chain(10), oscillators(5).
        walks += table[:-3] + table[-1:]
        path = tmp_path / "graph.srg"
        periods = set()
        for graph, states, successors in walks:
            path.write_text(serialize_network(graph))
            for flag in ([], ["--json"]):
                expected = reference_attractors(graph, states, successors, as_json=bool(flag))
                assert run(capsys, "attractors", str(path), *flag) == (0, expected, "")
            for flag in ([], ["--dot"]):
                expected = reference_sts(states, successors, dot=bool(flag))
                assert run(capsys, "sts", str(path), *flag) == (0, expected, "")
            if graph.clamps:
                periods |= {a.period for a in table_attractors(states, successors)}
        assert {1, 2} <= periods
        free = [graph.n - len(graph.clamps) for graph, _, _ in walks]
        assert {0, 1, 10} <= set(free)

    @pytest.mark.parametrize("command", ["attractors", "sts", "verify-bn"])
    def test_space_past_any_array_exits_3_without_allocating(self, capsys, tmp_path, command):
        # 3^40 codes: more than int64 holds and more axes than numpy allows.
        names = [f"v{i}" for i in range(40)]
        path = tmp_path / "chain40.srg"
        path.write_text("".join(f"{u} -> {v}\n" for u, v in zip(names, names[1:])))
        import srg._kernel  # noqa: F401  (numpy loads before the trace starts)

        tracemalloc.start()
        try:
            result = run(capsys, command, str(path), "--limit", str(3 ** 45))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (3, "", "srg: out of memory; try a smaller network or a lower --limit\n")
        assert peak < 2 ** 20


class TestGraphAndSts:
    def test_graph_dot(self, capsys):
        code, out, _ = run(capsys, "graph", "fig1a", "--dot")
        assert code == 0
        assert out.startswith("digraph regulatory_graph {")

    def test_graph_summary(self, capsys):
        code, out, _ = run(capsys, "graph", "mapk")
        assert code == 0
        assert "vertices: RTK RAS PI3K MAPK PIP3 FOXO3 AKT" in out
        assert "clamp RTK = -1" in out

    def test_leading_byte_order_mark_is_ignored(self, capsys, tmp_path):
        # Some Windows editors start a UTF-8 file with a byte-order mark.
        text = serialize_network(load_example("mapk")).encode("utf-8")
        plain, marked = tmp_path / "plain.srg", tmp_path / "bom.srg"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        expected = run(capsys, "graph", str(plain))
        assert expected[0] == 0
        assert run(capsys, "graph", str(marked)) == expected

    def test_sts_dot(self, capsys):
        code, out, _ = run(capsys, "sts", "fig1b", "--dot")
        assert code == 0
        assert '"(0,1,1)" -> "(0,1,1)";' in out

    def test_sts_text(self, capsys):
        code, out, _ = run(capsys, "sts", "fig1a")
        assert code == 0
        assert "(-1,1,1) -> (0,1,1)" in out

    def test_sts_output_matches_scalar_reference(self, capsys, tmp_path):
        rng = random.Random(212)
        graphs = {name: load_example(name) for name in ("fig1a", "fig1b", "mapk")}
        for k in range(10):
            path = tmp_path / f"random{k}.srg"
            graph = random_graph(rng, density=0.3, clamp_chance=0.25)
            path.write_text(serialize_network(graph))
            graphs[str(path)] = graph
        # 3^9 states: exactly one block of transition text, with one label head
        path = tmp_path / "sparse9.srg"
        graphs[str(path)] = random_graph(rng, n=9, density=0.03)
        path.write_text(serialize_network(graphs[str(path)]))
        # 3^9 states over 11 vertices, two of them clamped: still one block,
        # whose one label head is empty, so both clamps sit in the tails
        path = tmp_path / "clamped11.srg"
        graphs[str(path)] = random_graph(rng, n=11, density=0.03).with_clamps({"v0": 1, "v6": -1})
        path.write_text(serialize_network(graphs[str(path)]))
        # The two graphs above fit one block of 3^9 states; these 3^10 ones
        # take three, with three label heads and block boundaries between them.
        path = tmp_path / "sparse10.srg"
        graphs[str(path)] = random_graph(rng, n=10, density=0.03)
        path.write_text(serialize_network(graphs[str(path)]))
        # v0 is clamped within the heads, v6 within the tails
        path = tmp_path / "clamped12.srg"
        graphs[str(path)] = random_graph(rng, n=12, density=0.03).with_clamps({"v0": 1, "v6": -1})
        path.write_text(serialize_network(graphs[str(path)]))
        for source, graph in graphs.items():
            walk = scalar_walk(graph)  # each state stepped once for both formats
            assert run(capsys, "sts", source) == (0, reference_sts(*walk, dot=False), "")
            assert run(capsys, "sts", source, "--dot") == (0, reference_sts(*walk, dot=True), "")


class TestPhenotypeCommands:
    def test_oracle_mode_empty_exits_1(self, capsys):
        code, out, _ = run(
            capsys, "phenotype", "check", "mapk", "--target", "FOXO3=1,AKT=1",
            "--mode", "oracle",
        )
        assert code == 1
        assert out.startswith("0 matching attractors")

    def test_oracle_mode_nonempty_exits_0(self, capsys):
        code, out, _ = run(
            capsys, "phenotype", "check", "mapk", "--target", "FOXO3=-1,AKT=1",
            "--mode", "oracle", "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["admissible"] is True
        assert len(report["result"]["attractors"]) == 15

    def test_oracle_outputs_match_scalar_references(self, capsys, tmp_path):
        """The oracle's text and --json against `reference_attractors` with
        targets, which filters the attractors of the scalar `step`: on the
        bundled examples, the graph whose vertex names are report keys, and
        the clamped graphs of the kernel corpus and its edge cases, with
        targets on free vertices, on clamps of the same value and on clamps
        of the other value (no attractor, exit 1, an empty JSON array)."""
        rng = random.Random(23)
        examples = [load_example(name) for name in ("fig1a", "fig1b", "mapk")]
        walks = [(graph, *scalar_walk(graph)) for graph in [*examples, key_names()]]
        walks += [walk for walk in scalar_successor_table() if walk[0].clamps]
        path = tmp_path / "graph.srg"
        codes = set()
        for graph, states, successors in walks:
            path.write_text(serialize_network(graph))
            free = [v for i, v in enumerate(graph.vertices) if i not in graph.clamps]
            picked = rng.sample(free, min(len(free), rng.randint(1, 2)))
            targets = [{v: rng.choice((-1, 1)) for v in picked}]
            for i, value in list(graph.clamps.items())[:1]:
                name = graph.vertices[i]
                targets += [{**targets[0], name: value}, {**targets[0], name: -value}]
            for target in filter(None, targets):  # no free vertex, no first target
                argv = ["phenotype", "check", str(path), "--mode", "oracle",
                        "--target", ",".join(f"{v}={x}" for v, x in target.items())]
                text = reference_attractors(graph, states, successors, False, target)
                report = reference_attractors(graph, states, successors, True, target)
                code = 1 if text.startswith("0 ") else 0
                assert run(capsys, *argv) == (code, text, ""), argv
                assert run(capsys, *argv, "--json") == (code, report, ""), argv
                codes.add(code)
        assert codes == {0, 1}

    def test_oracle_limit_counts_the_pinned_space(self, capsys):
        target = ["--target", "FOXO3=-1,AKT=1", "--mode", "oracle"]
        code, out, _ = run(capsys, "phenotype", "check", "mapk", *target, "--limit", "81")
        assert code == 0
        assert out.startswith("15 matching attractors")
        assert run(capsys, "attractors", "mapk", "--limit", "81")[0] == 3

    @pytest.mark.parametrize("target, code, out", [
        ("AKT=1", 0, "admissible\n"),
        ("FOXO3=1,AKT=1", 1, "inadmissible\n  rule (b): active AKT: AKT then AKT -| FOXO3 (active)\n"),
        ("RTK=1", 1, "inadmissible\n  rule (a): active RTK: RTK reaches inactive RTK\n"),
    ], ids=["admissible", "rule-b", "clamp-conflict"])
    def test_paths_mode_on_clamped_graph(self, capsys, target, code, out):
        assert run(capsys, "phenotype", "check", "mapk", "--target", target) == (code, out, "")
        oracle = run(capsys, "phenotype", "check", "mapk", "--target", target, "--mode", "oracle")
        assert oracle[0] == code

    @pytest.mark.parametrize("mode", ["paths", "literal"])
    @pytest.mark.parametrize("target, edges", [
        ("FOXO3=1,AKT=1", [["AKT", "FOXO3"]]),
        ("RTK=1", [None]),
        ("AKT=1", []),
    ], ids=["inhibition-edge", "no-edge", "admissible"])
    def test_decision_json(self, capsys, mode, target, edges):
        graph = load_example("mapk")
        result = decision_json(decide_phenotype(graph, parse_phenotype(target), mode))
        expected = render_report(analysis_report("phenotype-check", graph, result))
        argv = ["phenotype", "check", "mapk", "--target", target, "--mode", mode, "--json"]
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0 if result["admissible"] else 1, expected)
        violations = json.loads(out)["result"]["violations"]
        assert [v["inhibition_edge"] for v in violations] == edges

    def test_paths_mode(self, capsys, unclamped_mapk_file):
        code, out, _ = run(
            capsys, "phenotype", "check", unclamped_mapk_file,
            "--target", "FOXO3=1,AKT=1",
        )
        assert code == 1
        assert "inadmissible" in out
        assert "AKT -| FOXO3" in out
        code, out, _ = run(
            capsys, "phenotype", "check", unclamped_mapk_file,
            "--target", "FOXO3=-1,AKT=1",
        )
        assert code == 0
        assert out.strip() == "admissible"

    def test_literal_mode_divergence(self, capsys, divergence_file):
        code, _, _ = run(
            capsys, "phenotype", "check", divergence_file,
            "--target", "w=1,v=1", "--mode", "literal",
        )
        assert code == 0
        code, _, _ = run(
            capsys, "phenotype", "check", divergence_file,
            "--target", "w=1,v=1", "--mode", "paths",
        )
        assert code == 1

    def test_witness(self, capsys, unclamped_mapk_file):
        code, out, _ = run(
            capsys, "phenotype", "witness", unclamped_mapk_file, "--target", "FOXO3=1",
        )
        assert code == 0
        assert "witness attractor (period 1):" in out
        assert "(-1,-1,-1,-1,-1,1,-1)" in out

    def test_witness_inadmissible(self, capsys, divergence_file):
        code, out, _ = run(
            capsys, "phenotype", "witness", divergence_file, "--target", "w=1,v=1",
        )
        assert code == 1
        assert "conflict at w" in out

    def test_witness_json_and_completion(self, capsys, unclamped_mapk_file):
        code, out, _ = run(
            capsys, "phenotype", "witness", unclamped_mapk_file,
            "--target", "FOXO3=-1,AKT=1", "--completion", "plus", "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["admissible"] is True
        assert report["result"]["marking"]["FOXO3"] == -1

    def test_witness_on_clamped_graph(self, capsys):
        target = ["--target", "AKT=1", "--json"]
        code, out, _ = run(capsys, "phenotype", "witness", "mapk", *target)
        assert code == 0
        witness = json.loads(out)["result"]
        assert witness["marking"] == {"RTK": -1, "AKT": 1}
        oracle = json.loads(run(capsys, "phenotype", "check", "mapk", *target, "--mode", "oracle")[1])
        assert len(oracle["result"]["attractors"]) == 15
        assert witness["attractor"] in oracle["result"]["attractors"]


class TestBooleanCommands:
    def test_encode_to_stdout(self, capsys):
        code, out, _ = run(capsys, "encode-bn", "fig1a")
        assert code == 0
        assert out.startswith("targets, factors")
        assert "A_on, (A_on | C_on) & B_off" in out

    def test_encode_to_file(self, capsys, tmp_path):
        target = tmp_path / "rules.bnet"
        code, out, _ = run(capsys, "encode-bn", "mapk", "-o", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("targets, factors")

    def test_verify_exhaustive(self, capsys):
        code, out, _ = run(capsys, "verify-bn", "mapk")
        assert code == 0
        assert "ok: 729 states agree" in out

    def test_verify_samples(self, capsys):
        code, out, _ = run(capsys, "verify-bn", "fig1b", "--samples", "50", "--seed", "3")
        assert code == 0
        assert "ok: 50 states" in out

    def test_verify_json(self, capsys):
        code, out, _ = run(capsys, "verify-bn", "fig1a", "--json")
        report = json.loads(out)
        assert report["result"]["ok"] is True
        assert report["result"]["states_checked"] == 27

    @pytest.mark.parametrize("samples", [None, 20])
    def test_verify_mismatch(self, capsys, monkeypatch, samples):
        """An encoding whose blocking regulators are read from their on bits,
        the `bit-literal` mutant's fault: both outputs report the counterexample
        of `check_simulation_equivalence` and exit 1."""
        from srg.boolenc import encode_network

        def tampered(graph):
            network = encode_network(graph)
            return network._replace(rules=tuple(
                rule._replace(and_terms=tuple(t.replace("_off", "_on") for t in rule.and_terms))
                for rule in network.rules
            ))

        monkeypatch.setattr("srg.boolenc.encode_network", tampered)
        graph = load_example("mapk")
        report = check_simulation_equivalence(graph, samples=samples, seed=1)
        assert not report.ok
        state, expected, got = report.counterexample
        argv = ["verify-bn", "mapk"]
        if samples:
            argv += ["--samples", str(samples), "--seed", "1"]
        assert run(capsys, *argv) == (1, (
            f"mismatch after {report.states_checked} states\n"
            f"  state:    {state!r}\n"
            f"  expected: {expected!r}\n"
            f"  bits:     {''.join(map(str, got))}\n"
        ), "")
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 1
        assert json.loads(out)["result"] == {
            "ok": False,
            "states_checked": report.states_checked,
            "invalid_codes": report.invalid_codes,
            "counterexample": {
                "state": list(state), "expected_successor": list(expected),
                "produced_bits": list(got),
            },
        }


class TestErrorPaths:
    def test_missing_network_exits_2(self, capsys):
        code, _, err = run(capsys, "attractors", "no_such_file.srg")
        assert code == 2
        assert "no such network file" in err

    def test_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.srg"
        bad.write_text("A -> B\nA -| B\n")
        code, _, err = run(capsys, "attractors", str(bad))
        assert code == 2
        assert "line 2" in err

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_exhaustive_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify-bn", "fig1a", "--exhaustive"])
        assert err.value.code == 2
        assert "--exhaustive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("verify-bn", "fig1a", "--samples", "0"),
        ("simulate", "fig1b", "(1,-1,1)", "--max-steps", "0"),
        ("attractors", "fig1a", "--limit", "0"),
        ("phenotype", "check", "mapk", "--target", "AKT=1", "--mode", "oracle", "--limit", "-1"),
        # Refused before the oracle's clamp conflict or a check that ignores --limit.
        ("phenotype", "check", "mapk", "--target", "RTK=1", "--mode", "oracle", "--limit", "0"),
        ("phenotype", "check", "mapk", "--target", "AKT=1", "--limit", "0"),
        ("verify-bn", "fig1a", "--samples", "5", "--limit", "0"),
    ])
    def test_value_error_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("srg: ") and "must be positive" in err
        assert ("--limit" in err) == ("--limit" in argv)

    @pytest.mark.parametrize("argv", [
        ("step", "fig1a", "(-1,2,1)"),
        ("step", "fig1a", "A=5,B=1,C=1"),
        ("step", "fig1a", "(-1,1)"),
        ("step", "fig1a", "A=1,B=1,Q=1"),
        ("step", "fig1a", "A=1,A=1,B=1"),
        ("step", "fig1a", "A=1,B=1"),
        ("step", "fig1a", "(x,y,z)"),
        ("step", "fig1a", ""),
        ("phenotype", "check", "fig1a", "--target", "A=0"),
        ("phenotype", "check", "fig1a", "--target", "A=2"),
        ("phenotype", "check", "fig1a", "--target", "A=1,A=-1"),
        ("phenotype", "check", "fig1a", "--target", "A->1"),
        ("phenotype", "check", "fig1a", "--target", ""),
    ])
    def test_bad_state_or_phenotype_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("srg: ")

    @pytest.mark.parametrize("exc, code, message", [
        (MemoryError, 3, "srg: out of memory; try a smaller network or a lower --limit"),
        (KeyboardInterrupt, 130, "srg: interrupted"),
    ], ids=("memory", "interrupt"))
    def test_crash_exit_codes(self, capsys, monkeypatch, exc, code, message):
        def cycle_codes(*args, **kwargs):
            raise exc

        # the cycle walk that `attractors` renders from
        monkeypatch.setattr("srg.dynamics._cycle_codes", cycle_codes)
        assert run(capsys, "attractors", "fig1a") == (code, "", message + "\n")

    def test_os_error_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "rules.bnet"
        code, out, err = run(capsys, "encode-bn", "fig1a", "-o", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("srg: ") and "No such file or directory" in err


@pytest.mark.parametrize("argv, space", [
    (("attractors", "mapk"), "3^6 = 729"),
    (("sts", "mapk", "--dot"), "3^6 = 729"),
    (("verify-bn", "mapk"), "3^6 = 729"),
    # the oracle counts the space with its target pinned
    (("phenotype", "check", "mapk", "--target", "FOXO3=-1", "--mode", "oracle"), "3^5 = 243"),
], ids=["attractors", "sts", "verify-bn", "oracle"])
def test_limit_refusal_exits_3_before_loading_numpy(argv, space):
    code, out, err, numpy_loaded, _ = run_srg_fresh(*argv, "--limit", "10")
    assert (code, out, numpy_loaded) == (3, "", False)
    assert err == f"srg: state space has {space} states, which exceeds the limit of 10\n"


@pytest.mark.parametrize("argv", [
    ("attractors", "fig1a"),  # short output, written by the final flush
    ("sts", "mapk", "--dot"),  # long output, written while printing
])
def test_closed_stdout_pipe_exits_141_quietly(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRG_SRC, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from srg.cli import main; sys.exit(main())", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    # The child is still importing, so the pipe closes before it writes.
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


# One `srg` call in the form of the installed script; at exit, after every
# atexit handler registered later, it writes `gc.get_freeze_count()` to the
# file named by its first argument.
_FREEZE_PROBE = "\n".join([
    "import atexit, gc, sys",
    "atexit.register(lambda: open(sys.argv[1], 'w').write(str(gc.get_freeze_count())))",
    "from srg.cli import main",
    "sys.exit(main(sys.argv[2:]))",
])


def _call_in_process(capsys, argv):
    """`run`, argparse's exits included."""
    try:
        return run(capsys, *argv)
    except SystemExit as exc:
        return (exc.code, *capsys.readouterr())


EVERY_EXIT = pytest.mark.parametrize("argv, code", [
    (("attractors", "fig1a"), 0),
    (("phenotype", "check", "fig1a", "--target", "A=1,B=-1"), 1),
    (("attractors", "fig1a", "--limit", "0"), 2),
    (("frobnicate",), 2),
    (("--help",), 0),
    (("attractors", "mapk", "--limit", "1"), 3),
], ids=["ok", "empty", "usage", "argparse-usage", "help", "limit"])


@EVERY_EXIT
def test_every_exit_freezes_the_collector_and_changes_no_output(
        capsys, monkeypatch, tmp_path, argv, code):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the same width in both
    frozen = tmp_path / "frozen"
    proc = run_python("-c", _FREEZE_PROBE, str(frozen), *argv)
    assert int(frozen.read_text()) > 0
    # The same call here with the freeze taken out: the freeze moves no byte.
    # The handlers are patched too, so that this process keeps no stale one.
    freeze, registered = (lambda: None), []
    monkeypatch.setattr(gc, "freeze", freeze)
    monkeypatch.setattr(atexit, "register", registered.append)
    monkeypatch.setattr(atexit, "unregister", lambda func: None)
    assert (proc.returncode, proc.stdout, proc.stderr) == _call_in_process(capsys, argv)
    assert proc.returncode == code
    assert registered.count(freeze) == 1


@EVERY_EXIT
def test_no_exit_freezes_the_collector_of_an_in_process_caller(capsys, argv, code):
    frozen = gc.get_freeze_count()
    assert _call_in_process(capsys, argv)[0] == code
    assert gc.get_freeze_count() == frozen


def test_calls_in_one_process_register_one_exit_handler():
    # `atexit._ncallbacks()` counts the slots that `atexit.unregister` empties too,
    # so the probe counts the freezes instead, from a handler that runs after main's.
    probe = "\n".join([
        "import atexit, gc",
        "freezes = []",
        "atexit.register(lambda: print('freezes:', len(freezes)))",
        "gc.freeze = lambda: freezes.append(1)",
        "from srg.cli import main",
        "print(*[main(['graph', 'fig1a']) for _ in range(3)])",
    ])
    proc = run_python("-c", probe)
    assert (proc.stdout.splitlines()[-2:], proc.stderr) == (["0 0 0", "freezes: 1"], "")


def test_two_calls_in_one_process_answer_alike(capsys):
    argv = ["phenotype", "check", "mapk", "--target", "FOXO3=-1,AKT=1", "--mode", "oracle"]
    first = _call_in_process(capsys, argv)
    code, out, err = first
    assert (code, out.startswith("15 matching attractors\n"), err) == (0, True, "")
    # The first call leaves the collector as it found it; the second answers the same.
    assert _call_in_process(capsys, argv) == first


def _readme_block(section):
    """The first fenced block under README's `section` heading, fence line included."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as handle:
        text = handle.read()
    return text.split(f"## {section}", 1)[1].split("```")[1]


def _readme_synopsis():
    """README's "Command line" synopsis: subcommand -> the options it lists."""
    block = _readme_block("Command line")
    synopsis = {}
    for line in block.strip().splitlines():
        words = line.split()[1:]
        k = next(i for i, w in enumerate(words) if w.startswith("<"))
        synopsis[" ".join(words[:k])] = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", line))
    return synopsis


def _parser_options(parser, prefix=""):
    """Every leaf subcommand of `parser` -> its option actions, without -h."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(_parser_options(sub, f"{prefix}{name} "))
    if not out and prefix:
        out[prefix.strip()] = [
            a for a in parser._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)
        ]
    return out


def test_readme_synopsis_matches_parser():
    synopsis = _readme_synopsis()
    parsed = _parser_options(build_parser())
    assert sorted(synopsis) == sorted(parsed)
    for command, actions in parsed.items():
        listed = synopsis[command]
        known = {opt for a in actions for opt in a.option_strings}
        assert listed <= known, (command, listed - known)
        missing = [a.option_strings for a in actions if not listed & set(a.option_strings)]
        assert not missing, (command, missing)


def test_readme_quick_start_runs():
    block = _readme_block("Library quick start")
    assert block.startswith("python\n")
    namespace = {}
    exec(block.removeprefix("python\n"), namespace)
    # "expression  # -> value" or "expression  # -> value, remark"
    shown = re.findall(r"^(.+?)\s+# -> (.+?)(?:, .*)?$", block, re.M)
    assert len(shown) == 7
    for expression, value in shown:
        assert repr(eval(expression, namespace)) == value, expression
