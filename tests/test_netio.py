"""Network text format, state literals, DOT export, JSON reports."""

import itertools
import json
import os
import random
import tracemalloc

import pytest

from srg import (
    ParseError,
    RegulatoryGraph,
    TernaryState,
    build_sts,
    export_dot,
    format_state,
    load_example,
    parse_network,
    parse_phenotype,
    parse_state,
    serialize_network,
    simulate,
    step,
)
from srg.netio import (
    analysis_report,
    attractor_json,
    decision_json,
    equivalence_json,
    example_network_text,
    graph_json,
    render_report,
    state_json,
    trajectory_json,
    transition_lines,
    witness_json,
)
from srg import (
    Phenotype,
    check_simulation_equivalence,
    decide_phenotype,
    enumerate_attractors,
    phenotype_witness,
)

from helpers import random_graph, reference_sts, scalar_walk


class TestParseNetwork:
    def test_implicit_declarations_in_first_appearance_order(self, fig1a):
        graph = parse_network("A -> B\nB -| A\nC -> A\n")
        assert graph.vertices == ("A", "B", "C")
        assert graph == fig1a

    def test_node_lines_fix_order(self):
        graph = parse_network("node Z\nnode A\nA -> Z\n")
        assert graph.vertices == ("Z", "A")

    def test_conflicting_signs_rejected_with_line(self):
        with pytest.raises(ParseError) as err:
            parse_network("A -> B\nA -| B\n")
        assert err.value.line == 2
        assert "opposite sign" in str(err.value)

    def test_duplicate_same_sign_edge_tolerated(self):
        graph = parse_network("A -> B\nA -> B\n")
        assert len(graph.activation_edges) == 1

    def test_comments_and_blanks(self):
        graph = parse_network("# header\n\nA -> B  # trailing\n")
        assert graph.vertices == ("A", "B")

    def test_clamp_lines(self):
        graph = parse_network("node X\nclamp X = -1\n")
        assert graph.clamp_value("X") == -1
        graph = parse_network("clamp X = +1\n")
        assert graph.vertices == ("X",) and graph.clamp_value("X") == 1

    def test_bad_clamp_value(self):
        with pytest.raises(ParseError) as err:
            parse_network("clamp X = 0\n")
        assert err.value.line == 1

    def test_duplicate_clamp(self):
        with pytest.raises(ParseError, match="clamped twice"):
            parse_network("clamp X = 1\nclamp X = 1\n")

    def test_redeclared_node(self):
        with pytest.raises(ParseError, match="already declared"):
            parse_network("A -> B\nnode A\n")

    def test_garbage_line(self):
        with pytest.raises(ParseError) as err:
            parse_network("A -> B\nA => B\n")
        assert err.value.line == 2

    def test_empty_document(self):
        with pytest.raises(ParseError, match="no vertices"):
            parse_network("# nothing here\n")


class TestBundledNetworks:
    def test_mapk_shape(self, mapk):
        assert mapk.vertices == ("RTK", "RAS", "PI3K", "MAPK", "PIP3", "FOXO3", "AKT")
        assert len(mapk.activation_edges) + len(mapk.inhibition_edges) == 9
        assert len(mapk.inhibition_edges) == 2
        assert mapk.clamps == {0: -1}

    def test_quoted_transitions_replay(self, fig1a, fig1b, mapk):
        assert step(fig1a, (-1, 1, 1)) == (0, 1, 1)
        assert step(fig1a, (0, 1, 1)) == (0, 1, 1)
        chains = [
            ((-1, 1, -1), [(1, 1, -1), (1, 1, -1)]),
            ((1, -1, -1), [(1, 1, -1)]),
            ((-1, -1, 1), [(-1, -1, 1)]),
            ((1, -1, 1), [(-1, 1, 1), (0, 1, 1), (0, 1, 1)]),
        ]
        for start, chain in chains:
            state = TernaryState(start)
            for expected in chain:
                state = step(fig1b, state)
                assert state == expected
        for fixed in [
            (-1, -1, -1, 1, -1, -1, -1),
            (-1, -1, -1, -1, -1, 1, -1),
            (-1, 1, 1, 1, 1, -1, 1),
        ]:
            assert step(mapk, fixed) == fixed

    def test_loader_names(self):
        with pytest.raises(KeyError):
            load_example("nonexistent")
        assert "RTK" in example_network_text("mapk")


class TestSerializeRoundTrip:
    def test_bundles(self):
        for name in ("fig1a", "fig1b", "mapk"):
            graph = load_example(name)
            assert parse_network(serialize_network(graph)) == graph

    def test_random_graphs(self):
        rng = random.Random(83)
        for _ in range(40):
            graph = random_graph(rng, density=0.4, clamp_chance=0.3)
            assert parse_network(serialize_network(graph)) == graph


class TestParseState:
    def test_tuple_form(self, fig1a):
        assert parse_state("(-1,1,1)", fig1a) == (-1, 1, 1)
        assert parse_state("-1, 1, 1", fig1a) == (-1, 1, 1)
        assert parse_state("( 0 , 1 , 1 )", fig1a) == (0, 1, 1)

    def test_named_form(self, fig1a):
        assert parse_state("A=0,B=1,C=1", fig1a) == (0, 1, 1)
        assert parse_state("C=1, A=-1, B=1", fig1a) == (-1, 1, 1)

    def test_arity_error(self, fig1a):
        with pytest.raises(ParseError, match="3 vertices"):
            parse_state("(-1,1)", fig1a)

    def test_named_form_must_cover_all(self, fig1a):
        with pytest.raises(ParseError, match="does not assign"):
            parse_state("A=1,B=1", fig1a)

    def test_unknown_name(self, fig1a):
        with pytest.raises(ParseError, match="unknown vertex"):
            parse_state("A=1,B=1,Q=1", fig1a)

    def test_duplicate_name(self, fig1a):
        with pytest.raises(ParseError, match="twice"):
            parse_state("A=1,A=1,B=1", fig1a)

    def test_bad_values(self, fig1a):
        with pytest.raises(ParseError):
            parse_state("(-1,2,1)", fig1a)
        with pytest.raises(ParseError):
            parse_state("A=5,B=1,C=1", fig1a)
        with pytest.raises(ParseError):
            parse_state("(x,y,z)", fig1a)
        with pytest.raises(ParseError):
            parse_state("", fig1a)

    def test_format_round_trip(self, mapk):
        state = TernaryState((-1, 0, 1, -1, 0, 1, -1))
        assert parse_state(format_state(state), mapk) == state
        assert format_state(state) == "(-1,0,1,-1,0,1,-1)"


class TestParsePhenotype:
    def test_values(self):
        phenotype = parse_phenotype("FOXO3=-1, AKT=1")
        assert phenotype.assignment == {"FOXO3": -1, "AKT": 1}

    def test_zero_rejected(self):
        with pytest.raises(ParseError, match="-1 or 1"):
            parse_phenotype("A=0")

    def test_duplicates_and_garbage(self):
        with pytest.raises(ParseError):
            parse_phenotype("A=1,A=-1")
        with pytest.raises(ParseError):
            parse_phenotype("A->1")
        with pytest.raises(ParseError):
            parse_phenotype("")


class TestDotExport:
    def test_graph_arrowheads(self, fig1a):
        dot = export_dot(fig1a)
        assert dot.count("arrowhead=tee") == 1
        assert dot.count("arrowhead=normal") == 2
        assert dot.count('";') == 3  # one plain node line per vertex
        assert dot.startswith("digraph regulatory_graph {")

    def test_clamped_vertex_marked(self, mapk):
        dot = export_dot(mapk)
        assert '"RTK" [label="RTK = -1", shape=box];' in dot

    def test_sts_self_loop(self, fig1b):
        dot = export_dot(build_sts(fig1b))
        assert '"(0,1,1)" -> "(0,1,1)";' in dot

    def test_single_clamped_vertex_sts(self):
        graph = RegulatoryGraph(["X"], clamps={"X": 1})
        dot = export_dot(build_sts(graph))
        assert '"(1)";' in dot
        assert '"(1)" -> "(1)";' in dot

    def test_sts_matches_scalar_reference(self, fig1a, fig1b, mapk):
        rng = random.Random(211)
        graphs = [fig1a, fig1b, mapk] + [
            random_graph(rng, density=0.3, clamp_chance=0.25) for _ in range(10)
        ]
        for graph in graphs:
            assert export_dot(build_sts(graph)) == reference_sts(*scalar_walk(graph), dot=True)

    def test_sts_renderer_memory_is_bounded_by_the_block(self):
        """The first blocks must not need a label for every one of 3^12 states."""
        names = [f"v{i}" for i in range(12)]
        sts = build_sts(RegulatoryGraph(names, list(zip(names, names[1:]))))
        tracemalloc.start()
        try:
            blocks = list(itertools.islice(transition_lines(sts, dot=True), 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert blocks[1].startswith('  "(-1,-1,-1,-1,-1,-1,-1,-1,-1,-1,-1,-1)";\n')
        assert peak < 8 * 2**20

    def test_sts_dot_is_joined_in_batches_under_a_slab(self):
        """Writing the DOT of a sparse 3^11 graph holds the label tables and
        3^7 lines at a time, 2.1 MiB; joins of a whole 3^9-line slab peaked
        at 6.0 MiB."""
        sts = build_sts(random_graph(random.Random(7), n=11, density=0.03))
        with open(os.devnull, "w") as sink:
            tracemalloc.start()
            try:
                for text in transition_lines(sts, dot=True):
                    sink.write(text)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 3 * 2 ** 20

    def test_deterministic(self, mapk):
        assert export_dot(mapk) == export_dot(load_example("mapk"))

    def test_type_error(self):
        with pytest.raises(TypeError):
            export_dot(42)


class TestJsonReports:
    def test_report_envelope_round_trips(self, fig1a):
        attractors = enumerate_attractors(fig1a)
        report = analysis_report("attractors", fig1a, {
            "count": len(attractors),
            "attractors": [attractor_json(a) for a in attractors],
        })
        assert json.loads(render_report(report)) == report
        assert report["graph"]["edges"] == [["A", "+", "B"], ["B", "-", "A"], ["C", "+", "A"]]
        assert report["command"] == "attractors"

    def test_all_result_shapes_serialize(self, fig1b, mapk):
        plain = mapk.without_clamps()
        trajectory = simulate(fig1b, (1, -1, 1))
        decision = decide_phenotype(plain, Phenotype({"FOXO3": 1, "AKT": 1}))
        witness = phenotype_witness(plain, Phenotype({"FOXO3": 1}))
        equivalence = check_simulation_equivalence(fig1b)
        for payload in (
            trajectory_json(trajectory),
            decision_json(decision),
            witness_json(witness),
            equivalence_json(equivalence),
            graph_json(mapk),
        ):
            assert json.loads(json.dumps(payload)) == payload
        assert trajectory_json(trajectory)["cycle"] == [[0, 1, 1]]
        assert decision_json(decision)["violations"][0]["inhibition_edge"] == ["AKT", "FOXO3"]
        assert witness_json(witness)["start"] == state_json(witness.start)
        assert equivalence_json(equivalence)["ok"] is True
