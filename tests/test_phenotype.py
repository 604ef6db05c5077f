"""Phenotype decisions, witness construction, and the exhaustive oracle."""

import itertools
import logging
import random

import pytest

import srg.phenotype
from srg import (
    Phenotype,
    RegulatoryGraph,
    SRGError,
    StateSpaceLimitError,
    TernaryState,
    Trajectory,
    UnknownVertexError,
    Violation,
    WitnessMarking,
    activation_reachable,
    attractors_with_phenotype,
    decide_phenotype,
    enumerate_attractors,
    phenotype_witness,
    simulate,
)

from helpers import random_graph, random_phenotype

S2 = TernaryState((-1, -1, -1, -1, -1, 1, -1))
S3 = TernaryState((-1, 1, 1, 1, 1, -1, 1))


def divergence_graph():
    """w activates u, u inhibits v; u is not a target."""
    return RegulatoryGraph(["w", "u", "v"], [("w", "u")], [("u", "v")])


@pytest.fixture(scope="module")
def mapk_plain(mapk):
    return mapk.without_clamps()


class TestActivationReachable:
    def test_forward_from_receptor(self, mapk):
        assert activation_reachable(mapk, "RTK") == {
            "RTK", "RAS", "PI3K", "MAPK", "PIP3", "AKT"
        }

    def test_backward_collects_ancestors(self, mapk):
        assert activation_reachable(mapk, ["AKT"], "backward") == {
            "AKT", "PIP3", "PI3K", "RTK", "RAS"
        }
        # FOXO3 is only reached through inhibition edges
        assert activation_reachable(mapk, "FOXO3", "backward") == {"FOXO3"}

    def test_zero_length_paths_only(self):
        graph = RegulatoryGraph(["X", "Y"], [], [("X", "Y")])
        assert activation_reachable(graph, "X") == {"X"}
        assert activation_reachable(graph, "X", "backward") == {"X"}

    def test_activation_cycle(self, fig1b):
        assert activation_reachable(fig1b, "A") == {"A", "B"}

    def test_bad_direction(self, fig1b):
        with pytest.raises(ValueError):
            activation_reachable(fig1b, "A", "sideways")

    def test_unknown_source(self, fig1b):
        with pytest.raises(UnknownVertexError):
            activation_reachable(fig1b, "Q")


class TestDecide:
    def test_both_active_blocked_by_inhibition_edge(self, mapk_plain):
        decision = decide_phenotype(mapk_plain, Phenotype({"FOXO3": 1, "AKT": 1}))
        assert not decision.admissible
        (violation,) = decision.violations
        assert violation.rule == "b"
        assert violation.source == "AKT"
        assert violation.target == "FOXO3"
        assert violation.activation_path == ("AKT",)  # zero-length path
        assert violation.inhibition_edge == ("AKT", "FOXO3")

    def test_proliferation_pattern_admissible(self, mapk_plain):
        decision = decide_phenotype(mapk_plain, Phenotype({"FOXO3": -1, "AKT": 1}))
        assert decision.admissible
        assert decision.violations == ()

    def test_empty_target_is_admissible(self, mapk_plain):
        decision = decide_phenotype(mapk_plain, Phenotype({}))
        assert decision.admissible

    def test_rule_a_reports_shortest_path(self, mapk_plain):
        # active RTK reaches inactive AKT through the activation chain
        decision = decide_phenotype(mapk_plain, Phenotype({"RTK": 1, "AKT": -1}))
        assert not decision.admissible
        rule_a = [v for v in decision.violations if v.rule == "a"]
        assert rule_a[0].activation_path == ("RTK", "PI3K", "PIP3", "AKT")

    def test_clamped_graph_is_decided_with_its_clamps(self, mapk):
        # mapk clamps RTK to -1
        assert decide_phenotype(mapk, Phenotype({"AKT": 1})).admissible
        (violation,) = decide_phenotype(mapk, Phenotype({"FOXO3": 1, "AKT": 1})).violations
        assert violation == Violation("b", "AKT", "FOXO3", ("AKT",), ("AKT", "FOXO3"))
        # a clamped active input is a source like an active target
        graph = RegulatoryGraph(["I", "X"], [("I", "X")], clamps={"I": 1})
        (violation,) = decide_phenotype(graph, Phenotype({"X": -1})).violations
        assert violation == Violation("a", "I", "X", ("I", "X"))

    @pytest.mark.parametrize("mode, rule", [("paths", "a"), ("literal", "b")])
    def test_target_clamped_the_other_way(self, mapk, mode, rule):
        decision = decide_phenotype(mapk, Phenotype({"RTK": 1}), mode=mode)
        assert not decision.admissible
        assert decision.violations == (Violation(rule, "RTK", "RTK", ("RTK",)),)

    def test_unknown_target(self, mapk_plain):
        with pytest.raises(UnknownVertexError):
            decide_phenotype(mapk_plain, Phenotype({"NOPE": 1}))

    def test_bad_mode(self, mapk_plain):
        with pytest.raises(ValueError):
            decide_phenotype(mapk_plain, Phenotype({"AKT": 1}), mode="oracle")


class TestDivergence:
    """The predecessor-only reading accepts a phenotype the path reading rejects."""

    def test_literal_admits_paths_rejects_oracle_empty(self):
        graph = divergence_graph()
        phenotype = Phenotype({"w": 1, "v": 1})
        assert decide_phenotype(graph, phenotype, mode="literal").admissible
        paths = decide_phenotype(graph, phenotype, mode="paths")
        assert not paths.admissible
        (violation,) = paths.violations
        assert violation.rule == "b"
        assert violation.activation_path == ("w", "u")
        assert violation.inhibition_edge == ("u", "v")
        assert attractors_with_phenotype(graph, phenotype) == []

    def test_witness_conflicts_at_w(self):
        witness = phenotype_witness(divergence_graph(), Phenotype({"w": 1, "v": 1}))
        assert not witness.admissible
        assert witness.marking.conflict == "w"
        assert witness.attractor is None

    def test_divergence_is_logged(self, caplog):
        with caplog.at_level(logging.WARNING, logger="srg.phenotype"):
            decide_phenotype(divergence_graph(), Phenotype({"w": 1, "v": 1}), mode="literal")
        assert any("path-based" in message for message in caplog.messages)

    def test_literal_labels_rules_by_its_own_conditions(self):
        # direct inhibition between active targets is literal rule (a)
        graph = RegulatoryGraph(["u", "v"], [], [("u", "v")])
        decision = decide_phenotype(graph, Phenotype({"u": 1, "v": 1}), mode="literal")
        assert not decision.admissible
        assert decision.violations[0].rule == "a"
        # active ancestor of an inactive target is literal rule (b)
        graph = RegulatoryGraph(["u", "m", "v"], [("u", "m"), ("m", "v")], [])
        decision = decide_phenotype(graph, Phenotype({"u": 1, "v": -1}), mode="literal")
        assert not decision.admissible
        assert decision.violations[0].rule == "b"
        assert decision.violations[0].activation_path == ("u", "m", "v")


class TestWitness:
    def test_single_active_target(self, mapk_plain):
        witness = phenotype_witness(mapk_plain, Phenotype({"FOXO3": 1}))
        assert witness.admissible
        assert witness.marking.marked == {
            "RTK": -1, "RAS": -1, "PI3K": -1, "MAPK": -1,
            "PIP3": -1, "FOXO3": 1, "AKT": -1,
        }
        assert witness.start == S2
        assert witness.attractor.states == (S2,)

    def test_empty_target_runs_from_completion(self, mapk_plain):
        witness = phenotype_witness(mapk_plain, Phenotype({}))
        assert witness.admissible
        assert witness.marking.marked == {}
        assert witness.start == TernaryState([-1] * 7)
        assert witness.attractor == simulate(mapk_plain, [-1] * 7).attractor()

    @pytest.mark.parametrize("completion", [-1, 0, 1])
    def test_any_constant_completion_carries_phenotype(self, mapk_plain, completion):
        phenotype = Phenotype({"FOXO3": -1, "AKT": 1})
        witness = phenotype_witness(mapk_plain, phenotype, completion=completion)
        assert witness.admissible
        for state in witness.attractor.states:
            assert state[5] == -1 and state[6] == 1

    def test_state_completion(self, mapk_plain):
        phenotype = Phenotype({"FOXO3": -1, "AKT": 1})
        witness = phenotype_witness(mapk_plain, phenotype, completion=(-1, 1, 1, 1, 1, -1, 1))
        assert witness.admissible
        assert witness.attractor.states == (S3,)

    def test_bad_completions(self, mapk_plain):
        with pytest.raises(ValueError):
            phenotype_witness(mapk_plain, Phenotype({}), completion=5)
        with pytest.raises(ValueError):
            phenotype_witness(mapk_plain, Phenotype({}), completion=(1, 1))

    def test_clamped_graph_marks_its_clamps(self, mapk):
        witness = phenotype_witness(mapk, Phenotype({"AKT": 1}))
        assert witness.admissible
        assert witness.marking.marked == {"RTK": -1, "AKT": 1}
        assert witness.attractor in attractors_with_phenotype(mapk, Phenotype({"AKT": 1}))
        conflict = phenotype_witness(mapk, Phenotype({"RTK": 1, "AKT": 1}))
        assert not conflict.admissible
        assert conflict.marking == WitnessMarking({"RTK": -1, "AKT": 1}, conflict="RTK")

    def test_dropped_phenotype_fails_closed(self, mapk_plain, monkeypatch):
        # A broken marking closure must raise, also under python -O.
        dropped = Trajectory(transient=(), cycle=(TernaryState([-1] * 7),))
        monkeypatch.setattr(srg.phenotype, "simulate", lambda graph, start: dropped)
        with pytest.raises(SRGError, match="dropped the phenotype"):
            phenotype_witness(mapk_plain, Phenotype({"FOXO3": 1}))

    def test_marking_never_adds_active_marks(self):
        rng = random.Random(71)
        for _ in range(150):
            graph = random_graph(rng, density=0.35)
            phenotype = random_phenotype(rng, graph, max_targets=3)
            witness = phenotype_witness(graph, phenotype)
            ones = {name for name, v in witness.marking.marked.items() if v == 1}
            assert ones == {name for name, v in phenotype.items() if v == 1}

    def test_marked_vertices_stay_frozen(self):
        rng = random.Random(72)
        for _ in range(150):
            graph = random_graph(rng, density=0.35)
            phenotype = random_phenotype(rng, graph, max_targets=3)
            witness = phenotype_witness(graph, phenotype)
            if not witness.admissible:
                continue
            for name, value in witness.marking.marked.items():
                i = graph.index_of(name)
                assert all(state[i] == value for state in witness.attractor.states)


class TestOracle:
    def test_quoted_phenotype_attractor_counts(self, mapk):
        # frozen by exhaustive enumeration over the clamp-consistent space
        counts = {}
        for foxo3, akt in [(-1, -1), (1, -1), (-1, 1), (1, 1)]:
            matches = attractors_with_phenotype(mapk, Phenotype({"FOXO3": foxo3, "AKT": akt}))
            counts[(foxo3, akt)] = len(matches)
        assert counts == {(-1, -1): 3, (1, -1): 1, (-1, 1): 15, (1, 1): 0}

    def test_quoted_fixed_points_match_their_phenotypes(self, mapk):
        assert any(
            a.states == (S3,)
            for a in attractors_with_phenotype(mapk, Phenotype({"FOXO3": -1, "AKT": 1}))
        )
        assert [a.states for a in attractors_with_phenotype(mapk, Phenotype({"FOXO3": 1, "AKT": -1}))] == [(S2,)]

    def test_trivial_single_vertex(self):
        graph = RegulatoryGraph(["X"])
        matches = attractors_with_phenotype(graph, Phenotype({"X": 1}))
        assert [a.states for a in matches] == [((1,),)]

    def test_unknown_target(self, mapk):
        with pytest.raises(UnknownVertexError):
            attractors_with_phenotype(mapk, Phenotype({"Q": 1}))

    def test_limit_counts_the_pinned_space(self, mapk):
        # 3^6 clamp-consistent states, 3^4 once FOXO3 and AKT are pinned
        phenotype = Phenotype({"FOXO3": -1, "AKT": 1})
        with pytest.raises(StateSpaceLimitError):
            enumerate_attractors(mapk, state_limit=81)
        pinned = attractors_with_phenotype(mapk, phenotype, state_limit=81)
        assert pinned == attractors_with_phenotype(mapk, phenotype)
        with pytest.raises(StateSpaceLimitError):
            attractors_with_phenotype(mapk, phenotype, state_limit=80)

    def test_target_on_a_clamped_vertex(self, mapk):
        # mapk clamps RTK to -1
        same = attractors_with_phenotype(mapk, Phenotype({"RTK": -1, "AKT": 1}))
        assert same == attractors_with_phenotype(mapk, Phenotype({"AKT": 1}))
        assert attractors_with_phenotype(mapk, Phenotype({"RTK": 1}), state_limit=1) == []


class TestAgreementProperties:
    """decide(paths), the witness, and the exhaustive oracle must agree, on
    clamped graphs too."""

    CORPUS_SEED = 424242

    def corpus(self):
        rng = random.Random(self.CORPUS_SEED)
        for _ in range(120):
            graph = random_graph(
                rng, n=rng.randint(2, 6), density=rng.choice((0.1, 0.25, 0.4)),
                clamp_chance=rng.choice((0.0, 0.3)),
            )
            phenotypes = [random_phenotype(rng, graph) for _ in range(4)]
            yield graph, phenotypes

    def test_paths_decision_matches_oracle(self):
        for graph, phenotypes in self.corpus():
            for phenotype in phenotypes:
                decided = decide_phenotype(graph, phenotype).admissible
                assert decided == bool(attractors_with_phenotype(graph, phenotype))

    def test_witness_agrees_with_decision_and_is_sound(self):
        for graph, phenotypes in self.corpus():
            for phenotype in phenotypes:
                witness = phenotype_witness(graph, phenotype)
                assert witness.admissible == decide_phenotype(graph, phenotype).admissible
                if witness.admissible:
                    required = {
                        graph.index_of(name): value for name, value in phenotype.items()
                    }
                    for state in witness.attractor.states:
                        assert all(state[i] == v for i, v in required.items())
                    assert witness.attractor in attractors_with_phenotype(graph, phenotype)

    def test_paths_admissible_implies_literal_admissible(self):
        for graph, phenotypes in self.corpus():
            for phenotype in phenotypes:
                if decide_phenotype(graph, phenotype).admissible:
                    assert decide_phenotype(graph, phenotype, mode="literal").admissible

    def test_every_phenotype_of_clamped_mapk(self, mapk):
        # each vertex untargeted, -1 or 1: 3^7 phenotypes, RTK=1 among them
        for values in itertools.product((None, -1, 1), repeat=mapk.n):
            phenotype = Phenotype(
                {name: v for name, v in zip(mapk.vertices, values) if v is not None}
            )
            matches = attractors_with_phenotype(mapk, phenotype)
            assert decide_phenotype(mapk, phenotype).admissible == bool(matches)
            witness = phenotype_witness(mapk, phenotype)
            assert witness.admissible == bool(matches)
            if matches:
                assert witness.attractor in matches


class TestPhenotypeValue:
    def test_validation(self):
        with pytest.raises(ValueError):
            Phenotype({"A": 0})
        phenotype = Phenotype({"B": -1, "A": 1})
        assert phenotype.targets == ("B", "A")
        assert len(phenotype) == 2
        assert phenotype == Phenotype({"B": -1, "A": 1})
        assert "A=1" in repr(phenotype)

    def test_non_integral_values_rejected(self):
        for value in (-1.2, 0.9, "1"):
            with pytest.raises(ValueError, match="must be -1 or 1"):
                Phenotype({"A": value})
        assert Phenotype({"A": -1.0}).assignment == {"A": -1}
